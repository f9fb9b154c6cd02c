"""Tests of the benchmark itself: the gate, span arithmetic, twins, tracer.

    python3 -m pytest -q perfbench/tests
"""

import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import Span  # noqa: E402


@pytest.fixture(scope="module")
def reference():
    return json.loads((HERE / "reference.json").read_text())


def payload_from(ref: dict) -> dict:
    """A sweep report that agrees with the reference in every verdict."""
    entries = []
    for n, k, support, status, solutions in ref["entries"]:
        entries.append({
            "n": n, "k": k, "support": support, "status": status,
            "witness": None, "note": "prescreen" if status == "INFEASIBLE" else "",
            "solutions": [
                {"assignment": dict(a), "lambda": lam, "tag": tag, "certificate": "PASS"}
                for a, lam, tag in solutions
            ],
        })
    return {"counts": dict(ref["counts"]), "entries": entries}


# -- correctness gate ---------------------------------------------------------


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_gate_accepts_reference(reference, workload):
    ref = reference[workload]
    gate = workloads.check_sweep(payload_from(ref), ref["exit_code"], ref)
    assert (gate.failed, gate.problems) == (0, [])
    assert gate.attempted == len(ref["entries"])


@pytest.mark.parametrize("field, value", [("status", "INFEASIBLE"), ("lambda", "7"), ("tag", "UNKNOWN")])
def test_gate_rejects_tampered_verdict(reference, field, value):
    ref = reference["verify"]
    payload = payload_from(ref)
    solved = next(e for e in payload["entries"] if e["status"] == "SOLVED")
    if field == "status":
        solved["status"] = value
    else:
        solved["solutions"][0][field] = value
    gate = workloads.check_sweep(payload, 0, ref)
    assert gate.failed == 1
    assert any("digest" in p for p in gate.problems)


def test_gate_rejects_missing_entry_exit_code_and_exception(reference):
    ref = reference["verify"]
    payload = payload_from(ref)
    del payload["entries"][-1]
    assert workloads.check_sweep(payload, 0, ref).failed == 1
    gate = workloads.check_sweep(payload_from(ref), 1, ref)
    assert gate.failed == 1 and any("exit code" in p for p in gate.problems)
    gate = workloads.check_sweep(None, None, ref, "RuntimeError: boom")
    assert gate.failed == gate.attempted == len(ref["entries"])


def test_gate_ignores_witness_and_note(reference):
    ref = reference["verify"]
    payload = payload_from(ref)
    for e in payload["entries"]:
        e["witness"], e["note"] = "a(0,2) - 1", "anything"
    assert workloads.check_sweep(payload, 0, ref).problems == []


def test_certificate_check(tmp_path):
    out = tmp_path / "v.json"
    out.write_text(json.dumps({"status": "FAIL"}))
    fail = workloads.CertInput("m~fail", "spec.json", "4/1", "FAIL")
    passing = workloads.CertInput("m", "spec.json", "4/1", "PASS")
    assert workloads.check_certificate(fail, out, 1, None) is None
    assert workloads.check_certificate(passing, out, 1, None)
    assert workloads.check_certificate(fail, out, 0, None)
    assert workloads.check_certificate(fail, out, None, "ValueError: x")


# -- span arithmetic ------------------------------------------------------------


def synthetic_spans():
    # main [0, 10] > sweep [1, 9] > extract [2, 5] > ma [3, 4]
    #                             > certify [6, 8] > pow [6.5, 7] > pow [6.6, 6.8]
    # main > render [9.5, 10]
    return [
        Span(3, "geometry.ma_log_residual", 3.0, 4.0, 2, 1),
        Span(2, "solver.extract_constraints", 2.0, 5.0, 1, 1),
        Span(6, "series.Series.pow_trunc", 6.6, 6.8, 5, 1),
        Span(5, "series.Series.pow_trunc", 6.5, 7.0, 4, 1),
        Span(4, "geometry.certify_exact", 6.0, 8.0, 1, 1),
        Span(1, "solver.sweep", 1.0, 9.0, 0, 1),
        Span(7, "reports.render_json", 9.5, 10.0, 0, 1),
        Span(0, "cli.main", 0.0, 10.0, None, 1),
    ]


def test_self_times_on_synthetic_tree():
    selfs = tracing.self_times(synthetic_spans())
    expected = {0: 1.5, 1: 3.0, 2: 2.0, 3: 1.0, 4: 1.5, 5: 0.3, 6: 0.2, 7: 0.5}
    assert selfs == pytest.approx(expected)
    assert sum(selfs.values()) == pytest.approx(10.0)


def test_layer_summary():
    summary = tracing.layer_summary(synthetic_spans())
    assert summary["series.Series.pow_trunc"]["calls"] == 2
    assert summary["series.Series.pow_trunc"]["self_s"] == pytest.approx(0.5)
    assert summary["solver.sweep"] == pytest.approx({"calls": 1, "inclusive_s": 8.0, "self_s": 3.0})


def test_recheck_skips_extraction_residuals():
    spans = synthetic_spans()
    assert tracing.recheck_seconds(spans) == pytest.approx(2.0)  # certify only
    spans.append(Span(8, "geometry.ma_log_residual", 5.0, 5.5, 1, 1))
    assert tracing.recheck_seconds(spans) == pytest.approx(2.5)
    # a certificate outside any sweep is not a re-check
    spans.append(Span(9, "geometry.certify_exact", 11.0, 12.0, None, 2))
    assert tracing.recheck_seconds(spans) == pytest.approx(2.5)


# -- FAIL twins ---------------------------------------------------------------


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_fail_twins_repeat_for_a_seed(reference, workload):
    pairs = workloads.certificate_pairs(workload, 7, reference[workload])
    assert pairs == workloads.certificate_pairs(workload, 7, reference[workload])
    assert pairs and all(twin != cand for cand, twin in pairs)


def test_fail_twins_depend_on_seed(reference):
    ref = reference["verify"]
    twins = {seed: [t for _, t in workloads.certificate_pairs("verify", seed, ref)] for seed in range(4)}
    assert len({tuple(t) for t in twins.values()}) > 1


def test_twin_of_empty_support_moves_lambda():
    cand = workloads.Candidate("CP3_unit", 3, (), Fraction(8))
    twin = workloads.fail_twin(cand, random.Random(0))
    assert (twin.coefs, twin.lam) == ((), Fraction(6))


def test_small_models_pass_and_their_twins_fail():
    from rotke.geometry import EinsteinCandidate, PotentialSpec, certify_exact

    rng = random.Random(3)
    small = [c for c in workloads.model_candidates() if c.n <= 3 and "scaled(4)" not in c.name]
    assert len(small) == 8
    for cand in small:
        twin = workloads.fail_twin(cand, rng)
        for c, want in ((cand, "PASS"), (twin, "FAIL")):
            spec = PotentialSpec(c.n, c.coefs)
            assert certify_exact(EinsteinCandidate(spec, c.lam)).status == want, c


# -- tracer and metric names ------------------------------------------------------


def test_tracer_wraps_and_restores(tmp_path):
    import rotke.cli
    import rotke.geometry

    original = rotke.geometry.certify_exact
    spec = tmp_path / "s.json"
    spec.write_text(json.dumps({"n": 2, "monomials": []}))
    with tracing.Tracer() as tracer:
        assert rotke.cli.certify_exact is not original
        rc = rotke.cli.main(["verify", "--spec", str(spec), "--lambda", "6", "--out", str(tmp_path / "o")])
    assert rc == 0
    assert rotke.cli.certify_exact is original and rotke.geometry.certify_exact is original
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["geometry.certify_exact"].parent == by_name["cli.main"].sid
    assert by_name["geometry.det_numerator"].parent == by_name["geometry.certify_exact"].sid
    assert tracer.counters["geometry.certify_exact"]["pass"] == 1
    assert {s.run for s in tracer.spans} == {1}


def test_metric_names_match_benchmark_json():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    fake = workloads.PassResult(1.0, 0.9, 0.1, [0.4], [0.5], sweep_payload={"entries": []})
    e2e = run.end_to_end_metrics([0.1, 0.2], [fake])
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == [(k, u) for k, (_, u) in e2e.items()]
    tracer = tracing.Tracer()
    tracer.spans.extend(synthetic_spans())
    layer = run.per_layer_metrics(tracer, fake, [1.0], 0.0)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == [(k, u) for k, (_, u) in layer.items()]
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)


def test_certify_metrics_take_fastest_rep_per_pass():
    passes = [
        workloads.PassResult(1.0, 1.0, 0.5, [0.30, 0.20, 0.25], [0.40, 0.45, 0.35]),
        workloads.PassResult(1.0, 1.0, 0.5, [0.22, 0.50, 0.60], [0.37, 0.90, 0.80]),
        workloads.PassResult(1.0, 1.0, 0.5, [0.90, 0.21, 0.95], [0.36, 0.99, 0.98]),
    ]
    e2e = run.end_to_end_metrics([0.1, 0.3, 0.2], passes)
    assert e2e["certify_pass_s"] == (0.21, "s")
    assert e2e["certify_fail_s"] == (0.36, "s")
    assert e2e["setup_s"] == (0.2, "s")


def test_certificate_reps_are_split_around_the_sweep(tmp_path, reference):
    reference = reference["sweep-cubic"]
    order = []

    class FakeCli:
        @staticmethod
        def main(argv):
            if argv[0] == "sweep":
                order.append("sweep")
                Path(argv[argv.index("--out") + 1]).write_text(json.dumps(payload_from(reference)))
                return reference["exit_code"]
            out = Path(argv[argv.index("--out") + 1])
            order.append(out.name.split("-r")[-1])
            expect = "FAIL" if "fail" in argv[argv.index("--spec") + 1] else "PASS"
            out.write_text(json.dumps({"status": expect}))
            return 0 if expect == "PASS" else 1

    inputs = workloads.write_inputs("sweep-cubic", 1, reference, tmp_path)
    inputs = workloads.Inputs(inputs.workdir, inputs.sweep_argv, inputs.certs[:2], 5)
    res = workloads.run_pass(FakeCli, inputs, reference)
    assert order == ["0.json"] * 2 + ["1.json"] * 2 + ["2.json"] * 2 + ["sweep"] + ["3.json"] * 2 + ["4.json"] * 2
    assert len(res.pass_s) == len(res.fail_s) == 5
    assert res.failed == 0 and not res.problems
