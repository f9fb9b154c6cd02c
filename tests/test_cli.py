import json
import random
import re
import time
from fractions import Fraction
from math import comb

import pytest

import rotke.cli
from rotke import PotentialSpec
from rotke.algebra import monomials_up_to
from rotke.cli import main
from rotke.reports import SpecFileError, emit_spec, parse_potential, parse_spec
from rotke.solver import MAX_CANDIDATE_SUPPORTS, MAX_SWEEP_CODIM, MAX_SWEEP_DEG_CAP, ClassificationReport

from conftest import rand_spec

VERONESE = {
    "n": 2,
    "monomials": [
        {"exponents": [2, 0], "coef": "1/4"},
        {"exponents": [0, 2], "coef": "1/4"},
        {"exponents": [1, 1], "coef": "1/2"},
    ],
    "lambda": "3",
}

SEGRE = {"n": 2, "monomials": [{"exponents": [1, 1], "coef": "1"}], "lambda": "4"}

# (1 + (x1 + x2)/4)^4, Einstein constant 3/2
CP2_SCALED4 = {
    "n": 2,
    "monomials": [
        {"exponents": [a, b], "coef": str(Fraction(comb(4, a) * comb(4 - a, b), 4 ** (a + b)))}
        for a in range(5) for b in range(5 - a) if a + b >= 2
    ],
}

SYMBOLIC = {
    "n": 2,
    "monomials": [
        {"exponents": [2, 0], "coef": {"sym": "a1"}},
        {"exponents": [0, 2], "coef": {"sym": "a2"}},
        {"exponents": [1, 1], "coef": {"sym": "b"}},
    ],
}


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


class TestSpecFiles:
    def test_round_trip_random_specs(self):
        rng = random.Random(41)
        for _ in range(60):
            spec = rand_spec(rng, n=rng.choice((1, 2, 3)))
            parsed, lam = parse_spec(emit_spec(spec, Fraction(7, 2)))
            assert parsed == spec
            assert lam == Fraction(7, 2)

    def test_round_trip_symbolic(self):
        spec, lam = parse_spec(SYMBOLIC)
        assert not spec.is_numeric()
        assert lam is None
        assert parse_spec(emit_spec(spec))[0] == spec

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda d: d.pop("n"),
            lambda d: d.update(n=0),
            lambda d: d["monomials"][0].update(coef="0.25"),
            lambda d: d["monomials"][0].update(exponents=[2]),
            lambda d: d["monomials"][0].update(exponents=[1, 0]),
            lambda d: d.update({"lambda": "1.5"}),
        ],
    )
    def test_malformed_files_report_field(self, mutate):
        payload = json.loads(json.dumps(VERONESE))
        mutate(payload)
        with pytest.raises(SpecFileError):
            parse_spec(payload)

    @pytest.mark.parametrize(
        "payload, field",
        [
            ({**VERONESE, "induced": "false"}, "spec.induced"),
            ({**VERONESE, "induced": 0}, "spec.induced"),
            ({"n": True, "monomials": [{"exponents": [2], "coef": "1"}]}, "spec.n"),
            ({"n": 2, "monomials": [{"exponents": [True, True], "coef": "1"}]}, "spec.monomials[0].exponents"),
        ],
    )
    def test_json_booleans_are_not_ints_or_flags(self, payload, field):
        with pytest.raises(SpecFileError, match=re.escape(field + ":")):
            parse_spec(payload)

    def test_induced_flag_round_trips(self):
        spec, _ = parse_spec({"n": 1, "monomials": [{"exponents": [2], "coef": "-1"}], "induced": False})
        assert not spec.induced
        assert parse_spec(emit_spec(spec))[0] == spec

    @pytest.mark.parametrize(
        "payload, field",
        [
            ({"n": True, "series": [{"exponents": [1], "coef": "1"}]}, "potential.n"),
            ({"n": 1, "series": [{"exponents": [True], "coef": "1"}]}, "potential.series[0].exponents"),
            ({"n": 1, "log_monomials": [{"exponents": [True], "coef": "1"}]}, "potential.log_monomials[0].exponents"),
        ],
    )
    def test_potential_files_reject_booleans(self, payload, field):
        with pytest.raises(SpecFileError, match=re.escape(field + ":")):
            parse_potential(payload, 4)

    @pytest.mark.parametrize("key", ["series", "log_monomials", "monomials"])
    @pytest.mark.parametrize("value", [5, "ab", {"exponents": [2], "coef": "1"}])
    def test_monomial_lists_must_be_lists(self, key, value):
        with pytest.raises(SpecFileError, match=re.escape(f"potential.{key}: must be a list")):
            parse_potential({"n": 1, key: value}, 4)
        if key == "monomials":
            with pytest.raises(SpecFileError, match=re.escape("spec.monomials: must be a list")):
                parse_spec({"n": 1, key: value})

    @pytest.mark.parametrize("keys", [
        ("series", "log_monomials"), ("series", "monomials"), ("log_monomials", "monomials"),
    ])
    def test_potential_files_take_one_encoding(self, keys, tmp_path, capsys):
        # once "series" won and the other key was dropped without a word
        payload = {"n": 1, **{key: [{"exponents": [2], "coef": "1"}] for key in keys}}
        found = " and ".join(f'"{key}"' for key in keys)
        with pytest.raises(SpecFileError, match=re.escape(f"potential: found {found}; need exactly one of")):
            parse_potential(payload, 4)
        assert main(["induced", "--spec", write(tmp_path, "p.json", payload)]) == 2
        assert f"found {found}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["induced", "normalize"])
    def test_non_list_series_is_a_usage_error(self, command, tmp_path, capsys):
        # once a TypeError traceback and exit 1, the FAIL verdict
        spec = write(tmp_path, "p.json", {"n": 1, "series": 5})
        assert main([command, "--spec", spec]) == 2
        assert f"{spec}.series: must be a list" in capsys.readouterr().err


class TestVerify:
    def test_pass_and_fail_and_usage_are_distinct(self, tmp_path, capsys):
        spec = write(tmp_path, "v.json", VERONESE)
        assert main(["verify", "--spec", spec]) == 0
        assert main(["verify", "--spec", spec, "--lambda", "4"]) == 1
        nolam = write(tmp_path, "nolam.json", {k: v for k, v in VERONESE.items() if k != "lambda"})
        assert main(["verify", "--spec", nolam]) == 2

    def test_parser_built_once_keeps_no_state_between_calls(self, tmp_path, capsys, monkeypatch):
        spec = write(tmp_path, "v.json", VERONESE)  # lambda 3 in the file: PASS
        calls = [
            ["verify", "--spec", spec, "--lambda", "4", "--format", "json", "--exact", "--degree", "3"],
            ["verify", "--spec", spec, "--lambda", "4", "--format", "json"],
            ["verify", "--spec", spec],
        ]

        def run(argv):
            try:
                rc = main(argv)
            except SystemExit as exc:
                rc = exc.code
            return (rc, *capsys.readouterr())

        cached = [run(argv) for argv in calls]
        assert rotke.cli._parser() is rotke.cli._parser()
        monkeypatch.setattr(rotke.cli, "_parser", rotke.cli.build_parser)
        fresh = [run(argv) for argv in calls]
        assert cached == fresh
        assert [rc for rc, _, _ in cached] == [2, 1, 0]
        assert "not allowed with argument" in cached[0][2]
        assert json.loads(cached[1][1])["status"] == "FAIL"
        assert cached[2][1].split()[:2] == ["status", "PASS"]

    def test_segre_examples(self, tmp_path, capsys):
        spec = write(tmp_path, "s.json", SEGRE)
        assert main(["verify", "--spec", spec, "--lambda", "4"]) == 0
        assert main(["verify", "--spec", spec, "--lambda", "6"]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "witness" in out

    def test_large_denominator_lambda_fails_quickly(self, tmp_path, capsys):
        # CP^2 scaled(4) at lambda = 51/32: q' = 64, compared through degree 13
        spec = write(tmp_path, "s4.json", CP2_SCALED4)
        assert main(["verify", "--spec", spec, "--lambda", "51/32", "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert (payload["status"], payload["identity"]) == ("FAIL", "det(B)^64 = P^141")
        assert payload["witness_monomial"] == [0, 1]

    def test_symbolic_spec_is_usage_error(self, tmp_path, capsys):
        spec = write(tmp_path, "sym.json", SYMBOLIC)
        assert main(["verify", "--spec", spec, "--lambda", "3", "--exact"]) == 2

    def test_degree_mode(self, tmp_path, capsys):
        spec = write(tmp_path, "v.json", VERONESE)
        assert main(["verify", "--spec", spec, "--degree", "6"]) == 0
        out = capsys.readouterr().out
        assert "degree:6" in out

    def test_decimal_lambda_rejected(self, tmp_path):
        spec = write(tmp_path, "v.json", VERONESE)
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--spec", spec, "--lambda", "0.5"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("mode", [[], ["--degree", "4"]])
    def test_nonpositive_lambda_flag_is_usage_error(self, mode, tmp_path, capsys):
        spec = write(tmp_path, "v.json", VERONESE)
        assert main(["verify", "--spec", spec, "--lambda", "0"] + mode) == 2
        assert "must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", [[], ["--degree", "4"]])
    def test_nonpositive_lambda_in_spec_is_usage_error(self, mode, tmp_path, capsys):
        spec = write(tmp_path, "v.json", dict(VERONESE, **{"lambda": "-3/2"}))
        assert main(["verify", "--spec", spec] + mode) == 2
        assert "must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("lam,code", [("1000000", 1), ("1/1000000", 1), ("10000000", 2), ("1/10000000", 2)])
    @pytest.mark.parametrize("in_file", [False, True])
    def test_lambda_size_is_capped(self, lam, code, in_file, tmp_path, capsys):
        # a certificate's integers grow with lambda's numerator and denominator
        assert rotke.cli.MAX_LAMBDA_PART == 10 ** 6
        half = {"n": 2, "monomials": [{"exponents": [1, 1], "coef": "1/2"}]}
        if in_file:
            spec, argv = write(tmp_path, "s.json", dict(half, **{"lambda": lam})), []
        else:
            spec, argv = write(tmp_path, "s.json", half), ["--lambda", lam]
        assert main(["verify", "--spec", spec] + argv) == code
        if code == 2:
            assert "above 1000000" in capsys.readouterr().err

    @pytest.mark.parametrize("lam,status,identity", [
        ("3", "PASS", "det(B)^2 = P^3"),  # e = (n+1)q' - p' = 3
        ("8", "FAIL", "det(B)^1 * P^1 = 1"),  # e = -1
    ])
    def test_identity_names_compared_polynomials(self, lam, status, identity, tmp_path, capsys):
        spec = write(tmp_path, "v.json", VERONESE)
        main(["verify", "--spec", spec, "--lambda", lam, "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert (payload["status"], payload["identity"]) == (status, identity)

    def test_json_format_carries_schema(self, tmp_path, capsys):
        spec = write(tmp_path, "v.json", VERONESE)
        assert main(["verify", "--spec", spec, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"].startswith("rotke/report/")
        assert payload["status"] == "PASS"


class TestConstraints:
    def test_emits_equations(self, tmp_path, capsys):
        spec = write(tmp_path, "sym.json", SYMBOLIC)
        assert main(["constraints", "--spec", spec, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "constraints"
        assert "lambda" in payload["unknowns"]
        assert payload["equations"]

    def test_numeric_spec_is_usage_error(self, tmp_path, capsys):
        spec = write(tmp_path, "v.json", VERONESE)
        assert main(["constraints", "--spec", spec]) == 2

    def test_einstein_constant_name_is_reserved(self, tmp_path, capsys):
        # once the support unknown silently became lambda itself
        payload = {"n": 2, "monomials": [{"exponents": [1, 1], "coef": {"sym": "lambda"}}]}
        spec = write(tmp_path, "lam.json", payload)
        assert main(["constraints", "--spec", spec, "--degree", "2"]) == 2
        err = capsys.readouterr().err
        assert f"{spec}.monomials[0].coef: symbol 'lambda' is reserved for the Einstein constant" in err

    def test_degree_floor_is_the_library_floor(self, tmp_path, capsys):
        # deg P = 3: extract_constraints is exact from degree 2 up
        cubic = {"n": 2, "monomials": SYMBOLIC["monomials"] + [{"exponents": [0, 3], "coef": {"sym": "c"}}]}
        spec = write(tmp_path, "cubic.json", cubic)
        assert main(["constraints", "--spec", spec, "--format", "json"]) == 0
        full = json.loads(capsys.readouterr().out)["equations"]
        assert main(["constraints", "--spec", spec, "--format", "json", "--degree", "2"]) == 0
        low = json.loads(capsys.readouterr().out)["equations"]
        assert 0 < len(low) < len(full)
        assert low == [e for e in full if sum(e["residual_monomial"]) <= 2]
        assert main(["constraints", "--spec", spec, "--degree", "1"]) == 2
        assert "--degree must be >= 2" in capsys.readouterr().err


class TestInducedAndNormalize:
    def test_induced_fractional_power(self, tmp_path, capsys):
        pot = write(
            tmp_path,
            "p.json",
            {"n": 1, "log_scale": "3/2", "log_monomials": [{"exponents": [1], "coef": "1"}]},
        )
        assert main(["induced", "--spec", pot, "--degree", "6"]) == 1
        assert "NOT-INDUCED" in capsys.readouterr().out

    def test_induced_line(self, tmp_path, capsys):
        pot = write(
            tmp_path,
            "p.json",
            {"n": 1, "log_monomials": [{"exponents": [1], "coef": "1"}]},
        )
        assert main(["induced", "--spec", pot, "--degree", "6"]) == 0
        out = capsys.readouterr().out
        assert "INDUCED-UP-TO-6" in out and "codim       0" in out

    def test_normalize(self, tmp_path, capsys):
        pot = write(
            tmp_path,
            "p.json",
            {"n": 1, "series": [{"exponents": [1], "coef": "3"}, {"exponents": [2], "coef": "1"}]},
        )
        assert main(["normalize", "--spec", pot, "--degree", "4", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["scaling"] == ["3"]
        assert {"exponents": [2], "coef": "1/9"} in payload["series"]

    def test_normalize_rejects_degenerate(self, tmp_path, capsys):
        pot = write(tmp_path, "p.json", {"n": 1, "series": [{"exponents": [2], "coef": "1"}]})
        assert main(["normalize", "--spec", pot]) == 2


class TestOracleCheck:
    def test_models_agree(self, tmp_path, capsys):
        for name, payload in (("v.json", VERONESE), ("s.json", SEGRE)):
            spec = write(tmp_path, name, payload)
            assert main(["oracle-check", "--spec", spec]) == 0

    def test_dimension_refusal(self, tmp_path, capsys):
        spec = write(tmp_path, "n4.json", {"n": 4, "monomials": [{"exponents": [2, 0, 0, 0], "coef": "1"}]})
        assert main(["oracle-check", "--spec", spec]) == 2
        assert "n <= 3" in capsys.readouterr().err


class TestSweepCommand:
    def test_single_entry(self, tmp_path, capsys):
        assert main(["sweep", "--dims", "2..2", "--max-codim", "0", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["entries"]) == 1
        [sol] = payload["entries"][0]["solutions"]
        assert sol["lambda"] == "6" and sol["tag"] == "CPn_unit"

    def test_report_written_to_file(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["sweep", "--dims", "2..2", "--max-codim", "1", "--out", str(out), "--format", "json"]) == 0
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert payload["kind"] == "sweep"

    def test_identical_invocations_are_byte_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        for path in (a, b):
            assert main(["sweep", "--dims", "2..2", "--max-codim", "2", "--out", str(path)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert b"\r" not in a.read_bytes()

    def test_bad_dims_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--dims", "3..2"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv,message", [
        (["--dims", "2..9"], "dimensions must lie in 1..8"),
        (["--dims", "2..2", "--deg-cap", "1"], "degree cap 1 is below 2"),
        (["--dims", "2..2", "--max-codim", "-1"], "codimension -1 is below 0"),
    ])
    def test_out_of_range_options_are_usage_errors(self, argv, message, monkeypatch, capsys):
        monkeypatch.setattr(rotke.cli, "sweep", lambda *args, **kwargs: pytest.fail("sweep ran"))
        assert main(["sweep", *argv]) == 2
        # the library's message, unchanged
        assert capsys.readouterr().err == f"rotke sweep: {message}\n"

    def test_degree_is_not_a_sweep_option(self, monkeypatch, capsys):
        # each support climbs its own truncation; there is no knob to set it
        monkeypatch.setattr(rotke.cli, "sweep", lambda *args, **kwargs: pytest.fail("sweep ran"))
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--dims", "2..2", "--max-codim", "1", "--deg-cap", "3", "--degree", "3"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --degree 3" in capsys.readouterr().err

    def test_too_many_candidate_supports_is_a_usage_error(self, monkeypatch, capsys):
        monkeypatch.setattr(rotke.cli, "sweep", lambda *args, **kwargs: pytest.fail("sweep ran"))
        assert main(["sweep", "--dims", "2..2", "--max-codim", "8", "--deg-cap", "8"]) == 2
        err = capsys.readouterr().err
        assert "dimension 2 has 151229281 candidate supports of size <= 8 and degree <= 8" in err
        assert err.endswith(f"more than the cap of {MAX_CANDIDATE_SUPPORTS}\n")
        # without --deg-cap the cap is max(max-codim, 2)
        assert main(["sweep", "--dims", "2..2", "--max-codim", "8"]) == 2
        assert "degree <= 8" in capsys.readouterr().err

    def test_codimension_above_its_cap_is_a_usage_error(self, monkeypatch, capsys):
        # without the cap the candidate count alone ran past 20 s
        monkeypatch.setattr(rotke.cli, "sweep", lambda *args, **kwargs: pytest.fail("sweep ran"))
        start = time.perf_counter()
        assert main(["sweep", "--dims", "1..1", "--max-codim", "20000"]) == 2
        assert time.perf_counter() - start < 1
        err = capsys.readouterr().err
        assert err == f"rotke sweep: codimension 20000 is above the cap of {MAX_SWEEP_CODIM}\n"
        assert "--deg-cap" not in err

    def test_degree_cap_above_its_cap_is_a_usage_error(self, capsys):
        # without the cap this was still running after 120 s
        start = time.perf_counter()
        assert main(["sweep", "--dims", "1..1", "--max-codim", "1", "--deg-cap", "40"]) == 2
        assert time.perf_counter() - start < 1
        err = capsys.readouterr().err
        assert err == f"rotke sweep: degree cap 40 is above the cap of {MAX_SWEEP_DEG_CAP} for an enumerated dimension\n"
        # a dimension above 2k is not enumerated, so its degree is not capped
        assert main(["sweep", "--dims", "3..3", "--max-codim", "1", "--deg-cap", "40"]) == 0

    def test_jobs_capped_at_cpu_count(self, monkeypatch, capsys):
        seen = []

        def fake_sweep(dims, k_max, deg_cap=None, jobs=1):
            seen.append(jobs)
            return ClassificationReport((2, 2), k_max, 2, 4, ())

        monkeypatch.setattr(rotke.cli, "sweep", fake_sweep)
        monkeypatch.setattr(rotke.cli.os, "cpu_count", lambda: 1)
        assert main(["sweep", "--dims", "2..2", "--max-codim", "0", "--jobs", "2"]) == 0
        monkeypatch.setattr(rotke.cli.os, "cpu_count", lambda: None)
        assert main(["sweep", "--dims", "2..2", "--max-codim", "0", "--jobs", "2"]) == 0
        monkeypatch.setattr(rotke.cli.os, "cpu_count", lambda: 4)
        assert main(["sweep", "--dims", "2..2", "--max-codim", "0", "--jobs", "2"]) == 0
        assert seen == [1, 1, 2]


LINE = {"n": 1, "log_monomials": [{"exponents": [1], "coef": "1"}]}


class TestDegreeCap:
    @pytest.mark.parametrize("command,payload,extra", [
        ("verify", VERONESE, []),
        ("induced", LINE, []),
        ("normalize", LINE, []),
        ("constraints", SYMBOLIC, []),
    ])
    def test_degree_above_cap_is_usage_error(self, command, payload, extra, tmp_path, capsys):
        spec = ["--spec", write(tmp_path, "s.json", payload)] if payload else []
        assert main([command, *spec, *extra, "--degree", str(rotke.cli.MAX_DEGREE + 1)]) == 2
        assert f"--degree must be <= {rotke.cli.MAX_DEGREE}" in capsys.readouterr().err

    @pytest.mark.parametrize("command,payload", [("verify", VERONESE), ("induced", LINE), ("normalize", LINE)])
    def test_degree_at_cap_runs(self, command, payload, tmp_path, capsys):
        spec = write(tmp_path, "s.json", payload)
        assert main([command, "--spec", spec, "--degree", str(rotke.cli.MAX_DEGREE)]) == 0


def first_degree_above_term_cap(n):
    return next(d for d in range(1, rotke.cli.MAX_DEGREE + 1) if comb(d + n, n) > rotke.cli.MAX_TERMS)


DENSE7 = {
    "n": 7,
    "monomials": [{"exponents": list(m), "coef": "1/7"} for m in monomials_up_to(7, 3) if sum(m) >= 2],
    "lambda": "3",
}
SYMBOLIC7 = {"n": 7, "monomials": [{"exponents": [1, 1, 0, 0, 0, 0, 0], "coef": {"sym": "b"}}]}
LINES3 = {"n": 3, "series": [{"exponents": e, "coef": "1"} for e in ([1, 0, 0], [0, 1, 0], [0, 0, 1])]}


class TestTermCap:
    @pytest.mark.parametrize("command,payload", [
        ("verify", DENSE7),
        ("constraints", SYMBOLIC7),
        ("induced", LINES3),
        ("normalize", LINES3),
    ])
    def test_terms_above_cap_are_usage_error(self, command, payload, tmp_path, capsys):
        spec = write(tmp_path, "s.json", payload)
        degree = first_degree_above_term_cap(payload["n"])
        assert degree <= rotke.cli.MAX_DEGREE
        assert main([command, "--spec", spec, "--degree", str(degree)]) == 2
        err = capsys.readouterr().err
        assert f"more than the cap of {rotke.cli.MAX_TERMS}" in err
        assert f"up to {comb(degree + payload['n'], payload['n'])} series terms" in err

    def test_terms_at_cap_run(self, tmp_path, capsys):
        spec = write(tmp_path, "s.json", LINES3)
        degree = first_degree_above_term_cap(3) - 1
        assert main(["normalize", "--spec", spec, "--degree", str(degree), "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["scaling"] == ["1", "1", "1"]

    def test_every_degree_runs_in_two_variables(self):
        assert comb(rotke.cli.MAX_DEGREE + 2, 2) <= rotke.cli.MAX_TERMS

    def test_malformed_potential_is_reported_before_the_cap(self, tmp_path, capsys):
        spec = write(tmp_path, "s.json", {"n": "3", "series": []})
        assert main(["induced", "--spec", spec, "--degree", "30"]) == 2
        assert ".n: must be a positive integer" in capsys.readouterr().err
