"""Run one workload of the rotke benchmark and print its metrics.

    python3 perfbench/run.py --workload sweep-cubic --seed 1 --seconds 25 --trace 0

Run from anywhere; the program under test is ``src/rotke`` of the checkout
that holds this file.  With ``--trace 0`` the workload runs untraced and the
end-to-end metrics are printed; with ``--trace 1`` untraced passes are
followed by one traced pass and the per-layer metrics are printed.  The last
line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  The exit code is 0 when every
verdict matched, 1 when the correctness gate failed and 2 when the checkout
holds no program to run.  Run records, spans and layer summaries are written
under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"
SETUP_PROBES = 11


def _import_program():
    """Import rotke from this checkout's src/, or exit 2 if there is none."""
    if not (SRC / "rotke" / "__init__.py").is_file():
        print(f"perfbench: no rotke package under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import rotke.cli as cli

    if Path(cli.__file__).resolve().parent != SRC / "rotke":
        print(f"perfbench: imported rotke from {cli.__file__}, not from {SRC}", file=sys.stderr)
        sys.exit(2)
    return cli


def _load_reference(workload: str) -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)[workload]


# ---------------------------------------------------------------------------
# Set-up time
# ---------------------------------------------------------------------------


def setup_probe(workload: str, seed: int, workdir: Path) -> None:
    """Child process: import rotke, write the inputs, print the clock."""
    _import_program()
    workloads.write_inputs(workload, seed, _load_reference(workload), workdir)
    print(repr(time.monotonic()), flush=True)


def measure_setup(workload: str, seed: int, scratch: Path) -> list:
    """Seconds from spawning a fresh interpreter until its inputs are written.

    time.monotonic is CLOCK_MONOTONIC on Linux, shared by parent and child.
    """
    samples = []
    for i in range(SETUP_PROBES):
        workdir = scratch / f"setup-{i}"
        argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe", str(workdir),
                "--workload", workload, "--seed", str(seed)]
        spawned = time.monotonic()
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, timeout=60, check=True)
        samples.append(float(proc.stdout.split()[-1]) - spawned)
        shutil.rmtree(workdir, ignore_errors=True)
    return samples


# ---------------------------------------------------------------------------
# Environment record
# ---------------------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "rotke").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
        "src_sha256": _source_digest(),
        "pythonhashseed": os.environ.get("PYTHONHASHSEED", "random"),
        "loadavg_at_start": os.getloadavg(),
    }


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def end_to_end_metrics(setup, passes) -> dict:
    """Medians over set-up probes and passes.

    A pass that repeats its certificate list contributes its fastest rep:
    every rep does the same arithmetic, and the host's speed drifts over
    seconds, so a slower rep measures the host, not the program.
    """
    return {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.median(p.wall_s for p in passes), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "certify_pass_s": (statistics.median(min(p.pass_s) for p in passes), "s"),
        "certify_fail_s": (statistics.median(min(p.fail_s) for p in passes), "s"),
    }


# (span name, quantity, unit), reported as "<span name>.<quantity>": calls
# and self_s come from the span tree, other quantities from the counters.
LAYER_METRICS = (
    ("solver.enumerate_supports", "calls", "count"),
    ("solver.enumerate_supports", "self_s", "s"),
    ("solver.extract_constraints", "calls", "count"),
    ("solver.extract_constraints", "self_s", "s"),
    ("solver.extract_constraints", "equations", "count"),
    ("solver.extract_constraints", "max_coef_bits", "bits"),
    ("solver.solve_system", "calls", "count"),
    ("solver.solve_system", "self_s", "s"),
    ("solver.solve_system", "infeasible", "count"),
    ("solver.solve_system", "solved", "count"),
    ("solver.solve_system", "unresolved", "count"),
    ("solver.classify", "calls", "count"),
    ("solver.classify", "self_s", "s"),
    ("geometry.build_potential", "calls", "count"),
    ("geometry.build_potential", "self_s", "s"),
    ("geometry.det_numerator", "calls", "count"),
    ("geometry.det_numerator", "self_s", "s"),
    ("geometry.det_numerator", "terms", "count"),
    ("geometry.ma_log_residual", "calls", "count"),
    ("geometry.ma_log_residual", "self_s", "s"),
    ("geometry.certify_exact", "calls", "count"),
    ("geometry.certify_exact", "self_s", "s"),
    ("geometry.certify_exact", "pass", "count"),
    ("geometry.certify_exact", "fail", "count"),
    ("geometry.certify_exact", "fail_s", "s"),
    ("series.series_log1p", "calls", "count"),
    ("series.series_log1p", "self_s", "s"),
    ("series.Series.pow_trunc", "calls", "count"),
    ("series.Series.pow_trunc", "self_s", "s"),
    ("reports.sweep_payload", "self_s", "s"),
    ("reports.render_json", "self_s", "s"),
    ("cli.main", "self_s", "s"),
)


def per_layer_metrics(tracer, traced, untraced_walls, failed_frac) -> dict:
    summary = tracing.layer_summary(tracer.spans)
    metrics = {}
    for span, quantity, unit in LAYER_METRICS:
        if quantity in ("calls", "self_s"):
            value = summary.get(span, {}).get(quantity, 0)
        else:
            value = tracer.counters[span][quantity]
        metrics[f"{span}.{quantity}"] = (value, unit)
    covered = sum(row["self_s"] for row in summary.values())
    metrics["solver.prescreen_ratio"] = (workloads.prescreen_ratio(traced.sweep_payload or {"entries": []}), "ratio")
    metrics["solver.recheck_s"] = (tracing.recheck_seconds(tracer.spans), "s")
    metrics["trace.overhead_s"] = (traced.wall_s - statistics.median(untraced_walls), "s")
    metrics["trace.coverage"] = (covered / traced.wall_s, "ratio")
    metrics["failed_frac"] = (failed_frac, "ratio")
    return metrics


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25.0,
                   help="time budget: passes repeat while the next one is predicted to fit")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload, args.seed, Path(args.setup_probe))
        return 0
    cli = _import_program()
    env = environment(args)
    rundir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)
    setup = measure_setup(args.workload, args.seed, rundir)

    reference = _load_reference(args.workload)
    inputs = workloads.write_inputs(args.workload, args.seed, reference, rundir / "work")
    passes = []
    started = time.perf_counter()
    while True:
        passes.append(workloads.run_pass(cli, inputs, reference))
        if time.perf_counter() - started + passes[-1].wall_s > args.seconds:
            break
    untraced_walls = [p.wall_s for p in passes]
    if args.trace:
        with tracing.Tracer() as tracer:
            passes.append(workloads.run_pass(cli, inputs, reference))
        tracer.write_jsonl(rundir / "spans.jsonl")
        (rundir / "layers.json").write_text(
            json.dumps(tracing.layer_summary(tracer.spans), indent=2, sort_keys=True) + "\n")

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    problems = [msg for p in passes for msg in p.problems]
    correct = failed == 0 and not problems
    if args.trace:
        metrics = per_layer_metrics(tracer, passes[-1], untraced_walls, failed / attempted)
    else:
        metrics = end_to_end_metrics(setup, passes)
    metrics_json = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}

    record = {
        "env": env,
        "setup_samples_s": setup,
        "passes": [
            {"wall_s": p.wall_s, "cpu_s": p.cpu_s, "sweep_s": p.sweep_s,
             "certify_pass_s": p.pass_s, "certify_fail_s": p.fail_s,
             "attempted": p.attempted, "failed": p.failed, "report_sha256": p.report_sha256}
            for p in passes
        ],
        "problems": problems,
        "metrics": metrics_json,
    }
    (rundir / "run.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    if correct:
        shutil.rmtree(rundir / "work", ignore_errors=True)

    print("env " + json.dumps(env, sort_keys=True))
    print("report_sha256 " + " ".join(p.report_sha256 or "-" for p in passes))
    for msg in problems[:20]:
        print("GATE " + msg)
    print(f"{'failed':<40} {failed}/{attempted}")
    for name, (value, unit) in metrics.items():
        print(f"{name:<40} {value:.6g} {unit}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics_json}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
