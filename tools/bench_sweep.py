"""Time the acceptance sweep per dimension and per layer, and the degree-4
sweep as a whole; append one row to BENCH_sweep.json.

    PYTHONPATH=src python3 tools/bench_sweep.py --label change --commit "$(git rev-parse --short HEAD)"

The program timed is the ``rotke`` that PYTHONPATH provides, so the same
script measures another checkout with PYTHONPATH=<checkout>/src.  The
acceptance sweep is sweep(range(2, 7), 3, deg_cap=3).  A row holds:

- ``wall_s``: per n, the fastest of --reps untraced runs of
  sweep([n], 3, deg_cap=3) (the sweep treats every support on its own, so
  the per-n runs together do the work of the whole sweep);
- ``layers``: calls, inclusive and self seconds per layer, from one traced
  run of the whole sweep with perfbench/tracing.Tracer.  The layers are
  enumerate_supports, extract_constraints (the systems read per support
  rather than off a generic residual), building P, det_numerator, the log1p
  residual, solve_system, certify_exact and classify; where the program has
  ``log1p_numerator`` (the integral log1p kernel) it is traced as well, so
  the log layer is the self time of both log spans, and where it has
  ``solver._generic_residual`` (the generic prescreen residual of one
  (n, deg P)) that build is a layer of its own;
- ``certify_s``: the fastest of --reps runs of ``certify_exact`` on each of
  the scaled models CP^4 scaled(2), CP^3 scaled(3), CP^2 scaled(4),
  CP^2 scaled(3) and CP^3 scaled(2), with P = (1 + sum x / q)^q and
  lambda = 2(n+1)/q: the largest certificates among the models, and those
  whose bordered determinant det B costs most next to the powers;
- ``deg_cap4``: the second workload, sweep(range(2, 7), 3, deg_cap=4), with
  the time of one untraced run, the layers of one traced run and its
  report's SHA-256;
- the SHA-256 of the sweep's JSON report, the Python version, the CPU model
  and nproc.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import sys
import time
from datetime import datetime, timezone
from fractions import Fraction
from math import factorial, prod
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import tracing  # noqa: E402

from rotke import reports  # noqa: E402
from rotke.algebra import monomials_up_to  # noqa: E402
from rotke.geometry import EinsteinCandidate, PotentialSpec, certify_exact  # noqa: E402
from rotke.solver import sweep  # noqa: E402

DIMS = range(2, 7)
K_MAX, DEG_CAP = 3, 3
DEG_CAP_SECOND = 4
LAYERS = (
    "solver.enumerate_supports",
    "solver._generic_residual",
    "solver.extract_constraints",
    "geometry.build_potential",
    "geometry.det_numerator",
    "series.series_log1p",
    "series.log1p_numerator",
    "solver.solve_system",
    "geometry.certify_exact",
    "solver.classify",
)
# (n, q) of the CP^n scaled(q) certificates timed.
SCALED_MODELS = ((4, 2), (3, 3), (2, 4), (2, 3), (3, 2))
# Traced here besides perfbench's own list, when the program has it.
EXTRA_TRACED = (("series", "log1p_numerator", None), ("solver", "_generic_residual", None))


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def per_n_walls(reps: int) -> dict:
    walls = {}
    for n in DIMS:
        best = float("inf")
        for _ in range(reps):
            t0 = time.perf_counter()
            sweep([n], K_MAX, deg_cap=DEG_CAP)
            best = min(best, time.perf_counter() - t0)
        walls[str(n)] = round(best, 3)
    return walls


def scaled_model(n: int, q: int) -> EinsteinCandidate:
    """CP^n scaled(q): P = (1 + sum x / q)^q, whose coefficient at x^m is the
    multinomial q! / ((q - |m|)! prod m_i!) over q^|m|, and lambda = 2(n+1)/q."""
    support = tuple(
        (m, Fraction(factorial(q), factorial(q - sum(m)) * prod(map(factorial, m)) * q ** sum(m)))
        for m in monomials_up_to(n, q)
        if sum(m) >= 2
    )
    return EinsteinCandidate(PotentialSpec(n, support), Fraction(2 * (n + 1), q))


def certify_times(reps: int) -> dict:
    times = {}
    for n, q in SCALED_MODELS:
        cand = scaled_model(n, q)
        best = float("inf")
        for _ in range(reps):
            t0 = time.perf_counter()
            cert = certify_exact(cand)
            best = min(best, time.perf_counter() - t0)
        if not cert.passed():
            raise SystemExit(f"CP{n} scaled({q}) did not certify: {cert}")
        times[f"CP{n}_scaled({q})"] = round(best, 4)
    return times


def traced_layers(deg_cap: int):
    tracer = tracing.Tracer()
    with tracer:
        t0 = time.perf_counter()
        report = sweep(DIMS, K_MAX, deg_cap=deg_cap)
        wall = time.perf_counter() - t0
    summary = tracing.layer_summary(tracer.spans)
    layers = {
        name: {
            "calls": summary[name]["calls"],
            "inclusive_s": round(summary[name]["inclusive_s"], 3),
            "self_s": round(summary[name]["self_s"], 3),
        }
        for name in LAYERS
        if name in summary
    }
    return round(wall, 3), layers, report_digest(report)


def report_digest(report) -> str:
    text = reports.render_json(reports.sweep_payload(report))
    return hashlib.sha256(text.encode()).hexdigest()


def second_workload() -> dict:
    t0 = time.perf_counter()
    report = sweep(DIMS, K_MAX, deg_cap=DEG_CAP_SECOND)
    wall = time.perf_counter() - t0
    traced_wall, layers, digest = traced_layers(DEG_CAP_SECOND)
    if digest != report_digest(report):
        raise SystemExit("the traced and untraced degree-4 sweeps wrote different reports")
    return {
        "sweep": f"sweep(range(2, 7), {K_MAX}, deg_cap={DEG_CAP_SECOND})",
        "wall_s": round(wall, 3),
        "traced_wall_s": traced_wall,
        "layers": layers,
        "report_sha256": digest,
    }


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--label", required=True, help="row label, such as parent or change")
    p.add_argument("--commit", default="", help="commit the timed program was taken from")
    p.add_argument("--reps", type=int, default=3, help="untraced runs per dimension and per certificate")
    p.add_argument("--out", default=str(ROOT / "BENCH_sweep.json"))
    args = p.parse_args()

    tracing.TRACED = tracing.TRACED + tuple(
        e for e in EXTRA_TRACED if hasattr(importlib.import_module(f"rotke.{e[0]}"), e[1])
    )
    walls = per_n_walls(args.reps)
    traced_wall, layers, digest = traced_layers(DEG_CAP)
    certify_s = certify_times(args.reps)
    deg_cap4 = second_workload()
    row = {
        "label": args.label,
        "commit": args.commit,
        "date": datetime.now(timezone.utc).strftime("%Y-%m-%d"),
        "python": platform.python_version(),
        "cpu": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
        "wall_s": walls,
        "wall_s_total": round(sum(walls.values()), 3),
        "traced_wall_s": traced_wall,
        "layers": layers,
        "certify_s": certify_s,
        "report_sha256": digest,
        "deg_cap4": deg_cap4,
    }
    path = Path(args.out)
    bench = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {
        "workload": f"sweep(range(2, 7), {K_MAX}, deg_cap={DEG_CAP}) and deg_cap={DEG_CAP_SECOND}, --jobs 1",
        "script": "tools/bench_sweep.py",
        "rows": [],
    }
    bench["rows"].append(row)
    path.write_text(json.dumps(bench, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(row))
    return 0


if __name__ == "__main__":
    sys.exit(main())
