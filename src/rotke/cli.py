"""Command-line interface.

Exit codes: 0 for PASS/success, 1 for a FAIL verdict, 2 for usage or
input-file errors.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from fractions import Fraction
from math import comb

from . import reports
from .algebra import parse_rational
from .geometry import (
    EinsteinCandidate,
    bochner_normalize,
    build_potential,
    certify_exact,
    det_numerator,
    ma_log_residual,
    projective_induction_check,
)
from .oracle import ORACLE_MAX_DIMENSION, rotation_project, zspace_det_numerator
from .reports import SpecFileError, load_json
from .solver import EngineError, check_sweep_work, extract_constraints, min_truncation, sweep

PASS, FAIL, USAGE = 0, 1, 2

# Largest --degree any command accepts.  A series of degree D in n variables
# has up to C(D + n, n) terms, so an unbounded value would run without limit;
# every degree the documented workflows use is far below the cap.
MAX_DEGREE = 32

# Most series terms a degree-bounded command (verify --degree, constraints,
# induced, normalize) may build: a series of degree D in n variables has up
# to C(D + n, n) terms, so MAX_DEGREE alone does not bound the work at high n.
# A dense numeric n = 7 spec (every monomial of degree 2 and 3) takes about
# 3 s for the log residual at D = 6 (1,716 terms) and took 27 s at D = 8
# (6,435 terms).  Every n <= 2 degree up to MAX_DEGREE is below the cap.
MAX_TERMS = 2000

# Largest numerator and denominator of lambda that verify accepts.  The
# certificate's degree does not depend on lambda, but the bit length of its
# integers grows linearly with both: on Segre with coefficient 1/2, lambda =
# 10^6 takes 17 ms and lambda = 10^7 took 0.21 s and 41 MB.
MAX_LAMBDA_PART = 10 ** 6


class _Usage(Exception):
    pass


def _rational_arg(raw: str) -> Fraction:
    try:
        return parse_rational(raw)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _dims_arg(raw: str):
    parts = raw.split("..")
    try:
        if len(parts) == 1:
            a = b = int(parts[0])
        elif len(parts) == 2:
            a, b = int(parts[0]), int(parts[1])
        else:
            raise ValueError
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected A..B or a single integer, got {raw!r}")
    if a < 1 or b < a:
        raise argparse.ArgumentTypeError(f"dimension range {raw!r} is empty or invalid")
    return (a, b)


def _emit(args, payload: dict, text_fn) -> None:
    """Write payload as JSON or as text_fn renders it (--format), to --out
    or stdout."""
    text = reports.render_json(payload) if args.format == "json" else text_fn(payload)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rotke",
        description="Exact verification and classification of rotation-invariant "
        "Kahler-Einstein potentials of Bochner form.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, spec=True):
        if spec:
            p.add_argument("--spec", required=True, metavar="PATH", help="JSON spec file")
        p.add_argument("--format", choices=["json", "text"], default="text")
        p.add_argument("--out", metavar="PATH", help="write the report to PATH instead of stdout")

    p = sub.add_parser("verify", help="check the Einstein identity for a numeric potential")
    add_common(p)
    p.add_argument("--lambda", dest="lam", type=_rational_arg, metavar="p/q",
                   help="Einstein constant; overrides the spec file")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--exact", action="store_true", help="truncation-free certificate (default)")
    mode.add_argument("--degree", type=int, metavar="D", help="check the residual up to total degree D only")

    p = sub.add_parser("constraints", help="emit the residual coefficient equations for a symbolic spec")
    add_common(p)
    p.add_argument("--degree", type=int, metavar="D", help="residual truncation degree")

    p = sub.add_parser("sweep", help="enumerate candidate supports and classify every solution")
    add_common(p, spec=False)
    p.add_argument("--dims", type=_dims_arg, required=True, metavar="A..B")
    p.add_argument("--max-codim", type=int, default=3, metavar="K")
    p.add_argument("--deg-cap", type=int, default=None, metavar="C")
    p.add_argument("--jobs", type=int, default=1, metavar="N",
                   help="worker processes, at most the number of CPUs")

    p = sub.add_parser("induced", help="test whether e^Phi - 1 has nonnegative coefficients")
    add_common(p)
    p.add_argument("--degree", type=int, default=8, metavar="D")

    p = sub.add_parser("normalize", help="rescale a potential into Bochner coordinates")
    add_common(p)
    p.add_argument("--degree", type=int, default=8, metavar="D")

    p = sub.add_parser("oracle-check", help="compare the metric determinant against the z-space oracle")
    add_common(p)

    return parser


def _check_terms(n: int, degree: int) -> None:
    terms = comb(degree + n, n)
    if terms > MAX_TERMS:
        raise _Usage(
            f"degree {degree} in {n} variables means up to {terms} series terms, "
            f"more than the cap of {MAX_TERMS}; lower --degree"
        )


def _load_potential(args):
    """The series Phi of a potential file, refused before it is built when
    its size exceeds the term cap."""
    data = load_json(args.spec)
    if isinstance(data, dict):
        _check_terms(reports.parse_n(data, args.spec), args.degree)
    return reports.parse_potential(data, args.degree, where=args.spec)


def _load_spec(args):
    spec, lam_file = reports.parse_spec(load_json(args.spec), where=args.spec)
    return spec, lam_file


def cmd_verify(args) -> int:
    spec, lam = _load_spec(args)
    if getattr(args, "lam", None) is not None:
        lam = args.lam
    if lam is None:
        raise _Usage("verify needs an Einstein constant: pass --lambda p/q or put it in the spec file")
    if lam <= 0:
        raise _Usage(f"the Einstein constant must be positive, got {lam}")
    if max(lam.numerator, lam.denominator) > MAX_LAMBDA_PART:
        raise _Usage(f"the Einstein constant {lam} has a numerator or denominator above {MAX_LAMBDA_PART}")
    if not spec.is_numeric():
        raise _Usage("verify needs numeric coefficients; use the constraints command for symbolic specs")
    if args.degree is not None:
        if args.degree < 1:
            raise _Usage("--degree must be >= 1")
        _check_terms(spec.n, args.degree)
        residual = ma_log_residual(build_potential(spec, args.degree), lam)
        payload = reports.verify_degree_payload(spec, lam, args.degree, residual)
    else:
        cert = certify_exact(EinsteinCandidate(spec, lam))
        payload = reports.verify_payload(spec, cert)
    _emit(args, payload, reports.verify_text)
    return PASS if payload["status"] == "PASS" else FAIL


def cmd_constraints(args) -> int:
    spec, _ = _load_spec(args)
    if spec.is_numeric():
        raise _Usage("constraints needs at least one symbolic coefficient; use verify for numeric specs")
    trunc = args.degree if args.degree is not None else spec.max_degree() + 2
    if trunc < min_truncation(spec):
        raise _Usage(f"--degree must be >= {min_truncation(spec)} for this spec")
    _check_terms(spec.n, trunc)
    system = extract_constraints(spec, trunc)
    payload = reports.constraints_payload(system, trunc)
    _emit(args, payload, reports.constraints_text)
    return PASS


def cmd_sweep(args) -> int:
    a, b = args.dims
    dims = range(a, b + 1)
    try:
        check_sweep_work(dims, args.max_codim, args.deg_cap)
    except ValueError as exc:
        raise _Usage(str(exc))
    if args.jobs < 1:
        raise _Usage("--jobs must be >= 1")
    report = sweep(
        dims,
        args.max_codim,
        deg_cap=args.deg_cap,
        jobs=min(args.jobs, os.cpu_count() or 1),
    )
    payload = reports.sweep_payload(report)
    _emit(args, payload, reports.sweep_text)
    counts = report.counts()
    ok = counts.get("UNRESOLVED", 0) == 0 and not report.has_unknown()
    return PASS if ok else FAIL


def cmd_induced(args) -> int:
    if args.degree < 1:
        raise _Usage("--degree must be >= 1")
    phi = _load_potential(args)
    report = projective_induction_check(phi)
    payload = reports.induced_payload(report)
    _emit(args, payload, reports.induced_text)
    return PASS if report.induced_up_to_trunc else FAIL


def cmd_normalize(args) -> int:
    if args.degree < 1:
        raise _Usage("--degree must be >= 1")
    phi = _load_potential(args)
    try:
        normalized, scaling = bochner_normalize(phi)
    except ValueError as exc:
        raise _Usage(str(exc))
    payload = reports.normalize_payload(normalized, scaling)
    _emit(args, payload, reports.normalize_text)
    return PASS


def cmd_oracle_check(args) -> int:
    spec, _ = _load_spec(args)
    if not spec.is_numeric():
        raise _Usage("oracle-check needs numeric coefficients")
    if spec.n > ORACLE_MAX_DIMENSION:
        raise _Usage(f"the z-space oracle only supports n <= {ORACLE_MAX_DIMENSION}")
    fast = det_numerator(build_potential(spec, spec.det_b_degree()))
    slow = {m: c for m, c in rotation_project(zspace_det_numerator(spec)).items() if c}
    match = {m: c.constant_value() for m, c in fast.terms.items()} == slow
    payload = {
        "schema": reports.SCHEMA,
        "kind": "oracle-check",
        "status": "PASS" if match else "FAIL",
        "terms": len(fast.terms),
        "spec": reports.emit_spec(spec),
    }
    _emit(args, payload, lambda p: f"{'status':<12}{p['status']}\n{'terms':<12}{p['terms']}\n")
    return PASS if match else FAIL


_COMMANDS = {
    "verify": cmd_verify,
    "constraints": cmd_constraints,
    "sweep": cmd_sweep,
    "induced": cmd_induced,
    "normalize": cmd_normalize,
    "oracle-check": cmd_oracle_check,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of `main`, built once per process: parsing keeps no state
    in it, and building it costs more than a small command."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if getattr(args, "degree", None) is not None and args.degree > MAX_DEGREE:
            raise _Usage(f"--degree must be <= {MAX_DEGREE}")
        return _COMMANDS[args.command](args)
    except (_Usage, SpecFileError) as exc:
        print(f"rotke {args.command}: {exc}", file=sys.stderr)
        return USAGE
    except EngineError as exc:
        print(f"rotke {args.command}: internal consistency failure: {exc}", file=sys.stderr)
        return FAIL


if __name__ == "__main__":
    sys.exit(main())
