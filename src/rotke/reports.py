"""Spec-file parsing and report rendering.

Rationals travel as exact "p/q" strings end to end; decimals are rejected.
Reports come in a versioned machine-readable JSON form and a fixed-width
text form, both byte-stable for identical inputs.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Optional, Tuple, Union

from .algebra import EINSTEIN_NAME, Unknown, format_rational, parse_rational
from .geometry import Certificate, InductionReport, PotentialSpec, build_potential
from .series import Series, series_log1p
from .solver import ClassificationReport, ConstraintSystem

SCHEMA = "rotke/report/v1"


class SpecFileError(ValueError):
    """Malformed spec or potential file; message carries the offending field."""


# ---------------------------------------------------------------------------
# Spec files
# ---------------------------------------------------------------------------


def _json_int(value) -> bool:
    """True for a JSON integer; JSON true/false load as bool, a subclass of int."""
    return isinstance(value, int) and not isinstance(value, bool)


def parse_n(data: dict, where: str) -> int:
    try:
        n = data["n"]
    except KeyError:
        raise SpecFileError(f'{where}: missing field "n"') from None
    if not _json_int(n) or n < 1:
        raise SpecFileError(f'{where}.n: must be a positive integer')
    return n


def _parse_exponents(entry: dict, n: int, where: str) -> Tuple[int, ...]:
    exps = entry["exponents"]
    if not isinstance(exps, list) or len(exps) != n or any(not _json_int(e) or e < 0 for e in exps):
        raise SpecFileError(f"{where}.exponents: need {n} nonnegative integers")
    return tuple(exps)


def _parse_coef(raw, where: str) -> Union[Fraction, str]:
    if isinstance(raw, str):
        try:
            return parse_rational(raw)
        except ValueError as exc:
            raise SpecFileError(f"{where}: {exc}") from None
    if isinstance(raw, dict) and set(raw) == {"sym"} and isinstance(raw["sym"], str) and raw["sym"]:
        return raw["sym"]
    raise SpecFileError(f'{where}: coefficient must be a "p/q" string or {{"sym": name}}')


def _parse_list(data: dict, key: str, where: str) -> list:
    """data[key] (an empty list when absent), which must be a JSON list."""
    value = data.get(key, [])
    if not isinstance(value, list):
        raise SpecFileError(f"{where}.{key}: must be a list")
    return value


def _parse_entry(entry, n: int, where: str, min_degree: int = 0) -> Tuple[Tuple[int, ...], Union[Fraction, str]]:
    """One {"exponents": [...], "coef": ...} entry of a monomial list."""
    if not isinstance(entry, dict) or "exponents" not in entry or "coef" not in entry:
        raise SpecFileError(f"{where}: need exponents and coef")
    exps = _parse_exponents(entry, n, where)
    if sum(exps) < min_degree:
        raise SpecFileError(f"{where}: degree must be >= {min_degree}")
    return exps, _parse_coef(entry["coef"], f"{where}.coef")


def parse_spec(data: dict, where: str = "spec") -> Tuple[PotentialSpec, Optional[Fraction]]:
    """Parse the JSON object form of a potential spec.

    Returns the spec and the optional Einstein constant carried by the file.
    """
    if not isinstance(data, dict):
        raise SpecFileError(f"{where}: expected a JSON object")
    n = parse_n(data, where)
    support = []
    names_seen = set()
    for i, entry in enumerate(_parse_list(data, "monomials", where)):
        loc = f"{where}.monomials[{i}]"
        exps, coef = _parse_entry(entry, n, loc)
        if isinstance(coef, str):
            if coef == EINSTEIN_NAME:
                raise SpecFileError(f"{loc}.coef: symbol {coef!r} is reserved for the Einstein constant")
            if coef in names_seen:
                raise SpecFileError(f"{loc}.coef: duplicate symbol {coef!r}")
            names_seen.add(coef)
            coef = Unknown(coef, "support", exps)
        support.append((exps, coef))
    induced = data.get("induced", True)
    if not isinstance(induced, bool):
        raise SpecFileError(f"{where}.induced: must be true or false")
    try:
        spec = PotentialSpec(n, tuple(support), induced=induced)
    except ValueError as exc:
        raise SpecFileError(f"{where}: {exc}") from None
    lam = None
    if "lambda" in data and data["lambda"] is not None:
        try:
            lam = parse_rational(data["lambda"])
        except ValueError as exc:
            raise SpecFileError(f"{where}.lambda: {exc}") from None
    return spec, lam


def emit_spec(spec: PotentialSpec, lam: Optional[Fraction] = None) -> dict:
    monomials = []
    for m, coef in spec.support:
        entry = {"exponents": list(m)}
        entry["coef"] = {"sym": coef.name} if isinstance(coef, Unknown) else format_rational(coef)
        monomials.append(entry)
    out = {"n": spec.n, "monomials": monomials}
    if not spec.induced:
        out["induced"] = False
    if lam is not None:
        out["lambda"] = format_rational(lam)
    return out


def parse_potential(data: dict, trunc: int, where: str = "potential") -> Series:
    """Parse a potential file into the series Phi.

    Three encodings, exactly one per file: a spec file (Phi = log P), an
    explicit power series ("series": [terms]), or a scaled log form
    ("log_scale", "log_monomials") meaning Phi = scale * log1p(sum coef x^m).
    """
    if not isinstance(data, dict):
        raise SpecFileError(f"{where}: expected a JSON object")
    n = parse_n(data, where)
    encodings = [key for key in ("series", "log_monomials", "monomials") if key in data]
    if len(encodings) > 1:
        found = " and ".join(f'"{key}"' for key in encodings)
        raise SpecFileError(f'{where}: found {found}; need exactly one of "series", "log_monomials", or "monomials"')

    def parse_terms(key):
        terms = {}
        for i, entry in enumerate(_parse_list(data, key, where)):
            sub = f"{where}.{key}[{i}]"
            exps, coef = _parse_entry(entry, n, sub, min_degree=1)
            if not isinstance(coef, Fraction):
                raise SpecFileError(f"{sub}.coef: potentials must be numeric")
            terms[exps] = coef
        return terms

    if "series" in data:
        return Series(n, trunc, parse_terms("series"))
    if "log_monomials" in data:
        scale = Fraction(1)
        if "log_scale" in data:
            try:
                scale = parse_rational(data["log_scale"])
            except ValueError as exc:
                raise SpecFileError(f"{where}.log_scale: {exc}") from None
        arg = Series(n, trunc, parse_terms("log_monomials"))
        return series_log1p(arg).scale(scale)
    if "monomials" in data:
        spec, _ = parse_spec(data, where)
        P = build_potential(spec, trunc)
        return series_log1p(P - Series.one(n, trunc))
    raise SpecFileError(f'{where}: need one of "series", "log_monomials", or "monomials"')


def load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise SpecFileError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise SpecFileError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}") from None


# ---------------------------------------------------------------------------
# Rendering helpers
# ---------------------------------------------------------------------------


def render_json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _support_label(support) -> str:
    if not support:
        return "(empty)"
    return " ".join("x^(" + ",".join(map(str, m)) + ")" for m in support)


def verify_payload(spec: PotentialSpec, cert: Certificate) -> dict:
    return {
        "schema": SCHEMA,
        "kind": "verify",
        "mode": "exact",
        "status": cert.status,
        "lambda": format_rational(cert.lam),
        "identity": cert.identity,
        "lhs_hash": cert.lhs_hash,
        "rhs_hash": cert.rhs_hash,
        "witness_monomial": list(cert.witness) if cert.witness else None,
        "spec": emit_spec(spec),
    }


def verify_degree_payload(spec: PotentialSpec, lam: Fraction, trunc: int, residual) -> dict:
    nonzero = residual.sorted_terms()
    return {
        "schema": SCHEMA,
        "kind": "verify",
        "mode": f"degree:{trunc}",
        "status": "PASS" if not nonzero else "FAIL",
        "lambda": format_rational(lam),
        "witness_monomial": list(nonzero[0][0]) if nonzero else None,
        "residual_terms": len(nonzero),
        "spec": emit_spec(spec),
    }


def verify_text(payload: dict) -> str:
    lines = [
        f"{'status':<12}{payload['status']}",
        f"{'mode':<12}{payload['mode']}",
        f"{'lambda':<12}{payload['lambda']}",
    ]
    if payload.get("identity"):
        lines.append(f"{'identity':<12}{payload['identity']}")
    if payload.get("witness_monomial"):
        lines.append(f"{'witness':<12}x^{tuple(payload['witness_monomial'])}")
    return "\n".join(lines) + "\n"


def constraints_payload(system: ConstraintSystem, trunc: int) -> dict:
    return {
        "schema": SCHEMA,
        "kind": "constraints",
        "degree": trunc,
        "unknowns": [u.name for u in system.unknowns],
        "positivity": sorted(system.positivity),
        "equations": [
            {"residual_monomial": list(m), "equation": repr(eq.normalized()) + " = 0"}
            for m, eq in zip(system.residual_monomials, system.equations)
        ],
    }


def constraints_text(payload: dict) -> str:
    lines = [f"unknowns: {', '.join(payload['unknowns'])}", f"positive: {', '.join(payload['positivity'])}", ""]
    for item in payload["equations"]:
        mono = ",".join(map(str, item["residual_monomial"]))
        lines.append(f"  [x^({mono})]  {item['equation']}")
    return "\n".join(lines) + "\n"


def sweep_payload(report: ClassificationReport) -> dict:
    entries = []
    for e in report.entries:
        entries.append(
            {
                "n": e.n,
                "k": e.k,
                "support": [list(m) for m in e.support],
                "status": e.status,
                "witness": e.witness,
                "note": e.note,
                "solutions": [
                    {
                        "assignment": {name: format_rational(v) for name, v in sol.assignment},
                        "lambda": format_rational(sol.lam),
                        "tag": sol.tag,
                        "certificate": sol.certificate,
                    }
                    for sol in e.solutions
                ],
            }
        )
    counts = report.counts()
    return {
        "schema": SCHEMA,
        "kind": "sweep",
        "dims": list(report.dims),
        "k_max": report.k_max,
        "deg_cap": report.deg_cap,
        "degree": report.trunc,
        "completeness": f"support degrees capped at {report.deg_cap}; no claim beyond the cap",
        "counts": counts,
        "distinct_models": sorted({tag for _, tag in report.solved_tags()}),
        "entries": entries,
    }


def sweep_text(payload: dict) -> str:
    header = f"{'n':>2} {'k':>2} {'support':<34} {'status':<11} {'lambda':<8} {'tag':<16} {'cert':<5}"
    lines = [header, "-" * len(header)]
    for e in payload["entries"]:
        support = _support_label([tuple(m) for m in e["support"]])
        if len(support) > 34:
            support = support[:31] + "..."
        if e["solutions"]:
            for sol in e["solutions"]:
                lines.append(
                    f"{e['n']:>2} {e['k']:>2} {support:<34} {e['status']:<11} "
                    f"{sol['lambda']:<8} {sol['tag']:<16} {sol['certificate']:<5}"
                )
        else:
            lines.append(f"{e['n']:>2} {e['k']:>2} {support:<34} {e['status']:<11} {'-':<8} {'-':<16} {'-':<5}")
    c = payload["counts"]
    lines.append("")
    lines.append(
        f"{len(payload['distinct_models'])} distinct model spaces, "
        f"{sum(1 for e in payload['entries'] for s in e['solutions'] if s['tag'] == 'UNKNOWN')} UNKNOWN, "
        f"{c.get('UNRESOLVED', 0)} UNRESOLVED"
    )
    lines.append(f"entries: {c.get('SOLVED', 0)} SOLVED, {c.get('INFEASIBLE', 0)} INFEASIBLE, {c.get('SHORTCUT', 0)} SHORTCUT")
    lines.append(payload["completeness"])
    return "\n".join(lines) + "\n"


def induced_payload(report: InductionReport) -> dict:
    return {
        "schema": SCHEMA,
        "kind": "induced",
        "degree": report.trunc,
        "verdict": f"INDUCED-UP-TO-{report.trunc}" if report.induced_up_to_trunc else "NOT-INDUCED",
        "codimension_estimate": report.codimension_estimate,
        "witness_monomial": list(report.witness) if report.witness else None,
        "coefficients": [
            {"exponents": list(m), "coef": format_rational(c)} for m, c in report.coefficients
        ],
    }


def induced_text(payload: dict) -> str:
    lines = [f"{'verdict':<12}{payload['verdict']}"]
    if payload["codimension_estimate"] is not None:
        lines.append(f"{'codim':<12}{payload['codimension_estimate']}")
    if payload["witness_monomial"]:
        lines.append(f"{'witness':<12}x^{tuple(payload['witness_monomial'])}")
    lines.append("coefficients of e^Phi - 1:")
    for item in payload["coefficients"]:
        lines.append(f"  x^({','.join(map(str, item['exponents']))})  {item['coef']}")
    return "\n".join(lines) + "\n"


def normalize_payload(normalized: Series, scaling) -> dict:
    return {
        "schema": SCHEMA,
        "kind": "normalize",
        "scaling": [format_rational(c) for c in scaling],
        "series": [
            {"exponents": list(m), "coef": format_rational(c.constant_value())}
            for m, c in normalized.sorted_terms()
        ],
        "degree": normalized.trunc,
    }


def normalize_text(payload: dict) -> str:
    lines = [f"scaling:  {' '.join(payload['scaling'])}", "normalized series:"]
    for item in payload["series"]:
        lines.append(f"  x^({','.join(map(str, item['exponents']))})  {item['coef']}")
    return "\n".join(lines) + "\n"
