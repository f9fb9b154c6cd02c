"""Workloads of the rotke benchmark: their inputs, one timed pass, and the
correctness gate.

Every workload runs the two commands a rotke user waits on, in-process
through ``rotke.cli.main``: ``verify`` on a list of PASS candidates, each
followed by its seeded FAIL twin, and one classification ``sweep``
(``--jobs 1``).  A list repeated several times runs half its reps before
the sweep and half after it.  The workloads differ in which part dominates:

- ``sweep-cubic``: a sweep with many cheap supports per dimension; the
  candidates are its own SOLVED solutions.
- ``sweep-quad``: a sweep reaching n = 7 with few supports per dimension;
  the candidates are its own SOLVED solutions.
- ``verify``: thirteen model candidates, then a small sweep, so certificate
  work dominates.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

Coefs = Tuple[Tuple[Tuple[int, ...], Fraction], ...]

SWEEP_ARGS: Dict[str, List[str]] = {
    "sweep-cubic": ["--dims", "2..4", "--max-codim", "3", "--deg-cap", "3"],
    "sweep-quad": ["--dims", "2..7", "--max-codim", "3", "--deg-cap", "2"],
    "verify": ["--dims", "1..2", "--max-codim", "2", "--deg-cap", "2"],
}
# A pass reports the fastest rep of its certificate list.  The reps are
# split around the sweep: the host's speed drifts over seconds, and the
# fastest of samples from both ends of a pass drifts less than samples from
# one end.  The list of sweep-cubic takes about 0.05 s, so it runs many
# times; that of sweep-quad takes about 8 s and that of verify about 18 s.
CERT_REPS: Dict[str, int] = {"sweep-cubic": 160, "sweep-quad": 2, "verify": 1}
WORKLOADS = tuple(SWEEP_ARGS)

# FAIL twins multiply one coefficient by 1 + 1/r with r of a fixed bit
# length, so the twin's arithmetic costs about the same for every seed.
TWIN_R_RANGE = (16, 31)

PASS_RC, FAIL_RC = 0, 1


@dataclass(frozen=True)
class Candidate:
    """A numeric potential P = 1 + sum x_j + sum coef x^m with its constant."""

    name: str
    n: int
    coefs: Coefs
    lam: Fraction

    def spec_json(self) -> dict:
        return {
            "n": self.n,
            "monomials": [{"exponents": list(m), "coef": rational(c)} for m, c in self.coefs],
        }


def rational(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


# ---------------------------------------------------------------------------
# Candidates
# ---------------------------------------------------------------------------


def _poly_mul(a: Dict[tuple, Fraction], b: Dict[tuple, Fraction]) -> Dict[tuple, Fraction]:
    out: Dict[tuple, Fraction] = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = tuple(x + y for x, y in zip(ma, mb))
            out[m] = out.get(m, Fraction(0)) + ca * cb
    return out


def _linear(n: int, variables: Sequence[int], scale: Fraction) -> Dict[tuple, Fraction]:
    """1 + scale * sum of the given variables."""
    poly = {(0,) * n: Fraction(1)}
    for i in variables:
        poly[tuple(1 if j == i else 0 for j in range(n))] = scale
    return poly


def _candidate(name: str, n: int, poly: Dict[tuple, Fraction], lam: Fraction) -> Candidate:
    coefs = tuple(sorted((m, c) for m, c in poly.items() if sum(m) >= 2 and c))
    return Candidate(name, n, coefs, lam)


def model_candidates() -> List[Candidate]:
    """The thirteen model spaces certified by the verify workload.

    CP^n_unit (n = 1..7) is P = 1 + sum x with lambda = 2(n+1);
    CP^n_scaled(q) is P = (1 + sum x / q)^q with lambda = 2(n+1)/q;
    a product of n lines is P = prod (1 + x_i) with lambda = 4.
    """
    out = []
    for n in range(1, 8):
        out.append(Candidate(f"CP{n}_unit", n, (), Fraction(2 * (n + 1))))
    for n, q in ((2, 2), (2, 3), (2, 4), (3, 2)):
        poly = {(0,) * n: Fraction(1)}
        for _ in range(q):
            poly = _poly_mul(poly, _linear(n, range(n), Fraction(1, q)))
        out.append(_candidate(f"CP{n}_scaled({q})", n, poly, Fraction(2 * (n + 1), q)))
    for n in (2, 3):
        poly = {(0,) * n: Fraction(1)}
        for i in range(n):
            poly = _poly_mul(poly, _linear(n, [i], Fraction(1)))
        out.append(_candidate(f"lines{n}", n, poly, Fraction(4)))
    return out


def solved_candidates(reference: dict) -> List[Candidate]:
    """The SOLVED solutions of a reference sweep, as numeric candidates."""
    out = []
    for n, k, support, status, solutions in reference["entries"]:
        if status != "SOLVED":
            continue
        for assignment, lam, tag in solutions:
            values = dict(assignment)
            coefs = []
            for m in support:
                name = "a(" + ",".join(map(str, m)) + ")"
                value = Fraction(values[name])
                if value:
                    coefs.append((tuple(m), value))
            out.append(Candidate(f"{tag}@n{n}k{k}", n, tuple(sorted(coefs)), Fraction(lam)))
    return out


def fail_twin(cand: Candidate, rng: random.Random) -> Candidate:
    """A candidate that must FAIL and costs about as much as `cand`.

    The first coefficient is multiplied by 1 + 1/r, with r drawn from `rng`
    (always the first one: which coefficient moves changes the cost of the
    certificate by up to 10 %).  An empty support has no coefficient, so
    lambda becomes 2n instead; r is drawn either way, so later twins do not
    depend on earlier supports.
    """
    r = rng.randint(*TWIN_R_RANGE)
    if not cand.coefs:
        return Candidate(cand.name + "~fail", cand.n, (), Fraction(2 * cand.n))
    (m, c), *rest = cand.coefs
    return Candidate(cand.name + "~fail", cand.n, ((m, c * Fraction(r + 1, r)), *rest), cand.lam)


def certificate_pairs(workload: str, seed: int, reference: dict) -> List[Tuple[Candidate, Candidate]]:
    cands = model_candidates() if workload == "verify" else solved_candidates(reference)
    rng = random.Random(seed)
    return [(c, fail_twin(c, rng)) for c in cands]


# ---------------------------------------------------------------------------
# Inputs on disk
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CertInput:
    name: str
    spec_path: str
    lam: str
    expect: str  # "PASS" | "FAIL"


@dataclass(frozen=True)
class Inputs:
    workdir: Path
    sweep_argv: Tuple[str, ...]
    certs: Tuple[CertInput, ...]
    reps: int


def write_inputs(workload: str, seed: int, reference: dict, workdir: Path) -> Inputs:
    """Write the spec files of a workload into `workdir`."""
    workdir.mkdir(parents=True, exist_ok=True)
    certs = []
    for i, pair in enumerate(certificate_pairs(workload, seed, reference)):
        for cand, expect in zip(pair, ("PASS", "FAIL")):
            path = workdir / f"spec-{i:02d}-{expect.lower()}.json"
            path.write_text(json.dumps(cand.spec_json(), sort_keys=True) + "\n", encoding="utf-8")
            certs.append(CertInput(cand.name, str(path), rational(cand.lam), expect))
    sweep_argv = ("sweep", *SWEEP_ARGS[workload], "--format", "json", "--out",
                  str(workdir / "sweep.json"), "--jobs", "1")
    return Inputs(workdir, sweep_argv, tuple(certs), CERT_REPS[workload])


# ---------------------------------------------------------------------------
# One pass
# ---------------------------------------------------------------------------


@dataclass
class PassResult:
    wall_s: float  # the timed section: certificate reps and the sweep
    cpu_s: float  # process CPU time of the same section
    sweep_s: float
    pass_s: List[float]  # per certificate rep
    fail_s: List[float]
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    report_sha256: Optional[str] = None
    sweep_payload: Optional[dict] = None


def _call(cli, argv) -> Tuple[Optional[int], Optional[str]]:
    """Run one rotke command; returns (exit code, error text)."""
    try:
        return cli.main(list(argv)), None
    except Exception as exc:  # the gate counts it; the pass goes on
        return None, f"{type(exc).__name__}: {exc}"


def _cert_rep(cli, inputs: Inputs, rep: int):
    pass_s = fail_s = 0.0
    calls = []
    for i, cert in enumerate(inputs.certs):
        out = inputs.workdir / f"verify-{i:02d}-r{rep}.json"
        argv = ("verify", "--spec", cert.spec_path, "--lambda", cert.lam, "--format", "json", "--out", str(out))
        t0 = time.perf_counter()
        rc, err = _call(cli, argv)
        dt = time.perf_counter() - t0
        if cert.expect == "PASS":
            pass_s += dt
        else:
            fail_s += dt
        calls.append((cert, out, rc, err))
    return pass_s, fail_s, calls


def run_pass(cli, inputs: Inputs, reference: dict) -> PassResult:
    """Time the certificate reps and the sweep as one section; then gate them.

    The first half of the reps (rounded up) runs before the sweep, the rest after it.
    """
    for stale in [*inputs.workdir.glob("verify-*.json"), inputs.workdir / "sweep.json"]:
        stale.unlink(missing_ok=True)
    before = inputs.reps - inputs.reps // 2
    t0, c0 = time.perf_counter(), time.process_time()
    reps = [_cert_rep(cli, inputs, rep) for rep in range(before)]
    t1 = time.perf_counter()
    sweep_rc, sweep_err = _call(cli, inputs.sweep_argv)
    t2 = time.perf_counter()
    reps += [_cert_rep(cli, inputs, rep) for rep in range(before, inputs.reps)]
    t3, c3 = time.perf_counter(), time.process_time()

    res = PassResult(t3 - t0, c3 - c0, t2 - t1, [r[0] for r in reps], [r[1] for r in reps])
    report_path = inputs.workdir / "sweep.json"
    raw = report_path.read_bytes() if sweep_err is None and report_path.exists() else None
    if raw is not None:
        res.report_sha256 = hashlib.sha256(raw).hexdigest()
        res.sweep_payload = json.loads(raw)
    gate = check_sweep(res.sweep_payload, sweep_rc, reference, sweep_err)
    res.attempted += gate.attempted
    res.failed += gate.failed
    res.problems += gate.problems
    for _, _, calls in reps:
        for cert, out, rc, err in calls:
            problem = check_certificate(cert, out, rc, err)
            res.attempted += 1
            if problem:
                res.failed += 1
                res.problems.append(problem)
    return res


# ---------------------------------------------------------------------------
# Correctness gate
# ---------------------------------------------------------------------------


def verdict_records(payload: dict) -> List[list]:
    """(n, k, support, status, [(assignment, lambda, tag)]) per entry.

    Witness text, notes and report bytes are left out: the witness of an
    INFEASIBLE entry depends on set iteration order, so on the hash seed.
    """
    records = []
    for e in payload["entries"]:
        solutions = [
            [[[k, v] for k, v in sorted(s["assignment"].items())], s["lambda"], s["tag"]] for s in e["solutions"]
        ]
        records.append([e["n"], e["k"], e["support"], e["status"], solutions])
    return records


def records_digest(records: List[list]) -> str:
    lines = sorted(json.dumps(r, sort_keys=True, separators=(",", ":")) for r in records)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


@dataclass
class GateResult:
    attempted: int
    failed: int
    problems: List[str]


def check_sweep(payload: Optional[dict], exit_code: Optional[int], reference: dict,
                error: Optional[str] = None) -> GateResult:
    """Compare a sweep report with its reference verdicts, entry by entry."""
    expected = reference["entries"]
    attempted = len(expected)
    if error is not None or payload is None:
        return GateResult(attempted, attempted, [f"sweep raised or wrote no report: {error}"])
    problems = []
    got = verdict_records(payload)

    def key(record):
        return json.dumps(record[:3])

    want = {key(r): r for r in expected}
    have = {key(r): r for r in got}
    failed = 0
    for k, record in want.items():
        if have.get(k) != record:
            failed += 1
            problems.append(f"entry {k}: expected {record}, got {have.get(k)}")
    for k in have.keys() - want.keys():
        failed += 1
        problems.append(f"unexpected entry {k}")
    if records_digest(got) != reference["digest"]:
        problems.append("verdict digest differs from the reference")
    if payload.get("counts") != reference["counts"]:
        problems.append(f"counts {payload.get('counts')} differ from {reference['counts']}")
    if payload.get("counts", {}).get("UNRESOLVED", 0):
        problems.append("sweep left UNRESOLVED entries")
    if any(s["tag"] == "UNKNOWN" for e in payload["entries"] for s in e["solutions"]):
        problems.append("sweep reported an UNKNOWN tag")
    if exit_code != reference["exit_code"]:
        problems.append(f"sweep exit code {exit_code}, expected {reference['exit_code']}")
    if problems and not failed:
        failed = 1
    return GateResult(attempted, min(failed, attempted), problems)


def check_certificate(cert: CertInput, out: Path, exit_code: Optional[int], error: Optional[str]) -> Optional[str]:
    """None if the certificate reached the expected verdict, else a message."""
    if error is not None:
        return f"verify {cert.name} raised {error}"
    want_rc = PASS_RC if cert.expect == "PASS" else FAIL_RC
    try:
        status = json.loads(out.read_text(encoding="utf-8"))["status"]
    except (OSError, ValueError, KeyError) as exc:
        return f"verify {cert.name}: unreadable report ({exc})"
    if status != cert.expect or exit_code != want_rc:
        return f"verify {cert.name}: {status} with exit code {exit_code}, expected {cert.expect} / {want_rc}"
    return None


def prescreen_ratio(payload: dict) -> float:
    """Prescreen-decided entries over INFEASIBLE entries of a sweep report."""
    infeasible = [e for e in payload["entries"] if e["status"] == "INFEASIBLE"]
    if not infeasible:
        return 0.0
    return sum(1 for e in infeasible if e["note"] == "prescreen") / len(infeasible)
