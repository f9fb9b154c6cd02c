"""Bochner-form potentials, the metric determinant in x-space, and the
Monge-Ampere Einstein identity.

A rotation-invariant potential is F = log P with
P = 1 + sum_j x_j + sum_j a_j x^(m_j), x_alpha = |z_alpha|^2.  The metric
determinant has Fefferman's bordered form

    det(g) = det(B) / P^(n+1),    B = [[P, P_{zbar_b}], [P_{z_a}, P_{z_a zbar_b}]],

an (n+1) x (n+1) matrix of plain derivatives of P.  With Q_a = dP/dx_a,
conjugating B by diag(1, z) leaves the determinant unchanged and gives the
x-space matrix with row 0 = (P, Q_1, ..., Q_n) and row a = x_a d/dx_a of
row 0 plus Q_a on the diagonal.  det(B), a polynomial of degree
n(deg_x P - 1) + deg_x P, is computed by one expansion along rows with the
minors memoised per column set: the certificate compares a power of it
against a power of P through degree deg det(B) + deg P.  A variable x_a
that P holds only in its linear term c x_a drops out first: subtracting x_a
times column a from column 0 leaves c e_a as row a and P - c x_a at (0, 0),
so det(B) = c det(B') with row and column a removed (`det_numerator`), and
the expansion runs on one row per variable P uses.  The independent
references (the metric g_{ab} = delta_{ab} F_a + zbar_a z_b F_{ab} with its
own Leibniz determinant, and a z-space brute force) live in `oracle`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .algebra import (
    CoefPoly,
    MultiIndex,
    Unknown,
    fraction_terms_repr,
    grlex_key,
    mi_degree,
    support_unknown,
    validate_multiindex,
)
from .series import (
    Parts,
    Series,
    _add_graded_product,
    _collect,
    _from_parts,
    _homogeneous_parts,
    _raw,
    log1p_numerator,
    series_diff,
    series_exp,
)

MAX_DIMENSION = 8

Coefficient = Union[Fraction, Unknown]


@dataclass(frozen=True)
class PotentialSpec:
    """Bochner-form support list: P = 1 + sum x_j + sum_j coef_j x^(m_j).

    Support multi-indices have degree >= 2 and are pairwise distinct; when the
    spec is flagged `induced`, numeric coefficients must be positive.
    """

    n: int
    support: Tuple[Tuple[MultiIndex, Coefficient], ...]
    induced: bool = True

    def __post_init__(self):
        if not 1 <= self.n <= MAX_DIMENSION:
            raise ValueError(f"dimension must be in 1..{MAX_DIMENSION}")
        seen = set()
        norm = []
        for m, coef in self.support:
            m = validate_multiindex(m, self.n)
            if mi_degree(m) < 2:
                raise ValueError(f"support monomial {m} has degree < 2")
            if m in seen:
                raise ValueError(f"duplicate support monomial {m}")
            seen.add(m)
            if isinstance(coef, int):
                coef = Fraction(coef)
            if isinstance(coef, Fraction):
                if coef == 0:
                    raise ValueError(f"zero coefficient at {m}")
                if self.induced and coef <= 0:
                    raise ValueError(f"induced potentials need positive coefficients, got {coef} at {m}")
            elif not isinstance(coef, Unknown):
                raise ValueError(f"coefficient at {m} must be a Fraction or Unknown")
            norm.append((m, coef))
        norm.sort(key=lambda item: grlex_key(item[0]))
        object.__setattr__(self, "support", tuple(norm))

    @property
    def codimension(self) -> int:
        return len(self.support)

    def is_numeric(self) -> bool:
        return all(isinstance(c, Fraction) for _, c in self.support)

    def max_degree(self) -> int:
        """deg_x P (1 for the empty support)."""
        return max((mi_degree(m) for m, _ in self.support), default=1)

    def det_b_degree(self) -> int:
        """n (d - 1) + d with d = deg_x P: the degree of det(B), so the least
        truncation at which `det_numerator` is exact."""
        d = self.max_degree()
        return self.n * (d - 1) + d

    def unknowns(self) -> List[Unknown]:
        return [c for _, c in self.support if isinstance(c, Unknown)]

    def substitute(self, assignment) -> "PotentialSpec":
        """Replace symbolic coefficients by rationals; zero coefficients drop out."""
        new = []
        for m, c in self.support:
            if isinstance(c, Unknown) and c.name in assignment:
                v = Fraction(assignment[c.name])
                if v:
                    new.append((m, v))
            else:
                new.append((m, c))
        return PotentialSpec(self.n, tuple(new), induced=self.induced)

    @staticmethod
    def symbolic(n: int, monomials: Sequence[MultiIndex]) -> "PotentialSpec":
        return PotentialSpec(n, tuple((tuple(m), support_unknown(tuple(m))) for m in monomials))


@dataclass(frozen=True)
class EinsteinCandidate:
    spec: PotentialSpec
    lam: Fraction


@dataclass(frozen=True)
class Certificate:
    """Outcome of the exact polynomial identity det(B)^q' = P^((n+1)q' - p');
    `identity` states the form that was checked, and both sides are compared
    and hashed through the degree top of `certify_exact`."""

    status: str  # "PASS" | "FAIL"
    lam: Fraction
    identity: str
    lhs_hash: str
    rhs_hash: str
    witness: Optional[MultiIndex] = None

    def passed(self) -> bool:
        return self.status == "PASS"


def build_potential(spec: PotentialSpec, trunc: int) -> Series:
    """P = 1 + sum x_j + sum coef_j x^(m_j) embedded as an exact Series."""
    if trunc < spec.max_degree():
        raise ValueError(f"truncation {trunc} below the support degree {spec.max_degree()}")
    terms: Dict[MultiIndex, CoefPoly] = {(0,) * spec.n: CoefPoly.const(1)}
    for i in range(spec.n):
        terms[tuple(1 if j == i else 0 for j in range(spec.n))] = CoefPoly.const(1)
    for m, coef in spec.support:
        terms[m] = CoefPoly.var(coef.name) if isinstance(coef, Unknown) else CoefPoly.const(coef)
    return Series(spec.n, trunc, terms)


def bochner_normalize(phi: Series) -> Tuple[Series, Tuple[Fraction, ...]]:
    """Rescale x_alpha so the linear part of phi becomes exactly sum x_alpha.

    Returns the normalized series and the scalings c_alpha used
    (x_alpha -> x_alpha / c_alpha).  Idempotent on normalized input.
    """
    if not phi.constant_term().is_zero():
        raise ValueError("potential must vanish at the center")
    if not phi.is_numeric():
        raise ValueError("bochner_normalize needs numeric coefficients")
    scales = []
    for alpha in range(phi.n):
        m = tuple(1 if i == alpha else 0 for i in range(phi.n))
        c = phi.coeff(m).constant_value()
        if c <= 0:
            raise ValueError(f"metric degenerate at center: linear coefficient of x{alpha + 1} is {c}")
        scales.append(c)
    normalized = phi.rescale_vars([Fraction(1, 1) / c for c in scales])
    return normalized, tuple(scales)


# ---------------------------------------------------------------------------
# Determinant in x-space
# ---------------------------------------------------------------------------


def _minor_determinant(A: Sequence[Sequence[Series]]) -> Series:
    """det A for a square matrix of series, truncated at their truncation.

    Expands along rows 0, 1, ..., keeping the minor on rows 0..r and each
    column set S (a bitmask) once: at most m 2^(m-1) series products for m
    rows.  The minor is kept only to degree trunc - |S minus {0..r}|.  That
    is exact when every off-diagonal entry of rows 1.. has no term of degree
    0, as in `det_numerator`: each such column c is taken by an earlier row,
    so row c must later pick an off-diagonal entry, of degree >= 1.  Row 0 is
    free.

    Each minor is built on its own, as sum_{c in S} +-A[r][c] minor[S - c]
    accumulated in place in one raw accumulator per degree, with the
    Laplace sign folded into the product.  Identically zero entries and zero
    minors are skipped; in `det_numerator` the entry x_a Q_ab of row a
    vanishes unless some support monomial contains both x_a and x_b, so most
    of B is zero.

    Entries and minors are packed parts (see `series`): each x-monomial is
    one int key sum_i m_i B^i with B = trunc + 1, and each minor is kept as
    its list of packed terms per degree from one row to the next.  Every
    kept product has degree <= cap <= trunc < B, so adding the keys of an
    entry term and a minor term never carries and gives the key of their
    product.  Only det A itself is unpacked.
    """
    m = len(A)
    nvars, trunc = A[0][0].n, A[0][0].trunc
    entries = [[_homogeneous_parts(e.terms, trunc, trunc) if e.terms else None for e in row] for row in A]
    minors: Dict[int, Parts] = {0: _homogeneous_parts(Series.one(nvars, trunc).terms, 0, trunc)}
    for r in range(m):
        low = (1 << (r + 1)) - 1
        targets = sorted({sub | 1 << c for sub in minors for c in range(m) if not sub >> c & 1})
        nxt: Dict[int, Parts] = {}
        for cols in targets:
            cap = trunc - bin(cols & ~low).count("1")
            if cap < 0:
                continue
            acc: List[Dict[int, dict]] = [{} for _ in range(cap + 1)]
            for c in range(m):
                bit = 1 << c
                entry, minor = entries[r][c], minors.get(cols ^ bit) if cols & bit else None
                if entry is None or minor is None:
                    continue
                # Laplace sign: (-1)^(columns of cols to the right of c)
                sign = -1 if bin(cols >> (c + 1)).count("1") & 1 else 1
                _add_graded_product(acc, entry, minor, cap, sign)
            parts = [_collect(cell, 1) for cell in acc]
            if any(parts):
                nxt[cols] = parts
        minors = nxt
    return _from_parts(nvars, trunc, minors.get((1 << m) - 1, []))


def det_numerator(P: Series, trunc: Optional[int] = None) -> Series:
    """det(B) for the bordered matrix B = [[P, P_{zbar_b}], [P_{z_a}, P_{z_a zbar_b}]],
    so that det(g) = det(B) / P^(n+1), through degree `trunc` (default
    P.trunc); an exact polynomial in x whenever
    P.trunc >= n*(deg_x(P) - 1) + deg_x(P) (`PotentialSpec.det_b_degree`).

    In x-space row 0 is (P, Q_1, ..., Q_n) and row a is x_a d/dx_a of row 0
    plus Q_a on the diagonal, so every off-diagonal entry of row a carries x_a.

    Free variables drop out.  Let Q_a be a constant c, that is, x_a occurs
    in P only in its linear term.  Then d/dx_a kills every Q_b, so row a is
    (c x_a, 0, ..., 0) plus c on the diagonal, and column a is c in row 0
    and zero in the other rows b != a.  Subtracting x_a times column a from
    column 0 makes row a equal to c e_a and changes only entry (0, 0), to
    P - c x_a.  So det B = c det B', B' dropping row and column a.  This is
    done for every such variable, and `_minor_determinant` runs on u + 1
    rows, u the number of variables P uses (the 1 x 1 matrix [1] for CP^n
    unit).  The kept rows keep their diagonal and their off-diagonal entries
    of degree >= 1, so the truncation argument of `_minor_determinant`
    still holds.

    `trunc` may lie below P.trunc, even below deg_x(P) (`extract_constraints`
    goes down to deg_x(P) - 1), but never above it.  Row 0 is formed from P
    and only then truncated: x_a d/dx_a multiplies the coefficient of x^m by
    m_a and keeps its degree, so truncating row 0 truncates every row, and
    the result is det(B) through degree `trunc`.  Truncating P first would
    not be exact: Q_a takes its degree d - 1 part from the degree-d part of P.
    """
    n = P.n
    zero = (0,) * n
    Q = {a: series_diff(P, a) for a in range(1, n + 1)}
    free = {a: q.terms[zero] for a, q in Q.items() if q.terms.keys() == {zero}}
    head = P
    if free:
        linear = {tuple(int(i == a - 1) for i in range(n)) for a in free}
        head = _raw(n, P.trunc, {m: c for m, c in P.terms.items() if m not in linear})
    kept = [a for a in Q if a not in free]
    row0 = [head] + [Q[a] for a in kept]
    if trunc is not None and trunc != P.trunc:
        row0 = [entry.truncate(trunc) for entry in row0]
    rows = [row0]
    for i, a in enumerate(kept, 1):
        xa = tuple(int(j == a - 1) for j in range(n))
        row = [series_diff(entry, a).shift_monomial(xa) for entry in row0]
        row[i] = row0[i] + row[i]
        rows.append(row)
    det = _minor_determinant(rows)
    for c in free.values():
        if c != 1:
            det = det.scale(c)
    return det


# ---------------------------------------------------------------------------
# Monge-Ampere residual and certification
# ---------------------------------------------------------------------------


def ma_log_residual_numerator(
    P: Series, lam: Union[CoefPoly, Fraction, int], trunc: Optional[int] = None
) -> Tuple[int, Series]:
    """(q, q R) for the residual R of `ma_log_residual` through degree
    `trunc` (default P.trunc), q = 2 lcm(1..trunc).

    With N = lcm(1..trunc), q R = 2 (N log det(B)) + (lam - 2n - 2) (N log P),
    both N log terms taken straight from `log1p_numerator`.  For a symbolic
    spec and a symbolic or integral lam every coefficient is an integer
    polynomial, so no rational arithmetic is needed.  A `trunc` below
    P.trunc is exact (see `det_numerator`): the degree <= trunc part of a
    log depends only on that of its argument.
    """
    trunc = P.trunc if trunc is None else trunc
    lam_poly = lam if isinstance(lam, CoefPoly) else CoefPoly.const(lam)
    one = Series.one(P.n, trunc)
    N, log_detB = log1p_numerator(det_numerator(P, trunc) - one)
    if trunc != P.trunc:
        P = P.truncate(trunc)
    _, log_P = log1p_numerator(P - one)
    factor = lam_poly + CoefPoly.const(-2 * (P.n + 1))
    return 2 * N, log_detB.scale(2) + log_P.scale(factor)


def ma_log_residual(P: Series, lam: Union[CoefPoly, Fraction, int]) -> Series:
    """R = log det(g) + (lam/2) log P, truncated.

    R vanishes identically up to the truncation iff the Einstein identity
    det(g) = P^(-lam/2) holds to that order.  Computed through the bordered
    determinant: log det(g) = log det(B) - (n+1) log P, so
    R = log1p(det(B) - 1) + (lam/2 - n - 1) log1p(P - 1), by one scale of
    `ma_log_residual_numerator`.
    """
    q, qR = ma_log_residual_numerator(P, lam)
    return qR.scale(Fraction(1, q))


def lambda_in_lowest_terms(lam: Fraction) -> Tuple[int, int]:
    """Write lam = 2 p'/q' with p'/q' in lowest terms; returns (p', q')."""
    half = Fraction(lam, 2)
    return half.numerator, half.denominator


def _poly_hash(s: Series, den: int = 1) -> str:
    """SHA-256 of repr((m, Fraction terms of c / den)) over the terms in
    grlex order, for a positive integer den.

    With den != 1 every coefficient must be an int: each c / den is written
    in lowest terms from the integer numerator with one gcd, so the digest is
    that of the series divided by den without building it.
    """
    if den == 1:
        text = "".join([f"({m!r}, {fraction_terms_repr(c)})" for m, c in s.sorted_terms()])
    else:
        parts = []
        for m, c in s.sorted_terms():
            v = c.terms[()]
            g = gcd(v, den)
            parts.append(f"({m!r}, [((), Fraction({v // g}, {den // g}))])")
        text = "".join(parts)
    return hashlib.sha256(text.encode()).hexdigest()


def certify_exact(cand: EinsteinCandidate) -> Certificate:
    """Exact proof or refutation of the Einstein identity for a numeric candidate.

    With lam/2 = p'/q' in lowest terms and e = (n+1) q' - p', the
    Monge-Ampere equation is equivalent to the polynomial identity
    det(B)^q' = P^e, checked as det(B)^q' P^(-e) = 1 when e < 0.  A FAIL
    names the grlex-least monomial of the difference.

    The sides are compared through degree top = max(det_b_degree,
    min(full, deg F + deg P)), F = det B and full the larger degree of the
    two sides; P and F are widened to top only when it exceeds det_b_degree.
    Lemma: let G = F^q' P^(-e), both F and P having constant term 1, and
    H = q' P E(F) - e E(P) F, E the Euler operator (d times the degree-d
    part).  Then E(G)/G = H/(F P) and deg H <= deg F + deg P.  If the sides
    agree through degree deg F + deg P, then G - 1, E(G) and H = F P E(G)/G
    vanish through it, so H = 0, E(G) = 0 and G = G(0) = 1: the identity
    holds exactly.  The same argument puts the lowest-degree difference of
    any FAIL at or below that degree, and grlex orders by degree first, so
    the witness is that of the full identity.

    Everything runs on the integral potential D P, D the lcm of the
    coefficient denominators.  B is (n+1) x (n+1) and linear in P, so
    det B(D P) = D^(n+1) det B(P), and the identity becomes the integer one

        det B(DP)^q' (DP)^max(-e, 0) = D^p' (DP)^max(e, 0),

    the two sides being D^((n+1) q' + max(-e, 0)) and D^max(e, 0) times
    those of the rational identity.  The minor expansion, both
    `Series.pow_trunc` calls and the comparison stay on int.  The hashes
    are those of the rational sides through degree top: `_poly_hash`
    divides by the power of D.  A positive scale keeps the support of the
    difference, so the witness is the rational one too.
    """
    spec = cand.spec
    if not spec.is_numeric():
        raise ValueError("certify_exact needs a fully numeric spec")
    lam = Fraction(cand.lam)
    if lam <= 0:
        raise ValueError(f"Einstein constant must be positive, got {lam}")
    p_prime, q_prime = lambda_in_lowest_terms(lam)
    n, d = spec.n, spec.max_degree()
    exponent = (n + 1) * q_prime - p_prime
    D = lcm(*(c.denominator for _, c in spec.support))
    DP = build_potential(spec, spec.det_b_degree()).scale(D)
    det_b = det_numerator(DP)
    deg_b = det_b.degree()
    full = max(q_prime * deg_b + max(-exponent, 0) * d, max(exponent, 0) * d)
    top = min(full, deg_b + d)
    if top > DP.trunc:
        DP, det_b = Series(n, top, DP.terms), Series(n, top, det_b.terms)
    lhs = det_b.pow_trunc(q_prime)
    if exponent >= 0:
        rhs = DP.pow_trunc(exponent)
        identity = f"det(B)^{q_prime} = P^{exponent}"
    else:
        lhs = lhs * DP.pow_trunc(-exponent)
        rhs = Series.one(n, DP.trunc)
        identity = f"det(B)^{q_prime} * P^{-exponent} = 1"
    lhs_hash = _poly_hash(lhs, D ** ((n + 1) * q_prime + max(-exponent, 0)))
    rhs_hash = _poly_hash(rhs, D ** max(exponent, 0))
    if D != 1:
        rhs = rhs.scale(D ** p_prime)
    if lhs == rhs:
        return Certificate("PASS", lam, identity, lhs_hash, rhs_hash)
    witness = min((lhs - rhs).terms, key=grlex_key)
    return Certificate("FAIL", lam, identity, lhs_hash, rhs_hash, witness)


def degree_bound_lambda(spec: PotentialSpec) -> Fraction:
    """Lower bound lam >= 4n / deg_z(P) = 2n / deg_x(P) forced by degree count."""
    return Fraction(2 * spec.n, spec.max_degree())


# ---------------------------------------------------------------------------
# Projective induction check
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InductionReport:
    """Sign report on the coefficients of E = e^Phi - 1 up to a degree bound."""

    trunc: int
    induced_up_to_trunc: bool
    coefficients: Tuple[Tuple[MultiIndex, Fraction], ...]
    codimension_estimate: Optional[int]
    witness: Optional[MultiIndex]


def projective_induction_check(phi: Series) -> InductionReport:
    """Reconstruct E = e^Phi - 1 and check that every coefficient is >= 0.

    A nonnegative verdict is only valid up to the truncation degree; it is
    never a global claim.
    """
    if not phi.constant_term().is_zero():
        raise ValueError("potential must vanish at the center")
    if not phi.is_numeric():
        raise ValueError("projective_induction_check needs numeric coefficients")
    E = series_exp(phi) - Series.one(phi.n, phi.trunc)
    coeffs = tuple((m, c.constant_value()) for m, c in E.sorted_terms())
    witness = next((m for m, c in coeffs if c < 0), None)
    if witness is not None:
        return InductionReport(phi.trunc, False, coeffs, None, witness)
    return InductionReport(phi.trunc, True, coeffs, len(coeffs) - phi.n, None)
