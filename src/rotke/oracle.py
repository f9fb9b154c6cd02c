"""Independent references for the bordered metric determinant, sharing no
determinant code with the x-space minor expansion so a bug in it cannot
cancel out: the Leibniz determinant of the metric g_{ab} = delta_{ab} F_a +
x_a F_{ab}, F = log P (`det_metric`), and a z-space brute force that
reimplements differentiation and the determinant on pairs of exponent
vectors in z and zbar (`zspace_det_numerator`, numeric only, n <= 3).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from typing import Dict, Tuple

from .algebra import CoefPoly, MultiIndex
from .geometry import PotentialSpec
from .series import Series, series_diff, series_log1p


def mi_permute(m: MultiIndex, perm) -> MultiIndex:
    """Apply a variable permutation: entry i of the result is m[perm[i]].

    The naive reference for the support enumeration's permutation getters.
    """
    return tuple(m[perm[i]] for i in range(len(m)))


@dataclass(frozen=True)
class HessianX:
    """First and second x-derivatives of F = log P, Bochner-normalized."""

    n: int
    f_alpha: Tuple[Series, ...]
    f_alpha_beta: Tuple[Tuple[Series, ...], ...]

    @property
    def trunc(self) -> int:
        return self.f_alpha[0].trunc


def metric_in_x(P: Series) -> HessianX:
    """Derivatives of F = log P; requires P in Bochner form (P(0)=1, linear part sum x)."""
    if P.coeff((0,) * P.n) != CoefPoly.const(1):
        raise ValueError("potential must have constant term 1")
    for alpha in range(1, P.n + 1):
        m = tuple(1 if i == alpha - 1 else 0 for i in range(P.n))
        if P.coeff(m) != CoefPoly.const(1):
            raise ValueError("potential must have unit linear part (Bochner form)")
    # P is an exact polynomial, so it can be widened by two degrees before
    # taking the log; otherwise the second derivatives would only be valid to
    # degree trunc - 2.
    wide = Series(P.n, P.trunc + 2, P.terms)
    F = series_log1p(wide - Series.one(P.n, P.trunc + 2))
    f_alpha_wide = [series_diff(F, a) for a in range(1, P.n + 1)]
    f_alpha = tuple(fa.truncate(P.trunc) for fa in f_alpha_wide)
    f_ab = tuple(
        tuple(series_diff(f_alpha_wide[a], b + 1).truncate(P.trunc) for b in range(P.n))
        for a in range(P.n)
    )
    return HessianX(P.n, f_alpha, f_ab)


def det_metric(H: HessianX) -> Series:
    """det(g_{ab}) as a Series in x, by the Leibniz sum; constant term 1.

    The x-space entries are delta_{ab} F_a + x_a F_{ab}.  Deliberately
    independent of `_minor_determinant`: it is the reference that
    det_numerator is tested against.
    """
    n = H.n
    total = Series.zero(n, H.trunc)
    for perm in permutations(range(n)):
        term = Series.one(n, H.trunc)
        for a in range(n):
            xa = tuple(1 if i == a else 0 for i in range(n))
            entry = H.f_alpha_beta[a][perm[a]].shift_monomial(xa)
            if perm[a] == a:
                entry = H.f_alpha[a] + entry
            term = term * entry
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        total = total - term if inversions & 1 else total + term
    return total


ORACLE_MAX_DIMENSION = 3

ExponentPair = Tuple[MultiIndex, MultiIndex]  # (powers of z, powers of zbar)


class BiPoly:
    """Finitely supported polynomial in (z_1..z_n, zbar_1..zbar_n)."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: Dict[ExponentPair, Fraction] = None):
        self.n = n
        self.terms = {k: Fraction(v) for k, v in (terms or {}).items() if v}

    @staticmethod
    def constant(n: int, value) -> "BiPoly":
        value = Fraction(value)
        return BiPoly(n, {((0,) * n, (0,) * n): value} if value else {})

    def __add__(self, other: "BiPoly") -> "BiPoly":
        out = dict(self.terms)
        for k, v in other.terms.items():
            s = out.get(k, Fraction(0)) + v
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        return BiPoly(self.n, out)

    def __neg__(self) -> "BiPoly":
        return BiPoly(self.n, {k: -v for k, v in self.terms.items()})

    def __sub__(self, other: "BiPoly") -> "BiPoly":
        return self + (-other)

    def __mul__(self, other: "BiPoly") -> "BiPoly":
        out: Dict[ExponentPair, Fraction] = {}
        for (mz1, mb1), v1 in self.terms.items():
            for (mz2, mb2), v2 in other.terms.items():
                k = (
                    tuple(a + b for a, b in zip(mz1, mz2)),
                    tuple(a + b for a, b in zip(mb1, mb2)),
                )
                s = out.get(k, Fraction(0)) + v1 * v2
                if s:
                    out[k] = s
                else:
                    out.pop(k, None)
        return BiPoly(self.n, out)

    def diff_z(self, alpha: int) -> "BiPoly":
        """d/dz_alpha (1-based)."""
        i = alpha - 1
        out = {}
        for (mz, mb), v in self.terms.items():
            if mz[i]:
                k = (mz[:i] + (mz[i] - 1,) + mz[i + 1:], mb)
                out[k] = out.get(k, Fraction(0)) + v * mz[i]
        return BiPoly(self.n, out)

    def diff_zbar(self, alpha: int) -> "BiPoly":
        """d/dzbar_alpha (1-based)."""
        i = alpha - 1
        out = {}
        for (mz, mb), v in self.terms.items():
            if mb[i]:
                k = (mz, mb[:i] + (mb[i] - 1,) + mb[i + 1:])
                out[k] = out.get(k, Fraction(0)) + v * mb[i]
        return BiPoly(self.n, out)

    def is_rotation_invariant(self) -> bool:
        return all(mz == mb for mz, mb in self.terms)

    def __eq__(self, other):
        if not isinstance(other, BiPoly):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def __repr__(self):
        return f"BiPoly({self.n}, {self.terms!r})"


def potential_bipoly(spec: PotentialSpec) -> BiPoly:
    """P as a polynomial in (z, zbar): substitute x_alpha = z_alpha zbar_alpha."""
    if not spec.is_numeric():
        raise ValueError("the oracle handles numeric specs only")
    n = spec.n
    terms: Dict[ExponentPair, Fraction] = {((0,) * n, (0,) * n): Fraction(1)}
    for i in range(n):
        e = tuple(1 if j == i else 0 for j in range(n))
        terms[(e, e)] = Fraction(1)
    for m, coef in spec.support:
        terms[(m, m)] = Fraction(coef)
    return BiPoly(n, terms)


def zspace_det_numerator(spec: PotentialSpec) -> BiPoly:
    """det [[P, P_{zbar_b}], [P_{z_a}, P_{z_a zbar_b}]] by literal Leibniz
    expansion of the (n+1) x (n+1) bordered matrix."""
    if spec.n > ORACLE_MAX_DIMENSION:
        raise ValueError(f"oracle refuses n = {spec.n} > {ORACLE_MAX_DIMENSION}")
    n = spec.n
    P = potential_bipoly(spec)
    Pz = [P] + [P.diff_z(a) for a in range(1, n + 1)]
    B = [[Pz[a]] + [Pz[a].diff_zbar(b) for b in range(1, n + 1)] for a in range(n + 1)]
    det = BiPoly.constant(n, 0)
    for perm in permutations(range(n + 1)):
        inversions = sum(
            1 for i in range(n + 1) for j in range(i + 1, n + 1) if perm[i] > perm[j]
        )
        prod = BiPoly.constant(n, (-1) ** inversions)
        for a in range(n + 1):
            prod = prod * B[a][perm[a]]
        det = det + prod
    return det


def rotation_project(b: BiPoly) -> Dict[MultiIndex, Fraction]:
    """Keep the terms with equal z and zbar exponents, rewritten in x."""
    return {mz: v for (mz, mb), v in b.terms.items() if mz == mb}
