"""Independent z-space brute force for the bordered metric determinant.

Deliberately reimplements differentiation and the determinant on a different
representation (pairs of exponent vectors in z and zbar) so a bug shared with
the x-space minor expansion cannot cancel out.  Numeric only, n <= 3.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations
from typing import Dict, Tuple

from .algebra import MultiIndex
from .geometry import PotentialSpec

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


def rotation_project(b: BiPoly, assert_lossless: bool = False) -> Dict[MultiIndex, Fraction]:
    """Keep the terms with equal z and zbar exponents, rewritten in x."""
    kept = {mz: v for (mz, mb), v in b.terms.items() if mz == mb}
    if assert_lossless and len(kept) != len(b.terms):
        dropped = {k: v for k, v in b.terms.items() if k[0] != k[1]}
        raise AssertionError(f"rotation projection dropped terms: {dropped}")
    return kept
