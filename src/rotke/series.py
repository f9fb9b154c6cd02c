"""Total-degree-truncated power series in x = (|z_1|^2, ..., |z_n|^2).

Coefficients are CoefPoly, so the same arithmetic serves numeric potentials
and symbolic constraint generation.  The truncation degree D is fixed at
creation; combining series with different dimension or truncation is an
error, never an implicit min.

Inside the product kernels an x-monomial m is packed into one int key,
k = sum_i m_i B^i with B = trunc + 1, so adding two keys multiplies the two
monomials.  This is exact: a kept term has total degree <= cap <= trunc,
so every exponent of every operand and of every kept product is below B.
Adding keys therefore never carries from one digit into the next, and
distinct monomials keep distinct keys.  Kernel data ("parts") are lists by
total degree of (key, coefficient term dict) pairs; they stay packed and
graded from one kernel step to the next (the minors of
`geometry._minor_determinant`, the parts of `_degree_recurrence`) and are
unpacked once, when the result Series is built.  `Series.terms` stays keyed
by exponent tuples.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Callable, Dict, List, Mapping, Optional, Tuple, Union

from .algebra import (
    CoefPoly,
    MultiIndex,
    RationalLike,
    _umono_mul,
    exact_quotient,
    grlex_key,
    validate_multiindex,
)

CoefLike = Union[CoefPoly, Fraction, int]


def _as_poly(c: CoefLike) -> CoefPoly:
    return c if isinstance(c, CoefPoly) else CoefPoly.const(c)


class Series:
    """Sparse truncated power series; immutable by convention."""

    __slots__ = ("n", "trunc", "terms")

    def __init__(self, n: int, trunc: int, terms: Optional[Mapping[MultiIndex, CoefLike]] = None):
        if n < 1:
            raise ValueError("dimension must be positive")
        if trunc < 1:
            raise ValueError("truncation must be positive")
        self.n = n
        self.trunc = trunc
        clean: Dict[MultiIndex, CoefPoly] = {}
        if terms:
            for m, c in terms.items():
                m = validate_multiindex(m, n)
                if sum(m) > trunc:
                    continue
                p = _as_poly(c)
                if not p.is_zero():
                    clean[m] = p
        self.terms = clean

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero(n: int, trunc: int) -> "Series":
        return Series(n, trunc)

    @staticmethod
    def one(n: int, trunc: int) -> "Series":
        return Series(n, trunc, {(0,) * n: 1})

    @staticmethod
    def variable(n: int, trunc: int, alpha: int) -> "Series":
        """The series x_alpha (alpha is 1-based)."""
        m = tuple(1 if i == alpha - 1 else 0 for i in range(n))
        return Series(n, trunc, {m: 1})

    # -- accessors ----------------------------------------------------------

    def coeff(self, m) -> CoefPoly:
        return self.terms.get(tuple(m), CoefPoly())

    def constant_term(self) -> CoefPoly:
        return self.coeff((0,) * self.n)

    def degree(self) -> int:
        return max((sum(m) for m in self.terms), default=0)

    def is_zero(self) -> bool:
        return not self.terms

    def is_numeric(self) -> bool:
        return all(c.is_constant() for c in self.terms.values())

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: grlex_key(kv[0]))

    # -- arithmetic ---------------------------------------------------------

    def _check_compat(self, other: "Series"):
        if self.n != other.n:
            raise ValueError(f"dimension mismatch: {self.n} vs {other.n}")
        if self.trunc != other.trunc:
            raise ValueError(f"truncation mismatch: {self.trunc} vs {other.trunc}")

    def __add__(self, other: "Series") -> "Series":
        self._check_compat(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m)
            s = c if s is None else s + c
            if s.is_zero():
                out.pop(m, None)
            else:
                out[m] = s
        return _raw(self.n, self.trunc, out)

    def __neg__(self) -> "Series":
        return _raw(self.n, self.trunc, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "Series") -> "Series":
        return self + (-other)

    def __mul__(self, other: "Series") -> "Series":
        self._check_compat(other)
        return self.mul_trunc(other, self.trunc)

    def mul_trunc(self, other: "Series", cap: int) -> "Series":
        """Cauchy product keeping only terms of total degree <= cap (<= trunc)."""
        n, trunc = self.n, self.trunc
        cap = min(cap, trunc)
        acc: List[Dict[int, dict]] = [{} for _ in range(cap + 1)]
        _add_graded_product(acc, _homogeneous_parts(self.terms, cap, trunc), _homogeneous_parts(other.terms, cap, trunc), cap)
        return _from_parts(n, trunc, [_collect(cell, 1) for cell in acc])

    def scale(self, k: CoefLike) -> "Series":
        p = _as_poly(k)
        if p.is_zero():
            return Series.zero(self.n, self.trunc)
        if p.is_constant():
            k = p.terms[()]
            return _raw(self.n, self.trunc, {m: c.scale(k) for m, c in self.terms.items()})
        return _raw(self.n, self.trunc, {m: c * p for m, c in self.terms.items()})

    def pow_trunc(self, k: int) -> "Series":
        """self^k, truncated.

        With a nonzero numeric constant term c0, F = self^k satisfies
        self * E(F) = k * F * E(self) for the Euler operator E, which acts on
        the degree-d part as multiplication by d.  Hence
        d c0 F_d = sum_{j>=1} ((k+1) j - d) self_j F_{d-j}: one pass instead
        of repeated squaring (J.C.P. Miller; Knuth, TAOCP 2, 4.7).  It runs
        on (D self)^k, D the common denominator of the coefficients, whose
        coefficients are integers, so every division in it is exact and
        stays on int; the result is divided by D^k once at the end.  This is
        the only power path for a unit constant term: `certify_exact`
        compares through degree deg det B + deg P whatever k is, so its
        powers stay short.  self^1 is self.
        """
        if k < 0:
            raise ValueError("negative powers are not defined for Series")
        if k == 1:
            return self
        c0 = self.constant_term()
        if k > 1 and c0.is_constant() and not c0.is_zero():
            D = lcm(*(v.denominator for c in self.terms.values() for v in c.terms.values()))
            f = self if D == 1 else self.scale(D)
            c = c0.terms[()] * D
            F = _degree_recurrence(f, CoefPoly.const(c ** k), lambda j, d: (k + 1) * j - d, lambda d: d * c)
            return F if D == 1 else F.scale(Fraction(1, D ** k))
        result = Series.one(self.n, self.trunc)
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def shift_monomial(self, m: MultiIndex) -> "Series":
        """Multiply by the monomial x^m, dropping overflowed terms."""
        m = validate_multiindex(m, self.n)
        d = sum(m)
        out = {}
        for mm, c in self.terms.items():
            if sum(mm) + d <= self.trunc:
                out[tuple(a + b for a, b in zip(mm, m))] = c
        return _raw(self.n, self.trunc, out)

    def rescale_vars(self, factors) -> "Series":
        """Substitute x_alpha -> factors[alpha] * x_alpha (exact rationals)."""
        factors = [Fraction(f) for f in factors]
        if len(factors) != self.n:
            raise ValueError("need one scale factor per variable")
        out = {}
        for m, c in self.terms.items():
            k = Fraction(1)
            for e, f in zip(m, factors):
                k *= f ** e
            out[m] = c * k
        return _raw(self.n, self.trunc, out)

    def substitute(self, binding: Mapping[str, CoefLike]) -> "Series":
        """Substitute unknowns in every coefficient."""
        binding = {k: _as_poly(v) for k, v in binding.items()}
        out = {}
        for m, c in self.terms.items():
            p = c.substitute(binding)
            if not p.is_zero():
                out[m] = p
        return _raw(self.n, self.trunc, out)

    def truncate(self, new_trunc: int) -> "Series":
        """Restriction to a smaller truncation degree (exact, never a widening)."""
        if new_trunc > self.trunc:
            raise ValueError("cannot widen a truncated series")
        return Series(self.n, new_trunc, {m: c for m, c in self.terms.items() if sum(m) <= new_trunc})

    def __eq__(self, other) -> bool:
        if not isinstance(other, Series):
            return NotImplemented
        return self.n == other.n and self.trunc == other.trunc and self.terms == other.terms

    def __hash__(self):
        return hash((self.n, self.trunc, frozenset(self.terms.items())))

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for m, c in self.sorted_terms():
            xs = "*".join(
                f"x{i + 1}" if e == 1 else f"x{i + 1}^{e}" for i, e in enumerate(m) if e
            )
            cs = repr(c)
            if len(c.terms) > 1:
                cs = f"({cs})"
            parts.append(f"{cs}*{xs}" if xs else cs)
        return " + ".join(parts)


def _raw(n: int, trunc: int, terms: Dict[MultiIndex, CoefPoly]) -> Series:
    s = Series.__new__(Series)
    s.n = n
    s.trunc = trunc
    s.terms = terms
    return s


Part = List[Tuple[int, dict]]
Parts = List[Part]


def _pack(m: MultiIndex, base: int) -> int:
    """The key sum_i m_i base^i of the monomial x^m."""
    k = 0
    for e in reversed(m):
        k = k * base + e
    return k


def _unpack(k: int, n: int, base: int) -> MultiIndex:
    m = []
    for _ in range(n):
        k, e = divmod(k, base)
        m.append(e)
    return tuple(m)


def _poly(terms: dict) -> CoefPoly:
    p = CoefPoly.__new__(CoefPoly)
    p.terms = terms
    return p


def _homogeneous_parts(terms: Mapping[MultiIndex, CoefPoly], cap: int, trunc: int) -> Parts:
    """The terms of degree <= cap as (key, term dict) pairs packed for
    truncation trunc (base trunc + 1), grouped by total degree 0..cap: one
    pass, no sort."""
    base = trunc + 1
    parts: Parts = [[] for _ in range(cap + 1)]
    for m, c in terms.items():
        d = sum(m)
        if d <= cap:
            parts[d].append((_pack(m, base), c.terms))
    return parts


def _from_parts(n: int, trunc: int, parts: Parts) -> Series:
    """The Series of parts packed for truncation trunc, its terms in order
    of degree."""
    base = trunc + 1
    return _raw(n, trunc, {_unpack(k, n, base): _poly(t) for part in parts for k, t in part})


def _add_product(acc: Dict[int, dict], left: Part, right: Part, factor: int = 1) -> None:
    """acc[k1 + k2] += factor * t1 * t2 over every pair of a packed left
    term (k1, t1) and right term (k2, t2).

    Each cell keeps its sums per unknown-monomial as plain numbers, so a
    Cauchy product builds one CoefPoly per x-monomial, not two per pair of
    terms.  A constant left coefficient, the only kind in numeric series,
    multiplies the right term dict as one number.
    """
    for k1, t1 in left:
        if len(t1) == 1 and () in t1:
            a = factor * t1[()]
            for k2, t2 in right:
                k = k1 + k2
                cell = acc.get(k)
                if cell is None:
                    acc[k] = {u: a * b for u, b in t2.items()}
                else:
                    for u, b in t2.items():
                        cell[u] = cell.get(u, 0) + a * b
            continue
        items = t1.items() if factor == 1 else [(u, factor * a) for u, a in t1.items()]
        for k2, t2 in right:
            k = k1 + k2
            cell = acc.get(k)
            if cell is None:
                cell = acc[k] = {}
            for u1, a in items:
                for u2, b in t2.items():
                    u = _umono_mul(u1, u2) if u1 and u2 else (u1 or u2)
                    cell[u] = cell.get(u, 0) + a * b


def _collect(acc: Dict[int, dict], q: RationalLike) -> Part:
    """The nonzero cells of acc, each divided by q, as a packed part."""
    out: Part = []
    for k, cell in acc.items():
        if q == 1:
            terms = {u: v for u, v in cell.items() if v}
        else:
            terms = {u: exact_quotient(v, q) for u, v in cell.items() if v}
        if terms:
            out.append((k, terms))
    return out


def _add_graded_product(acc: List[Dict[int, dict]], left: Parts, right: Parts, cap: int, factor: int = 1) -> None:
    """acc[d] += factor * left * right over the pairs of total degree
    d <= cap, for `_homogeneous_parts` lists packed for one truncation
    (keys sum_i m_i B^i, B = trunc + 1) and acc holding one dict per degree
    0..cap.

    A product of degree <= cap <= B - 1 has every exponent below B, so the
    sum of the two keys is the key of the product monomial: no digit
    carries.
    """
    for d1 in range(min(cap, len(left) - 1) + 1):
        if left[d1]:
            for d2 in range(min(cap - d1, len(right) - 1) + 1):
                if right[d2]:
                    _add_product(acc[d1 + d2], left[d1], right[d2], factor)


def _degree_recurrence(
    f: Series,
    g0: CoefPoly,
    weight: Callable[[int, int], int],
    divisor: Callable[[int], RationalLike],
    plus: Optional[Series] = None,
) -> Series:
    """The series G with G_0 = g0 and, for d = 1..trunc,

        G_d = plus_d + (sum_{j=1..d} weight(j, d) f_j G_{d-j}) / divisor(d),

    f_j, G_d and plus_d being the homogeneous parts of total degree j and d.
    One pass of |f| x |G| coefficient products, on packed parts.
    """
    n, trunc = f.n, f.trunc
    f_parts = _homogeneous_parts(f.terms, trunc, trunc)
    plus_parts = _homogeneous_parts(plus.terms, trunc, trunc) if plus is not None else None
    g_parts: Parts = [[] if g0.is_zero() else [(0, g0.terms)]]
    for d in range(1, trunc + 1):
        acc: Dict[int, dict] = {}
        for j in range(1, d + 1):
            w = weight(j, d)
            if w and f_parts[j] and g_parts[d - j]:
                _add_product(acc, f_parts[j], g_parts[d - j], w)
        q = divisor(d)
        if plus_parts is not None:
            _add_product(acc, [(0, {(): q})], plus_parts[d])
        g_parts.append(_collect(acc, q))
    return _from_parts(n, trunc, g_parts)


# ---------------------------------------------------------------------------
# Named operations
# ---------------------------------------------------------------------------


def _require_zero_constant(u: Series, op: str):
    if not u.constant_term().is_zero():
        raise ValueError(f"{op} requires a series with zero constant term")


def log1p_numerator(u: Series) -> Tuple[int, Series]:
    """(N, N log(1 + u)) with N = lcm(1..trunc); u must have zero constant term.

    From (1 + u) E(L) = E(u) for the Euler operator E:
    d L_d = d u_d - sum_{0<j<d} (d - j) u_j L_{d-j}, run on N L.  L_d has
    denominators dividing lcm(1..d) when u has integer coefficients, so then
    every division in it stays on int and N L is integral.
    """
    _require_zero_constant(u, "series_log1p")
    N = lcm(*range(1, u.trunc + 1))
    return N, _degree_recurrence(u, CoefPoly(), lambda j, d: j - d, lambda d: d, plus=u.scale(N))


def series_log1p(u: Series) -> Series:
    """L = log(1 + u), truncated; u must have zero constant term.

    One scale of `log1p_numerator`.
    """
    N, NL = log1p_numerator(u)
    return NL.scale(Fraction(1, N))


def series_exp(u: Series) -> Series:
    """X = exp(u), truncated; u must have zero constant term.

    From E(X) = X E(u) for the Euler operator E:
    d X_d = sum_{j>=1} j u_j X_{d-j}.
    """
    _require_zero_constant(u, "series_exp")
    return _degree_recurrence(u, CoefPoly.const(1), lambda j, d: j, lambda d: d)


def series_diff(f: Series, alpha: int) -> Series:
    """Formal partial derivative with respect to x_alpha (1-based)."""
    if not 1 <= alpha <= f.n:
        raise ValueError(f"variable index {alpha} out of range 1..{f.n}")
    i = alpha - 1
    out = {}
    for m, c in f.terms.items():
        e = m[i]
        if e:
            mm = m[:i] + (e - 1,) + m[i + 1:]
            prev = out.get(mm)
            p = c.scale(e)
            out[mm] = p if prev is None else prev + p
    return _raw(f.n, f.trunc, {m: c for m, c in out.items() if not c.is_zero()})
