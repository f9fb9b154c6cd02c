"""Exact coefficient arithmetic: multi-indices, symbolic unknowns, sparse polynomials.

Everything downstream (series, curvature, constraint solving) works over
`CoefPoly`, a sparse polynomial in named unknowns with exact rational
coefficients.  Numeric data is just the constant-polynomial special case, so
a single code path serves both verification and symbolic constraint
generation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping, Optional, Tuple, Union

# ---------------------------------------------------------------------------
# Multi-indices
#
# A multi-index is a plain tuple of nonnegative ints of length n (exponents of
# a monomial in x = (|z_1|^2, ..., |z_n|^2)).  The graded-lex key below is the
# single total order used for all deterministic iteration and reporting.
# ---------------------------------------------------------------------------

MultiIndex = Tuple[int, ...]


def mi_degree(m: MultiIndex) -> int:
    return sum(m)


def grlex_key(m: MultiIndex):
    """Total order on multi-indices: by total degree, then lexicographic."""
    return (sum(m), m)


def validate_multiindex(m, n: int) -> MultiIndex:
    m = tuple(m)
    if len(m) != n:
        raise ValueError(f"multi-index {m} has length {len(m)}, expected {n}")
    if any((not isinstance(e, int)) or e < 0 for e in m):
        raise ValueError(f"multi-index {m} must consist of nonnegative integers")
    return m


def monomials_of_degree(n: int, d: int) -> Iterable[MultiIndex]:
    """All multi-indices of length n with total degree exactly d, grlex order."""
    if n == 1:
        yield (d,)
        return
    for first in range(d + 1):
        for rest in monomials_of_degree(n - 1, d - first):
            yield (first,) + rest


def monomials_up_to(n: int, d: int) -> Iterable[MultiIndex]:
    for deg in range(d + 1):
        yield from monomials_of_degree(n, deg)


# ---------------------------------------------------------------------------
# Unknowns
# ---------------------------------------------------------------------------

EINSTEIN_NAME = "lambda"


@dataclass(frozen=True)
class Unknown:
    """A symbolic unknown: a support coefficient or the Einstein constant."""

    name: str
    kind: str  # "support" | "einstein"
    index: Optional[MultiIndex] = None

    def __post_init__(self):
        if self.kind not in ("support", "einstein"):
            raise ValueError(f"bad unknown kind {self.kind!r}")
        if self.kind == "support" and self.index is None:
            raise ValueError("support unknowns must carry their multi-index")


def support_unknown(m: MultiIndex) -> Unknown:
    return Unknown("a(" + ",".join(map(str, m)) + ")", "support", tuple(m))


EINSTEIN = Unknown(EINSTEIN_NAME, "einstein", None)


# ---------------------------------------------------------------------------
# Sparse polynomials in unknowns
#
# A monomial in unknowns is a tuple of (name, exponent) pairs sorted by name;
# () is the constant monomial.  Terms map monomials to nonzero exact
# rationals: a Python int when the value is integral, a Fraction otherwise.
# Potentials and determinants have integer coefficients, and int arithmetic
# is several times cheaper than Fraction arithmetic.  Equality and hashing
# agree between the two types, so a sum or product may keep a Fraction whose
# denominator is 1; `const`, `scale` and `normalized` return ints where they
# can, which keeps integral data on int.
# ---------------------------------------------------------------------------

UMono = Tuple[Tuple[str, int], ...]

RationalLike = Union[Fraction, int]

_ZERO = 0
_ONE = 1


def exact_rational(value) -> RationalLike:
    """value as an int when integral, else as a Fraction in lowest terms."""
    if type(value) is int:
        return value
    value = Fraction(value)
    return value.numerator if value.denominator == 1 else value


def exact_quotient(a: RationalLike, b: RationalLike) -> RationalLike:
    """a / b for b != 0, as an int when integral."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        if not r:
            return q
    return exact_rational(Fraction(a, b))


def _umono_mul(a: UMono, b: UMono) -> UMono:
    if not a:
        return b
    if not b:
        return a
    merged = dict(a)
    for name, e in b:
        merged[name] = merged.get(name, 0) + e
    return tuple(sorted(merged.items()))


def _terms_mul(a: dict, b: dict) -> dict:
    """The product of two term dicts, zero coefficients dropped."""
    out: dict = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = _umono_mul(m1, m2)
            out[m] = out.get(m, _ZERO) + c1 * c2
    return {m: c for m, c in out.items() if c}


def _umono_key(mono: UMono):
    return (sum(e for _, e in mono), mono)


class CoefPoly:
    """Sparse polynomial over the rationals in named unknowns.

    Immutable by convention; no zero coefficients are stored.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Optional[Mapping[UMono, Fraction]] = None):
        if terms:
            self.terms = {m: c for m, c in terms.items() if c}
        else:
            self.terms = {}

    # -- constructors -------------------------------------------------------

    @staticmethod
    def const(value: RationalLike) -> "CoefPoly":
        value = exact_rational(value)
        return CoefPoly({(): value}) if value else CoefPoly()

    @staticmethod
    def var(name: str) -> "CoefPoly":
        return CoefPoly({((name, 1),): _ONE})

    # -- predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and () in self.terms)

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError(f"not a constant polynomial: {self}")
        return Fraction(self.terms.get((), _ZERO))

    def unknowns(self) -> set:
        out = set()
        for mono in self.terms:
            for name, _ in mono:
                out.add(name)
        return out

    def total_degree(self) -> int:
        return max((sum(e for _, e in m) for m in self.terms), default=0)

    def degree_in(self, name: str) -> int:
        deg = 0
        for mono in self.terms:
            for nm, e in mono:
                if nm == name and e > deg:
                    deg = e
        return deg

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "CoefPoly") -> "CoefPoly":
        if not other.terms:
            return self
        if not self.terms:
            return other
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m, _ZERO) + c
            if s:
                out[m] = s
            else:
                out.pop(m, None)
        res = CoefPoly.__new__(CoefPoly)
        res.terms = out
        return res

    def __neg__(self) -> "CoefPoly":
        res = CoefPoly.__new__(CoefPoly)
        res.terms = {m: -c for m, c in self.terms.items()}
        return res

    def __sub__(self, other: "CoefPoly") -> "CoefPoly":
        return self + (-other)

    def __mul__(self, other) -> "CoefPoly":
        if not isinstance(other, CoefPoly):
            return self.scale(other)
        res = CoefPoly.__new__(CoefPoly)
        res.terms = _terms_mul(self.terms, other.terms)
        return res

    __rmul__ = __mul__

    def scale(self, k: RationalLike) -> "CoefPoly":
        k = exact_rational(k)
        if not k:
            return CoefPoly()
        terms = {}
        for m, c in self.terms.items():
            v = c * k
            terms[m] = v.numerator if v.denominator == 1 else v
        res = CoefPoly.__new__(CoefPoly)
        res.terms = terms
        return res

    def __pow__(self, k: int) -> "CoefPoly":
        if k < 0:
            raise ValueError("negative powers are not defined for CoefPoly")
        result = CoefPoly.const(1)
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    # -- structure ----------------------------------------------------------

    def by_power(self, name: str) -> dict:
        """Split into coefficients of powers of one unknown: {k: CoefPoly}."""
        buckets: dict = {}
        for mono, c in self.terms.items():
            k = 0
            rest = []
            for nm, e in mono:
                if nm == name:
                    k = e
                else:
                    rest.append((nm, e))
            buckets.setdefault(k, {})[tuple(rest)] = c
        return {k: CoefPoly(t) for k, t in buckets.items()}

    def substitute(self, binding: Mapping[str, "CoefPoly"]) -> "CoefPoly":
        """Replace unknowns by polynomials (values may be CoefPoly/Fraction/int).

        Each term c * (unbound part) * prod(value^e) is expanded straight into
        one accumulator; each power value^e is computed once per call.
        """
        if not binding:
            return self
        powers: dict = {}
        out: dict = {}
        for mono, c in self.terms.items():
            kept = []
            part = None  # {monomial: coefficient} of the bound factors
            for name, e in mono:
                if name not in binding:
                    kept.append((name, e))
                    continue
                power = powers.get((name, e))
                if power is None:
                    val = binding[name]
                    if not isinstance(val, CoefPoly):
                        val = CoefPoly.const(val)
                    power = powers[(name, e)] = (val ** e).terms
                part = power if part is None else _terms_mul(part, power)
                if not part:
                    break
            kept = tuple(kept)
            if part is None:
                out[kept] = out.get(kept, _ZERO) + c
                continue
            for u, v in part.items():
                u = _umono_mul(kept, u)
                out[u] = out.get(u, _ZERO) + c * v
        res = CoefPoly.__new__(CoefPoly)
        res.terms = {u: v for u, v in out.items() if v}
        return res

    def evaluate(self, assignment: Mapping[str, RationalLike]) -> Fraction:
        total = Fraction(0)
        for mono, c in self.terms.items():
            v = c
            for name, e in mono:
                v *= Fraction(assignment[name]) ** e
            total += v
        return total

    def normalized(self) -> "CoefPoly":
        """Divide by the content; make the leading (grlex-max) coefficient positive.

        Gives a canonical representative of the equation p = 0 up to an
        overall nonzero rational factor.
        """
        if not self.terms:
            return self
        ints = self.terms
        if not all(type(c) is int for c in ints.values()):
            denom_lcm = lcm(*(c.denominator for c in ints.values()))
            ints = {m: c.numerator * (denom_lcm // c.denominator) for m, c in ints.items()}
        content = gcd(*ints.values())
        if ints[max(ints, key=_umono_key)] < 0:
            content = -content
        if content == 1 and ints is self.terms:
            return self
        res = CoefPoly.__new__(CoefPoly)
        res.terms = {m: v // content for m, v in ints.items()}
        return res

    def proportional_to(self, other: "CoefPoly") -> bool:
        """True if self = r * other for some nonzero rational r (both nonzero)."""
        if self.is_zero() or other.is_zero():
            return self.is_zero() and other.is_zero()
        return self.normalized() == other.normalized()

    def common_monomial(self) -> UMono:
        """GCD of the unknown-monomials of all terms ((), if any term is constant)."""
        common: Optional[dict] = None
        for mono in self.terms:
            d = dict(mono)
            if common is None:
                common = d
            else:
                common = {nm: min(e, d[nm]) for nm, e in common.items() if nm in d and d[nm]}
            if not common:
                return ()
        return tuple(sorted((common or {}).items()))

    def divide_monomial(self, mono: UMono) -> "CoefPoly":
        drop = dict(mono)
        out = {}
        for m, c in self.terms.items():
            rest = tuple(sorted((nm, e - drop.get(nm, 0)) for nm, e in m if e - drop.get(nm, 0) > 0))
            out[rest] = c
        return CoefPoly(out)

    # -- comparisons / display ----------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            return self.is_constant() and self.constant_value() == other
        if not isinstance(other, CoefPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: _umono_key(kv[0]))

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for mono, c in self.sorted_terms():
            names = "*".join(nm if e == 1 else f"{nm}^{e}" for nm, e in mono)
            if not names:
                parts.append(str(c))
            elif c == 1:
                parts.append(names)
            elif c == -1:
                parts.append(f"-{names}")
            else:
                parts.append(f"{c}*{names}")
        return " + ".join(parts).replace("+ -", "- ")


def format_rational(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}" if value.denominator != 1 else str(value.numerator)


def fraction_terms_repr(poly: CoefPoly) -> str:
    """repr([(u, Fraction(v)) for u, v in sorted(poly.terms.items())]), byte
    for byte, without building the Fractions.

    Equation sort keys and certificate hashes read it, so it must not depend
    on whether a coefficient is stored as int or as Fraction.
    """
    return "[" + ", ".join(
        [f"({u!r}, Fraction({v.numerator}, {v.denominator}))" for u, v in sorted(poly.terms.items())]
    ) + "]"


def parse_rational(text: str) -> Fraction:
    """Parse an exact "p/q" or integer string.  Decimal notation is rejected."""
    if not isinstance(text, str):
        raise ValueError(f"rational must be a string, got {type(text).__name__}")
    s = text.strip()
    if "." in s or "e" in s.lower():
        raise ValueError(f"decimal notation is not exact, rejected: {text!r}")
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"cannot parse rational {text!r}: {exc}") from None
