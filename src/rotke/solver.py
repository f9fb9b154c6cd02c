"""Candidate enumeration, constraint extraction, rational solving, and the
classification sweep.

Constraint systems come from the coefficients of the Monge-Ampere log
residual with a symbolic Einstein constant.  Solving is exact over the
rationals: linear elimination (Einstein constant first), positivity-based
pruning, linear-span reduction, triangular substitution, and the rational
root theorem on univariate remnants.  Anything still multivariate-nonlinear
is surfaced as UNRESOLVED, never silently dropped.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations
from math import comb, gcd
from operator import itemgetter
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from .algebra import (
    EINSTEIN,
    EINSTEIN_NAME,
    CoefPoly,
    MultiIndex,
    Unknown,
    _umono_key,
    exact_quotient,
    fraction_terms_repr,
    grlex_key,
    monomials_of_degree,
)
from .geometry import (
    MAX_DIMENSION,
    EinsteinCandidate,
    PotentialSpec,
    build_potential,
    certify_exact,
    degree_bound_lambda,
    lambda_in_lowest_terms,
    ma_log_residual_numerator,
)
from .series import Series

_MAX_SEARCH_DEPTH = 64


class EngineError(RuntimeError):
    """Internal inconsistency (e.g. classification cross-check failure)."""


# ---------------------------------------------------------------------------
# Constraint systems
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConstraintSystem:
    """Equations in the unknowns, each = 0, with the unknowns of `positivity`
    constrained to be > 0."""

    unknowns: Tuple[Unknown, ...]
    equations: Tuple[CoefPoly, ...]
    positivity: frozenset
    residual_monomials: Tuple[MultiIndex, ...]  # provenance, one per equation


@dataclass(frozen=True)
class SolveOutcome:
    status: str  # "SOLVED" | "INFEASIBLE" | "UNRESOLVED"
    solutions: Tuple[Tuple[Tuple[str, Fraction], ...], ...]
    witness: Optional[CoefPoly] = None
    remnants: Tuple[Tuple[CoefPoly, ...], ...] = ()

    def solution_dicts(self) -> List[Dict[str, Fraction]]:
        return [dict(sol) for sol in self.solutions]


def min_truncation(spec: PotentialSpec) -> int:
    """The least trunc `extract_constraints` accepts: max(deg_x P - 1, 1)."""
    return max(spec.max_degree() - 1, 1)


def extract_constraints(spec: PotentialSpec, trunc: int) -> ConstraintSystem:
    """One equation per x-monomial coefficient of the log residual R with a
    symbolic Einstein constant; ordered by (degree, graded-lex monomial).

    The coefficients are read off the integral multiple q R of
    `ma_log_residual_numerator` (q = 2 lcm(1..trunc)), not off R itself.

    Any trunc >= max(d - 1, 1), d = deg_x P, is allowed.  A support monomial
    of degree d first enters R at degree d - 1, linearly (through Q_a =
    dP/dx_a), so below that some unknowns would be missing.  P is built
    exactly and B's rows are truncated only after differentiating (see
    `det_numerator`), so the equations at trunc t are exactly those of
    degree <= t at any larger truncation: an INFEASIBLE verdict at t holds
    for every larger one.
    """
    d = spec.max_degree()
    if trunc < min_truncation(spec):
        raise ValueError(f"truncation {trunc} is below {min_truncation(spec)}, where the degree-{d} support first enters")
    P = build_potential(spec, max(trunc, d))
    _, qR = ma_log_residual_numerator(P, CoefPoly.var(EINSTEIN_NAME), trunc)
    terms = qR.sorted_terms()
    unknowns = tuple(spec.unknowns()) + (EINSTEIN,)
    positivity = frozenset(u.name for u in unknowns)
    return ConstraintSystem(unknowns, tuple(coef for _, coef in terms), positivity, tuple(m for m, _ in terms))


def _generic_residual(n: int, d: int) -> Tuple[Tuple[MultiIndex, ...], Dict[Tuple[str, ...], Dict[int, dict]]]:
    """The t = d - 1 residual of the generic support of (n, d), grouped for
    `GenericPrescreen`.

    The generic support holds every monomial of degree 2..d; its residual is
    built through `ma_log_residual_numerator` exactly as `extract_constraints`
    builds a support's.  Returns the residual monomials in grlex order and,
    per tuple of support unknowns (by name, sorted, lambda left out), the
    terms that hold exactly those unknowns, keyed by the index of their
    residual monomial.
    """
    spec = PotentialSpec.symbolic(n, [m for deg in range(2, d + 1) for m in monomials_of_degree(n, deg)])
    _, qR = ma_log_residual_numerator(build_potential(spec, d), CoefPoly.var(EINSTEIN_NAME), d - 1)
    monos = []
    groups: Dict[Tuple[str, ...], Dict[int, dict]] = {}
    for idx, (m, coef) in enumerate(qR.sorted_terms()):
        monos.append(m)
        for u, c in coef.terms.items():
            key = tuple(nm for nm, _ in u if nm != EINSTEIN_NAME)
            groups.setdefault(key, {}).setdefault(idx, {})[u] = c
    return tuple(monos), groups


class GenericPrescreen:
    """`extract_constraints(spec, d - 1)` for nonempty supports, d = deg_x P,
    read off one generic residual per (n, d).

    Setting an absent unknown to zero deletes exactly the terms that hold
    it, so a support's residual is the part of the generic residual whose
    support unknowns all belong to the support.  Its equation at x^m merges
    the groups of `_generic_residual` at m over the subsets of its unknowns;
    the groups hold disjoint terms, so the merge is a union, and an equation
    with no group vanishes and is dropped.  This gives the same system as
    `extract_constraints`: the same equations in the same order, with the
    same residual monomials.

    The generic residuals of one dimension are kept at a time, since a
    sweep hands out its tasks ordered by n: a new n drops them.
    """

    def __init__(self):
        self.n: Optional[int] = None
        self.generic: Dict[int, tuple] = {}

    def system(self, spec: PotentialSpec) -> ConstraintSystem:
        d = spec.max_degree()
        if spec.n != self.n:
            self.n, self.generic = spec.n, {}
        cached = self.generic.get(d)
        if cached is None:
            monos, groups = _generic_residual(spec.n, d)
            cached = self.generic[d] = (monos, groups, max(map(len, groups)))
        monos, groups, widest = cached
        support_unknowns = spec.unknowns()
        unknowns = tuple(support_unknowns) + (EINSTEIN,)
        names = sorted(u.name for u in support_unknowns)
        merged: Dict[int, dict] = {}
        for r in range(min(len(names), widest) + 1):
            for key in combinations(names, r):
                for idx, terms in groups.get(key, {}).items():
                    merged.setdefault(idx, {}).update(terms)
        order = sorted(merged)
        equations = []
        for idx in order:
            eq = CoefPoly.__new__(CoefPoly)
            eq.terms = merged[idx]
            equations.append(eq)
        positivity = frozenset(u.name for u in unknowns)
        return ConstraintSystem(unknowns, tuple(equations), positivity, tuple(monos[idx] for idx in order))


# ---------------------------------------------------------------------------
# Univariate helpers (exact rational coefficients)
# ---------------------------------------------------------------------------


def _as_uni(poly: CoefPoly, name: str) -> Optional[List[Fraction]]:
    """Coefficient list (ascending powers) if poly is univariate in name."""
    coeffs: Dict[int, Fraction] = {}
    for mono, c in poly.terms.items():
        if len(mono) > 1 or (mono and mono[0][0] != name):
            return None
        coeffs[mono[0][1] if mono else 0] = Fraction(c)
    deg = max(coeffs)
    return [coeffs.get(i, Fraction(0)) for i in range(deg + 1)]


def _uni_trim(c: List[Fraction]) -> List[Fraction]:
    while c and not c[-1]:
        c.pop()
    return c


def _uni_mod(a: List[Fraction], b: List[Fraction]) -> List[Fraction]:
    a = list(a)
    while len(a) >= len(b) > 0 and _uni_trim(a):
        if len(a) < len(b):
            break
        factor = a[-1] / b[-1]
        shift = len(a) - len(b)
        for i, bc in enumerate(b):
            a[shift + i] -= factor * bc
        a.pop()
        _uni_trim(a)
    return a


def _uni_gcd(a: List[Fraction], b: List[Fraction]) -> List[Fraction]:
    a, b = _uni_trim(list(a)), _uni_trim(list(b))
    while b:
        a, b = b, _uni_mod(a, b)
        _uni_trim(b)
    if a:
        lead = a[-1]
        a = [c / lead for c in a]
    return a


# Largest |constant| and |leading coefficient|, in the integral form of a
# univariate equation, that the rational-root search takes on.  Its
# candidates p/q pair the divisors of the two, found by trial division up to
# the square root, so below the cap each costs at most 1,000 divisions and has
# at most 240 divisors (720720).  On one core of a 2-core x86-64 sandbox
# (Python 3.11) the worst case, both coefficients 720720 at degree 6, takes
# 0.4 s, while unbounded trial division took 0.9 s at 10^14 and grows with
# the square root.  The largest met in the pinned sweeps and in dims 1..6 at
# deg-cap 3 is 12.  Above the cap the branch is left as a remnant, so the
# outcome is UNRESOLVED and names the equations of the branch.
MAX_ROOT_COEFFICIENT = 10**6


def _divisors(v: int) -> List[int]:
    v = abs(v)
    out = set()
    d = 1
    while d * d <= v:
        if v % d == 0:
            out.add(d)
            out.add(v // d)
        d += 1
    return sorted(out)


def _uni_eval(coeffs: Sequence[Fraction], x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _rational_roots(coeffs: List[Fraction]) -> Optional[Tuple[List[Fraction], List[Fraction]]]:
    """All rational roots, plus the deflated (root-free) remainder polynomial;
    None when, once the roots at zero are divided out and the denominators
    cleared, the constant or the leading coefficient exceeds
    MAX_ROOT_COEFFICIENT in absolute value."""
    coeffs = _uni_trim(list(coeffs))
    if not coeffs:
        raise ValueError("zero polynomial has no root set")
    roots: List[Fraction] = []
    # root at zero
    while coeffs and not coeffs[0]:
        if not roots or roots[-1] != 0:
            roots.append(Fraction(0))
        coeffs = coeffs[1:]
    if len(coeffs) <= 1:
        return sorted(set(roots)), coeffs
    denom_lcm = 1
    for c in coeffs:
        denom_lcm = denom_lcm * c.denominator // gcd(denom_lcm, c.denominator)
    ints = [int(c * denom_lcm) for c in coeffs]
    if max(abs(ints[0]), abs(ints[-1])) > MAX_ROOT_COEFFICIENT:
        return None
    candidates = set()
    for p in _divisors(ints[0]):
        for q in _divisors(ints[-1]):
            candidates.add(Fraction(p, q))
            candidates.add(Fraction(-p, q))
    for r in sorted(candidates):
        while len(coeffs) > 1 and _uni_eval(coeffs, r) == 0:
            roots.append(r)
            # synthetic division by (x - r)
            quotient = [Fraction(0)] * (len(coeffs) - 1)
            carry = coeffs[-1]
            for i in range(len(coeffs) - 2, -1, -1):
                quotient[i] = carry
                carry = coeffs[i] + carry * r
            coeffs = _uni_trim(quotient)
    return sorted(set(roots)), coeffs


def _descartes_positive(coeffs: Sequence[Fraction]) -> int:
    """Upper bound (sign variations) on the number of positive real roots."""
    signs = [1 if c > 0 else -1 for c in coeffs if c]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _uni_to_poly(name: str, coeffs: Sequence[Fraction]) -> CoefPoly:
    terms = {(() if i == 0 else ((name, i),)): c for i, c in enumerate(coeffs) if c}
    return CoefPoly(terms).normalized()


# ---------------------------------------------------------------------------
# The solving pipeline
# ---------------------------------------------------------------------------


def _eq_sort_key(eq: CoefPoly):
    return (len(eq.terms), eq.total_degree(), fraction_terms_repr(eq))


def _sorted_equations(eqs: Iterable[CoefPoly]) -> List[CoefPoly]:
    """Distinct equations sorted by `_eq_sort_key`, whose `repr` part is
    built only for equations that tie on (term count, degree)."""
    by_shape: Dict[Tuple[int, int], List[CoefPoly]] = {}
    for eq in eqs:
        by_shape.setdefault((len(eq.terms), eq.total_degree()), []).append(eq)
    out: List[CoefPoly] = []
    for shape in sorted(by_shape):
        group = by_shape[shape]
        if len(group) > 1:
            group.sort(key=fraction_terms_repr)
        out.extend(group)
    return out


def _linear_parts(eq: CoefPoly, name: str) -> Optional[Dict[int, CoefPoly]]:
    """eq.by_power(name) when name occurs to degree 1 with a constant coefficient."""
    if eq.degree_in(name) != 1:
        return None
    parts = eq.by_power(name)
    lin = parts.get(1)
    return parts if lin is not None and lin.is_constant() else None


class _Search:
    def __init__(self, system: ConstraintSystem):
        self.positivity: Set[str] = set(system.positivity)
        self.original = system.equations
        self.solutions: List[Tuple[Tuple[str, Fraction], ...]] = []
        self.witnesses: List[CoefPoly] = []
        self.remnants: List[Tuple[CoefPoly, ...]] = []
        self.all_names = [u.name for u in system.unknowns]

    # -- simplification ------------------------------------------------------

    def _clean(self, eqs: Iterable[CoefPoly]):
        """Strip monomial factors in positive unknowns, normalize, drop zeros
        and duplicates, and sort by `_eq_sort_key`; returns (equations,
        contradiction_witness).

        eqs is read lazily and in order, and the scan returns at the first
        equation it rejects: a nonzero constant, or c * u^k once the factors
        are stripped.  So after a linear step the equations behind the first
        contradiction are never substituted, and nothing is normalized until
        every equation has been read.  The witness is the first rejected
        equation, as in an eager scan in the same order.
        """
        kept = []
        for eq in eqs:
            if eq.is_zero():
                continue
            if eq.is_constant():
                return [], eq
            mono = tuple((nm, e) for nm, e in eq.common_monomial() if nm in self.positivity)
            if mono:
                stripped = eq.divide_monomial(mono)
                if stripped.is_constant():
                    # c * u^k = 0 with u > 0 contradicts positivity
                    return [], eq.normalized()
                eq = stripped
            kept.append(eq)
        return _sorted_equations({eq.normalized() for eq in kept}), None

    def _sign_infeasible(self, eq: CoefPoly) -> bool:
        """Positive combination of positive quantities cannot vanish."""
        if not eq.terms:
            return False
        if any(nm not in self.positivity for nm in eq.unknowns()):
            return False
        signs = {c > 0 for c in eq.terms.values()}
        return len(signs) == 1

    def _gauss(self, eqs: List[CoefPoly]) -> List[CoefPoly]:
        """Full Gauss-Jordan reduction treating unknown-monomials as
        independent coordinates.  Pure linear algebra over the span of the
        equations, so the solution set is unchanged; it routinely exposes
        combinations with strippable monomial factors."""
        basis: Dict[tuple, CoefPoly] = {}

        def reduce_by_basis(eq: CoefPoly) -> CoefPoly:
            changed = True
            while changed and not eq.is_zero():
                changed = False
                for mono in sorted(eq.terms, key=_umono_key, reverse=True):
                    pivot = basis.get(mono)
                    if pivot is not None:
                        eq = eq - pivot.scale(exact_quotient(eq.terms[mono], pivot.terms[mono]))
                        changed = True
                        break
            return eq

        for eq in eqs:
            eq = reduce_by_basis(eq)
            if eq.is_zero():
                continue
            lead = max(eq.terms, key=_umono_key)
            eq = eq.normalized()
            # back-reduce existing pivots against the new one
            for key in list(basis):
                row = basis[key]
                if lead in row.terms:
                    row = row - eq.scale(exact_quotient(row.terms[lead], eq.terms[lead]))
                    basis[key] = row
            basis[lead] = eq
        return [basis[k].normalized() for k in sorted(basis, key=_umono_key) if not basis[k].is_zero()]

    # -- leaf handling -------------------------------------------------------

    def _resolve(self, bindings: List[Tuple[str, CoefPoly]]):
        resolved: Dict[str, CoefPoly] = {}
        for name, expr in reversed(bindings):
            value = expr.substitute(resolved)
            if not value.is_constant():
                return None
            resolved[name] = value
        return {nm: p.constant_value() for nm, p in resolved.items()}

    def _leaf(self, bindings: List[Tuple[str, CoefPoly]], remnant: List[CoefPoly]):
        if remnant:
            self.remnants.append(tuple(remnant))
            return
        values = self._resolve(bindings)
        if values is None or set(values) != set(self.all_names):
            # a free unknown survived: an unexplored solution family
            self.remnants.append(tuple(CoefPoly.var(nm) for nm in self.all_names if values is None or nm not in values))
            return
        for nm in sorted(self.positivity):  # set order would let the hash seed pick the witness
            if values[nm] <= 0:
                self.witnesses.append(CoefPoly.var(nm) - CoefPoly.const(values[nm]))
                return
        for eq in self.original:
            if eq.evaluate(values) != 0:
                raise EngineError(f"solver produced a non-solution: {values} fails {eq}")
        self.solutions.append(tuple(sorted(values.items())))

    # -- main recursion -------------------------------------------------------

    def run(self, eqs: Iterable[CoefPoly], bindings: List[Tuple[str, CoefPoly]], depth: int = 0):
        """Decide the branch of eqs under bindings."""
        if depth > _MAX_SEARCH_DEPTH:
            self.remnants.append(tuple(eqs))
            return
        while True:
            eqs, contradiction = self._clean(eqs)
            if contradiction is not None:
                self.witnesses.append(contradiction)
                return
            if not eqs:
                self._leaf(bindings, [])
                return
            for eq in eqs:
                if self._sign_infeasible(eq):
                    self.witnesses.append(eq)
                    return
            step = self._linear_step(eqs)
            if step is not None:
                name, expr, rest = step
                if name in self.positivity and expr.is_constant() and expr.constant_value() <= 0:
                    self.witnesses.append(CoefPoly.var(name) - expr)
                    return
                bindings = bindings + [(name, expr)]
                binding = {name: expr}
                # read lazily by the next `_clean`, which may stop early
                eqs = (e.substitute(binding) for e in rest)
                continue
            reduced = self._gauss(eqs)
            if set(reduced) != set(eqs):
                eqs = reduced
                continue
            if self._univariate_step(eqs, bindings, depth):
                return
            self.remnants.append(tuple(eqs))
            return

    def _linear_step(self, eqs: List[CoefPoly]):
        """Find (unknown, expression, other equations) for an exact linear
        elimination: the unknown occurs to degree 1 with a constant coefficient.

        The Einstein constant goes first, from the first equation that allows
        it; otherwise the least eligible name of the first equation with one.
        `_clean` sorts the equations by term count, so these are the fewest
        terms."""
        choice = None
        for idx, eq in enumerate(eqs):
            names = eq.unknowns()
            if EINSTEIN_NAME in names:
                parts = _linear_parts(eq, EINSTEIN_NAME)
                if parts is not None:
                    choice = (idx, EINSTEIN_NAME, parts)
                    break
            if choice is None:
                for name in sorted(names - {EINSTEIN_NAME}):
                    parts = _linear_parts(eq, name)
                    if parts is not None:
                        choice = (idx, name, parts)
                        break
        if choice is None:
            return None
        idx, name, parts = choice
        c = parts[1].constant_value()
        expr = parts.get(0, CoefPoly()).scale(Fraction(-1) / c)
        rest = eqs[:idx] + eqs[idx + 1:]
        return name, expr, rest

    def _univariate_step(self, eqs: List[CoefPoly], bindings, depth: int) -> bool:
        """Branch over the rational roots of a univariate equation.  Returns
        True if a branch was taken (children handled recursively)."""
        groups: Dict[str, List[List[Fraction]]] = {}
        for eq in eqs:
            names = eq.unknowns()
            if len(names) == 1:
                name = next(iter(names))
                coeffs = _as_uni(eq, name)
                if coeffs is not None:
                    groups.setdefault(name, []).append(coeffs)
        if not groups:
            return False

        def gcd_for(name):
            polys = groups[name]
            g = polys[0]
            for p in polys[1:]:
                g = _uni_gcd(g, p)
                if len(g) == 1:
                    break
            return g

        gcds = {name: gcd_for(name) for name in groups}
        name = min(gcds, key=lambda nm: (len(gcds[nm]), nm))
        g = gcds[name]
        if len(g) == 1:
            # no common root: the univariate equations are incompatible
            self.witnesses.append(_uni_to_poly(name, groups[name][0]))
            return True
        found = _rational_roots(g)
        if found is None:
            # too large for the root search: the branch stays undecided
            self.remnants.append(tuple(eqs))
            return True
        roots, residue = found
        feasible = [r for r in roots if (r > 0 if name in self.positivity else True)]
        irrational_risk = len(residue) > 1 and _descartes_positive(residue) > 0
        for r in feasible:
            child = [e.substitute({name: CoefPoly.const(r)}) for e in eqs]
            self.run(child, bindings + [(name, CoefPoly.const(r))], depth + 1)
        if irrational_risk:
            self.remnants.append(tuple(eqs))
        elif not feasible:
            self.witnesses.append(_uni_to_poly(name, g))
        return True


def solve_system(system: ConstraintSystem) -> SolveOutcome:
    """Exact rational solving with positivity side-conditions.

    Status is UNRESOLVED whenever any branch could not be decided; INFEASIBLE
    outcomes carry a witness equation that contradicts positivity.

    The equations may come unnormalized, as the raw q R coefficients of
    `extract_constraints` do: the search normalizes each one it keeps
    (`CoefPoly.normalized` divides out the content and fixes the sign of the
    leading term), so a positive factor q leaves every equation unchanged.
    Only a nonzero constant is returned as it stands, and no extracted
    equation is one: each holds lambda through log P.
    """
    search = _Search(system)
    search.run(system.equations, [])
    solutions = tuple(sorted(set(search.solutions)))
    if search.remnants:
        return SolveOutcome("UNRESOLVED", solutions, None, tuple(search.remnants))
    if solutions:
        return SolveOutcome("SOLVED", solutions)
    witness = min(search.witnesses, key=_eq_sort_key) if search.witnesses else None
    return SolveOutcome("INFEASIBLE", (), witness)


# ---------------------------------------------------------------------------
# Support enumeration
# ---------------------------------------------------------------------------


def _permuters(n: int) -> List[Callable[[MultiIndex], MultiIndex]]:
    """One getter per variable permutation p; entry i of its image of m is m[p[i]]."""
    if n == 1:
        return [tuple]  # itemgetter(0) would return a scalar
    return [itemgetter(*p) for p in permutations(range(n))]


def _images(
    permuters: Sequence[Callable[[MultiIndex], MultiIndex]], support: Sequence[MultiIndex]
) -> Iterator[Tuple[MultiIndex, ...]]:
    """The sorted images of a support under each of `_permuters(n)`."""
    for get in permuters:
        yield tuple(sorted(map(get, support)))


def canonical_support(n: int, support: Iterable[MultiIndex]) -> Tuple[MultiIndex, ...]:
    """Lexicographically least representative under variable permutations."""
    return min(_images(_permuters(n), [tuple(m) for m in support]))


def enumerate_supports(n: int, k_max: int, deg_cap: int) -> List[PotentialSpec]:
    """All symbolic supports of size <= k_max with monomial degrees in
    [2, deg_cap], one canonical representative per variable-permutation
    orbit; ordered by size, then by the graded-lex keys of the monomials.

    Orderly generation (Read, Ann. Discrete Math. 2, 1978): a sorted support
    is canonical when no permutation gives a lex-smaller sorted image, and
    then so is the support minus its largest monomial (adding a monomial can
    only lower each order statistic of an image).  So the canonical supports
    of size k + 1 are the canonical extensions s + (m,), m > s[-1], of those
    of size k, and no orbit is ever stored.
    """
    if n < 1 or k_max < 0 or deg_cap < 2:
        raise ValueError("need n >= 1, k_max >= 0, deg_cap >= 2")
    monos = sorted(m for d in range(2, deg_cap + 1) for m in monomials_of_degree(n, d))
    permuters = _permuters(n)
    specs = [PotentialSpec(n, ())]
    level: List[Tuple[MultiIndex, ...]] = [()]
    for _ in range(k_max):
        extended = []
        for s in level:
            for m in monos[bisect_right(monos, s[-1]) if s else 0:]:
                t = s + (m,)
                if all(img >= t for img in _images(permuters, t)):
                    extended.append(t)
        level = extended
        for rep in sorted(level, key=lambda s: tuple(grlex_key(m) for m in s)):
            specs.append(PotentialSpec.symbolic(n, rep))
    return specs


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------

TAG_CPN_UNIT = "CPn_unit"
TAG_PRODUCT = "ProductOfLines"
TAG_UNKNOWN = "UNKNOWN"


def tag_cpn_scaled(q: int) -> str:
    return f"CPn_scaled({q})"


def classify(spec: PotentialSpec, lam: Fraction) -> str:
    """Match a certified candidate (lam > 0) against the model potentials.

    Returns one of CPn_unit, CPn_scaled(q), ProductOfLines, UNKNOWN.  The
    models are the products over the blocks b of a partition of the variables
    of (1 + s_b/q_b)^q_b, s_b the sum of the block's x, q_b = 2(|b| + 1)/lam:
    one block is CPn_scaled(q), two or more are ProductOfLines.  The
    partition is read off P: the coefficient of x_i x_j in such a model is
    (q_b - 1)/q_b < 1 when i and j share block b and exactly 1 otherwise.
    When those pairs do not partition the variables, or some q_b is not an
    integer, no model can match.  Nor can it when sum q_b != deg P, since the
    model's coefficients are positive and its degree is sum q_b.  Otherwise
    the one model is compared with P through degree deg P = max(deg P,
    sum q_b), where both are whole polynomials.  The match is cross-checked
    against the rational shape of the Einstein constant, and a disagreement
    is an engine bug, not a value.
    """
    lam = Fraction(lam)
    if lam <= 0:
        raise ValueError(f"Einstein constant must be positive, got {lam}")
    n = spec.n
    p_hulin, q_hulin = lambda_in_lowest_terms(lam)
    tag = TAG_UNKNOWN

    if not spec.support:
        tag = TAG_CPN_UNIT
    else:
        coef = dict(spec.support)
        cells = [
            tuple(j for j in range(n) if j == i or coef.get(tuple(int(k in (i, j)) for k in range(n)), 0) != 1)
            for i in range(n)
        ]
        blocks = sorted(set(cells))
        qs = [Fraction(2 * (len(block) + 1), lam) for block in blocks]
        d = spec.max_degree()
        if (
            all(cells[j] == cell for cell in cells for j in cell)
            and all(q.denominator == 1 for q in qs)
            and sum(qs) == d
        ):
            one = Series.one(n, d)
            model = one
            for block, q in zip(blocks, qs):
                base = one + Series(n, d, {tuple(int(j == i) for j in range(n)): 1 / q for i in block})
                model = model * base.pow_trunc(int(q))
            if build_potential(spec, d) == model:
                tag = tag_cpn_scaled(int(qs[0])) if len(blocks) == 1 else TAG_PRODUCT

    # Hulin shape shortcut as an independent cross-check
    if p_hulin == n + 1:
        expected = TAG_CPN_UNIT if q_hulin == 1 and not spec.support else tag_cpn_scaled(q_hulin)
        if tag not in (expected, TAG_CPN_UNIT):
            raise EngineError(
                f"classification disagreement: matched {tag}, Einstein constant shape demands {expected}"
            )
    if n == 2 and p_hulin == 2 and tag != TAG_PRODUCT:
        raise EngineError(
            f"classification disagreement: n = p = 2 demands {TAG_PRODUCT}, matched {tag}"
        )
    return tag


# ---------------------------------------------------------------------------
# Sweep
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepSolution:
    assignment: Tuple[Tuple[str, Fraction], ...]
    lam: Fraction
    tag: str
    certificate: str


@dataclass(frozen=True)
class SweepEntry:
    n: int
    k: int
    support: Tuple[MultiIndex, ...]
    status: str
    solutions: Tuple[SweepSolution, ...] = ()
    witness: Optional[str] = None
    note: str = ""

    def sort_key(self):
        return (self.n, self.k, tuple(grlex_key(m) for m in self.support))


@dataclass(frozen=True)
class ClassificationReport:
    dims: Tuple[int, int]
    k_max: int
    deg_cap: int
    trunc: int
    entries: Tuple[SweepEntry, ...]

    def counts(self) -> Dict[str, int]:
        out = {"SOLVED": 0, "INFEASIBLE": 0, "UNRESOLVED": 0, "SHORTCUT": 0}
        for e in self.entries:
            out[e.status] = out.get(e.status, 0) + 1
        return out

    def solved_tags(self) -> Set[Tuple[int, str]]:
        return {
            (e.n, sol.tag)
            for e in self.entries
            if e.status == "SOLVED"
            for sol in e.solutions
        }

    def has_unknown(self) -> bool:
        return any(
            sol.tag == TAG_UNKNOWN for e in self.entries for sol in e.solutions
        )


def _certified_entry(n: int, k: int, support, spec: PotentialSpec, outcome: SolveOutcome) -> SweepEntry:
    """The entry of a SOLVED outcome: SOLVED with every solution certified
    exactly and classified, or UNRESOLVED at the first solution whose
    certificate FAILs."""
    solutions = []
    for sol in outcome.solutions:
        values = dict(sol)
        lam = values[EINSTEIN_NAME]
        numeric = spec.substitute(values)
        # an exact PASS implies a zero log residual at every truncation
        cert = certify_exact(EinsteinCandidate(numeric, lam))
        if not cert.passed():
            return SweepEntry(n, k, support, "UNRESOLVED", (), None, f"certificate failed for {values}")
        if not (0 < lam <= 2 * (n + 1)):
            raise EngineError(f"solved Einstein constant {lam} outside (0, 2(n+1)]")
        if lam < degree_bound_lambda(numeric):
            raise EngineError(f"solved Einstein constant {lam} violates the degree bound")
        tag = classify(numeric, lam)
        solutions.append(SweepSolution(sol, lam, tag, cert.status))
    return SweepEntry(n, k, support, "SOLVED", tuple(solutions))


def _solve_one_spec(task: Tuple[PotentialSpec, int], prescreen: GenericPrescreen) -> SweepEntry:
    """Decide one support from its equations of degree <= t, for t from
    d - 1 up to top (d = deg_x P; every unknown enters at d - 1, and for
    d <= 2 the climb starts at d + 1, as t = 1 holds only the linear block).
    A level ends the climb when it proves the verdict:

    - INFEASIBLE: the equations at t are those of degree <= t at every
      larger truncation, so the verdict transfers upward.
    - SOLVED, every solution PASSing `certify_exact`: with T the true
      solutions and S_t the level's, T <= S_top <= S_t, and a PASS point is
      a true solution (the certificate is exact both ways), so S_t <= T and
      the three sets are equal.

    Anything else goes on to t + 1, and at top it is the entry.  The task
    is (spec, top), and the t = d - 1 system is read off `prescreen`.
    """
    spec, top = task
    n, k, support = spec.n, spec.codimension, tuple(m for m, _ in spec.support)
    d = spec.max_degree()
    for t in range(d - 1 if d >= 3 else d + 1, top + 1):
        system = prescreen.system(spec) if t == d - 1 else extract_constraints(spec, t)
        outcome = solve_system(system)
        if outcome.status == "INFEASIBLE":
            return SweepEntry(n, k, support, "INFEASIBLE", (), repr(outcome.witness), "prescreen" if t < top else "")
        if outcome.status == "SOLVED":
            entry = _certified_entry(n, k, support, spec, outcome)
            if entry.status == "SOLVED" or t == top:
                return entry
    return SweepEntry(n, k, support, "UNRESOLVED", (), None, "; ".join(map(repr, outcome.remnants)))


# Most candidate supports `sweep` may face in one dimension.  Orderly
# generation scans the canonical extensions of canonical supports, so its work
# is bounded by, and in practice grows with, sum_{j <= k_max} C(M_n, j), M_n
# the number of monomials of degree 2..deg_cap in n variables.  The cap admits
# every dimension up to 6 at deg_cap 4 (1,394,408 at n = 6, where the
# enumeration takes about 6 s) and n = 8 at deg_cap 3 (632,867); dims 2..2
# with k_max = 8 and deg_cap = 8 (about 1.5 * 10^8) is refused instead of
# running for hours.
MAX_CANDIDATE_SUPPORTS = 2_000_000


# Largest deg_cap `sweep` takes when it enumerates a dimension: the climb's
# top deg_cap + 2 and each generic residual grow with it.  On one core of a
# 2-core x86-64 sandbox (Python 3.11) the largest admitted generic build,
# (4, 6), takes 1.2 s ((4, 7) 4.8 s); the slowest admitted sweep measured,
# dims 2..2 with k_max 6 at the cap, 107 s, set by its 245,506 candidates.
MAX_SWEEP_DEG_CAP = 6


# Largest k_max `sweep` takes, checked before the candidate count: that
# count sums k_max + 1 big-integer binomials, and with k_max = deg_cap in one
# variable it took 1.4 s at 5,000 on one core of a 2-core x86-64 sandbox
# (Python 3.11).  At k_max <= 8 it takes under a millisecond for any deg_cap.
# The paper needs k <= 3.
MAX_SWEEP_CODIM = 8


def candidate_support_count(n: int, k_max: int, deg_cap: int) -> int:
    """sum_{j <= k_max} C(M_n, j), M_n the number of monomials of degree
    2..deg_cap in n variables: the supports of size <= k_max before the
    orbits are taken."""
    monomials = comb(n + deg_cap, n) - n - 1
    return sum(comb(monomials, j) for j in range(k_max + 1))


def check_sweep_work(dims: Iterable[int], k_max: int, deg_cap: Optional[int] = None) -> int:
    """The degree cap of a sweep over dims up to codimension k_max (deg_cap,
    or max(k_max, 2) when None).  Raises ValueError for no dimension or one
    outside 1..MAX_DIMENSION, k_max below 0 or above MAX_SWEEP_CODIM, a
    degree cap below 2, more than MAX_CANDIDATE_SUPPORTS candidate supports
    in a dimension `sweep` enumerates (n <= 2 k_max), or, when any is
    enumerated, a degree cap above MAX_SWEEP_DEG_CAP."""
    dims = sorted(set(dims))
    if not dims or dims[0] < 1 or dims[-1] > MAX_DIMENSION:
        raise ValueError(f"dimensions must lie in 1..{MAX_DIMENSION}")
    if k_max < 0:
        raise ValueError(f"codimension {k_max} is below 0")
    if deg_cap is None:
        deg_cap = max(k_max, 2)
    if deg_cap < 2:
        raise ValueError(f"degree cap {deg_cap} is below 2")
    if k_max > MAX_SWEEP_CODIM:
        raise ValueError(f"codimension {k_max} is above the cap of {MAX_SWEEP_CODIM}")
    enumerated = [n for n in dims if n <= 2 * k_max]
    for n in enumerated:
        count = candidate_support_count(n, k_max, deg_cap)
        if count > MAX_CANDIDATE_SUPPORTS:
            raise ValueError(
                f"dimension {n} has {count} candidate supports of size <= {k_max} and degree <= {deg_cap}, "
                f"more than the cap of {MAX_CANDIDATE_SUPPORTS}"
            )
    if enumerated and deg_cap > MAX_SWEEP_DEG_CAP:
        raise ValueError(f"degree cap {deg_cap} is above the cap of {MAX_SWEEP_DEG_CAP} for an enumerated dimension")
    return deg_cap


_worker_prescreen: Optional[GenericPrescreen] = None


def _start_worker() -> None:
    """Give a sweep worker process its own `GenericPrescreen`."""
    global _worker_prescreen
    _worker_prescreen = GenericPrescreen()


def _solve_in_worker(task) -> SweepEntry:
    return _solve_one_spec(task, _worker_prescreen)


def sweep(
    dims: Iterable[int],
    k_max: int,
    deg_cap: Optional[int] = None,
    jobs: int = 1,
) -> ClassificationReport:
    """Enumerate, extract, solve, certify, and classify over a dimension range.

    Completeness is only claimed up to deg_cap (default max(k_max, 2)); for
    n > 2k the enumeration for codimension k is skipped and the totally
    geodesic entry recorded directly.  Each support climbs to t = deg_cap +
    2, the report's `trunc` (`_solve_one_spec`).  Input that `check_sweep_work`
    refuses raises its ValueError before any work.
    Output is deterministic and independent of the worker count.

    The t = deg P - 1 levels read one generic residual per (n, deg P)
    (`GenericPrescreen`), cached for this call only: with one job it is
    created here, and with several each worker process builds its own.
    """
    dims = sorted(set(dims))
    deg_cap = check_sweep_work(dims, k_max, deg_cap)
    top = deg_cap + 2
    tasks = []
    shortcut_entries = []
    for n in dims:
        tasks.append((PotentialSpec(n, ()), top))
        shortcut_entries += [
            SweepEntry(n, k, (), "SHORTCUT", (), None, f"n > 2k: only the totally geodesic CP^{n}")
            for k in range(1, k_max + 1)
            if n > 2 * k
        ]
        if n <= 2 * k_max:  # otherwise every k >= 1 is a SHORTCUT
            for spec in enumerate_supports(n, k_max, deg_cap):
                if n <= 2 * spec.codimension:  # k = 0 is the task above
                    tasks.append((spec, top))
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs, initializer=_start_worker) as pool:
            entries = list(pool.map(_solve_in_worker, tasks, chunksize=8))
    else:
        prescreen = GenericPrescreen()
        entries = [_solve_one_spec(t, prescreen) for t in tasks]
    entries.extend(shortcut_entries)
    entries.sort(key=SweepEntry.sort_key)
    return ClassificationReport((dims[0], dims[-1]), k_max, deg_cap, top, tuple(entries))
