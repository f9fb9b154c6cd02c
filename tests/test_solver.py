import hashlib
import itertools
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest

from rotke import (
    PotentialSpec,
    Series,
    build_potential,
    canonical_support,
    classify,
    enumerate_supports,
    extract_constraints,
    ma_log_residual,
    solve_system,
    sweep,
)
from rotke import solver
from rotke.algebra import (
    CoefPoly,
    EINSTEIN_NAME,
    grlex_key,
    monomials_of_degree,
    monomials_up_to,
    support_unknown,
)
from rotke.geometry import Certificate
from rotke.oracle import mi_permute
from rotke.reports import constraints_payload, render_json, sweep_payload
from rotke.solver import SolveOutcome, _eq_sort_key

from conftest import cpn_unit


def uname(m):
    return support_unknown(m).name


def eqs_by_monomial(system):
    return dict(zip(system.residual_monomials, system.equations))


LAM = CoefPoly.var(EINSTEIN_NAME)


def solve_one(n, support, top):
    """The sweep entry of one support climbing to top."""
    return solver._solve_one_spec((PotentialSpec.symbolic(n, support), top), solver.GenericPrescreen())


def set_partitions(items):
    """All partitions of items into nonempty blocks."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for partition in set_partitions(rest):
        for i in range(len(partition)):
            yield partition[:i] + [[first] + partition[i]] + partition[i + 1:]
        yield [[first]] + partition


def block_model(n, blocks, lam, trunc):
    """The product over the blocks b of (1 + (sum of b's x)/q_b)^q_b, or None
    when some q_b = 2(|b| + 1)/lam is not an integer."""
    one = Series.one(n, trunc)
    model = one
    for block in blocks:
        q = Fraction(2 * (len(block) + 1), lam)
        if q.denominator != 1:
            return None
        base = one + Series(n, trunc, {tuple(int(j == i) for j in range(n)): 1 / q for i in block})
        model = model * base.pow_trunc(int(q))
    return model


def model_spec(n, blocks, lam):
    degree = sum(int(Fraction(2 * (len(b) + 1), lam)) for b in blocks)
    model = block_model(n, blocks, lam, max(degree, 1))
    return PotentialSpec(n, tuple((m, c.constant_value()) for m, c in model.terms.items() if sum(m) >= 2))


def reference_tag(spec, lam):
    """The partition search classify used to run: every partition of the
    variables, compared with P through degree max(n deg P, deg P)."""
    if not spec.support:
        return "CPn_unit"
    d = spec.max_degree()
    trunc = max(spec.n * d, d)
    P = build_potential(spec, trunc)
    for blocks in set_partitions(list(range(spec.n))):
        if block_model(spec.n, blocks, lam, trunc) == P:
            return f"CPn_scaled({int(Fraction(2 * (spec.n + 1), lam))})" if len(blocks) == 1 else "ProductOfLines"
    return "UNKNOWN"


class TestLinearBlock:
    """The degree-1 residual equations for a full quadratic support must be
    4 a_h + sum_k b_hk - (n+1) + lambda/2 = 0, up to one rational factor."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_full_quadratic_support(self, n):
        spec = PotentialSpec.symbolic(n, list(monomials_of_degree(n, 2)))
        system = extract_constraints(spec, 3)
        found = 0
        for m, eq in eqs_by_monomial(system).items():
            if sum(m) != 1:
                continue
            h = m.index(1)
            expected = CoefPoly.const(-(n + 1)) + LAM.scale(Fraction(1, 2))
            sq = tuple(2 if i == h else 0 for i in range(n))
            expected = expected + CoefPoly.var(uname(sq)).scale(4)
            for k in range(n):
                if k == h:
                    continue
                mixed = tuple(1 if i in (h, k) else 0 for i in range(n))
                expected = expected + CoefPoly.var(uname(mixed))
            assert eq.proportional_to(expected), (n, m)
            found += 1
        assert found == n

    def test_equations_are_permutation_equivariant(self):
        spec = PotentialSpec.symbolic(3, list(monomials_of_degree(3, 2)))
        system = eqs_by_monomial(extract_constraints(spec, 3))
        for perm in itertools.permutations(range(3)):
            for m, eq in system.items():
                pm = mi_permute(m, perm)
                rename = {
                    uname(mm): CoefPoly.var(uname(mi_permute(mm, perm)))
                    for mm in monomials_of_degree(3, 2)
                }
                assert system[pm].proportional_to(eq.substitute(rename)), (perm, m)

    def test_truncation_too_low_rejected(self):
        # the cubic monomial first enters the residual at degree 2
        spec = PotentialSpec.symbolic(2, [(2, 0), (2, 1)])
        with pytest.raises(ValueError):
            extract_constraints(spec, 1)
        assert extract_constraints(spec, 2).equations


class TestCubicRelations:
    """With the quadratic coefficients pinned to b = 3 - lambda/2 and no pure
    squares, the order-3 matching forces x_h x_k^2 coefficients to be nine
    times the pure cubes."""

    def test_cross_terms_are_nine_times_cubes(self):
        spec = PotentialSpec.symbolic(2, [(1, 1), (3, 0), (0, 3), (1, 2), (2, 1)])
        system = eqs_by_monomial(extract_constraints(spec, 5))
        sub = {uname((1, 1)): CoefPoly.const(3) - LAM.scale(Fraction(1, 2))}
        e02 = system[(0, 2)].substitute(sub).normalized()
        e11 = system[(1, 1)].substitute(sub).normalized()
        e20 = system[(2, 0)].substitute(sub).normalized()
        # degree-1 equations become trivial under the pinning
        assert system[(1, 0)].substitute(sub).is_zero()
        assert system[(0, 1)].substitute(sub).is_zero()
        d12, d21 = CoefPoly.var(uname((1, 2))), CoefPoly.var(uname((2, 1)))
        c1, c2 = CoefPoly.var(uname((3, 0))), CoefPoly.var(uname((0, 3)))
        assert (e11 - e20).proportional_to(d12 - c1.scale(9))
        assert (e11 - e02).proportional_to(d21 - c2.scale(9))

    def test_pure_square_branch_is_infeasible(self):
        # quadratic part a_1 x_1^2 + a_2 x_2^2 with no mixed term, plus the
        # cubic cross terms: positivity kills it, witness a + d12 + d21 = 0
        spec = PotentialSpec.symbolic(2, [(2, 0), (0, 2), (1, 2), (2, 1)])
        outcome = solve_system(extract_constraints(spec, 5))
        assert outcome.status == "INFEASIBLE"
        names = sorted(outcome.witness.unknowns())
        assert names in (
            [uname((0, 2)), uname((1, 2)), uname((2, 1))],
            [uname((1, 2)), uname((2, 0)), uname((2, 1))],
        )
        expected = sum((CoefPoly.var(nm) for nm in names), CoefPoly())
        assert outcome.witness.proportional_to(expected)


class TestSolveBranches:
    def test_mixed_term_only_gives_segre(self):
        spec = PotentialSpec.symbolic(2, [(1, 1)])
        outcome = solve_system(extract_constraints(spec, 4))
        assert outcome.status == "SOLVED"
        [sol] = outcome.solution_dicts()
        assert sol[uname((1, 1))] == 1
        assert sol[EINSTEIN_NAME] == 4

    def test_full_quadratic_support_n2(self):
        spec = PotentialSpec.symbolic(2, list(monomials_of_degree(2, 2)))
        outcome = solve_system(extract_constraints(spec, 4))
        assert outcome.status == "SOLVED"
        [sol] = outcome.solution_dicts()
        assert sol[uname((2, 0))] == Fraction(1, 4)
        assert sol[uname((0, 2))] == Fraction(1, 4)
        assert sol[uname((1, 1))] == Fraction(1, 2)
        assert sol[EINSTEIN_NAME] == 3

    def test_single_square_is_infeasible(self):
        spec = PotentialSpec.symbolic(2, [(2, 0)])
        assert solve_system(extract_constraints(spec, 4)).status == "INFEASIBLE"

    def test_triple_squares_n3_infeasible(self):
        spec = PotentialSpec.symbolic(3, [(2, 0, 0), (0, 2, 0), (0, 0, 2)])
        assert solve_system(extract_constraints(spec, 4)).status == "INFEASIBLE"

    def test_empty_support_any_n(self):
        for n in (1, 2, 3, 4):
            outcome = solve_system(extract_constraints(cpn_unit(n), 2))
            assert outcome.status == "SOLVED"
            [sol] = outcome.solution_dicts()
            assert sol[EINSTEIN_NAME] == 2 * (n + 1)


class TestEnumeration:
    @staticmethod
    def naive_orbit_representatives(n, k_max, deg_cap):
        """Lex-least sorted image of every combination, per size, in the
        report's order: by size, then by the graded-lex keys."""
        monos = [m for m in monomials_up_to(n, deg_cap) if sum(m) >= 2]
        reps = [()]
        for size in range(1, k_max + 1):
            orbits = {
                min(
                    tuple(sorted(mi_permute(m, p) for m in combo))
                    for p in itertools.permutations(range(n))
                )
                for combo in itertools.combinations(monos, size)
            }
            reps += sorted(orbits, key=lambda s: tuple(grlex_key(m) for m in s))
        return reps

    @pytest.mark.parametrize(
        "n,k_max,deg_cap", [(2, 3, 3), (3, 2, 3), (2, 2, 4), (1, 2, 2), (4, 3, 3)]
    )
    def test_matches_naive_orbit_enumeration(self, n, k_max, deg_cap):
        specs = enumerate_supports(n, k_max, deg_cap)
        expected = [
            PotentialSpec.symbolic(n, rep)
            for rep in self.naive_orbit_representatives(n, k_max, deg_cap)
        ]
        assert specs == expected

    def test_supports_are_canonical_and_unique(self):
        specs = enumerate_supports(3, 3, 3)
        seen = set()
        for s in specs:
            support = tuple(m for m, _ in s.support)
            # the spec stores a canonical orbit representative
            assert frozenset(canonical_support(3, support)) == frozenset(support)
            key = frozenset(support)
            assert key not in seen
            seen.add(key)

    def test_canonical_is_orbit_invariant(self, rng):
        for _ in range(60):
            n = rng.choice((2, 3))
            monos = [m for m in monomials_up_to(n, 3) if sum(m) >= 2]
            support = tuple(rng.sample(monos, rng.randint(1, 3)))
            perm = list(range(n))
            rng.shuffle(perm)
            permuted = tuple(mi_permute(m, perm) for m in support)
            assert canonical_support(n, support) == canonical_support(n, permuted)


class TestClassification:
    def test_unit_fubini_study(self):
        assert classify(cpn_unit(3), Fraction(8)) == "CPn_unit"

    def test_scaled_fubini_study(self, veronese):
        assert classify(veronese, Fraction(3)) == "CPn_scaled(2)"

    def test_product_of_lines_n2(self, segre):
        assert classify(segre, Fraction(4)) == "ProductOfLines"

    def test_product_of_lines_n3(self):
        # (1+x1)(1+x2)(1+x3)
        spec = PotentialSpec(
            3,
            (
                ((0, 1, 1), Fraction(1)),
                ((1, 0, 1), Fraction(1)),
                ((1, 1, 0), Fraction(1)),
                ((1, 1, 1), Fraction(1)),
            ),
        )
        assert classify(spec, Fraction(4)) == "ProductOfLines"

    def test_wrong_model_is_unknown(self, veronese):
        # right potential, wrong constant: must not match any model
        assert classify(veronese, Fraction(1)) == "UNKNOWN"

    @pytest.mark.parametrize("lam", [Fraction(0), Fraction(-4)])
    def test_nonpositive_constant_rejected(self, segre, lam):
        with pytest.raises(ValueError, match="must be positive"):
            classify(segre, lam)

    def test_partition_read_off_p_matches_the_partition_search(self):
        # every model with q_b <= 4 for n <= 4, and twins that differ from it
        # in one coefficient
        rng = random.Random(17)
        models = twins = 0
        for n in range(1, 5):
            for blocks in set_partitions(list(range(n))):
                for lam in sorted({Fraction(2 * (len(blocks[0]) + 1), q) for q in range(1, 5)}):
                    qs = [Fraction(2 * (len(b) + 1), lam) for b in blocks]
                    if any(q.denominator != 1 or q > 4 for q in qs):
                        continue
                    spec = model_spec(n, blocks, lam)
                    tag = classify(spec, lam)
                    assert tag == reference_tag(spec, lam) != "UNKNOWN", (n, blocks, lam)
                    models += 1
                    for m, c in rng.sample(spec.support, min(3, len(spec.support))):
                        twin = PotentialSpec(n, tuple((mm, cc + (mm == m)) for mm, cc in spec.support))
                        try:
                            assert classify(twin, lam) == "UNKNOWN", (n, blocks, lam, m)
                        except solver.EngineError:
                            pass  # the Hulin cross-check refuses UNKNOWN at p' = n + 1
                        twins += 1
        assert (models, twins) == (57, 154)

    def test_truncated_model_is_not_a_match(self):
        # 1 + x + x^2/3 agrees with (1 + x/3)^3 only through degree 2
        spec = PotentialSpec(1, (((2,), Fraction(1, 3)),))
        with pytest.raises(solver.EngineError, match="demands CPn_scaled"):
            classify(spec, Fraction(4, 3))
        assert classify(model_spec(1, [[0]], Fraction(4, 3)), Fraction(4, 3)) == "CPn_scaled(3)"

    def test_builds_one_model(self, monkeypatch):
        # (1 + x_1) ... (1 + x_7): one power per block, not one per partition
        calls = []
        real = Series.pow_trunc

        def spy(self, k):
            assert k <= 32, "built a model of higher degree than P"
            calls.append(k)
            return real(self, k)

        monkeypatch.setattr(Series, "pow_trunc", spy)
        spec = model_spec(7, [[i] for i in range(7)], Fraction(4))
        calls.clear()
        assert classify(spec, Fraction(4)) == "ProductOfLines"
        assert 0 < len(calls) <= 7
        # q_b = 10^6: the model's degree 7 * 10^6 is not deg P, so none is built
        calls.clear()
        assert classify(spec, Fraction(4, 10**6)) == "UNKNOWN"
        assert calls == []


class TestSweep:
    def test_codim_zero_only(self):
        report = sweep([2], 0)
        assert [e.status for e in report.entries] == ["SOLVED"]
        [sol] = report.entries[0].solutions
        assert sol.lam == 6
        assert sol.tag == "CPn_unit"
        assert sol.certificate == "PASS"

    @staticmethod
    def spy_truncations(monkeypatch):
        """The truncations `_solve_one_spec` passes to `extract_constraints`."""
        calls = []
        real = solver.extract_constraints

        def spy(spec, trunc):
            calls.append(trunc)
            return real(spec, trunc)

        monkeypatch.setattr(solver, "extract_constraints", spy)
        return calls

    def test_certified_solved_tier_ends_the_climb(self, monkeypatch):
        calls = self.spy_truncations(monkeypatch)
        entry = solve_one(2, ((1, 1),), 4)  # Segre, lambda = 4
        assert calls == [3]  # the t = deg P + 1 tier, and no call at trunc
        assert (entry.status, entry.witness, entry.note) == ("SOLVED", None, "")
        [sol] = entry.solutions
        assert (sol.lam, sol.tag, sol.certificate) == (4, "ProductOfLines", "PASS")

    def test_failed_tier_certificate_falls_through_to_trunc(self, monkeypatch):
        real = solver.certify_exact
        certified = []

        def fail_first(cand):
            certified.append(cand.lam)
            if len(certified) == 1:
                return Certificate("FAIL", cand.lam, "det(B)^1 = P^1", "", "", (1, 0))
            return real(cand)

        calls = self.spy_truncations(monkeypatch)
        monkeypatch.setattr(solver, "certify_exact", fail_first)
        entry = solve_one(2, ((1, 1),), 4)
        assert calls == [3, 4] and certified == [4, 4]
        assert (entry.status, entry.note) == ("SOLVED", "")
        # the same entry as when the tier's certificate passes
        assert entry == solve_one(2, ((1, 1),), 4)

    def test_failed_certificate_leaves_solution_unresolved(self, monkeypatch):
        def fail(cand):
            return Certificate("FAIL", cand.lam, "det(B)^1 = P^1", "", "", (1, 0))

        calls = self.spy_truncations(monkeypatch)
        monkeypatch.setattr(solver, "certify_exact", fail)
        entry = solve_one(2, ((1, 1),), 4)  # Segre, lambda = 4
        assert calls == [3, 4]
        assert (entry.status, entry.solutions) == ("UNRESOLVED", ())
        assert entry.note.startswith("certificate failed for ")

    def test_certified_tier_solutions_equal_those_at_trunc(self, monkeypatch):
        calls = self.spy_truncations(monkeypatch)
        report = sweep(range(1, 7), 3, deg_cap=3)
        # the one pinned sweep with n = 1, checked under PYTHONHASHSEED 0 and 1
        digest = hashlib.sha256(render_json(sweep_payload(report)).encode()).hexdigest()
        assert digest == "cf06c157dc1d2a9a765528858d7dcfc3ae77a4463e3caba1ae8abce0e51cb839"
        solved = [e for e in report.entries if e.status == "SOLVED"]
        assert len(solved) == 10
        assert report.trunc not in calls  # every SOLVED entry ended at a tier
        for e in solved:
            # the test's extract_constraints is the library's, not the spy
            ref = solve_system(extract_constraints(PotentialSpec.symbolic(e.n, e.support), report.trunc))
            assert (ref.status, ref.solutions) == ("SOLVED", tuple(s.assignment for s in e.solutions)), e

    def test_undecided_levels_climb_to_top(self, monkeypatch):
        # every level UNRESOLVED: one system per t from the start to top, and
        # the entry names the remnants of the last
        remnant = (CoefPoly.var(EINSTEIN_NAME),)
        monkeypatch.setattr(solver, "solve_system", lambda system: SolveOutcome("UNRESOLVED", (), None, (remnant,)))
        screened = []
        real_system = solver.GenericPrescreen.system
        monkeypatch.setattr(solver.GenericPrescreen, "system", lambda self, spec: screened.append(spec) or real_system(self, spec))
        calls = self.spy_truncations(monkeypatch)
        entry = solve_one(2, ((1, 1),), 6)  # quadratic: starts at deg P + 1
        assert (calls, screened) == ([3, 4, 5, 6], [])
        assert (entry.status, entry.solutions, entry.witness, entry.note) == ("UNRESOLVED", (), None, repr(remnant))
        calls.clear()
        entry = solve_one(2, ((0, 3),), 6)  # cubic: t = 2 off the generic residual
        assert (calls, len(screened)) == ([3, 4, 5, 6], 1)
        assert (entry.status, entry.note) == ("UNRESOLVED", repr(remnant))

    @pytest.mark.parametrize("n, support, status, witness", [
        (1, ((2,), (3,)), "SOLVED", None),  # CP^1 scaled(3)
        (2, ((1, 1), (0, 3), (2, 1)), "INFEASIBLE", "a(0,3)"),
    ])
    def test_climb_stops_at_the_first_proof(self, monkeypatch, n, support, status, witness):
        # t = 2 is read off the generic residual and leaves both undecided;
        # t = 3 decides them, below the deg P + 1 a fixed tier would use
        calls = self.spy_truncations(monkeypatch)
        entry = solve_one(n, support, 5)
        assert calls == [3]
        assert (entry.status, entry.witness) == (status, witness)
        assert entry.note == ("prescreen" if status == "INFEASIBLE" else "")

    def test_n2_quadratic_matches_known_models(self):
        report = sweep([2], 3, deg_cap=2)
        tags = sorted(
            sol.tag for e in report.entries if e.status == "SOLVED" for sol in e.solutions
        )
        assert tags == ["CPn_scaled(2)", "CPn_unit", "ProductOfLines"]
        assert report.counts()["UNRESOLVED"] == 0

    def test_enumerates_once_per_dimension_and_only_below_2k(self, monkeypatch):
        calls = []
        real = solver.enumerate_supports

        def spy(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(solver, "enumerate_supports", spy)
        report = sweep([7], 3, deg_cap=2)
        assert calls == []
        assert [(e.n, e.k, e.support, e.status) for e in report.entries] == [
            (7, 0, (), "SOLVED"),
            (7, 1, (), "SHORTCUT"),
            (7, 2, (), "SHORTCUT"),
            (7, 3, (), "SHORTCUT"),
        ]
        assert report.entries[0].solutions[0].tag == "CPn_unit"
        sweep([2, 3, 7], 3, deg_cap=2)
        assert calls == [(2, 3, 2), (3, 3, 2)]

    def test_lemma_shortcut_high_dimension(self):
        report = sweep([7], 2)
        statuses = sorted(e.status for e in report.entries)
        assert statuses == ["SHORTCUT", "SHORTCUT", "SOLVED"]
        solved = [e for e in report.entries if e.status == "SOLVED"]
        assert solved[0].solutions[0].tag == "CPn_unit"


class EagerSearch(solver._Search):
    """The search as it was before `_clean` read its input lazily: every
    equation is substituted into, normalized and sorted before the first
    contradiction is read.  The reference `solve_system` is compared with."""

    def _clean(self, eqs):
        out = set()
        for eq in eqs:
            if eq.is_zero():
                continue
            if eq.is_constant():
                return [], eq
            mono = tuple((nm, e) for nm, e in eq.common_monomial() if nm in self.positivity)
            if mono:
                stripped = eq.divide_monomial(mono)
                if stripped.is_constant():
                    return [], eq.normalized()
                eq = stripped
            out.add(eq.normalized())
        return sorted(out, key=_eq_sort_key), None

    def run(self, eqs, bindings, depth=0):
        if depth > solver._MAX_SEARCH_DEPTH:
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
                eqs = [e.substitute({name: expr}) for e in rest]
                continue
            reduced = self._gauss(eqs)
            if set(reduced) != set(eqs):
                eqs = reduced
                continue
            if self._univariate_step(eqs, bindings, depth):
                return
            self.remnants.append(tuple(eqs))
            return


def eager_outcome(system):
    search = EagerSearch(system)
    search.run(list(system.equations), [])
    solutions = tuple(sorted(set(search.solutions)))
    if search.remnants:
        return solver.SolveOutcome("UNRESOLVED", solutions, None, tuple(search.remnants))
    if solutions:
        return solver.SolveOutcome("SOLVED", solutions)
    return solver.SolveOutcome("INFEASIBLE", (), min(search.witnesses, key=_eq_sort_key, default=None))


def outcome_key(outcome):
    return outcome.status, outcome.solutions, repr(outcome.witness), outcome.remnants, repr(outcome.remnants)


@pytest.mark.parametrize("dims, deg_cap", [(range(2, 8), 2), (range(2, 6), 3), (range(2, 5), 4)])
def test_lazy_search_equals_the_eager_reference(monkeypatch, dims, deg_cap):
    # every system the sweep solves: the prescreen tiers and the final truncation
    seen = []
    real = solver.solve_system

    def spy(system):
        outcome = real(system)
        seen.append((system, outcome))
        return outcome

    monkeypatch.setattr(solver, "solve_system", spy)
    sweep(dims, 3, deg_cap=deg_cap)
    assert len(seen) > 50
    assert {o.status for _, o in seen} >= {"SOLVED", "INFEASIBLE"}
    for system, outcome in seen:
        assert outcome_key(outcome) == outcome_key(eager_outcome(system)), system.unknowns


def test_rescaled_system_gives_the_same_outcome():
    # the search normalizes each equation it keeps, so a factor per equation
    # changes neither the outcome nor the constraints report
    cases = [(2, ((1, 1),), 3, "SOLVED"), (2, ((1, 1), (0, 3)), 2, "INFEASIBLE"), (1, ((2,), (3,), (4,)), 3, "UNRESOLVED")]
    for n, support, t, status in cases:
        system = extract_constraints(PotentialSpec.symbolic(n, support), t)
        scaled = tuple(eq.scale(Fraction(-(i + 2), 3)) for i, eq in enumerate(system.equations))
        assert any(eq != eq.normalized() for eq in scaled)
        hand = solver.ConstraintSystem(system.unknowns, scaled, system.positivity, system.residual_monomials)
        assert constraints_payload(hand, t) == constraints_payload(system, t)
        outcome = solve_system(hand)
        assert outcome.status == status
        assert outcome_key(outcome) == outcome_key(solve_system(system))
        assert outcome_key(outcome) == outcome_key(eager_outcome(hand))


def test_stripped_equation_is_normalized_again():
    # a^2 c - a b^2 is normalized, but stripping a makes -b^2 its leading term
    a, b, c = (support_unknown((e,)) for e in (2, 3, 4))
    A, B, C = (CoefPoly.var(u.name) for u in (a, b, c))
    eq = A * A * C - A * B * B
    assert eq == eq.normalized()
    system = solver.ConstraintSystem((a, b, c), (eq,), frozenset(u.name for u in (a, b, c)), ((0,),))
    outcome = solve_system(system)
    assert (outcome.status, outcome.remnants) == ("UNRESOLVED", ((B * B - A * C,),))
    assert outcome_key(outcome) == outcome_key(eager_outcome(system))
    # the witness sign follows the sign normalizing gives a stripped
    # equation, in the first round (from the system) and in later ones
    L = CoefPoly.var(EINSTEIN_NAME)
    cases = [
        ((A * A * L - A * B * B * 2 - A * A * B * 2, A * 3 + A * L * 2 - A * B * L * 2 + A * B * B, A * L - A * B), A + B * 2),
        ((A * A * B * L - A * B * B * L, A * A * 3 - A * A * B * 2 + A * A * A * 2), CoefPoly.const(-3)),
    ]
    for eqs, witness in cases:
        system = solver.ConstraintSystem((a, b, solver.EINSTEIN), eqs, frozenset({a.name, b.name, EINSTEIN_NAME}), ((0,),) * len(eqs))
        outcome = solve_system(system)
        assert (outcome.status, repr(outcome.witness)) == ("INFEASIBLE", repr(witness))
        assert outcome_key(outcome) == outcome_key(eager_outcome(system))


def univariate_system(*terms):
    """a(2) > 0 and one equation sum c * a(2)^e over (c, e) in terms."""
    a = uname((2,))
    eq = sum((CoefPoly.var(a) ** e * c for c, e in terms), CoefPoly())
    return solver.ConstraintSystem((support_unknown((2,)),), (eq,), frozenset({a}), ((0,),)), eq


def test_rational_root_search_is_bounded():
    cap = solver.MAX_ROOT_COEFFICIENT
    system, eq = univariate_system((1, 2), (-(10**14 + 31), 0))
    t0 = time.perf_counter()
    outcome = solve_system(system)
    assert time.perf_counter() - t0 < 0.1
    assert (outcome.status, outcome.remnants) == ("UNRESOLVED", ((eq,),))
    assert "-100000000000031 + a(2)^2" in repr(outcome.remnants)
    # at the cap the search runs; just above it a rational root is not searched for
    assert solve_system(univariate_system((1, 2), (-cap, 0))[0]).solution_dicts() == [{uname((2,)): 1000}]
    assert solve_system(univariate_system((1, 2), (-1001**2, 0))[0]).status == "UNRESOLVED"
    # the leading coefficient is bounded too
    assert solve_system(univariate_system((4 * cap, 2), (-1, 0))[0]).status == "UNRESOLVED"
    assert solve_system(univariate_system((cap, 2), (-1, 0))[0]).solution_dicts() == [{uname((2,)): Fraction(1, 1000)}]


def test_equation_order_ignores_coefficient_type():
    a = ((uname((2, 0)), 1),)
    assert _eq_sort_key(CoefPoly({a: 3, (): -2})) == _eq_sort_key(CoefPoly({a: Fraction(3), (): Fraction(-2)}))


def test_infeasible_witness_does_not_depend_on_hash_seed():
    """Two unknowns are nonpositive at this leaf; the reported one must not
    follow the iteration order of a set of strings."""
    code = (
        "from rotke import PotentialSpec\n"
        "from rotke.solver import GenericPrescreen, _solve_one_spec\n"
        "spec = PotentialSpec.symbolic(2, ((1, 1), (0, 3), (2, 1)))\n"
        "print(_solve_one_spec((spec, 5), GenericPrescreen()).witness)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    witnesses = set()
    for seed in ("0", "1", "2", "3", "4", "5"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120, check=True)
        witnesses.add(out.stdout.strip())
    assert witnesses == {"a(0,3)"}



def test_equations_are_normalized_residual_coefficients():
    # extract_constraints reads the integral multiple q R; its equations must
    # be those of R itself with a symbolic Einstein constant
    rng = random.Random(29)
    for n in (2, 3, 4):
        monos = [m for d in (2, 3) for m in monomials_of_degree(n, d)]
        for _ in range(4):
            spec = PotentialSpec.symbolic(n, rng.sample(monos, rng.randint(1, 3)))
            trunc = spec.max_degree() + rng.randint(1, 2 if n < 4 else 1)
            R = ma_log_residual(build_potential(spec, trunc), LAM)
            want = [(m, c.normalized()) for m, c in R.sorted_terms()]
            system = extract_constraints(spec, trunc)
            assert [(m, eq.normalized()) for m, eq in zip(system.residual_monomials, system.equations)] == want, spec


def test_low_truncation_equations_are_a_degree_prefix():
    # at every allowed t the equations are exactly the degree <= t ones of a
    # larger truncation, monomial by monomial
    rng = random.Random(41)
    for n in (1, 2, 3):
        monos = [m for d in (2, 3, 4) for m in monomials_of_degree(n, d)]
        for _ in range(5):
            spec = PotentialSpec.symbolic(n, rng.sample(monos, rng.randint(1, min(3, len(monos)))))
            d = spec.max_degree()
            full = extract_constraints(spec, d + 2)
            for t in range(max(d - 1, 1), d + 2):
                want = [(m, eq.normalized()) for m, eq in zip(full.residual_monomials, full.equations) if sum(m) <= t]
                system = extract_constraints(spec, t)
                got = [(m, eq.normalized()) for m, eq in zip(system.residual_monomials, system.equations)]
                assert got == want, (spec, t)
                assert system.unknowns == full.unknowns


def test_prescreen_tiers_match_the_single_prescreen():
    # the sweep may decide a support at deg P - 1; its witness must be the one
    # the system at deg P + 1 gives
    report = sweep(range(2, 5), 3, deg_cap=3)
    infeasible = [e for e in report.entries if e.status == "INFEASIBLE"]
    assert len(infeasible) > 100
    for e in infeasible:
        spec = PotentialSpec.symbolic(e.n, e.support)
        ref = solve_system(extract_constraints(spec, spec.max_degree() + 1))
        assert (ref.status, repr(ref.witness), "prescreen") == ("INFEASIBLE", e.witness, e.note), e


@pytest.mark.parametrize("n, deg_cap", [(2, 3), (3, 3), (4, 3), (5, 3), (2, 4), (3, 4), (4, 4)])
def test_generic_prescreen_equals_extract_constraints(n, deg_cap):
    prescreen = solver.GenericPrescreen()
    specs = [s for s in enumerate_supports(n, 3, deg_cap) if s.max_degree() >= 3]
    assert specs
    for spec in specs:
        assert prescreen.system(spec) == extract_constraints(spec, spec.max_degree() - 1), spec


def test_generic_prescreen_is_built_per_sweep_and_per_dimension(monkeypatch):
    builds, snapshots = [], []
    real_build, real_system = solver._generic_residual, solver.GenericPrescreen.system

    def build_spy(n, d):
        builds.append((n, d))
        return real_build(n, d)

    def system_spy(self, spec):
        system = real_system(self, spec)
        snapshots.append((self, self.n, sorted(self.generic)))
        return system

    monkeypatch.setattr(solver, "_generic_residual", build_spy)
    monkeypatch.setattr(solver.GenericPrescreen, "system", system_spy)
    first = sweep([2, 3], 2, deg_cap=4)
    assert builds == [(2, 3), (2, 4), (3, 3), (3, 4)]
    assert sweep([2, 3], 2, deg_cap=4) == first
    assert builds == [(2, 3), (2, 4), (3, 3), (3, 4)] * 2
    # one cache per sweep, and a new dimension empties it
    assert len({id(cache) for cache, _, _ in snapshots}) == 2
    for (cache, n, held), (prev_cache, prev_n, _) in zip(snapshots[1:], snapshots):
        if cache is prev_cache and n != prev_n:
            assert len(held) == 1, (n, held)


def test_sweep_at_its_floor_decides_every_entry():
    report = sweep([2], 1, deg_cap=3)
    assert report.counts() == {"SOLVED": 2, "INFEASIBLE": 3, "UNRESOLVED": 0, "SHORTCUT": 0}


def test_sweep_refuses_more_candidate_supports_than_its_cap(monkeypatch):
    calls = []
    monkeypatch.setattr(solver, "enumerate_supports", lambda *args: calls.append(args) or [])
    # 42 monomials of degree 2..8 in two variables: sum_{j <= 8} C(42, j)
    assert solver.candidate_support_count(2, 8, 8) == sum(comb(42, j) for j in range(9)) > 10 ** 8
    with pytest.raises(ValueError, match=f"dimension 2 has 151229281 candidate supports .* cap of {solver.MAX_CANDIDATE_SUPPORTS}"):
        sweep([2], 8, deg_cap=8)
    # the n = 7, k = 4, degree <= 4 sweep that once grew past 4 GB
    with pytest.raises(ValueError, match=f"dimension 7 has {solver.candidate_support_count(7, 4, 4)} candidate"):
        sweep([7], 4, deg_cap=4)
    assert calls == []


@pytest.mark.parametrize("dims, deg_cap", [([1], 34), ([2], 16)])
def test_sweep_refuses_a_degree_cap_above_its_cap(dims, deg_cap):
    # without the cap these ran 32 s and over 200 s, nearly all in building
    # generic residuals
    start = time.perf_counter()
    with pytest.raises(ValueError, match=f"degree cap {deg_cap} is above the cap of {solver.MAX_SWEEP_DEG_CAP}"):
        sweep(dims, 1, deg_cap=deg_cap)
    assert time.perf_counter() - start < 1


def test_sweep_refuses_a_codimension_above_its_cap():
    # the candidate cap admits this one (n = 1 has 5 monomials of degree
    # 2..6); the codimension cap refuses it before counting
    assert solver.candidate_support_count(1, 9, 6) <= solver.MAX_CANDIDATE_SUPPORTS
    with pytest.raises(ValueError, match=f"codimension 9 is above the cap of {solver.MAX_SWEEP_CODIM}"):
        sweep([1], 9, deg_cap=6)
    solver.check_sweep_work([1], solver.MAX_SWEEP_CODIM, 6)


def test_sweep_refuses_a_degree_cap_below_2():
    # the climb would start above its top deg_cap + 2
    with pytest.raises(ValueError, match="degree cap -1 is below 2"):
        sweep([2], 0, deg_cap=-1)


def test_sweep_refuses_a_negative_codimension(monkeypatch):
    # once it returned a report with k_max -1
    monkeypatch.setattr(solver, "enumerate_supports", lambda *args: pytest.fail("enumerated"))
    with pytest.raises(ValueError, match="codimension -1 is below 0"):
        sweep([2], -1)


def test_check_sweep_work_resolves_the_degree_cap():
    assert solver.check_sweep_work([2], 1) == 2
    assert solver.check_sweep_work([2], 3) == 3
    assert solver.check_sweep_work([2], 1, 4) == 4
    for dims in ([], [0, 2], [2, solver.MAX_DIMENSION + 1]):
        with pytest.raises(ValueError, match=f"dimensions must lie in 1..{solver.MAX_DIMENSION}"):
            solver.check_sweep_work(dims, 1)


def test_candidate_support_cap_admits_the_documented_sweeps():
    cap = solver.MAX_CANDIDATE_SUPPORTS
    assert solver.candidate_support_count(6, 3, 4) == 1394408 <= cap
    assert solver.candidate_support_count(8, 3, 3) == 632867 <= cap
    solver.check_sweep_work(range(1, 7), 3, 4)
    solver.check_sweep_work(range(1, 9), 3, 3)
    # dimensions above 2 k_max are not enumerated, so they are not counted
    # and their degree is not capped
    solver.check_sweep_work([8], 2, 8)
    solver.check_sweep_work([1, 2], 1, solver.MAX_SWEEP_DEG_CAP)
    with pytest.raises(ValueError, match="degree cap"):
        solver.check_sweep_work([1, 8], 2, solver.MAX_SWEEP_DEG_CAP + 1)
    assert solver.candidate_support_count(8, 3, 4) > cap
