"""Acceptance gate: the eight headline checks, each printed PASS on success,
and the pinned bytes of the sweep report.

Run with `pytest tests/test_acceptance.py -v -s`.  The classification sweep
over dimensions 2..6 dominates the runtime (about 3 s on a 2-core machine);
it is computed once and shared.
"""

import hashlib
import random
from fractions import Fraction

import pytest

from rotke import (
    EinsteinCandidate,
    PotentialSpec,
    Series,
    build_potential,
    certify_exact,
    degree_bound_lambda,
    det_numerator,
    extract_constraints,
    series_diff,
    series_exp,
    series_log1p,
    solve_system,
    sweep,
)
from rotke.algebra import (
    CoefPoly,
    EINSTEIN_NAME,
    monomials_of_degree,
    support_unknown,
)
from rotke.cli import main
from rotke.oracle import rotation_project, zspace_det_numerator
from rotke.reports import render_json, sweep_payload
from rotke.solver import enumerate_supports

from conftest import cpn_unit, rand_series, rand_spec

VERONESE = PotentialSpec(
    2, (((0, 2), Fraction(1, 4)), ((1, 1), Fraction(1, 2)), ((2, 0), Fraction(1, 4)))
)
SEGRE = PotentialSpec(2, (((1, 1), Fraction(1)),))


@pytest.fixture(scope="module")
def full_sweep():
    return sweep(range(2, 7), 3, deg_cap=3)


def done(label):
    print(f"[acceptance] {label}: PASS")


def test_criterion_1_model_space_certificates():
    cases = [(cpn_unit(2), Fraction(6)), (VERONESE, Fraction(3)), (SEGRE, Fraction(4))]
    cases += [(cpn_unit(n), Fraction(2 * (n + 1))) for n in range(1, 7)]
    for spec, lam in cases:
        cert = certify_exact(EinsteinCandidate(spec, lam))
        assert cert.status == "PASS", (spec, lam)
        assert cert.lhs_hash == cert.rhs_hash
    done("1 model-space certificates (exact, truncation-free)")


def test_criterion_2_linear_constraint_block():
    lam = CoefPoly.var(EINSTEIN_NAME)
    for n in (2, 3, 4):
        spec = PotentialSpec.symbolic(n, list(monomials_of_degree(n, 2)))
        system = extract_constraints(spec, 3)
        degree_one = {
            m: eq for m, eq in zip(system.residual_monomials, system.equations) if sum(m) == 1
        }
        assert len(degree_one) == n
        for m, eq in degree_one.items():
            h = m.index(1)
            expected = CoefPoly.const(-(n + 1)) + lam.scale(Fraction(1, 2))
            expected = expected + CoefPoly.var(
                support_unknown(tuple(2 if i == h else 0 for i in range(n))).name
            ).scale(4)
            for k in range(n):
                if k != h:
                    mixed = tuple(1 if i in (h, k) else 0 for i in range(n))
                    expected = expected + CoefPoly.var(support_unknown(mixed).name)
            assert eq.proportional_to(expected), (n, m)
    done("2 linear constraint block matches the displayed systems (n=2,3,4)")


def test_criterion_3_case_analysis_relations():
    lam = CoefPoly.var(EINSTEIN_NAME)
    uname = lambda m: support_unknown(m).name

    # cubic branch: quadratic part pinned to the mixed term with b = 3 - lambda/2
    spec = PotentialSpec.symbolic(2, [(1, 1), (3, 0), (0, 3), (1, 2), (2, 1)])
    system = dict(
        zip(*(lambda s: (s.residual_monomials, s.equations))(extract_constraints(spec, 5)))
    )
    pin = {uname((1, 1)): CoefPoly.const(3) - lam.scale(Fraction(1, 2))}
    e02 = system[(0, 2)].substitute(pin).normalized()
    e11 = system[(1, 1)].substitute(pin).normalized()
    e20 = system[(2, 0)].substitute(pin).normalized()
    d12, d21 = CoefPoly.var(uname((1, 2))), CoefPoly.var(uname((2, 1)))
    c1, c2 = CoefPoly.var(uname((3, 0))), CoefPoly.var(uname((0, 3)))
    assert (e11 - e20).proportional_to(d12 - c1.scale(9))
    assert (e11 - e02).proportional_to(d21 - c2.scale(9))

    # square branch: no mixed quadratic term; positivity gives the witness
    branch = PotentialSpec.symbolic(2, [(2, 0), (0, 2), (1, 2), (2, 1)])
    outcome = solve_system(extract_constraints(branch, 5))
    assert outcome.status == "INFEASIBLE"
    names = sorted(outcome.witness.unknowns())
    # one pure-square coefficient plus both cubic cross coefficients
    assert names in (
        [uname((0, 2)), uname((1, 2)), uname((2, 1))],
        [uname((1, 2)), uname((2, 0)), uname((2, 1))],
    )
    expected = sum((CoefPoly.var(nm) for nm in names), CoefPoly())
    assert outcome.witness.proportional_to(expected)
    done("3 case-analysis relations (d = 9c; infeasible square branch)")


def test_criterion_4_classification_sweep(full_sweep):
    counts = full_sweep.counts()
    assert counts["UNRESOLVED"] == 0
    assert not full_sweep.has_unknown()
    expected = {(n, "CPn_unit") for n in range(2, 7)}
    expected |= {(2, "CPn_scaled(2)"), (2, "ProductOfLines")}
    assert full_sweep.solved_tags() == expected
    for entry in full_sweep.entries:
        for sol in entry.solutions:
            assert sol.certificate == "PASS"
    done(
        "4 sweep dims 2..6, k<=3, deg<=3: "
        f"{counts['SOLVED']} solved / {counts['INFEASIBLE']} infeasible, models exact"
    )


def test_criterion_5_einstein_constant_bounds(full_sweep):
    # every solved candidate obeys the rationality and range constraints
    solved = 0
    for entry in full_sweep.entries:
        for sol in entry.solutions:
            assert isinstance(sol.lam, Fraction)
            assert 0 < sol.lam <= 2 * (entry.n + 1)
            spec = PotentialSpec.symbolic(entry.n, entry.support).substitute(
                {name: v for name, v in sol.assignment if name != EINSTEIN_NAME}
            )
            assert sol.lam >= degree_bound_lambda(spec)
            solved += 1
    assert solved >= 7

    # the bound formula on three hand cases
    assert degree_bound_lambda(cpn_unit(2)) == 4
    assert degree_bound_lambda(VERONESE) == 2
    assert degree_bound_lambda(
        PotentialSpec(2, (((3, 0), Fraction(1, 27)),), induced=False)
    ) == Fraction(4, 3)

    # random supports: rejected ones satisfy the bound vacuously
    rng = random.Random(51)
    pool = enumerate_supports(2, 3, 3) + enumerate_supports(3, 2, 3)
    rejected = 0
    for spec in (rng.choice(pool) for _ in range(100)):
        outcome = solve_system(extract_constraints(spec, spec.max_degree() + 1))
        if outcome.status == "INFEASIBLE":
            rejected += 1
        elif outcome.status == "SOLVED":
            for sol in outcome.solution_dicts():
                lam = sol[EINSTEIN_NAME]
                numeric = spec.substitute(
                    {k: v for k, v in sol.items() if k != EINSTEIN_NAME}
                )
                assert lam >= degree_bound_lambda(numeric)
    assert rejected >= 50
    done(f"5 Einstein-constant bounds on all solved candidates ({rejected} rejected specs)")


def test_criterion_6_oracle_equivalence():
    rng = random.Random(52)
    for i in range(55):
        spec = rand_spec(rng, n=rng.choice((1, 2)), signed=rng.random() < 0.5)
        P = build_potential(spec, spec.n * (2 * spec.max_degree() - 1))
        fast = {m: c.constant_value() for m, c in det_numerator(P).terms.items() if not c.is_zero()}
        det = zspace_det_numerator(spec)
        assert det.is_rotation_invariant(), spec
        slow = {m: c for m, c in rotation_project(det).items() if c}
        assert fast == slow, spec
    done("6 x-space vs z-space determinant agreement on 55 random specs")


def test_criterion_7_algebra_property_suite():
    rng = random.Random(53)
    one = lambda s: Series.one(s.n, s.trunc)
    for _ in range(110):
        n = rng.choice((1, 2))
        a, b, c = (rand_series(rng, n=n, trunc=6) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        u = a - Series(n, 6, {(0,) * n: a.coeff((0,) * n)})
        assert series_exp(series_log1p(u)) - one(u) == u
        assert series_log1p(series_exp(u) - one(u)) == u
        alpha = rng.randint(1, n)
        lhs = series_diff(a * b, alpha).truncate(5)
        assert lhs == (series_diff(a, alpha) * b + a * series_diff(b, alpha)).truncate(5)
    done("7 ring laws, log/exp inversion, Leibniz rule on 110 random series")


def test_criterion_8_deterministic_parallel_reports(tmp_path):
    files = []
    for jobs in ("1", "8"):
        out = tmp_path / f"sweep-jobs{jobs}.json"
        rc = main(
            [
                "sweep",
                "--dims",
                "2..3",
                "--max-codim",
                "3",
                "--deg-cap",
                "3",
                "--jobs",
                jobs,
                "--format",
                "json",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        files.append(out.read_bytes())
    assert files[0] == files[1]
    done("8 sweep reports byte-identical across 1 and 8 workers")


def test_acceptance_report_bytes_are_pinned(full_sweep):
    # the same under every hash seed, and through every refactor that does
    # not mean to change the report
    digest = hashlib.sha256(render_json(sweep_payload(full_sweep)).encode()).hexdigest()
    assert digest == "24d9974db281133c67fea481efe37d5cd04382da2a37dded06664c7ee4bb2b44"
