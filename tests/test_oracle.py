import random
from fractions import Fraction

import pytest

from rotke import PotentialSpec, build_potential, det_numerator
from rotke.oracle import (
    ORACLE_MAX_DIMENSION,
    potential_bipoly,
    rotation_project,
    zspace_det_numerator,
)

from conftest import cpn_unit, rand_spec


def xspace_det_terms(spec):
    P = build_potential(spec, spec.n * (2 * spec.max_degree() - 1))
    return {m: c.constant_value() for m, c in det_numerator(P).terms.items() if not c.is_zero()}


def oracle_det_terms(spec):
    det = zspace_det_numerator(spec)
    assert det.is_rotation_invariant()
    return {m: c for m, c in rotation_project(det).items() if c}


class TestEquivalence:
    def test_model_specs(self, veronese, segre):
        for spec in (cpn_unit(1), cpn_unit(2), veronese, segre):
            assert xspace_det_terms(spec) == oracle_det_terms(spec)

    def test_randomized_specs(self):
        rng = random.Random(31)
        checked = 0
        while checked < 60:
            spec = rand_spec(rng, n=rng.choice((1, 2)), signed=rng.random() < 0.5)
            assert xspace_det_terms(spec) == oracle_det_terms(spec), spec
            checked += 1

    def test_three_dimensional_spot_check(self):
        spec = PotentialSpec(3, (((1, 1, 0), Fraction(1, 3)), ((0, 0, 2), Fraction(2))))
        assert xspace_det_terms(spec) == oracle_det_terms(spec)


class TestOracleInternals:
    def test_potential_is_rotation_invariant(self, rng):
        for _ in range(20):
            spec = rand_spec(rng, n=2)
            assert potential_bipoly(spec).is_rotation_invariant()

    def test_determinant_is_rotation_invariant(self, rng):
        # the full Leibniz determinant must project losslessly
        for _ in range(10):
            spec = rand_spec(rng, n=2)
            assert zspace_det_numerator(spec).is_rotation_invariant()

    def test_dimension_refusal(self):
        spec = cpn_unit(ORACLE_MAX_DIMENSION + 1)
        with pytest.raises(ValueError):
            zspace_det_numerator(spec)
