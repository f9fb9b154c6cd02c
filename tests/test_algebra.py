import math
import random
from fractions import Fraction

import pytest

from rotke.algebra import (
    CoefPoly,
    Unknown,
    format_rational,
    fraction_terms_repr,
    grlex_key,
    monomials_of_degree,
    monomials_up_to,
    parse_rational,
    support_unknown,
    validate_multiindex,
)
from rotke.oracle import mi_permute

from conftest import rand_coefpoly, rand_fraction


class TestRationalStrings:
    def test_round_trip(self):
        rng = random.Random(11)
        for _ in range(200):
            f = rand_fraction(rng, max_abs=1000, max_den=997)
            assert parse_rational(format_rational(f)) == f

    def test_lowest_terms_output(self):
        assert format_rational(Fraction(6, 4)) == "3/2"
        assert format_rational(Fraction(-6, 3)) == "-2"
        assert format_rational(Fraction(0)) == "0"

    @pytest.mark.parametrize("bad", ["0.5", "1e3", "1E-2", "3.0/2", "", "one", "1/0", None])
    def test_rejects_inexact_or_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_rational(bad)

    def test_accepts_plain_and_signed(self):
        assert parse_rational("-7/3") == Fraction(-7, 3)
        assert parse_rational(" 4 ") == 4


class TestMultiIndices:
    def test_grlex_refines_degree(self):
        rng = random.Random(12)
        for _ in range(200):
            a = tuple(rng.randint(0, 4) for _ in range(3))
            b = tuple(rng.randint(0, 4) for _ in range(3))
            if sum(a) < sum(b):
                assert grlex_key(a) < grlex_key(b)

    def test_grlex_total_order(self):
        ms = list(monomials_up_to(2, 3))
        ordered = sorted(ms, key=grlex_key)
        assert len(set(ordered)) == len(ordered)
        degs = [sum(m) for m in ordered]
        assert degs == sorted(degs)

    def test_monomial_counts(self):
        for n in (1, 2, 3):
            for d in (0, 1, 2, 3, 4):
                expected = math.comb(n + d - 1, d)
                assert len(list(monomials_of_degree(n, d))) == expected

    def test_validate(self):
        assert validate_multiindex([1, 0, 2], 3) == (1, 0, 2)
        with pytest.raises(ValueError):
            validate_multiindex((1, 2), 3)
        with pytest.raises(ValueError):
            validate_multiindex((1, -1), 2)

    def test_permute(self):
        assert mi_permute((3, 1, 0), (2, 0, 1)) == (0, 3, 1)
        # applying a permutation and its inverse is the identity
        assert mi_permute(mi_permute((3, 1, 0), (2, 0, 1)), (1, 2, 0)) == (3, 1, 0)


class TestUnknowns:
    def test_support_unknown_carries_index(self):
        u = support_unknown((2, 0))
        assert u.kind == "support"
        assert u.index == (2, 0)

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError):
            Unknown("x", "mystery")
        with pytest.raises(ValueError):
            Unknown("x", "support")  # missing index


class TestCoefPolyRingLaws:
    """Exact ring laws over randomized sparse polynomials."""

    def test_ring_laws(self):
        rng = random.Random(13)
        for _ in range(120):
            a = rand_coefpoly(rng)
            b = rand_coefpoly(rng)
            c = rand_coefpoly(rng)
            assert (a + b) + c == a + (b + c)
            assert a + b == b + a
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + CoefPoly() == a
            assert a * CoefPoly.const(1) == a
            assert a - a == CoefPoly()

    def test_pow_matches_repeated_multiplication(self):
        rng = random.Random(14)
        for _ in range(60):
            a = rand_coefpoly(rng)
            expected = CoefPoly.const(1)
            for k in range(5):
                assert a ** k == expected
                expected = expected * a

    def test_evaluate_is_homomorphism(self):
        rng = random.Random(15)
        for _ in range(100):
            a = rand_coefpoly(rng)
            b = rand_coefpoly(rng)
            point = {"a": rand_fraction(rng), "b": rand_fraction(rng)}
            assert (a * b).evaluate(point) == a.evaluate(point) * b.evaluate(point)
            assert (a + b).evaluate(point) == a.evaluate(point) + b.evaluate(point)

    def test_substitute_then_evaluate(self):
        rng = random.Random(16)
        for _ in range(60):
            a = rand_coefpoly(rng)
            g = rand_coefpoly(rng, names=("b",))
            point = {"b": rand_fraction(rng)}
            subbed = a.substitute({"a": g})
            expected = a.evaluate({"a": g.evaluate(point), "b": point["b"]})
            assert subbed.evaluate(point) == expected

    @staticmethod
    def substitute_term_by_term(p, binding):
        out = CoefPoly()
        for mono, c in p.terms.items():
            term = CoefPoly.const(c)
            for name, e in mono:
                val = binding.get(name, CoefPoly.var(name))
                if not isinstance(val, CoefPoly):
                    val = CoefPoly.const(val)
                for _ in range(e):
                    term = term * val
            out = out + term
        return out

    def test_substitute_matches_term_by_term(self):
        rng = random.Random(17)
        names = ("a", "b", "c")
        for _ in range(200):
            p = rand_coefpoly(rng, names=names, max_terms=6)
            binding = {}
            for name in rng.sample(names, rng.randint(1, 3)):
                binding[name] = rng.choice(
                    [rand_coefpoly(rng, names=("b", "d")), rand_fraction(rng), rng.randint(-2, 2)]
                )
            assert p.substitute(binding) == self.substitute_term_by_term(p, binding), (p, binding)

    def test_substitute_cancels_to_zero(self):
        a, b, c = (CoefPoly.var(name) for name in "abc")
        cases = [
            (a ** 2 - b ** 2, {"a": b}),  # a bound term cancels an unbound one
            (a ** 3 * c - c.scale(8), {"a": 2}),
            (a ** 2 * b - b.scale(Fraction(1, 9)), {"a": Fraction(-1, 3)}),
            (a ** 2 - b ** 4 + c, {"a": b ** 2, "c": 0}),
        ]
        for p, binding in cases:
            assert not p.is_zero()
            assert p.substitute(binding).is_zero()


class TestCoefPolyNormalization:
    def test_normalized_is_canonical_for_scalings(self):
        rng = random.Random(17)
        for _ in range(80):
            a = rand_coefpoly(rng)
            if a.is_zero():
                continue
            k = rand_fraction(rng, nonzero=True)
            assert a.normalized() == a.scale(k).normalized()

    def test_proportional_to(self):
        rng = random.Random(18)
        for _ in range(80):
            a = rand_coefpoly(rng)
            if a.is_zero():
                continue
            assert a.proportional_to(a.scale(Fraction(-7, 3)))
            assert not a.proportional_to(a + CoefPoly.var("zzz"))

    def test_common_monomial_division(self):
        x = CoefPoly.var("a")
        y = CoefPoly.var("b")
        p = x * x * y + x * y * y  # common factor ab
        mono = p.common_monomial()
        assert mono == (("a", 1), ("b", 1))
        assert p.divide_monomial(mono) == x + y


class TestCoefficientTypes:
    """Integral coefficients are stored as int, everything else as Fraction;
    the two must be indistinguishable through the public interface."""

    def test_integral_values_stored_as_int(self):
        assert type(CoefPoly.const(Fraction(6, 2)).terms[()]) is int
        assert type(CoefPoly.const(Fraction(1, 2)).terms[()]) is Fraction
        p = CoefPoly.var("a").scale(Fraction(1, 2)).scale(4)
        assert type(p.terms[(("a", 1),)]) is int
        q = (CoefPoly.var("a").scale(Fraction(2, 3)) + CoefPoly.const(Fraction(4, 9))).normalized()
        assert all(type(c) is int for c in q.terms.values())
        assert q == CoefPoly.var("a").scale(3) + CoefPoly.const(2)

    def test_constant_value_is_fraction(self):
        for p in (CoefPoly.const(3), CoefPoly.const(Fraction(3, 4)), CoefPoly()):
            assert type(p.constant_value()) is Fraction
        assert type(CoefPoly.var("a").evaluate({"a": 2})) is Fraction

    def test_int_and_fraction_coefficients_agree(self):
        mono = (("a", 2),)
        as_int = CoefPoly({mono: 3, (): -1})
        as_fraction = CoefPoly({mono: Fraction(3), (): Fraction(-1)})
        assert as_int == as_fraction
        assert hash(as_int) == hash(as_fraction)
        assert repr(as_int) == repr(as_fraction)
        assert as_int.normalized() == as_fraction.normalized()


    def test_fraction_terms_repr_matches_fraction_list_repr(self):
        rng = random.Random(12)
        for i in range(300):
            p = rand_coefpoly(rng, names=("a", "b", "c(1,2)"), max_terms=5)
            if i % 3 == 0:  # integral coefficients stored as Fraction, not int
                p = CoefPoly({u: Fraction(v) for u, v in p.terms.items()})
            elif i % 3 == 1:
                p = p.scale(-rng.randint(1, 9))
            old = repr([(u, Fraction(v)) for u, v in sorted(p.terms.items())])
            assert fraction_terms_repr(p) == old
        assert fraction_terms_repr(CoefPoly()) == "[]"
        assert fraction_terms_repr(CoefPoly({(): -3})) == "[((), Fraction(-3, 1))]"
