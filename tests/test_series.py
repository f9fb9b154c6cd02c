import random
from fractions import Fraction
from math import factorial, lcm

import pytest

from rotke import Series, series_diff, series_exp, series_log1p
from rotke.algebra import CoefPoly
from rotke.series import log1p_numerator

from conftest import cauchy_product, rand_edge_series, rand_fraction, rand_series

TRUNCS = (1, 2, 3, 5, 8, 13, 32)  # up to cli.MAX_DEGREE


class TestRingLaws:
    def test_commutative_ring(self):
        rng = random.Random(21)
        for _ in range(120):
            n = rng.choice((1, 2, 3))
            a = rand_series(rng, n=n)
            b = rand_series(rng, n=n)
            c = rand_series(rng, n=n)
            assert (a + b) + c == a + (b + c)
            assert a + b == b + a
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + Series.zero(n, a.trunc) == a
            assert a * Series.one(n, a.trunc) == a
            assert a - a == Series.zero(n, a.trunc)

    def test_symbolic_coefficients_too(self):
        rng = random.Random(22)
        for _ in range(40):
            a = rand_series(rng, numeric=False)
            b = rand_series(rng, numeric=False)
            assert a * b == b * a
            assert (a + b) - b == a

    def test_pow_trunc(self):
        rng = random.Random(23)
        for i in range(120):
            a = rand_series(rng, numeric=i % 2 == 0)
            constant = (0,) * a.n
            if i % 3 == 1:  # a rational constant term other than 1
                a = a - Series(a.n, a.trunc, {constant: a.coeff(constant)})
                a = a + Series(a.n, a.trunc, {constant: rand_fraction(rng, nonzero=True) + 1})
            elif i % 3 == 2:  # a symbolic constant term: repeated squaring
                a = a + Series(a.n, a.trunc, {constant: CoefPoly.var("c")})
            acc = Series.one(a.n, a.trunc)
            for k in range(6):
                assert a.pow_trunc(k) == acc
                acc = acc * a


    def test_first_power_is_the_series_itself(self, monkeypatch):
        monkeypatch.setattr(Series, "mul_trunc", lambda *args: pytest.fail("pow_trunc(1) multiplied"))
        rng = random.Random(24)
        for i in range(10):
            a = rand_series(rng, numeric=i % 2 == 0)
            assert a.pow_trunc(1) is a
    def test_mul_truncates_consistently(self):
        rng = random.Random(24)
        for _ in range(60):
            a = rand_series(rng, trunc=7)
            b = rand_series(rng, trunc=7)
            wide = a * b
            assert (a.truncate(4) * b.truncate(4)) == wide.truncate(4)


class TestPackedKernels:
    """The kernels pack x^m into sum_i m_i B^i with B = trunc + 1; each is
    compared with `cauchy_product` on exponent tuples, for n = 1..8 and
    truncations up to 32, on monomials that use the top digit B - 1."""

    @staticmethod
    def meeting_at(rng, a, b, cap):
        """a and b plus x_i^j and x_i^(cap - j): a product that lands exactly
        on degree cap, with exponent cap in one digit."""
        i, j = rng.randrange(a.n), rng.randint(0, cap)

        def power(e):
            return Series(a.n, a.trunc, {tuple(e if k == i else 0 for k in range(a.n)): rand_fraction(rng, nonzero=True)})

        return a + power(j), b + power(cap - j)

    def test_product_and_capped_product(self):
        rng = random.Random(41)
        for trial in range(240):
            n, trunc = rng.randint(1, 8), rng.choice(TRUNCS)
            numeric = trial % 3 != 0
            a = rand_edge_series(rng, n, trunc, numeric)
            b = rand_edge_series(rng, n, trunc, numeric)
            full_a, full_b = self.meeting_at(rng, a, b, trunc)
            assert full_a * full_b == cauchy_product(full_a, full_b, trunc)
            cap = rng.randint(0, trunc - 1) if trunc > 1 else 0
            cap_a, cap_b = self.meeting_at(rng, a, b, cap)
            assert cap_a.mul_trunc(cap_b, cap) == cauchy_product(cap_a, cap_b, cap)

    def test_pow_trunc(self):
        rng = random.Random(42)
        for trial in range(120):
            n, trunc = rng.randint(1, 8), rng.choice(TRUNCS)
            numeric = trial % 3 != 0
            a = rand_edge_series(rng, n, trunc, numeric, max_terms=4)
            constant = (0,) * n
            if trial % 2:  # a nonzero numeric constant term: the degree recurrence
                a = a - Series(n, trunc, {constant: a.coeff(constant)})
                a = a + Series(n, trunc, {constant: rand_fraction(rng, nonzero=True)})
            power = Series.one(n, trunc)
            for k in range(5):
                assert a.pow_trunc(k) == power, (a, k)
                power = cauchy_product(power, a, trunc)

    @staticmethod
    def power_sums(u, trunc):
        """(sum_j (-1)^(j+1) u^j / j, sum_j u^j / j!) with the powers of u by
        `cauchy_product`."""
        log_sum, exp_sum = Series.zero(u.n, trunc), Series.one(u.n, trunc)
        power = Series.one(u.n, trunc)
        for j in range(1, trunc + 1):
            power = cauchy_product(power, u, trunc)
            if power.is_zero():
                break
            log_sum = log_sum + power.scale(Fraction((-1) ** (j + 1), j))
            exp_sum = exp_sum + power.scale(Fraction(1, factorial(j)))
        return log_sum, exp_sum

    def test_log1p_numerator_and_exp(self):
        rng = random.Random(43)
        for trial in range(60):
            numeric = trial % 3 != 0
            n = rng.randint(1, 8)
            trunc = rng.choice(TRUNCS) if numeric else rng.choice(TRUNCS[:4])
            u = rand_edge_series(rng, n, trunc, numeric, max_terms=2, constant=False)
            u = u + Series.variable(n, trunc, rng.randint(1, n)).scale(rand_fraction(rng, nonzero=True))
            log_sum, exp_sum = self.power_sums(u, trunc)
            N, NL = log1p_numerator(u)
            assert N == lcm(*range(1, trunc + 1))
            assert NL == log_sum.scale(N)
            assert series_exp(u) == exp_sum


class TestLogExp:
    def test_exp_inverts_log1p(self):
        rng = random.Random(25)
        for _ in range(110):
            u = rand_series(rng, n=rng.choice((1, 2)), trunc=6)
            u = u - Series(u.n, u.trunc, {(0,) * u.n: u.coeff((0,) * u.n)})
            assert series_exp(series_log1p(u)) - Series.one(u.n, u.trunc) == u

    def test_log1p_inverts_exp(self):
        rng = random.Random(26)
        for _ in range(110):
            u = rand_series(rng, n=rng.choice((1, 2)), trunc=6)
            u = u - Series(u.n, u.trunc, {(0,) * u.n: u.coeff((0,) * u.n)})
            assert series_log1p(series_exp(u) - Series.one(u.n, u.trunc)) == u

    def test_log_of_product_is_sum(self):
        rng = random.Random(27)
        for _ in range(60):
            u = rand_series(rng, trunc=6)
            v = rand_series(rng, trunc=6)
            one = Series.one(2, 6)
            u = u - Series(2, 6, {(0, 0): u.coeff((0, 0))})
            v = v - Series(2, 6, {(0, 0): v.coeff((0, 0))})
            lhs = series_log1p((one + u) * (one + v) - one)
            assert lhs == series_log1p(u) + series_log1p(v)

    def test_match_power_sums(self):
        rng = random.Random(31)
        for i in range(60):
            u = rand_series(rng, n=rng.choice((1, 2)), trunc=6, numeric=i % 2 == 0)
            u = u - Series(u.n, u.trunc, {(0,) * u.n: u.coeff((0,) * u.n)})
            log_sum = Series.zero(u.n, u.trunc)
            exp_sum = Series.one(u.n, u.trunc)
            power = Series.one(u.n, u.trunc)
            factorial = 1
            for k in range(1, u.trunc + 1):
                power = power * u
                factorial *= k
                log_sum = log_sum + power.scale(Fraction((-1) ** (k + 1), k))
                exp_sum = exp_sum + power.scale(Fraction(1, factorial))
            assert series_log1p(u) == log_sum
            assert series_exp(u) == exp_sum

    def test_nonzero_constant_term_rejected(self):
        u = Series.one(2, 4)
        with pytest.raises(ValueError):
            series_log1p(u)
        with pytest.raises(ValueError):
            series_exp(u)


class TestDifferentiation:
    def test_leibniz_rule(self):
        rng = random.Random(28)
        for _ in range(110):
            n = rng.choice((1, 2, 3))
            f = rand_series(rng, n=n, trunc=6)
            g = rand_series(rng, n=n, trunc=6)
            alpha = rng.randint(1, n)
            lhs = series_diff(f * g, alpha).truncate(5)
            rhs = (series_diff(f, alpha) * g + f * series_diff(g, alpha)).truncate(5)
            assert lhs == rhs

    def test_mixed_partials_commute(self):
        rng = random.Random(29)
        for _ in range(60):
            f = rand_series(rng, n=2, trunc=6)
            d12 = series_diff(series_diff(f, 1), 2).truncate(4)
            d21 = series_diff(series_diff(f, 2), 1).truncate(4)
            assert d12 == d21

    def test_monomial_derivative(self):
        x1 = Series.variable(2, 5, 1)
        x2 = Series.variable(2, 5, 2)
        f = x1.pow_trunc(3) * x2  # x1^3 x2
        assert series_diff(f, 1) == (x1.pow_trunc(2) * x2).scale(3)
        assert series_diff(f, 2) == x1.pow_trunc(3)


class TestStructure:
    def test_truncate_never_widens(self):
        s = Series(2, 3, {(1, 0): Fraction(1)})
        with pytest.raises(ValueError):
            s.truncate(4)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Series.one(2, 3) + Series.one(3, 3)

    def test_substitute_unknowns(self):
        s = Series(2, 3, {(1, 0): CoefPoly.var("a"), (0, 1): Fraction(2)})
        t = s.substitute({"a": Fraction(5)})
        assert t.coeff((1, 0)).constant_value() == 5
        assert t.coeff((0, 1)).constant_value() == 2

    def test_scale_by_rational(self):
        rng = random.Random(30)
        for _ in range(40):
            s = rand_series(rng)
            k = rand_fraction(rng)
            assert s.scale(k) == s.scale(k // 1) + s.scale(k - k // 1)
