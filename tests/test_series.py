import math
import random
from fractions import Fraction

import pytest

from rotke import Series, series, series_diff, series_exp, series_log1p
from rotke.algebra import CoefPoly
from rotke.geometry import _poly_hash

from conftest import rand_fraction, rand_series


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

    def test_mul_truncates_consistently(self):
        rng = random.Random(24)
        for _ in range(60):
            a = rand_series(rng, trunc=7)
            b = rand_series(rng, trunc=7)
            wide = a * b
            assert (a.truncate(4) * b.truncate(4)) == wide.truncate(4)


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


def recurrence_pow(s, k, monkeypatch):
    """s^k by the degree recurrence, the packed path switched off."""
    with monkeypatch.context() as mp:
        mp.setattr(series, "_pack_sizes", lambda f, k: None)
        return s.pow_trunc(k)


def rand_unit_series(rng, n, trunc, max_exp=3, max_terms=6):
    """A random numeric series with a nonzero constant term and negative and
    rational coefficients."""
    terms = {(0,) * n: rand_fraction(rng, max_abs=9, max_den=7, nonzero=True)}
    for _ in range(rng.randint(0, max_terms)):
        m = tuple(rng.randint(0, max_exp) for _ in range(n))
        if sum(m) <= trunc:
            terms[m] = rand_fraction(rng, max_abs=40, max_den=9)
    return Series(n, trunc, terms)


class TestPackedPower:
    """The Kronecker-substitution power against the degree recurrence."""

    def test_kernel_matches_recurrence(self, monkeypatch):
        rng = random.Random(31)
        checked = set()
        for _ in range(300):
            n, k = rng.randint(1, 4), rng.randint(2, 9)
            s = rand_unit_series(rng, n, rng.randint(1, 9), max_exp=3 if n < 3 else 1)
            full = k * s.degree()
            sizes = [k * max(m[i] for m in s.terms) + 1 for i in range(n)]
            D = math.lcm(*(c.terms[()].denominator for c in s.terms.values()))
            want = recurrence_pow(s, k, monkeypatch)
            got = series._pow_packed(s, k, D, sizes)
            assert got == want
            assert _poly_hash(got) == _poly_hash(want)
            checked.add((n, s.trunc < full))
        assert checked == {(n, below) for n in range(1, 5) for below in (False, True)}

    def test_pow_trunc_picks_a_path_with_equal_results(self, monkeypatch):
        rng = random.Random(32)
        packed = []
        real = series._pow_packed
        monkeypatch.setattr(series, "_pow_packed", lambda *a: packed.append(a) or real(*a))
        for _ in range(200):
            n, k = rng.randint(1, 4), rng.randint(2, 9)
            s = rand_unit_series(rng, n, rng.randint(1, 9))
            got = s.pow_trunc(k)
            want = recurrence_pow(s, k, monkeypatch)
            assert got == want
            assert _poly_hash(got) == _poly_hash(want)
        assert {a[0].n for a in packed} == {1, 2, 3, 4}
        assert 0 < len(packed) < 200

    def test_n2_packs_and_dense_n7_keeps_the_recurrence(self, monkeypatch):
        calls = []

        def spy(f, k, D, sizes):
            calls.append((f.n, k))
            if f.n > 2:
                raise AssertionError("a dense n = 7 power went to the packed path")
            return real(f, k, D, sizes)

        real = series._pow_packed
        monkeypatch.setattr(series, "_pow_packed", spy)
        s = Series(2, 18, {(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): Fraction(1, 2)})
        assert s.pow_trunc(9) == recurrence_pow(s, 9, monkeypatch)
        assert calls == [(2, 9)]

        P7 = Series(7, 16, {(0,) * 7: 1, **{tuple(int(i == j) for j in range(7)): 1 for i in range(7)}})
        assert series._pack_sizes(P7, 16) is None  # 17^7 slots
        F = P7.truncate(3).pow_trunc(16)
        assert calls == [(2, 9)]
        assert F.coeff((3, 0, 0, 0, 0, 0, 0)) == CoefPoly.const(560)
        assert F.coeff((1, 1, 1, 0, 0, 0, 0)) == CoefPoly.const(16 * 15 * 14)

    def test_symbolic_series_keep_the_recurrence(self, monkeypatch):
        monkeypatch.setattr(series, "_pow_packed", None)  # calling it would raise
        s = Series(2, 4, {(0, 0): 1, (1, 0): CoefPoly.var("a"), (0, 1): 1})
        assert s.pow_trunc(3).coeff((2, 0)) == CoefPoly.var("a") ** 2 * CoefPoly.const(3)
