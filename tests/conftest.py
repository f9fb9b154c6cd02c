import random
from fractions import Fraction

import pytest

from rotke import PotentialSpec, Series
from rotke.algebra import CoefPoly


def rand_fraction(rng, max_abs=6, max_den=5, nonzero=False):
    while True:
        f = Fraction(rng.randint(-max_abs, max_abs), rng.randint(1, max_den))
        if f or not nonzero:
            return f


def rand_coefpoly(rng, names=("a", "b"), max_terms=4):
    p = CoefPoly()
    for _ in range(rng.randint(0, max_terms)):
        mono = CoefPoly.const(1)
        for name in names:
            mono = mono * CoefPoly.var(name) ** rng.randint(0, 2)
        p = p + mono.scale(rand_fraction(rng))
    return p


def rand_series(rng, n=2, trunc=5, numeric=True, max_terms=6):
    s = Series.zero(n, trunc)
    for _ in range(rng.randint(0, max_terms)):
        m = tuple(rng.randint(0, trunc) for _ in range(n))
        if sum(m) > trunc:
            continue
        coef = rand_fraction(rng) if numeric else rand_coefpoly(rng)
        s = s + Series(n, trunc, {m: coef})
    return s


def cauchy_product(a, b, cap):
    """a * b through total degree cap by the plain sum over pairs of exponent
    tuples, with CoefPoly products: the reference for the packed kernels of
    `rotke.series`, sharing none of their code."""
    out = {}
    for m1, c1 in a.terms.items():
        for m2, c2 in b.terms.items():
            m = tuple(x + y for x, y in zip(m1, m2))
            if sum(m) <= cap:
                out[m] = out[m] + c1 * c2 if m in out else c1 * c2
    return Series(a.n, a.trunc, out)


def rand_edge_series(rng, n, trunc, numeric=True, max_terms=5, constant=True):
    """A random series in n variables whose monomials sit at the edge of the
    packed keys: degrees 0, 1, trunc - 1 and trunc, and pure powers up to
    x_i^trunc, whose exponent is the largest digit of base trunc + 1."""
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        d = rng.choice((0, 1, trunc - 1, trunc, rng.randint(0, trunc))) if constant else rng.randint(1, trunc)
        m = [0] * n
        if rng.random() < 0.4:
            m[rng.randrange(n)] = d
        else:
            for _ in range(d):
                m[rng.randrange(n)] += 1
        terms[tuple(m)] = rand_fraction(rng, nonzero=True) if numeric else rand_coefpoly(rng)
    return Series(n, trunc, terms)


def rand_spec(rng, n=2, max_deg=3, max_terms=3, signed=False):
    """Random numeric potential spec; signed=True allows negative coefficients
    (induced flag off) for oracle stress tests."""
    support = {}
    for _ in range(rng.randint(1, max_terms)):
        while True:
            m = tuple(rng.randint(0, max_deg) for _ in range(n))
            if 2 <= sum(m) <= max_deg:
                break
        c = rand_fraction(rng, nonzero=True)
        if not signed:
            c = abs(c)
        support[m] = c
    return PotentialSpec(n, tuple(sorted(support.items())), induced=not signed)


def cpn_unit(n):
    return PotentialSpec(n, ())


@pytest.fixture
def veronese():
    """(1 + (x_1+x_2)/2)^2 with Einstein constant 3."""
    q = Fraction(1, 4)
    h = Fraction(1, 2)
    return PotentialSpec(2, (((0, 2), q), ((1, 1), h), ((2, 0), q)))


@pytest.fixture
def segre():
    """(1+x_1)(1+x_2) with Einstein constant 4."""
    return PotentialSpec(2, (((1, 1), Fraction(1)),))


@pytest.fixture
def rng():
    return random.Random(20240817)
