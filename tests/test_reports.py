"""Property tests of the spec file format: emit_spec then parse_spec is the
identity, and a malformed spec dict raises SpecFileError and nothing else.
The bytes of three sweep reports are pinned."""

import hashlib
import json
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from rotke import PotentialSpec, sweep
from rotke.algebra import Unknown
from rotke.geometry import MAX_DIMENSION
from rotke.reports import SpecFileError, emit_spec, parse_spec, render_json, sweep_payload

SETTINGS = settings(max_examples=150, deadline=None, database=None, suppress_health_check=[HealthCheck.too_slow])

rationals = st.fractions(max_denominator=10**6).filter(bool)
names = st.text("abcxyz_0123456789()", min_size=1, max_size=6)


@st.composite
def specs(draw):
    n = draw(st.integers(1, 4))
    induced = draw(st.booleans())
    monomials = draw(st.lists(
        st.tuples(*[st.integers(0, 4)] * n).filter(lambda m: sum(m) >= 2), unique=True, max_size=5,
    ))
    symbols = iter(draw(st.lists(names, unique=True, min_size=len(monomials), max_size=len(monomials))))
    support = []
    for m in monomials:
        if draw(st.booleans()):
            support.append((m, Unknown(next(symbols), "support", m)))
        else:
            c = draw(rationals)
            support.append((m, abs(c) if induced else c))
    return PotentialSpec(n, tuple(support), induced=induced)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-10, 10) | st.floats(allow_nan=False) | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=8,
)


class TestRoundTrip:
    @SETTINGS
    @given(specs(), st.none() | rationals)
    def test_emit_then_parse_is_identity(self, spec, lam):
        data = json.loads(json.dumps(emit_spec(spec, lam)))
        assert parse_spec(data) == (spec, lam)


# Replacements that make a valid spec dict malformed, per field.
BAD_N = st.none() | st.booleans() | st.integers(max_value=0) | st.integers(MAX_DIMENSION + 1, 10**6) \
    | st.text(max_size=4) | st.floats()
BAD_RATIONAL = st.sampled_from(["0.5", "1e3", "1/0", "", "x", "inf", "nan", "1//2"]) \
    | st.integers() | st.floats() | st.none() | st.lists(st.integers(), max_size=2)
BAD_EXPONENTS = st.lists(st.integers(-3, -1), min_size=1, max_size=3) | st.text(max_size=3) \
    | st.lists(st.booleans(), min_size=1, max_size=3) | st.integers() | st.none()


def _mutations(n):
    entry = lambda spec, i: spec["monomials"][i]  # noqa: E731
    return [
        (BAD_N, lambda spec, v: spec.update(n=v)),
        (st.just(None), lambda spec, v: spec.pop("n")),
        (BAD_RATIONAL.filter(lambda v: v is not None), lambda spec, v: spec.update({"lambda": v})),
        (json_values.filter(lambda v: not isinstance(v, (bool, list))), lambda spec, v: spec.update(monomials=v)),
        (json_values.filter(lambda v: not isinstance(v, bool)), lambda spec, v: spec.update(induced=v)),
        (BAD_RATIONAL, lambda spec, v: entry(spec, 0).update(coef=v)),
        (BAD_EXPONENTS, lambda spec, v: entry(spec, 0).update(exponents=v)),
        (st.lists(st.integers(0, 3), max_size=n + 3).filter(lambda e: len(e) != n),
         lambda spec, v: entry(spec, 0).update(exponents=v)),
        (st.sampled_from(["exponents", "coef"]), lambda spec, v: entry(spec, 0).pop(v)),
        (json_values.filter(lambda v: not isinstance(v, dict)), lambda spec, v: spec["monomials"].append(v)),
        (st.just(None), lambda spec, v: spec["monomials"].append(dict(entry(spec, 0)))),
        (st.integers(0, 1), lambda spec, v: entry(spec, 0).update(exponents=[v] + [0] * (n - 1))),
    ]


class TestMalformed:
    @SETTINGS
    @given(specs().filter(lambda s: s.support), st.data())
    def test_malformed_field_raises_spec_file_error(self, spec, data):
        payload = json.loads(json.dumps(emit_spec(spec, Fraction(3))))
        values, mutate = data.draw(st.sampled_from(_mutations(spec.n)))
        mutate(payload, data.draw(values))
        try:
            parse_spec(payload)
        except SpecFileError:
            return
        raise AssertionError(f"accepted a malformed spec: {payload!r}")

    @SETTINGS
    @given(json_values | st.dictionaries(
        st.sampled_from(["n", "monomials", "lambda", "induced"]), json_values | st.integers(1, 3), max_size=4,
    ))
    def test_arbitrary_json_parses_or_raises_spec_file_error(self, payload):
        try:
            spec, _ = parse_spec(payload)
        except SpecFileError:
            return
        assert isinstance(spec, PotentialSpec)


@pytest.mark.parametrize(
    "dims, k_max, deg_cap, digest",
    [
        (range(2, 8), 3, 2, "f71989f517c9d8bf6b36d663b755f4c6befd942d912edbb45360d59ac47fa7ba"),
        (range(2, 5), 3, 3, "8b267a7598212b1ddf2b7b227a4b5498657dfaea816d34535fa7ccff73516cbd"),
        (range(1, 3), 2, 2, "12544b3f524caf7c4d542a038d33caa43f1f808507cd2f5b45c6a3e015002aee"),
        (range(2, 5), 3, 4, "ffe42c71777e34829de9a3c345ed472a6a0564e3f4767d2ffda505082c592ec0"),
    ],
    ids=["dims2-7-deg2", "dims2-4-deg3", "dims1-2-codim2", "dims2-4-deg4"],
)
def test_sweep_report_bytes_are_pinned(dims, k_max, deg_cap, digest):
    # the same under every hash seed, and through every refactor that does
    # not mean to change the report
    report = sweep(dims, k_max, deg_cap=deg_cap)
    assert hashlib.sha256(render_json(sweep_payload(report)).encode()).hexdigest() == digest
