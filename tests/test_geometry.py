import hashlib
import random
from fractions import Fraction
from itertools import permutations
from math import lcm

import pytest

from rotke import (
    EinsteinCandidate,
    PotentialSpec,
    Series,
    bochner_normalize,
    build_potential,
    certify_exact,
    degree_bound_lambda,
    det_metric,
    det_numerator,
    ma_log_residual,
    metric_in_x,
    projective_induction_check,
    series_exp,
    series_diff,
    series_log1p,
)
from rotke import geometry
from rotke.algebra import CoefPoly, grlex_key
from rotke.geometry import _minor_determinant, _poly_hash, lambda_in_lowest_terms

from conftest import cauchy_product, cpn_unit, rand_edge_series, rand_series, rand_spec


def scaled_fubini_study(n, q):
    """Spec for (1 + (sum x)/q)^q, numeric, Einstein constant 2(n+1)/q."""
    base = Series.one(n, q)
    for a in range(1, n + 1):
        base = base + Series.variable(n, q, a).scale(Fraction(1, q))
    P = base.pow_trunc(q)
    support = tuple(
        (m, c.constant_value()) for m, c in P.sorted_terms() if sum(m) >= 2
    )
    return PotentialSpec(n, support)


class TestPotentials:
    def test_veronese_is_squared_fubini_study(self, veronese):
        assert build_potential(veronese, 6) == build_potential(scaled_fubini_study(2, 2), 6)

    def test_build_has_bochner_shape(self, segre):
        P = build_potential(segre, 4)
        assert P.coeff((0, 0)).constant_value() == 1
        assert P.coeff((1, 0)).constant_value() == 1
        assert P.coeff((0, 1)).constant_value() == 1

    def test_spec_rejects_low_degree_support(self):
        with pytest.raises(ValueError):
            PotentialSpec(2, (((1, 0), Fraction(1)),))

    def test_spec_rejects_nonpositive_induced_coefficient(self):
        with pytest.raises(ValueError):
            PotentialSpec(2, (((2, 0), Fraction(-1)),), induced=True)
        # allowed when the spec is not claimed to be induced
        PotentialSpec(2, (((2, 0), Fraction(-1)),), induced=False)


class TestNormalization:
    def test_known_rescaling(self):
        phi = Series(1, 4, {(1,): Fraction(3), (2,): Fraction(1)})
        normalized, scaling = bochner_normalize(phi)
        assert scaling == (Fraction(3),)
        assert normalized == Series(1, 4, {(1,): Fraction(1), (2,): Fraction(1, 9)})

    def test_idempotent(self, veronese):
        phi = series_log1p(build_potential(veronese, 6) - Series.one(2, 6))
        once, scaling = bochner_normalize(phi)
        again, rescaling = bochner_normalize(once)
        assert once == again
        assert all(c == 1 for c in rescaling)

    def test_rejects_nonpositive_linear_part(self):
        with pytest.raises(ValueError):
            bochner_normalize(Series(1, 3, {(2,): Fraction(1)}))


class TestMetric:
    def test_hessian_is_symmetric(self, rng):
        for _ in range(20):
            spec = rand_spec(rng, n=2)
            H = metric_in_x(build_potential(spec, 6))
            for a in range(2):
                for b in range(2):
                    assert H.f_alpha_beta[a][b] == H.f_alpha_beta[b][a]

    def test_det_numerator_equals_det_metric_times_power(self, rng, veronese, segre):
        # det(B) = P^{n+1} det(g)
        specs = [veronese, segre] + [rand_spec(rng, n=2) for _ in range(10)]
        specs += [PotentialSpec(3, (((1, 1, 0), Fraction(1)), ((0, 1, 1), Fraction(1, 2)), ((2, 0, 0), Fraction(3))))]
        for spec in specs:
            n = spec.n
            D = n * (2 * spec.max_degree() - 1)
            P = build_potential(spec, D)
            lhs = det_numerator(P)
            rhs = det_metric(metric_in_x(P)) * P.pow_trunc(n + 1)
            assert lhs == rhs

    def test_det_numerator_degree_cap_is_exact(self, rng):
        # the minor expansion drops terms by degree; at every truncation t it
        # must still give the exact determinant truncated to t
        specs = [rand_spec(rng, n=2) for _ in range(4)]
        specs += [rand_spec(rng, n=n, max_deg=2) for n in (3, 4) for _ in range(2)]
        specs += [
            PotentialSpec.symbolic(2, [(2, 0), (1, 1)]),
            PotentialSpec.symbolic(2, [(0, 3), (1, 1)]),
            PotentialSpec.symbolic(3, [(1, 1, 0), (0, 0, 2)]),
            PotentialSpec.symbolic(3, [(1, 1, 1), (2, 0, 0)]),
            PotentialSpec.symbolic(4, [(1, 1, 0, 0)]),
        ]
        for spec in specs:
            n, d = spec.n, spec.max_degree()
            D = n * (2 * d - 1)
            full = det_numerator(build_potential(spec, D))
            assert full.degree() <= D
            for t in range(d, D + 1):
                assert det_numerator(build_potential(spec, t)) == full.truncate(t), (spec, t)
            # below deg P the rows are truncated after differentiating
            exact_p = build_potential(spec, d)
            for t in range(1, d):
                assert det_numerator(exact_p, t) == full.truncate(t), (spec, t)

    def test_det_numerator_constant_term_and_degree(self, rng):
        for _ in range(15):
            n = rng.choice((1, 2))
            spec = rand_spec(rng, n=n)
            d = spec.max_degree()
            num = det_numerator(build_potential(spec, n * (2 * d - 1) + 2))
            assert num.coeff((0,) * n).constant_value() == 1
            assert num.degree() <= n * (d - 1) + d

    @staticmethod
    def leibniz(A):
        """The literal sum over permutations, sign by inversion count, with
        the products by `cauchy_product` on exponent tuples."""
        m = len(A)
        n, trunc = A[0][0].n, A[0][0].trunc
        total = Series.zero(n, trunc)
        for perm in permutations(range(m)):
            term = Series.one(n, trunc)
            for r in range(m):
                term = cauchy_product(term, A[r][perm[r]], trunc)
            inversions = sum(perm[i] > perm[j] for i in range(m) for j in range(i + 1, m))
            total = total - term if inversions & 1 else total + term
        return total

    @staticmethod
    def shaped_like_b(rng, size, n, trunc, numeric, zero_frac=0.4):
        """A random matrix of series with identically zero entries and, as in
        det_numerator, no degree-0 term off the diagonal of rows 1.."""
        A = []
        for r in range(size):
            row = []
            for c in range(size):
                s = Series.zero(n, trunc)
                if rng.random() >= zero_frac:
                    s = rand_edge_series(rng, n, trunc, numeric, max_terms=4)
                if r and c != r:
                    s = Series(n, trunc, {m: v for m, v in s.terms.items() if sum(m)})
                row.append(s)
            A.append(row)
        return A

    def test_minor_determinant_matches_leibniz(self, rng):
        # n = 1..8 and truncations up to cli.MAX_DEGREE: the packed keys of
        # the expansion have base trunc + 1, and the entries hold x_i^trunc
        for trial in range(90):
            size = rng.choice((1, 2, 3, 4))
            n = rng.randint(1, 8)
            trunc = rng.choice((1, 2, 3, 4, 5, 8, 13, 32))
            A = self.shaped_like_b(rng, size, n, trunc, numeric=trial % 3 != 0)
            assert _minor_determinant(A) == self.leibniz(A), A

    def test_minor_determinant_of_singular_matrix_is_zero(self, rng):
        for size in (3, 4):
            for _ in range(5):
                A = self.shaped_like_b(rng, size, 2, 4, numeric=True, zero_frac=0.2)
                # row 2 repeats row 1; neither has a constant term anywhere
                A[1] = [Series(2, 4, {m: v for m, v in s.terms.items() if sum(m)}) for s in A[1]]
                A[1][0] = A[1][0] + Series.variable(2, 4, 1)
                A[size - 1] = list(A[1])
                assert self.leibniz(A).is_zero()
                assert _minor_determinant(A).is_zero()


def full_det_numerator(P, trunc):
    """det B by the minor expansion over all n + 1 rows: the reference for
    the free-variable reduction of det_numerator."""
    n = P.n
    row0 = [P] + [series_diff(P, a) for a in range(1, n + 1)]
    row0 = [entry.truncate(trunc) for entry in row0]
    rows = [row0]
    for a in range(1, n + 1):
        xa = tuple(int(i == a - 1) for i in range(n))
        row = [series_diff(entry, a).shift_monomial(xa) for entry in row0]
        row[a] = row0[a] + row[a]
        rows.append(row)
    return _minor_determinant(rows)


class TestFreeVariableReduction:
    @staticmethod
    def spec_using(rng, n, used, symbolic):
        """A spec whose support monomials use exactly the variables `used`."""
        while True:
            monos = set()
            for _ in range(rng.randint(1, 3)):
                m = [0] * n
                for _ in range(rng.randint(2, 3)):
                    m[rng.choice(used)] += 1
                monos.add(tuple(m))
            if {i for m in monos for i in range(n) if m[i]} == set(used):
                break
        if symbolic:
            return PotentialSpec.symbolic(n, sorted(monos))
        return PotentialSpec(n, tuple((m, Fraction(rng.randint(1, 9), rng.randint(2, 5))) for m in sorted(monos)))

    def test_equals_the_full_expansion(self, rng, monkeypatch):
        sizes = []
        real = _minor_determinant
        monkeypatch.setattr(geometry, "_minor_determinant", lambda rows: sizes.append(len(rows)) or real(rows))
        for trial in range(80):
            n = rng.randint(2, 5)
            used = sorted(rng.sample(range(n), rng.randint(1, n - 1)))
            spec = self.spec_using(rng, n, used, symbolic=trial % 2 == 0)
            D = 1 if trial % 2 == 0 else lcm(*(c.denominator for _, c in spec.support))
            P = build_potential(spec, spec.det_b_degree()).scale(D)
            d = spec.max_degree()
            for t in (d - 1, d + 1, spec.det_b_degree()):
                sizes.clear()
                assert det_numerator(P, t) == full_det_numerator(P, t), (spec, D, t)
                assert sizes[0] == len(used) + 1

    def test_unit_fubini_study_is_one(self):
        for n in range(1, 9):
            P = build_potential(cpn_unit(n), n + 1)
            assert det_numerator(P) == Series.one(n, n + 1)
            assert det_numerator(P.scale(3)) == Series.one(n, n + 1).scale(3 ** (n + 1))


class TestResidualAndCertificates:
    MODELS = [
        (cpn_unit(2), Fraction(6)),
        (scaled_fubini_study(2, 2), Fraction(3)),  # Veronese
        (PotentialSpec(2, (((1, 1), Fraction(1)),)), Fraction(4)),  # Segre
    ]

    @pytest.mark.parametrize("spec,lam", MODELS)
    def test_residual_vanishes_iff_certified(self, spec, lam):
        cert = certify_exact(EinsteinCandidate(spec, lam))
        assert cert.status == "PASS"
        assert cert.lhs_hash == cert.rhs_hash
        residual = ma_log_residual(build_potential(spec, 10), lam)
        assert residual.is_zero()

    @pytest.mark.parametrize("spec,lam", MODELS)
    def test_wrong_constant_fails_both_ways(self, spec, lam):
        wrong = lam + 1
        cert = certify_exact(EinsteinCandidate(spec, wrong))
        assert cert.status == "FAIL"
        assert cert.witness is not None
        residual = ma_log_residual(build_potential(spec, 6), wrong)
        assert not residual.is_zero()
        # the certificate witness is the first monomial where the residual shows
        assert cert.witness == residual.sorted_terms()[0][0]

    def test_unit_fubini_study_all_dimensions(self):
        for n in range(1, 7):
            cert = certify_exact(EinsteinCandidate(cpn_unit(n), Fraction(2 * (n + 1))))
            assert cert.status == "PASS"

    def test_scaled_fubini_study_family(self):
        for n, q in [(1, 2), (1, 3), (2, 2), (2, 3), (3, 2)]:
            spec = scaled_fubini_study(n, q)
            lam = Fraction(2 * (n + 1), q)
            assert certify_exact(EinsteinCandidate(spec, lam)).status == "PASS"

    def test_lowest_terms(self):
        assert lambda_in_lowest_terms(Fraction(3)) == (3, 2)
        assert lambda_in_lowest_terms(Fraction(4)) == (2, 1)
        assert lambda_in_lowest_terms(Fraction(10, 3)) == (5, 3)

    def test_constant_above_4n_fails_with_witness(self):
        # lam/2 = 5/2 > 2n: the exponent e = 2*2 - 5 is negative; det(B) = 1
        # for CP^1, so det(B)^2 P = 1 + x1 differs from 1 at x1
        cert = certify_exact(EinsteinCandidate(cpn_unit(1), Fraction(5)))
        assert (cert.status, cert.witness) == ("FAIL", (1,))
        assert cert.identity == "det(B)^2 * P^1 = 1"

    def test_nonpositive_constant_rejected(self, segre):
        with pytest.raises(ValueError):
            certify_exact(EinsteinCandidate(segre, Fraction(0)))


class TestDegreeBound:
    def test_hand_cases(self, veronese, segre):
        # deg P = 1 for the empty support, 2 for the quadratic models
        assert degree_bound_lambda(cpn_unit(2)) == 4
        assert degree_bound_lambda(veronese) == 2
        assert degree_bound_lambda(segre) == 2

    def test_bound_holds_on_models(self, veronese, segre):
        assert Fraction(6) >= degree_bound_lambda(cpn_unit(2))
        assert Fraction(3) >= degree_bound_lambda(veronese)
        assert Fraction(4) >= degree_bound_lambda(segre)


class TestInduction:
    def test_codimension_three_model(self):
        # 2*log(1 + (x1+x2)/2): exponential has 5 nonzero coefficients, n = 2
        arg = (Series.variable(2, 8, 1) + Series.variable(2, 8, 2)).scale(Fraction(1, 2))
        phi = series_log1p(arg).scale(2)
        report = projective_induction_check(phi)
        assert report.induced_up_to_trunc
        assert report.codimension_estimate == 3

    def test_fractional_power_is_not_induced(self):
        phi = series_log1p(Series.variable(1, 8, 1)).scale(Fraction(3, 2))
        report = projective_induction_check(phi)
        assert not report.induced_up_to_trunc
        assert report.witness == (3,)

    def test_line_is_induced_codim_zero(self):
        phi = series_log1p(Series.variable(1, 8, 1))
        report = projective_induction_check(phi)
        assert report.induced_up_to_trunc
        assert report.codimension_estimate == 0

    def test_round_trip_with_exp(self, rng):
        for _ in range(20):
            spec = rand_spec(rng, n=2)
            P = build_potential(spec, 6)
            phi = series_log1p(P - Series.one(2, 6))
            E = series_exp(phi) - Series.one(2, 6)
            assert E + Series.one(2, 6) == P


class TestIntegerCoefficients:
    def test_det_numerator_stays_on_int(self, segre):
        for spec in (segre, PotentialSpec.symbolic(2, [(2, 0), (1, 1)]), cpn_unit(3)):
            trunc = spec.n * (2 * spec.max_degree() - 1)
            detM = det_numerator(build_potential(spec, trunc))
            assert detM.terms
            assert all(type(v) is int for c in detM.terms.values() for v in c.terms.values())

    def test_certificate_hash_ignores_coefficient_type(self):
        as_int = Series(2, 3, {(1, 0): CoefPoly({(): 3}), (0, 2): CoefPoly({(("a", 1),): -2})})
        as_fraction = Series(2, 3, {(1, 0): CoefPoly({(): Fraction(3)}), (0, 2): CoefPoly({(("a", 1),): Fraction(-2)})})
        assert as_int == as_fraction
        assert _poly_hash(as_int) == _poly_hash(as_fraction)


    def test_certificate_hash_matches_fraction_repr_digest(self):
        rng = random.Random(61)
        for i in range(60):
            s = rand_series(rng, n=rng.choice((1, 2, 3)), numeric=i % 2 == 0)
            h = hashlib.sha256()
            for m, c in s.sorted_terms():
                h.update(repr((m, [(u, Fraction(v)) for u, v in sorted(c.terms.items())])).encode())
            assert _poly_hash(s) == h.hexdigest()


def with_coefficient_scaled(spec, m, factor):
    return PotentialSpec(spec.n, tuple((mm, c * factor if mm == m else c) for mm, c in spec.support))


class TestIntegralCertificates:
    """`certify_exact` runs on D P, D the lcm of the coefficient denominators;
    its reports must be those of the identity on P itself."""

    # (status, identity, lhs_hash, rhs_hash, witness).  Status, identity and
    # witness are those of the full-degree identity on P with Fraction
    # coefficients; the hashes are of its two sides through the compared
    # degree (`reference`).  That degree is below the full one for
    # CP^2 scaled(4) and its twin, CP^2 scaled(3) at 9/2 and CP^2 scaled(2)
    # at 7, whose hashes changed when the comparison became degree-bounded.
    PINNED = [
        (scaled_fubini_study(2, 4), Fraction(3, 2), (
            "PASS", "det(B)^4 = P^9",
            "db7a95acc037d28844d7a0ecc3f7cfa6c5ed44471070ea6bc83771f6bd8bae4a",
            "db7a95acc037d28844d7a0ecc3f7cfa6c5ed44471070ea6bc83771f6bd8bae4a", None)),
        (with_coefficient_scaled(scaled_fubini_study(2, 4), (0, 2), Fraction(17, 16)), Fraction(3, 2), (
            "FAIL", "det(B)^4 = P^9",
            "65e5f878a4d9599c84b61e1fc13c640079ec91f0fcfb5555444303f4c693b532",
            "4efd87cdfacdf3ff7e4f811e266267abdf89e9a3ff5082306bb9c2aa9388bf1a", (0, 1))),
        (scaled_fubini_study(3, 2), Fraction(2), (
            "FAIL", "det(B)^1 = P^3",
            "c2a7a9445f68eee34f095a08b581fbf56f1d9d290d9ab1258ddf439f92f4f198",
            "b10245c8fb3df84f3e850f7182c9ec1d83eedb20afece10c1480a2b790963ae1", (0, 0, 1))),
        (with_coefficient_scaled(scaled_fubini_study(3, 2), (0, 0, 2), Fraction(17, 16)), Fraction(2), (
            "FAIL", "det(B)^1 = P^3",
            "c747db1e93631a3b170850520fbc46b3a51f3fdb13874228ce3ab51c9ee01d10",
            "2f4ca506d2ff152f7f204bc00bc1a509cb6e1bb723b71962b8e9479ae0f6f5b7", (0, 0, 1))),
        (scaled_fubini_study(3, 2), Fraction(4), (
            "PASS", "det(B)^1 = P^2",
            "c2a7a9445f68eee34f095a08b581fbf56f1d9d290d9ab1258ddf439f92f4f198",
            "c2a7a9445f68eee34f095a08b581fbf56f1d9d290d9ab1258ddf439f92f4f198", None)),
        (with_coefficient_scaled(scaled_fubini_study(3, 2), (0, 0, 2), Fraction(17, 16)), Fraction(4), (
            "FAIL", "det(B)^1 = P^2",
            "c747db1e93631a3b170850520fbc46b3a51f3fdb13874228ce3ab51c9ee01d10",
            "30b91196497f3bede081e94027bc50eb219abb93d3272995aa664b9895708947", (0, 0, 1))),
        (scaled_fubini_study(2, 3), Fraction(9, 2), (  # q' = 4
            "FAIL", "det(B)^4 = P^3",
            "03e97deea1648665be450d573a3ae15e9fcd143bfc207e0bfd5a4a360650aa34",
            "19cd8eec961f7b3d1c703931548e9407edc91363dd01d786fcbffa146926c347", (0, 1))),
        (scaled_fubini_study(2, 2), Fraction(7), (  # e < 0
            "FAIL", "det(B)^2 * P^1 = 1",
            "84e58cb378fd0242d247c05128392b2919665433b7e98da5c453cbbc2eff4822",
            "d141573e97470d4f0ee2fb9123df41d93de7206ebec250a7df20534377bde7eb", (0, 1))),
        (cpn_unit(1), Fraction(5), (
            "FAIL", "det(B)^2 * P^1 = 1",
            "1289d632c5304d72e120943dcc8b1f6d091bbc0d04a44299f6328b8ad4dbb02e",
            "83938d367ab66c74cd33f694c2f9c548bbf605116e603e31357f8239cbe07b3c", (1,))),
        # the largest scaled models of tools/bench_sweep.py, whose det B and
        # powers run longest in the packed kernels
        (scaled_fubini_study(4, 2), Fraction(5), (
            "PASS", "det(B)^2 = P^5",
            "3369ce7e5091ba02e4f2a70ae10821486b31ed2da0a5ace23fcbe791bf3483a6",
            "3369ce7e5091ba02e4f2a70ae10821486b31ed2da0a5ace23fcbe791bf3483a6", None)),
        (scaled_fubini_study(3, 3), Fraction(8, 3), (
            "PASS", "det(B)^3 = P^8",
            "508bd1cdc90537da854d5bb4fc69283557f7a959c98c561d61f5db05795acebe",
            "508bd1cdc90537da854d5bb4fc69283557f7a959c98c561d61f5db05795acebe", None)),
        (scaled_fubini_study(2, 3), Fraction(2), (
            "PASS", "det(B)^1 = P^2",
            "8a15c71eb1d7c55f1ad9bebc60d74769d6730529a3d7abf3dbd6d1cd602b99d8",
            "8a15c71eb1d7c55f1ad9bebc60d74769d6730529a3d7abf3dbd6d1cd602b99d8", None)),
    ]

    @pytest.mark.parametrize("spec,lam,expected", PINNED)
    def test_certificate_bytes_pinned(self, spec, lam, expected):
        cert = certify_exact(EinsteinCandidate(spec, lam))
        assert (cert.status, cert.identity, cert.lhs_hash, cert.rhs_hash, cert.witness) == expected

    @staticmethod
    def random_cases(seed, count):
        """Numeric specs with n <= 3 and denominators up to 30, each with a
        lam for e > 0, e = 0 and e < 0 in turn; q' <= 4 for n <= 2."""
        rng = random.Random(seed)
        for i in range(count):
            n = rng.choice((1, 2, 3))
            spec = rand_spec(rng, n=n, max_deg=3 if n < 3 else 2, max_terms=3)
            spec = PotentialSpec(n, tuple(
                (m, Fraction(rng.randint(1, 40), rng.randint(1, 30))) for m, _ in spec.support
            ))
            if i % 3 == 1:  # e = 0
                q_prime, p_prime = 1, n + 1
            else:
                q_prime = rng.randint(1, 4 if n < 3 else 1)
                top = (n + 1) * q_prime
                p_prime = rng.randint(1, top - 1) if i % 3 == 0 else top + rng.randint(1, 3)
            yield spec, Fraction(2 * p_prime, q_prime)

    @staticmethod
    def reference(spec, lam):
        """(status, witness, lhs_hash, rhs_hash, truncated) of the identity on P
        with Fraction coefficients, both sides expanded to their full degree
        and hashed through the degree the certificate compares,
        max(det_b_degree, min(full degree, deg det B + deg P))."""
        p_prime, q_prime = lambda_in_lowest_terms(lam)
        e = (spec.n + 1) * q_prime - p_prime
        d = spec.max_degree()
        P = build_potential(spec, max(q_prime * spec.det_b_degree() + max(-e, 0) * d, e * d))
        lhs = det_numerator(P).pow_trunc(q_prime)
        if e >= 0:
            rhs = P.pow_trunc(e)
        else:
            lhs, rhs = lhs * P.pow_trunc(-e), Series.one(spec.n, P.trunc)
        witness = None if lhs == rhs else min((lhs - rhs).terms, key=grlex_key)
        deg_b = det_numerator(build_potential(spec, spec.det_b_degree())).degree()
        full = max(lhs.degree(), rhs.degree())
        top = max(spec.det_b_degree(), min(full, deg_b + d))
        status = "PASS" if lhs == rhs else "FAIL"
        return status, witness, _poly_hash(lhs.truncate(top)), _poly_hash(rhs.truncate(top)), top < full

    @pytest.mark.parametrize("spec,lam,expected", PINNED)
    def test_pinned_bytes_are_the_reference(self, spec, lam, expected):
        status, identity, lhs_hash, rhs_hash, witness = expected
        assert self.reference(spec, lam)[:4] == (status, witness, lhs_hash, rhs_hash)

    def test_matches_direct_rational_check(self):
        seen = set()
        for spec, lam in self.random_cases(71, 60):
            p_prime, q_prime = lambda_in_lowest_terms(lam)
            e = (spec.n + 1) * q_prime - p_prime
            status, witness, lhs_hash, rhs_hash, truncated = self.reference(spec, lam)
            cert = certify_exact(EinsteinCandidate(spec, lam))
            assert (cert.status, cert.witness) == (status, witness)
            assert (cert.lhs_hash, cert.rhs_hash) == (lhs_hash, rhs_hash)
            seen.add(((e > 0) - (e < 0), q_prime > 2, truncated))
        assert {sign for sign, _, _ in seen} == {-1, 0, 1}
        assert {(big, truncated) for _, big, truncated in seen} >= {(True, True), (False, False)}

    @pytest.mark.parametrize("spec,lam,witness", [
        (scaled_fubini_study(2, 4), Fraction(51, 32), (0, 1)),  # q' = 64, e = 141
        (cpn_unit(1), Fraction(10 ** 6), (1,)),  # e = 2 - 10^6
    ])
    def test_powers_stay_within_deg_det_b_plus_deg_p(self, spec, lam, witness, monkeypatch):
        truncs = []
        real = Series.pow_trunc
        monkeypatch.setattr(Series, "pow_trunc", lambda s, k: truncs.append(s.trunc) or real(s, k))
        cert = certify_exact(EinsteinCandidate(spec, lam))
        assert (cert.status, cert.witness) == ("FAIL", witness)
        deg_b = det_numerator(build_potential(spec, spec.det_b_degree())).degree()
        assert truncs and max(truncs) <= deg_b + spec.max_degree()

    def test_det_numerator_scales_by_d_to_the_n_plus_one(self):
        for spec, _ in self.random_cases(72, 12):
            D = lcm(*(c.denominator for _, c in spec.support))
            P = build_potential(spec, spec.det_b_degree())
            assert det_numerator(P.scale(D)) == det_numerator(P).scale(D ** (spec.n + 1))

    def test_hash_with_denominator_is_hash_of_quotient(self, rng):
        for _ in range(60):
            s = rand_series(rng, n=rng.choice((1, 2, 3)))
            integral = s.scale(lcm(*(v.denominator for c in s.terms.values() for v in c.terms.values())))
            for den in (1, rng.randint(2, 50), 2 ** rng.randint(1, 20)):
                assert _poly_hash(integral, den) == _poly_hash(integral.scale(Fraction(1, den)))
