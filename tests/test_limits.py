import math
import pickle
from fractions import Fraction as F

import numpy as np
import pytest

from conftest import (
    affine_s3_mean, declared_arc, equidistribution_average, period_means, s3_period_mean,
)
from permspectra import (
    NAMED_IRRATIONALS,
    AffineRelated,
    Arc,
    DeclaredIrrational,
    c2_closed,
    c2_meso,
    c_numeric,
    covariance_D,
    covariance_Dtilde,
    ctilde_numeric,
    ell_closed,
    s3_closed,
)
from permspectra.limits import _s3_both_rational_exact

GOLDEN = NAMED_IRRATIONALS["golden"]
SQRT2 = NAMED_IRRATIONALS["sqrt2"]
SQRT3 = NAMED_IRRATIONALS["sqrt3"]
E = NAMED_IRRATIONALS["e"]
PI = NAMED_IRRATIONALS["pi"]

N_ORACLE = 10**5  # faster unit-test scale; acceptance reruns at 1e6
TOL_ORACLE = 3e-2


class TestNamedIrrationals:
    def test_values_in_unit_interval(self):
        for c in NAMED_IRRATIONALS.values():
            assert 0 < c.value < 1

    def test_golden_satisfies_quadratic(self):
        x = GOLDEN.value  # 1/phi satisfies x^2 + x = 1
        assert x * x + x == pytest.approx(1.0, abs=1e-14)


    def test_declared_is_the_float_itself(self):
        # an Arc takes it as it is, and it keeps its declaration through pickling
        assert type(GOLDEN.value) is float and GOLDEN.value == GOLDEN
        assert Arc(SQRT2, GOLDEN).alpha is SQRT2
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(GOLDEN, protocol))
            assert type(back) is DeclaredIrrational and back.name == "golden"
            assert back.value == GOLDEN.value


class TestClassValidation:
    def test_zero_r_rejected(self):
        with pytest.raises(ValueError):
            AffineRelated(0, 1, 0, 1)

    @pytest.mark.parametrize("q, s", [(0, 1), (1, 0), (-2, 1)])
    def test_affine_denominators_must_be_positive(self, q, s):
        with pytest.raises(ValueError, match="denominators must be >= 1"):
            AffineRelated(1, q, 1, s)

    def test_affine_takes_lowest_terms(self):
        # p/q and r/s enter in lowest terms: 2/4 + (2/4) alpha is 1/2 + alpha/2
        assert s3_closed(GOLDEN, AffineRelated(2, 4, 2, 4)) == s3_closed(
            GOLDEN, AffineRelated(1, 2, 1, 2))
        assert c2_closed(GOLDEN, AffineRelated(0, 3, 3, 3)) == c2_closed(
            GOLDEN, AffineRelated(0, 1, 1, 1))

    @pytest.mark.parametrize("call", [
        lambda: c2_meso(0.5), lambda: ell_closed(0.5), lambda: c2_closed(0.3, GOLDEN),
        lambda: s3_closed(F(1, 2), 0.3), lambda: c2_closed(F(1, 3), 0.25),
        lambda: c2_closed(0.3, AffineRelated(1, 2, 1, 2)),
        lambda: c2_meso(GOLDEN.value), lambda: ell_closed(float(SQRT2)),
    ], ids=["meso", "ell", "c2-float-alpha", "s3-float-beta", "c2-float-beta",
            "affine-float-alpha", "meso-plain-value", "ell-plain-value"])
    def test_undeclared_float_refused(self, call):
        # a bare float declares nothing; these returned the irrational 1/6
        with pytest.raises(ValueError, match="undeclared|needs a DeclaredIrrational"):
            call()

    def test_affine_needs_an_irrational_alpha(self):
        with pytest.raises(ValueError, match="needs a DeclaredIrrational alpha"):
            c2_closed(F(1, 3), AffineRelated(1, 2, 1, 2))

    @pytest.mark.parametrize("alpha, beta", [
        (GOLDEN, GOLDEN), (SQRT2, SQRT2), (GOLDEN, DeclaredIrrational(GOLDEN + 1.0)),
    ], ids=["golden", "sqrt2", "golden-plus-one"])
    def test_equal_irrationals_refused(self, alpha, beta):
        # alpha = beta has c2 = 0; as an independent pair it returned 1/6
        for constant in (c2_closed, s3_closed):
            with pytest.raises(ValueError, match="same irrational mod 1"):
                constant(alpha, beta)
        assert c2_closed(alpha, AffineRelated(0, 1, 1, 1)) == 0.0


class TestClosedForms:
    def test_c2_table(self):
        assert c2_closed(SQRT2, GOLDEN) == pytest.approx(1 / 6)
        assert c2_closed(F(1, 2), GOLDEN) == pytest.approx(5 / 24)
        assert c2_closed(GOLDEN, F(1, 3)) == pytest.approx(1 / 6 + 1 / 54)
        assert c2_closed(F(0, 1), F(1, 2)) == pytest.approx(1 / 8)
        assert c2_closed(GOLDEN, AffineRelated(0, 1, 1, 1)) == pytest.approx(0.0, abs=1e-15)
        assert c2_closed(GOLDEN, AffineRelated(1, 2, 1, 2)) == pytest.approx(
            1 / 6 - 4 / (6 * 2 * 1 * 4))

    def test_s3_table(self):
        assert s3_closed(SQRT2, GOLDEN) == pytest.approx(1 / 4)
        assert s3_closed(F(1, 2), GOLDEN) == pytest.approx(1 / 4 - 1 / 8)
        assert s3_closed(GOLDEN, AffineRelated(0, 1, 1, 1)) == pytest.approx(1 / 3)
        assert s3_closed(GOLDEN, AffineRelated(0, 1, 3, 2)) == pytest.approx(1 / 4 + 1 / 72)
        assert s3_closed(GOLDEN, AffineRelated(1, 2, 1, 2)) == pytest.approx(7 / 24)

    def test_s3_negative_r(self):
        # with r < 0 the correction is subtracted
        val = s3_closed(GOLDEN, AffineRelated(1, 3, -1, 2))
        d = math.gcd(2, 3)
        assert val == pytest.approx(1 / 4 + d * d / (12 * 2 * -1 * 9))

    def test_s3_both_rational_equals_the_period_mean(self):
        # every class p/q, r/s with q, s <= 24, and its representative with
        # negative p and r
        for q in range(1, 25):
            for s in range(1, 25):
                for p in (p for p in range(q) if math.gcd(p, q) == 1):
                    for r in (r for r in range(s) if math.gcd(r, s) == 1):
                        want = s3_period_mean(p, q, r, s)
                        assert _s3_both_rational_exact(p, q, r, s) == want
                        assert _s3_both_rational_exact(p - q, q, r - s, s) == want

    def test_s3_both_rational_at_large_denominators(self):
        # periods of q s ~ 10^24 terms, in O(log gcd(q, s)) steps: at r/s =
        # +-p/q the product is {jp/q}^2 or h_j(p/q), and coprime q, s give
        # independent fractional parts
        q, p = 10**12, 999_999_999_989
        square = F((2 * q - 1) * (q - 1), 6 * q * q)
        assert _s3_both_rational_exact(p, q, p, q) == square
        assert _s3_both_rational_exact(p, q, -p, q) == F(q - 1, 2 * q) - square
        assert _s3_both_rational_exact(p, q, 1, q - 1) == F(q - 2, 4 * q)
        assert s3_closed(F(1, 1000), F(1, 999)) == float(F(998, 4000))

    def test_ell(self):
        assert ell_closed(GOLDEN) == pytest.approx(1 / 6)
        assert ell_closed(F(1, 2)) == pytest.approx(1 / 8)
        assert ell_closed(F(1, 3)) == pytest.approx(4 / 27)
        assert ell_closed(F(3, 1)) == pytest.approx(0.0, abs=1e-15)

    def test_c2_meso(self):
        assert c2_meso(GOLDEN) == pytest.approx(1 / 6)
        assert c2_meso(F(0, 1)) == pytest.approx(1 / 3)
        assert c2_meso(F(1, 2)) == pytest.approx(5 / 24)

    def test_period_means(self):
        assert period_means(GOLDEN) == (F(1, 2), F(1, 3))
        assert period_means(F(1, 2)) == (F(1, 4), F(1, 8))
        assert period_means(F(-2, 3)) == (F(1, 3), F(5, 27))

    def test_constants_equal_the_oracles_exactly(self):
        # every pair kind with q, s <= 12 and numerators of both signs: each
        # constant is float() of the exact Fraction the oracles give
        irr = period_means(GOLDEN)

        def coprime(q):
            return [p for p in range(-q, q + 1) if math.gcd(p, q) == 1]

        def check(alpha, beta, ma, mb, s3):
            assert s3_closed(alpha, beta) == float(s3)
            assert c2_closed(alpha, beta) == float(ma[1] + mb[1] - 2 * s3)

        check(SQRT2, GOLDEN, irr, irr, irr[0] ** 2)
        means = {F(p, q): period_means(F(p, q)) for q in range(1, 13) for p in coprime(q)}
        affine = {(q, r, s): affine_s3_mean(q, r, s)
                  for q in range(1, 13) for s in range(1, 13) for r in coprime(s) if r}
        for q in range(1, 13):
            for p in coprime(q):
                ma = means[F(p, q)]
                assert ell_closed(F(p, q)) == float(ma[0] - ma[1])
                # c2 against an independent irrational endpoint
                assert c2_meso(F(p, q)) == float(ma[1] + irr[1] - 2 * ma[0] * irr[0])
                check(F(p, q), GOLDEN, ma, irr, ma[0] * irr[0])
                check(GOLDEN, F(p, q), irr, ma, irr[0] * ma[0])
                for s in range(1, 13):
                    for r in coprime(s):
                        check(F(p, q), F(r, s), ma, means[F(r, s)], s3_period_mean(p, q, r, s))
                        if r:
                            s3 = affine[q, r, s]
                            check(GOLDEN, AffineRelated(p, q, r, s), irr, irr, s3)
                            check(SQRT2, AffineRelated(p, q, r, s), irr, irr, s3)
        assert ell_closed(GOLDEN) == float(irr[0] - irr[1])
        assert c2_meso(GOLDEN) == float(irr[1] + irr[1] - 2 * irr[0] * irr[0])


class TestNumericOracles:
    def test_c_numeric_degenerate(self):
        assert c_numeric(0.37, 0.37, 0.9, 0.1, 1000) == 0.0

    def test_c_numeric_golden_square(self):
        val = c_numeric(GOLDEN.value, 0.0, GOLDEN.value, 0.0, N_ORACLE)
        assert val == pytest.approx(1 / 3, abs=TOL_ORACLE)

    def test_c_numeric_exact_period(self):
        # {j/2}^2 averaged over its period of 2 is exactly 1/8
        assert c_numeric(F(1, 2), F(0), F(1, 2), F(0), 2) == pytest.approx(1 / 8, abs=1e-15)

    def test_ctilde_degenerate(self):
        assert ctilde_numeric(0.2, 0.2, 0.2, 0.2, 100) == 0.0

    def test_ctilde_width_golden(self):
        a, b = 0.0, GOLDEN.value
        assert ctilde_numeric(a, b, a, b, N_ORACLE) == pytest.approx(1 / 6, abs=TOL_ORACLE)

    def test_ctilde_exact_half(self):
        a, b = F(0), F(1, 2)
        assert ctilde_numeric(a, b, a, b, 2) == pytest.approx(1 / 8, abs=1e-15)

    @pytest.mark.parametrize(
        "alpha, beta",
        [
            (SQRT2, GOLDEN),
            (F(1, 2), GOLDEN),
            (SQRT2, F(2, 3)),
            (SQRT2, AffineRelated(1, 2, 1, 2)),
            (GOLDEN, AffineRelated(0, 1, 2, 3)),
        ],
        ids=["independent", "rational-alpha", "rational-beta", "affine", "affine-multiple"],
    )
    def test_c2_closed_matches_numeric(self, alpha, beta):
        arc = declared_arc(alpha, beta)
        val = c_numeric(arc.alpha, arc.beta, arc.alpha, arc.beta, N_ORACLE)
        assert val == pytest.approx(c2_closed(alpha, beta), abs=TOL_ORACLE)

    def test_c2_closed_matches_numeric_exact_rational(self):
        alpha, beta = F(1, 3), F(1, 4)
        arc = declared_arc(alpha, beta)
        period = 12
        val = c_numeric(arc.alpha, arc.beta, arc.alpha, arc.beta, period)
        assert val == pytest.approx(c2_closed(alpha, beta), abs=1e-12)

    def test_ell_closed_matches_numeric_exact_rational(self):
        delta = F(2, 5)
        arc = Arc(F(0), delta)
        val = ctilde_numeric(arc.alpha, arc.beta, arc.alpha, arc.beta, 5)
        assert val == pytest.approx(ell_closed(delta), abs=1e-12)

    def test_s3_partial_sum_identity(self):
        # (1/n) sum w_j^2 = avg {jb}^2 + avg {ja}^2 - 2 avg {ja}{jb}: exact
        # algebra on partial sums, any endpoints, any n
        rng = np.random.default_rng(0)
        for _ in range(20):
            a, b = rng.random(), rng.random()
            n = int(rng.integers(1, 3000))
            j = np.arange(1, n + 1)
            fa, fb = (j * a) % 1.0, (j * b) % 1.0
            lhs = c_numeric(b, a, b, a, n)
            rhs = np.mean(fb**2) + np.mean(fa**2) - 2 * np.mean(fa * fb)
            assert lhs == pytest.approx(float(rhs), abs=1e-12)

    def test_torus_window_average(self):
        # two-dimensional equidistribution: for irrational t and eps -> 0,
        # eps * sum_{j < 1/eps} f(j eps) [j eps >= 1 - {j t}] tends to the
        # integral of x f(x); this drives the shrinking-arc constants
        t = math.sqrt(2.0)
        for n, tol in ((10**4, 0.02), (10**6, 0.004)):
            eps = 1.0 / n
            j = np.arange(1, n)
            window = j * eps >= 1.0 - (j * t) % 1.0
            avg_one = eps * np.sum(window)  # f = 1 -> integral x dx = 1/2
            avg_x = eps * np.sum(j * eps * window)  # f = x -> 1/3
            assert avg_one == pytest.approx(0.5, abs=tol)
            assert avg_x == pytest.approx(1 / 3, abs=tol)

    def test_equidistribution_average(self):
        assert equidistribution_average(lambda x: x, GOLDEN.value, 0.0, 10**6) == pytest.approx(
            0.5, abs=1e-3
        )
        assert equidistribution_average(np.ones_like, 0.123, 4.0, 100) == pytest.approx(1.0)
        assert equidistribution_average(
            lambda x: x * (1 - x), math.sqrt(2.0), 0.0, N_ORACLE
        ) == pytest.approx(1 / 6, abs=TOL_ORACLE)


class TestDeclaredArc:
    def test_rational_endpoints_are_fractions(self):
        arc = declared_arc(F(1, 3), F(1, 4))
        assert arc.alpha == F(1, 3)
        assert arc.beta == F(1, 4) + 1  # wrapped past alpha

    def test_affine_beta_from_alpha(self):
        arc = declared_arc(SQRT2, AffineRelated(1, 2, 1, 2))
        assert (arc.alpha, arc.beta) == (SQRT2.value, 1 / 2 + SQRT2.value / 2)


class TestCovarianceMatrices:
    def test_single_arc_is_one(self):
        for build in (covariance_D, covariance_Dtilde):
            m = build([Arc(SQRT2.value, GOLDEN.value)], n_numeric=10**4)
            assert m.entries.shape == (1, 1)
            assert m.entries[0, 0] == pytest.approx(1.0)

    def test_identical_arcs_all_ones(self):
        arc = Arc(SQRT2.value, GOLDEN.value)
        for build in (covariance_D, covariance_Dtilde):
            m = build([arc, arc], n_numeric=10**4)
            assert np.allclose(m.entries, 1.0, atol=1e-12)

    def test_independent_irrational_endpoints_near_identity(self):
        arcs = [Arc(SQRT2.value, GOLDEN.value), Arc(E.value, SQRT3.value)]
        for build in (covariance_D, covariance_Dtilde):
            m = build(arcs, n_numeric=10**6)
            assert np.allclose(m.entries, np.eye(2), atol=1e-2)

    def test_degenerate_arc_rejected(self):
        full = Arc(0.25, 1.25)
        with pytest.raises(ValueError):
            covariance_D([full], n_numeric=1000)
        with pytest.raises(ValueError):
            covariance_Dtilde([full], n_numeric=1000)

    def test_h_plus_omega_squared_is_abs_omega(self):
        # per-term identity behind the diagonal consistency of the two
        # matrices: H_jkk + omega_j^2 = |omega_j|, whose average tends to 1/3
        n = N_ORACLE
        a, b = SQRT2.value, GOLDEN.value
        j = np.arange(1, n + 1)
        fa, fb = (j * a) % 1.0, (j * b) % 1.0
        omega = fb - fa
        delta_frac = (j * (b - a)) % 1.0
        h = delta_frac * (1 - delta_frac)
        assert np.max(np.abs(h + omega**2 - np.abs(omega))) < 1e-10
        assert np.mean(np.abs(omega)) == pytest.approx(1 / 3, abs=TOL_ORACLE)

    def test_psd_for_overlapping_arcs(self):
        arcs = [Arc(0.1, 0.6), Arc(0.3, 0.9), Arc(0.15, 0.7)]
        for build in (covariance_D, covariance_Dtilde):
            m = build(arcs, n_numeric=2 * 10**4)
            assert np.linalg.eigvalsh(m.entries).min() > -1e-9
