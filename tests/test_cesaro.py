import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    absolute_quadratic_sum,
    cesaro_number,
    identity_sums_formula,
    quadratic_double_sum,
)
from permspectra import (
    Arc,
    c_numeric,
    coupling_tail_expectation,
    covariance_D,
    exact_moments_mod,
    psi,
    psi_values,
    verify_harmonic_identity,
    verify_mean_identity,
    verify_quadratic_identity,
    verify_telescoping,
)
from permspectra import cesaro
from permspectra.cesaro import TABLE_SIZE_LIMIT, THETA_FLOOR
from permspectra.cli import parse_arcs
from permspectra.spectral import _perm_mean, exact_covariance_perm, exact_moments_perm

THETAS = [0.3, 0.5, 0.7, 1.0, 1.5, 2.5]

README_ARCS = parse_arcs("irr:sqrt2,irr:golden;irr:e,irr:sqrt3")
README_ENDS = [x for arc in README_ARCS for x in (arc.beta, arc.alpha)]

#: minor page faults of a warm call at n = 10**5 and 10**6, the fewest of three
PAGE_FAULTS = """
import json, resource
from permspectra import Arc, c_numeric, covariance_D, exact_moments_mod
from permspectra.cli import parse_arcs
from permspectra.spectral import _perm_mean
arcs = parse_arcs("irr:sqrt2,irr:golden;irr:e,irr:sqrt3")
ends = [x for arc in arcs for x in (arc.beta, arc.alpha)]
calls = {
    "_perm_mean": lambda n: _perm_mean(n, 0.7, Arc(0.1, 0.7)),
    "exact_moments_mod": lambda n: exact_moments_mod(n, 0.7, Arc(0.2, 0.7)),
    "covariance_D": lambda n: covariance_D(arcs, n),
    "c_numeric": lambda n: c_numeric(*ends, n),
}

def faults(call, n):
    call(n)
    counts = []
    for _ in range(3):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        call(n)
        counts.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    return min(counts)

print(json.dumps({name: [faults(call, 10**5), faults(call, 10**6)] for name, call in calls.items()}))
"""


def rel_gap(lhs, rhs):
    return abs(lhs - rhs) / max(abs(rhs), 1e-300)


class TestPsi:
    def test_theta_one_is_identically_one(self):
        assert np.allclose(psi_values(50, 1.0), 1.0, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("n", [1, 2, 3, cesaro.TABLE_BLOCK, cesaro.TABLE_BLOCK + 1])
    def test_theta_one_is_exactly_one(self, n):
        # every factor m/(m + theta - 1) is one: no log1p, cumsum or exp
        assert np.array_equal(psi_values(n, 1.0), np.ones(n))
        assert {psi(n, j, 1.0) for j in {1, (n + 1) // 2, n}} == {1.0}

    def test_direct_product_value(self):
        # 5*4*3*2*1 / (6*5*4*3*2) = 1/6
        assert psi(5, 5, 2.0) == pytest.approx(1 / 6, rel=1e-14)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            psi(5, 0, 1.0)
        with pytest.raises(ValueError):
            psi(5, 6, 1.0)
        with pytest.raises(ValueError):
            psi(5, 3, -1.0)

    @pytest.mark.parametrize("theta", [math.inf, math.nan, 0.0])
    def test_theta_must_be_positive_and_finite(self, theta):
        # an infinite theta made every psi ratio 0/inf and printed NaN moments
        with pytest.raises(ValueError, match=f"theta must be positive and finite, got {theta}"):
            psi_values(10, theta)

    @pytest.mark.parametrize("call", [
        lambda theta: verify_mean_identity(10, theta),
        lambda theta: verify_harmonic_identity(10, theta),
        lambda theta: verify_quadratic_identity(10, theta),
        lambda theta: verify_telescoping(10, 3, theta),
        lambda theta: exact_covariance_perm(10, theta, Arc(0.1, 0.5), Arc(0.2, 0.7)),
    ], ids=["mean", "harmonic", "quadratic", "telescoping", "plain-covariance"])
    def test_theta_above_the_limit_refused(self, call):
        # at 1e308 these overflowed: an OverflowError naming nothing, or NaN
        with pytest.raises(ValueError, match="theta = 1e\\+308 exceeds 2\\*\\*53, the guard against overflow"):
            call(1e308)

    def test_size_limit_keeps_the_peak_near_2gb(self):
        # the limit is derived from the bytes per element that the exact
        # moments and the identity checks hold at their peak; the coupling
        # tail streams psi a block at a time and holds no array of n
        n = 200_000  # 2n - 1 rounds up to an FFT length of 2n
        peaks = []
        for call in (
            lambda: _perm_mean(n, 1.0, Arc(Fraction(0), n**-0.5)),
            lambda: exact_moments_perm(n, 1.0, Arc(0.1, 0.7)),
            lambda: exact_covariance_perm(n, 0.7, Arc(0.1, 0.5), Arc(Fraction(1, 3), 0.9)),
            lambda: exact_moments_mod(n, 0.7, Arc(Fraction(1, 3), 0.7)),
            lambda: coupling_tail_expectation(n, 1.0, 2 * n),
            lambda: verify_mean_identity(n, 0.7),
            lambda: verify_harmonic_identity(n, 0.7),
            lambda: verify_quadratic_identity(n, 0.7),
            lambda: verify_telescoping(n, n // 3, 0.7),
        ):
            tracemalloc.start()
            call()
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        per_element = max(peaks) / n
        assert 40 < per_element < 49
        assert TABLE_SIZE_LIMIT * per_element < 2e9
        assert 10**9 > TABLE_SIZE_LIMIT

    @pytest.mark.parametrize("n", [200_000, 10**6])
    @pytest.mark.parametrize("theta", [0.7, 1.0])
    def test_streamed_sums_hold_a_few_blocks(self, theta, n):
        # no array of n: the psi buffer and the callers' buffers of one block
        # each, of TABLE_BLOCK values (256 KB) in spectral and of
        # limits._BLOCK per endpoint in limits, about 1 MB in all.  Whole
        # arrays took 8.8 MB (the plain mean) and 16.3-16.6 MB (the rest) at 10**6
        calls = (
            lambda: _perm_mean(n, theta, Arc(Fraction(0), n**-0.5)),
            lambda: _perm_mean(n, theta, Arc(0.1, 0.7)),
            lambda: exact_moments_mod(n, theta, Arc(Fraction(1, 3), 0.7)),
            lambda: exact_moments_mod(n, theta, Arc(0.2, 0.7)),
            lambda: covariance_D(README_ARCS, n),
            lambda: c_numeric(*README_ENDS, n),
        )
        for call in calls:
            tracemalloc.start()
            call()
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            assert peak < 1.5e6

    def test_streamed_sums_fault_no_more_at_larger_n(self):
        # buffers of one block, made once per call, so a warm call's minor
        # page faults do not grow with n.  A fresh interpreter keeps the
        # allocator's state of this suite out: there, whole arrays made the
        # modified variance fault 873-1,383 times per call at 10**6 and not at 10**5
        src = str(Path(cesaro.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run([sys.executable, "-c", PAGE_FAULTS], env=env, capture_output=True,
                              text=True, check=True, timeout=120)
        faults = json.loads(done.stdout)
        assert all(at_1e6 <= at_1e5 for at_1e5, at_1e6 in faults.values()), faults

    @pytest.mark.parametrize("n", [10**5, pytest.param(10**6, marks=pytest.mark.slow)])
    def test_exact_c_numeric_holds_no_list_of_n(self, n):
        # Fraction endpoints sum integer terms from generators: lists of n
        # Fractions took 224 bytes per element, 22 MB and 3.3 s at 10**5
        ends = (Fraction(3, 4), Fraction(1, 3), Fraction(1, 7), Fraction(2, 11))
        tracemalloc.start()
        value = c_numeric(*ends, n)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak < 2**16
        s, t, u, v = ends

        def exact_sum(m):
            return sum(((j * s) % 1 - (j * t) % 1) * ((j * u) % 1 - (j * v) % 1)
                       for j in range(1, m + 1))

        period = 4 * 3 * 7 * 11  # of every term
        assert value == float((n // period * exact_sum(period) + exact_sum(n % period)) / n)

    @pytest.mark.slow  # tracemalloc follows every Python integer: 2-4 s each
    @pytest.mark.parametrize("call", [
        lambda n, arc: exact_covariance_perm(n, 0.7, arc, arc),
        lambda n, arc: _perm_mean(n, 0.7, arc),
        lambda n, arc: exact_moments_mod(n, 0.7, arc),
    ], ids=["plain-covariance", "plain-mean", "modified-variance"])
    def test_python_integer_products_cost_no_more_than_floats(self, call):
        # alpha = 1/2^60 (and the width 3/4 - 1/2^60) take Python-integer
        # products from j = 4 on, built a short run of j at a time, so the
        # peak stays the float arc's.  Whole object arrays took 96 bytes per
        # element against 40 in the plain covariance, and blocks of them 10-11
        # more than floats in the plain mean and the modified variance
        n = 200_000
        huge = Arc(Fraction(1, 2**60), Fraction(3, 4))
        peaks = []
        for arc in (huge, Arc(float(huge.alpha), 0.75)):
            tracemalloc.start()
            call(n, arc)
            peaks.append(tracemalloc.get_traced_memory()[1] / n)
            tracemalloc.stop()
        assert peaks[0] < peaks[1] + 1.0

    @pytest.mark.parametrize("theta", [1e-300, 1e-12, 0.3, 0.7, 2.3, 10.0, 1e6, 1e15])
    def test_table_within_1e13_of_the_exact_product(self, theta):
        n = 200
        top, bottom = theta.as_integer_ratio()
        numerator = denominator = 1  # psi(n, j) = numerator / denominator exactly
        for j, value in enumerate(psi_values(n, theta).tolist(), start=1):
            m = n - j + 1
            numerator *= m * bottom
            denominator *= top + (m - 1) * bottom
            if numerator * 10**290 < denominator:
                continue  # below the normal doubles: the table underflows here
            p, q = value.as_integer_ratio()
            assert abs(p * denominator - q * numerator) / (q * numerator) < 1e-13

    @pytest.mark.parametrize("theta", [0.3, 1.0, 7.0, 1e6])
    def test_single_weight_equals_table_entry(self, theta):
        table = psi_values(500, theta)
        js = [1, 7, 166, 499, 500]
        assert [psi(500, j, theta) for j in js] == [table[j - 1] for j in js]

    @pytest.mark.parametrize("theta,expect", [(2.0, -1), (0.5, +1), (1.0, 0)])
    def test_monotone_in_j(self, theta, expect):
        values = psi_values(200, theta)
        diffs = np.diff(values)
        if expect < 0:
            assert np.all(diffs <= 1e-15)
        elif expect > 0:
            assert np.all(diffs >= -1e-15)
        else:
            assert np.allclose(values, 1.0)


class TestCesaroNumbers:
    def test_order_zero_is_one(self):
        assert all(cesaro_number(n, 0.0) == pytest.approx(1.0) for n in range(10))

    def test_binomial_value(self):
        assert cesaro_number(3, 1.0) == pytest.approx(4.0)  # C(4, 3)

    @pytest.mark.parametrize("theta", [0.5, 2.0])
    def test_summation_recurrence(self, theta):
        # A_n^theta = sum_{j<=n} A_j^{theta-1}
        for n in range(0, 51, 10):
            total = math.fsum(cesaro_number(j, theta - 1.0) for j in range(n + 1))
            assert rel_gap(total, cesaro_number(n, theta)) < 1e-10

    def test_negative_integer_delta_rejected(self):
        with pytest.raises(ValueError):
            cesaro_number(3, -2.0)


class TestIdentities:
    @pytest.mark.parametrize("theta", [0.3, 0.7, 3.3])
    def test_mean_identity_at_four_million(self, theta):
        # a running product of the rounded ratios drifted by 2.7e-10 here at
        # theta = 0.7, over the identities command's 1e-10
        lhs, rhs = verify_mean_identity(4_000_000, theta)
        assert rel_gap(lhs, rhs) < 1e-12

    @pytest.mark.parametrize("theta", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("n", [1, 2, cesaro.TABLE_BLOCK, cesaro.TABLE_BLOCK + 1,
                                   3 * cesaro.TABLE_BLOCK + 5])
    def test_identity_sums_equal_whole_array(self, n, theta):
        # one psi_blocks sweep, summed pairwise per block and by fsum across
        # blocks, with H_{j-1} carried from block to block
        assert cesaro._identity_sums(n, theta) == identity_sums_formula(n, theta)

    @pytest.mark.parametrize("theta", [0.5, 1.0, 2.0])
    def test_identity_sums_in_blocks_of_seven_equal_whole_array(self, monkeypatch, theta):
        # many block edges, each crossed by the running harmonic sum
        monkeypatch.setattr(cesaro, "TABLE_BLOCK", 7)
        for n in (1, 2, 6, 7, 8, 20, 21, 50):
            assert cesaro._identity_sums(n, theta) == identity_sums_formula(n, theta)

    @pytest.mark.parametrize("check", [
        verify_mean_identity, verify_harmonic_identity, verify_quadratic_identity,
    ], ids=["mean", "harmonic", "quadratic"])
    def test_identity_sums_hold_no_list_of_n_floats(self, check):
        # buffers of one block: 1.3 MB.  The whole psi table and up to three
        # more arrays of n took 10.1, 24.0 and 16.0 MB here
        n = 10**6
        tracemalloc.start()
        check(n, 0.7)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak < 4e6

    @pytest.mark.parametrize("theta", THETAS)
    @pytest.mark.parametrize("n", [1, 7, 100, 1000])
    def test_mean_identity(self, n, theta):
        lhs, rhs = verify_mean_identity(n, theta)
        assert rel_gap(lhs, rhs) < 1e-10

    @pytest.mark.parametrize("theta", THETAS)
    @pytest.mark.parametrize("n", [1, 7, 100, 1000])
    def test_harmonic_identity(self, n, theta):
        lhs, rhs = verify_harmonic_identity(n, theta)
        assert rel_gap(lhs, rhs) < 1e-10

    @pytest.mark.parametrize("theta", [1e-1, 1e-6, 1e-10, 1e-16, 1e-100, 1e-150, 2.0**-500])
    @pytest.mark.parametrize("n", [2, 500, 2000])
    def test_identities_hold_at_small_theta(self, n, theta):
        # the harmonic right side formed theta + 1 before subtracting 1, so its
        # term 1/theta kept only the bits of theta above 2**-52: a gap of
        # 8.3e-8 at theta = 1e-10
        for lhs, rhs in (
            verify_mean_identity(n, theta),
            verify_harmonic_identity(n, theta),
            verify_quadratic_identity(n, theta),
            verify_telescoping(n, max(1, n // 3), theta),
        ):
            assert rel_gap(lhs, rhs) < 1e-13

    @pytest.mark.parametrize("check", [
        verify_mean_identity,
        verify_harmonic_identity,
        verify_quadratic_identity,
        lambda n, theta: verify_telescoping(n, 3, theta),
    ], ids=["mean", "harmonic", "quadratic", "telescoping"])
    def test_theta_below_the_floor_refused(self, check):
        # at 1e-200 1/theta**2 overflowed: NaN and Infinity, and numpy warnings
        with pytest.raises(ValueError, match="theta = 1e-200 is below 2\\*\\*-500, the floor"):
            check(10, 1e-200)
        # the floor is cesaro.THETA_FLOOR, and the message names it as before
        assert THETA_FLOOR == 2.0**-500
        check(10, THETA_FLOOR)
        theta = math.nextafter(THETA_FLOOR, 0.0)
        message = (f"theta = {theta} is below 2**-500, the floor of the identity checks, "
                   "whose sums reach 1/theta**2")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            check(10, theta)

    def test_harmonic_identity_theta_one_is_harmonic_number(self):
        lhs, rhs = verify_harmonic_identity(25, 1.0)
        h25 = math.fsum(1.0 / k for k in range(1, 26))
        assert lhs == pytest.approx(h25, rel=1e-12)
        assert rhs == pytest.approx(h25, rel=1e-12)

    def test_quadratic_identity_n1(self):
        lhs, rhs = verify_quadratic_identity(1, 0.7)
        assert lhs == pytest.approx(1 / 0.7**2, rel=1e-12)
        assert rhs == pytest.approx(1 / 0.7**2, rel=1e-12)

    @pytest.mark.parametrize("theta", THETAS)
    def test_quadratic_identity_n300(self, theta):
        lhs, rhs = verify_quadratic_identity(300, theta)
        assert rel_gap(lhs, rhs) < 1e-8

    def test_quadratic_rhs_is_partial_zeta_at_theta_one(self):
        _, rhs = verify_quadratic_identity(300, 1.0)
        assert rhs == pytest.approx(math.fsum(1 / k**2 for k in range(1, 301)), rel=1e-12)

    @pytest.mark.parametrize("theta", [0.5, 2.3])
    def test_quadratic_beyond_the_old_cap_equals_double_sum(self, theta):
        # n = 6000 was refused while the left side was the O(n^2) double sum
        lhs, rhs = verify_quadratic_identity(6000, theta)
        assert lhs == pytest.approx(quadratic_double_sum(6000, theta, absolute=False), rel=1e-12)
        assert rel_gap(lhs, rhs) < 1e-8

    @pytest.mark.parametrize("theta", [0.3, 1.0, 2.5])
    @pytest.mark.parametrize("n", [1, 2, 3, 257, 2000])
    def test_quadratic_closed_form_equals_double_sum(self, n, theta):
        lhs, _ = verify_quadratic_identity(n, theta)
        assert lhs == pytest.approx(quadratic_double_sum(n, theta, absolute=False), rel=1e-12)

    @pytest.mark.parametrize("theta", THETAS)
    def test_telescoping(self, theta):
        for n, j in [(2, 1), (50, 49), (200, 7), (200, 100)]:
            lhs, rhs = verify_telescoping(n, j, theta)
            assert rel_gap(lhs, rhs) < 1e-10

    def test_telescoping_readme_value(self):
        # the identities command's probe at n = 500, against mpmath's sum of
        # the binomial ratios at 40 digits
        lhs, rhs = verify_telescoping(500, 166, 0.7)
        exact = 0.004541403841177407296470218
        assert lhs == pytest.approx(exact, rel=1e-13)
        assert rhs == pytest.approx(exact, rel=1e-13)

    @pytest.mark.parametrize("theta", [1e6, 1e10, 1e15])
    def test_telescoping_holds_at_large_theta(self, theta):
        # log-gamma differences near theta log theta were off by 5.4e-10,
        # 4.0e-6 and 8.6 relative here
        lhs, rhs = verify_telescoping(10, 3, theta)
        assert rel_gap(lhs, rhs) < 1e-13

    def test_telescoping_theta_one_closed_form(self):
        lhs, rhs = verify_telescoping(80, 16, 1.0)
        assert rhs == pytest.approx(1 / 16 - 1 / 80, rel=1e-13)
        assert lhs == pytest.approx(1 / 16 - 1 / 80, rel=1e-10)

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=400),
        theta=st.floats(min_value=0.05, max_value=8.0),
    )
    def test_single_sum_identities_fuzz(self, n, theta):
        lhs, rhs = verify_mean_identity(n, theta)
        assert rel_gap(lhs, rhs) < 1e-9
        lhs, rhs = verify_harmonic_identity(n, theta)
        assert rel_gap(lhs, rhs) < 1e-9


class TestAbsoluteQuadraticSum:
    def test_n1(self):
        assert absolute_quadratic_sum(1, 0.5) == pytest.approx(1 / 0.5**2, rel=1e-12)

    @pytest.mark.parametrize("theta", [1.0, 1.5, 2.5])
    def test_equals_signed_sum_for_theta_at_least_one(self, theta):
        # every term has one sign there, so |.| changes nothing
        lhs, _ = verify_quadratic_identity(150, theta)
        assert absolute_quadratic_sum(150, theta) == pytest.approx(lhs, rel=1e-10)

    def test_bounded_in_n_for_small_theta(self):
        values = [absolute_quadratic_sum(n, 0.5) for n in (50, 100, 200, 400)]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
        assert abs(values[-1] / values[-2] - 1.0) < 0.05
