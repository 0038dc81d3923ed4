import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import kstest

from conftest import (
    count_arc_mod_left,
    counts_from_lengths,
    cycle_type,
    enumerate_angles_mod,
    enumerate_angles_perm,
    exact_covariance_mod_formula,
    exact_moments_mod_formula,
    exact_law_moments_perm,
    exact_moments_perm_formula,
    exhaustive_moments_perm,
    frac_parts_direct,
    frac_shift_invariant,
    partition_probabilities,
    perm_mean_formula,
    plain_moments_mpmath,
    psi_values_full,
)
from permspectra import (
    Arc,
    EwensParams,
    attach_phases,
    count_arc_mod,
    count_arc_perm,
    exact_covariance_mod,
    exact_covariance_perm,
    exact_moments_mod,
    exact_moments_perm,
    sample_cycle_counts,
)
from permspectra import cesaro, spectral
from permspectra.cli import main, parse_arcs
from permspectra.spectral import (
    PLAIN_THETA_FLOOR, PLAIN_THETA_LIMIT, _perm_mean, frac_into, frac_parts,
)


def random_arc(rng) -> Arc:
    a = float(rng.random())
    b = a + float(rng.random())
    return Arc(a, min(b, a + 1.0)) if b > a else Arc(a, a + 0.5)


class TestArc:
    def test_validation(self):
        with pytest.raises(ValueError):
            Arc(-0.1, 0.5)
        with pytest.raises(ValueError):
            Arc(0.5, 0.5)
        with pytest.raises(ValueError):
            Arc(0.5, 1.6)
        Arc(0.0, 1.0)  # full circle is fine
        Arc(F(1, 3), F(4, 3))

    def test_width(self):
        assert Arc(F(1, 4), F(3, 4)).width == F(1, 2)


class TestCountArcPerm:
    def test_identity_permutation_away_from_zero(self):
        counts = cycle_type(5, {1: 5})
        assert count_arc_perm(counts, Arc(F(1, 4), F(3, 4))) == 0

    def test_single_four_cycle_half_circle(self):
        assert count_arc_perm(cycle_type(4, {4: 1}), Arc(F(0), F(1, 2))) == 2

    def test_full_circle_gives_n(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            counts = sample_cycle_counts(50, EwensParams(1.0), rng)
            a = float(rng.random())
            assert count_arc_perm(counts, Arc(a, a + 1.0)) == 50

    def test_monotone_and_additive(self):
        rng = np.random.default_rng(1)
        counts = sample_cycle_counts(120, EwensParams(0.7), rng)
        for _ in range(50):
            a = float(rng.random()) * 0.5
            g = a + float(rng.random()) * 0.25 + 1e-9
            b = g + float(rng.random()) * 0.25 + 1e-9
            whole = count_arc_perm(counts, Arc(a, b))
            left = count_arc_perm(counts, Arc(a, g))
            right = count_arc_perm(counts, Arc(g % 1.0, b) if g < 1 else Arc(g - 1, b - 1))
            assert left + right == whole
            assert left <= whole

    def test_matches_enumeration_on_random_arcs(self):
        rng = np.random.default_rng(2)
        counts = counts_from_lengths([1, 2, 3, 4, 6, 6, 9])
        angles = enumerate_angles_perm(counts)
        for _ in range(100):
            arc = random_arc(rng)
            a, b = float(arc.alpha), float(arc.beta)
            brute = sum(
                m
                for ang, m in angles
                if a < float(ang) <= b or a < float(ang) + 1.0 <= b
            )
            assert count_arc_perm(counts, arc) == brute


class TestAttachPhases:
    def test_fixed_points(self):
        spec = attach_phases(cycle_type(6, {1: 6}), np.random.default_rng(0))
        assert spec.lengths.tolist() == [1] * 6

    def test_two_three_cycles(self):
        spec = attach_phases(cycle_type(6, {3: 2}), np.random.default_rng(0))
        assert spec.lengths.tolist() == [3, 3]
        assert len(set(spec.phases.tolist())) == 2

    def test_phases_uniform(self):
        rng = np.random.default_rng(3)
        phases = np.concatenate(
            [attach_phases(cycle_type(4, {2: 2}), rng).phases for _ in range(5000)]
        )
        assert kstest(phases, "uniform").pvalue > 0.01


class TestCountArcMod:
    def test_two_cycle_half_phase(self):
        spec = attach_phases(cycle_type(2, {2: 1}), np.random.default_rng(0))
        spec.phases[:] = 0.5  # angles 0.25 and 0.75
        assert count_arc_mod(spec, Arc(0.0, 0.5)) == 1

    def test_full_circle(self):
        rng = np.random.default_rng(4)
        counts = sample_cycle_counts(40, EwensParams(1.0), rng)
        spec = attach_phases(counts, rng)
        assert count_arc_mod(spec, Arc(0.3, 1.3)) == 40

    def test_mean_contribution_of_single_cycle(self):
        # averaged over the phase, a j-cycle contributes j * width
        rng = np.random.default_rng(5)
        j, width, trials = 7, 0.31, 20000
        arc = Arc(0.17, 0.17 + width)
        counts = cycle_type(j, {j: 1})
        values = np.array(
            [count_arc_mod(attach_phases(counts, rng), arc) for _ in range(trials)],
            dtype=float,
        )
        se = values.std(ddof=1) / math.sqrt(trials)
        assert abs(values.mean() - j * width) < 4 * se

    def test_monotone_in_beta(self):
        rng = np.random.default_rng(11)
        counts = sample_cycle_counts(80, EwensParams(1.0), rng)
        spec = attach_phases(counts, rng)
        alpha = 0.2
        last_perm, last_mod = 0, 0
        for beta in np.linspace(0.21, 1.2, 60):
            arc = Arc(alpha, float(beta))
            cur_perm = count_arc_perm(counts, arc)
            cur_mod = count_arc_mod(spec, arc)
            assert cur_perm >= last_perm
            assert cur_mod >= last_mod
            last_perm, last_mod = cur_perm, cur_mod

    def test_closed_side_invariance(self):
        # almost surely no eigenangle hits a float endpoint
        rng = np.random.default_rng(6)
        params = EwensParams(1.0)
        disagreements = 0
        for _ in range(100_000):
            counts = sample_cycle_counts(8, params, rng)
            spec = attach_phases(counts, rng)
            arc = random_arc(rng)
            disagreements += count_arc_mod(spec, arc) != count_arc_mod_left(spec, arc)
        assert disagreements == 0


class TestEnumeration:
    def test_two_and_three_cycle_union(self):
        angles = enumerate_angles_perm(counts_from_lengths([2, 3]))
        assert angles == [(F(0), 2), (F(1, 3), 1), (F(1, 2), 1), (F(2, 3), 1)]

    def test_identity(self):
        assert enumerate_angles_perm(cycle_type(9, {1: 9})) == [(F(0), 9)]

    def test_multiplicities_sum_to_n(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            counts = sample_cycle_counts(200, EwensParams(2.0), rng)
            angles = enumerate_angles_perm(counts)
            assert sum(m for _, m in angles) == 200

    def test_mod_single_cycle(self):
        spec = attach_phases(cycle_type(1, {1: 1}), np.random.default_rng(0))
        spec.phases[:] = 0.3
        assert np.allclose(enumerate_angles_mod(spec), [0.3])

    def test_mod_four_cycle_zero_phase(self):
        spec = attach_phases(cycle_type(4, {4: 1}), np.random.default_rng(0))
        spec.phases[:] = 0.0
        assert np.allclose(enumerate_angles_mod(spec), [0.0, 0.25, 0.5, 0.75])

    def test_mod_counting_equivalence(self):
        rng = np.random.default_rng(8)
        counts = sample_cycle_counts(60, EwensParams(1.0), rng)
        spec = attach_phases(counts, rng)
        angles = enumerate_angles_mod(spec)
        assert len(angles) == 60
        for _ in range(50):
            arc = random_arc(rng)
            a, b = float(arc.alpha), float(arc.beta)
            brute = int(np.sum((angles > a) & (angles <= b)))
            brute += int(np.sum((angles + 1.0 > a) & (angles + 1.0 <= b)))
            assert count_arc_mod(spec, arc) == brute


class TestExactMomentsPerm:
    def test_n1_variance_zero(self):
        m = exact_moments_perm(1, 1.3, Arc(0.2, 0.9))
        assert m.variance == pytest.approx(0.0, abs=1e-14)

    def test_hand_mean_value(self):
        m = exact_moments_perm(4, 1.0, Arc(F(0), F(1, 2)))
        assert m.mean == pytest.approx(4 / 3, rel=1e-12)

    @pytest.mark.parametrize("theta", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_matches_exhaustive_oracle(self, n, theta):
        arc = Arc(0.1, 0.6)
        mean, var = exhaustive_moments_perm(n, theta, arc)
        m = exact_moments_perm(n, theta, arc)
        assert m.mean == pytest.approx(mean, abs=1e-10)
        assert m.variance == pytest.approx(var, abs=1e-10)

    def test_rational_arc_oracle(self):
        arc = Arc(F(1, 5), F(4, 5))
        mean, var = exhaustive_moments_perm(6, 1.5, arc)
        m = exact_moments_perm(6, 1.5, arc)
        assert m.mean == pytest.approx(mean, abs=1e-10)
        assert m.variance == pytest.approx(var, abs=1e-10)

    @pytest.mark.parametrize("arc", [Arc(0.1, 0.6), Arc(F(1, 3), F(3, 4))], ids=str)
    def test_beyond_the_old_cap_equals_direct_convolution(self, arc):
        # n = 6000 was refused while the cross term was an O(n^2) convolution
        m = exact_moments_perm(6000, 1.3, arc)
        direct = exact_moments_perm_formula(6000, 1.3, arc)
        assert m.mean == direct.mean
        assert m.variance == pytest.approx(direct.variance, rel=1e-13)

    def test_covariance_diagonal_consistency(self):
        arc = Arc(0.1, 0.7)
        variance = exact_moments_perm(300, 0.8, arc).variance
        assert exact_covariance_perm(300, 0.8, arc, arc) == variance


class TestExactMomentsMod:
    def test_n1_bernoulli(self):
        m = exact_moments_mod(1, 1.0, Arc(0.2, 0.7))
        assert m.mean == pytest.approx(0.5, rel=1e-12)
        assert m.variance == pytest.approx(0.25, rel=1e-12)

    def test_full_circle_variance_zero(self):
        m = exact_moments_mod(50, 2.0, Arc(F(1, 4), F(5, 4)))
        assert m.variance == pytest.approx(0.0, abs=1e-14)

    def test_matches_monte_carlo(self):
        # conditional sampling: draw types from the exact law, then phases
        n, theta, trials = 4, 2.0, 10**6
        arc = Arc(0.1, 0.6)
        rng = np.random.default_rng(9)
        types, probs = partition_probabilities(n, theta)
        type_draws = rng.choice(len(types), size=trials, p=probs / probs.sum())
        total = np.zeros(trials, dtype=np.int64)
        for idx, t in enumerate(types):
            rows = np.flatnonzero(type_draws == idx)
            if len(rows) == 0:
                continue
            for j, a in t.counts.items():
                for _ in range(a):
                    phi = rng.random(len(rows))
                    total[rows] += (
                        np.floor(j * float(arc.beta) - phi)
                        - np.floor(j * float(arc.alpha) - phi)
                    ).astype(np.int64)
        m = exact_moments_mod(n, theta, arc)
        s2 = float(np.var(total, ddof=1))
        m4 = float(np.mean((total - total.mean()) ** 4))
        se = math.sqrt(max(m4 - s2 * s2, 1e-12) / trials)
        assert abs(s2 - m.variance) < 3 * se
        assert abs(total.mean() - m.mean) < 4 * math.sqrt(s2 / trials)

    def test_covariance_diagonal_consistency(self):
        arc = Arc(0.05, 0.55)
        variance = exact_moments_mod(400, 1.9, arc).variance
        assert exact_covariance_mod(400, 1.9, arc, arc) == variance


# float, Fraction, mixed and wrapped (beta > 1) arcs
FORMULA_ARCS = (
    Arc(0.1, 0.7),
    Arc(F(1, 3), F(3, 4)),
    Arc(F(2, 7), 0.9),
    Arc(0.8, 1.45),
    Arc(F(5, 6), F(13, 10)),
)


class TestOneFormulaPerEnsemble:
    """``exact_moments_*`` equal the separate variance formulas they replaced
    (bit for bit, but for the plain variance, whose cross term the library
    takes by FFT and the formula by direct convolution: 5e-16 relative at
    worst), and the off-diagonal covariance obeys additivity: for
    adjacent arcs A = (a, b] and B = (b, c], X_A + X_B = X_(a, c], so
    cov(A, B) = (var(a, c) - var(a, b) - var(b, c)) / 2."""

    @pytest.mark.parametrize("arc", FORMULA_ARCS, ids=str)
    @pytest.mark.parametrize("theta", [0.5, 1.0, 2.3])
    @pytest.mark.parametrize("n", [1, 2, 7, 300, 5000])
    def test_perm_equals_formula(self, n, theta, arc):
        m, direct = exact_moments_perm(n, theta, arc), exact_moments_perm_formula(n, theta, arc)
        assert m.mean == direct.mean
        assert m.variance == pytest.approx(direct.variance, rel=1e-13, abs=1e-300)

    @pytest.mark.parametrize("arc", FORMULA_ARCS, ids=str)
    @pytest.mark.parametrize("theta", [0.5, 1.0, 2.3])
    @pytest.mark.parametrize("n", [1, 7, 10**4, 10**6])
    def test_mod_equals_formula(self, n, theta, arc):
        assert exact_moments_mod(n, theta, arc) == exact_moments_mod_formula(n, theta, arc)

    @pytest.mark.parametrize(
        "model",
        [(exact_covariance_perm, exact_moments_perm), (exact_covariance_mod, exact_moments_mod)],
        ids=["perm", "mod"],
    )
    @pytest.mark.parametrize(
        "a, b, c", [(0.1, 0.35, 0.8), (F(1, 5), F(1, 2), F(9, 8)), (0.6, 0.95, 1.3)]
    )
    def test_adjacent_arcs_additive(self, model, a, b, c):
        covariance, moments = model
        n, theta = 900, 1.7
        left, right = Arc(a, b), Arc(b, c)
        whole = moments(n, theta, Arc(a, c)).variance
        parts = moments(n, theta, left).variance + moments(n, theta, right).variance
        expected = (whole - parts) / 2
        assert covariance(n, theta, left, right) == pytest.approx(expected, rel=1e-9, abs=1e-12)
        assert covariance(n, theta, right, left) == pytest.approx(expected, rel=1e-9, abs=1e-12)


#: (arc1, arc2, the map h_weights must give) in Fractions
H_WEIGHT_CASES = {
    "identical": ((F(1, 3), F(3, 4)), (F(1, 3), F(3, 4)), {F(5, 12): 1.0}),
    "shared endpoint b1 = a2": (
        (F(1, 5), F(1, 2)), (F(1, 2), F(4, 5)), {F(3, 5): 0.5, F(3, 10): -1.0}
    ),
    "nested": (
        (F(1, 10), F(9, 10)), (F(1, 4), F(2, 3)),
        {F(13, 20): 0.5, F(17, 30): 0.5, F(3, 20): -0.5, F(7, 30): -0.5},
    ),
    "disjoint": (
        (F(0), F(1, 6)), (F(1, 2), F(5, 7)),
        {F(1, 3): 0.5, F(5, 7): 0.5, F(1, 2): -0.5, F(23, 42): -0.5},
    ),
    "wrapped, beta > 1": (
        (F(2, 3), F(6, 5)), (F(1, 7), F(3, 8)),
        {F(37, 35): 0.5, F(7, 24): 0.5, F(11, 21): -0.5, F(33, 40): -0.5},
    ),
    "full circle": (
        (F(1, 3), F(4, 3)), (F(1, 5), F(1, 2)),
        {F(17, 15): 0.5, F(1, 6): 0.5, F(2, 15): -0.5, F(5, 6): -0.5},
    ),
    # b1 - a2 = -(a1 - a2): the weights of |x| = 1/4 cancel
    "weights cancel": ((F(0), F(1, 2)), (F(1, 4), F(1)), {F(1): 0.5, F(1, 2): -0.5}),
}


class TestHWeights:
    """``h_weights`` is the signed four-term H_j, exactly, for every j."""

    @pytest.mark.parametrize("case", H_WEIGHT_CASES)
    def test_equals_the_signed_four_terms_over_a_period(self, case):
        (a1, b1), (a2, b2), expected = H_WEIGHT_CASES[case]
        weights = spectral.h_weights(a1, b1, a2, b2)
        assert weights == expected and all(x > 0 and w != 0 for x, w in weights.items())

        def h(x, j):
            f = (j * x) % 1
            return f * (1 - f)

        period = math.lcm(*(x.denominator for x in (a1, b1, a2, b2)))
        for j in range(1, period + 1):
            signed = (h(b1 - a2, j) + h(a1 - b2, j) - h(a1 - a2, j) - h(b1 - b2, j)) / 2
            assert sum(F(w) * h(x, j) for x, w in weights.items()) == signed


BLOCK = cesaro.TABLE_BLOCK
#: j q of its denominator q crosses 2**62 halfway through the second block,
#: so that block onwards takes the Python-integer products
_BIG_Q = 2**62 // (3 * BLOCK // 2) | 1
BIG_DENOMINATOR = F(_BIG_Q // 2, _BIG_Q)


def _streamed_cases():
    """(n, theta): n at the block edges and, where the cut of the near-one
    factors falls inside a run, n that put it at the edge of the first block."""
    cases = []
    for theta in (0.5, 1.0, 2.0, 7.3, 1e6):
        sizes = {BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5}
        cut = math.floor(16 * abs(theta - 1.0))
        if 0 < cut < BLOCK:
            sizes |= {BLOCK + cut - 1, BLOCK + cut, BLOCK + cut + 1}
        cases += [(n, theta) for n in sorted(sizes)]
    return cases


STREAMED_ARCS = (
    Arc(0.1, 0.7),
    Arc(F(1, 3), F(5, 7)),
    Arc(0.6180339887498949, 1.4142135623730951),
    Arc(F(1, 5), BIG_DENOMINATOR),
)


#: rational arcs that hold 0 or 1/2, so that fixed points or 2-cycles reach them
WIDE_ARCS = (
    Arc(F(1, 10), F(1, 2)), Arc(F(1, 3), F(3, 4)), Arc(F(2, 5), F(9, 10)),
    Arc(F(5, 13), F(12, 13)), Arc(F(0), F(1, 2)), Arc(F(1, 5), F(7, 10)),
)


#: the arcs that the README and the benchmark give the plain exact moments,
#: but for the decimal (0.2, 0.7], which WIDE_ARCS holds as (1/5, 7/10]:
#: exact-moments' (1/3, 3/4] and (sqrt 2, golden], and clt's (sqrt 2,
#: golden] and narrow (e, sqrt 3], which no cycle shorter than 11 reaches
SERVED_ARCS = parse_arcs("rat:1/3,rat:3/4;irr:sqrt2,irr:golden;irr:e,irr:sqrt3")


class TestPlainThetaLimit:
    """From PLAIN_THETA_FLOOR up to PLAIN_THETA_LIMIT the plain mean and
    variance keep 1e-12 relative on wide arcs and on the arcs the commands
    are given; theta outside is refused, after the overflow guard."""

    @pytest.mark.parametrize(
        "theta", [F(PLAIN_THETA_FLOOR), F(1, 2), F(1), F(25, 2), F(int(PLAIN_THETA_LIMIT))]
    )
    def test_within_1e12_of_the_exact_law(self, theta):
        for n in range(2, 21):
            for arc in WIDE_ARCS:
                mean, variance = exact_law_moments_perm(n, theta, arc)
                m = exact_moments_perm(n, float(theta), arc)
                assert m.mean == pytest.approx(float(mean), rel=1e-12, abs=0)
                assert _perm_mean(n, float(theta), arc) == pytest.approx(m.mean, rel=1e-12, abs=0)
                assert m.variance == pytest.approx(float(variance), rel=1e-12, abs=0)

    @pytest.mark.parametrize("theta", [F(PLAIN_THETA_FLOOR), F(2), F(int(PLAIN_THETA_LIMIT))])
    @pytest.mark.parametrize("arc", SERVED_ARCS, ids=str)
    def test_within_1e12_of_mpmath_at_n_1000(self, theta, arc):
        mean, variance = plain_moments_mpmath(1000, theta, arc)
        m = exact_moments_perm(1000, float(theta), arc)
        assert m.mean == pytest.approx(float(mean), rel=1e-12, abs=0)
        assert _perm_mean(1000, float(theta), arc) == pytest.approx(float(mean), rel=1e-12, abs=0)
        assert m.variance == pytest.approx(float(variance), rel=1e-12, abs=0)

    def test_the_narrow_arc_misses_1e12_one_doubling_above(self, monkeypatch):
        # with the limit lifted, clt's (e, sqrt 3] at n = 1000 loses more
        # than 1e-12 at 2 * PLAIN_THETA_LIMIT
        monkeypatch.setattr(spectral, "PLAIN_THETA_LIMIT", math.inf)
        theta, arc = F(2 * int(PLAIN_THETA_LIMIT)), SERVED_ARCS[2]
        variance = float(plain_moments_mpmath(1000, theta, arc)[1])
        computed = exact_moments_perm(1000, float(theta), arc).variance
        assert abs(computed - variance) / variance > 1e-12

    @pytest.mark.parametrize("call", [
        lambda theta: exact_moments_perm(10, theta, Arc(0.1, 0.5)),
        lambda theta: exact_covariance_perm(10, theta, Arc(0.1, 0.5), Arc(0.2, 0.7)),
    ], ids=["moments", "covariance"])
    def test_theta_above_the_limit_refused(self, call):
        call(PLAIN_THETA_LIMIT)
        for theta in (math.nextafter(PLAIN_THETA_LIMIT, math.inf), 1e6, 2.0**53):
            with pytest.raises(ValueError, match=f"theta = {theta} exceeds 2\\*\\*9, the limit"):
                call(theta)
        # the overflow guard speaks first
        with pytest.raises(ValueError, match="exceeds 2\\*\\*53, the guard against overflow"):
            call(1e308)

    @pytest.mark.parametrize("call", [
        lambda theta: exact_moments_perm(10, theta, Arc(0.1, 0.5)),
        lambda theta: exact_covariance_perm(10, theta, Arc(0.1, 0.5), Arc(0.2, 0.7)),
    ], ids=["moments", "covariance"])
    def test_theta_below_the_floor_refused(self, call):
        call(PLAIN_THETA_FLOOR)
        for theta in (math.nextafter(PLAIN_THETA_FLOOR, 0.0), 2.0**-7, 1e-9, 5e-324):
            with pytest.raises(ValueError, match=f"theta = {theta} is below 2\\*\\*-6, the floor"):
                call(theta)
        with pytest.raises(ValueError, match="theta must be positive and finite, got 0.0"):
            call(0.0)

    def test_small_theta_command_exits_1(self, capsys):
        # the variance printed 1.7e-16 against the exact 5.0e-19 before the floor
        argv = ["exact-moments", "--n", "3", "--alpha", "rat:5/13", "--beta", "rat:12/13",
                "--model", "perm"]
        assert main([*argv, "--theta", "1e-9"]) == 1
        message = ("theta = 1e-09 is below 2**-6, the floor of the plain-ensemble exact "
                   "moments, whose cancellation loses digits as theta shrinks")
        assert capsys.readouterr().err == f"error: {message}\n"
        assert main([*argv, "--theta", "0.015625"]) == 0


class TestStreamedTables:
    """The psi table, the plain mean and the modified covariance, built a
    block of j at a time, equal the whole-array formulas bit for bit."""

    def test_big_denominator_switches_to_python_integers_mid_run(self):
        assert BLOCK * _BIG_Q < 2**62 <= 2 * BLOCK * _BIG_Q

    @pytest.mark.parametrize("n, theta", _streamed_cases())
    def test_psi_table_equals_whole_array(self, n, theta):
        assert cesaro.psi_values(n, theta).tobytes() == psi_values_full(n, theta).tobytes()

    @pytest.mark.parametrize("n, theta", _streamed_cases())
    def test_plain_mean_equals_whole_array(self, n, theta):
        for arc in STREAMED_ARCS:
            mean = _perm_mean(n, theta, arc)
            assert mean == perm_mean_formula(n, theta, arc)
            if theta < 10:  # the plain covariance's overflow guard
                assert exact_moments_perm(n, theta, arc).mean == mean

    @pytest.mark.parametrize("n, theta", _streamed_cases())
    def test_modified_variance_equals_whole_array(self, n, theta):
        for arc in STREAMED_ARCS:
            assert exact_moments_mod(n, theta, arc) == exact_moments_mod_formula(n, theta, arc)

    @pytest.mark.parametrize("theta", [0.5, 1.0, 7.3, 1e6])
    @pytest.mark.parametrize("arcs", [
        (Arc(0.1, 0.35), Arc(0.2, 0.8)),  # four distinct |x|
        (Arc(0.1, 0.4), Arc(0.4, 0.7)),  # x = 0 dropped, two x of one |x|
        (Arc(F(1, 5), F(1, 2)), Arc(F(1, 2), F(4, 5))),
        (Arc(F(1, 5), BIG_DENOMINATOR), Arc(F(1, 3), 0.9)),
    ], ids=str)
    def test_modified_covariance_equals_whole_array(self, theta, arcs):
        for n in (BLOCK + 1, 3 * BLOCK + 5):
            for first, second in (arcs, arcs[::-1]):
                assert exact_covariance_mod(n, theta, first, second) == (
                    exact_covariance_mod_formula(n, theta, first, second))

    @pytest.mark.parametrize("theta", [0.5, 1.0, 2.0, 1e6])
    def test_blocks_of_seven_equal_whole_arrays(self, monkeypatch, theta):
        # many edges at small n, where the O(n^2) plain formula is cheap too
        monkeypatch.setattr(cesaro, "TABLE_BLOCK", 7)
        for n in (1, 6, 7, 8, 20, 21, 50):
            assert cesaro.psi_values(n, theta).tobytes() == psi_values_full(n, theta).tobytes()
            assert [cesaro.psi(n, j, theta) for j in range(1, n + 1)] == (
                psi_values_full(n, theta).tolist())
            for arc in STREAMED_ARCS:
                assert _perm_mean(n, theta, arc) == perm_mean_formula(n, theta, arc)
                assert exact_moments_mod(n, theta, arc) == exact_moments_mod_formula(n, theta, arc)
                assert exact_covariance_mod(n, theta, arc, STREAMED_ARCS[0]) == (
                    exact_covariance_mod_formula(n, theta, arc, STREAMED_ARCS[0]))
                if theta < 10:
                    assert exact_moments_perm(n, theta, arc).mean == (
                        exact_moments_perm_formula(n, theta, arc).mean)


class TestFracShiftInvariance:
    def test_zero_shift(self):
        lhs, rhs = frac_shift_invariant(0.3, 0.8, 0.0)
        assert lhs == rhs

    def test_hand_value(self):
        lhs, rhs = frac_shift_invariant(0.7, 0.2, 0.6)
        assert lhs == pytest.approx(0.25, abs=1e-12)
        assert rhs == pytest.approx(0.25, abs=1e-12)

    def test_fuzz(self):
        rng = np.random.default_rng(10)
        xs, ys, ts = (rng.uniform(-5, 5, 100_000) for _ in range(3))
        u0 = np.abs(xs % 1.0 - ys % 1.0)
        u1 = np.abs((xs + ts) % 1.0 - (ys + ts) % 1.0)
        assert np.max(np.abs(u1 * (1 - u1) - u0 * (1 - u0))) < 1e-12

    @settings(max_examples=200, deadline=None)
    @given(
        x=st.floats(-100, 100),
        y=st.floats(-100, 100),
        t=st.floats(-100, 100),
    )
    def test_property(self, x, y, t):
        lhs, rhs = frac_shift_invariant(x, y, t)
        assert lhs == pytest.approx(rhs, abs=1e-9)


class TestExactFractionArithmetic:
    """Rational endpoints stay exact for every denominator the CLI accepts:
    int64 products j * p would wrap once n * q reaches 2**63."""

    @pytest.mark.parametrize("x", [F(5, 12), F(17, 5), F(-7, 3), F(3), F(1, 4999), F(1, 5000),
                                   F(2, 5001), F(4999, 10001), F(10**6 + 1, 8192),
                                   BIG_DENOMINATOR, F(2**62 + 1, 2**63 - 25), 0.6180339887498949,
                                   -2.75], ids=str)
    @pytest.mark.parametrize("n, start", [(10_000, 1), (10_000, 2), (10_001, 8), (8192, 1),
                                          (16_384, 8193), (1, 1), (7, 7),
                                          (2 * BLOCK, BLOCK + 1)])
    def test_tiled_period_equals_direct_residues(self, x, n, start):
        # q around half the length (tiled from 2q <= length on), starts beyond 1
        # (limits' blocks), whole parts above 0, q = 1, floats, and int64
        # products that turn to Python integers inside the run (BIG_DENOMINATOR
        # from the last (n, start)) or that would wrap in int64 from j = 2 on;
        # the writer fills a slice at offset start - 1
        got, direct = frac_parts(x, n, start), frac_parts_direct(x, n, start)
        assert got.dtype == direct.dtype and got.shape == direct.shape == (n - start + 1,)
        assert got.tobytes() == direct.tobytes()
        buffer = np.full(n - start + 3, -1.0)
        assert frac_into(x, start - 1, buffer[1:-1]).tobytes() == direct.tobytes()
        assert buffer[0] == buffer[-1] == -1.0

    @settings(max_examples=200, deadline=None)
    @given(
        q=st.integers(2, 2**80),
        p=st.integers(0, 2**81),
        n=st.integers(1, 100),
    )
    def test_frac_parts_match_fraction_arithmetic(self, q, p, n):
        x = F(p % (2 * q), q)
        got = frac_parts(x, n)
        exact = [float((j * x) % 1) for j in range(1, n + 1)]
        # one rounding of the residue and one of q when q exceeds 2**53
        assert np.max(np.abs(got - exact)) <= 1e-15

    @settings(max_examples=200, deadline=None)
    @given(
        q=st.integers(2, 2**80),
        a=st.integers(0, 2**80),
        width=st.integers(1, 2**80),
        lengths=st.lists(st.integers(1, 60), min_size=1, max_size=12),
    )
    def test_count_arc_perm_floors_exact(self, q, a, width, lengths):
        a %= q
        b = a + 1 + (width - 1) % q  # a < b <= a + q
        arc = Arc(F(a, q), F(b, q))
        counts = counts_from_lengths(lengths)
        exact = sum(math.floor(j * arc.beta) - math.floor(j * arc.alpha) for j in lengths)
        assert count_arc_perm(counts, arc) == exact
