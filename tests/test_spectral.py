import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import kstest

from conftest import (
    counts_from_lengths,
    enumerate_angles_perm,
    exhaustive_moments_perm,
    partition_probabilities,
)
from permspectra import (
    Arc,
    CycleCounts,
    EwensParams,
    attach_phases,
    count_arc_mod,
    count_arc_perm,
    enumerate_angles_mod,
    exact_covariance_mod,
    exact_covariance_perm,
    exact_moments_mod,
    exact_moments_perm,
    frac_shift_invariant,
    sample_cycle_counts,
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
        counts = CycleCounts(5, {1: 5})
        assert count_arc_perm(counts, Arc(F(1, 4), F(3, 4))) == 0

    def test_single_four_cycle_half_circle(self):
        assert count_arc_perm(CycleCounts(4, {4: 1}), Arc(F(0), F(1, 2))) == 2

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
        spec = attach_phases(CycleCounts(6, {1: 6}), np.random.default_rng(0))
        assert spec.lengths.tolist() == [1] * 6

    def test_two_three_cycles(self):
        spec = attach_phases(CycleCounts(6, {3: 2}), np.random.default_rng(0))
        assert spec.lengths.tolist() == [3, 3]
        assert len(set(spec.phases.tolist())) == 2

    def test_phases_uniform(self):
        rng = np.random.default_rng(3)
        phases = np.concatenate(
            [attach_phases(CycleCounts(4, {2: 2}), rng).phases for _ in range(5000)]
        )
        assert kstest(phases, "uniform").pvalue > 0.01


class TestCountArcMod:
    def test_two_cycle_half_phase(self):
        spec = attach_phases(CycleCounts(2, {2: 1}), np.random.default_rng(0))
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
        counts = CycleCounts(j, {j: 1})
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
            disagreements += count_arc_mod(spec, arc, "right") != count_arc_mod(
                spec, arc, "left"
            )
        assert disagreements == 0

    def test_bad_closed_argument(self):
        spec = attach_phases(CycleCounts(2, {2: 1}), np.random.default_rng(0))
        with pytest.raises(ValueError):
            count_arc_mod(spec, Arc(0.0, 0.5), closed="both")


class TestEnumeration:
    def test_two_and_three_cycle_union(self):
        angles = enumerate_angles_perm(counts_from_lengths([2, 3]))
        assert angles == [(F(0), 2), (F(1, 3), 1), (F(1, 2), 1), (F(2, 3), 1)]

    def test_identity(self):
        assert enumerate_angles_perm(CycleCounts(9, {1: 9})) == [(F(0), 9)]

    def test_multiplicities_sum_to_n(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            counts = sample_cycle_counts(200, EwensParams(2.0), rng)
            angles = enumerate_angles_perm(counts)
            assert sum(m for _, m in angles) == 200

    def test_mod_single_cycle(self):
        spec = attach_phases(CycleCounts(1, {1: 1}), np.random.default_rng(0))
        spec.phases[:] = 0.3
        assert np.allclose(enumerate_angles_mod(spec), [0.3])

    def test_mod_four_cycle_zero_phase(self):
        spec = attach_phases(CycleCounts(4, {4: 1}), np.random.default_rng(0))
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

    def test_cap_refuses(self):
        with pytest.raises(ValueError):
            exact_moments_perm(6000, 1.0, Arc(0.1, 0.6))

    def test_covariance_diagonal_consistency(self):
        arc = Arc(0.1, 0.7)
        assert exact_covariance_perm(300, 0.8, arc, arc) == pytest.approx(
            exact_moments_perm(300, 0.8, arc).variance, rel=1e-12
        )


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
        assert exact_covariance_mod(400, 1.9, arc, arc) == pytest.approx(
            exact_moments_mod(400, 1.9, arc).variance, rel=1e-12
        )


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

    @settings(max_examples=200, deadline=None)
    @given(
        q=st.integers(2, 2**80),
        p=st.integers(0, 2**81),
        n=st.integers(1, 100),
    )
    def test_frac_parts_match_fraction_arithmetic(self, q, p, n):
        from permspectra.spectral import frac_parts

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
