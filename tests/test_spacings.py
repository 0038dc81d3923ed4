import math
from fractions import Fraction as F

import numpy as np
import pytest

from conftest import counts_from_lengths, enumerated_gap_range
from permspectra import (
    CycleCounts,
    EwensParams,
    attach_phases,
    max_pairwise_lcm,
    normalized_spacings,
    sample_cycle_counts,
    spacings_mod,
    spacings_perm,
    two_cycle_min_spacing,
    trial_rng,
)


class TestSpacingsPerm:
    def test_single_cycle_equally_spaced(self):
        st = spacings_perm(CycleCounts(7, {7: 1}))
        assert st.smallest_exact == F(1, 7)
        assert st.largest_exact == F(1, 7)
        norm = normalized_spacings(st)
        assert norm.nD == pytest.approx(1.0)
        assert norm.n2d == pytest.approx(7.0)

    def test_two_and_three_cycle(self):
        st = spacings_perm(counts_from_lengths([2, 3]))
        assert st.smallest_exact == F(1, 6)
        assert st.largest_exact == F(1, 3)
        norm = normalized_spacings(st)
        assert norm.nD == pytest.approx(5 / 3)
        assert norm.n2d == pytest.approx(25 / 6)

    def test_four_and_six(self):
        st = spacings_perm(counts_from_lengths([4, 6]))
        assert st.smallest_exact == F(1, 12)  # lcm(4, 6) = 12

    def test_identity_permutation(self):
        st = spacings_perm(CycleCounts(5, {1: 5}))
        assert st.largest_exact == F(1)
        assert st.smallest_exact == F(1)

    def test_lcm_formula_equals_enumeration(self):
        rng = np.random.default_rng(0)
        params = EwensParams(1.0)
        for _ in range(300):
            n = int(rng.integers(1, 301))
            counts = sample_cycle_counts(n, params, rng)
            smallest, largest = enumerated_gap_range(counts)
            st = spacings_perm(counts)
            assert st.smallest_exact == smallest
            assert st.largest_exact == largest
            assert smallest == F(1, max_pairwise_lcm(counts))

    def test_samplewise_bounds(self):
        rng = np.random.default_rng(1)
        params = EwensParams(0.7)
        for _ in range(200):
            n = int(rng.integers(1, 400))
            counts = sample_cycle_counts(n, params, rng)
            st = spacings_perm(counts)
            assert st.largest_exact * n >= 1          # pigeonhole
            assert st.smallest_exact * n * n >= 1     # lcm(k, l) <= n^2


class TestSpacingsMod:
    def test_single_cycle_rotation_invariant(self):
        rng = np.random.default_rng(2)
        spec = attach_phases(CycleCounts(9, {9: 1}), rng)
        st = spacings_mod(spec)
        assert st.largest == pytest.approx(1 / 9, abs=1e-12)
        assert st.smallest == pytest.approx(1 / 9, abs=1e-12)

    def test_two_fixed_points(self):
        spec = attach_phases(CycleCounts(2, {1: 2}), np.random.default_rng(0))
        spec.phases[:] = [0.0, 0.25]
        st = spacings_mod(spec)
        assert st.smallest == pytest.approx(0.25, abs=1e-12)
        assert st.largest == pytest.approx(0.75, abs=1e-12)

    def test_modified_never_exceeds_plain_smallest(self):
        rng = np.random.default_rng(3)
        params = EwensParams(1.0)
        for _ in range(2000):
            n = int(rng.integers(2, 200))
            counts = sample_cycle_counts(n, params, rng)
            d_plain = spacings_perm(counts).smallest
            d_mod = spacings_mod(attach_phases(counts, rng)).smallest
            assert d_mod <= d_plain + 1e-12

    def test_largest_bounded_by_longest_cycle(self):
        rng = np.random.default_rng(4)
        params = EwensParams(1.5)
        for _ in range(500):
            n = int(rng.integers(2, 300))
            counts = sample_cycle_counts(n, params, rng)
            longest = max(counts.counts)
            st = spacings_mod(attach_phases(counts, rng))
            assert st.largest <= 1.0 / longest + 1e-12
            assert st.largest * n >= 1.0 - 1e-12


class TestTwoCycleMinSpacing:
    def test_hand_value(self):
        assert two_cycle_min_spacing(2, 3, 1 / 12) == pytest.approx(1 / 12, abs=1e-15)

    def test_vanishes_with_shift(self):
        assert two_cycle_min_spacing(5, 7, 1e-9) < 1e-7

    def test_non_coprime_rejected(self):
        with pytest.raises(ValueError):
            two_cycle_min_spacing(4, 6, 0.3)

    def test_brute_force_oracle(self):
        rng = np.random.default_rng(5)
        pairs = []
        while len(pairs) < 25:
            p, q = int(rng.integers(1, 51)), int(rng.integers(1, 51))
            if math.gcd(p, q) == 1:
                pairs.append((p, q))
        for p, q in pairs:
            for _ in range(100):
                s = float(rng.uniform(1e-6, 1 - 1e-6))
                grid_p = np.arange(p) / p
                grid_q = np.arange(q) / q + s
                diff = np.abs(grid_p[:, None] - grid_q[None, :]) % 1.0
                brute = float(np.minimum(diff, 1.0 - diff).min())
                assert two_cycle_min_spacing(p, q, s) == pytest.approx(brute, abs=1e-12)


class TestStatsValidation:
    def test_order_enforced(self):
        from permspectra import SpacingStats

        with pytest.raises(ValueError):
            SpacingStats(n=3, largest=0.1, smallest=0.5)

    def test_trial_coupling_reproducible(self):
        params = EwensParams(1.0)
        counts = sample_cycle_counts(100, params, trial_rng(1, 0))
        again = sample_cycle_counts(100, params, trial_rng(1, 0))
        assert spacings_perm(counts).smallest_exact == spacings_perm(again).smallest_exact
