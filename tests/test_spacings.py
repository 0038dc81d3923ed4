import math
from collections import Counter
from fractions import Fraction as F

import numpy as np
import pytest

from conftest import (
    counts_from_lengths,
    cycle_type,
    enumerated_gap_range,
    exact_mod_gap_range,
    trial_of,
    two_cycle_min_spacing,
)
from permspectra import (
    EwensParams,
    attach_phases,
    max_pairwise_lcm,
    normalized_spacings,
    sample_cycle_counts,
    spacings_mod,
    spacings_perm,
    trial_rng,
)
from permspectra import spacings
from permspectra.ewens import TrialBatch, draw_batch
from permspectra.experiments import _spacings_statistic
from permspectra.spacings import _has_empty_cell, _pair_gaps, mod_gap_extremes


class TestSpacingsPerm:
    def test_single_cycle_equally_spaced(self):
        st = spacings_perm(cycle_type(7, {7: 1}))
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
        st = spacings_perm(cycle_type(5, {1: 5}))
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

    @pytest.mark.parametrize("n", [1, 2, 3, 12, 400, 5000])
    def test_batch_max_lcm_matches_one_trial(self, n):
        # the driver's max lcm comes out of the modified pairwise sweep; at
        # n = 1 every trial, and at n = 2 some, is one cycle with no pair
        batch = draw_batch(n, 1.0, [trial_rng(21, t) for t in range(60)], phases=True)
        want = [max_pairwise_lcm(trial_of(batch, t)) for t in range(batch.trials)]
        assert mod_gap_extremes(batch)[2].tolist() == want
        data = _spacings_statistic(batch)
        assert data[:, 1].tolist() == [n**2 * (1.0 / w) for w in want]
        assert data[:, 5].tolist() == [float(n * n < w) for w in want]
        if n == 2:  # trials of one 2-cycle (lcm 2) and of two fixed points (lcm 1)
            assert set(want) == {1, 2}


class TestSpacingsMod:
    def test_single_cycle_rotation_invariant(self):
        rng = np.random.default_rng(2)
        spec = attach_phases(cycle_type(9, {9: 1}), rng)
        st = spacings_mod(spec)
        assert st.largest == pytest.approx(1 / 9, abs=1e-12)
        assert st.smallest == pytest.approx(1 / 9, abs=1e-12)

    def test_two_fixed_points(self):
        spec = attach_phases(cycle_type(2, {1: 2}), np.random.default_rng(0))
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
            assert d_mod <= d_plain

    def test_largest_bounded_by_longest_cycle(self):
        rng = np.random.default_rng(4)
        params = EwensParams(1.5)
        for _ in range(500):
            n = int(rng.integers(2, 300))
            counts = sample_cycle_counts(n, params, rng)
            longest = max(counts.counts)
            st = spacings_mod(attach_phases(counts, rng))
            assert 1.0 / n <= st.largest <= 1.0 / longest

    def test_two_two_cycles_without_an_empty_cell(self):
        # angles 0, 1/2 and 1/8, 5/8: each half-turn cell holds a point
        spec = TrialBatch(4, np.array([2, 2]), np.array([0.0, 0.25]))
        st = spacings_mod(spec)
        assert (st.smallest, st.largest) == (0.125, 0.375)

    def test_cycle_order_does_not_matter(self):
        # the kernels read a trial's last length as its longest, so a trial
        # in any order but the ascending one is refused when it is built
        rng = np.random.default_rng(6)
        spec = attach_phases(sample_cycle_counts(500, EwensParams(1.0), rng), rng)
        order = rng.permutation(len(spec.lengths))
        assert (np.diff(spec.lengths[order]) < 0).any()
        with pytest.raises(ValueError, match="must be positive and ascending"):
            TrialBatch(500, spec.lengths[order], spec.phases[order])

    def test_phases_off_the_dyadic_grid_refused(self):
        spec = TrialBatch(2, np.array([1, 1]), np.array([0.1, 0.6]))
        with pytest.raises(ValueError, match=r"2\*\*-53 grid.*0\.1"):
            spacings_mod(spec)


def _check_against_oracle(batch, kinds: Counter) -> None:
    """Both modified extremes of every trial against exact_mod_gap_range.

    The smallest gap and every largest gap of exactly 1/J must equal the
    exact value rounded once; a largest gap below 1/J (no empty J-cell, so
    it comes from the sort) must lie within 2**-50 of the exact one.
    """
    largest, smallest = mod_gap_extremes(batch)[:2]
    n = batch.n
    for t in range(batch.trials):
        cycles = slice(batch.starts[t], batch.starts[t + 1])
        lengths = batch.lengths[cycles]
        exact_smallest, exact_largest = exact_mod_gap_range(lengths, batch.phases[cycles])
        longest = int(lengths[-1])
        assert smallest[t] == float(exact_smallest)
        if exact_largest == F(1, longest):
            assert largest[t] == float(exact_largest)
            kinds["pigeonhole" if n - longest < longest else "sorted, empty J-cell"] += 1
        else:
            assert largest[t] < 1.0 / longest
            assert abs(F(largest[t]) - exact_largest) <= F(1, 2**50)
            kinds["sorted, no empty J-cell"] += 1


class TestPairSweep:
    @pytest.mark.parametrize("pair_block", [2**18, 40])
    def test_trials_grouped_by_cycle_count_match_every_pair(self, monkeypatch, pair_block):
        # trials of 1 to 11 cycles, their pairs listed flat (at 40 pairs per
        # block, a few trials per block and the widest alone), against a
        # plain loop over every pair of each trial in Python integers
        monkeypatch.setattr(spacings, "_PAIR_BLOCK", pair_block)
        batch = draw_batch(100, 1.0, [trial_rng(5, t) for t in range(400)], phases=True)
        sizes = np.diff(batch.starts)
        assert sizes.min() == 1 and len(np.unique(sizes)) > 10
        closest, to_last, max_lcm = _pair_gaps(batch)
        for t in range(batch.trials):
            cycles = range(batch.starts[t], batch.starts[t + 1])
            j = batch.lengths[cycles].tolist()
            m = [int(phi * 2**53) for phi in batch.phases[cycles].tolist()]
            want = [math.inf, math.inf, j[-1]]
            for a in range(len(j)):
                for b in range(a + 1, len(j)):
                    g = math.gcd(j[a], j[b])
                    lcm = j[a] * j[b] // g
                    r = (j[b] // g * m[a] - j[a] // g * m[b]) % 2**53
                    gap = min(r, 2**53 - r) / lcm * 2.0**-53
                    want[0] = min(want[0], gap)
                    if b == len(j) - 1:
                        want[1] = min(want[1], gap)
                    want[2] = max(want[2], lcm)
            assert [closest[t], to_last[t], max_lcm[t]] == want


class TestModifiedExactOracle:
    def test_extremes_against_fraction_oracle(self):
        rng = np.random.default_rng(7)
        kinds = Counter()
        for theta in (0.5, 1.0, 2.0):
            sizes = np.unique(np.exp(rng.uniform(np.log(2), np.log(10**5), 30)).astype(int))
            for i, n in enumerate([*sizes.tolist(), 10**5]):
                rngs = [trial_rng(1000 + i, t) for t in range(4)]
                _check_against_oracle(draw_batch(n, theta, rngs, phases=True), kinds)
        # every route of mod_gap_extremes ran
        assert min(kinds.values()) >= 3 and len(kinds) == 3, kinds

    def test_smallest_exact_at_two_hundred_thousand(self):
        # gaps of order 1/n^2 = 2.5e-11: a sort of float angles near 1 loses their digits
        rngs = [trial_rng(2016, t) for t in range(6)]
        _check_against_oracle(draw_batch(200_000, 1.0, rngs, phases=True), Counter())


def _trials(*trials) -> TrialBatch:
    """A batch of hand-made trials of one size, each (lengths ascending, phases)."""
    lengths = np.concatenate([np.array(lens) for lens, _ in trials])
    phases = np.concatenate([np.array(phis, dtype=float) for _, phis in trials])
    starts = np.cumsum([0, *(len(lens) for lens, _ in trials)])
    return TrialBatch(sum(trials[0][0]), lengths, phases, starts)


@pytest.fixture
def sorted_trials(monkeypatch):
    """Every trial that mod_gap_extremes hands to the sort, in call order."""
    seen = []
    sort = spacings._sorted_largest

    def spy(batch, trials):
        seen.extend(trials.tolist())
        return sort(batch, trials)

    monkeypatch.setattr(spacings, "_sorted_largest", spy)
    return seen


class TestEmptyCellDecision:
    """The occupancy rows that spare n - J >= J trials with an empty J-cell the sort."""

    def test_wrap_cell(self, sorted_trials):
        # J = 2 at phase 1/2: grid points 1/4 and 3/4, cells [1/4, 3/4) and
        # [3/4, 5/4); 1/16 sits in the wrap slot below the first grid point
        batch = _trials(
            ([1, 1, 2], [0.0625, 0.5, 0.5]),  # one point per cell
            ([1, 1, 2], [0.375, 0.5, 0.5]),  # the last cell empty
            ([1, 1, 2], [0.875, 0.5, 0.5]),  # the last cell's point above 3/4
        )
        assert _has_empty_cell(batch, np.arange(3)).tolist() == [False, True, False]
        _check_against_oracle(batch, Counter())
        assert sorted_trials == [0, 2]
        assert mod_gap_extremes(batch)[0].tolist() == [0.3125, 0.5, 0.375]

    def test_point_on_the_grid_takes_the_sort(self, sorted_trials):
        # the fixed point at 1/4 is a J-grid point, so no slot can be trusted
        batch = _trials(([1, 1, 2], [0.25, 0.5, 0.5]), ([1, 1, 2], [0.375, 0.5, 0.5]))
        assert _pair_gaps(batch)[1].tolist() == [0.0, 0.125]
        _check_against_oracle(batch, Counter())
        assert sorted_trials == [0]
        assert mod_gap_extremes(batch)[0].tolist() == [0.5, 0.5]

    def test_tied_longest_cycles_leave_no_empty_cell(self, sorted_trials):
        # the other 3-cycle (or two of them) puts a point in every cell
        batch = _trials(([3, 3], [0.125, 0.75]), ([3, 3], [0.5, 0.0625]))
        three = _trials(([1, 1, 1, 3, 3], [0.0, 0.125, 0.25, 0.875, 0.5]))
        assert not _has_empty_cell(batch, np.arange(2)).any()
        assert not _has_empty_cell(three, np.arange(1)).any()
        _check_against_oracle(batch, Counter())
        _check_against_oracle(three, Counter())
        assert sorted_trials == [0, 1, 0]

    def test_blocks_match_one_trial_at_a_time(self):
        # at n = 4000 a block holds 16 trials, and about 60 of these 200 need a row
        n = 4000
        batch = draw_batch(n, 1.0, [trial_rng(13, t) for t in range(200)], phases=True)
        longest = batch.lengths[batch.starts[1:] - 1]
        rows = np.flatnonzero((n - longest >= longest) & (_pair_gaps(batch)[1] >= 2.0**-48))
        assert len(rows) > 3 * 16
        alone = [_has_empty_cell(batch, np.array([t]))[0] for t in rows]
        assert _has_empty_cell(batch, rows).tolist() == alone
        largest, smallest = mod_gap_extremes(batch)[:2]
        for t in range(batch.trials):
            cycles = slice(batch.starts[t], batch.starts[t + 1])
            one = TrialBatch(n, batch.lengths[cycles], batch.phases[cycles])
            assert [x[0] for x in mod_gap_extremes(one)[:2]] == [largest[t], smallest[t]]

    def test_only_trials_without_an_empty_cell_are_sorted(self, sorted_trials):
        rng = np.random.default_rng(11)
        kinds = Counter()
        for theta in (0.5, 1.0, 2.0):
            for n in (8, 30, 100, 400):
                sorted_trials.clear()
                rngs = [trial_rng(int(rng.integers(2**32)), t) for t in range(40)]
                batch = draw_batch(n, theta, rngs, phases=True)
                _check_against_oracle(batch, kinds)
                to_longest = _pair_gaps(batch)[1]
                expected = []
                for t in range(batch.trials):
                    cycles = slice(batch.starts[t], batch.starts[t + 1])
                    lengths = batch.lengths[cycles]
                    longest = int(lengths[-1])
                    largest = exact_mod_gap_range(lengths, batch.phases[cycles])[1]
                    no_empty_cell = largest < F(1, longest)
                    if n - longest >= longest and (no_empty_cell or to_longest[t] < 2.0**-48):
                        expected.append(t)
                assert sorted_trials == expected
        # both sides of the decision were met ("sorted, empty J-cell" is the
        # oracle helper's name for n - J >= J trials that get exactly 1/J)
        assert kinds["sorted, empty J-cell"] >= 20 and kinds["sorted, no empty J-cell"] >= 20, kinds


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
