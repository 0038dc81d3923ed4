import itertools
import math
import random
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from scipy.stats import chi2
from hypothesis import strategies as st

from conftest import (
    BernoulliWord,
    coupled_counts,
    coupling_tail_formula,
    cycle_counts_from_word,
    cycle_type,
    cycle_type_probability,
    dense_counts,
    expected_total_cycles,
    feller_type_counts,
    iter_cycle_types,
    ones_after,
    ones_positions_sparse,
    cycle_number_pmf,
    longest_cycle_bins,
    partition_probabilities,
    pooled_chisquare_pvalue,
    reference_trial,
    sample_bernoulli_word,
    trial_of,
    type_chisquare_pvalue,
)
from permspectra import (
    EwensParams,
    attach_phases,
    coupling_horizon,
    coupling_tail_expectation,
    sample_coupled,
    sample_cycle_counts,
    trial_rng,
)
from permspectra import ewens
from permspectra.cesaro import TABLE_BLOCK
from permspectra.ewens import (
    TrialBatch,
    _BLOCK,
    _Uniforms,
    _nested_batches,
    _thinned_walks,
    draw_batch,
)
from permspectra.rng import trial_rngs


def word_from_bits(bits) -> BernoulliWord:
    bits = np.asarray(bits, dtype=np.uint8)
    return BernoulliWord(n=len(bits), bits=bits, horizon=len(bits))


class TestWord:
    def test_n1_forced(self):
        w = sample_bernoulli_word(1, EwensParams(0.3), np.random.default_rng(0))
        assert w.bits.tolist() == [1]

    def test_large_theta_second_bit_almost_surely_one(self):
        rng = np.random.default_rng(1)
        hits = sum(
            sample_bernoulli_word(2, EwensParams(1e12), rng).bits[1] for _ in range(200)
        )
        assert hits == 200

    def test_ones_density_matches_harmonic_sum(self):
        n = 10**6
        w = sample_bernoulli_word(n, EwensParams(1.0), np.random.default_rng(7))
        total = int(w.bits.sum())
        expected = math.fsum(1.0 / k for k in range(1, n + 1))
        sd = math.sqrt(math.fsum((1 / k) * (1 - 1 / k) for k in range(1, n + 1)))
        assert abs(total - expected) < 5 * sd

    def test_invalid_word_rejected(self):
        with pytest.raises(ValueError):
            word_from_bits([0, 1, 1])


class TestCycleCountsFromWord:
    def test_single_position(self):
        assert cycle_counts_from_word(word_from_bits([1])).counts == {1: 1}

    def test_all_ones(self):
        assert cycle_counts_from_word(word_from_bits([1, 1, 1])).counts == {1: 3}

    def test_hand_traced_word(self):
        # ones at 1 and 4; sentinel at 6 closes a 2-spacing
        assert cycle_counts_from_word(word_from_bits([1, 0, 0, 1, 0])).counts == {3: 1, 2: 1}

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(0, 1), min_size=0, max_size=40))
    def test_lengths_always_sum_to_n(self, tail_bits):
        word = word_from_bits([1] + tail_bits)
        counts = cycle_counts_from_word(word)
        assert sum(j * a for j, a in counts.counts.items()) == word.n


class TestParams:
    @pytest.mark.parametrize("theta", [math.inf, math.nan, 0.0, -1.0])
    def test_theta_must_be_positive_and_finite(self, theta):
        with pytest.raises(ValueError, match=f"theta must be positive and finite, got {theta}"):
            EwensParams(theta)

    #: the sampler and the public coupling functions, as (n, theta)
    CALLS = {
        "draw_batch": lambda n, theta: draw_batch(n, theta, trial_rngs(1, 0, 3)),
        "coupling_tail_expectation": lambda n, theta: coupling_tail_expectation(n, theta, 400),
        "coupling_horizon": lambda n, theta: coupling_horizon(n, theta, 1e-3),
    }

    @pytest.mark.parametrize("theta", [0.0, -1.0, math.inf, math.nan])
    @pytest.mark.parametrize("call", CALLS)
    def test_invalid_theta_refused(self, call, theta):
        with pytest.raises(ValueError, match=f"theta must be positive and finite, got {theta}"):
            self.CALLS[call](100, theta)

    @pytest.mark.parametrize("n", [0, -5])
    @pytest.mark.parametrize("call", CALLS)
    def test_n_below_one_refused(self, call, n):
        with pytest.raises(ValueError, match=f"n must be >= 1, got {n}$"):
            self.CALLS[call](n, 1.0)

    @pytest.mark.parametrize("sizes", [(2**62 + 1,), (10, 10**19)])
    def test_n_above_the_walk_range_refused_before_any_draw(self, sizes):
        # n = 10^19 ended in numpy's "Python int too large to convert to C
        # long"; a generator of None would fail on its first draw
        message = rf"n = {max(sizes)} exceeds 2\*\*62, the largest size a walk takes$"
        with pytest.raises(ValueError, match=message):
            draw_batch(max(sizes), 1.0, [None])
        with pytest.raises(ValueError, match=message):
            _nested_batches(sizes, 1.0, [None])


class TestCycleCountsForms:
    @pytest.mark.parametrize(
        "n, counts", [(1, {1: 1}), (10, {3: 2, 4: 1}), (12, {1: 5, 7: 1}), (6, {6: 1})]
    )
    def test_dict_and_lengths_forms_agree(self, n, counts):
        lengths = [j for j, a in counts.items() for _ in range(a)][::-1]
        a, b = cycle_type(n, counts), cycle_type(n, lengths=lengths)
        assert a.counts == b.counts == counts
        assert a.total_cycles() == b.total_cycles() == sum(counts.values())
        assert np.array_equal(dense_counts(a), dense_counts(b))
        assert a.lengths.tolist() == b.lengths.tolist() == sorted(lengths)

    def test_zero_multiplicity_dropped(self):
        assert cycle_type(3, {1: 3, 2: 0}).counts == {1: 3}

    @pytest.mark.parametrize(
        "kwargs",
        [{"counts": {2: 1}}, {"counts": {1: 4, 2: -1}}, {"lengths": [2, 2]},
         {"lengths": [0, 3]}, {}, {"counts": {3: 1}, "lengths": [3]}],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            cycle_type(3, **kwargs)


class TestTrialBatchCheck:
    """Every batch, drawn or built by hand, passes one check on construction."""

    def test_valid_batches_accepted(self):
        one = TrialBatch(4, np.array([1, 3]), np.array([0.0, 0.999]))
        assert one.trials == 1 and one.starts.tolist() == [0, 2]
        two = TrialBatch(3, np.array([1, 2, 3]), None, np.array([0, 2, 3]))
        assert [trial_of(two, t).counts for t in range(2)] == [{1: 1, 2: 1}, {3: 1}]
        # lengths ascend within each trial only: the next one may start lower
        three = TrialBatch(3, np.array([3, 1, 2, 1, 1, 1]), None, np.array([0, 1, 3, 6]))
        assert [trial_of(three, t).counts for t in range(3)] == [{3: 1}, {1: 1, 2: 1}, {1: 3}]

    @pytest.mark.parametrize("phases", [[0.5], [0.1, 0.2, 0.3]])
    def test_one_phase_per_cycle(self, phases):
        with pytest.raises(ValueError, match="one phase per cycle required"):
            TrialBatch(4, np.array([1, 3]), np.array(phases))

    @pytest.mark.parametrize("phi", [-1e-17, 1.0, 1.5, math.nan])
    def test_phases_in_the_unit_interval(self, phi):
        with pytest.raises(ValueError, match=r"phases must lie in \[0, 1\)"):
            TrialBatch(4, np.array([1, 3]), np.array([0.25, phi]))

    @pytest.mark.parametrize("lengths, starts", [
        ([1, 1], None),  # one trial short of n
        ([1, 2, 2, 2], [0, 2, 4]),  # the second trial over n
        ([3, 4], [0, 1, 2]),
    ])
    def test_lengths_sum_to_n(self, lengths, starts):
        starts = None if starts is None else np.array(starts)
        with pytest.raises(ValueError, match="each trial's cycle lengths must sum to n"):
            TrialBatch(3, np.array(lengths), None, starts)

    @pytest.mark.parametrize("lengths, starts", [
        ([], None),  # the only trial empty
        ([3], [0, 1, 1]),  # the last trial empty: reduceat indexed past the end
        ([3, 3], [0, 1, 1, 2]),  # a middle trial empty: reduceat read its neighbour
    ])
    def test_trial_with_no_cycles_refused(self, lengths, starts):
        starts = None if starts is None else np.array(starts)
        with pytest.raises(ValueError, match="each trial's cycle lengths must sum to n"):
            TrialBatch(3, np.array(lengths, dtype=np.int64), None, starts)

    @pytest.mark.parametrize("lengths, starts", [
        ([2, 1], None),  # one trial descends
        ([1, 2, 2, 1], [0, 2, 4]),  # the first trial ascends, the second not
        ([2, 1, 1, 2], [0, 2, 4]),  # the second ascends, the first not
        ([0, 1, 2], None),  # a zero length, though the trial sums to n
        ([-1, 1, 3], None),  # a negative one, likewise
        ([3, 0, 3], [0, 1, 3]),  # a zero starting the second trial
    ])
    def test_lengths_positive_and_ascending(self, lengths, starts):
        starts = None if starts is None else np.array(starts)
        with pytest.raises(ValueError, match="must be positive and ascending"):
            TrialBatch(3, np.array(lengths, dtype=np.int64), None, starts)

    def test_one_trial_api_builds_the_same_type(self):
        counts = cycle_type(5, {1: 2, 3: 1})
        trial = attach_phases(counts, np.random.default_rng(0))
        assert isinstance(trial, TrialBatch) and trial.trials == 1
        assert trial.lengths.tolist() == [1, 1, 3]
        assert trial.phases.tolist() == np.random.default_rng(0).random(3).tolist()
        rng = np.random.default_rng(1)
        for sample in (sample_cycle_counts(9, EwensParams(1.0), rng),
                       sample_coupled(9, EwensParams(1.0), rng)):
            assert isinstance(sample, TrialBatch) and sample.trials == 1


class TestSamplers:
    @pytest.mark.parametrize("theta", [0.5, 1.0, 2.0])
    def test_feller_sampler_law_small_n(self, theta):
        rng = np.random.default_rng(100)
        trials = 50_000
        freq = feller_type_counts(5, theta, trials, rng)
        assert type_chisquare_pvalue(freq, 5, theta, trials) > 0.001

    @pytest.mark.parametrize("theta", [1.3, 0.3, 7.0])
    def test_sparse_route_same_law(self, theta):
        # force the gap-skipping sampler at small n and chi-square it too
        rng = np.random.default_rng(102)
        trials = 20_000
        freq: dict = {}
        for _ in range(trials):
            ones = ones_positions_sparse(5, theta, rng)
            spac = np.diff(np.append(ones, 6))
            key = tuple(sorted(spac.tolist(), reverse=True))
            freq[key] = freq.get(key, 0) + 1
        assert type_chisquare_pvalue(freq, 5, theta, trials) > 0.001

    @pytest.mark.parametrize("theta", [0.5, 2.0])
    def test_sparse_route_mean_cycle_number_at_large_n(self, theta):
        # every candidate is thinned at positions up to 10^6
        rng = np.random.default_rng(105)
        n, trials = 10**6, 2000
        ks = np.array([len(ones_positions_sparse(n, theta, rng)) for _ in range(trials)])
        se = ks.std(ddof=1) / math.sqrt(trials)
        assert abs(ks.mean() - expected_total_cycles(n, theta)) < 4 * se

    def test_sample_cycle_counts_sum(self):
        rng = np.random.default_rng(103)
        params = EwensParams(0.7)
        for n in (1, 2, 17, 400):
            counts = sample_cycle_counts(n, params, rng)
            assert sum(j * a for j, a in counts.counts.items()) == n

    def test_expected_cycle_number(self):
        rng = np.random.default_rng(104)
        params = EwensParams(2.0)
        n, trials = 2000, 400
        ks = [sample_cycle_counts(n, params, rng).total_cycles() for _ in range(trials)]
        expected = expected_total_cycles(n, 2.0)
        se = np.std(ks, ddof=1) / math.sqrt(trials)
        assert abs(np.mean(ks) - expected) < 3 * se


LAW_TRIALS = 20_000


@lru_cache(maxsize=None)
def sparse_words(n: int, theta: float, chunk: int) -> tuple[np.ndarray, np.ndarray]:
    """The number of cycles and the longest cycle of LAW_TRIALS words of size
    n on the gap walk, trial_rng(41, t), drawn through draw_batch ``chunk``
    trials at a time."""
    cycles, longest = [], []
    for lo in range(0, LAW_TRIALS, chunk):
        batch = draw_batch(n, theta, trial_rngs(41, lo, lo + chunk))
        cycles.append(np.diff(batch.starts))
        longest.append(batch.lengths[batch.starts[1:] - 1])
    return np.concatenate(cycles), np.concatenate(longest)


LAW_CASES = [pytest.param(n, theta, LAW_TRIALS, marks=[pytest.mark.slow] if n == 10**6 else [])
             for n in (10**4, 10**5, 10**6) for theta in (0.5, 1.0, 2.0)]
# the size of mc_dense, coupling-check and criterion 6b
LAW_CASES += [pytest.param(1000, theta, LAW_TRIALS) for theta in (0.5, 2.0)]
LAW_CASES.append(pytest.param(10**5, 1.0, 50, id="narrow-batch"))


class TestSparseLaw:
    """Whole words of the gap walk against their exact laws, at the sizes the
    walk runs: the number of cycles K (the word's ones) and the longest cycle
    L over (n/2, n], where its law is exact and the walk's long jumps land."""

    @pytest.mark.parametrize("n, theta", [(1, 0.7), (6, 0.5), (8, 2.0), (9, 1.0)])
    def test_oracles_against_exhaustive_types(self, n, theta):
        types, probs = partition_probabilities(n, theta)
        k = np.array([t.total_cycles() for t in types])
        pmf = cycle_number_pmf(n, theta, size=16)
        assert pmf == pytest.approx(np.bincount(k, weights=probs, minlength=16), abs=1e-12)
        edges, cells = longest_cycle_bins(n, theta, 3)
        longest = np.array([t.lengths[-1] for t in types])
        cell = np.searchsorted(edges, longest) - 1
        assert cells == pytest.approx(np.bincount(cell, weights=probs, minlength=len(cells)),
                                      abs=1e-12)

    @pytest.mark.parametrize("theta, want", [(0.5, 0.88137), (1.0, 0.69315), (2.0, 0.38629)])
    def test_longest_cycle_oracle_at_a_million(self, theta, want):
        # P(L > n/2) at n = 10^6, to the five places its limit law gives
        _, cells = longest_cycle_bins(10**6, theta, 8)
        assert 1.0 - cells[0] == pytest.approx(want, abs=2e-5)

    @pytest.mark.parametrize("n, theta, chunk", LAW_CASES)
    def test_cycle_number_law(self, n, theta, chunk):
        k = sparse_words(n, theta, chunk)[0]
        pmf = cycle_number_pmf(n, theta)
        assert k.max() < len(pmf) and np.abs(pmf[len(pmf) // 2 :]).max() < 1e-9
        assert pooled_chisquare_pvalue(np.bincount(k, minlength=len(pmf)), pmf) > 1e-3

    @pytest.mark.parametrize("n, theta, chunk", LAW_CASES)
    def test_longest_cycle_law(self, n, theta, chunk):
        longest = sparse_words(n, theta, chunk)[1]
        edges, cells = longest_cycle_bins(n, theta, 12)
        observed = np.bincount(np.searchsorted(edges, longest) - 1, minlength=len(cells))
        assert pooled_chisquare_pvalue(observed, cells) > 1e-3

    @pytest.mark.parametrize("chunk", [1000, 50])
    def test_share_of_words_with_a_one_at_n(self, chunk):
        # the walk's last position: P(one at n) = theta/(theta+n-1), seen as
        # a closing cycle of length 1, on wide chunks and narrow ones
        n, theta, ends = 20, 5.0, 0
        for lo in range(0, LAW_TRIALS, chunk):
            batch = draw_batch(n, theta, trial_rngs(52, lo, lo + chunk), horizon=2 * n)
            ends += int((batch.closing == 1).sum())
        p = theta / (theta + n - 1)
        assert abs(ends / LAW_TRIALS - p) < 4 * math.sqrt(p * (1 - p) / LAW_TRIALS)

    @pytest.mark.parametrize("n", [10**4, 10**6])
    @pytest.mark.parametrize("theta", [0.5, 1.0, 2.0])
    def test_window_count_law(self, n, theta):
        # the word's ones in disjoint windows of positions are independent sums
        # of Bernoulli(theta/(theta+k-1)): their totals over the trials, each
        # standardised by its exact mean and variance, make one chi-square
        # over 38-39 log-spaced windows of (1, n], which sees the gap law at
        # every scale where K and L see only sums of it
        uniforms = _Uniforms(list(trial_rngs(51, 0, LAW_TRIALS)))
        _, positions, _ = _thinned_walks(LAW_TRIALS, 1, n, theta, uniforms)
        edges = np.unique(np.geomspace(2, n + 1, 41).astype(np.int64))  # windows [e_i, e_i+1)
        observed = np.bincount(np.searchsorted(edges, positions, side="right") - 1,
                               minlength=len(edges) - 1)
        p = theta / (theta + np.arange(1.0, n))  # P(one at k) for k = 2..n
        mean = LAW_TRIALS * np.add.reduceat(p, edges[:-1] - 2)
        variance = LAW_TRIALS * np.add.reduceat(p * (1.0 - p), edges[:-1] - 2)
        z = (observed - mean) / np.sqrt(variance)
        assert len(z) >= 38 and chi2.sf(z @ z, len(z)) > 1e-3


class CyclingGenerator:
    """Stand-in generator that hands out ``values`` over and over, one at a
    time or a store's block at a time."""

    def __init__(self, values):
        self.values = itertools.cycle(values)

    def random(self, *, out=None):
        if out is None:
            return next(self.values)
        out[:] = [next(self.values) for _ in range(len(out))]
        return out


def walk_lists(walked) -> list[list[int]]:
    """A walk's flat (walk, position, counts) result as one list of
    positions per walk."""
    _, positions, counts = walked
    return [walk.tolist() for walk in np.split(positions, np.cumsum(counts)[:-1])]


#: (start, limit): words at n = 10^6 and coupled tails from 1000 to 2^20
WALK_SPANS = [(1, 10**6), (1000, 2**20)]


class TestThinnedWalk:
    @pytest.mark.parametrize("theta", [0.05, 0.5, 1.0, 2.0, 5.0, 40.0])
    @pytest.mark.parametrize("start, limit", WALK_SPANS)
    @pytest.mark.parametrize("lanes", [2, 7, 79, 80, 300])
    @pytest.mark.parametrize("block", [1, _BLOCK])
    def test_a_lane_does_not_depend_on_the_batch_width(self, theta, start, limit, lanes, block):
        # every lane equals the one-trial reference, and the first and last
        # lanes the same walk drawn alone
        uniforms = _Uniforms([np.random.default_rng(seed) for seed in range(lanes)], block)
        walks = walk_lists(_thinned_walks(lanes, start, limit, theta, uniforms))
        assert walks == [ones_after(start, limit, theta, np.random.default_rng(seed))
                         for seed in range(lanes)]
        for seed in (0, lanes - 1):
            alone = _Uniforms([np.random.default_rng(seed)], block)
            assert walk_lists(_thinned_walks(1, start, limit, theta, alone)) == [walks[seed]]

    @pytest.mark.parametrize("theta", [0.5, 1.0, 5.0])
    @pytest.mark.parametrize("k, limit", [(1, 20), (19, 20), (500_000, 2**20), (999_963, 10**6)])
    def test_the_last_position_is_reached(self, theta, k, limit):
        # a skip of limit - k - 1 puts the candidate at the limit, and v = 0
        # keeps it: the reference, a lone walk and a wide batch of such
        # draws must all place a one there and stop; each skip here needs
        # -log1p(-u) below 36.7, the most that one uniform can give
        rate = math.log1p(theta / k)
        for share in (0.01, 0.5, 0.99):
            u = -math.expm1(-rate * (limit - k - 1 + share))
            assert math.floor(-math.log1p(-u) / rate) == limit - k - 1
            assert ones_after(k, limit, theta, CyclingGenerator([u, 0.0])) == [limit]
            for walks in (1, 80):
                uniforms = _Uniforms([CyclingGenerator([u, 0.0]) for _ in range(walks)])
                walked = walk_lists(_thinned_walks(walks, k, limit, theta, uniforms))
                assert walked == [[limit]] * walks

    @pytest.mark.parametrize("n", [10**17, 10**18, 2**62])
    def test_no_one_lands_next_to_a_limit_above_2_53(self, n):
        # the crossing candidate was clipped to limit - k in float64, which
        # rounds above 2**53: these 2,000 walks at theta = 1 put 371 ones
        # within 1,024 of n = 10^17 and 644 of 10^18, where the expected
        # number is about 2e-11
        uniforms = _Uniforms(list(trial_rngs(1, 0, 2000)))
        _, positions, _ = _thinned_walks(2000, 1, n, 1.0, uniforms)
        assert positions.max() <= n and (positions > n - 1024).sum() == 0

    @pytest.mark.parametrize("theta", [5e-324, 1e-310, 1e-17, 1e300, 1.7e308])
    @pytest.mark.parametrize("block", [_BLOCK, 1])
    def test_extreme_theta_draws_without_warnings(self, theta, block):
        # the suite turns every RuntimeWarning into an error; theta/k
        # underflows to 0 at the smallest theta, and at the largest every
        # position is a one; block = 1 is the one-trial samplers' read path
        tiny, n = theta < 1, 20_000 if theta < 1 else 12
        for horizon in (None, 4 * n):
            batch = draw_batch(n, theta, trial_rngs(6, 0, 5), phases=True, horizon=horizon,
                               block=block)
            # no one after position 1 at the tiny theta, one everywhere at the huge
            assert batch.lengths.tolist() == ([n] * 5 if tiny else [1] * (5 * n))
            if horizon is not None:
                tails = np.bincount(batch.tail_trial, minlength=5).tolist()
                assert tails == [0 if tiny else 3 * n] * 5


class TestNestedWalks:
    """The ones <= n of a walk to N are the walk to n: the candidate that
    crosses the limit is clipped, and nothing below it changes."""

    @pytest.mark.parametrize("theta", [0.05, 0.5, 1.0, 7.5, 40.0])
    @pytest.mark.parametrize("block", [1, _BLOCK])
    @pytest.mark.parametrize("limit", [300, 10**5])
    def test_the_ones_up_to_n_of_a_walk_are_the_walk_to_n(self, theta, block, limit):
        lanes = 30

        def walks(to):
            uniforms = _Uniforms([np.random.default_rng(seed) for seed in range(lanes)], block)
            return walk_lists(_thinned_walks(lanes, 1, to, theta, uniforms))

        whole = walks(limit)
        # cuts at a one and just before it, besides the ends and interior sizes
        at_ones = [p for walk in whole[:3] for p in walk[:2]]
        cuts = {1, 2, limit // 7, limit // 2, limit - 1, limit,
                *at_ones, *(p - 1 for p in at_ones)}
        for n in sorted(cuts):
            assert [[p for p in walk if p <= n] for walk in whole] == walks(n)

    @pytest.mark.parametrize("sizes", [(1000,), (10, 10**5, 100), (100, 100, 1, 2)])
    @pytest.mark.parametrize("theta", [0.5, 7.5])
    def test_nested_batches_are_the_batches_drawn_at_each_size(self, sizes, theta):
        batches = _nested_batches(sizes, theta, trial_rngs(7, 0, 30))
        assert [b.n for b in batches] == list(sizes)
        for n, batch in zip(sizes, batches):
            want = draw_batch(n, theta, trial_rngs(7, 0, 30))
            assert batch.lengths.tolist() == want.lengths.tolist()
            assert batch.starts.tolist() == want.starts.tolist()

    def test_a_size_below_one_refused(self):
        with pytest.raises(ValueError, match="n must be >= 1, got 0"):
            _nested_batches((10, 0), 1.0, trial_rngs(7, 0, 3))


STORE_CASES = [(0.5, 1, 10**6), (2.0, 1000, 2**20)]


def next_uniform(uniforms, row: int) -> float:
    """The next uniform of one row of a store, by ``take``."""
    return uniforms.take(np.array([row])).item()


def interleaved_reads(uniforms, rows: int, seed: int) -> list:
    """A fixed random mix of ``take`` (of several rows or of one) and
    ``run`` over ``rows`` rows of a store, each read as the list of values
    it handed out."""
    grid, reads = random.Random(seed), []
    for _ in range(400):
        op = grid.choice(["take", "next", "run"])
        if op == "take":
            lanes = np.array(sorted(grid.sample(range(rows), grid.randint(1, rows))))
            reads.append((op, lanes.tolist(), uniforms.take(lanes).tolist()))
        elif op == "next":
            row = grid.randrange(rows)
            reads.append((op, row, [next_uniform(uniforms, row)]))
        else:
            row, m = grid.randrange(rows), grid.choice([0, 1, 5, 63, 64, 65, 200])
            taken = uniforms.run(row, m)
            assert taken.dtype == np.float64
            reads.append((op, row, taken.tolist()))
    return reads


class TestUniformStore:
    """A batch's ``_Uniforms`` hands out, row by row, exactly what each
    trial's own generator would return, however its reads interleave; at
    block = 1 it reads nothing ahead."""

    @pytest.mark.parametrize("block", [_BLOCK, 1])
    def test_interleaved_reads_follow_the_twin_streams(self, block):
        rows = 6
        uniforms = _Uniforms([np.random.default_rng(seed) for seed in range(rows)], block)
        twins = [np.random.default_rng(seed) for seed in range(rows)]
        for op, row, values in interleaved_reads(uniforms, rows, seed=block):
            lanes = row if op == "take" else [row] * len(values)
            assert values == [twins[lane].random() for lane in lanes]

    @pytest.mark.parametrize("block", [_BLOCK, 1])
    def test_single_draws_across_block_boundaries(self, block):
        uniforms, twin = _Uniforms([np.random.default_rng(11)], block), np.random.default_rng(11)
        got = [next_uniform(uniforms, 0) for _ in range(3 * _BLOCK + 5)]
        assert got == [twin.random() for _ in range(3 * _BLOCK + 5)]

    @pytest.mark.parametrize("used, m", [(0, 5), (10, 7), (10, 54), (10, 200), (_BLOCK, 3),
                                         (63, 0), (0, 0)])
    def test_run_after_partial_consumption(self, used, m):
        # a trial's phases follow its sparse word from the same row
        uniforms, twin = _Uniforms([np.random.default_rng(12)]), np.random.default_rng(12)
        head = [next_uniform(uniforms, 0) for _ in range(used)]
        taken = uniforms.run(0, m)
        after = next_uniform(uniforms, 0)
        assert head == [twin.random() for _ in range(used)]
        assert taken.dtype == np.float64 and taken.tolist() == twin.random(m).tolist()
        assert after == twin.random()

    def test_one_value_a_row_leaves_the_generator_in_step(self):
        rng, twin = np.random.default_rng(13), np.random.default_rng(13)
        uniforms = _Uniforms([rng], block=1)
        first, run, last = next_uniform(uniforms, 0), uniforms.run(0, 4), next_uniform(uniforms, 0)
        want = [twin.random(), *twin.random(4).tolist(), twin.random()]
        assert [first, *run.tolist(), last] == want
        assert rng.bit_generator.state == twin.bit_generator.state

    @pytest.mark.parametrize("theta, start, limit", STORE_CASES)
    @pytest.mark.parametrize("used", [0, 5, _BLOCK - 1])
    def test_rows_read_on_from_the_twin_stream_after_a_walk(self, theta, start, limit, used):
        # ``used`` uniforms read before the walk leave a row partly unread,
        # as a sparse word's phases do before its coupled tail
        lanes = 100
        uniforms = _Uniforms([np.random.default_rng(seed) for seed in range(lanes)])
        twins = [np.random.default_rng(seed) for seed in range(lanes)]
        for lane, twin in enumerate(twins):
            head = [next_uniform(uniforms, lane) for _ in range(used)]
            assert head == [twin.random() for _ in range(used)]
        walks = walk_lists(_thinned_walks(lanes, start, limit, theta, uniforms))
        for lane, (walk, twin) in enumerate(zip(walks, twins)):
            assert walk == ones_after(start, limit, theta, twin)
            assert uniforms.run(lane, _BLOCK + 6).tolist() == twin.random(_BLOCK + 6).tolist()
            assert next_uniform(uniforms, lane) == twin.random()

    @pytest.mark.parametrize("theta, start, limit", STORE_CASES)
    def test_one_value_a_row_walk_leaves_the_generators_in_step(self, theta, start, limit):
        lanes = 100
        rngs = [np.random.default_rng(seed) for seed in range(lanes)]
        twins = [np.random.default_rng(seed) for seed in range(lanes)]
        walks = walk_lists(_thinned_walks(lanes, start, limit, theta, _Uniforms(rngs, 1)))
        for walk, rng, twin in zip(walks, rngs, twins):
            assert walk == ones_after(start, limit, theta, twin)
            assert rng.bit_generator.state == twin.bit_generator.state

    @pytest.mark.parametrize("coupled", [False, True])
    @pytest.mark.parametrize("n", [1000, 10_000])
    def test_one_value_a_row_batch_leaves_the_generators_in_step(self, n, coupled):
        # draw_batch(block=1) reads no uniform ahead: each generator stands
        # just past its trial's word, phases and tail, as one trial drawn
        # from the raw generator leaves it
        theta, trials = 1.5, 100
        horizon = 4 * n if coupled else None
        rngs = list(trial_rngs(24, 0, trials))
        batch = draw_batch(n, theta, rngs, phases=True, horizon=horizon, block=1)
        for t, rng in enumerate(rngs):
            twin = trial_rng(24, t)
            ones, phase, _ = reference_trial(n, theta, twin, True, horizon)
            lo, hi = batch.starts[t], batch.starts[t + 1]
            assert batch.lengths[lo:hi].tolist() == cycle_lengths(ones, n)
            assert batch.phases[lo:hi].tolist() == phase.tolist()
            assert rng.bit_generator.state == twin.bit_generator.state


def cycle_lengths(ones, n):
    return sorted(np.diff(np.append(ones, n + 1)).tolist())


class TestBatchStream:
    @pytest.mark.parametrize("theta", [0.5, 2.0, 5.0])
    def test_batch_width_does_not_change_a_trial(self, theta):
        # 100 trials walk together, single ones alone
        n = 1000
        batch = draw_batch(n, theta, (trial_rng(43, t) for t in range(100)), phases=True)
        for t in (0, 37, 99):
            one = draw_batch(n, theta, [trial_rng(43, t)], phases=True)
            lo, hi = batch.starts[t], batch.starts[t + 1]
            assert batch.lengths[lo:hi].tolist() == one.lengths.tolist()
            assert batch.phases[lo:hi].tolist() == one.phases.tolist()
            ones, phase, _ = reference_trial(n, theta, trial_rng(43, t), True, None)
            assert one.lengths.tolist() == cycle_lengths(ones, n)
            assert one.phases.tolist() == phase.tolist()

    @pytest.mark.parametrize("theta", [0.5, 2.0])
    def test_sparse_phases_follow_the_raw_stream(self, theta):
        n, trials = 1000, 12
        batch = draw_batch(n, theta, (trial_rng(21, t) for t in range(trials)), phases=True)
        for t in range(trials):
            ones, phase, _ = reference_trial(n, theta, trial_rng(21, t), True, None)
            lo, hi = batch.starts[t], batch.starts[t + 1]
            assert batch.lengths[lo:hi].tolist() == cycle_lengths(ones, n)
            assert batch.phases[lo:hi].tolist() == phase.tolist()

    @pytest.mark.parametrize("n", [1000, 10_000])
    @pytest.mark.parametrize("theta", [0.5, 2.0])
    def test_coupled_tails_follow_the_raw_stream(self, theta, n):
        horizon, trials = 16 * n, 12
        batch = draw_batch(n, theta, (trial_rng(22, t) for t in range(trials)), horizon=horizon)
        spacings, owner = [], []
        for t in range(trials):
            ones, _, tail = reference_trial(n, theta, trial_rng(22, t), False, horizon)
            rest = np.diff(np.append(ones[-1], tail))  # from the last one <= n on
            spacings += rest[rest <= n].tolist()
            owner += [t] * int((rest <= n).sum())
            lo, hi = batch.starts[t], batch.starts[t + 1]
            assert batch.lengths[lo:hi].tolist() == cycle_lengths(ones, n)
            assert batch.closing[t] == n + 1 - ones[-1]
            # a - e_L + T counts the spacings <= n of the whole word
            gaps = np.diff(np.append(ones, tail))
            w = coupled_counts(batch, t)
            assert w.tolist() == np.bincount(gaps[gaps <= n], minlength=n + 1)[1:].tolist()
        assert batch.tail.tolist() == spacings
        assert batch.tail_trial.tolist() == owner

    @pytest.mark.parametrize("theta", [0.5, 2.0])
    def test_flat_sparse_words_trial_by_trial(self, theta):
        # a wide batch's words and phases, assembled from its flat walk,
        # against one reference trial each; at theta = 0.5 a few words have
        # no one after position 1
        n, trials = 1000, 300
        batch = draw_batch(n, theta, trial_rngs(31, 0, trials), phases=True)
        single = 0
        for t in range(trials):
            ones, phase, _ = reference_trial(n, theta, trial_rng(31, t), True, None)
            lo, hi = batch.starts[t], batch.starts[t + 1]
            assert batch.lengths[lo:hi].tolist() == cycle_lengths(ones, n)
            assert batch.phases[lo:hi].tolist() == phase.tolist()
            single += len(ones) == 1
        assert single > 0 or theta > 1

    @pytest.mark.parametrize("theta", [0.5, 2.0])
    def test_flat_coupled_tails_trial_by_trial(self, theta):
        # the coupled words at coupling-check's shape, assembled from the
        # flat tail walk; at theta = 0.5 some words have a single one and
        # some tails no one below the horizon
        n, trials = 1000, 300
        horizon = coupling_horizon(n, theta, 1e-3)[0]
        batch = draw_batch(n, theta, trial_rngs(32, 0, trials), horizon=horizon)
        spacings, owner, single, empty = [], [], 0, 0
        for t in range(trials):
            ones, _, tail = reference_trial(n, theta, trial_rng(32, t), False, horizon)
            lo, hi = batch.starts[t], batch.starts[t + 1]
            assert batch.lengths[lo:hi].tolist() == cycle_lengths(ones, n)
            assert batch.closing[t] == n + 1 - ones[-1]
            rest = np.diff(np.append(ones[-1], tail))
            spacings += rest[rest <= n].tolist()
            owner += [t] * int((rest <= n).sum())
            single, empty = single + (len(ones) == 1), empty + (len(tail) == 0)
        assert batch.tail.tolist() == spacings
        assert batch.tail_trial.tolist() == owner
        assert (single > 0 and empty > 0) or theta > 1

    @pytest.mark.parametrize("n", [1, 1000, 10_000])
    def test_single_trial_samplers_leave_the_generator_in_step(self, n):
        # sample_cycle_counts and sample_coupled read no uniform ahead, so a
        # caller's next draw is the one after the trial's last
        rng, twin = np.random.default_rng(23), np.random.default_rng(23)
        sample_cycle_counts(n, EwensParams(1.5), rng)
        reference_trial(n, 1.5, twin, False, None)
        assert rng.bit_generator.state == twin.bit_generator.state
        sample_coupled(n, EwensParams(1.5), rng, epsilon_tail=0.5)
        reference_trial(n, 1.5, twin, False, coupling_horizon(n, 1.5, 0.5)[0])
        assert rng.bit_generator.state == twin.bit_generator.state


class TestCycleTypeProbability:
    def test_n1(self):
        p = cycle_type_probability(cycle_type(1, {1: 1}), EwensParams(3.3))
        assert p == pytest.approx(1.0, rel=1e-14)

    def test_three_cycle_uniform(self):
        p = cycle_type_probability(cycle_type(3, {3: 1}), EwensParams(1.0))
        assert p == pytest.approx(1 / 3, rel=1e-13)

    def test_fixed_points_theta_two(self):
        p = cycle_type_probability(cycle_type(3, {1: 3}), EwensParams(2.0))
        assert p == pytest.approx(1 / 3, rel=1e-13)

    @pytest.mark.parametrize("theta", [0.5, 1.0, 2.5])
    @pytest.mark.parametrize("n", [1, 4, 8])
    def test_probabilities_sum_to_one(self, n, theta):
        _, probs = partition_probabilities(n, theta)
        assert math.fsum(probs.tolist()) == pytest.approx(1.0, rel=1e-12)

    def test_log_space_survives_large_n(self):
        # factorials overflow floats near n = 171; log space does not care
        p = cycle_type_probability(cycle_type(200, {200: 1}), EwensParams(1.0))
        assert p == pytest.approx(1 / 200, rel=1e-12)
        # exact big-integer oracle: P(identity of size 150 | theta=1) = 1/150!
        from fractions import Fraction

        p = cycle_type_probability(cycle_type(150, {1: 150}), EwensParams(1.0))
        exact = float(Fraction(1, math.factorial(150)))
        assert p == pytest.approx(exact, rel=1e-10)

    def test_partition_enumeration_count(self):
        # number of integer partitions of 8 is 22
        assert len(list(iter_cycle_types(8))) == 22


class TestCoupled:
    def test_poisson_counts_cover_interior_spacings(self):
        # every spacing with both endpoints in 1..n is counted by W as well;
        # only the sentinel-closed spacing may be missing from W
        rng = np.random.default_rng(108)
        params = EwensParams(1.0)
        for _ in range(200):
            s = sample_coupled(60, params, rng, epsilon_tail=1e-2)
            a = dense_counts(s)
            w = coupled_counts(s)
            diff = a - w
            # a exceeds W in at most one coordinate, by at most 1 (the sentinel)
            assert diff.max() <= 1
            assert (diff >= 1).sum() <= 1

    def test_poisson_marginal_mean(self):
        # W_j is Poisson(theta/j) up to the certified truncation
        rng = np.random.default_rng(109)
        params = EwensParams(2.0)
        trials = 3000
        n = 30
        acc = np.zeros(n)
        for _ in range(trials):
            acc += coupled_counts(sample_coupled(n, params, rng, epsilon_tail=1e-4))
        means = acc / trials
        lam = 2.0 / np.arange(1, n + 1)
        se = np.sqrt(lam / trials)
        assert np.all(np.abs(means - lam) < 5 * se + 1e-4)

    def test_poisson_law_of_w1_and_independence(self):
        # W_1 is Poisson(theta) up to the certified truncation; W_1 and W_2
        # are independent, so their sample correlation is MC noise
        from scipy.stats import chisquare, poisson

        theta, trials = 1.5, 20_000
        rng = np.random.default_rng(110)
        params = EwensParams(theta)
        w1 = np.empty(trials, dtype=np.int64)
        w2 = np.empty(trials, dtype=np.int64)
        for t in range(trials):
            w = coupled_counts(sample_coupled(40, params, rng, epsilon_tail=1e-4))
            w1[t], w2[t] = w[0], w[1]
        top = int(w1.max())
        observed = np.bincount(w1, minlength=top + 1).astype(float)
        expected = poisson.pmf(np.arange(top + 1), theta) * trials
        # merge the sparse upper tail into one cell for a valid chi-square
        cut = int(np.searchsorted(np.cumsum(expected), trials - 10.0)) + 1
        obs = np.append(observed[:cut], observed[cut:].sum())
        exp = np.append(expected[:cut], trials - expected[:cut].sum())
        assert chisquare(obs, exp).pvalue > 0.001
        corr = np.corrcoef(w1, w2)[0, 1]
        assert abs(corr) < 4 / math.sqrt(trials)

    @pytest.mark.parametrize("n", [1000, 10**4, 10**6])
    @pytest.mark.parametrize("theta", [0.5, 2.0])
    def test_poisson_laws_at_the_coupling_check_shape(self, theta, n):
        # coupling-check's batches (horizon for 1e-3): W_1 is Poisson(theta)
        # and sum_{j<=n} W_j Poisson(theta H_n), up to the certified
        # truncation; W = a - e_L + T per trial.  n = 10^4 and 10^6 walk their
        # words (the sparse route) as well as their tails
        from scipy.stats import poisson

        trials = 8000
        horizon = coupling_horizon(n, theta, 1e-3)[0]
        w1, total = [], []
        for lo in range(0, trials, 1000):
            batch = draw_batch(n, theta, trial_rngs(33, lo, lo + 1000), horizon=horizon)
            owner = np.repeat(np.arange(batch.trials), np.diff(batch.starts))
            ones = np.bincount(owner[batch.lengths == 1], minlength=batch.trials)
            tail_ones = np.bincount(batch.tail_trial[batch.tail == 1], minlength=batch.trials)
            w1.append(ones - (batch.closing == 1) + tail_ones)
            tails = np.bincount(batch.tail_trial, minlength=batch.trials)
            total.append(np.diff(batch.starts) - 1 + tails)
        harmonic = math.fsum(1.0 / j for j in range(1, n + 1))
        for counts, mean in ((np.concatenate(w1), theta), (np.concatenate(total), theta * harmonic)):
            cells = poisson.pmf(np.arange(counts.max() + 1), mean)
            cells[-1] += poisson.sf(counts.max(), mean)
            assert pooled_chisquare_pvalue(np.bincount(counts), cells) > 1e-3

    def test_tail_bound_below_epsilon_and_recorded(self):
        # the sampler walks its tail to the horizon that coupling_horizon records
        horizon, tail_bound = coupling_horizon(100, 0.5, 1e-3)
        assert 0 < tail_bound <= 1e-3
        assert horizon >= 100
        s = sample_coupled(100, EwensParams(0.5), np.random.default_rng(2), 1e-3)
        want = draw_batch(100, 0.5, [np.random.default_rng(2)], horizon=horizon, block=1)
        assert s.tail.tolist() == want.tail.tolist() and s.closing == want.closing

    @pytest.mark.parametrize("n", [60, 1000])
    @pytest.mark.parametrize("theta", [0.5, 2.0])
    def test_coupled_counts_match_the_whole_reference_word(self, theta, n):
        # the law tests read W from the helper a - e_L + T; here W is counted
        # over the whole word of the same stream, one uniform per draw
        eps = 1e-3
        horizon = coupling_horizon(n, theta, eps)[0]
        for t in range(300):
            s = sample_coupled(n, EwensParams(theta), trial_rng(34, t), eps)
            ones, _, tail = reference_trial(n, theta, trial_rng(34, t), False, horizon)
            gaps = np.diff(np.append(ones, tail))
            w = np.bincount(gaps[gaps <= n], minlength=n + 1)[1:]
            assert coupled_counts(s).tolist() == w.tolist()

    @pytest.mark.parametrize("theta", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("n", [1000, 2 * TABLE_BLOCK + 3])
    def test_tail_expectation_equals_whole_array(self, n, theta):
        # one block of 1/j and of the terms per call, each block summed
        # pairwise and the blocks' sums by fsum
        for horizon in (n, 2 * n, 8 * n + 1):
            assert coupling_tail_expectation(n, theta, horizon) == (
                coupling_tail_formula(n, theta, horizon))

    def test_tail_expectation_decreases_with_horizon(self):
        t1 = coupling_tail_expectation(100, 1.5, 200)
        t2 = coupling_tail_expectation(100, 1.5, 4000)
        assert t2 < t1

    @pytest.mark.parametrize("theta, rel", [
        (0.5, 1e-12), (1.0, 1e-12), (2.0, 1e-12), (ewens._TAIL_THETA_FLOOR, 1e-9),
    ], ids=["0.5", "1.0", "2.0", "floor"])
    def test_tail_expectation_against_mpmath(self, theta, rel):
        # the bound that coupling-check prints, at its horizon for n = 1000:
        # theta sum_j (1/j - psi(H, j) (1/j - 1/H)), psi(H, j) as the product;
        # its terms cancel to O(theta), so at the floor it is good to 1e-9
        mpmath = pytest.importorskip("mpmath")
        n = 1000
        horizon, tail = coupling_horizon(n, theta, 1e-3)
        with mpmath.workdps(40):
            th, h = mpmath.mpf(theta), mpmath.mpf(horizon)
            psi, total = mpmath.mpf(1), mpmath.mpf(0)
            for j in range(1, n + 1):
                psi *= (h - j + 1) / (th + h - j)
                total += 1 / mpmath.mpf(j) - psi * (1 / mpmath.mpf(j) - 1 / h)
            exact = float(th * total)
        assert tail == coupling_tail_expectation(n, theta, horizon)
        assert tail == pytest.approx(exact, rel=rel, abs=0)

    @pytest.mark.parametrize("theta", [math.nextafter(2.0**-17, 0.0), 1e-8, 1e-17, 1e-310, 5e-324])
    def test_tail_expectation_refused_below_its_theta_floor(self, theta):
        # 1e-17 gave a negative bound, 1e-310 a non-finite one
        assert ewens._TAIL_THETA_FLOOR == 2.0**-17
        message = (f"theta = {theta} is below 2\\*\\*-17, the floor of the coupling tail "
                   "bound, whose cancellation loses digits as theta shrinks$")
        for call in (lambda: coupling_tail_expectation(1000, theta, 2000),
                     lambda: coupling_horizon(1000, theta, 1e-3)):
            with pytest.raises(ValueError, match=message):
                call()

    def test_horizon_is_the_first_doubling_from_2n(self):
        # the search starts near theta^2 n / epsilon; the oracle doubles from 2n
        def doubling(n, theta, eps):
            horizon = 2 * n
            while (tail := coupling_tail_expectation(n, theta, horizon)) > eps:
                horizon *= 2
            return horizon, tail

        for n in (1, 2, 7, 60, 999, 4999):
            for theta in (0.01, 0.1, 0.5, 1.0, 1.7, 3.0, 8.0):
                for eps in (1e-2, 1e-3, 1e-4):
                    coupling_horizon.cache_clear()
                    assert coupling_horizon(n, theta, eps) == doubling(n, theta, eps)

    def test_horizon_contract_over_a_grid(self):
        # H is a doubling of 2n whose tail meets the bound while its half's
        # does not; an unreachable bound is one the last doubling below the
        # cap misses
        for n in (1, 3, 17, 100, 999, 3000):
            for theta in (0.05, 0.3, 1.0, 4.0, 20.0, 100.0):
                for eps in (0.5, 1e-2, 1e-4, 1e-6):
                    coupling_horizon.cache_clear()
                    try:
                        horizon, tail = coupling_horizon(n, theta, eps)
                    except ValueError:
                        last = 2 * n << (ewens.HORIZON_HARD_CAP // (2 * n)).bit_length() - 1
                        assert coupling_tail_expectation(n, theta, last) > eps
                        continue
                    doublings = horizon // (2 * n)
                    assert horizon == 2 * n * doublings and doublings & (doublings - 1) == 0
                    assert tail == coupling_tail_expectation(n, theta, horizon) <= eps
                    if horizon > 2 * n:
                        assert coupling_tail_expectation(n, theta, horizon // 2) > eps
        coupling_horizon.cache_clear()

    def test_horizon_steps_down_from_an_overshooting_guess(self, monkeypatch):
        # the search starts near theta^2 n / epsilon, where the true tail is
        # about epsilon; a tail eight times smaller puts the answer about three
        # doublings below that start, so the search must step down to it
        true_tail = ewens.coupling_tail_expectation
        asked = []

        def eighth(n, theta, horizon):
            asked.append(horizon)
            return true_tail(n, theta, horizon) / 8

        def doubling(n, theta, eps):
            horizon = 2 * n
            while (tail := eighth(n, theta, horizon)) > eps:
                horizon *= 2
            return horizon, tail

        monkeypatch.setattr(ewens, "coupling_tail_expectation", eighth)
        stepped = 0
        try:
            for n in (1, 7, 60, 999, 3000):
                for theta in (0.1, 0.5, 1.0, 3.0, 20.0):
                    for eps in (1e-2, 1e-4, 1e-6):
                        coupling_horizon.cache_clear()
                        asked.clear()
                        found = coupling_horizon(n, theta, eps)
                        stepped += asked[0] > found[0]
                        assert found == doubling(n, theta, eps)
        finally:
            coupling_horizon.cache_clear()
        assert stepped > 50

    def test_unreachable_epsilon_raises(self):
        with pytest.raises(ValueError):
            coupling_horizon(1000, 1.0, 1e-30)

    @pytest.mark.parametrize("epsilon", [math.nan, 0.0, -1.0, math.inf])
    def test_epsilon_must_be_positive_and_finite(self, epsilon):
        # nan gave a horizon near the cap for a bound never met; 0 and -1
        # were called unreachable below the cap
        with pytest.raises(ValueError, match=f"epsilon_tail must be positive and finite, got {epsilon}"):
            coupling_horizon(100, 1.0, epsilon)


class TestDeterminism:
    def test_same_seed_same_draws(self):
        params = EwensParams(1.1)
        a = sample_cycle_counts(500, params, trial_rng(9, 3))
        b = sample_cycle_counts(500, params, trial_rng(9, 3))
        assert a.counts == b.counts

    def test_different_trials_differ(self):
        params = EwensParams(1.1)
        a = sample_cycle_counts(500, params, trial_rng(9, 3))
        b = sample_cycle_counts(500, params, trial_rng(9, 4))
        assert a.counts != b.counts
