import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    BernoulliWord,
    crp_type_counts,
    cycle_counts_from_word,
    feller_type_counts,
    partition_probabilities,
    sample_bernoulli_word,
    type_chisquare_pvalue,
)
from permspectra import (
    CycleCounts,
    EwensParams,
    coupling_horizon,
    coupling_tail_expectation,
    cycle_type_probability,
    expected_total_cycles,
    iter_cycle_types,
    sample_age_ordered,
    sample_coupled,
    sample_cycle_counts,
    sample_gem,
    trial_rng,
)
from permspectra.ewens import _ones_positions_sparse


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


class TestCycleCountsForms:
    @pytest.mark.parametrize(
        "n, counts", [(1, {1: 1}), (10, {3: 2, 4: 1}), (12, {1: 5, 7: 1}), (6, {6: 1})]
    )
    def test_dict_and_lengths_forms_agree(self, n, counts):
        lengths = [j for j, a in counts.items() for _ in range(a)][::-1]
        a, b = CycleCounts(n, counts), CycleCounts(n, lengths=lengths)
        assert a.counts == b.counts == counts
        assert a.total_cycles() == b.total_cycles() == sum(counts.values())
        assert np.array_equal(a.as_array(), b.as_array())
        assert a.lengths.tolist() == b.lengths.tolist() == sorted(lengths)

    def test_zero_multiplicity_dropped(self):
        assert CycleCounts(3, {1: 3, 2: 0}).counts == {1: 3}

    @pytest.mark.parametrize(
        "kwargs",
        [{"counts": {2: 1}}, {"counts": {1: 4, 2: -1}}, {"lengths": [2, 2]},
         {"lengths": [0, 3]}, {}, {"counts": {3: 1}, "lengths": [3]}],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            CycleCounts(3, **kwargs)


class TestSamplers:
    @pytest.mark.parametrize("theta", [0.5, 1.0, 2.0])
    def test_feller_sampler_law_small_n(self, theta):
        rng = np.random.default_rng(100)
        trials = 50_000
        freq = feller_type_counts(5, theta, trials, rng)
        assert type_chisquare_pvalue(freq, 5, theta, trials) > 0.001

    @pytest.mark.parametrize("theta", [0.5, 1.0, 2.0])
    def test_restaurant_sampler_law_small_n(self, theta):
        rng = np.random.default_rng(101)
        trials = 50_000
        freq = crp_type_counts(5, theta, trials, rng)
        assert type_chisquare_pvalue(freq, 5, theta, trials) > 0.001

    def test_sparse_route_same_law(self):
        # force the gap-skipping sampler at small n and chi-square it too
        rng = np.random.default_rng(102)
        trials = 20_000
        freq: dict = {}
        for _ in range(trials):
            ones = _ones_positions_sparse(5, 1.3, rng)
            spac = np.diff(np.append(ones, 6))
            key = tuple(sorted(spac.tolist(), reverse=True))
            freq[key] = freq.get(key, 0) + 1
        assert type_chisquare_pvalue(freq, 5, 1.3, trials) > 0.001

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


class TestAgeOrdered:
    def test_n1(self):
        out = sample_age_ordered(1, EwensParams(5.0), np.random.default_rng(0))
        assert out.lengths == [1]

    def test_single_three_cycle_probability(self):
        # exactly 2 of the 6 permutations of {1,2,3} are 3-cycles
        rng = np.random.default_rng(105)
        trials = 20_000
        hits = sum(
            sample_age_ordered(3, EwensParams(1.0), rng).lengths == [3]
            for _ in range(trials)
        )
        p_hat = hits / trials
        assert abs(p_hat - 1 / 3) < 4 * math.sqrt((1 / 3) * (2 / 3) / trials)

    def test_lengths_sum_and_age_order_marginal(self):
        rng = np.random.default_rng(106)
        out = sample_age_ordered(500, EwensParams(0.4), rng)
        assert sum(out.lengths) == 500

    def test_expected_cycles_restaurant_route(self):
        # batch sampler drives the mean-cycle-count check at n = 1e4
        from permspectra.ewens import _sample_age_ordered_batch

        rng = np.random.default_rng(107)
        n, trials, theta = 10_000, 300, 2.0
        labels = _sample_age_ordered_batch(n, theta, trials, rng)
        ks = labels.max(axis=1) + 1
        expected = expected_total_cycles(n, theta)
        se = np.std(ks, ddof=1) / math.sqrt(trials)
        assert abs(np.mean(ks) - expected) < 3 * se


class TestCycleTypeProbability:
    def test_n1(self):
        p = cycle_type_probability(CycleCounts(1, {1: 1}), EwensParams(3.3))
        assert p == pytest.approx(1.0, rel=1e-14)

    def test_three_cycle_uniform(self):
        p = cycle_type_probability(CycleCounts(3, {3: 1}), EwensParams(1.0))
        assert p == pytest.approx(1 / 3, rel=1e-13)

    def test_fixed_points_theta_two(self):
        p = cycle_type_probability(CycleCounts(3, {1: 3}), EwensParams(2.0))
        assert p == pytest.approx(1 / 3, rel=1e-13)

    @pytest.mark.parametrize("theta", [0.5, 1.0, 2.5])
    @pytest.mark.parametrize("n", [1, 4, 8])
    def test_probabilities_sum_to_one(self, n, theta):
        _, probs = partition_probabilities(n, theta)
        assert math.fsum(probs.tolist()) == pytest.approx(1.0, rel=1e-12)

    def test_log_space_survives_large_n(self):
        # factorials overflow floats near n = 171; log space does not care
        p = cycle_type_probability(CycleCounts(200, {200: 1}), EwensParams(1.0))
        assert p == pytest.approx(1 / 200, rel=1e-12)
        # exact big-integer oracle: P(identity of size 150 | theta=1) = 1/150!
        from fractions import Fraction

        p = cycle_type_probability(CycleCounts(150, {1: 150}), EwensParams(1.0))
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
            a = s.cycle_counts.as_array()
            w = s.poisson_counts
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
            acc += sample_coupled(n, params, rng, epsilon_tail=1e-4).poisson_counts
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
            s = sample_coupled(40, params, rng, epsilon_tail=1e-4)
            w1[t], w2[t] = s.poisson_counts[0], s.poisson_counts[1]
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

    def test_tail_bound_below_epsilon_and_recorded(self):
        s = sample_coupled(100, EwensParams(0.5), np.random.default_rng(2), 1e-3)
        assert 0 < s.tail_bound <= 1e-3
        assert s.horizon >= 100

    def test_tail_expectation_decreases_with_horizon(self):
        t1 = coupling_tail_expectation(100, 1.5, 200)
        t2 = coupling_tail_expectation(100, 1.5, 4000)
        assert t2 < t1

    def test_unreachable_epsilon_raises(self):
        with pytest.raises(ValueError):
            coupling_horizon(1000, 1.0, 1e-30)


class TestGem:
    def test_stick_breaking_invariants(self):
        # m kept moderate: the unbroken remainder decays geometrically and
        # below ~1e-16 the partial sums saturate to 1.0 in double precision
        g = sample_gem(EwensParams(2.0), 20, np.random.default_rng(3))
        assert np.all(g > 0) and np.all(g < 1)
        partial = np.cumsum(g)
        assert np.all(np.diff(partial) > 0)
        assert partial[-1] < 1.0

    @pytest.mark.parametrize("theta,mean", [(1.0, 0.5), (2.0, 1 / 3)])
    def test_first_coordinate_mean(self, theta, mean):
        rng = np.random.default_rng(4)
        g1 = np.array([sample_gem(EwensParams(theta), 1, rng)[0] for _ in range(4000)])
        assert abs(g1.mean() - mean) < 4 * g1.std(ddof=1) / math.sqrt(len(g1))


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
