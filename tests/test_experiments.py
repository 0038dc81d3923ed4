import math

import numpy as np
import pytest
import scipy.special
import scipy.stats

from conftest import mesoscopic_per_n, trial_of
from permspectra import (
    Arc,
    ExperimentConfig,
    NAMED_IRRATIONALS,
    coupling_bound,
    exact_moments_perm,
    run_clt_fixed,
    run_coupling_check,
    run_mesoscopic,
    run_spacings,
)

GOLDEN = NAMED_IRRATIONALS["golden"].value
PI_FRAC = NAMED_IRRATIONALS["pi"].value


class TestCouplingBound:
    def test_theta_one_is_two(self):
        # psi(1) = -gamma
        assert coupling_bound(1.0) == 2.0

    def test_theta_half_is_two_minus_log_two(self):
        # psi(1/2) = -gamma - 2 log 2
        expected = 2.0 - math.log(2.0)
        assert abs(coupling_bound(0.5) - expected) <= 2 * math.ulp(expected)

    def test_monotone_in_theta(self):
        grid = np.linspace(0.1, 5.0, 200)
        values = [coupling_bound(float(t)) for t in grid]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_small_theta_limit_near_one(self):
        assert coupling_bound(0.001) == pytest.approx(1.0, abs=5e-3)


class TestStdlibSpecialFunctions:
    """Phi, the Kolmogorov tail and digamma from ``math`` alone, against
    scipy.special and mpmath as oracles."""

    def test_ndtr_matches_scipy_on_minus_forty_to_forty(self):
        from permspectra.experiments import _ndtr

        x = np.linspace(-40.0, 40.0, 80_001)
        got = np.array([_ndtr(v) for v in x.tolist()])
        want = scipy.special.ndtr(x)
        assert np.max(np.abs(got - want)) <= 4.5e-16
        # the lower tail keeps its relative precision down to 1e-290
        tail = want >= 1e-290
        assert np.max(np.abs(got[tail] - want[tail]) / want[tail]) <= 1e-13

    def test_kolmogorov_matches_scipy_on_its_range(self):
        from permspectra.experiments import _kolmogorov

        x = np.linspace(0.01, 10.0, 20_000)
        got = np.array([_kolmogorov(v) for v in x.tolist()])
        want = scipy.special.kolmogorov(x)
        assert np.max(np.abs(got - want) / want) <= 1e-13

    def test_digamma_matches_mpmath(self):
        # absolute near the root x0 = 1.4616..., relative where |psi| is large
        import mpmath

        from permspectra.experiments import _digamma

        grid = np.geomspace(2.0**-17, 2.0**9, 1_500).tolist() + [1.4616321449683622]
        for theta in grid:
            want = float(mpmath.digamma(mpmath.mpf(theta)))
            assert abs(_digamma(theta) - want) <= 1e-15 * (1.0 + abs(want)), theta

    def test_edges_warn_and_raise_nothing(self):
        import warnings

        from permspectra.experiments import _kolmogorov, _ndtr

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _ndtr(0.0) == 0.5
            assert _ndtr(40.0) == 1.0 and _ndtr(-40.0) == 0.0
            assert _kolmogorov(0.0) == 1.0 and _kolmogorov(1e-300) == 1.0
            assert _kolmogorov(40.0) == 0.0


class TestLatticeNormalityReport:
    """The continuity-corrected KS statistic of integer counts."""

    MU, SD, M = 10.3, 1.3, 2000

    @pytest.fixture(scope="class")
    def rounded_normal(self):
        # rounding N(mu, sd^2) gives exactly the law whose cdf at integer k
        # is Phi((k + 1/2 - mu) / sd): a true null for the lattice test
        rng = np.random.default_rng(41)
        return np.rint(rng.normal(self.MU, self.SD, self.M)).astype(np.int64)

    def test_rounded_normal_passes(self, rounded_normal):
        from permspectra.experiments import _normality_report

        r = _normality_report(rounded_normal, self.MU, self.SD**2)
        assert r.sample_size == self.M
        assert r.ks_p_value > 0.01
        # the same counts against the continuous normal hit the lattice floor
        z = (rounded_normal - self.MU) / self.SD
        assert scipy.stats.kstest(z, "norm", mode="asymp").pvalue < 1e-10

    def test_p_value_is_asymptotic_kolmogorov(self, rounded_normal):
        from permspectra.experiments import _normality_report

        r = _normality_report(rounded_normal, self.MU + 0.05, self.SD**2)
        assert 0 < r.ks_p_value < 1
        expected = scipy.special.kolmogorov(math.sqrt(self.M) * r.ks_statistic)
        assert r.ks_p_value == pytest.approx(expected, rel=1e-13, abs=0)

    @pytest.mark.parametrize(
        "mean_shift, variance_scale", [(0.0, 2.0), (0.0, 0.5), (0.5, 1.0)]
    )
    def test_wrong_moments_rejected(self, rounded_normal, mean_shift, variance_scale):
        from permspectra.experiments import _normality_report

        r = _normality_report(
            rounded_normal, self.MU + mean_shift, variance_scale * self.SD**2
        )
        assert r.ks_p_value < 0.01

    @pytest.mark.parametrize(
        "counts, mean, variance, expected",
        [
            # sup at k = max: the normal mass above the sample, 1 - Phi(0)
            ([0] * 4 + [1] * 4, 1.5, 0.25, 0.5),
            # sup at k = min - 1: the normal mass below the sample, Phi(0)
            ([0] * 4 + [1] * 4, -0.5, 0.25, 0.5),
            # sup at k = 2, a grid point no sample takes: Phi(1.1) - 1/2
            ([0] * 4 + [3] * 4, 1.4, 1.0, float(scipy.special.ndtr(1.1)) - 0.5),
        ],
    )
    def test_statistic_spans_whole_integer_grid(self, counts, mean, variance, expected):
        from permspectra.experiments import _normality_report

        r = _normality_report(np.array(counts, dtype=np.int64), mean, variance)
        assert r.ks_statistic == pytest.approx(expected, abs=1e-12)

    def test_non_integer_counts_rejected(self):
        from permspectra.experiments import _normality_report

        with pytest.raises(ValueError, match="integer"):
            _normality_report(np.linspace(0.0, 1.0, 10), 0.5, 0.1)

    @pytest.mark.parametrize("variance", [0.0, -1.0, math.nan])
    def test_reference_variance_must_be_positive(self, variance):
        from permspectra.experiments import _normality_report

        with pytest.raises(ValueError, match=f"got {variance} for 12 samples"):
            _normality_report(np.zeros(12, dtype=np.int64), 0.0, variance)


class TestConfigValidation:
    def test_gamma_outside_unit_interval_rejected(self):
        # gamma >= 1 would make n*delta stop growing; gamma <= 0 stop shrinking
        for gamma in (0.0, 1.0, 1.5):
            with pytest.raises(ValueError):
                ExperimentConfig(
                    theta=1.0, trials=10, master_seed=0, model="mod",
                    n_schedule=(100,), gamma=gamma,
                )

    def test_model_checked(self):
        with pytest.raises(ValueError):
            ExperimentConfig(theta=1.0, trials=10, master_seed=0, model="cue")

    def test_min_trials(self):
        with pytest.raises(ValueError):
            ExperimentConfig(theta=1.0, trials=1, master_seed=0, model="mod")

    @pytest.mark.parametrize("trials", [2, 7])
    def test_trials_the_ks_report_needs(self, trials):
        with pytest.raises(ValueError, match=f"need at least 8 trials, got {trials}"):
            ExperimentConfig(theta=1.0, trials=trials, master_seed=0, model="mod")
        ExperimentConfig(theta=1.0, trials=8, master_seed=0, model="mod")


class TestRunCltFixed:
    def test_degenerate_full_circle_rejected(self):
        cfg = ExperimentConfig(
            theta=1.0, trials=10, master_seed=0, model="mod", n=50,
            arcs=(Arc(0.0, 1.0),),
        )
        with pytest.raises(ValueError, match="degenerate"):
            run_clt_fixed(cfg)

    def test_perm_beyond_the_old_cap_standardises_by_exact_moments(self):
        # n = 6000 was refused while the plain variance was an O(n^2) sum
        arc = Arc(0.1, 0.6)
        cfg = ExperimentConfig(
            theta=1.0, trials=10, master_seed=0, model="perm", n=6000, arcs=(arc,),
        )
        exact = exact_moments_perm(6000, 1.0, arc)
        assert run_clt_fixed(cfg, n_numeric=10**3).moments == [(exact.mean, exact.variance)]

    def test_standardisation_calibrated(self):
        # exact moments centre and scale the counts: empirical mean within
        # 4/sqrt(M) of 0 and variance within 4*sqrt(2/M) of 1
        m_trials = 1000
        cfg = ExperimentConfig(
            theta=1.0, trials=m_trials, master_seed=21, model="mod", n=2000,
            arcs=(Arc(0.0, GOLDEN),),
        )
        res = run_clt_fixed(cfg, n_numeric=10**4)
        z = res.standardized[:, 0]
        assert abs(z.mean()) < 4 / math.sqrt(m_trials)
        assert abs(np.var(z, ddof=1) - 1.0) < 4 * math.sqrt(2 / m_trials)

    def test_jobs_do_not_change_results(self):
        cfg = ExperimentConfig(
            theta=0.8, trials=60, master_seed=5, model="mod", n=300,
            arcs=(Arc(0.1, 0.55), Arc(0.2, 0.9)),
        )
        serial = run_clt_fixed(cfg, jobs=1, n_numeric=10**4)
        parallel = run_clt_fixed(cfg, jobs=3, n_numeric=10**4)
        assert np.array_equal(serial.counts, parallel.counts)
        assert np.array_equal(serial.standardized, parallel.standardized)

    def test_normal_quantile_sanity(self):
        # integer lattice alignment matters at sd ~ 1.3: this arc's width
        # puts the first lattice point beyond mu + 1.96 sd at tail mass
        # ~0.022, inside [0.015, 0.035]
        cfg = ExperimentConfig(
            theta=1.0, trials=2000, master_seed=31, model="mod", n=10**4,
            arcs=(Arc(0.0, PI_FRAC),),
        )
        res = run_clt_fixed(cfg, n_numeric=10**4)
        frac = float(np.mean(res.standardized[:, 0] > 1.96))
        assert 0.015 <= frac <= 0.035


class TestRunMesoscopic:
    def test_requires_schedule(self):
        cfg = ExperimentConfig(theta=1.0, trials=10, master_seed=0, model="mod", n=100)
        with pytest.raises(ValueError):
            run_mesoscopic(cfg)

    def test_mod_exact_rows(self):
        cfg = ExperimentConfig(
            theta=2.0, trials=50, master_seed=3, model="mod",
            n_schedule=(1000, 4000), gamma=0.5,
        )
        res = run_mesoscopic(cfg)
        assert res.constant == pytest.approx(1 / 6)
        assert [r.n for r in res.rows] == [1000, 4000]
        assert all(r.variance_is_exact for r in res.rows)
        assert res.report is not None
        assert res.report.sample_size == 50

    def test_perm_uses_monte_carlo_variance(self):
        from fractions import Fraction

        cfg = ExperimentConfig(
            theta=1.0, trials=400, master_seed=4, model="perm",
            n_schedule=(2000,), gamma=0.5, meso_alpha=Fraction(0),
        )
        res = run_mesoscopic(cfg)
        assert res.constant == pytest.approx(1 / 3)
        assert not res.rows[0].variance_is_exact
        assert res.rows[0].ratio > 0

    @pytest.mark.parametrize("schedule", [
        (40, 400, 4000), (4000, 40, 400), (400, 40, 400, 400), (4000,),
    ], ids=["sorted", "unsorted", "repeated", "one"])
    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("chunk", [None, 16])
    def test_perm_rows_equal_a_draw_at_each_n(self, monkeypatch, schedule, jobs, chunk):
        # one walk per trial to the largest n, cut at each size, gives the
        # rows and report of a fresh draw at every n; at theta = 4 some
        # trial has a one at n = 40 (probability 4/43 each)
        from fractions import Fraction

        if chunk is not None:
            monkeypatch.setattr("permspectra.experiments._CHUNK_TRIALS", chunk)
        cfg = ExperimentConfig(
            theta=4.0, trials=61, master_seed=9, model="perm",
            n_schedule=schedule, gamma=0.4, meso_alpha=Fraction(1, 3),
        )
        assert run_mesoscopic(cfg, jobs=jobs) == mesoscopic_per_n(cfg, jobs=jobs)

    @pytest.mark.parametrize("schedule", [(1000, 1000), (400, 1000, 1000, 400)])
    def test_mod_draws_once_at_the_largest_n(self, monkeypatch, schedule):
        from permspectra import experiments

        calls = {"draws": 0, "reports": 0}

        def counted(name, key):
            inner = getattr(experiments, name)

            def wrapper(*args, **kwargs):
                calls[key] += 1
                return inner(*args, **kwargs)

            monkeypatch.setattr(experiments, name, wrapper)

        cfg = ExperimentConfig(
            theta=1.3, trials=40, master_seed=2, model="mod", n_schedule=schedule, gamma=0.5,
        )
        want = mesoscopic_per_n(cfg)
        counted("_arc_counts", "draws")
        counted("_normality_report", "reports")
        assert run_mesoscopic(cfg) == want
        assert calls == {"draws": 1, "reports": 1}

    def test_perm_refuses_an_undeclared_anchor(self, monkeypatch):
        # a bare float anchor got the irrational constant 1/6, though 0.5 may be 1/2
        def no_trials(*args, **kwargs):
            raise AssertionError("trials ran")

        monkeypatch.setattr("permspectra.experiments._run_trials", no_trials)
        cfg = ExperimentConfig(
            theta=1.0, trials=10, master_seed=4, model="perm",
            n_schedule=(2000,), gamma=0.5, meso_alpha=0.5,
        )
        with pytest.raises(ValueError, match="undeclared"):
            run_mesoscopic(cfg)


class TestRunCouplingCheck:
    def test_bound_holds_with_margin(self):
        rep = run_coupling_check(300, 1.0, 800, master_seed=17, epsilon_tail=1e-3)
        assert rep.empirical_mean + rep.tail_bound <= rep.bound + 3 * rep.std_error
        assert rep.bound == pytest.approx(2.0, abs=1e-10)
        assert rep.horizon > 300

    def test_jobs_identical(self):
        a = run_coupling_check(100, 0.5, 96, master_seed=2, jobs=1)
        b = run_coupling_check(100, 0.5, 96, master_seed=2, jobs=4)
        assert a.empirical_mean == b.empirical_mean
        assert a.std_error == b.std_error

    @pytest.mark.parametrize("epsilon_tail", [math.nan, math.inf, 0.0])
    def test_bad_epsilon_tail_refused_before_sampling(self, monkeypatch, epsilon_tail):
        # the horizon search refuses it, before any trial is drawn
        def no_trials(*args, **kwargs):
            raise AssertionError("trials ran")

        monkeypatch.setattr("permspectra.experiments._run_trials", no_trials)
        with pytest.raises(ValueError, match=f"got {epsilon_tail}"):
            run_coupling_check(100, 1.0, 10, master_seed=1, epsilon_tail=epsilon_tail)


class TestRunSpacings:
    @pytest.mark.parametrize("jobs", [0, -3])
    def test_jobs_below_one_refused(self, jobs):
        with pytest.raises(ValueError, match=f"jobs must be >= 1, got {jobs}"):
            run_spacings([50], theta=1.0, trials=4, master_seed=1, jobs=jobs)

    def test_small_schedule(self):
        res = run_spacings([100, 200], theta=1.0, trials=150, master_seed=6)
        assert [r.n for r in res.rows] == [100, 200]
        for row in res.rows:
            assert row.violations_nD == 0
            assert row.violations_n2d == 0
            assert row.violations_dtilde == 0
            assert row.nD[0] >= 1.0  # 5% quantile of n*D
            assert all(a <= b for a, b in zip(row.n2d, row.n2d[1:]))


class TestTrialEngine:
    """The chunk-batched engine against per-trial composition of the public
    one-trial functions, and its invariance to chunking and worker count."""

    def test_chunk_rule(self):
        from permspectra.experiments import _CHUNK_TRIALS, _chunk_ranges

        # one job: a call's trials as one chunk, up to _CHUNK_TRIALS
        assert _chunk_ranges(150, 1) == [(0, 150)]
        assert _chunk_ranges(2 * _CHUNK_TRIALS + 5, 1) == [
            (0, _CHUNK_TRIALS), (_CHUNK_TRIALS, 2 * _CHUNK_TRIALS),
            (2 * _CHUNK_TRIALS, 2 * _CHUNK_TRIALS + 5),
        ]
        # more jobs: one chunk per job, up to _CHUNK_TRIALS
        assert _chunk_ranges(150, 2) == [(0, 75), (75, 150)]
        assert _chunk_ranges(151, 4) == [(0, 38), (38, 76), (76, 114), (114, 151)]
        assert _chunk_ranges(3, 4) == [(0, 1), (1, 2), (2, 3)]
        assert _chunk_ranges(3 * _CHUNK_TRIALS, 2) == [
            (0, _CHUNK_TRIALS), (_CHUNK_TRIALS, 2 * _CHUNK_TRIALS),
            (2 * _CHUNK_TRIALS, 3 * _CHUNK_TRIALS),
        ]

    def test_mesoscopic_jobs_identical(self):
        from fractions import Fraction

        cfg = ExperimentConfig(
            theta=1.2, trials=50, master_seed=8, model="perm",
            n_schedule=(500, 3000), gamma=0.5, meso_alpha=Fraction(1, 3),
        )
        one, many = run_mesoscopic(cfg, jobs=1), run_mesoscopic(cfg, jobs=3)
        assert [r.variance for r in one.rows] == [r.variance for r in many.rows]
        assert one.report == many.report

    def test_spacings_jobs_identical(self):
        one = run_spacings([120, 500], theta=0.9, trials=45, master_seed=12, jobs=1)
        many = run_spacings([120, 500], theta=0.9, trials=45, master_seed=12, jobs=3)
        assert one == many

    @pytest.mark.parametrize("model", ["mod", "perm"])
    def test_uneven_chunks_match_per_trial_path(self, model, monkeypatch):
        from fractions import Fraction

        from permspectra import (
            EwensParams, attach_phases, count_arc_mod, count_arc_perm,
            sample_cycle_counts, trial_rng,
        )
        from permspectra.experiments import _chunk_ranges

        # one job runs up to _CHUNK_TRIALS trials as one chunk; a small
        # bound gives 61 trials chunks of unequal sizes
        monkeypatch.setattr("permspectra.experiments._CHUNK_TRIALS", 16)
        trials, n, theta = 61, 400, 0.7
        assert len({hi - lo for lo, hi in _chunk_ranges(trials, 1)}) > 1
        arcs = (Arc(0.1, 0.55), Arc(Fraction(1, 3), Fraction(6, 5)))
        cfg = ExperimentConfig(
            theta=theta, trials=trials, master_seed=3, model=model, n=n, arcs=arcs,
        )
        got = run_clt_fixed(cfg, n_numeric=10**3).counts
        params = EwensParams(theta)
        for t in range(trials):
            rng = trial_rng(3, t)
            counts = sample_cycle_counts(n, params, rng)
            if model == "mod":
                spectrum = attach_phases(counts, rng)
                want = [count_arc_mod(spectrum, a) for a in arcs]
            else:
                want = [count_arc_perm(counts, a) for a in arcs]
            assert got[t].tolist() == want

    def test_walked_lengths_match_per_trial_sampler(self):
        from permspectra import EwensParams, sample_cycle_counts, trial_rng
        from conftest import ones_positions_sparse
        from permspectra.ewens import draw_batch

        n, theta, trials = 10_000, 1.4, 7
        batch = draw_batch(n, theta, (trial_rng(5, t) for t in range(trials)))
        for t in range(trials):
            lengths = trial_of(batch, t).lengths.tolist()
            one = sample_cycle_counts(n, EwensParams(theta), trial_rng(5, t))
            assert lengths == one.lengths.tolist()
            ones = ones_positions_sparse(n, theta, trial_rng(5, t))
            assert lengths == sorted(np.diff(np.append(ones, n + 1)).tolist())

    @pytest.mark.parametrize("n, theta", [
        (150, 0.8), (10_000, 0.5), (10_000, 2.0)])
    def test_coupling_distances_match_per_trial_path(self, n, theta):
        # 100 trials, whose words and tails take the lockstep walk
        from conftest import reference_trial
        from permspectra import (
            EwensParams, coupling_distance, coupling_horizon, sample_coupled, trial_rng,
        )
        from permspectra.ewens import coupling_distances, draw_batch

        eps, trials = 1e-3, 100
        horizon, _ = coupling_horizon(n, theta, eps)
        batch = draw_batch(n, theta, (trial_rng(4, t) for t in range(trials)), horizon=horizon)
        want = [
            coupling_distance(sample_coupled(n, EwensParams(theta), trial_rng(4, t), eps))
            for t in range(trials)
        ]
        assert coupling_distances(batch).tolist() == want
        # the definition, sum_j |a_j - W_j|, with W counted over the whole word
        dense = []
        for t in range(trials):
            ones, _, tail = reference_trial(n, theta, trial_rng(4, t), False, horizon)
            gaps = np.diff(np.append(ones, tail))
            a = np.bincount(np.diff(np.append(ones, n + 1)), minlength=n + 1)[1:]
            w = np.bincount(gaps[gaps <= n], minlength=n + 1)[1:]
            dense.append(int(np.abs(a - w).sum()))
        assert want == dense

    def test_two_key_sort_beyond_int64_keys(self):
        # at n = 2**62 the key trial * (n + 1) + length would overflow int64
        # for a second trial, so the batch sorts by two keys instead
        from permspectra import EwensParams, sample_cycle_counts, trial_rng
        from permspectra.ewens import draw_batch

        n = 2**62
        batch = draw_batch(n, 1.0, (trial_rng(6, t) for t in range(3)))
        for t in range(3):
            one = sample_cycle_counts(n, EwensParams(1.0), trial_rng(6, t))
            assert trial_of(batch, t).lengths.tolist() == one.lengths.tolist()
            assert sum(one.lengths.tolist()) == n
