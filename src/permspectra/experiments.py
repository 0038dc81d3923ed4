"""Monte Carlo harness: Gaussian-limit checks, coupling bound, spacings.

Every experiment is driven by a master seed; trial ``i`` draws from the
generator ``trial_rng(master_seed, i)``, i.e. ``SeedSequence((master_seed,
i))``, so results are bit-identical for any worker count.  That derivation is
unchanged, but each chunk computes its generators at once with
``rng.trial_rngs`` (one vectorised SeedSequence hash per chunk), which a test
pins against the installed numpy's ``SeedSequence``.  Aggregations run over
the trial-ordered arrays, never over per-worker partial sums.

All four drivers share one trial engine: trials run in chunks, and inside a
chunk only the draws run per trial (every word, then the phases or the
coupled tails; sparse words and tails are walked for all trials of the
chunk in lockstep, see ``ewens.draw_batch``).  Each job takes one chunk
of its share of a call's trials, up to ``_CHUNK_TRIALS``, so those walks
run on the widest lanes.  Each driver's statistic is then computed once
per chunk on the concatenated cycle-length arrays: arc counts,
extremal spacings or coupling distances, one row per trial.

The normality checks standardise integer counts with their *exact* finite-n
moments (the asymptotic ones converge like 1/log n, far too slowly to be
usable at desk scale) and compare them with the normal law by a lattice
Kolmogorov-Smirnov test: the reference cdf is the continuity-corrected
Phi((k + 1/2 - mean) / sd), compared with the empirical cdf at every integer
k, and the p-value is the asymptotic Kolmogorov one
(``scipy.special.kolmogorov``), conservative for a discrete null.  The
variance is the exact one (the Monte Carlo one for plain mesoscopic rows),
without Sheppard's -1/12.  Comparing integer counts with the continuous
Phi instead would put a floor of about half the largest lattice atom
(~0.15 at count variances ~1.5) under the KS distance and reject every
sample, Gaussian or not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence, Union

import numpy as np

from .cesaro import check_table_size, check_theta
from .ewens import TrialBatch, coupling_distances, coupling_horizon, draw_batch
from .limits import DeclaredIrrational, c2_meso, covariance_D, covariance_Dtilde
from .rng import trial_rngs
from .spacings import mod_gap_extremes
from .spectral import (
    Arc,
    _perm_mean,
    count_arcs_mod,
    count_arcs_perm,
    exact_moments_mod,
    exact_moments_perm,
)

__all__ = [
    "ExperimentConfig",
    "NormalityReport",
    "CltFixedResult",
    "MesoscopicRow",
    "MesoscopicResult",
    "CouplingReport",
    "SpacingsRow",
    "SpacingsResult",
    "coupling_bound",
    "run_clt_fixed",
    "run_mesoscopic",
    "run_coupling_check",
    "run_spacings",
]

def coupling_bound(theta: float) -> float:
    """Upper bound 2 + theta (gamma + psi(theta)) on E sum_j |a_{n,j} - W_j|."""
    from scipy.special import digamma

    return float(2.0 + theta * (np.euler_gamma + digamma(theta)))


@dataclass
class NormalityReport:
    """Lattice KS comparison of integer counts with the normal law.

    Empirical and reference mean/variance are on the raw count scale.  The
    KS statistic is the continuity-corrected lattice distance
    max_k |F_emp(k) - Phi((k + 1/2 - mean) / sd)| over the integers k from
    min - 1 to max of the sample, with the reference mean and variance; the
    p-value is the asymptotic Kolmogorov one at sqrt(sample_size) times it.
    """

    sample_size: int
    ks_statistic: float
    ks_p_value: float
    empirical_mean: float
    empirical_variance: float
    reference_mean: float
    reference_variance: float

    def __post_init__(self):
        if not 0 <= self.ks_statistic <= 1 or not 0 <= self.ks_p_value <= 1:
            raise ValueError("KS statistic and p-value must lie in [0, 1]")


def _lattice_ks(
    counts: np.ndarray, reference_mean: float, reference_variance: float
) -> tuple[float, float]:
    """Continuity-corrected KS test of integer counts against N(mean, variance).

    Both the empirical cdf and the discretised normal cdf
    Phi((k + 1/2 - mean) / sd) are step functions jumping at the integers, so
    the sup of their gap is attained on the integer grid from min - 1 (the
    normal mass below the sample) to max (the mass above it).  Returns
    (statistic, p_value); the asymptotic Kolmogorov p-value is conservative
    for a discrete null.
    """
    from scipy.special import kolmogorov, ndtr

    if not np.issubdtype(counts.dtype, np.integer):
        raise ValueError(f"lattice KS needs integer counts, got dtype {counts.dtype}")
    m = len(counts)
    if m < 8:
        raise ValueError(f"need at least 8 samples, got {m}")
    if not reference_variance > 0:  # NaN included
        raise ValueError(
            f"lattice KS needs a positive reference variance, got {reference_variance} "
            f"for {m} samples"
        )
    ordered = np.sort(counts)
    grid = np.arange(ordered[0] - 1, ordered[-1] + 1)
    empirical = np.searchsorted(ordered, grid, side="right") / m
    reference = ndtr((grid + 0.5 - reference_mean) / math.sqrt(reference_variance))
    stat = float(np.max(np.abs(empirical - reference)))
    return stat, float(kolmogorov(math.sqrt(m) * stat))


def _normality_report(
    counts: np.ndarray, reference_mean: float, reference_variance: float
) -> NormalityReport:
    stat, p = _lattice_ks(counts, reference_mean, reference_variance)
    # compensated, trial-order-fixed sums: the report is bit-identical no
    # matter how the trials were batched across workers
    m = len(counts)
    mean = math.fsum(counts.tolist()) / m
    variance = math.fsum(((counts - mean) ** 2).tolist()) / (m - 1)
    return NormalityReport(
        sample_size=m,
        ks_statistic=stat,
        ks_p_value=p,
        empirical_mean=mean,
        empirical_variance=variance,
        reference_mean=reference_mean,
        reference_variance=reference_variance,
    )


# ---------------------------------------------------------------------------
# configuration and the chunked trial runner
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentConfig:
    """Shared configuration for the Monte Carlo drivers.

    ``n`` is the fixed matrix size (fixed-arc experiments); mesoscopic runs
    use ``n_schedule`` with arc width n**(-gamma) anchored at ``meso_alpha``.
    """

    theta: float
    trials: int
    master_seed: int
    model: str  # "perm" | "mod"
    n: Optional[int] = None
    arcs: tuple[Arc, ...] = field(default_factory=tuple)
    n_schedule: tuple[int, ...] = field(default_factory=tuple)
    gamma: Optional[float] = None
    meso_alpha: Union[Fraction, DeclaredIrrational, None] = None

    def __post_init__(self):
        check_theta(self.theta)
        if self.trials < 8:  # the fewest samples the lattice KS report takes
            raise ValueError(f"need at least 8 trials, got {self.trials}")
        if self.model not in ("perm", "mod"):
            raise ValueError(f"model must be 'perm' or 'mod', got {self.model!r}")
        if self.gamma is not None and not 0 < self.gamma < 1:
            raise ValueError(
                "gamma must lie in (0, 1): the arc must shrink while n*width grows"
            )


#: most trials in one chunk; each job takes one chunk of its share of a
#: call's trials up to this, which gives the lockstep walk
#: (``ewens.draw_batch``) its widest lanes
_CHUNK_TRIALS = 4096


def _chunk_ranges(trials: int, jobs: int) -> list[tuple[int, int]]:
    per = min(_CHUNK_TRIALS, math.ceil(trials / jobs))
    return [(lo, min(lo + per, trials)) for lo in range(0, trials, per)]


def _trial_chunk(args) -> np.ndarray:
    """Trials lo..hi-1: draw each from its own generator, then one statistic
    over the whole batch (a row per trial)."""
    lo, hi, seed, n, theta, phases, horizon, statistic, extra = args
    return statistic(draw_batch(n, theta, trial_rngs(seed, lo, hi), phases, horizon), *extra)


def _run_trials(statistic, extra, seed, n, theta, trials, jobs, phases=False, horizon=None):
    """``statistic(batch, *extra)`` over every trial, rows in trial order.

    Trials run in chunks of ceil(trials / jobs), up to ``_CHUNK_TRIALS``
    each, in worker processes when ``jobs`` > 1; trial i always draws from
    ``trial_rng(seed, i)``, whatever the chunking.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    payloads = [
        (lo, hi, seed, n, theta, phases, horizon, statistic, extra)
        for lo, hi in _chunk_ranges(trials, jobs)
    ]
    if jobs == 1:
        parts = [_trial_chunk(p) for p in payloads]
    else:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            parts = list(pool.map(_trial_chunk, payloads))
    return np.concatenate(parts, axis=0)


def _arc_counts(model, arcs, seed, n, theta, trials, jobs) -> np.ndarray:
    """Counts of every trial (rows) in every arc (columns) for one ensemble."""
    statistic = count_arcs_mod if model == "mod" else count_arcs_perm
    return _run_trials(statistic, (arcs,), seed, n, theta, trials, jobs, phases=model == "mod")


# ---------------------------------------------------------------------------
# fixed-arc central limit experiment
# ---------------------------------------------------------------------------


@dataclass
class CltFixedResult:
    counts: np.ndarray  # trials x arcs, raw integer counts
    standardized: np.ndarray  # trials x arcs
    reports: list[NormalityReport]
    empirical_correlation: np.ndarray
    reference_correlation: np.ndarray
    moments: list[tuple[float, float]]  # exact (mean, variance) per arc


def run_clt_fixed(
    config: ExperimentConfig, jobs: int = 1, n_numeric: int = 10**6
) -> CltFixedResult:
    """Sample counts over fixed arcs, standardise by exact moments, test normality.

    Returns per-arc KS reports plus the empirical correlation matrix next to
    the limiting one.  Arcs whose exact count variance vanishes (e.g. the
    full circle) are rejected up front: there is nothing to standardise.
    """
    if config.n is None or not config.arcs:
        raise ValueError("run_clt_fixed needs n and at least one arc")
    n, theta, model = config.n, config.theta, config.model
    if model == "mod":
        moments = [exact_moments_mod(n, theta, a) for a in config.arcs]
    else:
        moments = [exact_moments_perm(n, theta, a) for a in config.arcs]
    for arc, m in zip(config.arcs, moments):
        if m.variance < 1e-12:
            raise ValueError(
                f"degenerate arc {arc}: exact count variance {m.variance} is zero; "
                "standardisation is impossible"
            )

    counts = _arc_counts(model, config.arcs, config.master_seed, n, theta, config.trials, jobs)

    means = np.array([m.mean for m in moments])
    sds = np.sqrt([m.variance for m in moments])
    standardized = (counts - means) / sds
    reports = [
        _normality_report(counts[:, k], moments[k].mean, moments[k].variance)
        for k in range(len(config.arcs))
    ]
    if len(config.arcs) > 1:
        empirical = np.corrcoef(standardized, rowvar=False)
    else:
        empirical = np.ones((1, 1))
    reference = (
        covariance_Dtilde(config.arcs, n_numeric)
        if model == "mod"
        else covariance_D(config.arcs, n_numeric)
    ).entries
    return CltFixedResult(
        counts=counts,
        standardized=standardized,
        reports=reports,
        empirical_correlation=empirical,
        reference_correlation=reference,
        moments=[(m.mean, m.variance) for m in moments],
    )


# ---------------------------------------------------------------------------
# mesoscopic experiment
# ---------------------------------------------------------------------------


def _meso_arc(alpha_endpoint, delta: float) -> Arc:
    return Arc(alpha=alpha_endpoint, beta=float(alpha_endpoint) + delta)


@dataclass
class MesoscopicRow:
    n: int
    delta: float
    log_n_delta: float
    variance: float  # exact formula (mod) or MC estimate (perm)
    variance_is_exact: bool
    target: float  # first-order asymptotic constant * theta * log(n delta)
    ratio: float


@dataclass
class MesoscopicResult:
    rows: list[MesoscopicRow]
    report: Optional[NormalityReport]
    constant: float  # the theory constant multiplying theta log(n delta)


def run_mesoscopic(config: ExperimentConfig, jobs: int = 1) -> MesoscopicResult:
    """Variance growth and normality on arcs shrinking like n**(-gamma).

    For the modified model the variance is evaluated by the exact formula at
    every n in the schedule.  For the plain model it is the Monte Carlo
    estimate, although the exact one is an O(n log n) FFT
    (``exact_moments_perm``): criterion 7c asserts on the estimate, and the
    rows' printed keys are pinned.  Each variance is set against the
    first-order asymptote constant * theta * log(n * delta_n); the KS report
    is computed at the largest n from ``trials`` standardised counts.
    """
    if not config.n_schedule or config.gamma is None:
        raise ValueError("run_mesoscopic needs n_schedule and gamma")
    theta, model = config.theta, config.model
    alpha_endpoint = Fraction(0) if config.meso_alpha is None else config.meso_alpha
    for n in config.n_schedule:  # before any sampling
        if n < 1 or n * float(n) ** (-config.gamma) <= 1:
            raise ValueError(f"n * delta must exceed 1 for a mesoscopic window, got n={n}")
        check_table_size(n)  # every row computes an exact mean or variance
    constant = c2_meso(alpha_endpoint) if model == "perm" else 1.0 / 6.0

    rows: list[MesoscopicRow] = []
    report: Optional[NormalityReport] = None
    largest = max(config.n_schedule)
    for n in config.n_schedule:
        delta = float(n) ** (-config.gamma)
        arc = _meso_arc(alpha_endpoint, delta)
        log_nd = math.log(n * delta)
        target = constant * theta * log_nd

        need_counts = model == "perm" or n == largest
        counts = None
        if need_counts:
            counts = _arc_counts(
                model, (arc,), config.master_seed, n, theta, config.trials, jobs
            )[:, 0]

        if model == "mod":
            variance = exact_moments_mod(n, theta, arc).variance
            exact = True
        else:
            variance = float(np.var(counts, ddof=1))
            exact = False
        rows.append(
            MesoscopicRow(
                n=n,
                delta=delta,
                log_n_delta=log_nd,
                variance=variance,
                variance_is_exact=exact,
                target=target,
                ratio=variance / target,
            )
        )
        if n == largest:
            mean = n * delta if model == "mod" else _perm_mean(n, theta, arc)
            report = _normality_report(counts, mean, variance)
    return MesoscopicResult(rows=rows, report=report, constant=constant)


# ---------------------------------------------------------------------------
# Feller-coupling distance experiment
# ---------------------------------------------------------------------------


@dataclass
class CouplingReport:
    n: int
    theta: float
    trials: int
    empirical_mean: float  # mean of sum_j |a_{n,j} - W_j| over trials
    std_error: float
    tail_bound: float  # certified expected loss from horizon truncation
    bound: float  # 2 + theta (gamma + psi(theta))
    horizon: int


def run_coupling_check(
    n: int,
    theta: float,
    trials: int,
    master_seed: int,
    epsilon_tail: float = 1e-3,
    jobs: int = 1,
) -> CouplingReport:
    """Empirical coupling distance against the closed-form bound."""
    check_theta(theta)
    if n < 1 or trials < 2:
        raise ValueError(f"need n >= 1 and trials >= 2, got {n}, {trials}")
    horizon, tail_bound = coupling_horizon(n, theta, epsilon_tail)
    distances = _run_trials(
        coupling_distances, (), master_seed, n, theta, trials, jobs, horizon=horizon
    )
    return CouplingReport(
        n=n,
        theta=theta,
        trials=trials,
        empirical_mean=float(np.mean(distances)),
        std_error=float(np.std(distances, ddof=1) / math.sqrt(trials)),
        tail_bound=tail_bound,
        bound=coupling_bound(theta),
        horizon=horizon,
    )


# ---------------------------------------------------------------------------
# spacing tightness experiment
# ---------------------------------------------------------------------------

_QUANTILE_LEVELS = (0.05, 0.25, 0.50, 0.75, 0.95)


def _spacings_statistic(batch: TrialBatch) -> np.ndarray:
    """Per trial: nD, n2d, nD~, n2d~, viol_nD, viol_n2d, viol_dtilde (as floats).

    The plain spacings are the closed forms 1/longest and 1/lcm, the max
    lcm taken in the same pairwise sweep as the modified smallest spacing;
    the bound checks n*D >= 1 and n^2*d >= 1 run on those exact integers.  Both
    smallest spacings are exact values rounded once, so d~ <= d compares
    without slack.
    """
    n = batch.n
    longest = batch.lengths[batch.starts[1:] - 1]  # lengths ascend
    largest_mod, smallest_mod, lcm = mod_gap_extremes(batch)
    smallest = 1.0 / lcm
    return np.column_stack([
        n * (1.0 / longest),
        n**2 * smallest,
        n * largest_mod,
        n**2 * smallest_mod,
        n < longest,
        n * n < lcm,
        smallest_mod > smallest,
    ])


@dataclass
class SpacingsRow:
    n: int
    quantile_levels: tuple[float, ...]
    nD: list[float]
    n2d: list[float]
    nD_mod: list[float]
    n2d_mod: list[float]
    violations_nD: int
    violations_n2d: int
    violations_dtilde: int


@dataclass
class SpacingsResult:
    rows: list[SpacingsRow]


def run_spacings(
    n_schedule: Sequence[int],
    theta: float,
    trials: int,
    master_seed: int,
    jobs: int = 1,
) -> SpacingsResult:
    """Quantile tables of normalised extremal spacings across a size schedule.

    Per size: quantiles of n*D, n^2*d for the plain ensemble and of the
    modified counterparts on the same cycle structures, plus counters for
    the samplewise bounds (n*D >= 1, n^2*d >= 1, modified d <= plain d),
    which are theorems and must come out zero.
    """
    check_theta(theta)
    if not n_schedule or trials < 1:
        raise ValueError(f"need a size and trials >= 1, got {n_schedule}, {trials}")
    for n in n_schedule:  # before any sampling: a trial with no empty J-cell sorts all n angles
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        check_table_size(n, "the sorted angles of a trial (32-48 bytes per element)")
    rows = []
    for idx, n in enumerate(n_schedule):
        data = _run_trials(
            _spacings_statistic, (), master_seed + idx, n, theta, trials, jobs, phases=True
        )
        qs = [np.quantile(data[:, c], _QUANTILE_LEVELS).tolist() for c in range(4)]
        rows.append(
            SpacingsRow(
                n=n,
                quantile_levels=_QUANTILE_LEVELS,
                nD=qs[0],
                n2d=qs[1],
                nD_mod=qs[2],
                n2d_mod=qs[3],
                violations_nD=int(data[:, 4].sum()),
                violations_n2d=int(data[:, 5].sum()),
                violations_dtilde=int(data[:, 6].sum()),
            )
        )
    return SpacingsResult(rows=rows)
