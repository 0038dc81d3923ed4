"""Monte Carlo harness: Gaussian-limit checks, coupling bound, spacings.

Every experiment is driven by a master seed; trial ``i`` draws from the
generator ``trial_rng(master_seed, i)``, i.e. ``SeedSequence((master_seed,
i))``, so results are bit-identical for any worker count.  That derivation is
unchanged, but each chunk computes its generators at once with
``rng.trial_rngs`` (one vectorised SeedSequence hash per chunk), which a test
pins against the installed numpy's ``SeedSequence``.  Aggregations run over
the trial-ordered arrays, never over per-worker partial sums.

All four drivers, and the CLI's ``sample``, run their trials through one
engine, ``_run_trials(draw, statistic, seed, trials, jobs)``: a chunk of
trials computes ``statistic(draw(its generators))``, a row per trial.  The
draw is ``ewens.draw_batch`` with the driver's phases or coupling horizon
bound, or ``ewens._nested_batches``, which cuts one walk per trial at every
size for the plain mesoscopic rows; either walks the words of a chunk's
trials at once (``ewens._thinned_walks``), and the statistic (arc counts,
extremal spacings, coupling distances) runs on their concatenated cycle
lengths.  Each job takes one chunk of its share of a call's trials, up to
``_CHUNK_TRIALS``, so the elementwise walks step the most trials per call.

The normality checks standardise integer counts with their *exact* finite-n
moments (the asymptotic ones converge like 1/log n, far too slowly to be
usable at desk scale) and compare them with the normal law by a lattice
Kolmogorov-Smirnov test: the reference cdf is the continuity-corrected
Phi((k + 1/2 - mean) / sd), compared with the empirical cdf at every integer
k, and the p-value is the asymptotic Kolmogorov one, conservative for a
discrete null.  Phi, the Kolmogorov tail and the digamma of the coupling
bound are evaluated with the standard library's ``math`` alone.  The
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
from functools import partial
from typing import Optional, Sequence, Union

import numpy as np

from .cesaro import check_table_size, check_theta
from .ewens import TrialBatch, _nested_batches, coupling_distances, coupling_horizon, draw_batch
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
    return float(2.0 + theta * (np.euler_gamma + _digamma(theta)))


#: B_2k / 2k for k = 1..7, the coefficients of the asymptotic series of psi in 1/x^2
_DIGAMMA_SERIES = (1 / 12, -1 / 120, 1 / 252, -1 / 240, 1 / 132, -691 / 32760, 1 / 12)


def _digamma(x: float) -> float:
    """psi(x) for x > 0: the recurrence psi(x) = psi(x + 1) - 1/x up to
    x >= 10, then ln x - 1/(2x) - sum_k B_2k / (2k x^2k), whose first omitted
    term is below 5e-17 there; the terms are summed exactly, rounded once."""
    terms = []
    while x < 10.0:
        terms.append(-1.0 / x)
        x += 1.0
    z = 1.0 / (x * x)
    series = 0.0
    for c in reversed(_DIGAMMA_SERIES):
        series = series * z + c
    return math.fsum([*terms, math.log(x), -0.5 / x, -series * z])


_SQRT_HALF = math.sqrt(0.5)


def _ndtr(x: float) -> float:
    """Phi(x), split as cephes' ndtr: 1/2 + erf(x/sqrt 2)/2 near 0, erfc of
    |x|/sqrt 2 in the tails, so the lower tail keeps its relative precision."""
    z = x * _SQRT_HALF
    if abs(z) < _SQRT_HALF:
        return 0.5 + 0.5 * math.erf(z)
    tail = 0.5 * math.erfc(abs(z))
    return 1.0 - tail if z > 0 else tail


def _kolmogorov(x: float) -> float:
    """P(K > x) for Kolmogorov's limit law, by its two classical series: below
    x = 0.82, 1 - (sqrt(2 pi)/x) sum_k exp(-(2k-1)^2 pi^2 / (8x^2)), and above
    it 2 sum_k (-1)^(k-1) exp(-2k^2 x^2); seven terms of either reach double
    precision on its side of the cut."""
    if x <= 0:
        return 1.0
    if x < 0.82:
        w = math.pi / x  # inf for tiny x, where every term is 0
        log_scale = 0.5 * math.log(2 * math.pi) - math.log(x)
        return 1.0 - math.fsum(
            math.exp(log_scale - (2 * k - 1) ** 2 * w * w / 8) for k in range(1, 8)
        )
    return 2.0 * math.fsum((-1) ** (k - 1) * math.exp(-2 * k * k * x * x) for k in range(1, 8))


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
    z = (grid + 0.5 - reference_mean) / math.sqrt(reference_variance)
    reference = np.array([_ndtr(x) for x in z.tolist()])
    stat = float(np.max(np.abs(empirical - reference)))
    return stat, _kolmogorov(math.sqrt(m) * stat)


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
#: call's trials up to this, which gives the thinning walk
#: (``ewens._thinned_walks``) the most walks per step
_CHUNK_TRIALS = 4096


def _chunk_ranges(trials: int, jobs: int) -> list[tuple[int, int]]:
    per = min(_CHUNK_TRIALS, math.ceil(trials / jobs))
    return [(lo, min(lo + per, trials)) for lo in range(0, trials, per)]


def _trial_chunk(args) -> np.ndarray:
    """Trials lo..hi-1, each from its own generator: the statistic of their draw."""
    draw, statistic, seed, lo, hi = args
    return statistic(draw(trial_rngs(seed, lo, hi)))


def _run_trials(draw, statistic, seed, trials, jobs):
    """``statistic(draw(generators))`` over every trial, rows in trial order.

    ``draw`` (``ewens.draw_batch`` or ``ewens._nested_batches``, options
    bound) and ``statistic`` must pickle when ``jobs`` > 1, as the chunks
    then run in worker processes.  A chunk holds ceil(trials / jobs)
    trials, up to ``_CHUNK_TRIALS``; trial i always draws from
    ``trial_rng(seed, i)``, whatever the chunking.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    payloads = [(draw, statistic, seed, lo, hi) for lo, hi in _chunk_ranges(trials, jobs)]
    if jobs == 1:
        parts = [_trial_chunk(p) for p in payloads]
    else:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            parts = list(pool.map(_trial_chunk, payloads))
    return np.concatenate(parts, axis=0)


def _nested_arc_counts(batches: list[TrialBatch], arcs: Sequence[Arc]) -> np.ndarray:
    """Plain counts of every trial (rows), batch k in arc k (columns)."""
    return np.column_stack([count_arcs_perm(b, (a,))[:, 0] for b, a in zip(batches, arcs)])


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
    n, theta, mod = config.n, config.theta, config.model == "mod"
    exact_moments, count_arcs, covariance = (
        (exact_moments_mod, count_arcs_mod, covariance_Dtilde) if mod
        else (exact_moments_perm, count_arcs_perm, covariance_D)
    )
    moments = [exact_moments(n, theta, a) for a in config.arcs]
    for arc, m in zip(config.arcs, moments):
        if m.variance < 1e-12:
            raise ValueError(
                f"degenerate arc {arc}: exact count variance {m.variance} is zero; "
                "standardisation is impossible"
            )

    counts = _run_trials(partial(draw_batch, n, theta, phases=mod),
                         partial(count_arcs, arcs=config.arcs), config.master_seed,
                         config.trials, jobs)

    means = np.array([m.mean for m in moments])
    sds = np.sqrt([m.variance for m in moments])
    standardized = (counts - means) / sds
    reports = [
        _normality_report(counts[:, k], moments[k].mean, moments[k].variance)
        for k in range(len(config.arcs))
    ]
    if len(config.arcs) > 1:
        # of the integer counts, so a constant column is exactly 0/0 (NaN,
        # printed as null); standardising does not change a correlation
        with np.errstate(invalid="ignore"):
            empirical = np.corrcoef(counts, rowvar=False)
    else:
        empirical = np.ones((1, 1))
    reference = covariance(config.arcs, n_numeric).entries
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
    every n in the schedule, and trials are drawn at the largest n only.
    For the plain model it is the Monte Carlo estimate, although the exact
    one is an O(n log n) FFT (``exact_moments_perm``): criterion 7c asserts
    on the estimate, and the rows' printed keys are pinned.  The plain rows
    share one word per trial, walked to the largest n and cut at each size
    (the Feller coupling), so trial i's rows are the counts of one sigma_n
    per n, each what a draw at that n alone would give.  Each variance is
    set against the first-order asymptote constant * theta * log(n *
    delta_n); the KS report is computed at the largest n from ``trials``
    standardised counts.  A size repeated in the schedule repeats its row.
    """
    if not config.n_schedule or config.gamma is None:
        raise ValueError("run_mesoscopic needs n_schedule and gamma")
    theta, model = config.theta, config.model
    alpha_endpoint = Fraction(0) if config.meso_alpha is None else config.meso_alpha
    for n in config.n_schedule:  # before any sampling
        if n < 1 or n * float(n) ** (-config.gamma) <= 1:
            raise ValueError(f"n * delta must exceed 1 for a mesoscopic window, got n={n}")
        # the exact variances (mod) and the report's exact mean at the largest n
        check_table_size(n)
    constant = c2_meso(alpha_endpoint) if model == "perm" else 1.0 / 6.0

    sizes = tuple(dict.fromkeys(config.n_schedule))  # each size once, in schedule order
    largest = max(sizes)
    deltas = {n: float(n) ** (-config.gamma) for n in sizes}
    arcs = {n: _meso_arc(alpha_endpoint, deltas[n]) for n in sizes}
    seed, trials = config.master_seed, config.trials
    if model == "perm":
        counts = _run_trials(partial(_nested_batches, sizes, theta),
                             partial(_nested_arc_counts, arcs=tuple(arcs.values())),
                             seed, trials, jobs)
        variances = {n: float(np.var(counts[:, k], ddof=1)) for k, n in enumerate(sizes)}
        top = counts[:, sizes.index(largest)]
    else:
        variances = {n: exact_moments_mod(n, theta, arcs[n]).variance for n in sizes}
        top = _run_trials(partial(draw_batch, largest, theta, phases=True),
                          partial(count_arcs_mod, arcs=(arcs[largest],)), seed, trials, jobs)[:, 0]

    rows: list[MesoscopicRow] = []
    for n in config.n_schedule:
        log_nd = math.log(n * deltas[n])
        target = constant * theta * log_nd
        rows.append(
            MesoscopicRow(
                n=n,
                delta=deltas[n],
                log_n_delta=log_nd,
                variance=variances[n],
                variance_is_exact=model == "mod",
                target=target,
                ratio=variances[n] / target,
            )
        )
    if model == "mod":
        mean = largest * deltas[largest]
    else:
        mean = _perm_mean(largest, theta, arcs[largest])
    report = _normality_report(top, mean, variances[largest])
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
    distances = _run_trials(partial(draw_batch, n, theta, horizon=horizon), coupling_distances,
                            master_seed, trials, jobs)
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
        data = _run_trials(partial(draw_batch, n, theta, phases=True), _spacings_statistic,
                           master_seed + idx, trials, jobs)
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
