"""Sampling Ewens-distributed cycle structures.

The Ewens measure of parameter ``theta`` weights an n-permutation ``sigma``
by ``theta**K(sigma)`` where K is its number of cycles.  Everything this
package measures is a function of the cycle type, so permutations are never
materialised as arrays; we sample cycle counts directly through the word
construction:

    draw independent bits xi_1, xi_2, ..., with P(xi_k = 1) = theta/(theta+k-1)
    (so xi_1 = 1 surely), and read the cycle counts of sigma_n off the word
    (1, xi_2, ..., xi_n, 1): a_{n,j} is the number of j-spacings between
    consecutive ones.

The same word, continued past position n, yields the coupled variables

    W_j = number of j-spacings between consecutive ones in the infinite word,

which are independent Poisson(theta/j).  ``sample_coupled`` materialises the
word far enough that the expected number of uncounted tail spacings is below
a requested bound, computed in closed form from the psi weights.

Two equivalent samplers are provided for the word itself: a dense one that
draws every bit, and a sparse one that jumps straight from one 1 to the next
by inverting the exact survival function of the gap (the expected number of
ones up to n is only ~theta log n, so large n costs almost nothing).

A cycle type is held as its sorted cycle lengths (``CycleCounts``).
``draw_batch`` draws many trials in order and returns their lengths
concatenated (``TrialBatch``), the form the Monte Carlo drivers compute on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Optional

import numpy as np

__all__ = [
    "EwensParams",
    "CycleCounts",
    "CoupledSample",
    "AgeOrderedCycles",
    "sample_cycle_counts",
    "sample_coupled",
    "sample_age_ordered",
    "cycle_type_probability",
    "sample_gem",
    "expected_total_cycles",
    "coupling_tail_expectation",
    "coupling_horizon",
    "coupling_distance",
    "iter_cycle_types",
]

#: hard cap on the materialised word horizon in sample_coupled
HORIZON_HARD_CAP = 2**40

#: dense bit sampling is faster below this size, gap skipping above
_SPARSE_THRESHOLD = 65536


@dataclass(frozen=True)
class EwensParams:
    """Parameter of the Ewens measure; theta = 1 is the uniform measure."""

    theta: float

    def __post_init__(self):
        if not self.theta > 0:
            raise ValueError(f"theta must be positive, got {self.theta}")


class CycleCounts:
    """Cycle type of an n-permutation, held as its sorted cycle lengths.

    ``lengths`` (int64, ascending, one entry per cycle) is the one source of
    truth; ``counts[j]`` = number of j-cycles is a view derived from it.
    Build it as ``CycleCounts(n, {j: a_j})`` or ``CycleCounts(n, lengths=...)``.
    """

    def __init__(self, n: int, counts: Optional[dict[int, int]] = None, *, lengths=None):
        if (counts is None) == (lengths is None):
            raise ValueError("give exactly one of counts and lengths")
        if counts is not None:
            if any(a < 0 for a in counts.values()):
                raise ValueError("multiplicities must be non-negative")
            lengths = [j for j in sorted(counts) for _ in range(counts[j])]
        self.n = n
        self.lengths = np.sort(np.asarray(lengths, dtype=np.int64))
        if len(lengths) and self.lengths[0] < 1 or int(self.lengths.sum()) != n:
            raise ValueError("cycle lengths must be positive and sum to n")

    def __repr__(self) -> str:
        return f"CycleCounts(n={self.n}, counts={self.counts})"

    @property
    def counts(self) -> dict[int, int]:
        values, mult = np.unique(self.lengths, return_counts=True)
        return dict(zip(values.tolist(), mult.tolist()))

    def total_cycles(self) -> int:
        return len(self.lengths)

    def as_array(self) -> np.ndarray:
        """Dense vector [a_1, ..., a_n]."""
        return np.bincount(self.lengths, minlength=self.n + 1)[1:]


@dataclass
class TrialBatch:
    """Cycle structures of consecutive trials at one size n, as flat arrays.

    Trial t owns ``lengths[starts[t]:starts[t+1]]`` (ascending when drawn,
    never empty) and the aligned ``phases``, if drawn; ``starts`` defaults
    to one trial.  A coupled draw also keeps the word's spacings of length
    <= n inside the horizon, with the trial each belongs to.
    """

    n: int
    lengths: np.ndarray
    phases: Optional[np.ndarray] = None
    starts: Optional[np.ndarray] = None
    spacings: Optional[np.ndarray] = None
    spacing_trial: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.starts is None:
            self.starts = np.array([0, len(self.lengths)])

    @property
    def trials(self) -> int:
        return len(self.starts) - 1

    def trial_of_cycle(self) -> np.ndarray:
        return np.repeat(np.arange(self.trials), np.diff(self.starts))

    def cycle_counts(self, t: int) -> CycleCounts:
        return CycleCounts(self.n, lengths=self.lengths[self.starts[t] : self.starts[t + 1]])


@dataclass
class CoupledSample:
    """One Feller-coupled draw: cycle counts plus truncated Poisson counts.

    ``poisson_counts[j-1]`` counts the j-spacings of the word whose both
    endpoints lie within the materialised horizon; ``tail_bound`` is the
    closed-form upper bound on the expected number of spacings (summed over
    j <= n) lost to the truncation.
    """

    cycle_counts: CycleCounts
    poisson_counts: np.ndarray
    horizon: int
    tail_bound: float


@dataclass
class AgeOrderedCycles:
    """Cycle lengths in order of appearance (lowest element of each cycle)."""

    n: int
    lengths: list[int] = field(default_factory=list)

    def __post_init__(self):
        if sum(self.lengths) != self.n or any(l < 1 for l in self.lengths):
            raise ValueError("lengths must be positive and sum to n")


# ---------------------------------------------------------------------------
# word sampling
# ---------------------------------------------------------------------------


def _log_gap_survival(k: int, t: int, theta: float) -> float:
    """log P(no 1 at positions k+1 .. k+t) = log prod_{i=1..t} (k+i-1)/(theta+k+i-1).

    Exact for every integer t >= 0 via log-gamma; decreasing in t.
    """
    return (
        math.lgamma(k + t)
        - math.lgamma(k)
        + math.lgamma(theta + k)
        - math.lgamma(theta + k + t)
    )


def _next_one_position(k: int, limit: int, theta: float, rng: np.random.Generator):
    """Position of the first 1 after position k, or None if it lies beyond limit.

    Inverts the gap survival function by bisection: the gap T satisfies
    P(T > t) = prod_{i=1..t} (k+i-1)/(theta+k+i-1), so T = min{t : S(t) < U}
    for a uniform U in (0, 1].
    """
    hi = limit - k
    if hi <= 0:
        return None
    log_u = math.log(1.0 - rng.random())  # uniform in (0, 1]
    if _log_gap_survival(k, hi, theta) >= log_u:
        return None  # gap exceeds the remaining horizon
    lo = 0  # invariant: S(lo) >= U > S(hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _log_gap_survival(k, mid, theta) < log_u:
            hi = mid
        else:
            lo = mid
    return k + hi


def _ones_after(pos: int, limit: int, theta: float, rng: np.random.Generator) -> list[int]:
    """Positions of the ones in (pos, limit], jumping from one to the next."""
    ones = []
    while (pos := _next_one_position(pos, limit, theta, rng)) is not None:
        ones.append(pos)
    return ones


def _ones_positions_sparse(n: int, theta: float, rng: np.random.Generator) -> np.ndarray:
    """Positions of ones in (xi_1, ..., xi_n) sampled by gap skipping."""
    return np.asarray([1, *_ones_after(1, n, theta, rng)], dtype=np.int64)


def _dense_thresholds(n: int, theta: float) -> np.ndarray:
    """P(xi_k = 1) = theta/(theta+k-1) for k = 1..n."""
    k = np.arange(1, n + 1, dtype=np.float64)
    return theta / (theta + k - 1.0)


def _ones_positions(
    n: int, theta: float, rng: np.random.Generator, thresholds: Optional[np.ndarray] = None
) -> np.ndarray:
    """Positions of ones among the first n bits.

    Dense and sparse routes realise the same law; which one runs is a pure
    function of n, so reproducibility with a fixed generator is preserved.
    Callers drawing many words of one size pass the dense ``thresholds``.
    """
    if n > _SPARSE_THRESHOLD:
        return _ones_positions_sparse(n, theta, rng)
    hits = rng.random(n) < (_dense_thresholds(n, theta) if thresholds is None else thresholds)
    hits[0] = True
    return hits.nonzero()[0] + 1


def _starts(sizes) -> np.ndarray:
    return np.cumsum([0, *sizes])


def _trial_order(trial: np.ndarray, values: np.ndarray, bound: int) -> np.ndarray:
    """Indices sorting the pairs (trial, value), 0 <= value < bound, by trial
    and then value: one int64 key trial * bound + value unless it could
    overflow (a two-key sort is several times slower)."""
    if (int(trial.max(initial=0)) + 1) * bound < 2**63:
        return np.argsort(trial * bound + values)
    return np.lexsort((values, trial))


def _sorted_lengths(n: int, ones: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Cycle lengths of concatenated words, ascending within each word: the
    spacings of a word's ones closed by the sentinel n + 1 (so they sum to n)."""
    closing = np.append(ones[1:], n + 1)
    closing[starts[1:] - 1] = n + 1
    lengths = closing - ones
    trial = np.repeat(np.arange(len(starts) - 1), np.diff(starts))
    return lengths[_trial_order(trial, lengths, n + 1)]


def draw_batch(
    n: int, theta: float, rngs: Iterable[np.random.Generator], phases: bool = False,
    horizon: Optional[int] = None,
) -> TrialBatch:
    """One trial per generator: draw the word, then, if ``phases``, one
    uniform phase per cycle, or, given a ``horizon``, the coupled word's ones
    in (n, horizon].  Only these draws run per trial; lengths, their sort
    and the coupled spacings are computed for the whole batch at once.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    thresholds = _dense_thresholds(n, theta) if n <= _SPARSE_THRESHOLD else None
    words, phase_draws, tails = [], [], []
    for rng in rngs:
        words.append(_ones_positions(n, theta, rng, thresholds))
        if phases:
            phase_draws.append(rng.random(len(words[-1])))
        if horizon is not None:
            tails.append(np.asarray(_ones_after(n, horizon, theta, rng), dtype=np.int64))
    starts = _starts([len(w) for w in words])
    lengths = _sorted_lengths(n, np.concatenate(words), starts)
    batch = TrialBatch(n, lengths, np.concatenate(phase_draws) if phases else None, starts)
    bad_phase = phases and ((batch.phases < 0) | (batch.phases >= 1)).any()
    if bad_phase or (np.add.reduceat(lengths, starts[:-1]) != n).any():
        raise ValueError("cycle lengths must sum to n and phases lie in [0, 1)")
    if horizon is not None:
        # spacings of each whole word (prefix ones, then tail ones) up to n
        word = np.concatenate([part for pair in zip(words, tails) for part in pair])
        word_starts = _starts([len(w) + len(t) for w, t in zip(words, tails)])
        keep = np.diff(word) <= n
        keep[word_starts[1:-1] - 1] = False  # no spacing across two trials
        batch.spacings = np.diff(word)[keep]
        batch.spacing_trial = np.repeat(np.arange(batch.trials), np.diff(word_starts))[:-1][keep]
    return batch


def sample_cycle_counts(
    n: int, params: EwensParams, rng: np.random.Generator
) -> CycleCounts:
    """Draw the cycle type of an Ewens(theta) n-permutation."""
    return draw_batch(n, params.theta, [rng]).cycle_counts(0)


# ---------------------------------------------------------------------------
# Feller coupling with certified truncation
# ---------------------------------------------------------------------------


def coupling_tail_expectation(n: int, theta: float, horizon: int) -> float:
    """sum_{j<=n} E(number of j-spacings with an endpoint beyond the horizon).

    For a single j the tail expectation is
    theta * (1/j - psi(H, j) (1/j - 1/H)) with H the horizon; summing over
    j <= n gives the certified loss bound used by :func:`sample_coupled`.
    """
    if horizon < n:
        raise ValueError("horizon must be at least n")
    i = np.arange(n, dtype=np.float64)
    psi_h = np.cumprod((horizon - i) / (theta + horizon - 1.0 - i))  # psi(H, j), j<=n
    j = np.arange(1, n + 1, dtype=np.float64)
    return float(theta * np.sum(1.0 / j - psi_h * (1.0 / j - 1.0 / horizon)))


@lru_cache(maxsize=128)
def coupling_horizon(n: int, theta: float, epsilon_tail: float) -> tuple[int, float]:
    """Smallest doubling horizon whose tail bound is <= epsilon_tail.

    Returns (horizon, achieved_tail_bound); raises if the cap would be hit.
    """
    horizon = 2 * n
    while True:
        tail = coupling_tail_expectation(n, theta, horizon)
        if tail <= epsilon_tail:
            return horizon, tail
        horizon *= 2
        if horizon > HORIZON_HARD_CAP:
            raise ValueError(
                f"epsilon_tail={epsilon_tail} unreachable below the horizon cap "
                f"{HORIZON_HARD_CAP} for n={n}, theta={theta}"
            )


def sample_coupled(
    n: int,
    params: EwensParams,
    rng: np.random.Generator,
    epsilon_tail: float = 1e-3,
) -> CoupledSample:
    """Cycle counts and coupled (truncated) Poisson spacing counts.

    Both families are read from one realisation of the word: a_{n,j} from
    the first n bits closed by the sentinel, W_j from all spacings whose two
    endpoints fall inside an adaptively chosen horizon.  The horizon is the
    smallest one whose closed-form tail expectation is below epsilon_tail.
    Ones in (n, horizon] depend only on the current position, so the chain
    continues from position n regardless of xi_n itself.
    """
    if epsilon_tail <= 0:
        raise ValueError("epsilon_tail must be positive")
    horizon, tail_bound = coupling_horizon(n, params.theta, epsilon_tail)
    batch = draw_batch(n, params.theta, [rng], horizon=horizon)
    return CoupledSample(
        cycle_counts=batch.cycle_counts(0),
        poisson_counts=np.bincount(batch.spacings, minlength=n + 1)[1:],
        horizon=horizon,
        tail_bound=tail_bound,
    )


def coupling_distances(batch: TrialBatch) -> np.ndarray:
    """sum_j |a_{n,j} - W_j| for every trial of a coupled batch.

    Cycle lengths (+1 each) and coupled spacings (-1 each) are sorted
    together by (trial, length); each run of equal keys nets a_j - W_j.
    """
    trial = np.concatenate([batch.trial_of_cycle(), batch.spacing_trial])
    value = np.concatenate([batch.lengths, batch.spacings])
    sign = np.repeat([1, -1], [len(batch.lengths), len(batch.spacings)])
    order = _trial_order(trial, value, batch.n + 1)
    trial, value = trial[order], value[order]
    first = np.ones(len(value), dtype=bool)
    first[1:] = (value[1:] != value[:-1]) | (trial[1:] != trial[:-1])
    net = np.abs(np.add.reduceat(sign[order], np.flatnonzero(first)))
    return np.bincount(trial[first], weights=net, minlength=batch.trials).astype(np.int64)


def coupling_distance(sample: CoupledSample) -> int:
    """sum_j |a_{n,j} - W_j| for one coupled draw."""
    counts = sample.cycle_counts
    spacings = np.repeat(np.arange(1, counts.n + 1), sample.poisson_counts)
    batch = TrialBatch(counts.n, counts.lengths, spacings=spacings,
                       spacing_trial=np.zeros(len(spacings), dtype=np.int64))
    return int(coupling_distances(batch)[0])


# ---------------------------------------------------------------------------
# age order, exact probabilities, GEM
# ---------------------------------------------------------------------------


def sample_age_ordered(
    n: int, params: EwensParams, rng: np.random.Generator
) -> AgeOrderedCycles:
    """Cycle lengths in order of appearance via the Chinese-restaurant scheme.

    Element i starts a new cycle with probability theta/(theta+i-1) and
    otherwise joins the cycle of a uniformly chosen earlier element (which is
    the same as joining an existing cycle with probability proportional to
    its size).  Creation order of cycles is the order of their lowest
    elements, so the lengths come out age-ordered.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    theta = params.theta
    cycle_of = np.empty(n, dtype=np.int64)
    lengths: list[int] = []
    new_thresholds = theta / (theta + np.arange(n, dtype=np.float64))
    uniforms = rng.random(n)
    for i in range(n):
        if uniforms[i] < new_thresholds[i]:
            cycle_of[i] = len(lengths)
            lengths.append(1)
        else:
            c = cycle_of[rng.integers(0, i)]
            cycle_of[i] = c
            lengths[c] += 1
    return AgeOrderedCycles(n=n, lengths=lengths)


def _sample_age_ordered_batch(
    n: int, theta: float, trials: int, rng: np.random.Generator
) -> np.ndarray:
    """Cycle labels for many restaurant runs at once; rows are trials.

    Returns an array of shape (trials, n) whose entry [t, i] is the index of
    the cycle element i joined in trial t.  Used by statistical tests that
    need large batches quickly; the law per row matches sample_age_ordered.
    """
    labels = np.zeros((trials, n), dtype=np.int64)
    n_cycles = np.ones(trials, dtype=np.int64)
    for i in range(1, n):
        new = rng.random(trials) < theta / (theta + i)
        join_src = rng.integers(0, i, size=trials)
        joined = labels[np.arange(trials), join_src]
        labels[:, i] = np.where(new, n_cycles, joined)
        n_cycles += new
    return labels


def cycle_type_probability(counts: CycleCounts, params: EwensParams) -> float:
    """Exact Ewens probability of a cycle type.

    P(type) = [n! / prod_j j^{a_j} a_j!] * theta^K / (theta (theta+1) ... (theta+n-1)),
    evaluated in log space to survive n well beyond factorial overflow.
    """
    n = counts.n
    theta = params.theta
    k_total = counts.total_cycles()
    log_p = math.lgamma(n + 1) + k_total * math.log(theta)
    for j, a in counts.counts.items():
        if a == 0:
            continue
        log_p -= a * math.log(j) + math.lgamma(a + 1)
    log_p -= math.lgamma(theta + n) - math.lgamma(theta)
    return math.exp(log_p)


def sample_gem(params: EwensParams, m: int, rng: np.random.Generator) -> np.ndarray:
    """First m coordinates of a GEM(theta) vector by stick breaking.

    G_1 = B_1 and G_k = B_k prod_{i<k} (1 - B_i) with B_i iid Beta(1, theta);
    this is the limit law of age-ordered cycle lengths divided by n.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    betas = rng.beta(1.0, params.theta, size=m)
    remaining = np.concatenate([[1.0], np.cumprod(1.0 - betas[:-1])])
    return betas * remaining


def expected_total_cycles(n: int, theta: float) -> float:
    """E K_n = sum_{k=0}^{n-1} theta/(theta+k)."""
    k = np.arange(n, dtype=np.float64)
    return float(np.sum(theta / (theta + k)))


def iter_cycle_types(n: int):
    """All cycle types of n-permutations (integer partitions as count dicts).

    Yields CycleCounts in a deterministic order; intended for exhaustive
    small-n oracles, so no attempt is made to be clever.
    """

    def partitions(remaining: int, max_part: int, acc: dict[int, int]):
        if remaining == 0:
            yield CycleCounts(n=n, counts=dict(acc))
            return
        for part in range(min(remaining, max_part), 0, -1):
            acc[part] = acc.get(part, 0) + 1
            yield from partitions(remaining - part, part, acc)
            acc[part] -= 1
            if acc[part] == 0:
                del acc[part]

    yield from partitions(n, n, {})
