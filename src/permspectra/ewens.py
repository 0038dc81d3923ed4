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
by inverting the exact survival function of the gap, evaluated without
cancellation (the expected number of ones up to n is only ~theta log n, so
large n costs almost nothing).  Each jump evaluates the survival function
once, at a closed-form guess, and certifies the guess's lower neighbour from
the exact step identity log S(t-1) = log S(t) + log1p(theta/(k+t-1)), with a
slack of 2^-30 (1 + |log U|) that dwarfs the evaluation's error; a draw the
certificate cannot settle falls back to a galloping search over the same
function, so the position is the search's by construction.

The route is a function of (n, theta) only (``_sparse_route``): a word is
walked when n exceeds both ``_SPARSE_THRESHOLD`` = 8192 and
``_SPARSE_COST`` = 600 times theta log1p(n/theta), about its expected
number of ones, since the walk costs about as much per one as the dense
route per 600 positions (a sweep with phases over theta 0.5 to 10 and
batches of 150 and 1000 trials, ``BENCH_sparse_route.json``).  So n <= 8192
is dense at every theta, while n = 10^4 is walked up to theta 1.9 and
n = 65,536 up to theta 12.5.  Batch width, chunking and ``--jobs`` do not
enter, so every trial's stream is the same however a call's trials are split.

A cycle type is held as its ascending cycle lengths.  ``draw_batch`` draws
many trials and returns their lengths concatenated (``TrialBatch``), the
one type that the drivers and kernels compute on; ``sample_cycle_counts``
and ``sample_coupled`` return a batch of one trial.  It draws every
trial's word first, then the phases, then the coupled tails; each
trial's generator still sees its own word, phases and tail in that order.
A batch with gap draws (sparse words or coupled tails) reads its uniforms
through one store (``_Uniforms``): a (trials x 64) array with a cursor per
row, each row refilled from its own trial's generator when read to its
end.  Every value it hands out, to a walk, a trial's phases or its tail,
is the next value of that trial's generator, since numpy's ``random(m)``
is m single draws; the read-ahead moves only where the generator stands
afterwards, and a store of one value per row reads nothing ahead.

The gap walks of a batch run in lockstep (``_walks_lockstep``).  Each step
takes one uniform per live walk from the store with one fancy index and
makes the guess and the one survival evaluation for all of them in numpy.
numpy's log1p and expm1 may differ from math's in the last bit, so a walk
moves only when the numpy value clears the certificate by its slack on
both sides; any other draw goes to the scalar step with the same uniform,
and walks left with too few others finish one at a time on the same
store rows, as do batches of fewer than ``_MIN_LANES`` = 80 walks (a
driver's chunk is its call's trials over its jobs, so only calls of fewer
than 80 trials per job are that narrow).  Every position is the scalar
walk's by construction.  Few draws fall back: about one in a thousand at
theta <= 2, one in a hundred over theta up to 50.  The walk returns flat
(trial, position) arrays, from which ``draw_batch`` builds the words and
the coupled words by index arithmetic, with no array per walk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Optional

import numpy as np

from .cesaro import TABLE_BLOCK, _check_table, _psi_blocks, block_j, check_table_size, check_theta

__all__ = [
    "EwensParams",
    "TrialBatch",
    "sample_cycle_counts",
    "sample_coupled",
    "coupling_tail_expectation",
    "coupling_horizon",
    "coupling_distance",
]

#: hard cap on the materialised word horizon in sample_coupled
HORIZON_HARD_CAP = 2**40

#: words of at most this size are drawn bit by bit at every theta: below it
#: the walk wins only at theta <= 1, from about n = 5,000-6,500 at 150 trials
_SPARSE_THRESHOLD = 8192

#: the gap walk costs about as much per one of the word as the dense route
#: per this many positions: the 150-trial crossovers with phases, about
#: n = 12,000, 25,000 and 45,000 at theta = 2, 5 and 10, give 530-720 over
#: two sweeps (1000-trial batches cross at about half that n); see ``_sparse_route``
_SPARSE_COST = 600


@dataclass(frozen=True)
class EwensParams:
    """Parameter of the Ewens measure; theta = 1 is the uniform measure."""

    theta: float

    def __post_init__(self):
        check_theta(self.theta)


@dataclass
class TrialBatch:
    """Cycle structures of consecutive trials at one size n, as flat arrays.

    Trial t owns ``lengths[starts[t]:starts[t+1]]`` (positive, ascending
    and summing to n, so its last length is its longest) and the aligned
    ``phases`` in [0, 1), if drawn; ``starts`` defaults to one trial.  A
    coupled draw also keeps, per trial, the ``closing`` length
    L = n + 1 - (last one <= n), and the ``tail`` spacings of length <= n
    from that one through the horizon, with the trial each belongs to
    (``tail_trial``): the whole word's spacing counts are W = a - e_L + T.
    """

    n: int
    lengths: np.ndarray
    phases: Optional[np.ndarray] = None
    starts: Optional[np.ndarray] = None
    closing: Optional[np.ndarray] = None
    tail: Optional[np.ndarray] = None
    tail_trial: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.starts is None:
            self.starts = np.array([0, len(self.lengths)])
        if self.phases is not None and len(self.phases) != len(self.lengths):
            raise ValueError("one phase per cycle required")
        if self.phases is not None and not ((self.phases >= 0) & (self.phases < 1)).all():
            raise ValueError("phases must lie in [0, 1)")
        empty = (np.diff(self.starts) < 1).any()  # reduceat would read its neighbour
        if empty or (np.add.reduceat(self.lengths, self.starts[:-1]) != self.n).any():
            raise ValueError("each trial's cycle lengths must sum to n")
        rises = np.diff(self.lengths)
        rises[self.starts[1:-1] - 1] = 0  # a trial may start below its predecessor's end
        if (self.lengths[self.starts[:-1]] < 1).any() or (rises < 0).any():
            raise ValueError("each trial's cycle lengths must be positive and ascending")

    @property
    def trials(self) -> int:
        return len(self.starts) - 1

    @property
    def counts(self) -> dict[int, int]:
        """Multiplicity of each cycle length over the batch's cycles: the
        cycle type {j: a_j} of a one-trial batch."""
        values, mult = np.unique(self.lengths, return_counts=True)
        return dict(zip(values.tolist(), mult.tolist()))

    def total_cycles(self) -> int:
        return len(self.lengths)


# ---------------------------------------------------------------------------
# word sampling
# ---------------------------------------------------------------------------


#: gaps of at most this many positions are summed term by term
_SUM_TERMS = 8

#: D is tabulated at the integers 1.._TABLE_SIZE
_TABLE_SIZE = 64

#: the Stirling-difference series runs where k >= _SERIES_RATIO * theta
_SERIES_RATIO = 8

#: terms of that series (cut earlier once the rest is below 2**-60)
_SERIES_TERMS = 20

#: slack of the neighbour certificate, relative to 1 + |log U|
_CERTIFICATE_SLACK = 2.0**-30

#: uniforms the batch store reads from a trial's generator at a time
_BLOCK = 64

#: a call with fewer walks than this steps them one trial at a time: below
#: it the numpy steps cost more than the scalar draws they replace (whole-call
#: crossover 75-100 walks at theta <= 1, 50-75 at theta 2; per-call timings
#: from 10 to 500 walks in BENCH_lockstep_walk.json); a driver's chunk makes
#: one call of ceil(trials / jobs) walks, up to 4096 (``experiments._chunk_ranges``)
_MIN_LANES = 80

#: walks of a lockstep call finish one at a time once fewer than this are live
_MIN_LIVE = 8


#: Bernoulli numbers B_0..B_20 (B_1 = -1/2) as (numerator, denominator)
_BERNOULLI = (
    (1, 1), (-1, 2), (1, 6), (0, 1), (-1, 30), (0, 1), (1, 42), (0, 1), (-1, 30), (0, 1),
    (5, 66), (0, 1), (-691, 2730), (0, 1), (7, 6), (0, 1), (-3617, 510), (0, 1),
    (43867, 798), (0, 1), (-174611, 330),
)

#: the least common multiple of ``_BERNOULLI``'s denominators
_BERNOULLI_DENOMINATOR = 9699690


@lru_cache(maxsize=16)
def _survival_constants(theta: float) -> tuple[list[float], list[float], list[float], float]:
    """Per-theta constants of ``_log_gap_survival``.

    * ``table[x] = D(x) - D(_TABLE_SIZE)`` for x = 1.._TABLE_SIZE, filled
      downward by D(x) = D(x+1) - log1p(theta/x);
    * the series coefficients c_n = (-1)^(n+1) (B_{n+1}(theta) - B_{n+1}) / (n(n+1)),
      stored as c_n / s^n with s = max(theta, 1), so none overflows: with
      theta = a/b exactly, each is one integer ratio, rounded once;
    * ``tail[n] = max_{j >= n} j |c_j| / s^j``, which bounds what the terms
      from n on can add.
    """
    table = [math.nan] * (_TABLE_SIZE + 1)
    table[_TABLE_SIZE] = 0.0
    for x in range(_TABLE_SIZE - 1, 0, -1):
        table[x] = table[x + 1] - math.log1p(theta / x)
    a, b = theta.as_integer_ratio()
    bernoulli = [p * (_BERNOULLI_DENOMINATOR // q) for p, q in _BERNOULLI]  # B_j times the lcm
    coeffs = []
    for n in range(1, _SERIES_TERMS + 1):
        # (B_{n+1}(a/b) - B_{n+1}) b^(n+1) lcm: the binomial sum without its constant term
        diff = sum(math.comb(n + 1, j) * bernoulli[j] * a ** (n + 1 - j) * b**j
                   for j in range(n + 1))
        # c_n / s^n = (-1)^(n+1) diff / (lcm n (n+1) b^(n+1) s^n); b^(n+1) s^n = b a^n if s = a/b
        power = b * a**n if theta >= 1.0 else b ** (n + 1)
        coeffs.append((-1) ** (n + 1) * diff / (_BERNOULLI_DENOMINATOR * n * (n + 1) * power))
    tail = [abs(c) * n for n, c in enumerate(coeffs, 1)]
    for n in range(len(tail) - 2, -1, -1):
        tail[n] = max(tail[n], tail[n + 1])
    return table, coeffs, tail, float(max(theta, 1.0))


#: B_2m / (2m (2m-1)), m = 1..5: Stirling's series lnGamma(z) = (z - 1/2) ln z - z
#: + ln(2 pi)/2 + sum_m B_2m / (2m (2m-1) z^(2m-1)); the next term is < 1e-22 at z >= 64
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188)


def _stirling_remainder_difference(z: float, t: int) -> float:
    """F(z + t) - F(z) for F(z) = sum_m B_2m / (2m (2m-1) z^(2m-1)), z >= 64."""
    return sum(c * ((z + t) ** (1 - 2 * m) - z ** (1 - 2 * m)) for m, c in enumerate(_STIRLING, 1))


def _log_gap_survival(k: int, t: int, theta: float, constants=None) -> float:
    """log P(no 1 at positions k+1 .. k+t) = log prod_{i=1..t} (k+i-1)/(theta+k+i-1).

    This is D(k) - D(k+t) with D(x) = lnGamma(x+theta) - lnGamma(x), for
    integers k >= 1, t >= 0.  Four lnGamma values at k+t ~ 10^9 are ~10^10
    and cancel down to the answer, which may be ~10^-9; so no branch
    subtracts lnGamma values:

    * t <= _SUM_TERMS: -sum_i log1p(theta/(k+i));
    * k < _TABLE_SIZE: the per-theta table of D, plus the rest of the gap
      from _TABLE_SIZE on;
    * k >= _SERIES_RATIO * theta: with L = log1p(t/k), the Stirling
      difference -theta L + sum_n c_n k^-n (-expm1(-n L)), whose
      corrections are at most |theta - 1|/(2k) of its leading term;
    * otherwise (theta > 8, k < 8 theta, where the terms c_n k^-n ~ theta
      (theta/k)^n decay too slowly), the two Stirling forms of
      lnGamma(z+t) - lnGamma(z) at z = k and z = k + theta, which cancel by
      at most a factor ~16 there.

    ``constants`` are ``_survival_constants(theta)``, looked up here when
    not given.  Relative error below 1e-12 (tests/test_ewens.py checks it
    against mpmath for k, t up to 2^40; the worst seen is 1.7e-15).
    """
    if t <= _SUM_TERMS:
        return -sum(math.log1p(theta / (k + i)) for i in range(t))
    table, coeffs, tail, scale = constants or _survival_constants(theta)
    if k < _TABLE_SIZE:
        if k + t <= _TABLE_SIZE:
            return table[k] - table[k + t]
        return table[k] + _log_gap_survival(_TABLE_SIZE, k + t - _TABLE_SIZE, theta, constants)
    if k < _SERIES_RATIO * theta:
        kt = k + theta
        return (
            (k - 0.5) * math.log1p(t / k)
            - (kt - 0.5) * math.log1p(t / kt)
            - t * math.log1p(theta / (k + t))
            + _stirling_remainder_difference(k, t)
            - _stirling_remainder_difference(kt, t)
        )
    lead = math.log1p(t / k)
    total, ratio, power = -theta * lead, scale / k, 1.0
    for n, coeff in enumerate(coeffs, 1):
        power *= ratio
        if tail[n - 1] * power < 2.0**-60 * theta:
            break
        total -= coeff * power * math.expm1(-n * lead)
    return total


def _next_one_position(k: int, limit: int, theta: float, u: float, constants=None):
    """Position of the first 1 after position k, or None if it lies beyond limit.

    The gap T satisfies P(T > t) = S(t) = prod_{i=1..t} (k+i-1)/(theta+k+i-1),
    so T = min{t : S(t) < U} for the uniform U = 1 - u in (0, 1], with u in
    [0, 1) the draw's one value from the trial's generator.  Since
    log S(t) = -theta log1p(t/k) + c_1/k (1 - k/(k+t)) + O(k^-2), the guess
    g = k expm1(-log U / theta), corrected once by the c_1/k term, is almost
    always T itself, and one evaluation settles it: if S(g) < U, the exact
    identity log S(g-1) = log S(g) + log1p(theta/(k+g-1)) certifies
    S(g-1) >= U, so T = g, once the sum clears log U by a slack of
    2^-30 (1 + |log U|).  The slack exceeds what the evaluations' relative
    error (below 2e-15) and the rounding of the sum can move, so the
    evaluation at g-1 that a search would make agrees with the certificate.
    Otherwise a galloping search outward from g, on the evaluation already
    made, fixes the exact integer with the bracket S(T-1) >= U > S(T).
    T beyond the horizon (S(limit - k) >= U) returns None.
    """
    horizon = limit - k
    if horizon <= 0:
        return None
    log_u = math.log(1.0 - u)  # uniform in (0, 1]
    constants = constants or _survival_constants(theta)
    lead = -log_u / theta
    lead -= (theta - 1.0) / (2.0 * k) * math.expm1(-lead)
    if lead >= math.log1p(horizon / k):
        guess = horizon
    else:
        guess = min(horizon, int(k * math.expm1(lead)) + 1)
    log_s = _log_gap_survival(k, guess, theta, constants)
    if log_s < log_u:
        neighbour = log_s + math.log1p(theta / (k + guess - 1))  # log S(guess - 1)
        if guess == 1 or neighbour >= log_u + _CERTIFICATE_SLACK * (1.0 - log_u):
            return k + guess

    def below(t: int) -> bool:  # S(t) < U
        return _log_gap_survival(k, t, theta, constants) < log_u

    # bracket lo < T <= hi with S(lo) >= U > S(hi); S(0) = 1 >= U
    if log_s < log_u:
        hi, step = guess, 1
        while (lo := max(hi - step, 0)) > 0 and below(lo):
            hi, step = lo, 2 * step
    else:
        lo, step = guess, 1
        while True:
            if lo == horizon:
                return None  # the gap exceeds the remaining horizon
            hi = min(lo + step, horizon)
            if below(hi):
                break
            lo, step = hi, 2 * step
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if below(mid):
            hi = mid
        else:
            lo = mid
    return k + hi


def _log_gap_survivals(k: np.ndarray, t: np.ndarray, theta: float, constants) -> np.ndarray:
    """``_log_gap_survival`` at every pair of the int64 arrays k >= 1, t >= 1:
    the same branches and constants in numpy, so each value is within a
    few ulps of the scalar one, not equal to it (numpy's log1p and expm1
    are not math's in the last bit)."""
    table, coeffs, tail, scale = constants
    out = np.empty(len(k))
    kf, tf = k.astype(np.float64), t.astype(np.float64)
    short = t <= _SUM_TERMS
    if short.any():
        i = np.arange(_SUM_TERMS)
        terms = np.log1p(theta / (kf[short, None] + i))
        out[short] = -np.where(i < t[short, None], terms, 0.0).sum(axis=1)
    low = ~short & (k < _TABLE_SIZE)
    if low.any():
        tab, end = np.array(table), k[low] + t[low]
        value = tab[k[low]] - tab[np.minimum(end, _TABLE_SIZE)]
        spill = end > _TABLE_SIZE
        if spill.any():
            value[spill] += _log_gap_survivals(
                np.full(int(spill.sum()), _TABLE_SIZE), end[spill] - _TABLE_SIZE, theta, constants
            )
        out[low] = value
    series = ~short & (k >= _TABLE_SIZE) & (kf >= _SERIES_RATIO * theta)
    if series.any():
        ks, lead = kf[series], np.log1p(tf[series] / kf[series])
        total, ratio, power = -theta * lead, scale / ks, np.ones(len(ks))
        for n, coeff in enumerate(coeffs, 1):
            power *= ratio
            if tail[n - 1] * power.max() < 2.0**-60 * theta:
                break
            total -= coeff * power * np.expm1(-n * lead)
        out[series] = total
    middle = ~short & (k >= _TABLE_SIZE) & ~series
    if middle.any():
        km, tm = kf[middle], tf[middle]
        kt = km + theta
        out[middle] = (
            (km - 0.5) * np.log1p(tm / km)
            - (kt - 0.5) * np.log1p(tm / kt)
            - tm * np.log1p(theta / (km + tm))
            + _stirling_remainder_difference(km, tm)
            - _stirling_remainder_difference(kt, tm)
        )
    return out


def _walks_lockstep(starts, limit: int, theta: float, uniforms: _Uniforms):
    """The ones in (s, limit] of the walk from each of ``starts``, walk i
    reading row i of ``uniforms``, all walks stepped together.

    Returns flat arrays (walk, position), sorted by walk with each walk's
    positions ascending, and the number of ones of each walk.

    Each step takes one uniform per live walk (``uniforms.take``) and makes
    ``_next_one_position``'s guess g and one survival evaluation for all of
    them in numpy.  A walk moves to k + g only when the evaluation clears
    both sides of the scalar certificate by the margin
    m = _CERTIFICATE_SLACK (1 + |log U|): log S(g) < log U - m, and
    log S(g-1) = log S(g) + log1p(theta/(k+g-1)) >= log U + 2m (or g = 1);
    it stops only when g is the horizon and log S(g) >= log U + m.  The
    margin dwarfs the few ulps by which numpy's values may differ from
    math's, so the scalar call would certify the same outcome.  Every other
    draw goes to ``_next_one_position`` with the same uniform.  Once fewer
    than ``_MIN_LIVE`` walks are live, those walks finish one draw at a
    time (``uniforms.next``), as all do when fewer than ``_MIN_LANES`` are
    given: each position is the scalar walk's by construction, and each
    walk reads one uniform per draw from its own row.
    """
    walks = len(starts)
    lanes, k = np.arange(walks), np.array(starts, dtype=np.int64)
    found_lanes, found = [np.empty(0, np.int64)], [np.empty(0, np.int64)]
    constants = _survival_constants(theta)
    if walks >= _MIN_LANES:
        while True:
            live = k < limit
            lanes, k = lanes[live], k[live]
            if len(lanes) < _MIN_LIVE:
                break
            u = uniforms.take(lanes)
            log_u, horizon, kf = np.log(1.0 - u), limit - k, k.astype(np.float64)
            lead = -log_u / theta
            lead -= (theta - 1.0) / (2.0 * kf) * np.expm1(-lead)
            cap = np.log1p(horizon / kf)
            guess = np.minimum(horizon, (kf * np.expm1(np.minimum(lead, cap))).astype(np.int64) + 1)
            guess[lead >= cap] = horizon[lead >= cap]
            log_s = _log_gap_survivals(k, guess, theta, constants)
            margin = _CERTIFICATE_SLACK * (1.0 - log_u)
            neighbour = log_s + np.log1p(theta / (k + guess - 1))
            hit = (log_s < log_u - margin) & ((guess == 1) | (neighbour >= log_u + 2.0 * margin))
            beyond = (guess == horizon) & (log_s >= log_u + margin)
            k = np.where(hit, k + guess, np.where(beyond, limit, k))
            for j in np.flatnonzero(~(hit | beyond)).tolist():
                pos = _next_one_position(int(k[j]), limit, theta, float(u[j]), constants)
                k[j], hit[j] = (limit, False) if pos is None else (pos, True)
            found_lanes.append(lanes[hit])
            found.append(k[hit])
    for lane, pos in zip(lanes.tolist(), k.tolist()):
        rest = []
        while pos < limit:
            pos = _next_one_position(pos, limit, theta, uniforms.next(lane), constants)
            if pos is None:
                break
            rest.append(pos)
        found_lanes.append(np.full(len(rest), lane))
        found.append(np.array(rest, dtype=np.int64))
    lanes, found = np.concatenate(found_lanes), np.concatenate(found)
    order = np.argsort(lanes, kind="stable")  # each walk's positions ascend step by step
    return lanes[order], found[order], np.bincount(lanes, minlength=walks)


class _Uniforms:
    """The uniforms of a batch's gap draws: row t reads trial t's generator
    ``block`` values at a time (64, or 1 to read nothing ahead).

    Each row holds up to ``block`` values read ahead, and a cursor to the
    first unread one; a row read to its end is refilled from its own
    generator.  ``take``, ``next`` and ``run`` hand out a row's values in
    order, and then its generator's next ones: exactly what the generator's
    own ``random`` would return, since numpy's ``random(m)`` is m single
    draws.  The generator stands up to block - 1 values past the last one
    handed out.
    """

    __slots__ = ("_rngs", "_block", "_values", "_rows", "_cursor")

    def __init__(self, rngs: list[np.random.Generator], block: int = _BLOCK):
        self._rngs, self._block = rngs, block
        self._values = np.empty((len(rngs), block))
        self._rows = list(self._values)  # one view per row
        self._cursor = np.full(len(rngs), block, dtype=np.int64)  # every row read to its end

    def take(self, rows: np.ndarray) -> np.ndarray:
        """The next uniform of each of ``rows`` (distinct)."""
        at = self._cursor[rows]
        empty = np.flatnonzero(at == self._block)
        if len(empty):
            for row in rows[empty].tolist():
                self._rngs[row].random(out=self._rows[row])
            at[empty] = 0
        self._cursor[rows] = at + 1
        return self._values[rows, at]

    def next(self, row: int) -> float:
        """The next uniform of ``row``."""
        at = self._cursor.item(row)
        if at == self._block:
            self._rngs[row].random(out=self._rows[row])
            at = 0
        self._cursor[row] = at + 1
        return self._values.item(row, at)

    def run(self, row: int, m: int) -> np.ndarray:
        """The next m uniforms of ``row``: its unread values, then its generator's."""
        at = self._cursor.item(row)
        rest = self._rows[row][at : at + m]
        self._cursor[row] = at + len(rest)
        if len(rest) == m:
            return rest.copy()  # the row is refilled in place later
        return np.concatenate([rest, self._rngs[row].random(m - len(rest))])


def _sparse_route(n: int, theta: float) -> bool:
    """Whether words of size n are drawn by gap skipping: when n exceeds
    ``_SPARSE_THRESHOLD`` and ``_SPARSE_COST`` times theta log1p(n / theta),
    about the word's expected number of ones.  It reads n and theta only, so
    every trial takes the same route however a call's trials are split."""
    return n > max(_SPARSE_THRESHOLD, _SPARSE_COST * theta * math.log1p(n / theta))


def _dense_thresholds(n: int, theta: float) -> np.ndarray:
    """P(xi_k = 1) = theta/(theta+k-1) for k = 1..n."""
    k = np.arange(1, n + 1, dtype=np.float64)
    return theta / (theta + k - 1.0)


def _starts(sizes) -> np.ndarray:
    starts = np.zeros(len(sizes) + 1, dtype=np.int64)
    np.cumsum(sizes, out=starts[1:])
    return starts


def _lead_words(leads: np.ndarray, walk: np.ndarray, positions: np.ndarray, counts: np.ndarray):
    """Each walk's lead followed by its positions, concatenated, and the
    index of every position in them; ``walk``, ``positions`` and ``counts``
    are a lockstep walk's flat result.  The lead of walk t is repeated over
    its counts[t] + 1 slots and the positions overwrite all but the first."""
    at = np.arange(len(positions)) + walk + 1
    words = np.repeat(leads, counts + 1)
    words[at] = positions
    return words, at


def _sorted_lengths(n: int, ones: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Cycle lengths of concatenated words, ascending within each word: the
    spacings of a word's ones closed by the sentinel n + 1 (so they sum to n).
    They sort by one int64 key trial * (n + 1) + length unless it could
    overflow (a two-key sort is several times slower)."""
    closing = np.append(ones[1:], n + 1)
    closing[starts[1:] - 1] = n + 1
    lengths = closing - ones
    trial = np.repeat(np.arange(len(starts) - 1), np.diff(starts))
    if (len(starts) - 1) * (n + 1) < 2**63:
        return lengths[np.argsort(trial * (n + 1) + lengths)]
    return lengths[np.lexsort((lengths, trial))]


def draw_batch(
    n: int, theta: float, rngs: Iterable[np.random.Generator], phases: bool = False,
    horizon: Optional[int] = None, block: int = _BLOCK,
) -> TrialBatch:
    """One trial per generator: draw every trial's word, then, if ``phases``,
    one uniform phase per cycle, or, given a ``horizon``, the coupled word's
    ones in (n, horizon].  Each generator still sees its own trial's word,
    phases and tail in that order.  Sparse words and tails are walked for
    all trials at once (``_walks_lockstep``), whose flat (trial, position)
    result becomes the words (a leading 1 per trial) and the coupled words
    (the last one <= n, then the tail) by index arithmetic; lengths, their
    sort and the tails' spacings are computed for the whole batch.

    A batch that makes gap draws (sparse words or coupled tails) reads them,
    and the phases after a sparse word, through one ``_Uniforms`` store of
    ``block`` values per trial, so each generator ends up to block - 1
    uniforms past its trial's last draw; ``block=1`` reads nothing ahead.
    Dense words are drawn bit by bit, so n above ``cesaro.TABLE_SIZE_LIMIT``
    is refused on that route before anything of length n is allocated.
    """
    check_theta(theta)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    rngs, sparse = list(rngs), _sparse_route(n, theta)
    trials = len(rngs)
    uniforms = _Uniforms(rngs, block) if sparse or horizon is not None else None
    if sparse:
        walk, positions, counts = _walks_lockstep([1] * trials, n, theta, uniforms)
        ones, _ = _lead_words(np.ones(trials, dtype=np.int64), walk, positions, counts)
        starts = _starts(counts + 1)
    else:
        check_table_size(n, "a dense word (17-25 bytes per element)")
        thresholds, words = _dense_thresholds(n, theta), []
        for rng in rngs:  # before any gap draw, so no row of the store has read ahead
            hits = rng.random(n) < thresholds
            hits[0] = True
            words.append(hits.nonzero()[0] + 1)
        ones, starts = np.concatenate(words), _starts([len(w) for w in words])
    phase_draws = None
    if phases:
        sizes = np.diff(starts).tolist()
        phase_draws = np.concatenate(
            [rng.random(m) for rng, m in zip(rngs, sizes)] if uniforms is None
            else [uniforms.run(t, m) for t, m in enumerate(sizes)]
        )
    lengths = _sorted_lengths(n, ones, starts)
    batch = TrialBatch(n, lengths, phase_draws, starts)
    if horizon is not None:
        walk, positions, counts = _walks_lockstep([n] * trials, horizon, theta, uniforms)
        last = ones[starts[1:] - 1]  # each trial's last one <= n
        # the coupled words: each trial's last one <= n, then its tail
        word, at = _lead_words(last, walk, positions, counts)
        gaps = positions - word[at - 1]
        keep = gaps <= n
        batch.closing = n + 1 - last
        batch.tail, batch.tail_trial = gaps[keep], walk[keep]
    return batch


def sample_cycle_counts(
    n: int, params: EwensParams, rng: np.random.Generator
) -> TrialBatch:
    """Draw the cycle type of an Ewens(theta) n-permutation, as a one-trial
    batch; ``rng`` is left just past the uniforms the draw used."""
    return draw_batch(n, params.theta, [rng], block=1)


# ---------------------------------------------------------------------------
# Feller coupling with certified truncation
# ---------------------------------------------------------------------------


def coupling_tail_expectation(n: int, theta: float, horizon: int) -> float:
    """sum_{j<=n} E(number of j-spacings with an endpoint beyond the horizon).

    For a single j the tail expectation is
    theta * (1/j - psi(H, j) (1/j - 1/H)) with H the horizon; summing over
    j <= n gives the certified loss bound used by :func:`sample_coupled`.
    """
    _check_table(n, theta)
    if horizon < n:
        raise ValueError("horizon must be at least n")
    inverse, term = np.empty((2, min(n, TABLE_BLOCK)))  # 1/j and the terms, one block each
    partials = []
    for lo, psi_h in _psi_blocks(horizon, n, theta):  # psi(H, j), j <= n
        inv, t = inverse[: len(psi_h)], term[: len(psi_h)]
        np.divide(1.0, block_j(lo, inv), out=inv)
        np.multiply(np.subtract(inv, 1.0 / horizon, out=t), psi_h, out=t)
        partials.append(np.add.reduce(np.subtract(inv, t, out=t)))  # 1/j - psi (1/j - 1/H)
    return theta * math.fsum(partials)


@lru_cache(maxsize=128)
def coupling_horizon(n: int, theta: float, epsilon_tail: float) -> tuple[int, float]:
    """Smallest doubling horizon 2n, 4n, 8n, ... whose tail bound is <= epsilon_tail.

    The tail is close to theta^2 n / H, so the search starts at the doubling
    nearest theta^2 n / epsilon_tail and steps down or up from there; the
    tail halves at each doubling, so this is the first doubling from 2n that
    meets the bound.  Returns (horizon, achieved_tail_bound); raises if the
    cap would be hit, or theta, n or epsilon_tail is out of range.
    """
    _check_table(n, theta)
    if not 0 < epsilon_tail < math.inf:
        raise ValueError(f"epsilon_tail must be positive and finite, got {epsilon_tail}")
    top = max(0, (HORIZON_HARD_CAP // (2 * n)).bit_length() - 1)  # 2n 2^top <= the cap
    ratio = theta * theta / (2.0 * epsilon_tail)
    steps = top if ratio >= 2.0**top else round(math.log2(ratio)) if ratio > 1.0 else 0
    horizon = 2 * n << steps
    tail = coupling_tail_expectation(n, theta, horizon)
    if tail <= epsilon_tail:
        while horizon > 2 * n:
            lower = coupling_tail_expectation(n, theta, horizon // 2)
            if lower > epsilon_tail:
                break
            horizon, tail = horizon // 2, lower
        return horizon, tail
    while tail > epsilon_tail:
        horizon *= 2
        if horizon > HORIZON_HARD_CAP:
            raise ValueError(
                f"epsilon_tail={epsilon_tail} unreachable below the horizon cap "
                f"{HORIZON_HARD_CAP} for n={n}, theta={theta}"
            )
        tail = coupling_tail_expectation(n, theta, horizon)
    return horizon, tail


def sample_coupled(
    n: int,
    params: EwensParams,
    rng: np.random.Generator,
    epsilon_tail: float = 1e-3,
) -> TrialBatch:
    """One coupled trial: the cycle type and the tail of its word.

    Both families are read from one realisation of the word: a_{n,j} from
    the first n bits closed by the sentinel, W_j = a - e_L + T from all
    spacings whose two endpoints fall inside the horizon of
    ``coupling_horizon(n, theta, epsilon_tail)``, the smallest one whose
    closed-form tail expectation is below epsilon_tail.  Ones in
    (n, horizon] depend only on the current position, so the chain
    continues from position n regardless of xi_n itself.
    """
    horizon, _ = coupling_horizon(n, params.theta, epsilon_tail)
    return draw_batch(n, params.theta, [rng], horizon=horizon, block=1)


def coupling_distances(batch: TrialBatch) -> np.ndarray:
    """sum_j |a_{n,j} - W_j| for every trial of a coupled batch.

    Since W = a - e_L + T, the distance is |e_L - T|_1 = |T| + 1 - 2 [L in T].
    """
    counts = np.bincount(batch.tail_trial, minlength=batch.trials)
    hits = batch.tail_trial[batch.tail == batch.closing[batch.tail_trial]]
    return counts + 1 - 2 * (np.bincount(hits, minlength=batch.trials) > 0)


def coupling_distance(sample: TrialBatch) -> int:
    """sum_j |a_{n,j} - W_j| for one coupled trial."""
    return int(coupling_distances(sample)[0])
