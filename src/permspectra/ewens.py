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

The word is drawn by thinning (Lewis & Shedler 1979), since the expected
number of ones up to n is only ~theta log n, so large n costs almost
nothing.  From position k every later bit is 1 with probability at most
theta/(theta+k); a geometric skip at that rate proposes the next candidate
c, and a second uniform keeps it with probability (theta+k)/(theta+c-1),
which makes P(xi_c = 1) exact.  It takes two uniforms per candidate and no
special function.

A cycle type is held as its ascending cycle lengths.  ``draw_batch`` draws
many trials and returns their lengths concatenated (``TrialBatch``), the
one type that the drivers and kernels compute on; ``sample_cycle_counts``
and ``sample_coupled`` return a batch of one trial.  It draws every
trial's word first, then the phases, then the coupled tails; each
trial's generator still sees its own word, phases and tail in that order.
A batch reads its uniforms, for the words, the phases and the tails,
through one store (``_Uniforms``): a (trials x 64) array with a cursor per
row, each row refilled from its own trial's generator when read to its
end.  Every value it hands out, to a walk, a trial's phases or its tail,
is the next value of that trial's generator, since numpy's ``random(m)``
is m single draws; the read-ahead moves only where the generator stands
afterwards, and a store of one value per row reads nothing ahead.

The walks of a batch are stepped together (``_thinned_walks``).  Each
step takes two uniforms per live walk from the store, with one fancy index
each, and makes every walk's skip and acceptance in elementwise numpy, so a
trial's positions are the same at any batch width, chunking or ``--jobs``.
The walk returns flat (trial, position) arrays, from which ``draw_batch``
builds the words and the coupled words by index arithmetic, with no array
per walk.  Each step costs a numpy call's fixed time whatever the number
of live walks, so a narrow batch (one trial: 0.29 ms at n = 1000) or a
theta near n/100, where a word has many ones, draws more slowly than bits
drawn n at a time would (``BENCH_walk_only.json``).

Walks are nested: only the candidate that crosses the limit is clipped, so
the ones <= n of a walk to N are the walk to n.  One walk per trial to the
largest size thus gives the batches of a whole size schedule
(``_nested_batches``), each the batch a draw at its size alone gives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Optional

import numpy as np

from .cesaro import TABLE_BLOCK, _check_table, _psi_blocks, block_j, check_theta

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


#: uniforms the batch store reads from a trial's generator at a time
_BLOCK = 64


class _Uniforms:
    """The uniforms of a batch's draws: row t reads trial t's generator
    ``block`` values at a time (64, or 1 to read nothing ahead).

    Each row holds up to ``block`` values read ahead, and a cursor to the
    first unread one; a row read to its end is refilled from its own
    generator.  ``take`` and ``run`` hand out a row's values in order, and
    then its generator's next ones: exactly what the generator's own
    ``random`` would return, since numpy's ``random(m)`` is m single draws.
    The generator stands up to block - 1 values past the last one handed out.
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

    def run(self, row: int, m: int) -> np.ndarray:
        """The next m uniforms of ``row``: its unread values, then its generator's."""
        at = self._cursor.item(row)
        rest = self._rows[row][at : at + m]
        self._cursor[row] = at + len(rest)
        if len(rest) == m:
            return rest.copy()  # the row is refilled in place later
        return np.concatenate([rest, self._rngs[row].random(m - len(rest))])


def _thinned_walks(walks: int, start: int, limit: int, theta: float, uniforms: _Uniforms):
    """The ones in (start, limit] of ``walks`` walks from ``start``, walk i
    reading row i of ``uniforms``, all walks stepped together by thinning.

    From position k every later bit is 1 with probability at most
    p = theta/(theta+k), so a geometric skip of rate p,
    floor(-log1p(-u) / log1p(theta/k)), proposes the candidate
    c = k + 1 + skip, which is a one with probability p_c / p =
    (theta+k)/(theta+c-1): it is accepted when v (theta+c-1) < theta+k.  The
    walk goes on from c either way, and a candidate beyond ``limit`` ends it.
    Each candidate reads two uniforms, u then v, from its walk's row, and
    every operation is elementwise, so no walk's positions depend on another.
    Where theta/k underflows to 0 the skip is infinite (0/0 at u = 0, which
    ``fmin`` drops): the walk ends, as a bit of probability 0 is never 1.
    A walk from ``limit`` on (a word of size 1) reads nothing.

    Returns flat arrays (walk, position), sorted by walk with each walk's
    positions ascending, and the number of ones of each walk.
    """
    lanes = np.arange(walks if start < limit else 0)
    k = np.full(len(lanes), start, dtype=np.int64)
    found_lanes, found = [lanes[:0]], [k[:0]]
    while len(lanes):
        u, v = uniforms.take(lanes), uniforms.take(lanes)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            skip = np.floor(-np.log1p(-u) / np.log1p(theta / k))
        c = k + 1 + np.fmin(skip, limit - k).astype(np.int64)
        hit = (c <= limit) & (v * (theta + (c - 1)) < theta + k)
        found_lanes.append(lanes[hit])
        found.append(c[hit])
        live = c < limit
        lanes, k = lanes[live], c[live]
    lanes, found = np.concatenate(found_lanes), np.concatenate(found)
    order = np.argsort(lanes, kind="stable")  # each walk's positions ascend step by step
    return lanes[order], found[order], np.bincount(lanes, minlength=walks)


def _lead_words(leads: np.ndarray, walk: np.ndarray, positions: np.ndarray, counts: np.ndarray):
    """Each walk's lead followed by its positions, concatenated, and the
    index of every position in them; ``walk``, ``positions`` and ``counts``
    are ``_thinned_walks``' flat result.  The lead of walk t is repeated over
    its counts[t] + 1 slots and the positions overwrite all but the first."""
    at = np.arange(len(positions)) + walk + 1
    words = np.repeat(leads, counts + 1)
    words[at] = positions
    return words, at


def _words(walk: np.ndarray, positions: np.ndarray, counts: np.ndarray):
    """Each trial's word, a leading 1 then its walk's positions, concatenated
    (``_thinned_walks``' flat result from 1), and where each trial starts in it."""
    ones, _ = _lead_words(np.ones(len(counts), dtype=np.int64), walk, positions, counts)
    return ones, np.concatenate(([0], np.cumsum(counts + 1)))


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
    phases and tail in that order.  Words and tails are walked by thinning
    for all trials at once (``_thinned_walks``, two uniforms per candidate),
    whose flat (trial, position) result becomes the words (a leading 1 per
    trial) and the coupled words (the last one <= n, then the tail) by index
    arithmetic; lengths, their sort and the tails' spacings are computed for
    the whole batch.

    Every draw reads through one ``_Uniforms`` store of ``block`` values per
    trial, so each generator ends up to block - 1 uniforms past its trial's
    last draw; ``block=1`` reads nothing ahead.
    """
    check_theta(theta)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    rngs = list(rngs)
    trials, uniforms = len(rngs), _Uniforms(rngs, block)
    walk, positions, counts = _thinned_walks(trials, 1, n, theta, uniforms)
    ones, starts = _words(walk, positions, counts)
    phase_draws = None
    if phases:
        sizes = (counts + 1).tolist()
        phase_draws = np.concatenate([uniforms.run(t, m) for t, m in enumerate(sizes)])
    lengths = _sorted_lengths(n, ones, starts)
    batch = TrialBatch(n, lengths, phase_draws, starts)
    if horizon is not None:
        walk, positions, counts = _thinned_walks(trials, n, horizon, theta, uniforms)
        last = ones[starts[1:] - 1]  # each trial's last one <= n
        # the coupled words: each trial's last one <= n, then its tail
        word, at = _lead_words(last, walk, positions, counts)
        gaps = positions - word[at - 1]
        keep = gaps <= n
        batch.closing = n + 1 - last
        batch.tail, batch.tail_trial = gaps[keep], walk[keep]
    return batch


def _nested_batches(sizes: tuple[int, ...], theta: float,
                    rngs: Iterable[np.random.Generator]) -> list[TrialBatch]:
    """One batch per size in ``sizes``, all cut from one word per generator,
    walked to the largest size: the batch at n holds each trial's ones <= n,
    closed by n + 1.  That is ``draw_batch(n, theta, rngs)``'s batch, since
    a walk's candidate beyond n is clipped without changing any one below
    it, so the ones <= n of a walk to N are the walk to n.
    """
    check_theta(theta)
    if min(sizes) < 1:
        raise ValueError(f"n must be >= 1, got {min(sizes)}")
    rngs = list(rngs)
    trials = len(rngs)
    walk, positions, _ = _thinned_walks(trials, 1, max(sizes), theta, _Uniforms(rngs))
    batches = []
    for n in sizes:
        keep = positions <= n  # each walk's positions ascend, so its ones <= n lead
        counts = np.bincount(walk[keep], minlength=trials)
        ones, starts = _words(walk[keep], positions[keep], counts)
        batches.append(TrialBatch(n, _sorted_lengths(n, ones, starts), starts=starts))
    return batches


def sample_cycle_counts(
    n: int, params: EwensParams, rng: np.random.Generator
) -> TrialBatch:
    """Draw the cycle type of an Ewens(theta) n-permutation, as a one-trial
    batch; ``rng`` is left just past the uniforms the draw used."""
    return draw_batch(n, params.theta, [rng], block=1)


# ---------------------------------------------------------------------------
# Feller coupling with certified truncation
# ---------------------------------------------------------------------------


#: the smallest theta whose coupling tail bound is computed: each term
#: 1/j - psi(H, j) (1/j - 1/H) cancels to O(theta), so the bound's relative
#: error grows as theta shrinks (against 40-digit mpmath at the horizons
#: ``coupling_horizon`` visits, n = 10, 10^3 and 10^5: within 1e-9 from
#: here on, 1.3e-9 at theta = 5e-6, 5e-8 at 1e-8, and the bound went
#: negative at 1e-17)
_TAIL_THETA_FLOOR = 2.0**-17


def coupling_tail_expectation(n: int, theta: float, horizon: int) -> float:
    """sum_{j<=n} E(number of j-spacings with an endpoint beyond the horizon).

    For a single j the tail expectation is
    theta * (1/j - psi(H, j) (1/j - 1/H)) with H the horizon; summing over
    j <= n gives the certified loss bound used by :func:`sample_coupled`.
    Theta below ``_TAIL_THETA_FLOOR`` = 2^-17 is refused.
    """
    _check_table(n, theta)
    if theta < _TAIL_THETA_FLOOR:
        raise ValueError(
            f"theta = {theta} is below 2**-17, the floor of the coupling tail bound, "
            "whose cancellation loses digits as theta shrinks"
        )
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
