"""Extremal spacings between consecutive distinct eigenangles.

All spacings are fractions of a turn; multiply by 2*pi for radians.

For a permutation matrix the distinct eigenangles are the union of the
j-th-root grids over the present cycle lengths, so the smallest gap has the
number-theoretic closed form

    smallest = 1 / max{ lcm(k, l) : k, l present cycle lengths }

(k = l allowed: a single grid of step 1/j realises 1/lcm(j, j)), and so
does the largest gap:

    largest = 1 / J,   J the longest cycle length.

The union of the grids contains the J-grid, whose gaps are all 1/J, so no
gap is longer; and no angle lies in (0, 1/J), since a j-grid with j <= J
has no point there, so that gap is realised.  Both extremes are exact
Fractions, read off the cycle lengths without enumerating a single angle
(the test suite checks them against full enumeration).

For the phase-modified ensemble a j-cycle with phase phi has the angles
(k + phi)/j.  Two such grids (j, phi1) and (l, phi2) with g = gcd(j, l)
differ by (l k1 - j k2 + l phi1 - j phi2)/(jl), and l k1 - j k2 runs over
gZ, so their closest approach is

    dist(l phi1 - j phi2, gZ) / (jl) = dist((l/g) phi1 - (j/g) phi2, Z) / lcm(j, l),

while one grid's own gap is 1/j.  So the smallest spacing is the minimum of
1/J (J the longest cycle) and this distance over all pairs of cycles, equal
lengths included.  The phases are multiples of 2**-53, which makes the
distance an integer multiple of 2**-53 computed exactly in uint64, and the
smallest spacing the exact value rounded once.  It never exceeds the
unmodified 1/max lcm: two cycles realising the max lcm come within
1/(2 lcm) of each other (or, if the max is lcm(J, J), 1/J is present), and
rounding is monotone, so the floats compare exactly too.  Both smallest
spacings thus come from the same pairs and the same lcm, and one sweep
over the pairs of cycles of a batch (``_pair_gaps``) takes both.

The largest spacing is exactly 1/J whenever some J-cell is empty: the
J-grid cuts the circle into J cells of length 1/J, and the two ends of a
cell that holds no other angle are consecutive.  When n - J < J the other
n - J angles lie inside at most n - J cells, so one is empty (pigeonhole).
In the other trials (about 30% at theta = 1) one occupancy row per trial
records the cell of every other angle, with no sort; its cell indices are
exact once no other cycle comes within 2**-48 of the J-grid, which the
exact pairwise distances tell.  Only trials with every J-cell occupied, or
with a cycle that close to the grid, sort their n angles: at theta = 1,
1.7% of all trials at n = 1000 and 0.2% at n = 16000.  The sort gives every
gap within 2**-50, so the largest spacing is inexact, by at most 2**-50,
only in those trials (see ``mod_gap_extremes``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .ewens import CycleCounts, TrialBatch

__all__ = [
    "SpacingStats",
    "NormalizedSpacings",
    "spacings_perm",
    "spacings_mod",
    "normalized_spacings",
    "max_pairwise_lcm",
]


@dataclass
class SpacingStats:
    """Largest and smallest circular gaps between consecutive distinct angles.

    ``largest_exact``/``smallest_exact`` carry exact values when the angles
    were rational (the unmodified ensemble); they are None for the modified
    ensemble, whose angles are continuous.
    """

    n: int
    largest: float
    smallest: float
    largest_exact: Optional[Fraction] = None
    smallest_exact: Optional[Fraction] = None

    def __post_init__(self):
        if not 0 < self.smallest <= self.largest <= 1:
            raise ValueError("need 0 < smallest <= largest <= 1")


@dataclass(frozen=True)
class NormalizedSpacings:
    """Largest spacing scaled by n, smallest by n^2 (the tight normalisations)."""

    nD: float
    n2d: float


#: pairwise evaluations per block in _pair_gaps; bounds its memory for any
#: batch size
_PAIR_BLOCK = 2**18

#: phases are multiples of 2**-53 (what ``Generator.random`` draws)
_PHASE_BITS = 53


def max_pairwise_lcm(counts: CycleCounts) -> int:
    """max lcm(k, l) over present cycle lengths, k = l allowed."""
    distinct = np.unique(counts.lengths)
    return int(np.lcm.outer(distinct, distinct).max())


def spacings_perm(counts: CycleCounts) -> SpacingStats:
    """Extremal spacings of the unmodified spectrum, both in closed form:
    largest = 1/(longest cycle), smallest = 1/max_pairwise_lcm."""
    largest = Fraction(1, int(counts.lengths[-1]))
    smallest = Fraction(1, max_pairwise_lcm(counts))
    return SpacingStats(counts.n, float(largest), float(smallest), largest, smallest)


def _phase_integers(phases: np.ndarray) -> np.ndarray:
    """m = phi * 2**53 as uint64, refusing phases off the 2**-53 grid."""
    scaled = phases * float(2**_PHASE_BITS)  # exact: a power-of-two scaling
    if not np.array_equal(scaled, np.floor(scaled)):
        raise ValueError(
            "modified spacings need phases on the 2**-53 grid of Generator.random; "
            f"got {float(phases[scaled != np.floor(scaled)][0])!r}"
        )
    return scaled.astype(np.uint64)


def _cycle_indexes(first: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Flat indexes of sizes[i] consecutive cycles from first[i], row after row."""
    return np.repeat(first - np.cumsum(sizes) + sizes, sizes) + np.arange(sizes.sum())


def _pair_gaps(batch: TrialBatch) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per trial, the closest approach of two distinct cycles' rotated grids,
    and of any other cycle to the trial's last (longest) one (inf if none),
    and the max lcm(k, l) over its present cycle lengths, k = l allowed.

    Cycles (j, phi1) and (l, phi2) come as close as
    dist((l/g) phi1 - (j/g) phi2, Z) / lcm(j, l), g = gcd(j, l).  With
    phi = m 2**-53 the distance is d 2**-53 for r = ((l/g) m1 - (j/g) m2)
    mod 2**53 and d = min(r, 2**53 - r): exact in uint64, whose wrap mod
    2**64 is exact mod 2**53.  d / lcm is then one correctly rounded division.
    The max lcm starts from the longest cycle J = lcm(J, J), above the
    lcm(j, j) = j of every length j that no other cycle shares, so pairs of
    distinct cycles give the rest.  Each trial's k (k - 1) / 2 pairs are
    listed flat, trial after trial, with no padding to a wider trial; a
    block takes whole trials up to _PAIR_BLOCK pairs (or one wider trial).
    """
    if batch.n > 2**27:  # lcm(j, l) <= n**2 / 4 must stay exact in float64
        raise ValueError(f"modified spacings are exact up to n = 2**27, got n = {batch.n}")
    mask = np.uint64(2**_PHASE_BITS - 1)
    phases = _phase_integers(batch.phases)
    starts, sizes = batch.starts, np.diff(batch.starts)
    closest, to_last = np.full(batch.trials, np.inf), np.full(batch.trials, np.inf)
    max_lcm = batch.lengths[starts[1:] - 1]
    live = np.flatnonzero(sizes > 1)
    pairs = sizes[live] * (sizes[live] - 1) // 2
    ends = np.cumsum(pairs)
    lo = 0
    while lo < len(live):
        done = ends[lo] - pairs[lo]
        hi = max(lo + 1, int(np.searchsorted(ends, done + _PAIR_BLOCK, "right")))
        rows = live[lo:hi]
        k, last = sizes[rows], starts[rows + 1] - 1
        cycles = _cycle_indexes(starts[rows], k)
        later = np.repeat(last, k) - cycles  # the cycles after each in its trial
        first = np.repeat(cycles, later)
        second = first + 1 + np.arange(len(first)) - np.repeat(np.cumsum(later) - later, later)
        j, l = batch.lengths[first], batch.lengths[second]
        g = np.gcd(j, l)
        lcm = j // g * l
        r = (l // g).astype(np.uint64) * phases[first]
        r -= (j // g).astype(np.uint64) * phases[second]
        r &= mask
        gaps = np.minimum(r, mask + np.uint64(1) - r).astype(np.float64)
        gaps /= lcm
        offsets = ends[lo:hi] - pairs[lo:hi] - done  # each trial's first pair
        max_lcm[rows] = np.maximum(max_lcm[rows], np.maximum.reduceat(lcm, offsets))
        closest[rows] = np.minimum.reduceat(gaps, offsets)
        gaps[second != np.repeat(last, pairs[lo:hi])] = np.inf
        to_last[rows] = np.minimum.reduceat(gaps, offsets)
        lo = hi
    return closest * 2.0**-_PHASE_BITS, to_last * 2.0**-_PHASE_BITS, max_lcm


#: angles sorted at once by mod_gap_extremes; bounds its memory for any batch size
_ANGLE_BLOCK = 2**16


def _mod_angles(lengths: np.ndarray, phases: np.ndarray) -> np.ndarray:
    """Eigenangles (k + phi)/j, k = 0..j-1, cycle after cycle.

    They already lie in [0, 1) since 0 <= phi < 1.
    """
    cycle = np.repeat(np.arange(len(lengths)), lengths)
    k = np.arange(len(cycle)) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    return (k + phases[cycle]) / lengths[cycle]


def _sorted_largest(batch: TrialBatch, trials: np.ndarray) -> np.ndarray:
    """Largest circular gap of the given trials' angles by a plain sort; a
    block of trials sorts as one 2-d array, one row per trial."""
    n, starts = batch.n, batch.starts
    largest = np.empty(len(trials))
    step = max(1, _ANGLE_BLOCK // n)
    for lo in range(0, len(trials), step):
        rows = trials[lo : lo + step]
        sizes = starts[rows + 1] - starts[rows]
        cycles = _cycle_indexes(starts[rows], sizes)
        angles = _mod_angles(batch.lengths[cycles], batch.phases[cycles]).reshape(len(rows), n)
        angles.sort(axis=1)
        wrap = 1.0 - angles[:, -1] + angles[:, 0]
        largest[lo : lo + step] = np.maximum(np.diff(angles, axis=1).max(axis=1), wrap)
    return largest


def _has_empty_cell(batch: TrialBatch, trials: np.ndarray) -> np.ndarray:
    """Whether some J-cell of each given trial holds no other cycle's angle,
    J the trial's longest (last) cycle, read off an occupancy row per trial.

    The angle (k + phi)/j of another cycle lies at s = k (J/j) + phi (J/j)
    - phi_J + 1 in units of one cell, in (0, J + 1): slot floor(s) of a row
    of J + 1, whose slot 0 (below the first J-grid point) is the wrap end
    of the last cell, slot J.  The trials must keep every other angle 2**-48
    from the J-grid (``to_longest`` of ``_pair_gaps``): then s lies J 2**-48
    from any integer, while its float error (six roundings of values below
    J + 1, that of J/j carried into both products) stays below J 2**-49, so
    every slot is exact.  s stays local to its trial and the row's offset
    is added after the floor, since a float offset would eat that margin.
    """
    n, starts, lengths, phases = batch.n, batch.starts, batch.lengths, batch.phases
    empty = np.empty(len(trials), dtype=bool)
    step = max(1, _ANGLE_BLOCK // n)
    for lo in range(0, len(trials), step):
        rows = trials[lo : lo + step]
        last = starts[rows + 1] - 1
        longest = lengths[last]
        sizes = last - starts[rows]  # the other cycles of each trial
        owner = np.repeat(np.arange(len(rows)), sizes)
        cycles = _cycle_indexes(starts[rows], sizes)
        j = lengths[cycles]
        scale = longest[owner] / j
        base = phases[cycles] * scale - phases[last][owner] + 1.0
        width = longest + 1
        offset = np.cumsum(width) - width
        s = np.arange(j.sum(), dtype=np.float64)  # the point's index, then k
        s -= np.repeat((np.cumsum(j) - j).astype(np.float64), j)
        s *= np.repeat(scale, j)
        s += np.repeat(base, j)
        slot = s.astype(np.int64)  # the floor, as s > 0
        slot += np.repeat(offset[owner], j)
        occupied = np.zeros(width.sum(), dtype=bool)
        occupied[slot] = True
        occupied[offset + longest] |= occupied[offset]
        occupied[offset] = True
        empty[lo : lo + step] = ~np.logical_and.reduceat(occupied, offset)
    return empty


def mod_gap_extremes(batch: TrialBatch) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(largest, smallest) circular gap of every trial's modified spectrum,
    and the max lcm over its cycle lengths (``_pair_gaps``), which gives the
    plain smallest gap 1/max lcm; the lengths ascend within each trial, as
    drawn.

    With J the longest cycle, the smallest gap is the smaller of 1/J and
    the closest approach of two cycles (``_pair_gaps``): exact, rounded
    once.  The largest is exactly 1/J when some J-cell holds no other
    angle: always when n - J < J (pigeonhole), and in the other trials
    whenever their occupancy row (``_has_empty_cell``) has an empty cell.
    That row is read only once no other cycle comes within 2**-48 of the
    J-grid.  The rest sort their n angles, which gives every gap within
    2**-50, capped at 1/J: the trials with every J-cell occupied, whose
    gaps are all at most 1/J - 2**-48 under that guard, so that the sorted
    value stays below 1/J, and the trials that fail it.
    """
    longest = batch.lengths[batch.starts[1:] - 1]
    closest, to_longest, max_lcm = _pair_gaps(batch)
    smallest = np.minimum(1.0 / longest, closest)
    largest = 1.0 / longest
    rest = np.flatnonzero(batch.n - longest >= longest)
    clear = rest[to_longest[rest] >= 2.0**-48]
    rest = np.setdiff1d(rest, clear[_has_empty_cell(batch, clear)])
    largest[rest] = np.minimum(_sorted_largest(batch, rest), largest[rest])
    return largest, smallest, max_lcm


def spacings_mod(trial: TrialBatch) -> SpacingStats:
    """Extremal spacings of one modified trial, sorted by length first (see mod_gap_extremes)."""
    order = np.argsort(trial.lengths, kind="stable")
    batch = TrialBatch(trial.n, trial.lengths[order], trial.phases[order])
    largest, smallest, _ = mod_gap_extremes(batch)
    return SpacingStats(n=trial.n, largest=float(largest[0]), smallest=float(smallest[0]))


def normalized_spacings(stats: SpacingStats) -> NormalizedSpacings:
    """n * largest and n^2 * smallest; n*largest >= 1 always (pigeonhole)."""
    return NormalizedSpacings(
        nD=stats.n * stats.largest, n2d=stats.n**2 * stats.smallest
    )
