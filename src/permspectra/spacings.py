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

For the phase-modified ensemble the n eigenangles are almost surely
distinct floats and both extremes come from a plain sort.  Rotating each
grid can only tighten the closest approach between two grids, which is why
the modified smallest spacing never exceeds the unmodified one on the same
cycle structure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .ewens import CycleCounts, TrialBatch
from .spectral import ModifiedSpectrum, _mod_angles

__all__ = [
    "SpacingStats",
    "NormalizedSpacings",
    "spacings_perm",
    "spacings_mod",
    "two_cycle_min_spacing",
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


#: lcm evaluations per block in max_lcms; bounds its memory for any batch size
_LCM_BLOCK = 2**18


def max_lcms(batch: TrialBatch) -> np.ndarray:
    """max lcm(k, l) over the present cycle lengths of every trial, k = l allowed.

    The distinct lengths of each trial fill one row of a zero-padded grid
    (lcm with a pad is 0, never the max); a block of rows takes every
    pairwise lcm within each row at once.
    """
    lengths, trial = batch.lengths, batch.trial_of_cycle()
    distinct = np.ones(len(lengths), dtype=bool)
    distinct[1:] = (lengths[1:] != lengths[:-1]) | (trial[1:] != trial[:-1])
    lengths, trial = lengths[distinct], trial[distinct]
    column = np.arange(len(lengths)) - np.searchsorted(trial, trial)
    grid = np.zeros((batch.trials, int(column.max()) + 1), dtype=np.int64)
    grid[trial, column] = lengths
    best = np.empty(batch.trials, dtype=np.int64)
    step = max(1, _LCM_BLOCK // grid.shape[1] ** 2)
    for lo in range(0, batch.trials, step):
        rows = grid[lo : lo + step]
        best[lo : lo + step] = np.lcm(rows[:, :, None], rows[:, None, :]).max(axis=(1, 2))
    return best


def max_pairwise_lcm(counts: CycleCounts) -> int:
    """max lcm(k, l) over present cycle lengths, k = l allowed."""
    return int(max_lcms(TrialBatch(counts.n, counts.lengths))[0])


def spacings_perm(counts: CycleCounts) -> SpacingStats:
    """Extremal spacings of the unmodified spectrum, both in closed form:
    largest = 1/(longest cycle), smallest = 1/max_pairwise_lcm."""
    largest = Fraction(1, int(counts.lengths[-1]))
    smallest = Fraction(1, max_pairwise_lcm(counts))
    return SpacingStats(counts.n, float(largest), float(smallest), largest, smallest)


#: angles sorted at once by mod_gap_extremes; bounds its memory for any batch size
_ANGLE_BLOCK = 2**16


def mod_gap_extremes(batch: TrialBatch) -> tuple[np.ndarray, np.ndarray]:
    """(largest, smallest) circular gap of every trial's modified spectrum.

    All trials have n angles, so a block of trials sorts as one 2-d array,
    one row per trial; blocks hold about ``_ANGLE_BLOCK`` angles.
    """
    n, trials = batch.n, batch.trials
    if n == 1:
        return np.ones(trials), np.ones(trials)
    largest, smallest = np.empty(trials), np.empty(trials)
    step = max(1, _ANGLE_BLOCK // n)
    for lo in range(0, trials, step):
        hi = min(lo + step, trials)
        cycles = slice(batch.starts[lo], batch.starts[hi])
        angles = _mod_angles(batch.lengths[cycles], batch.phases[cycles]).reshape(hi - lo, n)
        angles.sort(axis=1)
        gaps = np.diff(angles, axis=1)
        wrap = 1.0 - angles[:, -1] + angles[:, 0]
        largest[lo:hi] = np.maximum(gaps.max(axis=1), wrap)
        smallest[lo:hi] = np.minimum(gaps.min(axis=1), wrap)
    return largest, smallest


def spacings_mod(spectrum: ModifiedSpectrum) -> SpacingStats:
    """Extremal spacings of the modified spectrum (n angles, a.s. distinct)."""
    largest, smallest = mod_gap_extremes(TrialBatch(spectrum.n, spectrum.lengths, spectrum.phases))
    return SpacingStats(n=spectrum.n, largest=float(largest[0]), smallest=float(smallest[0]))


def two_cycle_min_spacing(p: int, q: int, shift: float) -> float:
    """Closest approach of a p-th-root grid and a shifted q-th-root grid.

    For coprime p, q and relative rotation ``shift`` in (0, 1) the minimum of
    |l/q + shift - k/p| over integers k, l equals
    min({shift p q}, 1 - {shift p q}) / (p q): the lattice of differences
    l/q - k/p is exactly (1/pq) Z.
    """
    if math.gcd(p, q) != 1:
        raise ValueError(f"p and q must be coprime, got p={p}, q={q}")
    if not 0 < shift < 1:
        raise ValueError(f"shift must lie in (0, 1), got {shift}")
    f = (shift * p * q) % 1.0
    return min(f, 1.0 - f) / (p * q)


def normalized_spacings(stats: SpacingStats) -> NormalizedSpacings:
    """n * largest and n^2 * smallest; n*largest >= 1 always (pigeonhole)."""
    return NormalizedSpacings(
        nD=stats.n * stats.largest, n2d=stats.n**2 * stats.smallest
    )
