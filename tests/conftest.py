"""Shared brute-force oracles for the test suite.

These deliberately avoid the library's own fast paths: moments come from
exhaustive sums over all cycle types, sampler laws are checked against the
exact type probabilities, and spacing formulas against full enumeration
(``enumerated_gap_range``).  The Bernoulli-word helpers are the exception:
they feed hand-written or fully drawn words through the sampler's own
thresholds and length reading, so that those can be tested bit by bit.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from permspectra import (
    Arc,
    CycleCounts,
    EwensParams,
    count_arc_perm,
    cycle_type_probability,
    iter_cycle_types,
)
from permspectra.ewens import (
    _dense_thresholds,
    _sample_age_ordered_batch,
    _sorted_lengths,
)


def counts_from_lengths(lengths) -> CycleCounts:
    lengths = [int(x) for x in lengths]
    return CycleCounts(n=sum(lengths), counts=dict(Counter(lengths)))


@dataclass
class BernoulliWord:
    """Realised prefix of the word (xi_1, ..., xi_horizon).

    ``bits[k-1]`` is xi_k; xi_1 is always 1.  ``n`` is the permutation size
    the word encodes, ``horizon`` how many bits are materialised (>= n).
    """

    n: int
    bits: np.ndarray
    horizon: int

    def __post_init__(self):
        if self.n < 1 or self.horizon < self.n or len(self.bits) != self.horizon:
            raise ValueError("inconsistent word dimensions")
        if self.bits[0] != 1:
            raise ValueError("first bit must be 1")


def sample_bernoulli_word(
    n: int, params: EwensParams, rng: np.random.Generator
) -> BernoulliWord:
    """Draw the first n bits of the word; P(xi_k = 1) = theta/(theta+k-1)."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    bits = (rng.random(n) < _dense_thresholds(n, params.theta)).astype(np.uint8)
    bits[0] = 1  # probability theta/theta = 1; forced for exactness
    return BernoulliWord(n=n, bits=bits, horizon=n)


def cycle_counts_from_word(word: BernoulliWord) -> CycleCounts:
    """Cycle counts read off the word: j-spacings of (1, xi_2, .., xi_n, 1).

    The closing sentinel 1 at position n+1 turns the run after the last one
    into a final spacing, which is what makes the lengths sum to n.
    """
    ones = np.flatnonzero(word.bits[: word.n]) + 1
    return CycleCounts(word.n, lengths=_sorted_lengths(word.n, ones, np.array([0, len(ones)])))


def partition_key(counts: CycleCounts) -> tuple:
    out = []
    for j in sorted(counts.counts, reverse=True):
        out.extend([j] * counts.counts[j])
    return tuple(out)


def partition_probabilities(n: int, theta: float):
    """All cycle types of size n with their exact Ewens probabilities."""
    params = EwensParams(theta)
    types = list(iter_cycle_types(n))
    probs = np.array([cycle_type_probability(t, params) for t in types])
    return types, probs


def exhaustive_moments_perm(n: int, theta: float, arc: Arc) -> tuple[float, float]:
    """Mean and variance of the arc count by summing over every cycle type."""
    types, probs = partition_probabilities(n, theta)
    values = np.array([count_arc_perm(t, arc) for t in types], dtype=np.float64)
    mean = float(probs @ values)
    return mean, float(probs @ values**2) - mean**2


def feller_type_counts(n: int, theta: float, trials: int, rng) -> dict:
    """Cycle-type frequencies of the word sampler, fully vectorised.

    Words of length n are encoded as integers over bits 2..n (bit 1 is 1
    surely), counted with bincount, and each realised code is decoded once.
    """
    k = np.arange(2, n + 1, dtype=np.float64)
    bits = rng.random((trials, n - 1)) < theta / (theta + k - 1.0)
    codes = bits @ (1 << np.arange(n - 1)).astype(np.int64)
    code_counts = np.bincount(codes.astype(np.int64), minlength=1 << (n - 1))
    freq: dict[tuple, int] = {}
    for code in np.flatnonzero(code_counts):
        word = [1] + [(int(code) >> i) & 1 for i in range(n - 1)]
        ones = [i + 1 for i, b in enumerate(word) if b] + [n + 1]
        key = tuple(sorted(np.diff(ones).tolist(), reverse=True))
        freq[key] = freq.get(key, 0) + int(code_counts[code])
    return freq


def crp_type_counts(n: int, theta: float, trials: int, rng) -> dict:
    """Cycle-type frequencies of the restaurant sampler, vectorised over trials."""
    labels = _sample_age_ordered_batch(n, theta, trials, rng)
    sizes = (labels[:, :, None] == np.arange(n)[None, None, :]).sum(axis=1)
    sizes = np.sort(sizes, axis=1)[:, ::-1]
    base = (n + 1) ** np.arange(n, dtype=np.int64)
    keys = sizes @ base
    uniq, cnt = np.unique(keys, return_counts=True)
    freq = {}
    for key, c in zip(uniq, cnt):
        digits = []
        k = int(key)
        for _ in range(n):
            digits.append(k % (n + 1))
            k //= n + 1
        freq[tuple(sorted((d for d in digits if d), reverse=True))] = int(c)
    return freq


def type_chisquare_pvalue(freq: dict, n: int, theta: float, trials: int) -> float:
    """Chi-square p-value of observed type frequencies against the exact law."""
    from scipy.stats import chisquare

    types, probs = partition_probabilities(n, theta)
    observed = np.array([freq.get(partition_key(t), 0) for t in types], dtype=float)
    expected = probs * trials
    # guard: exact probabilities sum to 1, but renormalise away float dust
    expected *= observed.sum() / expected.sum()
    return float(chisquare(observed, expected).pvalue)


def perm_angle_arrays(counts: CycleCounts) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Distinct angles of the permutation spectrum as reduced fractions.

    Returns (numerators, denominators, multiplicities), sorted by angle.
    A j-cycle contributes each j-th root of unity once, so the multiplicity
    of a reduced angle a/b is the total count of cycles whose length b
    divides.  Distinct reduced fractions with denominators <= n are farther
    apart than 1/n^2, far above float64 resolution, so sorting by the float
    value orders the exact fractions correctly.
    """
    nums, dens, weights = [], [], []
    for j, a in counts.counts.items():
        k = np.arange(j, dtype=np.int64)
        g = np.gcd(k, j)
        nums.append(k // g)
        dens.append(j // g)
        weights.append(np.full(j, a, dtype=np.int64))
    num = np.concatenate(nums)
    den = np.concatenate(dens)
    wt = np.concatenate(weights)
    order = np.argsort(num / den, kind="stable")
    num, den, wt = num[order], den[order], wt[order]
    new = np.empty(len(num), dtype=bool)
    new[0] = True
    new[1:] = num[1:] * den[:-1] != num[:-1] * den[1:]  # exact neighbour test
    group = np.cumsum(new) - 1
    mult = np.bincount(group, weights=wt).astype(np.int64)
    return num[new], den[new], mult


def enumerate_angles_perm(counts: CycleCounts) -> list[tuple[Fraction, int]]:
    """Sorted distinct eigenangles of the permutation matrix with multiplicities."""
    num, den, mult = perm_angle_arrays(counts)
    return [(Fraction(int(a), int(b)), int(m)) for a, b, m in zip(num, den, mult)]


def _circular_gaps_exact(num: np.ndarray, den: np.ndarray):
    """Exact consecutive gaps of sorted reduced fractions on the circle.

    Returns integer arrays (gap_num, gap_den); the wrap-around gap closes the
    circle.  int64 is safe: cross products are bounded by n^2 * n^2.
    """
    nxt_num = np.roll(num, -1).copy()
    nxt_den = np.roll(den, -1).copy()
    nxt_num[-1] += nxt_den[-1]  # wrap: last gap runs to first angle + 1
    gap_num = nxt_num * den - num * nxt_den
    gap_den = den * nxt_den
    return gap_num, gap_den


def _extreme_fraction(gap_num, gap_den, want_max: bool) -> Fraction:
    """Exact max or min of an array of positive fractions.

    Float quotients select near-extremal candidates (each quotient is exact
    to one rounding, so a 1e-12 relative window cannot miss the true
    extreme); candidates are then compared by integer cross-multiplication,
    which stays cheap even when thousands of gaps tie.
    """
    approx = gap_num / gap_den
    if want_max:
        idx = np.flatnonzero(approx >= approx.max() * (1.0 - 1e-12))
    else:
        idx = np.flatnonzero(approx <= approx.min() * (1.0 + 1e-12))
    nums, dens = gap_num[idx], gap_den[idx]
    g = np.gcd(nums, dens)
    nums, dens = nums // g, dens // g
    span = int(dens.max()) + 1
    if int(nums.max()) < 2**63 // span:
        keys = nums * np.int64(span) + dens
        distinct = np.unique(keys, return_index=True)[1]  # ties collapse here
    else:
        distinct = np.arange(len(nums))  # key would overflow; compare all
    best_num, best_den = int(nums[distinct[0]]), int(dens[distinct[0]])
    for i in distinct[1:]:
        num, den = int(nums[i]), int(dens[i])
        better = num * best_den > best_num * den
        if better == want_max and num * best_den != best_num * den:
            best_num, best_den = num, den
    return Fraction(best_num, best_den)


def enumerated_gap_range(counts: CycleCounts) -> tuple[Fraction, Fraction]:
    """(smallest, largest) circular gap by full enumeration, exact.

    Enumeration oracle for the closed forms of ``spacings_perm``: it sorts
    every distinct eigenangle as a reduced fraction (distinct fractions
    with denominators up to n are farther apart than float64 noise, so a
    float sort orders them correctly) and compares the gaps exactly.
    """
    num, den, _ = perm_angle_arrays(counts)
    if len(num) == 1:
        return Fraction(1), Fraction(1)
    gap_num, gap_den = _circular_gaps_exact(num, den)
    return (
        _extreme_fraction(gap_num, gap_den, want_max=False),
        _extreme_fraction(gap_num, gap_den, want_max=True),
    )
