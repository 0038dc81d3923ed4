"""Shared brute-force oracles for the test suite.

These deliberately avoid the library's own fast paths: moments come from
exhaustive sums over all cycle types, sampler laws are checked against the
exact type probabilities, and spacing formulas against full enumeration
(``enumerated_gap_range``; ``exact_mod_gap_range`` for the modified
ensemble, on exact integer angles).  The Bernoulli-word helpers are the
exception: they draw every bit of a word against its probability
(``_dense_thresholds``, the bit-by-bit sampler that the thinning walk
replaced) and feed hand-written or fully drawn words through the sampler's
own length reading, so that it can be tested bit by bit.
The ``*_formula`` functions are earlier forms that the library must equal
bit for bit, their terms built as whole arrays and summed in the streamed
kernels' order (``blocked_sum``: pairwise within each block, ``math.fsum``
across blocks): the full-array formulas of the plain float Cesàro sums in
``limits`` (which its blocked kernel replaced; ``c_numeric_fractions`` is
its former all-Fraction path), and of the modified ones,
which the library now sums exactly and must match within 1e-13 (its exact
values are the brute-force ``h_sum_exact`` and the oracles built on it,
``covariance_Dtilde_exact`` and ``ctilde_numeric_exact``), the separate
variance formulas of
``exact_moments_*`` (now the diagonal of ``exact_covariance_*``; the plain
one to a relative 1e-13, since its cross term is a direct convolution where
the library takes an FFT), the untiled rational fractional parts and the
whole-array psi table (``psi_values_full``), plain mean (``perm_mean_formula``),
modified covariance, identity sums (``identity_sums_formula``) and coupling
tail bound (``coupling_tail_formula``), which the library now builds a
block of j at a time.  The
quadratic identity's O(n^2) double sum, which the library replaced by an
O(n) closed form, is an oracle here, as are the one-period means of
{j p/q}, {j p/q}^2 and {j p/q}{j r/s} (``period_means``, ``s3_period_mean``)
and the affine pair mean as an integral (``affine_s3_mean``), with the
arcs those constants describe (``declared_arc``), and so are the one-trial sparse word
(``ones_positions_sparse``, from the thinning rule on a raw generator,
``ones_after``), the one-trial coupled word (``reference_trial``)
and the modified count over [alpha, beta) (``count_arc_mod_left``).
Whole sparse words are checked against the exact laws of the number of cycles
(``cycle_number_pmf``) and of the longest cycle (``longest_cycle_bins``).
``mesoscopic_per_n`` is the mesoscopic driver as it drew before its plain
rows shared one word per trial: a fresh draw of every trial at each n.
A drawn sample is a ``TrialBatch``; the tests build and read one through
``cycle_type`` (a hand-built cycle type), ``trial_of`` (one trial of a
batch), ``dense_counts`` (the vector [a_1, ..., a_n]) and
``coupled_counts`` (W = a - e_L + T of a coupled trial).
"""

from __future__ import annotations

import functools
import math
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from permspectra import (
    AffineRelated,
    Arc,
    CountMoments,
    CovarianceMatrix,
    DeclaredIrrational,
    EwensParams,
    count_arc_perm,
    psi_values,
)
from permspectra import cesaro, limits
from permspectra.cesaro import _NEAR_ONE
from permspectra.ewens import TrialBatch, _sorted_lengths
from permspectra.spacings import _mod_angles
from permspectra.spectral import frac_parts


def ones_after(pos: int, limit: int, theta: float, rng) -> list[int]:
    """Positions of the ones in (pos, limit] by the thinning rule, one trial
    on its own, two ``rng.random()`` per candidate: from k, the skip
    floor(-log1p(-u) / log1p(theta/k)) proposes c = k + 1 + skip, kept when
    v (theta + c - 1) < theta + k, and the walk goes on from c.  The float
    work is in ``np.float64`` scalars, whose bits match the walk's arrays."""
    ones, theta = [], np.float64(theta)
    while pos < limit:
        u, v = np.float64(rng.random()), np.float64(rng.random())
        skip = np.floor(-np.log1p(-u) / np.log1p(theta / pos))
        c = pos + 1 + int(min(skip, limit - pos))
        if c <= limit and v * (theta + (c - 1)) < theta + pos:
            ones.append(c)
        pos = c
    return ones


def ones_positions_sparse(n: int, theta: float, rng) -> np.ndarray:
    """Positions of ones in (xi_1, ..., xi_n) sampled by gap skipping, one
    trial on its own."""
    return np.asarray([1, *ones_after(1, n, theta, rng)], dtype=np.int64)


def reference_trial(n, theta, rng, phases, horizon):
    """One trial from a raw generator, one uniform per draw: the word's ones
    up to n, then their phases, then the coupled tail's ones in (n, horizon]."""
    ones = ones_positions_sparse(n, theta, rng)
    phase = rng.random(len(ones)) if phases else None
    tail = ones_after(n, horizon, theta, rng) if horizon else []
    return ones, phase, np.array(tail, dtype=np.int64)


def cycle_number_pmf(n: int, theta: float, size: int = 256) -> np.ndarray:
    """P(K = k), k < size, for K the number of cycles: a sum of independent
    Bernoulli(theta/(theta+i-1)), i = 1..n, whose generating function is
    G(z) = Gamma(theta z + n) Gamma(theta) / (Gamma(theta z) Gamma(theta + n)).
    G at the size-th roots of unity, inverted by an FFT; the mass at k >= size
    aliases in, so size must lie far beyond theta log n.  Each lnGamma near n
    is off by about n eps, so each probability by as much (5e-11 at 10^6)."""
    from scipy.special import loggamma

    z = theta * np.exp(2j * np.pi * np.arange(size) / size)
    log_g = loggamma(z + n) - loggamma(z) + loggamma(theta) - loggamma(theta + n)
    return np.fft.fft(np.exp(log_g)).real / size


def longest_cycle_bins(n: int, theta: float, cells: int) -> tuple[np.ndarray, np.ndarray]:
    """Edges and probabilities of the longest cycle L in ``cells`` bins
    (e_i, e_{i+1}] of about equal mass over (n/2, n], plus the bin L <= n/2
    first: above n/2 at most one cycle fits, so P(L = j) = (theta/j) psi(n, j)."""
    j = np.arange(1, n + 1)
    mass = (theta / j * psi_values(n, theta))[n // 2 :]  # L = n//2 + 1 .. n
    cumulative = np.cumsum(mass)
    cuts = np.unique(np.searchsorted(cumulative, cumulative[-1] * np.arange(1, cells) / cells))
    edges = np.concatenate(([0, n // 2], n // 2 + 1 + cuts, [n]))
    upper = np.concatenate(([0.0], cumulative[cuts], [cumulative[-1]]))
    return edges, np.concatenate(([1.0 - cumulative[-1]], np.diff(upper)))


def pooled_chisquare_pvalue(observed, probs, floor: float = 10.0) -> float:
    """Chi-square p-value of counts ``observed`` against cell probabilities
    ``probs`` (summing to one), consecutive cells pooled until each expects
    at least ``floor`` draws; a short last pool joins the one before."""
    from scipy.stats import chisquare

    observed, expected = np.asarray(observed, float), np.asarray(probs) * np.sum(observed)
    obs, exp, o, e = [], [], 0.0, 0.0
    for oi, ei in zip(observed.tolist(), expected.tolist()):
        o, e = o + oi, e + ei
        if e >= floor:
            obs.append(o), exp.append(e)
            o, e = 0.0, 0.0
    obs[-1], exp[-1] = obs[-1] + o, exp[-1] + e
    return float(chisquare(obs, np.array(exp) * sum(obs) / sum(exp)).pvalue)


def count_arc_mod_left(spectrum: TrialBatch, arc: Arc) -> int:
    """``count_arc_mod`` over [alpha, beta) instead of (alpha, beta]: ceil in
    place of floor in every cycle's term."""
    j, phi = spectrum.lengths.astype(np.float64), spectrum.phases
    per_cycle = np.ceil(j * float(arc.beta) - phi) - np.ceil(j * float(arc.alpha) - phi)
    return int(per_cycle.sum())


def cycle_type(n: int, counts=None, *, lengths=None) -> TrialBatch:
    """A hand-built one-trial batch, from ``{j: a_j}`` or from cycle lengths
    in any order, sorted as ``TrialBatch`` requires."""
    if (counts is None) == (lengths is None):
        raise ValueError("give exactly one of counts and lengths")
    if counts is not None:
        if any(a < 0 for a in counts.values()):
            raise ValueError("multiplicities must be non-negative")
        lengths = [j for j in sorted(counts) for _ in range(counts[j])]
    return TrialBatch(n, np.sort(np.asarray(lengths, dtype=np.int64)))


def counts_from_lengths(lengths) -> TrialBatch:
    lengths = [int(x) for x in lengths]
    return cycle_type(sum(lengths), lengths=lengths)


def trial_of(batch: TrialBatch, t: int) -> TrialBatch:
    """Trial t of a batch as a one-trial batch, with its phases if drawn."""
    lo, hi = batch.starts[t], batch.starts[t + 1]
    phases = None if batch.phases is None else batch.phases[lo:hi]
    return TrialBatch(batch.n, batch.lengths[lo:hi], phases)


def dense_counts(trial: TrialBatch) -> np.ndarray:
    """The dense vector [a_1, ..., a_n] of a one-trial batch."""
    return np.bincount(trial.lengths, minlength=trial.n + 1)[1:]


def coupled_counts(batch: TrialBatch, t: int = 0) -> np.ndarray:
    """W = a - e_L + T of trial t of a coupled batch: W_j counts the
    j-spacings of its word with both endpoints within the horizon."""
    w = dense_counts(trial_of(batch, t))
    w[batch.closing[t] - 1] -= 1
    w += np.bincount(batch.tail[batch.tail_trial == t], minlength=batch.n + 1)[1:]
    return w


def _dense_thresholds(n: int, theta: float) -> np.ndarray:
    """P(xi_k = 1) = theta/(theta+k-1) for k = 1..n; the first is 1 exactly,
    since theta + 1 - 1 rounds to 0 for theta below 2^-53."""
    below = theta + np.arange(1, n + 1, dtype=np.float64) - 1.0
    below[0] = theta
    return theta / below


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


def cycle_counts_from_word(word: BernoulliWord) -> TrialBatch:
    """Cycle counts read off the word: j-spacings of (1, xi_2, .., xi_n, 1).

    The closing sentinel 1 at position n+1 turns the run after the last one
    into a final spacing, which is what makes the lengths sum to n.
    """
    ones = np.flatnonzero(word.bits[: word.n]) + 1
    return TrialBatch(word.n, _sorted_lengths(word.n, ones, np.array([0, len(ones)])))


def partition_key(counts: TrialBatch) -> tuple:
    out = []
    for j in sorted(counts.counts, reverse=True):
        out.extend([j] * counts.counts[j])
    return tuple(out)


def iter_cycle_types(n: int):
    """All cycle types of n-permutations (integer partitions as count dicts),
    as one-trial batches in a deterministic order."""

    def partitions(remaining: int, max_part: int, acc: dict[int, int]):
        if remaining == 0:
            yield cycle_type(n, dict(acc))
            return
        for part in range(min(remaining, max_part), 0, -1):
            acc[part] = acc.get(part, 0) + 1
            yield from partitions(remaining - part, part, acc)
            acc[part] -= 1
            if acc[part] == 0:
                del acc[part]

    yield from partitions(n, n, {})


def cycle_type_probability(counts: TrialBatch, params: EwensParams) -> float:
    """Exact Ewens probability of a cycle type.

    P(type) = [n! / prod_j j^{a_j} a_j!] * theta^K / (theta (theta+1) ... (theta+n-1)),
    evaluated in log space to survive n well beyond factorial overflow.
    """
    n, theta = counts.n, params.theta
    log_p = math.lgamma(n + 1) + counts.total_cycles() * math.log(theta)
    for j, a in counts.counts.items():
        log_p -= a * math.log(j) + math.lgamma(a + 1)
    log_p -= math.lgamma(theta + n) - math.lgamma(theta)
    return math.exp(log_p)


def expected_total_cycles(n: int, theta: float) -> float:
    """E K_n = sum_{k=0}^{n-1} theta/(theta+k)."""
    k = np.arange(n, dtype=np.float64)
    return float(np.sum(theta / (theta + k)))


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


def exact_law_moments_perm(n: int, theta: Fraction, arc: Arc) -> tuple[Fraction, Fraction]:
    """Mean and variance of the plain count as Fractions, over every cycle
    type with its exact Ewens probability; rational theta and endpoints."""
    rising = math.prod(theta + k for k in range(n))
    mean = second = Fraction(0)
    for counts in iter_cycle_types(n):
        a = counts.counts
        weight = Fraction(math.factorial(n), math.prod(j**m * math.factorial(m) for j, m in a.items()))
        p = weight * theta ** counts.total_cycles() / rising
        x = sum(m * (math.floor(j * arc.beta) - math.floor(j * arc.alpha)) for j, m in a.items())
        mean += p * x
        second += p * x * x
    return mean, second - mean**2


def plain_moments_mpmath(n: int, theta: Fraction, arc: Arc, dps: int = 60):
    """(mean, variance) of the plain count from the closed formulas that
    ``exact_moments_perm`` evaluates, summed in mpmath at ``dps`` digits:
    psi(n, j) as its product and the cross term as direct dot products.
    Rational theta; a float endpoint is taken at its exact binary value."""
    import mpmath

    def mpf(x: Fraction):
        return mpmath.mpf(x.numerator) / x.denominator

    alpha, beta = Fraction(arc.alpha), Fraction(arc.beta)
    with mpmath.workdps(dps):
        th = mpf(Fraction(theta))
        u = [mpmath.mpf(0)] + [
            mpf(j * beta % 1 - j * alpha % 1) / j for j in range(1, n + 1)
        ]
        psi, p = mpmath.mpf(1), [mpmath.mpf(0)]
        for j in range(1, n + 1):
            psi *= mpmath.mpf(n - j + 1) / (th + n - j)
            p.append(psi)
        sum1 = mpmath.fdot(p[1:], u[1:])
        first = th * mpmath.fsum(p[j] * j * u[j] ** 2 for j in range(1, n + 1))
        cross = mpmath.fsum(p[i] * mpmath.fdot(u[1:i], u[i - 1 : 0 : -1]) for i in range(2, n + 1))
        mean = n * mpf(beta - alpha) - th * sum1
        return mean, first + th**2 * (cross - sum1**2)


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
    """Cycle-type frequencies of the Chinese restaurant process, vectorised
    over trials: a second route to the exact type law, independent of the
    word.  Element i opens a new cycle with probability theta/(theta+i) and
    otherwise joins the cycle of a uniformly chosen earlier element."""
    labels = np.zeros((trials, n), dtype=np.int64)
    n_cycles = np.ones(trials, dtype=np.int64)
    for i in range(1, n):
        new = rng.random(trials) < theta / (theta + i)
        joined = labels[np.arange(trials), rng.integers(0, i, size=trials)]
        labels[:, i] = np.where(new, n_cycles, joined)
        n_cycles += new
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


def perm_angle_arrays(counts: TrialBatch) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
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


def enumerate_angles_perm(counts: TrialBatch) -> list[tuple[Fraction, int]]:
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


def enumerated_gap_range(counts: TrialBatch) -> tuple[Fraction, Fraction]:
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


# ---------------------------------------------------------------------------
# limit constants: equidistribution oracles and the full-array formulas
# ---------------------------------------------------------------------------


def enumerate_angles_mod(spectrum: TrialBatch) -> np.ndarray:
    """All n eigenangles (k + phi)/j mod 1 of the modified matrix, sorted."""
    return np.sort(_mod_angles(spectrum.lengths, spectrum.phases))


def exact_mod_gap_range(lengths, phases) -> tuple[Fraction, Fraction]:
    """(smallest, largest) circular gap of the modified spectrum, exactly.

    Phases are dyadic floats m 2**-53, so every angle (k + phi)/j is the
    integer (k 2**53 + m) L/j over the common denominator L 2**53, L the lcm
    of the lengths; the gaps are differences of sorted Python integers.
    """
    common = math.lcm(*{int(j) for j in lengths})
    keys = []
    for j, phi in zip(np.asarray(lengths).tolist(), np.asarray(phases).tolist()):
        m, scale = Fraction(phi) * 2**53, common // j
        assert m.denominator == 1, "phase off the 2**-53 grid"
        keys.extend(range(int(m) * scale, ((j << 53) + int(m)) * scale, scale << 53))
    keys.sort()
    gaps = [b - a for a, b in zip(keys, keys[1:])]
    gaps.append((common << 53) - keys[-1] + keys[0])
    return Fraction(min(gaps), common << 53), Fraction(max(gaps), common << 53)


def equidistribution_average(f, t: float, b: float, n: int) -> float:
    """(1/n) sum_{j<=n} f({j t + b}) for a vectorised f on [0, 1].

    For irrational t this tends to the integral of f; it is the generic
    numeric oracle behind every irrational-case constant.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    j = np.arange(1, n + 1, dtype=np.float64)
    x = j * t + b
    return float(np.mean(f(x - np.floor(x))))


def period_means(x: Fraction | DeclaredIrrational) -> tuple[Fraction, Fraction]:
    """(lim (1/n) sum {j x}, lim (1/n) sum {j x}^2), exactly: the means over
    one period of q terms for x = p/q, the uniform moments (1/2, 1/3) for an
    irrational x."""
    if not isinstance(x, Fraction):
        return Fraction(1, 2), Fraction(1, 3)
    q = x.denominator
    parts = [Fraction(j * x.numerator % q, q) for j in range(1, q + 1)]
    return sum(parts) / q, sum(f * f for f in parts) / q


def s3_period_mean(p: int, q: int, r: int, s: int) -> Fraction:
    """lim (1/n) sum {j p/q}{j r/s} as the mean over one period of q s terms,
    exactly: the loop that ``limits._s3_both_rational_exact`` replaced by
    its Dedekind-sum closed form."""
    period = q * s
    total = sum((j * p % q) * (j * r % s) for j in range(1, period + 1))
    return Fraction(total, period * period)


def affine_s3_mean(q: int, r: int, s: int) -> Fraction:
    """lim (1/n) sum {j alpha}{j beta} for alpha irrational and beta = p/q +
    (r/s) alpha with p coprime to q, exactly.  With v = {j alpha/s}, (j mod q,
    v) is equidistributed on Z/q x [0, 1), {j alpha} = {s v} and {j beta} =
    {k p/q + r v} for k = j mod q; the mean over k is ({q r v} + (q-1)/2)/q
    (Hermite's identity), so this is (int_0^1 {s v}{q r v} dv + (q-1)/4)/q,
    the integral taken piece by piece between the jumps of either factor."""
    big = q * r
    scale = s * abs(big)  # every jump of either factor is a multiple of 1/scale
    cuts = sorted({i * abs(big) for i in range(s + 1)} | {m * s for m in range(abs(big) + 1)})
    total = 0  # 6 scale^3 times the integral, in integers
    for a, b in zip(cuts, cuts[1:]):
        # {s v} = s v + u and {big v} = big v + w on (a, b)/scale: floors at the midpoint
        u, w = -(s * (a + b) // (2 * scale)), -(big * (a + b) // (2 * scale))
        total += (2 * s * big * (b**3 - a**3) + 3 * (s * w + big * u) * (b**2 - a**2) * scale
                  + 6 * u * w * (b - a) * scale**2)
    return (Fraction(total, 6 * scale**3) + Fraction(q - 1, 4)) / q


def declared_arc(alpha, beta) -> Arc:
    """A concrete Arc for a declared endpoint pair, the numeric-oracle side of
    a closed-form constant: an AffineRelated beta becomes p/q + (r/s) alpha,
    rational endpoints stay Fractions, and both are shifted by integers into
    the arc conventions, which changes no constant (beta equal to alpha mod 1
    gives the full circle)."""
    if isinstance(beta, AffineRelated):
        beta = beta.p / beta.q + beta.r / beta.s * alpha
    alpha = alpha - math.floor(alpha)
    beta = beta - math.floor(beta)
    if beta <= alpha:
        beta = beta + 1
    return Arc(alpha=alpha, beta=beta)


def _correlation(gram: np.ndarray) -> np.ndarray:
    diag = np.diag(gram)
    if np.any(diag <= 1e-12):
        raise ValueError("degenerate arc: vanishing count variance constant")
    return CovarianceMatrix(entries=gram / np.sqrt(np.outer(diag, diag))).entries


def h_mean_formula(x: float, n: int) -> float:
    """(1/n) sum_{j<=n} {jx}(1-{jx}) over the full length-n array."""
    f = frac_parts(x, n)
    return float(np.mean(f * (1.0 - f)))


def blocked_sum(terms: np.ndarray, block: int) -> float:
    """The order in which the streamed kernels sum: ``np.add.reduce`` (numpy's
    pairwise sum) over each run of ``block`` consecutive terms, then
    ``math.fsum`` over the runs' sums."""
    return math.fsum(np.add.reduce(terms[lo : lo + block]) for lo in range(0, len(terms), block))


def covariance_D_formula(arcs, n: int) -> np.ndarray:
    """Entries of ``covariance_D``: whole omega arrays, each gram entry the
    blocked sum of one product."""
    omegas = [frac_parts(a.beta, n) - frac_parts(a.alpha, n) for a in arcs]
    gram = np.array([[blocked_sum(a * b, limits._BLOCK) / n for b in omegas] for a in omegas])
    return _correlation(gram)


def h_weight_map(a1, b1, a2, b2) -> dict:
    """H_j = (h_j(b1-a2) + h_j(a1-b2) - h_j(a1-a2) - h_j(b1-b2)) / 2 as a map
    |x| -> summed weight, in first-seen order, leaving out x = 0 and the
    weights that cancel: the oracle of ``spectral.h_weights``."""
    weights: dict = defaultdict(float)
    for x, w in zip((b1 - a2, a1 - b2, a1 - a2, b1 - b2), (0.5, 0.5, -0.5, -0.5)):
        weights[abs(x)] += w
    return {x: w for x, w in weights.items() if x != 0 and w != 0}


def covariance_Dtilde_formula(arcs, n: int) -> np.ndarray:
    """Entries of ``covariance_Dtilde``: each H_j of a pair of arcs as the
    weighted sum of one full-array mean per distinct non-zero |x|."""
    m = len(arcs)
    gram = np.empty((m, m))
    for k in range(m):
        for l in range(k, m):
            weights = h_weight_map(arcs[k].alpha, arcs[k].beta, arcs[l].alpha, arcs[l].beta)
            means = (w * h_mean_formula(float(x), n) for x, w in weights.items())
            gram[k, l] = gram[l, k] = sum(means)
    return _correlation(gram)


@functools.cache
def h_sum_exact(x, n: int) -> Fraction:
    """sum_{j<=n} {jx}(1-{jx}) for x = Fraction(x) (a float at its binary
    value), enumerated over j on Python integers: {jx} = (j p mod q)/q.
    Cached, since the oracles below meet each |x| once per pair of arcs."""
    x = Fraction(x)
    q = x.denominator
    p = x.numerator % q
    return Fraction(sum(r * (q - r) for r in (j * p % q for j in range(1, n + 1))), q * q)


def covariance_Dtilde_exact(arcs, n: int) -> np.ndarray:
    """Entries of ``covariance_Dtilde`` from ``h_sum_exact``: each Gram entry
    the exact weighted sum over its |x|, divided by n and rounded once."""
    m = len(arcs)
    gram = np.empty((m, m))
    for k in range(m):
        for l in range(k, m):
            weights = h_weight_map(arcs[k].alpha, arcs[k].beta, arcs[l].alpha, arcs[l].beta)
            total = sum(Fraction(w) * h_sum_exact(x, n) for x, w in weights.items())
            gram[k, l] = gram[l, k] = float(total / n)
    return _correlation(gram)


def ctilde_numeric_exact(s, t, u, v, n: int) -> float:
    """``ctilde_numeric`` from ``h_sum_exact``: the exact mean of H_j of the
    arcs (t, s] and (v, u], rounded once."""
    weights = h_weight_map(t, s, v, u)
    return float(sum(Fraction(w) * h_sum_exact(x, n) for x, w in weights.items()) / n)


def c_numeric_formula(s, t, u, v, n: int) -> float:
    """Float path of ``c_numeric``: the blocked sum of the product of two
    full-length arrays."""
    left = frac_parts(s, n) - frac_parts(t, n)
    right = frac_parts(u, n) - frac_parts(v, n)
    return blocked_sum(left * right, limits._BLOCK) / n


def c_numeric_fractions(s, t, u, v, n: int) -> float:
    """All-Fraction path of ``c_numeric``: the sum over j of the products of
    the four Fraction sequences {j x}, rounded once."""
    fs, ft, fu, fv = ([(j * Fraction(x)) % 1 for j in range(1, n + 1)] for x in (s, t, u, v))
    return float(sum((a - b) * (c - d) for a, b, c, d in zip(fs, ft, fu, fv)) / n)


def ctilde_numeric_formula(s, t, u, v, n: int) -> float:
    """Float path of ``ctilde_numeric``: H_j of the arcs (t, s] and (v, u] as
    the weighted sum of one full-array mean per distinct non-zero |x|."""
    weights = h_weight_map(t, s, v, u)
    return sum((w * h_mean_formula(float(x), n) for x, w in weights.items()), 0.0)


def psi_values_full(n: int, theta: float) -> np.ndarray:
    """The psi table as one array of n: exp of minus a running log1p sum over
    the factors with m > 16|theta-1|, a running product over the rest, 1/theta
    at m = 1."""
    table = np.arange(n, 0, -1, dtype=np.float64)
    np.divide(theta - 1.0, table, out=table)
    cut = _NEAR_ONE * abs(theta - 1.0)
    near = 0 if cut >= n - 1 else n - max(1, math.floor(cut))
    logs = table[:near]
    np.cumsum(np.log1p(logs, out=logs), out=logs)
    np.exp(np.negative(logs, out=logs), out=logs)
    ratios = table[near:]
    head = ratios[:-1]
    np.divide(1.0, np.add(head, 1.0, out=head), out=head)
    ratios[-1] = 1.0 / theta
    np.cumprod(ratios, out=ratios)
    if near:
        ratios *= table[near - 1]
    return table


def perm_mean_formula(n: int, theta: float, arc: Arc) -> float:
    """The plain mean n (beta - alpha) - theta sum_j P_j omega_j / j over
    whole arrays of n, summed in blocks of ``cesaro.TABLE_BLOCK``."""
    u = frac_parts(arc.beta, n)
    u -= frac_parts(arc.alpha, n)
    u /= np.arange(1, n + 1, dtype=np.float64)
    u *= psi_values_full(n, theta)
    return n * float(arc.beta - arc.alpha) - theta * blocked_sum(u, cesaro.TABLE_BLOCK)


def exact_moments_perm_formula(n: int, theta: float, arc: Arc) -> CountMoments:
    """The separate plain-ensemble mean and variance formula, with the cross
    term as a direct O(n^2) convolution; the mean summed in blocks of
    ``cesaro.TABLE_BLOCK``, as ``perm_mean_formula``."""
    values = psi_values_full(n, theta)
    omega = frac_parts(arc.beta, n) - frac_parts(arc.alpha, n)
    j = np.arange(1, n + 1, dtype=np.float64)
    u = omega / j
    weighted = values * u
    mean = n * float(arc.beta - arc.alpha) - theta * blocked_sum(weighted, cesaro.TABLE_BLOCK)
    first = theta * float((values * omega * u).sum())
    cross = float(values[1:] @ np.convolve(u, u)[: n - 1]) if n >= 2 else 0.0
    variance = first + theta**2 * (cross - float(weighted.sum()) ** 2)
    return CountMoments(mean=mean, variance=max(variance, 0.0))


def identity_sums_formula(n: int, theta: float) -> tuple[float, ...]:
    """The five sums of ``cesaro._identity_sums`` over whole arrays of n:
    sum psi_j, sum psi_j/j, sum psi_j H_{j-1}/j (H the sequential cumsum of
    1/j), sum 1/(theta+j-1) and sum 1/(theta+j-1)^2 with theta added last,
    each summed in blocks of ``cesaro.TABLE_BLOCK``."""
    values = psi_values_full(n, theta)
    j = np.arange(1, n + 1, dtype=np.float64)
    ratio = values / j
    harmonic = np.concatenate(([0.0], np.cumsum(1.0 / j)[:-1]))  # H_{j-1}
    k = (j - 1.0) + theta
    terms = (values, ratio, harmonic * ratio, 1.0 / k, 1.0 / np.square(k))
    return tuple(blocked_sum(t, cesaro.TABLE_BLOCK) for t in terms)


def coupling_tail_formula(n: int, theta: float, horizon: int) -> float:
    """theta sum_{j<=n} (1/j - psi(H, j) (1/j - 1/H)) over whole arrays of n,
    psi(H, j) the first n entries of the horizon's table, summed in blocks of
    ``cesaro.TABLE_BLOCK``."""
    values = psi_values_full(horizon, theta)[:n]
    inverse = 1.0 / np.arange(1, n + 1, dtype=np.float64)
    return theta * blocked_sum(inverse - values * (inverse - 1.0 / horizon), cesaro.TABLE_BLOCK)


def exact_covariance_mod_formula(n: int, theta: float, arc1: Arc, arc2: Arc) -> float:
    """theta sum_j (P_j / j) H_j over whole arrays of n, one h_j(|x|) array
    per distinct non-zero |x| among b1-a2, a1-b2, a1-a2, b1-b2, each sum
    taken in blocks of ``cesaro.TABLE_BLOCK``."""
    weights: dict = {}
    for x, w in (
        (arc1.beta - arc2.alpha, 0.5),
        (arc1.alpha - arc2.beta, 0.5),
        (arc1.alpha - arc2.alpha, -0.5),
        (arc1.beta - arc2.beta, -0.5),
    ):
        if x != 0:
            weights[abs(x)] = weights.get(abs(x), 0.0) + w
    values = psi_values_full(n, theta) / np.arange(1, n + 1, dtype=np.float64)
    total = 0.0
    for x, w in weights.items():
        if w:
            h = frac_parts(x, n)
            total += w * blocked_sum(values * (h * (1.0 - h)), cesaro.TABLE_BLOCK)
    return theta * total


def exact_moments_mod_formula(n: int, theta: float, arc: Arc) -> CountMoments:
    """The separate modified-ensemble variance formula, in the width only,
    summed in blocks of ``cesaro.TABLE_BLOCK``."""
    h = frac_parts(arc.width, n)
    h = h * (1.0 - h)
    j = np.arange(1, n + 1, dtype=np.float64)
    variance = theta * blocked_sum((psi_values_full(n, theta) / j) * h, cesaro.TABLE_BLOCK)
    return CountMoments(mean=n * float(arc.width), variance=variance)


# ---------------------------------------------------------------------------
# closed-form identities the tests check directly
# ---------------------------------------------------------------------------


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


def frac_shift_invariant(x: float, y: float, t: float) -> tuple[float, float]:
    """Both sides of the shift invariance of u (1 - u) with u = |{x} - {y}|.

    Returns (shifted, unshifted) where shifted uses x+t, y+t; the two agree
    for every real t, which is why the modified-ensemble variance depends on
    the endpoints only through beta - alpha.
    """

    def h(a: float, b: float) -> float:
        u = abs(math.modf(a)[0] % 1.0 - math.modf(b)[0] % 1.0)
        return u * (1.0 - u)

    return h(x + t, y + t), h(x, y)


def cesaro_number(n: int, delta: float) -> float:
    """Cesàro number A_n^delta = C(n+delta, n) = prod_{k=1..n} (k+delta)/k.

    Defined for any real ``delta`` outside {-1, -2, ...}; A_0^delta = 1.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if delta < 0 and float(delta).is_integer():
        raise ValueError(f"delta must not be a negative integer, got {delta}")
    if n == 0:
        return 1.0
    k = np.arange(1, n + 1, dtype=np.float64)
    return float(np.prod((k + delta) / k))


def quadratic_double_sum(n: int, theta: float, absolute: bool) -> float:
    """sum over 1 <= j,k <= n of (psi(j)psi(k) - psi(j+k) [j+k<=n]) / (jk),
    optionally with absolute values taken termwise: the quadratic identity's
    left side term by term, O(n^2).  Chunked: the psi(j+k) of row j is the
    window from j of psi padded with n+1 zeros."""
    values = psi_values(n, theta)
    j = np.arange(1, n + 1, dtype=np.float64)
    u = values / j
    windows = np.lib.stride_tricks.sliding_window_view(
        np.concatenate((values, np.zeros(n + 1))), n
    )
    partials = []
    block = 256
    prod_buf, cross_buf = np.empty((2, min(block, n), n))
    for start in range(0, n, block):
        stop = min(start + block, n)
        prod, cross = prod_buf[: stop - start], cross_buf[: stop - start]
        np.multiply(u[start:stop, None], u, out=prod)
        np.multiply(j[start:stop, None], j, out=cross)
        np.divide(windows[start + 1 : stop + 1], cross, out=cross)
        np.subtract(prod, cross, out=prod)
        if absolute:
            np.abs(prod, out=prod)
        partials.append(float(prod.sum()))
    return math.fsum(partials)


def absolute_quadratic_sum(n: int, theta: float) -> float:
    """Termwise-absolute version of the quadratic double sum.

    Stays bounded in n for fixed theta; monitored in tests as a boundedness
    proxy.  For theta >= 1 every term already has one sign, so this equals
    the signed sum.
    """
    return quadratic_double_sum(n, theta, absolute=True)


def frac_parts_direct(x, n: int, start: int = 1) -> np.ndarray:
    """``frac_parts`` without the periodic tiling or int64 products:
    ((j p) mod q) / q on Python integers for every j = start..n of a
    Fraction, j x minus its floor for a float."""
    if isinstance(x, Fraction):
        q = x.denominator
        prod = np.arange(start, n + 1).astype(object) * (x.numerator % q) % q
        return np.asarray(prod / float(q), dtype=np.float64)
    jx = np.arange(start, n + 1, dtype=np.float64) * float(x)
    return jx - np.floor(jx)


def mesoscopic_per_n(config, jobs: int = 1):
    """``run_mesoscopic`` as it drew when every row of the schedule took its
    own draw of all trials (``_arc_counts`` at that n alone; the modified
    model at the largest n only, once per row that repeats it), each row
    built in turn, the report at the largest n."""
    from permspectra.experiments import (
        MesoscopicResult, MesoscopicRow, _arc_counts, _meso_arc, _normality_report,
    )
    from permspectra.limits import c2_meso
    from permspectra.spectral import _perm_mean, exact_moments_mod

    theta, model = config.theta, config.model
    alpha = Fraction(0) if config.meso_alpha is None else config.meso_alpha
    constant = c2_meso(alpha) if model == "perm" else 1.0 / 6.0
    rows, report, largest = [], None, max(config.n_schedule)
    for n in config.n_schedule:
        delta = float(n) ** (-config.gamma)
        arc = _meso_arc(alpha, delta)
        log_nd = math.log(n * delta)
        target = constant * theta * log_nd
        counts = None
        if model == "perm" or n == largest:
            counts = _arc_counts(model, (arc,), config.master_seed, n, theta, config.trials,
                                 jobs)[:, 0]
        if model == "mod":
            variance = exact_moments_mod(n, theta, arc).variance
        else:
            variance = float(np.var(counts, ddof=1))
        rows.append(MesoscopicRow(n, delta, log_nd, variance, model == "mod", target,
                                  variance / target))
        if n == largest:
            mean = n * delta if model == "mod" else _perm_mean(n, theta, arc)
            report = _normality_report(counts, mean, variance)
    return MesoscopicResult(rows=rows, report=report, constant=constant)
