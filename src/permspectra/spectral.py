"""Eigenangle enumeration and arc counting for both matrix ensembles.

Angles live in fraction-of-turn units throughout (the eigenvalue is
``exp(2 pi i * angle)``); the factor 2*pi never enters any computation.

A permutation matrix built from a cycle type contributes, for every j-cycle,
the j-th roots of unity, so the number of its eigenvalues in the half-open
arc (alpha, beta] is

    X = sum_j a_j (floor(j beta) - floor(j alpha)).

The phase-modified ensemble multiplies each cycle's eigenvalues by a common
random unit scalar, shifting the j angles of a cycle to (k + phi)/j with phi
uniform on [0, 1); the count becomes

    X~ = sum_cycles (floor(j beta - phi) - floor(j alpha - phi)).

The counting kernels take a whole batch of trials (``ewens.TrialBatch``)
and return one row per trial; ``count_arc_perm`` and ``count_arc_mod`` are
their one-trial forms, on the one-trial batch that ``sample_cycle_counts``
returns (with phases from ``attach_phases`` for the modified count).

Exact finite-n mean and variance of both counts are weighted sums against
the psi table from :mod:`permspectra.cesaro`; see ``exact_moments_perm`` and
``exact_moments_mod``.  The plain ensemble's cross term, a convolution of
the per-arc weights, is one real FFT (``numpy.fft``, imported on first use),
so every exact moment is O(n log n) at most and no size cap applies below
``cesaro.TABLE_SIZE_LIMIT``.  The plain mean and the modified covariance
read the psi table a block of ``cesaro.TABLE_BLOCK`` values of j at a time
(``cesaro.psi_blocks``) and write each block's terms straight into the one
array that their final sum or dot product reads (two for the modified
covariance: P_j/j, and one h_j(x) reused for every x of ``h_weights``), so
that they hold no other array of n and sum exactly the terms that whole
arrays gave.  The plain covariance fills its two arrays of arc weights the
same way.  ``h_weights``, the |x| -> weight map of the modified covariance
term H_j, is also what :mod:`permspectra.limits` reads.  The plain exact moments
refuse theta outside [``PLAIN_THETA_FLOOR``, ``PLAIN_THETA_LIMIT``] =
[2**-6, 2**9]: their cancellation loses digits in proportion to theta, and
as theta shrinks.

Arc endpoints may be floats or ``fractions.Fraction``; a declared irrational
(``limits.DeclaredIrrational``) is a float, so it counts by the same bits
and only the closed-form constants read its declaration.  Rational endpoints
make every floor and fractional part exact integer arithmetic (int64 while
it cannot overflow, Python integers for larger denominators), which is what
eliminates boundary misclassification at roots of unity; float endpoints use
plain floor and inherit the usual caveat that an angle landing within one
ulp of an endpoint may be classified either way.  Every fractional part
{j x}, here and in :mod:`permspectra.limits`, is written by one kernel,
``frac_into``, into its caller's buffer; it builds Python-integer products
a short run of j at a time, so a rational endpoint needs no size cap of its
own.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

import numpy as np

from . import cesaro
from .cesaro import check_table_size, check_theta_limit, psi_blocks, psi_values
from .ewens import TrialBatch

__all__ = [
    "Endpoint",
    "Arc",
    "CountMoments",
    "count_arc_perm",
    "attach_phases",
    "count_arc_mod",
    "exact_moments_perm",
    "exact_moments_mod",
    "exact_covariance_perm",
    "exact_covariance_mod",
]

Endpoint = Union[float, Fraction]

@dataclass(frozen=True)
class Arc:
    """Half-open arc (exp(2 pi i alpha), exp(2 pi i beta)] on the unit circle.

    Requires 0 <= alpha < 1 and alpha < beta <= alpha + 1; beta = alpha + 1
    is the full circle.  Endpoints keep whatever exactness they were given.
    """

    alpha: Endpoint
    beta: Endpoint

    def __post_init__(self):
        if not 0 <= self.alpha < 1:
            raise ValueError(f"alpha must lie in [0, 1), got {self.alpha}")
        if not self.alpha < self.beta <= self.alpha + 1:
            raise ValueError(
                f"beta must lie in (alpha, alpha+1], got alpha={self.alpha}, beta={self.beta}"
            )

    @property
    def width(self) -> Endpoint:
        return self.beta - self.alpha


@dataclass(frozen=True)
class CountMoments:
    mean: float
    variance: float

    def __post_init__(self):
        if self.variance < -1e-12:
            raise ValueError(f"variance must be >= 0, got {self.variance}")


# ---------------------------------------------------------------------------
# endpoint helpers (exactness-aware)
# ---------------------------------------------------------------------------


def _floor_multiples(x: Endpoint, j: np.ndarray) -> np.ndarray:
    """floor(j x) for an int64 array j, exact when x is a Fraction: for
    x = w + p/q with 0 <= p < q it is j w + (j p) // q, on Python integers
    once max(j) q reaches 2**62, where int64 would wrap silently."""
    if isinstance(x, Fraction):
        q = x.denominator
        whole, p = divmod(x.numerator, q)
        if len(j) and int(j.max()) * q >= 2**62:
            j = j.astype(object)
        return np.asarray(j * whole + j * p // q, dtype=np.int64)
    return np.floor(j * float(x)).astype(np.int64)


#: values of j per run of Python-integer products in ``frac_into``: their
#: objects take about 80 bytes per value, so a run stays below 100 KB
_OBJECT_RUN = 1 << 10


def frac_into(x: Union[Endpoint, np.ndarray], lo: int, out: np.ndarray) -> np.ndarray:
    """Write {j x} for j = lo+1 .. lo+len(out) into ``out`` and return it;
    exact for a Fraction, j x minus its floor for a float.

    For x = w + p/q, {j x} = ((j p) mod q) / q: int64 products while
    j q < 2**62, then Python integers a run of ``_OBJECT_RUN`` values of j
    at a time, and, since it has period q in j, one period tiled once
    2 q <= len(out).  A float x may also be an array broadcast against the
    rows of a 2-d ``out`` (a column, one endpoint per row).
    """
    hi = lo + out.shape[-1]
    if not isinstance(x, Fraction):
        j = cesaro.block_j(lo, hi - lo)
        np.multiply(j, x, out=out)
        out -= np.floor(out, out=j if out.ndim == 1 else None)  # j is free for one row
        return out
    q = x.denominator
    p = x.numerator % q
    if 2 * q <= len(out):
        frac_into(x, lo, out[:q])
        whole = len(out) // q * q
        out[:whole].reshape(-1, q)[1:] = out[:q]  # a 1-d reshape is a view
        out[whole:] = out[: len(out) - whole]
        return out
    cut = min(max((2**62 - 1) // q, lo), hi)  # the last j of the int64 products
    edges = [lo, cut, *range(cut + _OBJECT_RUN, hi, _OBJECT_RUN), hi]
    for a, b in zip(edges, edges[1:]):
        if a < b:
            prod = np.arange(a + 1, b + 1, dtype=np.int64)
            if b > cut:
                prod = prod.astype(object)
            prod *= p
            prod %= q
            np.divide(prod, float(q), out=out[a - lo : b - lo], casting="unsafe")
    return out


def frac_parts(x: Endpoint, n: int, start: int = 1) -> np.ndarray:
    """Array of fractional parts {j x} for j = start..n (``frac_into``)."""
    return frac_into(x, start - 1, np.empty(max(n - start + 1, 0)))


# ---------------------------------------------------------------------------
# counting: kernels over a batch of trials, and their one-trial forms
# ---------------------------------------------------------------------------


def count_arcs_perm(batch: TrialBatch, arcs: Sequence[Arc]) -> np.ndarray:
    """Permutation-matrix counts, one row per trial and one column per arc.

    Each cycle of length j adds floor(j beta) - floor(j alpha); the
    per-cycle terms are summed per trial.
    """
    per_cycle = np.empty((len(batch.lengths), len(arcs)), dtype=np.int64)
    for k, a in enumerate(arcs):
        per_cycle[:, k] = _floor_multiples(a.beta, batch.lengths)
        per_cycle[:, k] -= _floor_multiples(a.alpha, batch.lengths)
    return np.add.reduceat(per_cycle, batch.starts[:-1])


def count_arcs_mod(batch: TrialBatch, arcs: Sequence[Arc]) -> np.ndarray:
    """Modified-matrix counts, one row per trial and one column per arc.

    Each cycle of length j and phase phi adds
    floor(j beta - phi) - floor(j alpha - phi) over (alpha, beta].
    """
    j = batch.lengths.astype(np.float64)[:, None]
    phi = batch.phases[:, None]
    alpha = np.array([float(a.alpha) for a in arcs])
    beta = np.array([float(a.beta) for a in arcs])
    per_cycle = np.floor(j * beta - phi) - np.floor(j * alpha - phi)
    return np.add.reduceat(per_cycle, batch.starts[:-1]).astype(np.int64)


def count_arc_perm(trial: TrialBatch, arc: Arc) -> int:
    """Number of eigenvalues (with multiplicity) of the permutation matrix in the arc."""
    return int(count_arcs_perm(trial, (arc,))[0, 0])


def attach_phases(trial: TrialBatch, rng: np.random.Generator) -> TrialBatch:
    """One modified trial: a uniform phase per cycle, in ascending length
    order; cycle c's angles are (k + phases[c]) / lengths[c], k < lengths[c]."""
    return TrialBatch(trial.n, trial.lengths, rng.random(len(trial.lengths)))


def count_arc_mod(trial: TrialBatch, arc: Arc) -> int:
    """Number of eigenvalues of the modified matrix in the arc (see count_arcs_mod)."""
    return int(count_arcs_mod(trial, (arc,))[0, 0])


# ---------------------------------------------------------------------------
# exact finite-n moments
# ---------------------------------------------------------------------------


def _fill_arc_weights(arc: Arc, lo: int, out: np.ndarray) -> None:
    """out = u_j = ({j beta} - {j alpha}) / j for j = lo+1 .. lo+len(out);
    alpha = 0 (the mesoscopic arcs' anchor) has {j alpha} = 0."""
    frac_into(arc.beta, lo, out)
    if arc.alpha != 0:
        out -= frac_into(arc.alpha, lo, np.empty(len(out)))
    out /= cesaro.block_j(lo, len(out))


def _arc_weights(arc: Arc, n: int) -> np.ndarray:
    """u_j = ({j beta} - {j alpha}) / j for j = 1..n, a block of
    ``cesaro.TABLE_BLOCK`` values of j at a time."""
    u = np.empty(n)
    for lo in range(0, n, cesaro.TABLE_BLOCK):
        _fill_arc_weights(arc, lo, u[lo : lo + cesaro.TABLE_BLOCK])
    return u


#: largest theta of the plain moments (``exact_moments_perm``,
#: ``exact_covariance_perm``).  Their sums cancel and lose digits in
#: proportion to theta.  Up to 2**9, every arc that the benchmark gives
#: them (exact-moments' three at n = 1000 and 5000, clt's two at
#: n = 1000) stayed within 1e-12 relative of 40-digit mpmath on the same
#: formulas, on a quarter-octave grid of theta; at 2**10 clt's (e, sqrt 3]
#: missed it (2.4e-12).  No theta bound covers every arc: one that no cycle
#: shorter than k reaches has moments of order theta^(1-k) once theta nears
#: n ((e, sqrt 3] at n = 11 misses 1e-12 from theta = 8).  The plain mean
#: of ``run_mesoscopic``, a reference for its Monte Carlo counts, takes no
#: bound.
PLAIN_THETA_LIMIT = 2.0**9

#: smallest theta of the plain moments, whose variance of order theta is a
#: difference of terms of order 1.  Down to 2**-6 they kept 1e-12 relative of
#: the exact law (n <= 20, wide rational arcs) and of 40-digit mpmath (the arcs
#: above, n = 1000) on a quarter-octave grid; at 2**-7 the law's missed (3.6e-12).
PLAIN_THETA_FLOOR = 2.0**-6


def _perm_mean(n: int, theta: float, arc: Arc) -> float:
    """Exact mean n (beta - alpha) - theta sum_j P_j omega_j / j of the
    permutation-matrix count, omega_j = {j beta} - {j alpha}; O(n), in one
    array of n filled a block of the psi table at a time."""
    check_table_size(n)
    blocks = psi_blocks(n, theta)
    weighted = np.empty(n)
    for lo, block in blocks:
        part = weighted[lo : lo + len(block)]
        _fill_arc_weights(arc, lo, part)
        if theta != 1.0:  # psi = 1 at theta = 1
            part *= block
    return n * float(arc.beta - arc.alpha) - theta * float(weighted.sum())


def exact_moments_perm(n: int, theta: float, arc: Arc) -> CountMoments:
    """Exact mean and variance of the permutation-matrix count in the arc.

    The variance is the diagonal of :func:`exact_covariance_perm`, clipped
    at zero against rounding; the mean n (beta - alpha) - theta sum_j P_j u_j
    reuses its sum.
    """
    variance, sum1 = _covariance_perm(n, theta, arc, arc)
    mean = n * float(arc.beta - arc.alpha) - theta * sum1
    return CountMoments(mean=mean, variance=max(variance, 0.0))


def exact_moments_mod(n: int, theta: float, arc: Arc) -> CountMoments:
    """Exact mean and variance of the modified-matrix count in the arc.

    The mean is exactly n (beta - alpha) regardless of the endpoints; the
    variance, the diagonal of :func:`exact_covariance_mod`, depends only on
    the width delta:

        var = theta sum_j (P_j / j) {j delta} (1 - {j delta}).
    """
    variance = exact_covariance_mod(n, theta, arc, arc)
    return CountMoments(mean=n * float(arc.width), variance=variance)


def exact_covariance_perm(n: int, theta: float, arc1: Arc, arc2: Arc) -> float:
    """Exact covariance of the two permutation-matrix counts at size n.

    With P the psi table, omega_j = {j beta} - {j alpha} and u_j = omega_j / j
    per arc,

        cov = theta sum_j P_j omega_{j,1} u_{j,2}
              + theta^2 [ sum_{j+k<=n} P_{j+k} u_{j,1} u_{k,2}
                          - (sum_j P_j u_{j,1})(sum_k P_k u_{k,2}) ].

    The cross term is P against the convolution of u_1 and u_2, taken by FFT
    in O(n log n).
    """
    return _covariance_perm(n, theta, arc1, arc2)[0]


def _fft_length(m: int) -> int:
    """The least 2^a 3^b 5^c >= m: a transform length that pads by at most a
    few percent and has no prime factor that slows the FFT."""
    best = 1 << (m - 1).bit_length()
    p5 = 1
    while p5 < best:
        odd = p5
        while odd < best:  # odd = 3^b 5^c, times the least power of two
            best = min(best, odd << (-(-m // odd) - 1).bit_length())
            odd *= 3
        p5 *= 5
    return best


#: peak resident bytes per element of the plain covariance: tracemalloc sees
#: 40 on the diagonal and 48 off it, pocketfft's work buffer and cached plan
#: about 40 more
_FFT_BYTES_PER_ELEMENT = 88


def _covariance_perm(n: int, theta: float, arc1: Arc, arc2: Arc) -> tuple[float, float]:
    """(cov, sum_j P_j u_{j,1}) of :func:`exact_covariance_perm`; each array
    is dropped once used, and n beyond the FFT's share of the limit refused."""
    check_table_size(n)
    limit = cesaro.TABLE_SIZE_LIMIT * 48 // _FFT_BYTES_PER_ELEMENT
    if n > limit:
        raise ValueError(
            f"n = {n} exceeds the size limit {limit} of the plain-ensemble covariance "
            f"(its FFT takes up to {_FFT_BYTES_PER_ELEMENT} bytes per element)"
        )
    check_theta_limit(theta)
    if theta > PLAIN_THETA_LIMIT:
        raise ValueError(
            f"theta = {theta} exceeds 2**9, the limit of the plain-ensemble exact "
            "moments, whose cancellation loses digits in proportion to theta"
        )
    if theta < PLAIN_THETA_FLOOR:
        raise ValueError(
            f"theta = {theta} is below 2**-6, the floor of the plain-ensemble exact "
            "moments, whose cancellation loses digits as theta shrinks"
        )
    values = psi_values(n, theta)
    diagonal = arc2 == arc1
    u1 = _arc_weights(arc1, n)
    u2 = u1 if diagonal else _arc_weights(arc2, n)
    weighted = values * u1
    sum1 = float(weighted.sum())
    sum2 = sum1 if diagonal else float((values * u2).sum())
    weighted *= u2
    weighted *= np.arange(1, n + 1, dtype=np.float64)  # P_j omega_{j,1} u_{j,2}
    first = theta * float(weighted.sum())
    del weighted
    # entry i of the convolution sums over j+k = i+2; a length of at least
    # 2n-1 keeps entries 0..n-2 free of wrap-around
    size = _fft_length(2 * n - 1)
    spectrum = np.fft.rfft(u1, size)
    del u1
    spectrum *= spectrum if diagonal else np.fft.rfft(u2, size)
    del u2
    cross = float(values[1:] @ np.fft.irfft(spectrum, size)[: n - 1])
    return first + theta**2 * (cross - sum1 * sum2), sum1


def h_weights(a1: Endpoint, b1: Endpoint, a2: Endpoint, b2: Endpoint) -> dict:
    """H_j = (h_j(b1-a2) + h_j(a1-b2) - h_j(a1-a2) - h_j(b1-b2)) / 2 of the arcs
    (a1, b1] and (a2, b2], h_j(x) = {jx}(1-{jx}), as the map |x| -> weight
    with H_j = sum weight h_j(x): h_j is even and vanishes at 0, so x = 0 is
    skipped and weights that cancel are dropped.  The differences are taken
    as given, so Fraction endpoints stay exact."""
    weights: dict = {}
    for x, w in ((b1 - a2, 0.5), (a1 - b2, 0.5), (a1 - a2, -0.5), (b1 - b2, -0.5)):
        if x != 0:
            weights[abs(x)] = weights.get(abs(x), 0.0) + w
    return {x: w for x, w in weights.items() if w}


def exact_covariance_mod(n: int, theta: float, arc1: Arc, arc2: Arc) -> float:
    """Exact covariance of the two modified-matrix counts at size n.

    cov = theta sum_j (P_j / j) H_j, with H_j = sum weight h_j(x) over
    :func:`h_weights`; for arc1 = arc2 that is h_j(beta - alpha).
    """
    weights = h_weights(arc1.alpha, arc1.beta, arc2.alpha, arc2.beta)
    blocks = psi_blocks(n, theta)
    values = np.empty(n)  # P_j / j
    for lo, block in blocks:
        hi = lo + len(block)
        np.divide(block, cesaro.block_j(lo, hi - lo), out=values[lo:hi])
    del block  # a view that keeps the psi buffer
    h = np.empty(n)  # one array for every x, filled a block at a time

    def dot_h(x: Endpoint) -> float:
        for lo in range(0, n, cesaro.TABLE_BLOCK):
            f = frac_into(x, lo, h[lo : lo + cesaro.TABLE_BLOCK])
            f *= 1.0 - f  # in the block the writer's floor has just freed
        return float(values @ h)

    return theta * sum(w * dot_h(x) for x, w in weights.items())
