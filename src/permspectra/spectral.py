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
their one-trial forms.

Exact finite-n mean and variance of both counts are weighted sums against
the psi table from :mod:`permspectra.cesaro`; see ``exact_moments_perm`` and
``exact_moments_mod``.

Arc endpoints may be floats or ``fractions.Fraction``.  Rational endpoints
make every floor and fractional part exact integer arithmetic (int64 while
it cannot overflow, Python integers for larger denominators), which is what
eliminates boundary misclassification at roots of unity; float endpoints use
plain floor and inherit the usual caveat that an angle landing within one
ulp of an endpoint may be classified either way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

import numpy as np

from .cesaro import psi_values
from .ewens import CycleCounts, TrialBatch

__all__ = [
    "Endpoint",
    "Arc",
    "ModifiedSpectrum",
    "CountMoments",
    "count_arc_perm",
    "attach_phases",
    "count_arc_mod",
    "enumerate_angles_mod",
    "exact_moments_perm",
    "exact_moments_mod",
    "exact_covariance_perm",
    "exact_covariance_mod",
    "frac_shift_invariant",
]

Endpoint = Union[float, Fraction]

#: default cap on n for the O(n^2) double sum in exact_moments_perm
PERM_VARIANCE_CAP = 5000


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


@dataclass
class ModifiedSpectrum:
    """Cycle lengths paired with their uniform rotation phases.

    ``lengths[c]`` and ``phases[c]`` describe cycle c, whose eigenangles are
    (k + phases[c]) / lengths[c] mod 1 for k = 0..lengths[c]-1.
    """

    n: int
    lengths: np.ndarray
    phases: np.ndarray

    def __post_init__(self):
        if len(self.lengths) != len(self.phases):
            raise ValueError("one phase per cycle required")
        if int(np.sum(self.lengths)) != self.n:
            raise ValueError("cycle lengths must sum to n")
        if np.any((self.phases < 0) | (self.phases >= 1)):
            raise ValueError("phases must lie in [0, 1)")


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


def _fraction_terms(x: Fraction, j: np.ndarray) -> tuple[np.ndarray, int, int]:
    """(j p, q, w) for x = w + p/q with 0 <= p < q, so that exactly
    floor(j x) = j w + (j p) // q and {j x} = ((j p) mod q) / q.

    The products are int64 while max(j) * q < 2**62 and Python integers
    (an object array) beyond, where int64 would wrap silently.
    """
    q = x.denominator
    whole, p = divmod(x.numerator, q)
    if len(j) and int(j.max()) * q >= 2**62:
        j = j.astype(object)
    return j * p, q, whole


def _floor_multiples(x: Endpoint, j: np.ndarray) -> np.ndarray:
    """floor(j x) for an int64 array j, exact when x is a Fraction."""
    if isinstance(x, Fraction):
        prod, q, whole = _fraction_terms(x, j)
        return np.asarray(j * whole + prod // q, dtype=np.int64)
    return np.floor(j * float(x)).astype(np.int64)


def frac_parts(x: Endpoint, n: int) -> np.ndarray:
    """Array of fractional parts {j x} for j = 1..n, exact for Fractions."""
    j = np.arange(1, n + 1, dtype=np.int64)
    if isinstance(x, Fraction):
        prod, q, _ = _fraction_terms(x, j)
        prod %= q  # in place: keeps the peak at three arrays of n
        return np.asarray(prod / float(q), dtype=np.float64)
    jx = j * float(x)
    return jx - np.floor(jx)


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


def count_arcs_mod(batch: TrialBatch, arcs: Sequence[Arc], closed: str = "right") -> np.ndarray:
    """Modified-matrix counts, one row per trial and one column per arc.

    Each cycle of length j and phase phi adds
    floor(j beta - phi) - floor(j alpha - phi) over (alpha, beta]
    (``closed="right"``), or the same with ceil over [alpha, beta)
    (``closed="left"``); with continuously distributed phases the two
    almost surely agree.
    """
    rounding = {"right": np.floor, "left": np.ceil}.get(closed)
    if rounding is None:
        raise ValueError(f"closed must be 'right' or 'left', got {closed!r}")
    j = batch.lengths.astype(np.float64)[:, None]
    phi = batch.phases[:, None]
    alpha = np.array([float(a.alpha) for a in arcs])
    beta = np.array([float(a.beta) for a in arcs])
    per_cycle = rounding(j * beta - phi) - rounding(j * alpha - phi)
    return np.add.reduceat(per_cycle, batch.starts[:-1]).astype(np.int64)


def count_arc_perm(counts: CycleCounts, arc: Arc) -> int:
    """Number of eigenvalues (with multiplicity) of the permutation matrix in the arc."""
    return int(count_arcs_perm(TrialBatch(counts.n, counts.lengths), (arc,))[0, 0])


def attach_phases(counts: CycleCounts, rng: np.random.Generator) -> ModifiedSpectrum:
    """Draw one independent uniform phase per cycle, in ascending length order."""
    return ModifiedSpectrum(counts.n, counts.lengths, rng.random(len(counts.lengths)))


def count_arc_mod(spectrum: ModifiedSpectrum, arc: Arc, closed: str = "right") -> int:
    """Number of eigenvalues of the modified matrix in the arc (see count_arcs_mod)."""
    batch = TrialBatch(spectrum.n, spectrum.lengths, spectrum.phases)
    return int(count_arcs_mod(batch, (arc,), closed)[0, 0])


# ---------------------------------------------------------------------------
# modified-ensemble angles
# ---------------------------------------------------------------------------


def _mod_angles(lengths: np.ndarray, phases: np.ndarray) -> np.ndarray:
    """Eigenangles (k + phi)/j, k = 0..j-1, cycle after cycle.

    They already lie in [0, 1) since 0 <= phi < 1.
    """
    cycle = np.repeat(np.arange(len(lengths)), lengths)
    k = np.arange(len(cycle)) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    return (k + phases[cycle]) / lengths[cycle]


def enumerate_angles_mod(spectrum: ModifiedSpectrum) -> np.ndarray:
    """All n eigenangles (k + phi)/j mod 1 of the modified matrix, sorted."""
    return np.sort(_mod_angles(spectrum.lengths, spectrum.phases))


# ---------------------------------------------------------------------------
# exact finite-n moments
# ---------------------------------------------------------------------------


def exact_moments_perm(
    n: int, theta: float, arc: Arc, cap: int = PERM_VARIANCE_CAP
) -> CountMoments:
    """Exact mean and variance of the permutation-matrix count in the arc.

    With omega_j = {j beta} - {j alpha} and P = psi table,

        mean = n (beta - alpha) - theta sum_j (omega_j / j) P_j
        var  = theta sum_j (omega_j^2 / j) P_j
               + theta^2 sum_{j,k} (omega_j omega_k / (j k))
                                   (P_{j+k} [j+k<=n] - P_j P_k).

    The cross term is an O(n^2) convolution; above ``cap`` the call refuses
    rather than approximate.
    """
    if n > cap:
        raise ValueError(f"n = {n} exceeds the O(n^2) variance cap {cap}")
    values = psi_values(n, theta)
    omega = frac_parts(arc.beta, n) - frac_parts(arc.alpha, n)
    j = np.arange(1, n + 1, dtype=np.float64)
    u = omega / j
    weighted = values * u
    delta = float(arc.beta - arc.alpha)
    mean = n * delta - theta * float(weighted.sum())

    first = theta * float((values * omega * u).sum())
    if n >= 2:
        conv = np.convolve(u, u)[: n - 1]  # entry i: sum over j+k = i+2
        cross = float(values[1:] @ conv)
    else:
        cross = 0.0
    square = float(weighted.sum()) ** 2
    variance = first + theta**2 * (cross - square)
    return CountMoments(mean=mean, variance=max(variance, 0.0))


def exact_moments_mod(n: int, theta: float, arc: Arc) -> CountMoments:
    """Exact mean and variance of the modified-matrix count in the arc.

    The mean is exactly n (beta - alpha) regardless of the endpoints; the
    variance depends only on the width delta:

        var = theta sum_j (P_j / j) {j delta} (1 - {j delta}).
    """
    values = psi_values(n, theta)
    delta = arc.width
    h = frac_parts(delta, n)
    h = h * (1.0 - h)
    j = np.arange(1, n + 1, dtype=np.float64)
    variance = theta * float((values / j) @ h)
    return CountMoments(mean=n * float(arc.width), variance=variance)


def exact_covariance_perm(
    n: int, theta: float, arc1: Arc, arc2: Arc, cap: int = PERM_VARIANCE_CAP
) -> float:
    """Exact covariance of the two permutation-matrix counts at size n.

    The bilinear form of the variance formula: with u_j = omega_j / j per arc,

        cov = theta sum_j omega_{j,1} omega_{j,2} / j * P_j
              + theta^2 [ sum_{j+k<=n} P_{j+k} u_{j,1} u_{k,2}
                          - (sum_j P_j u_{j,1})(sum_k P_k u_{k,2}) ].
    """
    if n > cap:
        raise ValueError(f"n = {n} exceeds the O(n^2) covariance cap {cap}")
    values = psi_values(n, theta)
    j = np.arange(1, n + 1, dtype=np.float64)
    w1 = frac_parts(arc1.beta, n) - frac_parts(arc1.alpha, n)
    w2 = frac_parts(arc2.beta, n) - frac_parts(arc2.alpha, n)
    u1, u2 = w1 / j, w2 / j
    first = theta * float((values * w1 * w2 / j).sum())
    if n >= 2:
        conv = np.convolve(u1, u2)[: n - 1]
        cross = float(values[1:] @ conv)
    else:
        cross = 0.0
    square = float((values * u1).sum()) * float((values * u2).sum())
    return first + theta**2 * (cross - square)


def exact_covariance_mod(n: int, theta: float, arc1: Arc, arc2: Arc) -> float:
    """Exact covariance of the two modified-matrix counts at size n.

    cov = theta sum_j (P_j / j) H_j with
    H_j = (h_j(b1-a2) + h_j(a1-b2) - h_j(a1-a2) - h_j(b1-b2)) / 2 and
    h_j(x) = {jx}(1-{jx}); for arc1 = arc2 this is the variance formula.
    """
    values = psi_values(n, theta)
    j = np.arange(1, n + 1, dtype=np.float64)

    def h(x: Endpoint) -> np.ndarray:
        f = frac_parts(x, n)
        return f * (1.0 - f)

    a1, b1, a2, b2 = arc1.alpha, arc1.beta, arc2.alpha, arc2.beta
    big_h = 0.5 * (h(b1 - a2) + h(a1 - b2) - h(a1 - a2) - h(b1 - b2))
    return theta * float((values / j) @ big_h)


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
