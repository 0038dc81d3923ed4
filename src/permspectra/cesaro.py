"""The cycle-count weight function and the Cesàro summation identities.

The central object is the weight

    psi(n, j) = n (n-1) ... (n-j+1) / ((theta+n-1) (theta+n-2) ... (theta+n-j)),

a product of ``j`` ratios close to one.  Under the Ewens measure of parameter
``theta`` the expected number of j-cycles of an n-permutation equals
``theta/j * psi(n, j)``, and the same weights are (up to normalisation) the
kernel of Cesàro averaging of order ``theta``.  All the variance formulas in
:mod:`permspectra.spectral` are weighted sums against this table, so this
module provides a stable evaluator plus explicit two-sided checks of the
summation identities those formulas rely on:

* mean identity       (1/n) sum_j psi(n, j)            = 1/theta
* harmonic identity   sum_j psi(n, j)/j                = sum_j 1/(theta+j-1)
* quadratic identity  sum_{j,k} (psi(n,j)psi(n,k) - psi(n,j+k) [j+k<=n])/(jk)
                                                        = sum_{k<n} 1/(theta+k)^2
* telescoping sum     sum_{p=j}^{n-1} A_{p-j}^{theta-1}/(p A_p^theta)
                                                        = psi(n, j) (1/j - 1/n)

where ``A_n^delta`` are the Cesàro (binomial) numbers.  Each ``verify_*``
function returns the two sides; callers assert the gap at their tolerance.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "psi",
    "psi_values",
    "verify_mean_identity",
    "verify_harmonic_identity",
    "verify_quadratic_identity",
    "verify_telescoping",
]

#: default size cap for the O(n^2) double sums
QUADRATIC_CAP = 2000

#: largest n of a psi table.  Measured with tracemalloc, the exact moments
#: built on it peak at 24 bytes per element (three float64 arrays of n, for
#: endpoints up to int64 range), the coupling tail bound at 40 and the
#: identity checks at 48, so this n peaks below 2 GB.  Rational endpoints
#: with denominators beyond 2**62 / n fall back to Python-integer arrays at
#: about 92 bytes per element; ``spectral.check_endpoint_size`` caps those n.
TABLE_SIZE_LIMIT = 40_000_000


#: overflow guard on theta for the plain-ensemble covariance and the identity
#: checks.  They square theta (overflow above 1.3e154) or difference log-gamma
#: values near theta log theta, whose rounding reaches exp's range near
#: theta = 1e18; 2**53 keeps a margin of 100 below that.  It is not an
#: accuracy bound: both lose digits at far smaller theta (ROADMAP item 11)
THETA_LIMIT = 2.0**53


def _check_theta(theta: float) -> None:
    if not 0 < theta < math.inf:
        raise ValueError(f"theta must be positive and finite, got {theta}")


def check_theta_limit(theta: float) -> None:
    """Refuse a theta that is not positive and finite, or is above the
    overflow guard THETA_LIMIT."""
    _check_theta(theta)
    if theta > THETA_LIMIT:
        raise ValueError(f"theta = {theta} exceeds 2**53, the guard against overflow in these sums")


# coefficients of the cephes log-gamma that scipy.special.gammaln evaluates
_LGAM_A = (8.11614167470508450300e-4, -5.95061904284301438324e-4, 7.93650340457716943945e-4,
           -2.77777777730099687205e-3, 8.33333333333331927722e-2)
_LGAM_B = (-1.37825152569120859100e3, -3.88016315134637840924e4, -3.31612992738871184744e5,
           -1.16237097492762307383e6, -1.72173700820839662146e6, -8.53555664245765465627e5)
_LGAM_C = (-3.51815701436523470549e2, -1.70642106651881159223e4, -2.20528590553854454839e5,
           -1.13933444367982507207e6, -2.53252307177582951285e6, -2.01889141433532773231e6)
_LS2PI = 0.91893853320467274178  # log(sqrt(2 pi))
_MAXLGM = 2.556348e305  # log-gamma overflows above


def _horner(x, coefficients, leading):
    for c in coefficients:
        leading = leading * x + c
    return leading


def _gammaln_small(x: float) -> float:
    """cephes log-gamma for 0 < x < 13: shift x into [2, 3), then a rational form."""
    z, p, u = 1.0, 0.0, x
    while u >= 3.0:
        p -= 1.0
        u = x + p
        z *= u
    while u < 2.0:
        z /= u
        p += 1.0
        u = x + p
    if u == 2.0:
        return math.log(z)
    x += p - 2.0
    return math.log(z) + x * _horner(x, _LGAM_B[1:], _LGAM_B[0]) / _horner(x, _LGAM_C, 1.0)


def _gammaln(x: np.ndarray) -> np.ndarray:
    """scipy.special.gammaln for finite x > 0, bit for bit: the same cephes algorithm
    in the same order of operations, with the C library's log (math.log).
    Importing scipy.special takes about 0.25 s, most of an identities call."""
    out = np.empty_like(x)
    small = x < 13.0
    out[small] = [_gammaln_small(v) for v in x[small].tolist()]
    big = x[~small]
    log = np.fromiter(map(math.log, big.tolist()), np.float64, len(big))
    q = (big - 0.5) * log - big + _LS2PI  # Stirling, then its 1/x series below
    p = 1.0 / (big * big)
    series = np.where(
        big >= 1000.0,
        (7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p
        + 0.0833333333333333333333,
        _horner(p, _LGAM_A[1:], _LGAM_A[0]),
    )
    q = np.where(big > 1e8, q, q + series / big)
    out[~small] = np.where(big > _MAXLGM, np.inf, q)
    return out


def check_table_size(
    n: int, arrays: str = "a psi table (up to 48 bytes per element at the peak)"
) -> None:
    """Refuse n above TABLE_SIZE_LIMIT before anything of length n is allocated;
    ``arrays`` names what the caller would build."""
    if n > TABLE_SIZE_LIMIT:
        raise ValueError(f"n = {n} exceeds the size limit {TABLE_SIZE_LIMIT} of {arrays}")


def psi_values(n: int, theta: float) -> np.ndarray:
    """Table ``[psi(n, 1), ..., psi(n, n)]`` as one cumulative product.

    Each factor ``(n-i)/(theta+n-1-i)`` is bounded, so the running product
    never overflows even though numerator and denominator of the closed form
    are astronomically large for n beyond ~170.  n above TABLE_SIZE_LIMIT is
    refused.
    """
    _check_theta(theta)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    check_table_size(n)
    i = np.arange(n, dtype=np.float64)
    ratio = n - i
    ratio /= np.subtract(theta + n - 1.0, i, out=i)  # in place: two arrays of n at most
    return np.cumprod(ratio, out=ratio)


def psi(n: int, j: int, theta: float) -> float:
    """The weight psi(n, j) for a single index ``1 <= j <= n``."""
    _check_theta(theta)
    if not 1 <= j <= n:
        raise ValueError(f"j must lie in [1, n] = [1, {n}], got {j}")
    i = np.arange(j, dtype=np.float64)
    return float(np.prod((n - i) / (theta + n - 1.0 - i)))


def verify_mean_identity(n: int, theta: float) -> tuple[float, float]:
    """Both sides of (1/n) sum_j psi(n, j) = 1/theta."""
    lhs = math.fsum(psi_values(n, theta).tolist()) / n
    return lhs, 1.0 / theta


def verify_harmonic_identity(n: int, theta: float) -> tuple[float, float]:
    """Both sides of sum_j psi(n, j)/j = sum_{j=1..n} 1/(theta+j-1)."""
    check_table_size(n)
    j = np.arange(1, n + 1, dtype=np.float64)
    lhs = math.fsum((psi_values(n, theta) / j).tolist())
    rhs = math.fsum((1.0 / (theta + j - 1.0)).tolist())
    return lhs, rhs


def _quadratic_double_sum(n: int, theta: float, absolute: bool) -> float:
    """sum over 1 <= j,k <= n of (psi(j)psi(k) - psi(j+k) [j+k<=n]) / (jk),
    optionally with absolute values taken termwise.  Chunked O(n^2): the
    psi(j+k) of row j is the window from j of psi padded with n+1 zeros."""
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


def verify_quadratic_identity(
    n: int, theta: float, cap: int = QUADRATIC_CAP
) -> tuple[float, float]:
    """Both sides of the quadratic identity (an O(n^2) double sum).

    Refuses n above ``cap`` so the identity suite stays fast; raise the cap
    explicitly if you really want a bigger run.
    """
    if n > cap:
        raise ValueError(f"n = {n} exceeds the O(n^2) cap {cap}")
    check_theta_limit(theta)
    lhs = _quadratic_double_sum(n, theta, absolute=False)
    k = np.arange(n, dtype=np.float64)
    rhs = math.fsum((1.0 / (theta + k) ** 2).tolist())
    return lhs, rhs


def verify_telescoping(n: int, j: int, theta: float) -> tuple[float, float]:
    """Both sides of sum_{p=j}^{n-1} A_{p-j}^{theta-1}/(p A_p^theta)
    = psi(n, j) (1/j - 1/n), for 1 <= j <= n-1."""
    check_theta_limit(theta)
    if not 1 <= j <= n - 1:
        raise ValueError(f"j must lie in [1, n-1] = [1, {n - 1}], got {j}")
    p = np.arange(j, n, dtype=np.float64)
    gammaln_theta, gammaln_theta1 = _gammaln(np.array([theta, theta + 1.0]))
    log_num = _gammaln(p - j + theta) - gammaln_theta - _gammaln(p - j + 1)
    log_den = _gammaln(p + theta + 1) - gammaln_theta1 - _gammaln(p + 1)
    lhs = math.fsum((np.exp(log_num - log_den) / p).tolist())
    rhs = psi(n, j, theta) * (1.0 / j - 1.0 / n)
    return lhs, rhs
