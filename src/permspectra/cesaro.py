"""The cycle-count weight function and the Cesàro summation identities.

The central object is the weight

    psi(n, j) = n (n-1) ... (n-j+1) / ((theta+n-1) (theta+n-2) ... (theta+n-j)),

a product of ``j`` ratios close to one.  Under the Ewens measure of parameter
``theta`` the expected number of j-cycles of an n-permutation equals
``theta/j * psi(n, j)``, and the same weights are (up to normalisation) the
kernel of Cesàro averaging of order ``theta``.  All the variance formulas in
:mod:`permspectra.spectral` are weighted sums against this table, so this
module provides an evaluator within 1e-13 of the exact product, plus
explicit two-sided checks of the summation identities they rely on:

* mean identity       (1/n) sum_j psi(n, j)            = 1/theta
* harmonic identity   sum_j psi(n, j)/j                = sum_j 1/(theta+j-1)
* quadratic identity  sum_{j,k} (psi(n,j)psi(n,k) - psi(n,j+k) [j+k<=n])/(jk)
                                                        = sum_{k<n} 1/(theta+k)^2
* telescoping sum     sum_{p=j}^{n-1} A_{p-j}^{theta-1}/(p A_p^theta)
                                                        = psi(n, j) (1/j - 1/n)

where ``A_n^delta`` are the Cesàro (binomial) numbers.  Each ``verify_*``
function returns the two sides in O(n); callers assert the gap at their
tolerance.  The quadratic double sum collapses through
sum_{j+k=m} 1/(jk) = 2 H_{m-1}/m, and the telescoping summands are
exponentials of log1p window sums, not of log-gamma differences.

The table is made one way, as blocks of TABLE_BLOCK values of j in one
reused buffer (``psi_blocks``), which ``psi_values`` copies into one array
and every exact sum reads a block at a time, summing each block pairwise
(``np.add.reduce``) and the blocks' sums by ``math.fsum``, with no BLAS
call.  Only the plain covariance keeps the blocks whole, for its cross
term.  At theta = 1 the blocks are ones.
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

__all__ = [
    "psi",
    "psi_blocks",
    "psi_values",
    "verify_mean_identity",
    "verify_harmonic_identity",
    "verify_quadratic_identity",
    "verify_telescoping",
]

#: largest n of a psi table.  Measured with tracemalloc, the telescoping
#: check peaks at 29.3 bytes per element, so this n peaks below 2 GB; the
#: table itself is 8; the other sums that read it stream it a block at a
#: time and hold only blocks.  The plain ensemble's
#: FFT holds more; ``spectral._covariance_perm`` caps its n at this limit
#: scaled to its bytes per element.  Rational endpoints with denominators
#: beyond 2**62 / n take Python-integer products, but only a short run of j
#: at a time (``spectral.frac_into``), so they hold no more than float
#: endpoints.
TABLE_SIZE_LIMIT = 40_000_000


#: overflow guard on theta for the plain-ensemble moments and the identity
#: checks, which square theta (overflow above 1.3e154); 2**53 leaves a wide
#: margin.  It guarantees no accuracy: the plain exact moments lose digits
#: in proportion to theta, so they also refuse theta above
#: ``spectral.PLAIN_THETA_LIMIT`` = 2**9, checked after this guard
THETA_LIMIT = 2.0**53


#: floor on theta for the identity checks, whose sums reach 1/theta**2
#: (overflow below 7.5e-155), and for the modified exact moments, whose psi
#: table reaches psi(n, n) ~ n/theta; both are finite down to this floor
THETA_FLOOR = 2.0**-500


def check_theta(theta: float) -> None:
    """Refuse a theta that is not positive and finite."""
    if not 0 < theta < math.inf:
        raise ValueError(f"theta must be positive and finite, got {theta}")


def check_theta_limit(theta: float) -> None:
    """Refuse a theta that is not positive and finite, or is above the
    overflow guard THETA_LIMIT."""
    check_theta(theta)
    if theta > THETA_LIMIT:
        raise ValueError(f"theta = {theta} exceeds 2**53, the guard against overflow in these sums")


def check_table_size(
    n: int, arrays: str = "a psi table (up to 48 bytes per element at the peak)"
) -> None:
    """Refuse n above TABLE_SIZE_LIMIT before anything of length n is allocated;
    ``arrays`` names what the caller would build."""
    if n > TABLE_SIZE_LIMIT:
        raise ValueError(f"n = {n} exceeds the size limit {TABLE_SIZE_LIMIT} of {arrays}")


#: the factors of psi with m > _NEAR_ONE |theta-1| lie within 1/16 of one
_NEAR_ONE = 16

#: values of j per block of the exact tables (psi here, the arc weights and
#: h_j(x) in :mod:`permspectra.spectral`): 256 KB of float64, so that the few
#: arrays of one block stay in a 2 MB L2 cache.  Chosen from a sweep over
#: 2**13 .. 2**17; at 2**13 the per-block numpy calls cost more than the
#: cache saves where theta != 1
TABLE_BLOCK = 1 << 15

#: 0, 1, ..., TABLE_BLOCK - 1: every block's j (or m) is this ramp shifted
_RAMP = np.arange(TABLE_BLOCK, dtype=np.float64)


def block_j(lo: int, out: np.ndarray) -> np.ndarray:
    """Write j = lo+1 .. lo+len(out) as float64 into ``out`` and return it:
    the shared ramp plus a shift, one ramp's length at a time (an addition,
    half the time of an arange, and nothing allocated).  Exact while
    j < 2**53."""
    for start in range(0, len(out), len(_RAMP)):
        part = out[start : start + len(_RAMP)]
        np.add(_RAMP[: len(part)], lo + 1 + start, out=part)
    return out


def _psi_blocks(n: int, j: int, theta: float) -> Iterator[tuple[int, np.ndarray]]:
    """``[psi(n, 1), ..., psi(n, j)]`` as (lo, block) pairs, block holding
    entries lo+1 .. lo+len(block), at most TABLE_BLOCK of them: the running
    product of the factors 1/(1 + (theta-1)/m), m = n, n-1, ..., n-j+1.
    Each block is written into one buffer that the next block overwrites;
    callers only read it.

    Factors near one (the first) go in as a running sum of log1p((theta-1)/m):
    rounded to doubles, with the same sign over long runs of m, they drifted
    the product by up to n eps.  The rest are multiplied directly, where a log
    sum would cost |log psi| eps; at m = 1 the factor is 1/theta itself.
    Each block's first term carries the sum (or product) of the blocks before
    it into ``np.cumsum`` (``np.cumprod``), which gives the sequential running
    sum bit for bit.  At theta = 1 every factor is exactly one.
    """
    buffer = np.empty(min(j, TABLE_BLOCK))
    cut = _NEAR_ONE * abs(theta - 1.0)
    near = min(j, 0 if cut >= n - 1 else n - max(1, math.floor(cut)))
    log_sum, product, at_near = 0.0, 1.0, 1.0
    for lo in range(0, j, TABLE_BLOCK):
        hi = min(lo + TABLE_BLOCK, j)
        block = buffer[: hi - lo]
        if theta == 1.0:
            if lo == 0:  # the buffer keeps its ones
                block.fill(1.0)
            yield lo, block
            continue
        np.subtract(n - lo, _RAMP[: hi - lo], out=block)  # m
        np.divide(theta - 1.0, block, out=block)
        split = min(max(near - lo, 0), hi - lo)
        logs = block[:split]
        if split:
            np.log1p(logs, out=logs)
            logs[0] += log_sum
            np.cumsum(logs, out=logs)
            log_sum = logs[-1]
            np.exp(np.negative(logs, out=logs), out=logs)
            at_near = logs[-1]
        ratios = block[split:]
        if len(ratios):
            head = ratios[:-1] if hi == n else ratios
            np.divide(1.0, np.add(head, 1.0, out=head), out=head)
            if hi == n:
                ratios[-1] = 1.0 / theta
            ratios[0] *= product
            np.cumprod(ratios, out=ratios)
            product = ratios[-1]
            if near:
                ratios *= at_near
        yield lo, block


def _check_table(n: int, theta: float) -> None:
    check_theta(theta)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    check_table_size(n)


def psi_blocks(n: int, theta: float) -> Iterator[tuple[int, np.ndarray]]:
    """The psi table as (lo, block) pairs in one reused buffer
    (``_psi_blocks``), its arguments checked before any block is made; n
    above TABLE_SIZE_LIMIT is refused."""
    _check_table(n, theta)
    return _psi_blocks(n, n, theta)


def psi_values(n: int, theta: float) -> np.ndarray:
    """Table ``[psi(n, 1), ..., psi(n, n)]``; no factor overflows, though the
    closed form's numerator and denominator do beyond n ~ 170.  n above
    TABLE_SIZE_LIMIT is refused."""
    blocks = psi_blocks(n, theta)
    table = np.empty(n)
    for lo, block in blocks:
        table[lo : lo + len(block)] = block
    return table


def psi(n: int, j: int, theta: float) -> float:
    """The weight psi(n, j) for a single index ``1 <= j <= n``; the same bits
    as ``psi_values(n, theta)[j - 1]``."""
    check_theta(theta)
    if not 1 <= j <= n:
        raise ValueError(f"j must lie in [1, n] = [1, {n}], got {j}")
    for _, block in _psi_blocks(n, j, theta):
        pass
    return float(block[-1])


def _check_identity_theta(theta: float) -> None:
    """check_theta_limit, and its mirror THETA_FLOOR: the identity sums reach
    1/theta**2 and n/theta, finite there."""
    check_theta_limit(theta)
    if theta < THETA_FLOOR:
        raise ValueError(
            f"theta = {theta} is below 2**-500, the floor of the identity checks, "
            "whose sums reach 1/theta**2"
        )


def _identity_sums(n: int, theta: float) -> tuple[float, ...]:
    """(sum psi_j, sum psi_j/j, sum psi_j H_{j-1}/j, sum 1/(theta+j-1),
    sum 1/(theta+j-1)^2) over j <= n, in one sweep of ``psi_blocks`` into
    buffers of one block: H_{j-1} is a running cumsum of 1/j carried from
    block to block, and theta goes in last, since theta + 1 - 1 keeps only
    its bits above 2**-52."""
    _check_identity_theta(theta)
    blocks = psi_blocks(n, theta)
    ramp, inverse, ratio, term = np.empty((4, min(n, TABLE_BLOCK)))
    partials: tuple[list, ...] = ([], [], [], [], [])
    harmonic = 0.0  # H_lo
    for lo, block in blocks:
        j = block_j(lo, ramp[: len(block)])
        inv = np.divide(1.0, j, out=inverse[: len(block)])
        r = np.divide(block, j, out=ratio[: len(block)])  # psi_j / j
        h = term[: len(block)]
        h[0], h[1:] = harmonic, inv[:-1]
        harmonic = np.cumsum(h, out=h)[-1] + inv[-1]  # h = H_{j-1}, harmonic = H_hi
        h *= r
        k = np.add(np.subtract(j, 1.0, out=j), theta, out=j)
        reciprocal = np.divide(1.0, k, out=inv)
        square = np.divide(1.0, np.square(k, out=k), out=k)
        for sums, terms in zip(partials, (block, r, h, reciprocal, square)):
            sums.append(np.add.reduce(terms))
    return tuple(math.fsum(sums) for sums in partials)


def verify_mean_identity(n: int, theta: float) -> tuple[float, float]:
    """Both sides of (1/n) sum_j psi(n, j) = 1/theta."""
    return _identity_sums(n, theta)[0] / n, 1.0 / theta


def verify_harmonic_identity(n: int, theta: float) -> tuple[float, float]:
    """Both sides of sum_j psi(n, j)/j = sum_{j=1..n} 1/(theta+j-1)."""
    sums = _identity_sums(n, theta)
    return sums[1], sums[3]


def verify_quadratic_identity(n: int, theta: float) -> tuple[float, float]:
    """Both sides of the quadratic identity, in O(n): since sum_{j+k=m} 1/(jk)
    = 2 H_{m-1}/m, its double sum is (sum_j psi_j/j)^2 - 2 sum_m psi_m H_{m-1}/m."""
    _, first, cross, _, rhs = _identity_sums(n, theta)
    return first * first - 2.0 * cross, rhs


def verify_telescoping(n: int, j: int, theta: float) -> tuple[float, float]:
    """Both sides of sum_{p=j}^{n-1} A_{p-j}^{theta-1}/(p A_p^theta)
    = psi(n, j) (1/j - 1/n), for 1 <= j <= n-1.

    The summand ratio is theta/(theta+p-j) prod_{m=p-j+1}^{p} m/(theta+m), so
    its log is -log1p((p-j)/theta) + s_p - s_{p-j} with
    s_m = -sum_{i<=m} log1p(theta/i): no term grows like theta log theta.
    """
    _check_identity_theta(theta)
    if not 1 <= j <= n - 1:
        raise ValueError(f"j must lie in [1, n-1] = [1, {n - 1}], got {j}")
    check_table_size(n)
    s = np.zeros(n)  # s_0 .. s_{n-1}
    np.cumsum(-np.log1p(theta / np.arange(1, n, dtype=np.float64)), out=s[1:])
    k = np.arange(n - j, dtype=np.float64)  # p - j
    log_ratio = s[j:] - s[: n - j] - np.log1p(k / theta)
    lhs = float((np.exp(log_ratio) / (k + j)).sum())
    rhs = psi(n, j, theta) * (1.0 / j - 1.0 / n)
    return lhs, rhs
