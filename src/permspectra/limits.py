"""Limit constants for counting-statistic variances and covariances.

Everything here is about Cesàro averages of products of fractional parts:

    c(s, t, u, v)  = lim (1/N) sum_j ({j s} - {j t})({j u} - {j v})
    c~(s, t, u, v) = lim (1/2N) sum_j (h_j(t-u) + h_j(s-v) - h_j(s-u) - h_j(t-v))

with h_j(x) = {j x}(1 - {j x}).  For an arc (alpha, beta], the diagonal
values c(alpha, beta, alpha, beta) and c~(alpha, beta, alpha, beta) are the
constants multiplying theta log N in the variance of the eigenvalue counts
of the plain and phase-modified ensembles, and the full matrices normalise
the joint Gaussian limit over several arcs.

The closed-form values are discontinuous in the arithmetic of the
endpoints (rational versus irrational, and rational affine relations
between them), and rationality is undecidable from a float.  Callers must
therefore *declare* each endpoint's arithmetic through its type: a
``Fraction`` is rational, a ``DeclaredIrrational`` (a float that carries the
declaration) irrational, and an ``AffineRelated`` beta is p/q + (r/s) alpha.
A pair's class is its endpoint types, and the closed forms refuse a bare
float, which declares nothing.  Two declared irrationals are taken as
linearly independent over the rationals together with 1, a fact used but
not verified (two equal mod 1 are refused); so are the named irrational
constants that ship with the package.

Every closed-form constant comes from two endpoint means and one pair mean,
kept as Fractions and rounded to float once: m1(x) = lim mean {j x} and
m2(x) = lim mean {j x}^2 (one-period means for a rational x, 1/2 and 1/3
for an irrational one), and s3 = lim mean {j alpha}{j beta} (a Dedekind
sum when both endpoints are rational, a closed form in the affine case,
m1(alpha) m1(beta) otherwise).  Then c2 = m2(alpha) + m2(beta) - 2 s3,
ell(delta) = m1(delta) - m2(delta), and the shrinking-arc constant is c2
against an independent irrational, m2(alpha) + 1/3 - m1(alpha).

Numeric oracles (``c_numeric``, ``ctilde_numeric``) evaluate the partial
averages directly and are exact — rational arithmetic throughout — whenever
the endpoints are ``fractions.Fraction``; one full period then reproduces
the limit exactly.

Float partial sums run in blocks: {j x} for every endpoint or difference a
call needs is one (K, block) array per block of at most 8192 values of j,
in one preallocated buffer, so no length-n array is made beyond the result.
Each row is written by ``spectral.frac_into``, the package's one
fractional-part kernel: the float endpoints' rows in one call, each Fraction
endpoint's row exactly by its own.  Results equal the full-array formulas
bit for bit: each {j x} comes from the same product and floor, the omega
columns fill the same C-ordered arrays the one BLAS call gets, and sums of
h_j(x) = {jx}(1-{jx}) split where numpy's pairwise summation does (halves
rounded down to a multiple of 8), with ``np.add.reduce`` summing each
block.  ``covariance_Dtilde`` and ``ctilde_numeric`` read H_j as the
(|x| -> weight) map of ``spectral.h_weights``, the one that
``spectral.exact_covariance_mod`` reads, and the kernel evaluates its
distinct non-zero |x|, one row each.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

import numpy as np

from .spectral import Arc, Endpoint, frac_into, h_weights

__all__ = [
    "DeclaredIrrational",
    "NAMED_IRRATIONALS",
    "AffineRelated",
    "CovarianceMatrix",
    "c_numeric",
    "ctilde_numeric",
    "c2_closed",
    "s3_closed",
    "ell_closed",
    "c2_meso",
    "covariance_D",
    "covariance_Dtilde",
]


class DeclaredIrrational(float):
    """A float carrying the caller's declaration that it is irrational.

    It is the float itself, so it goes into an ``Arc`` as it is and every
    arithmetic use sees the same bits; only the closed forms read the
    declaration.  ``value`` is the plain float, ``name`` a label.
    """

    def __new__(cls, value: float, name: str = ""):
        self = super().__new__(cls, value)
        self.name = name
        return self

    @property
    def value(self) -> float:
        return float(self)


#: fractional parts of well-known irrationals (angles live in [0, 1)).
#: golden is 1/phi = phi - 1; the set {1, sqrt2, sqrt3, golden, e, pi} is
#: declared linearly independent over the rationals.
NAMED_IRRATIONALS: dict[str, DeclaredIrrational] = {
    "golden": DeclaredIrrational((1.0 + math.sqrt(5.0)) / 2.0 - 1.0, "golden"),
    "sqrt2": DeclaredIrrational(math.sqrt(2.0) - 1.0, "sqrt2"),
    "sqrt3": DeclaredIrrational(math.sqrt(3.0) - 1.0, "sqrt3"),
    "e": DeclaredIrrational(math.e - 2.0, "e"),
    "pi": DeclaredIrrational(math.pi - 3.0, "pi"),
}


@dataclass(frozen=True)
class AffineRelated:
    """beta = p/q + (r/s) alpha with r != 0, as the ``beta`` of an irrational
    ``alpha``; the constants depend on p/q and r/s in lowest terms alone."""

    p: int
    q: int
    r: int
    s: int

    def __post_init__(self):
        if self.q < 1 or self.s < 1:
            raise ValueError(f"denominators must be >= 1, got q={self.q}, s={self.s}")
        if self.r == 0:
            raise ValueError("r must be non-zero (beta would be rational)")


# ---------------------------------------------------------------------------
# numeric oracles
# ---------------------------------------------------------------------------


def _exact_mode(*xs: Endpoint) -> bool:
    return all(isinstance(x, (Fraction, int)) for x in xs)


def _frac_seq_exact(x: Fraction, n: int) -> list[Fraction]:
    q, p = x.denominator, x.numerator % x.denominator
    return [Fraction((j * p) % q, q) for j in range(1, n + 1)]


#: most values of j per block; above numpy's pairwise leaf of 128 values, so
#: numpy halves every length that the kernel halves
_BLOCK = 8192


def _fill_frac_differences(plus: Sequence[Endpoint], minus: Sequence[Endpoint], out) -> None:
    """out[k][j-1] = {j plus[k]} - {j minus[k]} for j = 1..n, one length-n
    array or view per pair in ``out``; Fraction endpoints stay exact.  The
    float endpoints take the first rows of each block, written by one call."""
    ends = [*plus, *minus]
    order = sorted(range(len(ends)), key=lambda k: isinstance(ends[k], Fraction))
    row = {k: r for r, k in enumerate(order)}  # block row of endpoint k
    xs = np.array([float(ends[k]) for k in order if not isinstance(ends[k], Fraction)])
    buf = np.empty(len(ends) * _BLOCK)
    for lo in range(0, len(out[0]), _BLOCK):
        hi = min(lo + _BLOCK, len(out[0]))
        f = buf[: len(ends) * (hi - lo)].reshape(len(ends), hi - lo)
        frac_into(xs[:, None], lo, f[: len(xs)])
        for r in range(len(xs), len(ends)):
            frac_into(ends[order[r]], lo, f[r])
        for k, diff in enumerate(out):
            np.subtract(f[row[k]], f[row[len(plus) + k]], out=diff[lo:hi])


def _pairwise(leaf, lo: int, size: int):
    """Sum of the ``size`` values from index ``lo`` in numpy's pairwise order:
    halve (rounded down to a multiple of 8) down to pieces of at most
    ``_BLOCK`` values, each summed by ``leaf(lo, size)`` with ``np.add.reduce``."""
    if size <= _BLOCK:
        return leaf(lo, size)
    half = size // 2
    half -= half % 8
    return _pairwise(leaf, lo, half) + _pairwise(leaf, lo + half, size - half)


def _h_means(xs: Sequence[float], n: int) -> np.ndarray:
    """(1/n) sum_{j<=n} h_j(x) for each non-zero x of ``h_weights``, bit for
    bit ``np.mean(f * (1 - f))`` over the full array f = {j x}."""
    rows = np.asarray(xs, dtype=np.float64)[:, None]
    buf = np.empty(len(rows) * _BLOCK)

    def leaf(lo: int, size: int) -> np.ndarray:
        f = frac_into(rows, lo, buf[: len(rows) * size].reshape(len(rows), size))
        # 1 - f takes the memory the writer's floor has just freed: one buffer
        np.multiply(f, 1.0 - f, out=f)
        return np.add.reduce(f, axis=1)

    return _pairwise(leaf, 0, n) / n


def c_numeric(s: Endpoint, t: Endpoint, u: Endpoint, v: Endpoint, n: int) -> float:
    """Partial Cesàro average (1/n) sum_{j<=n} ({js}-{jt})({ju}-{jv}).

    Float endpoints: vectorised double precision.  All-Fraction endpoints:
    exact rational arithmetic, so summing over one full period returns the
    limit with no rounding beyond the final float conversion.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if _exact_mode(s, t, u, v):
        fs, ft, fu, fv = (_frac_seq_exact(Fraction(x), n) for x in (s, t, u, v))
        total = sum((a - b) * (c - d) for a, b, c, d in zip(fs, ft, fu, fv))
        return float(total / n)
    left, right = np.empty(n), np.empty(n)
    _fill_frac_differences((s, u), (t, v), (left, right))
    return float(left @ right) / n


def _h_mean_exact(x: Fraction, n: int) -> Fraction:
    return sum(f * (1 - f) for f in _frac_seq_exact(x, n)) / n


def ctilde_numeric(s: Endpoint, t: Endpoint, u: Endpoint, v: Endpoint, n: int) -> float:
    """Partial average (1/2n) sum_{j<=n} (h_j(t-u) + h_j(s-v) - h_j(s-u) - h_j(t-v)),
    with h_j(x) = {jx}(1-{jx}): the mean H_j of the arcs (t, s] and (v, u],
    one term per entry of ``h_weights``.  Exact in the all-Fraction case."""
    if n < 1:
        raise ValueError("n must be >= 1")
    weights = h_weights(t, s, v, u)
    if _exact_mode(s, t, u, v):
        return float(sum(Fraction(w) * _h_mean_exact(Fraction(x), n) for x, w in weights.items()))
    means = _h_means(list(weights), n).tolist()
    return sum((w * h for w, h in zip(weights.values(), means)), 0.0)


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


def _s3_both_rational_exact(p: int, q: int, r: int, s: int) -> Fraction:
    """Exact lim (1/n) sum {j p/q}{j r/s}, the mean over one period of length
    q s: (q-1)(s-1)/(4qs) + (d s(c, d) + (d-1)/4)/(qs), with d = gcd(q, s),
    c = r p^-1 mod d and s(c, d) the Dedekind sum.  Reciprocity,
    s(h, k) + s(k, h) = (h/k + k/h + 1/(hk))/12 - 1/4 with s(0, 1) = 0,
    gives s(c, d) in the O(log d) steps of Euclid's algorithm on (c, d)."""
    d = math.gcd(q, s)
    h, k, sign, dedekind = r * pow(p, -1, d) % d, d, 1, Fraction(0)
    while k > 1:
        dedekind += sign * (Fraction(h * h + k * k + 1, 12 * h * k) - Fraction(1, 4))
        sign, h, k = -sign, k % h, h
    return Fraction((q - 1) * (s - 1), 4 * q * s) + (d * dedekind + Fraction(d - 1, 4)) / (q * s)


def _means(x) -> tuple[Fraction, Fraction]:
    """(lim mean {j x}, lim mean {j x}^2): the one-period means
    ((q-1)/(2q), (q-1)(2q-1)/(6q^2)) for a rational x of denominator q, the
    uniform moments (1/2, 1/3) for a DeclaredIrrational.  A bare float
    declares neither, and is refused."""
    if isinstance(x, DeclaredIrrational):
        return Fraction(1, 2), Fraction(1, 3)
    if not isinstance(x, (Fraction, int)):
        raise ValueError(
            f"endpoint {x!r} is undeclared: give a Fraction for a rational endpoint "
            "or a DeclaredIrrational for an irrational one"
        )
    q = Fraction(x).denominator
    return Fraction(q - 1, 2 * q), Fraction((q - 1) * (2 * q - 1), 6 * q * q)


def _pair_means(alpha, beta) -> tuple[Fraction, Fraction, Fraction]:
    """(m2(alpha), m2(beta), s3) for a declared pair, s3 = lim mean {j alpha}{j beta}:
    the Dedekind-sum form when both are rational, 1/4 + d^2/(12 s r q^2) with
    d = gcd(s, q) for an AffineRelated beta = p/q + (r/s) alpha (lowest
    terms), and m1(alpha) m1(beta) for independent fractional parts."""
    if isinstance(beta, AffineRelated):
        if not isinstance(alpha, DeclaredIrrational):
            raise ValueError("an AffineRelated beta needs a DeclaredIrrational alpha")
        q = Fraction(beta.p, beta.q).denominator
        slope = Fraction(beta.r, beta.s)
        r, s, d = slope.numerator, slope.denominator, math.gcd(slope.denominator, q)
        return Fraction(1, 3), Fraction(1, 3), Fraction(1, 4) + Fraction(d * d, 12 * s * r * q**2)
    (m1a, m2a), (m1b, m2b) = _means(alpha), _means(beta)
    irrational = isinstance(alpha, DeclaredIrrational), isinstance(beta, DeclaredIrrational)
    if all(irrational) and (alpha - beta).is_integer():
        raise ValueError(
            f"alpha and beta are the same irrational mod 1 ({alpha!r}, {beta!r}), not an "
            "independent pair; declare beta as AffineRelated(0, 1, 1, 1)"
        )
    if any(irrational):
        return m2a, m2b, m1a * m1b
    a, b = Fraction(alpha), Fraction(beta)
    return m2a, m2b, _s3_both_rational_exact(a.numerator, a.denominator, b.numerator, b.denominator)


def s3_closed(alpha, beta) -> float:
    """Closed-form limit of (1/n) sum {j alpha}{j beta} for declared endpoints:
    each a Fraction or a DeclaredIrrational, or beta an AffineRelated."""
    return float(_pair_means(alpha, beta)[2])


def c2_closed(alpha, beta) -> float:
    """Closed-form limit of (1/n) sum ({j beta} - {j alpha})^2, m2(alpha) + m2(beta) - 2 s3,
    for endpoints declared as in ``s3_closed``: 1/6 for independent
    irrationals, 1/6 + 1/(6 q^2) against one rational endpoint p/q,
    1/6 - d^2/(6 s r q^2) in the affine case."""
    m2a, m2b, s3 = _pair_means(alpha, beta)
    return float(m2a + m2b - 2 * s3)


def ell_closed(delta: Union[Fraction, DeclaredIrrational]) -> float:
    """Variance constant of the modified ensemble as a function of the width:
    lim (1/n) sum h_j(delta) = m1(delta) - m2(delta), which is 1/6 for
    irrational delta and 1/6 - 1/(6 q^2) for delta = p/q (zero when delta is
    an integer: the count is then deterministic)."""
    m1, m2 = _means(delta)
    return float(m1 - m2)


def c2_meso(alpha: Union[Fraction, DeclaredIrrational]) -> float:
    """Variance constant of the plain ensemble for a shrinking arc anchored at
    alpha: c2 against an independent irrational, m2(alpha) + 1/3 - m1(alpha),
    which is 1/6 for irrational alpha and 1/6 + 1/(6 q^2) for alpha = p/q."""
    m1, m2 = _means(alpha)
    return float(m2 + Fraction(1, 3) - m1)


# ---------------------------------------------------------------------------
# covariance matrices
# ---------------------------------------------------------------------------


@dataclass
class CovarianceMatrix:
    """Symmetric unit-diagonal matrix, positive semidefinite up to 1e-6."""

    entries: np.ndarray

    def __post_init__(self):
        m = self.entries
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("entries must be square")
        if not np.allclose(m, m.T, atol=1e-12):
            raise ValueError("entries must be symmetric")
        if not np.allclose(np.diag(m), 1.0, atol=1e-9):
            raise ValueError("diagonal must be 1")
        if np.linalg.eigvalsh(m).min() < -1e-6:
            raise ValueError("matrix is not positive semidefinite within tolerance")


def _correlation(gram: np.ndarray) -> CovarianceMatrix:
    """The Gram matrix normalised by its diagonal; a degenerate arc, whose
    diagonal entry vanishes, is refused."""
    diag = np.diag(gram)
    if np.any(diag <= 1e-12):
        raise ValueError("degenerate arc: vanishing count variance constant")
    return CovarianceMatrix(entries=gram / np.sqrt(np.outer(diag, diag)))


def covariance_D(arcs: Sequence[Arc], n_numeric: int = 10**6) -> CovarianceMatrix:
    """Normalised limit covariance of plain-ensemble counts over several arcs.

    Entry (k, l) is the Cesàro average of omega_{j,k} omega_{j,l} at
    n_numeric, normalised by the diagonal averages (a correlation-shaped
    Gram matrix, hence positive semidefinite by construction).  A degenerate
    arc whose diagonal average vanishes is rejected.
    """
    if len(arcs) < 1:
        raise ValueError("need at least one arc")
    omegas = np.empty((n_numeric, len(arcs)))
    _fill_frac_differences([a.beta for a in arcs], [a.alpha for a in arcs], omegas.T)
    return _correlation(omegas.T @ omegas / n_numeric)


def covariance_Dtilde(arcs: Sequence[Arc], n_numeric: int = 10**6) -> CovarianceMatrix:
    """Normalised limit covariance of modified-ensemble counts over several arcs.

    Entry (k, l) averages H_{j,k,l}, the term of ``spectral.h_weights`` for
    arcs k and l; for k = l this is h_j(delta_k), the variance constant of
    arc k.  Each distinct |x| of all pairs is one row of ``_h_means``.  For
    each j the matrix (H_{j,k,l}) is a covariance of indicator differences,
    so the average is positive semidefinite by construction.
    """
    if len(arcs) < 1:
        raise ValueError("need at least one arc")
    m = len(arcs)
    pairs = [(k, l) for k in range(m) for l in range(k, m)]
    maps = [h_weights(arcs[k].alpha, arcs[k].beta, arcs[l].alpha, arcs[l].beta) for k, l in pairs]
    xs = list(dict.fromkeys(x for weights in maps for x in weights))  # first-seen order
    h_mean = dict(zip(xs, _h_means(xs, n_numeric).tolist()))
    gram = np.empty((m, m))
    for (k, l), weights in zip(pairs, maps):
        gram[k, l] = gram[l, k] = sum(w * h_mean[x] for x, w in weights.items())
    return _correlation(gram)
