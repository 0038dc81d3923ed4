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
averages directly.  ``c_numeric`` is exact — rational arithmetic throughout
— whenever the endpoints are ``fractions.Fraction``; one full period then
reproduces the limit exactly.

The modified ensemble needs only single-slope sums of h_j(x) = {jx}(1-{jx}),
and those are exact for every endpoint: a float counts at its binary value
p/q, and sum_j {jx} and sum_j {jx}^2 follow from the three floor sums
sum floor(j p/q), sum j floor(j p/q) and sum floor(j p/q)^2, which a
Euclid-like recursion on (p, q) gives in O(log q) steps on Python
integers (``_floor_sums``; the same reciprocity as the Dedekind sums
below).  So ``ctilde_numeric`` and ``covariance_Dtilde`` cost O(log q) per
distinct |x|, whatever n, make no array of n, and round each exact average
once.  They read H_j as the (|x| -> weight) map of ``spectral.h_weights``,
the one that ``spectral.exact_covariance_mod`` reads, one ``_h_sum`` per
distinct non-zero |x|.

The plain ensemble's float partial sums (``c_numeric``, ``covariance_D``)
need two slopes at once, sum {j alpha}{j beta}, which that recursion does
not give; they run in blocks of at most ``_BLOCK`` values of j: {j x} for
every endpoint a call needs is one row of a (K, block) array, omega =
{j beta} - {j alpha} is taken in place, and each pair of arcs the call needs
multiplies its two omega rows into one block of products
(``_frac_difference_blocks``, ``_omega_sums``).  The buffers are made once
per call, so no array of n is made and nothing is allocated per block.
Each row is written by ``spectral.frac_into``, the package's one
fractional-part kernel: the float endpoints' rows in one call, each Fraction
endpoint's row exactly by its own.  Each block's products are summed
pairwise (``np.add.reduce``) and the blocks' sums by ``math.fsum``, so the
sums call no BLAS and give the same bits for every BLAS build and thread
count.  The all-Fraction path of ``c_numeric`` sums integer terms, the
differences scaled by the lcm P of the denominators, from generators over
one period P of the terms, so it holds no list of n and walks min(n, P).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence, Union

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


#: most values of j per block of the plain ensemble's float kernel.  From a
#: sweep over 2**12 .. 2**15, ``covariance_D`` on two arcs at 10**6 took
#: 8.7, 7.3, 6.1 and 7.5 ms; its buffers then take 512 KB per arc
_BLOCK = 1 << 14


def _frac_difference_blocks(
    plus: Sequence[Endpoint], minus: Sequence[Endpoint], n: int
) -> Iterator[np.ndarray]:
    """omega[k] = {j plus[k]} - {j minus[k]} for j = 1..n, as one (K, block)
    array per block of at most _BLOCK values of j, a view of one buffer that
    the next block overwrites.  One call writes every row as a float; each
    Fraction endpoint's row is then rewritten exactly."""
    ends = [*plus, *minus]
    xs = np.array([[0.0 if isinstance(x, Fraction) else float(x)] for x in ends])
    fracs, scratch = np.empty((2, len(ends), min(n, _BLOCK)))
    for lo in range(0, n, _BLOCK):
        width = min(_BLOCK, n - lo)
        f, s = fracs[:, :width], scratch[:, :width]
        frac_into(xs, lo, f, s)
        for r, x in enumerate(ends):
            if isinstance(x, Fraction):
                frac_into(x, lo, f[r], s[r])
        omega = f[: len(plus)]
        omega -= f[len(plus) :]
        yield omega


def _omega_sums(
    plus: Sequence[Endpoint], minus: Sequence[Endpoint], pairs: Sequence[tuple[int, int]], n: int
) -> list[float]:
    """sum_{j<=n} omega_{j,k} omega_{j,l} for each (k, l) in ``pairs``, omega as
    in ``_frac_difference_blocks``: each block's products summed pairwise
    (``np.add.reduce``), the blocks' sums by ``math.fsum``."""
    partials: list[list] = [[] for _ in pairs]
    products = np.empty(min(n, _BLOCK))
    for omega in _frac_difference_blocks(plus, minus, n):
        product = products[: omega.shape[1]]
        for sums, (k, l) in zip(partials, pairs):
            sums.append(np.add.reduce(np.multiply(omega[k], omega[l], out=product)))
    return [math.fsum(sums) for sums in partials]


def _period_products(ends: Sequence[Fraction], n: int) -> tuple[Iterator[int], int]:
    """(m^2 ({js} - {jt})({ju} - {jv}) for j = 1..min(n, m), m) for ends
    (s, t, u, v) and m the lcm of their denominators, the period of the
    terms; each term is an integer, since m {j p/q} = (j p mod q) (m/q)."""
    m = math.lcm(*(x.denominator for x in ends))
    scales = [(x.numerator, x.denominator, m // x.denominator) for x in ends]
    scaled = ([j * p % q * r for p, q, r in scales] for j in range(1, min(n, m) + 1))
    return ((a - b) * (c - d) for a, b, c, d in scaled), m


def _power_sums(n: int) -> tuple[int, int]:
    """(sum_{i<=n} i, sum_{i<=n} i^2)."""
    return n * (n + 1) // 2, n * (n + 1) * (2 * n + 1) // 6


def _floor_sums(a: int, b: int, c: int, n: int) -> tuple[int, int, int]:
    """(F, G, H) = sum_{i=0}^{n} (floor((a i + b)/c), i floor(.), floor(.)^2)
    for integers a, b >= 0 and c > 0, in O(log) steps: reduce a and b mod c,
    then swap the roles of i and the floor by counting lattice points under
    the line (a i + b)/c, so (a, c) runs through Euclid's algorithm."""
    s1, s2 = _power_sums(n)
    if a == 0:
        q = b // c
        return (n + 1) * q, q * s1, (n + 1) * q * q
    if a >= c or b >= c:
        qa, qb = a // c, b // c
        f, g, h = _floor_sums(a % c, b % c, c, n)
        return (
            f + qa * s1 + qb * (n + 1),
            g + qa * s2 + qb * s1,
            h + qa * qa * s2 + qb * qb * (n + 1) + 2 * qa * qb * s1 + 2 * qb * f + 2 * qa * g,
        )
    m = (a * n + b) // c
    if m == 0:
        return 0, 0, 0
    f, g, h = _floor_sums(c, c - b - 1, a, m - 1)
    big_f = n * m - f
    return big_f, (m * n * (n + 1) - h - f) // 2, n * m * (m + 1) - 2 * g - 2 * f - big_f


def _h_sum(x: Endpoint, n: int) -> Fraction:
    """sum_{j=1}^{n} h_j(x), h_j(x) = {jx}(1-{jx}), exactly: x is taken at its
    exact value (a float at its binary one), x = p/q mod 1, and with the floor
    sums of j p/q, sum {jx} = (p S1 - q F)/q and sum {jx}^2 = (p^2 S2 -
    2 p q G + q^2 H)/q^2, where S1 = sum j and S2 = sum j^2."""
    x = Fraction(x)
    q = x.denominator
    p = x.numerator % q
    big_f, g, h = _floor_sums(p, 0, q, n)
    s1, s2 = _power_sums(n)
    first = p * s1 - q * big_f  # q sum {jx}
    second = p * p * s2 - 2 * p * q * g + q * q * h  # q^2 sum {jx}^2
    return Fraction(q * first - second, q * q)


def c_numeric(s: Endpoint, t: Endpoint, u: Endpoint, v: Endpoint, n: int) -> float:
    """Partial Cesàro average (1/n) sum_{j<=n} ({js}-{jt})({ju}-{jv}).

    Float endpoints: double precision a block of j at a time (``_omega_sums``).
    All-Fraction endpoints: exact integer arithmetic on generators over one
    period P of the terms (the lcm of the four denominators), taken n // P
    times, plus the first n mod P terms: O(min(n, P)) terms, no list, and
    no rounding beyond the final float conversion.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if _exact_mode(s, t, u, v):
        products, period = _period_products((s, t, u, v), n)
        head = sum(itertools.islice(products, n % period))  # the first n mod P terms
        return float(Fraction(n // period * (head + sum(products)) + head, period**2 * n))
    return _omega_sums((s, u), (t, v), [(0, 1)], n)[0] / n


def ctilde_numeric(s: Endpoint, t: Endpoint, u: Endpoint, v: Endpoint, n: int) -> float:
    """Partial average (1/2n) sum_{j<=n} (h_j(t-u) + h_j(s-v) - h_j(s-u) - h_j(t-v)),
    with h_j(x) = {jx}(1-{jx}): the mean H_j of the arcs (t, s] and (v, u],
    one term per entry of ``h_weights``.  Exact for every endpoint, a float
    taken at its binary value, and rounded once; each term is one ``_h_sum``,
    so the cost does not grow with n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    weights = h_weights(t, s, v, u)
    return float(sum(Fraction(w) * _h_sum(x, n) for x, w in weights.items()) / n)


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
    n_numeric (``_omega_sums``, a block of j at a time, no BLAS call),
    normalised by the diagonal averages (a correlation-shaped
    Gram matrix, hence positive semidefinite by construction).  A degenerate
    arc whose diagonal average vanishes is rejected.
    """
    if len(arcs) < 1:
        raise ValueError("need at least one arc")
    if n_numeric < 1:
        raise ValueError(f"n_numeric must be >= 1, got {n_numeric}")
    m = len(arcs)
    pairs = [(k, l) for k in range(m) for l in range(k, m)]
    sums = _omega_sums([a.beta for a in arcs], [a.alpha for a in arcs], pairs, n_numeric)
    gram = np.empty((m, m))
    for (k, l), total in zip(pairs, sums):
        gram[k, l] = gram[l, k] = total / n_numeric
    return _correlation(gram)


def covariance_Dtilde(arcs: Sequence[Arc], n_numeric: int = 10**6) -> CovarianceMatrix:
    """Normalised limit covariance of modified-ensemble counts over several arcs.

    Entry (k, l) averages H_{j,k,l}, the term of ``spectral.h_weights`` for
    arcs k and l; for k = l this is h_j(delta_k), the variance constant of
    arc k.  Each distinct non-zero |x| of all pairs is one exact ``_h_sum``,
    float endpoints taken at their binary value, so the cost does not grow
    with n_numeric and each entry is its exact average rounded once.  For
    each j the matrix (H_{j,k,l}) is a covariance of indicator differences,
    so the average is positive semidefinite by construction.
    """
    if len(arcs) < 1:
        raise ValueError("need at least one arc")
    if n_numeric < 1:
        raise ValueError(f"n_numeric must be >= 1, got {n_numeric}")
    m = len(arcs)
    pairs = [(k, l) for k in range(m) for l in range(k, m)]
    maps = [h_weights(arcs[k].alpha, arcs[k].beta, arcs[l].alpha, arcs[l].beta) for k, l in pairs]
    xs = dict.fromkeys(x for weights in maps for x in weights)  # first-seen order
    h_sum = {x: _h_sum(x, n_numeric) for x in xs}
    gram = np.empty((m, m))
    for (k, l), weights in zip(pairs, maps):
        total = sum(Fraction(w) * h_sum[x] for x, w in weights.items())
        gram[k, l] = gram[l, k] = float(total / n_numeric)
    return _correlation(gram)
