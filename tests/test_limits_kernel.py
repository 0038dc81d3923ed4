"""The blocked Cesàro kernel in ``limits`` against the full-array formulas.

``covariance_D``, ``covariance_Dtilde``, ``c_numeric`` and ``ctilde_numeric``
must equal the formulas in ``conftest`` bit for bit (no tolerance): block
edges at 8192, numpy's pairwise-summation boundaries (8, 128) and the two
n_numeric sizes the CLI and the benchmark use are all crossed.  All-Fraction
endpoints must keep their exact rational path.
"""

from fractions import Fraction as F

import numpy as np
import pytest

from conftest import (
    c_numeric_formula,
    covariance_D_formula,
    covariance_Dtilde_formula,
    ctilde_numeric_formula,
)
from permspectra import (
    NAMED_IRRATIONALS,
    Arc,
    c_numeric,
    covariance_D,
    covariance_Dtilde,
    ctilde_numeric,
    limits,
)

GOLDEN, SQRT2, SQRT3, E, PI = (
    NAMED_IRRATIONALS[k].value for k in ("golden", "sqrt2", "sqrt3", "e", "pi")
)

SIZES = [1, 7, 128, 129, 8191, 8193] + [
    pytest.param(n, marks=pytest.mark.slow) for n in (999_983, 10**6)
]

ARC_SETS = {
    "one arc": [Arc(SQRT2, GOLDEN)],
    "README arcs": [Arc(SQRT2, GOLDEN), Arc(E, SQRT3)],
    "three overlapping": [Arc(0.1, 0.6), Arc(0.3, 0.9), Arc(0.15, 0.7)],
    # beta > 1, and endpoints shared between arcs (zero differences)
    "wrapped, shared endpoints": [Arc(0.7, 1.2), Arc(0.2, 0.7), Arc(PI, 0.7)],
    # 49 * float(1/49) rounds to 1 - 2^-53, so a float floor would be off
    "fractions mixed with floats": [
        Arc(GOLDEN, SQRT2 + 1.0), Arc(F(1, 3), F(3, 4)), Arc(F(1, 49), 0.35)
    ],
}


def same_or_both_refuse(build, oracle, *args):
    try:
        expected = oracle(*args)
    except ValueError:
        with pytest.raises(ValueError):
            build(*args)
        return
    got = build(*args)
    if isinstance(expected, np.ndarray):
        assert np.array_equal(got.entries, expected)
    else:
        assert got == expected and type(got) is type(expected)


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("name", sorted(ARC_SETS))
def test_bit_identical_to_full_array_formulas(name, n):
    arcs = ARC_SETS[name]
    same_or_both_refuse(covariance_D, covariance_D_formula, arcs, n)
    same_or_both_refuse(covariance_Dtilde, covariance_Dtilde_formula, arcs, n)
    for k, arc in enumerate(arcs):
        for other in arcs[k:]:
            ends = (arc.beta, arc.alpha, other.beta, other.alpha)
            if all(isinstance(x, F) for x in ends):
                continue  # the exact path, below
            same_or_both_refuse(c_numeric, c_numeric_formula, *ends, n)
            same_or_both_refuse(ctilde_numeric, ctilde_numeric_formula, *ends, n)


def test_one_h_mean_row_per_distinct_nonzero_difference(monkeypatch):
    # the README arcs' three pairs hold 9 distinct signed differences, 0
    # among them, but 6 distinct non-zero |x|: one call with those 6
    calls, h_means = [], limits._h_means

    def spy(xs, n):
        calls.append(list(xs))
        return h_means(xs, n)

    monkeypatch.setattr(limits, "_h_means", spy)
    arcs = ARC_SETS["README arcs"]
    covariance_Dtilde(arcs, 1000)
    assert len(calls) == 1 and len(calls[0]) == len(set(calls[0])) == 6
    assert 0.0 not in calls[0]


@pytest.mark.parametrize("n", [1, 8193])
def test_large_denominators_stay_exact(n):
    # j q passes 2^62 inside the run of j, so the writer switches to Python
    # integers part way; the blocks switch at their own j and must agree
    arcs = [Arc(F(1, 2**61 + 1), F(2**60, 2**61 + 1)), Arc(SQRT2, GOLDEN)]
    same_or_both_refuse(covariance_D, covariance_D_formula, arcs, n)
    ends = (arcs[0].beta, arcs[0].alpha, arcs[1].beta, arcs[1].alpha)
    same_or_both_refuse(c_numeric, c_numeric_formula, *ends, n)


def test_fraction_rows_are_exact():
    out = np.empty(98)
    limits._fill_frac_differences([F(1, 49)], [0.0], (out,))
    assert out[48] == 0.0 and out[97] == 0.0  # {49/49}, {98/49}
    assert out[0] == 1 / 49


def test_all_fraction_endpoints_take_the_exact_path(monkeypatch):
    def refuse(*args):
        raise AssertionError("the float kernel ran on all-Fraction endpoints")

    monkeypatch.setattr(limits, "_fill_frac_differences", refuse)
    monkeypatch.setattr(limits, "_h_means", refuse)
    s, t, u, v = F(3, 4), F(1, 3), F(1, 7), F(0)
    n = 84  # one full period

    def frac(x, j):
        return (j * x) % 1

    def h(x, j):
        return frac(x, j) * (1 - frac(x, j))

    js = range(1, n + 1)
    c_exact = sum((frac(s, j) - frac(t, j)) * (frac(u, j) - frac(v, j)) for j in js) / n
    ct_exact = sum(h(t - u, j) + h(s - v, j) - h(s - u, j) - h(t - v, j) for j in js) / (2 * n)
    assert c_numeric(s, t, u, v, n) == float(c_exact)
    assert ctilde_numeric(s, t, u, v, n) == float(ct_exact)


@pytest.mark.parametrize("n", [1, 5, 7, 8, 9, 128, 129, 8191, 8192, 8193, 10**6 + 1])
def test_pairwise_split_follows_numpy(n):
    """The kernel reproduces ``np.mean`` by splitting a sum where numpy does.

    If this fails, numpy has moved its summation order: the blocked sums
    still agree with numpy to rounding, so every figure stays correct, but
    last digits, and golden digests, would shift.
    """
    rng = np.random.default_rng(n)
    data = rng.standard_normal((3, n)) * 10.0 ** rng.integers(-8, 9, (3, n))

    def leaf(lo, size):
        # the kernel sums each block of K rows as one C-ordered (K, size) array
        return np.add.reduce(np.ascontiguousarray(data[:, lo:lo + size]), axis=1)

    got = limits._pairwise(leaf, 0, n)
    expected = np.array([np.add.reduce(row) for row in data])
    message = (
        f"numpy {np.__version__} moved its summation order; the blocked sums in "
        "permspectra.limits still agree to rounding (correctness is kept) but no "
        "longer bit for bit, so golden digits would shift"
    )
    assert np.array_equal(got, expected), message
    assert np.array_equal(got / n, [np.mean(row) for row in data]), message
