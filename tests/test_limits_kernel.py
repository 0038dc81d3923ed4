"""The numeric Cesàro sums in ``limits`` against their oracles.

``covariance_D`` and ``c_numeric`` must equal the full-array formulas in
``conftest``, summed in the kernel's order (pairwise within each block of
``limits._BLOCK`` values of j, ``math.fsum`` across blocks), bit for
bit (no tolerance): block edges and the two n_numeric sizes the CLI and the
benchmark use are crossed.
``covariance_Dtilde`` and ``ctilde_numeric`` sum h_j exactly by the floor-sum
recursion: they must equal the brute-force Fraction oracles bit for bit at
small n, and the float formulas within 1e-13 at large n.  All-Fraction
endpoints must keep ``c_numeric``'s exact rational path.
"""
from fractions import Fraction as F

import inspect
import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import (
    c_numeric_formula,
    c_numeric_fractions,
    covariance_D_formula,
    covariance_Dtilde_exact,
    covariance_Dtilde_formula,
    ctilde_numeric_exact,
    ctilde_numeric_formula,
    h_sum_exact,
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

B = limits._BLOCK
SIZES = [1, 7, 128, 129, 8191, 8193, B - 1, B + 1, 3 * B + 5] + [
    pytest.param(n, marks=pytest.mark.slow) for n in (999_983, 10**6)
]
#: the exact h-sums meet the Fraction oracle bit for bit at these sizes, and
#: the float formulas within their rounding at the block edges and beyond
EXACT_SIZES = [1, 7, 128, 129, 2000, 8191, 8193, pytest.param(999_983, marks=pytest.mark.slow)]
FLOAT_SIZES = SIZES[4:]

#: arc sets whose every difference is a generic float: the float formulas'
#: rounding of j x has no pattern there and cancels in the mean
GENERIC_SETS = {"one arc", "README arcs"}

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


def same_or_both_refuse(build, oracle, *args, atol=0.0):
    try:
        expected = oracle(*args)
    except ValueError:
        with pytest.raises(ValueError):
            build(*args)
        return
    got = build(*args)
    if isinstance(expected, np.ndarray):
        got = got.entries
    assert type(got) is type(expected)
    if atol:
        assert np.allclose(got, expected, rtol=0.0, atol=atol)
    else:
        assert np.array_equal(got, expected)


def pair_ends(arcs):
    """(s, t, u, v) = (beta, alpha, beta', alpha') of each pair of arcs."""
    for k, arc in enumerate(arcs):
        for other in arcs[k:]:
            yield arc.beta, arc.alpha, other.beta, other.alpha


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("name", sorted(ARC_SETS))
def test_plain_sums_bit_identical_to_full_array_formulas(name, n):
    arcs = ARC_SETS[name]
    same_or_both_refuse(covariance_D, covariance_D_formula, arcs, n)
    for ends in pair_ends(arcs):
        if all(isinstance(x, F) for x in ends):
            continue  # the exact path, below
        same_or_both_refuse(c_numeric, c_numeric_formula, *ends, n)


@pytest.mark.parametrize("n", EXACT_SIZES)
@pytest.mark.parametrize("name", sorted(ARC_SETS))
def test_h_sums_bit_identical_to_the_fraction_oracle(name, n):
    arcs = ARC_SETS[name]
    same_or_both_refuse(covariance_Dtilde, covariance_Dtilde_exact, arcs, n)
    for ends in pair_ends(arcs):
        same_or_both_refuse(ctilde_numeric, ctilde_numeric_exact, *ends, n)


@pytest.mark.parametrize("n", FLOAT_SIZES)
@pytest.mark.parametrize("name", sorted(ARC_SETS))
def test_h_sums_within_rounding_of_the_float_formulas(name, n):
    # the float formulas round each j x by up to j |x| 2**-53, and for x near
    # a rational of small denominator (0.3 - 0.1, 0.9 - 0.6) those errors keep
    # one sign: their mean drifts like n 2**-53 (2.1e-11 at 10**6 on
    # "three overlapping"), while the exact sums meet the Fraction oracle
    atol = 1e-13 if name in GENERIC_SETS else n * 2.0**-52
    arcs = ARC_SETS[name]
    same_or_both_refuse(covariance_Dtilde, covariance_Dtilde_formula, arcs, n, atol=atol)
    for ends in pair_ends(arcs):
        same_or_both_refuse(ctilde_numeric, ctilde_numeric_formula, *ends, n, atol=atol)


def test_one_h_sum_per_distinct_nonzero_difference(monkeypatch):
    # the README arcs' three pairs hold 9 distinct signed differences, 0
    # among them, but 6 distinct non-zero |x|: one h-sum for each
    calls, h_sum = [], limits._h_sum

    def spy(x, n):
        calls.append(x)
        return h_sum(x, n)

    monkeypatch.setattr(limits, "_h_sum", spy)
    arcs = ARC_SETS["README arcs"]
    covariance_Dtilde(arcs, 1000)
    assert len(calls) == len(set(calls)) == 6
    assert 0.0 not in calls


@pytest.mark.parametrize("n", [1, 8193])
def test_large_denominators_stay_exact(n):
    # j q passes 2^62 inside the run of j, so the writer switches to Python
    # integers part way; the blocks switch at their own j and must agree
    arcs = [Arc(F(1, 2**61 + 1), F(2**60, 2**61 + 1)), Arc(SQRT2, GOLDEN)]
    same_or_both_refuse(covariance_D, covariance_D_formula, arcs, n)
    ends = (arcs[0].beta, arcs[0].alpha, arcs[1].beta, arcs[1].alpha)
    same_or_both_refuse(c_numeric, c_numeric_formula, *ends, n)


def test_fraction_rows_are_exact():
    (omega,) = limits._frac_difference_blocks([F(1, 49)], [0.0], 98)
    out = omega[0]
    assert out[48] == 0.0 and out[97] == 0.0  # {49/49}, {98/49}
    assert out[0] == 1 / 49


#: the all-Fraction endpoints of the exact c_numeric tests; their terms
#: repeat with period 84, about 2**64.6 and 12
EXACT_ENDS = [(F(3, 4), F(1, 3), F(1, 7), F(0)), (F(5, 4), F(-2, 9), F(7, 3), F(1, 2**61 + 1))]
EXACT_ENDS += [e for e in pair_ends(ARC_SETS["fractions mixed with floats"])
               if all(isinstance(x, F) for x in e)]


def period(ends) -> int:
    return math.lcm(*(x.denominator for x in ends))


@pytest.mark.parametrize("periods, extra", [(0, 1), (0, 7), (0, 128), (0, 1000),
                                            (1, -1), (1, 0), (1, 1), (3, 7)],
                         ids=["1", "7", "128", "1000", "P-1", "P", "P+1", "3P+7"])
def test_exact_c_numeric_equals_the_fraction_sequences(periods, extra):
    # integer terms scaled by the lcm P of the denominators, n // P whole
    # periods and the first n mod P terms, against the four lists of
    # Fractions that the exact path used to build; n about the period P of
    # the terms only where P is small enough for those lists
    for ends in EXACT_ENDS:
        if periods and period(ends) > 10**4:
            continue
        n = periods * period(ends) + extra
        assert c_numeric(*ends, n) == c_numeric_fractions(*ends, n)


def test_exact_c_numeric_walks_one_period(monkeypatch):
    # n = 10**6 terms of period P = 924 took 1.04 s walked one by one
    ends = (F(3, 4), F(1, 3), F(1, 7), F(2, 11))
    walked = []
    products_of = limits._period_products

    def counted(ends, n):
        products, m = products_of(ends, n)

        def walk():
            for term in products:
                walked.append(term)
                yield term

        return walk(), m

    monkeypatch.setattr(limits, "_period_products", counted)
    value = c_numeric(*ends, 10**6)
    assert len(walked) == period(ends) == 924
    assert value == float(F(10**6 // 924 * sum(walked) + sum(walked[: 10**6 % 924]), 924**2 * 10**6))


def test_all_fraction_endpoints_take_the_exact_path(monkeypatch):
    def refuse(*args):
        raise AssertionError("the float kernel ran on all-Fraction endpoints")

    monkeypatch.setattr(limits, "_frac_difference_blocks", refuse)
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


def floor_sums_brute(a, b, c, n):
    floors = [(a * i + b) // c for i in range(n + 1)]
    return sum(floors), sum(i * f for i, f in enumerate(floors)), sum(f * f for f in floors)


@settings(max_examples=400, deadline=None)
@given(
    a=st.one_of(st.just(0), st.integers(0, 10**6)),
    b=st.integers(0, 10**6),
    c=st.integers(1, 10**6),
    n=st.one_of(st.just(0), st.integers(0, 300)),
)
@example(a=0, b=7, c=3, n=5)  # a = 0 with b >= c
@example(a=5, b=9, c=3, n=4)  # both reduced mod c
@example(a=3, b=0, c=7, n=0)  # the empty-floor return at n = 0
def test_floor_sums_match_brute_force(a, b, c, n):
    assert limits._floor_sums(a, b, c, n) == floor_sums_brute(a, b, c, n)


#: float corners of the recursion: next to 1, the smallest subnormal (q = 2**1074),
#: a tiny normal, just above 1/2; x >= 1 (wrapped arcs), and a Fraction whose
#: j q passes 2**62
EDGE_XS = [1 - 2**-53, 5e-324, 1e-300, 0.5 + 2**-53, 1.2, F(5, 4), F(2**60, 2**61 + 1)]


@pytest.mark.parametrize("x", EDGE_XS, ids=repr)
@pytest.mark.parametrize("n", [1, 2, 97, 1000])
def test_h_sum_edge_cases(x, n):
    assert limits._h_sum(x, n) == h_sum_exact(x, n)


def test_h_sum_at_1e18_under_the_default_recursion_limit():
    # 200 frames above the caller's stack is far below the default limit of 1000
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 200)
    try:
        sums = [limits._h_sum(x, 10**18) for x in [*EDGE_XS, F(1, 3), GOLDEN, SQRT2, PI]]
    finally:
        sys.setrecursionlimit(limit)
    assert all(0 <= total <= F(10**18, 4) for total in sums)
    # {j/3} runs 1/3, 2/3, 0, so each period of three holds 4/9, and 10**18 = 3 k + 1
    assert sums[len(EDGE_XS)] == (10**18 // 3) * F(4, 9) + F(2, 9)


def test_covariance_Dtilde_at_1e12_makes_no_array_of_n():
    arcs = ARC_SETS["README arcs"]
    at_1e6 = covariance_Dtilde(arcs, 10**6).entries
    tracemalloc.start()
    try:
        at_1e12 = covariance_Dtilde(arcs, 10**12).entries
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert np.allclose(at_1e12, at_1e6, rtol=0.0, atol=1e-5)
