#!/usr/bin/env python3
"""The whole zoo of variance constants, closed form vs numeric average.

The count variance over an arc grows like (constant) * theta * log n, and
the constant depends on the *arithmetic* of the endpoints: rational,
irrational, or rationally related irrationals all give different values.
Closed forms are checked against plain Cesàro averages of fractional-part
products; rational cases are exact over one period.
"""

from fractions import Fraction as F

import math

from permspectra import (
    AffineRelated,
    Arc,
    NAMED_IRRATIONALS,
    c2_closed,
    c2_meso,
    c_numeric,
    ctilde_numeric,
    ell_closed,
    s3_closed,
)

SQRT2 = NAMED_IRRATIONALS["sqrt2"]
GOLDEN = NAMED_IRRATIONALS["golden"]

N = 10**6

#: (label, alpha, beta, terms): each endpoint declares its arithmetic by its
#: type, a Fraction, a named irrational or an AffineRelated beta
CASES = [
    ("independent irrationals", SQRT2, GOLDEN, N),
    ("alpha = 1/2, beta irrational", F(1, 2), GOLDEN, N),
    ("alpha irrational, beta = 2/3", SQRT2, F(2, 3), N),
    ("alpha = 1/3, beta = 1/4", F(1, 3), F(1, 4), 12),
    ("beta = 1/2 + alpha/2", SQRT2, AffineRelated(1, 2, 1, 2), N),
    ("beta = (2/3) alpha", GOLDEN, AffineRelated(0, 1, 2, 3), N),
]


def numeric_arc(alpha, beta) -> Arc:
    """The arc a declared pair describes, shifted by integers into [0, 1)."""
    if isinstance(beta, AffineRelated):
        beta = beta.p / beta.q + beta.r / beta.s * alpha
    alpha, beta = alpha - math.floor(alpha), beta - math.floor(beta)
    return Arc(alpha, beta if beta > alpha else beta + 1)


def constants_table():
    print("=== plain-ensemble constant c2: closed form vs Cesàro average ===")
    for label, alpha, beta, n in CASES:
        arc = numeric_arc(alpha, beta)
        numeric = c_numeric(arc.alpha, arc.beta, arc.alpha, arc.beta, n)
        flag = "exact, one period" if n < 1000 else f"n = {n:.0e}"
        print(f"{label:32s} closed {c2_closed(alpha, beta):.6f}   numeric {numeric:.6f}   ({flag})")
    print()
    print("=== the cross moment s3 = lim avg {j alpha}{j beta} ===")
    for label, alpha, beta, n in CASES:
        arc = numeric_arc(alpha, beta)
        zero = F(0) if n < 1000 else 0.0
        numeric = c_numeric(arc.alpha, zero, arc.beta, zero, n)
        print(f"{label:32s} closed {s3_closed(alpha, beta):.6f}   numeric {numeric:.6f}")
    print()


def width_constants():
    print("=== modified ensemble: only the width matters ===")
    for label, delta, n in [
        ("irrational width (golden)", GOLDEN, N),
        ("width 1/2", F(1, 2), 2),
        ("width 2/5", F(2, 5), 5),
        ("integer width", F(1, 1), 1),
    ]:
        width = delta if isinstance(delta, F) else delta.value
        alpha = F(0) if isinstance(delta, F) else 0.0
        numeric = ctilde_numeric(alpha, width, alpha, width, n)
        print(f"{label:28s} closed {ell_closed(delta):.6f}   numeric {numeric:.6f}")
    print()


def shrinking_arc_constants():
    print("=== shrinking arcs: the anchor's rationality sets the constant ===")
    for label, anchor in [
        ("anchor irrational", SQRT2),
        ("anchor 0 (q = 1)", F(0, 1)),
        ("anchor 1/2 (q = 2)", F(1, 2)),
        ("anchor 1/3 (q = 3)", F(1, 3)),
    ]:
        print(f"{label:22s} c2_meso = {c2_meso(anchor):.6f}")


if __name__ == "__main__":
    constants_table()
    width_constants()
    shrinking_arc_constants()
