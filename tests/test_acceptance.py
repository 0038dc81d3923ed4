"""Acceptance suite: one test per criterion clause, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line.

Criteria 6a/6b and 7b test the Gaussian limit of integer counts with the
lattice, continuity-corrected KS statistic of ``NormalityReport`` (a KS test
against the continuous normal cdf has a floor of about half the largest
lattice atom, ~0.15 at these count variances, and would reject any sample).
Criterion 7a tests the growth rate of the shrinking-arc variance over its
N schedule: the exact variance exceeds (theta/6) log(N delta) by a
theta-dependent O(1) constant, so the ratio itself only tends to 1 like
1 + O(1/log(N delta)).  Each docstring carries the measured margins.
"""

import json
import math
import subprocess
import sys
import time
from fractions import Fraction as F

import numpy as np
import pytest

from conftest import (
    crp_type_counts,
    enumerated_gap_range,
    exhaustive_moments_perm,
    feller_type_counts,
    type_chisquare_pvalue,
)
from permspectra import (
    Arc,
    ExperimentConfig,
    NAMED_IRRATIONALS,
    AffineRelated,
    BothIrrationalIndependent,
    BothRational,
    RationalAlpha,
    RationalBeta,
    c2_closed,
    c2_meso,
    c_numeric,
    ctilde_numeric,
    ell_closed,
    exact_moments_perm,
    run_clt_fixed,
    run_coupling_check,
    run_mesoscopic,
    run_spacings,
    s3_closed,
    verify_harmonic_identity,
    verify_mean_identity,
    verify_quadratic_identity,
    verify_telescoping,
)
from permspectra.limits import arc_of_class

GOLDEN = NAMED_IRRATIONALS["golden"]
SQRT2 = NAMED_IRRATIONALS["sqrt2"]
SQRT3 = NAMED_IRRATIONALS["sqrt3"]
E = NAMED_IRRATIONALS["e"]

THETAS = (0.3, 0.7, 1.0, 1.5, 2.5)


def report(criterion: str, ok: bool, detail: str) -> bool:
    print(f"[{criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


def rel_gap(lhs: float, rhs: float) -> float:
    return abs(lhs - rhs) / max(abs(rhs), 1e-300)


# ---------------------------------------------------------------------------
# criterion 1
# ---------------------------------------------------------------------------


def test_criterion_1_cesaro_identity_suite():
    """Mean/harmonic identities at n in {1e2,1e3,1e4} x five thetas to 1e-10;
    quadratic and telescoping identities at n = 2000 to 1e-8; under 10 s."""
    start = time.monotonic()
    worst_single = 0.0
    for n in (100, 1000, 10_000):
        for theta in THETAS:
            worst_single = max(worst_single, rel_gap(*verify_mean_identity(n, theta)))
            worst_single = max(worst_single, rel_gap(*verify_harmonic_identity(n, theta)))
    worst_quad = 0.0
    for theta in THETAS:
        worst_quad = max(worst_quad, rel_gap(*verify_quadratic_identity(2000, theta)))
        for j in (1, 7, 1000, 1999):
            worst_quad = max(worst_quad, rel_gap(*verify_telescoping(2000, j, theta)))
    elapsed = time.monotonic() - start
    ok = worst_single < 1e-10 and worst_quad < 1e-8 and elapsed < 10.0
    assert report(
        "criterion 1",
        ok,
        f"single-sum gap {worst_single:.2e} (<1e-10), double-sum gap "
        f"{worst_quad:.2e} (<1e-8), runtime {elapsed:.1f}s (<10s)",
    )


# ---------------------------------------------------------------------------
# criterion 2
# ---------------------------------------------------------------------------


def test_criterion_2_exhaustive_small_n_oracle():
    """Both samplers chi-square against exact type probabilities at M = 2e5;
    exact perm moments match the all-types brute force to 1e-10; under 30 s."""
    start = time.monotonic()
    trials = 200_000
    worst_p = 1.0
    for idx, theta in enumerate((0.5, 1.0, 2.0)):
        rng = np.random.default_rng((2024, idx))
        p_feller = type_chisquare_pvalue(
            feller_type_counts(6, theta, trials, rng), 6, theta, trials
        )
        p_crp = type_chisquare_pvalue(
            crp_type_counts(6, theta, trials, rng), 6, theta, trials
        )
        worst_p = min(worst_p, p_feller, p_crp)

    worst_moment = 0.0
    arcs = (Arc(0.1, 0.6), Arc(F(1, 5), F(4, 5)))
    for n in range(1, 7):
        for theta in (0.5, 1.0, 2.0):
            for arc in arcs:
                mean, var = exhaustive_moments_perm(n, theta, arc)
                m = exact_moments_perm(n, theta, arc)
                worst_moment = max(
                    worst_moment, abs(m.mean - mean), abs(m.variance - var)
                )
    elapsed = time.monotonic() - start
    ok = worst_p > 0.001 and worst_moment < 1e-10 and elapsed < 30.0
    assert report(
        "criterion 2",
        ok,
        f"min chi-square p {worst_p:.4f} (>0.001), max moment gap "
        f"{worst_moment:.2e} (<1e-10), runtime {elapsed:.1f}s (<30s)",
    )


# ---------------------------------------------------------------------------
# criterion 3
# ---------------------------------------------------------------------------


def test_criterion_3_feller_coupling_bound():
    """Empirical E sum|a-W| + tail bound <= 2 + theta(gamma+psi(theta)) + 3 SE
    at n = 1e3, M = 1e4, theta in {0.01, 0.5, 1, 2}; <= 1.1 at theta = 0.01."""
    start = time.monotonic()
    ok = True
    details = []
    for theta in (0.01, 0.5, 1.0, 2.0):
        rep = run_coupling_check(
            n=1000, theta=theta, trials=10_000, master_seed=1003, epsilon_tail=1e-4
        )
        total = rep.empirical_mean + rep.tail_bound
        margin = rep.bound + 3 * rep.std_error - total
        this_ok = margin >= 0
        if theta == 0.01:
            this_ok = this_ok and total <= 1.1
        ok = ok and this_ok
        details.append(
            f"theta={theta}: emp+tail={total:.4f} bound={rep.bound:.4f} "
            f"margin={margin:+.4f}"
        )
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 120.0
    assert report(
        "criterion 3", ok, "; ".join(details) + f"; runtime {elapsed:.1f}s (<120s)"
    )


# ---------------------------------------------------------------------------
# criterion 4
# ---------------------------------------------------------------------------


def test_criterion_4_closed_form_constants():
    """Every closed-form c2/s3/ell/c2_meso case against its numeric oracle:
    exact (1e-12) over one period for rational cases, 1e-2 at n = 1e6 for
    irrational ones; under 60 s."""
    start = time.monotonic()
    n_big = 10**6
    failures = []

    def check(label, closed, numeric, tol):
        if abs(closed - numeric) > tol:
            failures.append(f"{label}: closed={closed:.6f} numeric={numeric:.6f}")

    # c2 and s3, all five endpoint classes ------------------------------
    classes = [
        ("independent", BothIrrationalIndependent(SQRT2.value, GOLDEN.value), 1e-2, None),
        ("rational-alpha", RationalAlpha(1, 2, GOLDEN.value), 1e-2, None),
        ("rational-beta", RationalBeta(SQRT2.value, 2, 3), 1e-2, None),
        ("both-rational", BothRational(1, 3, 1, 4), 1e-12, 12),
        ("affine", AffineRelated(1, 2, 1, 2, alpha_value=SQRT2.value), 1e-2, None),
        ("affine-multiple", AffineRelated(0, 1, 2, 3, alpha_value=GOLDEN.value), 1e-2, None),
        ("affine-negative-r", AffineRelated(1, 3, -1, 2, alpha_value=GOLDEN.value), 1e-2, None),
    ]
    for label, cls, tol, period in classes:
        arc = arc_of_class(cls)
        n = period if period else n_big
        check(
            f"c2/{label}",
            c2_closed(cls),
            c_numeric(arc.alpha, arc.beta, arc.alpha, arc.beta, n),
            tol,
        )
        # s3 oracle: (1/n) sum {j alpha}{j beta} = c_numeric(alpha,0,beta,0,n)
        check(
            f"s3/{label}",
            s3_closed(cls),
            c_numeric(arc.alpha, 0.0 if not period else F(0), arc.beta,
                      0.0 if not period else F(0), n),
            tol,
        )

    # ell: modified-count variance constant as a function of the width --
    for label, delta, tol, n in [
        ("irrational", GOLDEN, 1e-2, n_big),
        ("half", F(1, 2), 1e-12, 2),
        ("two-fifths", F(2, 5), 1e-12, 5),
        ("integer", F(3, 1), 1e-12, 1),
    ]:
        width = delta if isinstance(delta, F) else delta.value
        alpha, beta = (F(0), width) if isinstance(delta, F) else (0.0, width)
        check(
            f"ell/{label}", ell_closed(delta), ctilde_numeric(alpha, beta, alpha, beta, n), tol
        )

    # c2_meso: anchor-rationality constant; oracle is the c2 average with an
    # independent irrational width ---------------------------------------
    for label, anchor in [("irrational", SQRT2), ("q1", F(0, 1)), ("q2", F(1, 2))]:
        a = anchor.value if not isinstance(anchor, F) else float(anchor)
        beta = a + GOLDEN.value
        check(
            f"c2_meso/{label}",
            c2_meso(anchor),
            c_numeric(a, beta, a, beta, n_big),
            1e-2,
        )

    elapsed = time.monotonic() - start
    ok = not failures and elapsed < 60.0
    assert report(
        "criterion 4",
        ok,
        (f"{len(classes)} c2/s3 classes + 4 ell + 3 meso cases agree; "
         if not failures else "; ".join(failures) + "; ")
        + f"runtime {elapsed:.1f}s (<60s)",
    )


# ---------------------------------------------------------------------------
# criterion 5
# ---------------------------------------------------------------------------


@pytest.mark.slow
def test_criterion_5_variance_formulas_vs_monte_carlo():
    """Exact count variances match M = 1e5 Monte Carlo within 4 relative
    standard errors of the variance estimator (mod at N=1e3, perm at N=500,
    theta in {0.5, 2})."""
    start = time.monotonic()
    arc = Arc(0.0, GOLDEN.value)
    ok = True
    details = []
    for model, n in (("mod", 1000), ("perm", 500)):
        for theta in (0.5, 2.0):
            cfg = ExperimentConfig(
                theta=theta, trials=100_000, master_seed=505, model=model, n=n,
                arcs=(arc,),
            )
            res = run_clt_fixed(cfg, n_numeric=10**4)
            x = res.counts[:, 0].astype(np.float64)
            s2 = float(np.var(x, ddof=1))
            m = len(x)
            m4 = float(np.mean((x - x.mean()) ** 4))
            se = math.sqrt(max(m4 - s2 * s2 * (m - 3) / (m - 1), 1e-30) / m)
            exact = res.moments[0][1]
            z = abs(s2 - exact) / se
            ok = ok and z <= 4.0
            details.append(f"{model} n={n} theta={theta}: |mc-exact|/se={z:.2f}")
    elapsed = time.monotonic() - start
    assert report("criterion 5", ok, "; ".join(details) + f"; runtime {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# criterion 6
# ---------------------------------------------------------------------------


def test_criterion_6a_clt_ks_mod():
    """Lattice KS p > 0.01 for modified counts, N = 1e4, M = 2000.

    The exact count variance is 1.70 (sd 1.3), so the counts sit on a lattice
    with atoms of mass up to ~0.3; the continuity-corrected statistic compares
    the empirical cdf with Phi((k + 1/2 - mean) / sd) at every integer k.
    Measured: D = 0.018, p = 0.53 at the written seed (the uncorrected
    distance was 0.149); p > 0.01 on 21 of 21 seeds (1-20 and 606).
    """
    cfg = ExperimentConfig(
        theta=1.0, trials=2000, master_seed=606, model="mod", n=10**4,
        arcs=(Arc(0.0, GOLDEN.value),),
    )
    res = run_clt_fixed(cfg, n_numeric=10**4)
    r = res.reports[0]
    assert report(
        "criterion 6a",
        r.ks_p_value > 0.01,
        f"mod N=1e4 M=2000: lattice ks={r.ks_statistic:.4f} "
        f"p={r.ks_p_value:.3g} (needs >0.01; exact variance "
        f"{r.reference_variance:.3f})",
    )


def test_criterion_6b_clt_ks_perm():
    """Lattice KS p > 0.01 for plain counts, N = 5000, M = 2000.

    Same continuity-corrected statistic as 6a.  The margin is thin, and that
    is the finite-N law, not a defect: over 200,000 trials the plain count at
    N = 5000 has skewness -0.40 and lies at KS distance about 0.027 from the
    corrected normal, near the 1% critical value 0.036 at M = 2000 (the
    Gaussian limit is approached like 1/sqrt(log N)).  Measured: D = 0.026,
    p = 0.13 at the written seed; p > 0.01 on 15 of 21 seeds (1-20 and 607).
    """
    cfg = ExperimentConfig(
        theta=1.0, trials=2000, master_seed=607, model="perm", n=5000,
        arcs=(Arc(F(0), GOLDEN.value),),
    )
    res = run_clt_fixed(cfg, n_numeric=10**4)
    r = res.reports[0]
    assert report(
        "criterion 6b",
        r.ks_p_value > 0.01,
        f"perm N=5000 M=2000: lattice ks={r.ks_statistic:.4f} "
        f"p={r.ks_p_value:.3g} (needs >0.01)",
    )


def test_criterion_6c_cross_correlation():
    """|empirical correlation| < 0.08 at M = 4000 for two arcs with
    independent irrational endpoints, both models (limit matrices are the
    identity; exact finite-N correlations of this pair: +0.007 mod at 1e4,
    +0.013 perm at 5000)."""
    arcs = (Arc(SQRT2.value, GOLDEN.value), Arc(E.value, SQRT3.value))
    ok = True
    details = []
    for model, n in (("mod", 10**4), ("perm", 5000)):
        cfg = ExperimentConfig(
            theta=1.0, trials=4000, master_seed=608, model=model, n=n, arcs=arcs
        )
        res = run_clt_fixed(cfg, n_numeric=10**5)
        corr = float(res.empirical_correlation[0, 1])
        ref = float(res.reference_correlation[0, 1])
        ok = ok and abs(corr) < 0.08
        details.append(f"{model} N={n}: corr={corr:+.4f} (limit {ref:+.4f})")
    assert report("criterion 6c", ok, "; ".join(details) + "; |corr| < 0.08 required")


# ---------------------------------------------------------------------------
# criterion 7
# ---------------------------------------------------------------------------


def test_criterion_7a_meso_variance_ratio_mod():
    """Exact Var(modified count) grows like (theta/6) log(N delta) along
    N = 1e4, 1e5, 1e6, delta = N**-0.5, theta = 1: the increment ratio
    (Var(1e6) - Var(1e4)) / (target(1e6) - target(1e4)) lies in [0.85, 1.15]
    and Var/target falls along the schedule.

    The exact variances are 1.2600, 1.4553, 1.6483 against targets 0.7675,
    0.9594, 1.1513; the difference settles at an O(1) constant (0.492,
    0.496, 0.497), so the plain ratio is 1 + O(1/log(N delta)): 1.642,
    1.517, 1.432 here, above 1.15 until N ~ 1e17.  The paper claims only
    asymptotic equivalence and the constant depends on theta (0.363 at
    theta = 1/2, 0.661 at theta = 2), so no constant is subtracted.  The
    increment ratio is 1.012 (1.025 at theta = 1/2, 1.012 at theta = 2); a
    coefficient 1/3 in place of 1/6 would give ~0.51.
    """
    cfg = ExperimentConfig(
        theta=1.0, trials=16, master_seed=707, model="mod",
        n_schedule=(10**4, 10**5, 10**6), gamma=0.5, meso_alpha=F(0),
    )
    res = run_mesoscopic(cfg)
    first, last = res.rows[0], res.rows[-1]
    increment = (last.variance - first.variance) / (last.target - first.target)
    ratios = [row.ratio for row in res.rows]
    falling = all(b < a for a, b in zip(ratios, ratios[1:]))
    assert report(
        "criterion 7a",
        0.85 <= increment <= 1.15 and falling,
        f"mod N=1e4..1e6: exact var {first.variance:.4f}->{last.variance:.4f}, "
        f"target {first.target:.4f}->{last.target:.4f}, increment ratio "
        f"{increment:.4f} (needs [0.85,1.15]); ratio along N "
        + ", ".join(f"{x:.4f}" for x in ratios)
        + " (needs to fall)",
    )


def test_criterion_7b_meso_ks_mod():
    """Modified counts at N = 1e5, delta = N**-0.5, M = 2000 pass the lattice
    KS test at p > 0.01.

    The exact variance is 1.46 (sd 1.21), largest lattice atom ~0.32; the
    uncorrected distance was 0.188.  Measured: D = 0.024, p = 0.19 at the
    written seed; p > 0.01 on 21 of 21 seeds (1-20 and 708).
    """
    cfg = ExperimentConfig(
        theta=1.0, trials=2000, master_seed=708, model="mod",
        n_schedule=(10**5,), gamma=0.5, meso_alpha=F(0),
    )
    res = run_mesoscopic(cfg)
    r = res.report
    assert report(
        "criterion 7b",
        r.ks_p_value > 0.01,
        f"mod N=1e5 meso: lattice ks={r.ks_statistic:.4f} "
        f"p={r.ks_p_value:.3g} (needs >0.01; exact variance "
        f"{r.reference_variance:.3f})",
    )


def test_criterion_7c_meso_perm_ratio():
    """Plain-model Monte Carlo variance over (theta c2(0) log(N delta)) with
    c2(0) = 1/3 lands in [0.85, 1.15] at N = 1e6 (the +1/2 first-window
    constant and the negative O(1) cross term nearly cancel here)."""
    cfg = ExperimentConfig(
        theta=1.0, trials=4000, master_seed=709, model="perm",
        n_schedule=(10**6,), gamma=0.5, meso_alpha=F(0),
    )
    res = run_mesoscopic(cfg)
    row = res.rows[0]
    ok = 0.85 <= row.ratio <= 1.15 and res.constant == pytest.approx(1 / 3)
    assert report(
        "criterion 7c",
        ok,
        f"perm N=1e6 alpha=0: mc var={row.variance:.4f} target={row.target:.4f} "
        f"ratio={row.ratio:.4f} in [0.85,1.15]",
    )


# ---------------------------------------------------------------------------
# criterion 8
# ---------------------------------------------------------------------------


@pytest.mark.slow
def test_criterion_8_spacings():
    """lcm formula == enumeration exactly on 1e4 random structures (n<=2000),
    and so does the largest spacing's closed form 1/(longest cycle);
    zero violations of n*D>=1, n^2*d>=1, d_mod<=d over 1e4 coupled trials;
    5/50/95 percent quantiles of n*D and n^2*d stable within 25 percent
    across n in {1e3, 4e3, 1.6e4}.

    The stability clause runs at M = 1e4 trials per size: the criterion
    leaves M open, and the 95 percent quantile of n^2*d has ~10 percent
    estimator noise at M = 2000 (the upper tail is heavy), which would
    swamp the 25 percent band with pure Monte Carlo error.
    """
    from permspectra import EwensParams, max_pairwise_lcm, sample_cycle_counts

    start = time.monotonic()

    # exact equality of the closed forms and full enumeration
    rng = np.random.default_rng(808)
    params = EwensParams(1.0)
    mismatches = 0
    for _ in range(10_000):
        n = int(rng.integers(1, 2001))
        counts = sample_cycle_counts(n, params, rng)
        smallest, largest = enumerated_gap_range(counts)
        if smallest != F(1, max_pairwise_lcm(counts)) or largest != F(1, max(counts.counts)):
            mismatches += 1
    t_equality = time.monotonic() - start

    # samplewise bounds on coupled draws
    res_small = run_spacings([300], theta=1.0, trials=10_000, master_seed=809)
    row = res_small.rows[0]
    violations = row.violations_nD + row.violations_n2d + row.violations_dtilde

    # quantile stability across the schedule
    res = run_spacings([1000, 4000, 16_000], theta=1.0, trials=10_000, master_seed=810)
    spreads = []
    for pick, name in ((lambda r: r.nD, "nD"), (lambda r: r.n2d, "n2d")):
        for qi, level in ((0, "q05"), (2, "q50"), (4, "q95")):
            values = [pick(r)[qi] for r in res.rows]
            spread = max(values) / min(values) - 1.0
            spreads.append((f"{name}/{level}", spread))
    worst_name, worst = max(spreads, key=lambda kv: kv[1])

    elapsed = time.monotonic() - start
    ok = mismatches == 0 and violations == 0 and worst < 0.25
    assert report(
        "criterion 8",
        ok,
        f"closed forms==enumeration mismatches {mismatches}/10000 ({t_equality:.0f}s), "
        f"bound violations {violations}/10000, worst quantile drift "
        f"{worst_name}={worst:.1%} (<25%); runtime {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# criterion 9
# ---------------------------------------------------------------------------


def _cli_results(argv: list[str]) -> str:
    proc = subprocess.run(
        [sys.executable, "-m", "permspectra.cli", *argv],
        capture_output=True,
        text=True,
        check=True,
    )
    payload = json.loads(proc.stdout)["results"]
    return json.dumps(payload, sort_keys=True)


def test_criterion_9_cli_determinism():
    """Stochastic CLI commands with the same seed produce byte-identical
    results payloads for any --jobs value."""
    commands = [
        ["clt", "--n", "400", "--arcs", "0.1,0.6;0.2,0.8", "--model", "mod",
         "--seed", "4242", "--trials", "200"],
        ["spacings", "--n-list", "200,400", "--seed", "4242", "--trials", "120"],
        ["coupling-check", "--n", "200", "--seed", "4242", "--trials", "200"],
        ["mesoscopic", "--n-list", "2000,4000", "--alpha", "rat:0/1",
         "--model", "perm", "--seed", "4242", "--trials", "150"],
    ]
    ok = True
    details = []
    for argv in commands:
        one = _cli_results(argv + ["--jobs", "1"])
        many = _cli_results(argv + ["--jobs", "3"])
        same = one == many
        ok = ok and same
        details.append(f"{argv[0]}: {'identical' if same else 'DIFFER'}")
    assert report("criterion 9", ok, "; ".join(details))
