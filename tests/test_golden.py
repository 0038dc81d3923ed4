"""Golden digests of sampled outputs: the fixed-seed random stream and every
statistic computed from it must stay bit-identical across refactors.

Each case runs a Monte Carlo driver at a small size and hashes the part of
its output that never passes through BLAS (the correlation matrices and the
exact modified-ensemble variances are left out: their last bits depend on
the BLAS thread count).  Two more cases hash the reference matrix
``covariance_Dtilde`` of the README arcs at the CLI's n_numeric = 10^6, and
``ctilde_numeric`` of their endpoints there: exact sums of h_j, each average
rounded once (and ratios of them), with no BLAS call.
Floats are hashed through ``json.dumps``, whose ``repr`` round-trips
every bit.  A changed digest means a changed stream or
a changed statistic; if that is intended, say so and record the new values.
"""

import hashlib
import json
from fractions import Fraction

import pytest

from permspectra import (
    Arc,
    ExperimentConfig,
    NAMED_IRRATIONALS,
    covariance_Dtilde,
    ctilde_numeric,
    run_clt_fixed,
    run_coupling_check,
    run_mesoscopic,
    run_spacings,
)
from permspectra.cli import parse_arcs

ARCS = (
    Arc(NAMED_IRRATIONALS["golden"].value, NAMED_IRRATIONALS["sqrt2"].value + 1.0),
    Arc(Fraction(1, 3), Fraction(3, 4)),
    Arc(0.1, 0.35),
)


def digest(payload) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def clt_counts(model: str):
    cfg = ExperimentConfig(
        theta=0.8, trials=97, master_seed=2016, model=model, n=700, arcs=ARCS
    )
    return run_clt_fixed(cfg, n_numeric=10**3).counts.tolist()


def mesoscopic(model: str):
    # 70000 lies above the dense/sparse switch, so both sampler routes run
    cfg = ExperimentConfig(
        theta=1.3, trials=41, master_seed=1117, model=model,
        n_schedule=(3000, 70_000), gamma=0.5, meso_alpha=Fraction(0),
    )
    res = run_mesoscopic(cfg)
    out = {"empirical_mean": res.report.empirical_mean}
    if model == "perm":
        out["variances"] = [row.variance for row in res.rows]
    return out


def spacings():
    res = run_spacings([150, 1200], theta=1.0, trials=53, master_seed=31)
    return [
        [row.nD, row.n2d, row.nD_mod, row.n2d_mod,
         row.violations_nD, row.violations_n2d, row.violations_dtilde]
        for row in res.rows
    ]


def coupling():
    rep = run_coupling_check(300, 0.6, 89, master_seed=77, epsilon_tail=1e-3)
    return [rep.empirical_mean, rep.std_error]


CASES = {
    "clt mod counts": lambda: clt_counts("mod"),
    "clt perm counts": lambda: clt_counts("perm"),
    "mesoscopic perm variances and mean": lambda: mesoscopic("perm"),
    "mesoscopic mod mean": lambda: mesoscopic("mod"),
    "spacings quantiles and counters": spacings,
    "coupling-check mean and se": coupling,
    "covariance_Dtilde README arcs": lambda: covariance_Dtilde(
        parse_arcs("irr:sqrt2,irr:golden;irr:e,irr:sqrt3"), 10**6
    ).entries.tolist(),
    "ctilde_numeric README endpoints": lambda: ctilde_numeric(
        *(x for arc in parse_arcs("irr:sqrt2,irr:golden;irr:e,irr:sqrt3")
          for x in (arc.beta, arc.alpha)), 10**6
    ),
}

GOLDEN = {
    "clt mod counts": "69bcc601b0672539a16b4e324c963f0717affaaa4d44f7f9ba49145bb66edac2",
    "clt perm counts": "7a3b30b811803b4b356c3f6ef67ec8ac185ac6280c33737d2bf26684358aa6da",
    "coupling-check mean and se":
        "c963115d064d918016288867cf211c11275b0a81d3e75d6faf4202c4aac50f49",
    "covariance_Dtilde README arcs":
        "19afda75b2bba9c1f1c862ba63e8b3c45926f07659b2820f0d9dbe4ea13e4bc0",
    "ctilde_numeric README endpoints":
        "645c97e3060de5d51d619826fa61c8a7873a1c65828ec9f4a3356e2d736be2fd",
    "mesoscopic mod mean": "d4444644a577de10de6222f7536003d13a7f99e8b2f5679a1b7fcd09358e4013",
    "mesoscopic perm variances and mean":
        "a88937c3519e5d67abb00bc131e93f899fe62723c855bfaf4c79e12046fda775",
    "spacings quantiles and counters":
        "e90d119fd927a9126459281ee79a34b88dd12744146ac153b3d94ce9033719c5",
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_digest(case):
    assert digest(CASES[case]()) == GOLDEN[case]


def test_clt_counts_c_ordered():
    # np.corrcoef's last bits follow the memory layout of the counts, so the
    # empirical correlation stays bit-identical only with C-ordered counts
    cfg = ExperimentConfig(theta=1.0, trials=40, master_seed=5, model="mod", n=200, arcs=ARCS)
    assert run_clt_fixed(cfg, n_numeric=10**3).counts.flags.c_contiguous
