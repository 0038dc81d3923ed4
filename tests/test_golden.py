"""Golden digests of sampled outputs: the fixed-seed random stream and every
statistic computed from it must stay bit-identical across refactors.

Each case runs a Monte Carlo driver at a small size and hashes the part of
its output that never passes through BLAS (the empirical correlation
matrices are left out: ``np.corrcoef``'s last bits depend on the BLAS build
and thread count); that includes the exact modified variances of
``mesoscopic``, summed a block of j at a time.  Five more cases hash the reference sums at the CLI's
n_numeric = 10^6, which call no BLAS: ``covariance_Dtilde`` of the README
arcs and ``ctilde_numeric`` of their endpoints, exact sums of h_j each
rounded once; ``covariance_D`` of those arcs and ``c_numeric`` of those
endpoints, and the exact modified variance at n = 10^6, each a sum taken
pairwise within blocks of j and by ``math.fsum`` across them.  A subprocess
test checks that these, the plain exact variance and the quadratic identity
are the same under one and two OpenBLAS threads, an AST test that the
exact layer's modules make no BLAS call, and another that trials are
chunked and seeded in one place.
Floats are hashed through ``json.dumps``, whose ``repr`` round-trips
every bit.  A changed digest means a changed stream or
a changed statistic; if that is intended, say so and record the new values.
"""

import ast
import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from permspectra import (
    Arc,
    ExperimentConfig,
    NAMED_IRRATIONALS,
    c_numeric,
    covariance_D,
    covariance_Dtilde,
    ctilde_numeric,
    exact_moments_mod,
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


README_ARCS = parse_arcs("irr:sqrt2,irr:golden;irr:e,irr:sqrt3")
README_ENDS = [x for arc in README_ARCS for x in (arc.beta, arc.alpha)]


def digest(payload) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def clt_counts(model: str):
    cfg = ExperimentConfig(
        theta=0.8, trials=97, master_seed=2016, model=model, n=700, arcs=ARCS
    )
    return run_clt_fixed(cfg, n_numeric=10**3).counts.tolist()


def run_meso(model: str):
    # a small and a large word: about 11 and 15 ones at theta 1.3
    cfg = ExperimentConfig(
        theta=1.3, trials=41, master_seed=1117, model=model,
        n_schedule=(3000, 70_000), gamma=0.5, meso_alpha=Fraction(0),
    )
    return run_mesoscopic(cfg)


def mesoscopic(model: str):
    res = run_meso(model)
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
    "mesoscopic mod exact variances": lambda: [row.variance for row in run_meso("mod").rows],
    "spacings quantiles and counters": spacings,
    "coupling-check mean and se": coupling,
    "covariance_Dtilde README arcs": lambda: covariance_Dtilde(README_ARCS, 10**6).entries.tolist(),
    "ctilde_numeric README endpoints": lambda: ctilde_numeric(*README_ENDS, 10**6),
    "covariance_D README arcs": lambda: covariance_D(README_ARCS, 10**6).entries.tolist(),
    "c_numeric README endpoints": lambda: c_numeric(*README_ENDS, 10**6),
    "exact_moments_mod variance n=10^6": lambda: exact_moments_mod(
        10**6, 0.5, Arc(0.2, 0.7)
    ).variance,
}

GOLDEN = {
    "clt mod counts": "f52d88199591beeaa0cd1d4e3fa9961b26bc33b152337c72986f64b6225a4191",
    "clt perm counts": "eaceb1e557ae7a0a1ec5a367c22534100a501bf13d601f9cfd07fca5c509091f",
    "c_numeric README endpoints":
        "b8bdd40396edcd9fa90ada73c55386f6f7b033cf606457d243f86e1620e53d7b",
    "coupling-check mean and se":
        "59e7167bb38ca117f399a10c5c2d399408af50a73b91ce8878bc065dc674b217",
    "covariance_D README arcs":
        "3393fac2ea54a7cc9df5d5d2d62a3c0369b241b6eacdb57f0f0616e34d7e3b72",
    "covariance_Dtilde README arcs":
        "19afda75b2bba9c1f1c862ba63e8b3c45926f07659b2820f0d9dbe4ea13e4bc0",
    "ctilde_numeric README endpoints":
        "645c97e3060de5d51d619826fa61c8a7873a1c65828ec9f4a3356e2d736be2fd",
    "exact_moments_mod variance n=10^6":
        "ad67345c90d3a08e56e8928822d2fe7ec1403bcdf3ee7b65dbee86554f6692fe",
    "mesoscopic mod exact variances":
        "11353fa2449d99925e16b4f4c8697a05f81f1579487f3bdaaaf02d13cfe8ea0a",
    "mesoscopic mod mean": "b097e560ffb4da04eb1b16a339f57ddea73c9c0f31fec28ca4228caf2296fc42",
    "mesoscopic perm variances and mean":
        "ccea8ef411e960b921997d0038cfd163516c39851f4bd5eb1c671332c4bb8c71",
    "spacings quantiles and counters":
        "da937a083179ccdb5b93c40b5209988cd9c64d4a50769478c7accfe5b6d91efa",
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_digest(case):
    assert digest(CASES[case]()) == GOLDEN[case]


def test_clt_counts_c_ordered():
    # np.corrcoef's last bits follow the memory layout of the counts, so the
    # empirical correlation stays bit-identical only with C-ordered counts
    cfg = ExperimentConfig(theta=1.0, trials=40, master_seed=5, model="mod", n=200, arcs=ARCS)
    assert run_clt_fixed(cfg, n_numeric=10**3).counts.flags.c_contiguous


#: the streamed reference sums, the plain exact variance and the quadratic
#: identity, printed with every bit by a fresh interpreter
BLAS_FREE = """
import json
from permspectra import (Arc, c_numeric, covariance_D, exact_moments_mod, exact_moments_perm,
                         verify_quadratic_identity)
from permspectra.cli import parse_arcs
arcs = parse_arcs("irr:sqrt2,irr:golden;irr:e,irr:sqrt3")
ends = [x for arc in arcs for x in (arc.beta, arc.alpha)]
print(json.dumps([covariance_D(arcs, 10**6).entries.tolist(), c_numeric(*ends, 10**6),
                  c_numeric(0.1, 0.2, 0.3, 0.9, 10**6),
                  exact_moments_mod(10**6, 0.5, Arc(0.2, 0.7)).variance,
                  exact_moments_perm(10**5, 0.7, Arc(0.1, 0.7)).variance,
                  exact_moments_perm(10**6, 0.7, Arc(0.1, 0.7)).variance,
                  verify_quadratic_identity(10**6, 0.7),
                  verify_quadratic_identity(2 * 10**5, 2.0)]))
"""


def test_reference_sums_do_not_depend_on_the_blas_thread_count():
    # one BLAS call over all n gave 1.0294321688218389 and 1.0294321688218413
    # for the modified variance at one and two OpenBLAS threads; a BLAS dot
    # in the plain covariance's cross term 1.2944097137640855 and
    # 1.294409713764085 for the plain one at 10**5, and one in the quadratic
    # identity 0.6449290668858794 and 0.6449290668859646 for its left side
    # at 2*10**5, theta = 2
    src = str(Path(__import__("permspectra").__file__).resolve().parent.parent)
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run([sys.executable, "-c", BLAS_FREE], env=env, capture_output=True,
                              text=True, check=True, timeout=120)
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1]


#: the exact layer: every sum that it prints
EXACT_MODULES = ("cesaro", "spectral", "limits", "ewens")
BLAS_CALLS = {"dot", "vdot", "inner", "matmul", "tensordot", "einsum"}


@pytest.mark.parametrize("module", EXACT_MODULES)
def test_exact_layer_calls_no_blas(module):
    """No ``@`` and no BLAS-backed numpy call in the exact layer, whose
    printed sums must not follow the BLAS build or thread count.  The two
    BLAS users left print nothing that layer reports: ``np.corrcoef`` for the
    empirical correlation in ``experiments``, and ``eigvalsh`` in
    ``CovarianceMatrix``'s check that a matrix is positive semi-definite."""
    path = Path(__import__("permspectra").__file__).resolve().parent / f"{module}.py"
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append(f"line {node.lineno}: @")
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in BLAS_CALLS:
                found.append(f"line {node.lineno}: {name}")
    assert not found, found


def test_trials_are_chunked_and_seeded_in_one_place():
    """Chunking and seeding live in ``experiments`` alone: there only
    ``_trial_chunk`` calls ``trial_rngs``, and ``cli`` (whose ``sample``
    draws through ``_run_trials``) neither imports nor names ``trial_rngs``
    or ``_chunk_ranges``."""
    package = Path(__import__("permspectra").__file__).resolve().parent

    def seedings(tree):
        return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
                and getattr(node.func, "attr", getattr(node.func, "id", None)) == "trial_rngs"]

    experiments = ast.parse((package / "experiments.py").read_text())
    chunk, = [f for f in experiments.body
              if isinstance(f, ast.FunctionDef) and f.name == "_trial_chunk"]
    assert seedings(chunk) and seedings(experiments) == seedings(chunk)
    named = set()
    for node in ast.walk(ast.parse((package / "cli.py").read_text())):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            named.update(alias.name.split(".")[-1] for alias in node.names)
        elif isinstance(node, (ast.Name, ast.Attribute)):
            named.add(node.id if isinstance(node, ast.Name) else node.attr)
    assert not named & {"trial_rngs", "_chunk_ranges"}


def test_package_imports_no_scipy():
    """No module of the package imports scipy: the tests use it as an oracle
    only, and a fresh Monte Carlo command loads none of it."""
    package = Path(__import__("permspectra").__file__).resolve().parent
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno}: {n}" for n in names if n.split(".")[0] == "scipy"]
    assert not found, found
