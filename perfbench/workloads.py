"""The four workloads: which calls one pass makes, and with which inputs.

A call is either a CLI invocation (``argv`` for ``permspectra.cli.main``) or a
public library call that no CLI command reaches (``library``).  Monte Carlo
calls get ``--seed <workload seed>`` appended when a pass is built; that is
the only way the seed reaches the program.  On ``exact`` nothing is random,
so the seed only fixes the order of the calls within a pass.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

# the arcs of the README's clt example
README_ARCS = "irr:sqrt2,irr:golden;irr:e,irr:sqrt3"

# seed of the pass whose results digests are compared with the seed commit's
GOLDEN_SEED = 20161117


@dataclass(frozen=True)
class Call:
    key: str  # stable, seed-free identifier, also the reference key
    argv: Optional[tuple[str, ...]] = None  # CLI call, without --seed
    library: Optional[str] = None  # or a library call, see replay.LIBRARY_CALLS
    trials: int = 0  # Monte Carlo trials the call runs

    @property
    def stochastic(self) -> bool:
        return self.trials > 0

    def with_seed(self, seed: int, jobs: int = 1) -> tuple[str, ...]:
        if not self.stochastic:
            return self.argv
        return (*self.argv, "--seed", str(seed), "--jobs", str(jobs))


def _clt(model: str, theta: str, trials: int) -> Call:
    return Call(
        key=f"clt model={model} theta={theta}",
        argv=("clt", "--n", "1000", "--arcs", README_ARCS, "--model", model,
              "--theta", theta, "--trials", str(trials)),
        trials=trials,
    )


def _mesoscopic(model: str, trials: int) -> Call:
    n_list = (10_000, 100_000, 1_000_000)
    # the plain model samples at every n, the modified one at the largest only
    sampled = len(n_list) if model == "perm" else 1
    return Call(
        key=f"mesoscopic model={model}",
        argv=("mesoscopic", "--n-list", ",".join(map(str, n_list)), "--gamma", "0.5",
              "--alpha", "rat:0/1", "--model", model, "--trials", str(trials)),
        trials=trials * sampled,
    )


def _coupling(theta: str, trials: int) -> Call:
    return Call(
        key=f"coupling-check theta={theta}",
        argv=("coupling-check", "--n", "1000", "--epsilon-tail", "1e-3",
              "--theta", theta, "--trials", str(trials)),
        trials=trials,
    )


EXACT_ARCS = (("0.2", "0.7"), ("rat:1/3", "rat:3/4"), ("irr:sqrt2", "irr:golden"))
EXACT_THETAS = ("0.5", "1", "2")
EXACT_SIZES = {"perm": (1000, 5000), "mod": (10_000, 100_000, 1_000_000)}

CONSTANT_CASES = (
    ("both-irrational-independent",),
    ("rational-alpha", "--p", "1", "--q", "3"),
    ("rational-beta", "--r", "3", "--s", "4"),
    ("both-rational", "--p", "1", "--q", "3", "--r", "3", "--s", "4"),
    ("affine", "--p", "1", "--q", "3", "--r", "1", "--s", "2"),
    ("ell-rational", "--p", "1", "--q", "3"),
    ("ell-irrational",),
    ("meso-rational", "--p", "1", "--q", "3"),
    ("meso-irrational",),
)

LIBRARY_KEYS = ("covariance_D", "covariance_Dtilde", "c_numeric", "ctilde_numeric")


def _exact_calls() -> list[Call]:
    calls = []
    for model, sizes in EXACT_SIZES.items():
        for n in sizes:
            for theta in EXACT_THETAS:
                for alpha, beta in EXACT_ARCS:
                    calls.append(Call(
                        key=f"exact-moments model={model} n={n} theta={theta} "
                            f"arc={alpha},{beta}",
                        argv=("exact-moments", "--n", str(n), "--theta", theta,
                              "--alpha", alpha, "--beta", beta, "--model", model),
                    ))
    calls.append(Call(key="identities n=2000 theta=0.7",
                      argv=("identities", "--n", "2000", "--theta", "0.7")))
    for case, *extra in CONSTANT_CASES:
        calls.append(Call(key=f"constants {case}",
                          argv=("constants", "--case", case, *extra)))
    calls.extend(Call(key=name, library=name) for name in LIBRARY_KEYS)
    return calls


def calls(workload: str, scale: float = 1.0) -> list[Call]:
    """The calls of one pass.  ``scale`` shrinks trial counts (tests only)."""

    def t(trials: int) -> int:
        return max(8, int(trials * scale))

    if workload == "mc_dense":
        return [_clt(model, theta, t(1000)) for model in ("mod", "perm") for theta in ("0.5", "2")]
    if workload == "spacings":
        trials = t(150)
        return [Call(
            key="spacings theta=1",
            argv=("spacings", "--n-list", "1000,4000,16000", "--theta", "1",
                  "--trials", str(trials)),
            trials=3 * trials,
        )]
    if workload == "large_n":
        return [_mesoscopic("perm", t(150)), _mesoscopic("mod", t(150)),
                _coupling("0.5", t(500)), _coupling("2", t(500))]
    if workload == "exact":
        return _exact_calls()
    raise ValueError(f"unknown workload {workload!r}")


def ordered(workload_calls: list[Call], seed: int) -> list[Call]:
    """Call order of a pass: as declared, except that ``exact`` is shuffled by the seed."""
    if any(c.stochastic for c in workload_calls):
        return list(workload_calls)
    shuffled = list(workload_calls)
    random.Random(seed).shuffle(shuffled)
    return shuffled
