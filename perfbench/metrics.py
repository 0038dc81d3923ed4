"""Metric declarations: what each number means and what it should move.

``END_TO_END`` lists the metrics an untraced run reports, ``PER_LAYER`` the
metrics a traced run reports.  Each per-layer metric names the workload whose
calls it is measured on (``owner``) and the end-to-end metric and workload it
is expected to move (``moves``).  ``BENCHMARK.json`` declares the same names;
the benchmark's tests keep the two in step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

WORKLOADS = ("mc_dense", "spacings", "large_n", "exact")
MC_WORKLOADS = ("mc_dense", "spacings", "large_n")


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    meaning: str


@dataclass(frozen=True)
class Layer:
    """A per-layer metric.

    ``owner`` is a workload, or ``mc`` (the three Monte Carlo workloads) or
    ``all``.  A timing (unit ``us`` or ``ms``) is, for each call of the owner
    workload that makes the span ``span``, the median span duration, averaged
    over those calls.  A count is the mean of the counter ``span`` over the
    owner's calls.  ``span`` is None for the metrics computed from whole
    passes (see ``perfbench.runner``).
    """

    name: str
    unit: str
    better: str
    owner: str
    span: Optional[str]
    moves: str


END_TO_END = (
    EndToEnd("setup_s", "s", "lower",
             "time from a fresh interpreter to `import permspectra.cli` done, at the host speed "
             "of calibrate.REFERENCE_IMPORT_S: the median over 9 launches of each one's time "
             "over the reference launches timed either side of it"),
    EndToEnd("wall_s", "s", "lower",
             "one pass over the workload's calls at the host speed of calibrate.REFERENCE_S: "
             "each call's median over the timed passes of its time over the calibration "
             "units timed either side of it"),
    EndToEnd("trials_per_s", "1/s", "higher",
             "Monte Carlo trials per second of wall_s; on `exact`, which samples nothing, "
             "exact calls per second"),
    EndToEnd("peak_rss_mb", "MB", "lower", "peak resident set of the workload's process"),
)

PER_LAYER = (
    Layer("rng.trial_rng.us", "us", "lower", "mc_dense", "rng.trial_rng",
          "trials_per_s on mc_dense (about 20% of a trial); no effect on exact"),
    Layer("ewens.sample_cycle_counts.dense.us", "us", "lower", "mc_dense",
          "ewens.sample_cycle_counts@1000",
          "trials_per_s on mc_dense and spacings; no effect on the sparse rows of large_n"),
    Layer("ewens.sample_cycle_counts.sparse.us", "us", "lower", "large_n",
          "ewens.sample_cycle_counts@1000000",
          "wall_s on large_n; no effect on mc_dense"),
    Layer("ewens.sample_coupled.us", "us", "lower", "large_n", "ewens.sample_coupled",
          "wall_s on large_n"),
    Layer("ewens.coupling_horizon.ms", "ms", "lower", "large_n", "ewens.coupling_horizon",
          "wall_s on large_n (first, uncached call of each coupling-check)"),
    Layer("ewens.cycles_per_trial", "count", "lower", "large_n", "ewens.cycles@1000000",
          "wall_s on large_n: sparse work is about cycles x log2(n) survival evaluations"),
    Layer("spectral.attach_phases.us", "us", "lower", "mc_dense", "spectral.attach_phases",
          "trials_per_s on mc_dense"),
    Layer("spectral.count_arc_mod.us", "us", "lower", "mc_dense", "spectral.count_arc_mod",
          "trials_per_s on mc_dense"),
    Layer("spectral.count_arc_perm.us", "us", "lower", "mc_dense", "spectral.count_arc_perm",
          "trials_per_s on mc_dense"),
    Layer("spectral.exact_moments_perm.ms", "ms", "lower", "exact",
          "spectral.exact_moments_perm@5000", "wall_s on exact"),
    Layer("spectral.exact_moments_mod.ms", "ms", "lower", "exact",
          "spectral.exact_moments_mod@1000000", "wall_s on exact and on the mod rows of large_n"),
    Layer("cesaro.psi_values.ms", "ms", "lower", "exact", "cesaro.psi_values@1000000",
          "wall_s on exact"),
    Layer("cesaro.verify_quadratic_identity.ms", "ms", "lower", "exact",
          "cesaro.verify_quadratic_identity", "wall_s on exact"),
    Layer("limits.covariance_D.ms", "ms", "lower", "exact", "limits.covariance_D",
          "wall_s on exact; also 3-8% of each mc_dense call (n_numeric = 10^6)"),
    Layer("limits.covariance_Dtilde.ms", "ms", "lower", "exact", "limits.covariance_Dtilde",
          "wall_s on exact; also 3-8% of each mc_dense call (n_numeric = 10^6)"),
    Layer("limits.c_numeric.ms", "ms", "lower", "exact", "limits.c_numeric", "wall_s on exact"),
    Layer("limits.ctilde_numeric.ms", "ms", "lower", "exact", "limits.ctilde_numeric",
          "wall_s on exact"),
    Layer("spacings.spacings_perm.n1000.us", "us", "lower", "spacings",
          "spacings.spacings_perm@1000", "wall_s on spacings only"),
    Layer("spacings.spacings_perm.n4000.us", "us", "lower", "spacings",
          "spacings.spacings_perm@4000", "wall_s on spacings only"),
    Layer("spacings.spacings_perm.n16000.us", "us", "lower", "spacings",
          "spacings.spacings_perm@16000", "wall_s on spacings only"),
    Layer("spacings.spacings_mod.us", "us", "lower", "spacings", "spacings.spacings_mod",
          "wall_s on spacings"),
    Layer("spacings.max_pairwise_lcm.us", "us", "lower", "spacings",
          "spacings.max_pairwise_lcm", "wall_s on spacings"),
    Layer("spacings.distinct_angles_per_trial", "count", "lower", "spacings",
          "spacings.distinct_angles", "wall_s on spacings: how much the enumeration has to do"),
    Layer("experiments.self_s", "s", "lower", "mc", None,
          "wall_s on every MC workload (estimate: library pass wall minus replayed layer time, "
          "summed over the three MC workloads)"),
    Layer("experiments.jobs2_speedup", "ratio", "higher", "mc_dense", None,
          "a later parallelism change (one mc_dense pass at --jobs 2 against --jobs 1)"),
    Layer("experiments.golden_mismatch", "count", "lower", "all", None,
          "nothing: calls whose results digest differs from the seed commit's (all workloads)"),
    Layer("cli.overhead_ms", "ms", "lower", "exact", None,
          "wall_s on exact, which makes 55 short CLI calls per pass"),
    Layer("trace.overhead_frac", "ratio", "lower", "all", None,
          "nothing: traced replay wall / untraced replay wall - 1 (all workloads)"),
)
