"""Eigenvalue counting statistics for random permutation matrices.

Two ensembles, both under the Ewens measure of parameter theta: plain
permutation matrices, and their modification where every unit entry is
replaced by an independent uniform point of the unit circle.  The package
samples cycle structures through the Feller word, counts eigenvalues in
arcs, evaluates the exact finite-n moments and every closed-form limit
constant, measures extremal spacings, and ships a seeded Monte Carlo
harness plus a command-line driver for all of it.
"""

from .cesaro import (
    psi,
    psi_values,
    verify_harmonic_identity,
    verify_mean_identity,
    verify_quadratic_identity,
    verify_telescoping,
)
from .ewens import (
    CoupledSample,
    CycleCounts,
    EwensParams,
    coupling_distance,
    coupling_horizon,
    coupling_tail_expectation,
    sample_coupled,
    sample_cycle_counts,
)
from .experiments import (
    CouplingReport,
    ExperimentConfig,
    NormalityReport,
    coupling_bound,
    run_clt_fixed,
    run_coupling_check,
    run_mesoscopic,
    run_spacings,
)
from .limits import (
    NAMED_IRRATIONALS,
    AffineRelated,
    CovarianceMatrix,
    DeclaredIrrational,
    c2_closed,
    c2_meso,
    c_numeric,
    covariance_D,
    covariance_Dtilde,
    ctilde_numeric,
    ell_closed,
    s3_closed,
)
from .rng import trial_rng
from .spacings import (
    NormalizedSpacings,
    SpacingStats,
    max_pairwise_lcm,
    normalized_spacings,
    spacings_mod,
    spacings_perm,
)
from .spectral import (
    Arc,
    CountMoments,
    attach_phases,
    count_arc_mod,
    count_arc_perm,
    exact_covariance_mod,
    exact_covariance_perm,
    exact_moments_mod,
    exact_moments_perm,
)

__version__ = "0.1.0"
