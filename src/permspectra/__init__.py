"""Eigenvalue counting statistics for random permutation matrices.

Two ensembles, both under the Ewens measure of parameter theta: plain
permutation matrices, and their modification where every unit entry is
replaced by an independent uniform point of the unit circle.  The package
samples cycle structures (Feller word and Chinese-restaurant routes),
counts eigenvalues in arcs, evaluates the exact finite-n moments and every
closed-form limit constant, measures extremal spacings, and ships a seeded
Monte Carlo harness plus a command-line driver for all of it.
"""

from .cesaro import (
    PsiTable,
    absolute_quadratic_sum,
    cesaro_mean,
    cesaro_number,
    log_weighted_ratio,
    psi,
    psi_table,
    psi_values,
    verify_harmonic_identity,
    verify_mean_identity,
    verify_quadratic_identity,
    verify_telescoping,
)
from .ewens import (
    AgeOrderedCycles,
    CoupledSample,
    CycleCounts,
    EwensParams,
    coupling_distance,
    coupling_horizon,
    coupling_tail_expectation,
    cycle_type_probability,
    expected_total_cycles,
    iter_cycle_types,
    sample_age_ordered,
    sample_coupled,
    sample_cycle_counts,
    sample_gem,
)
from .experiments import (
    CouplingReport,
    ExperimentConfig,
    NormalityReport,
    coupling_bound,
    digamma,
    ks_test,
    run_clt_fixed,
    run_coupling_check,
    run_mesoscopic,
    run_spacings,
)
from .limits import (
    NAMED_IRRATIONALS,
    AffineRelated,
    BothIrrationalIndependent,
    BothRational,
    CovarianceMatrix,
    DeclaredIrrational,
    RationalAlpha,
    RationalBeta,
    c2_closed,
    c2_meso,
    c_numeric,
    covariance_D,
    covariance_Dtilde,
    ctilde_numeric,
    ell_closed,
    equidistribution_average,
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
    two_cycle_min_spacing,
)
from .spectral import (
    Arc,
    CountMoments,
    ModifiedSpectrum,
    attach_phases,
    count_arc_mod,
    count_arc_perm,
    enumerate_angles_mod,
    exact_covariance_mod,
    exact_covariance_perm,
    exact_moments_mod,
    exact_moments_perm,
    frac_shift_invariant,
)

__version__ = "0.1.0"
