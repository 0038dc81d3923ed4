"""Every argument check in ``src/`` that no other test reaches: each call
must raise ValueError with its own message, so a check that goes missing,
or starts refusing for another reason, shows here."""

import math

import numpy as np
import pytest

from permspectra import (
    Arc,
    CountMoments,
    CovarianceMatrix,
    ExperimentConfig,
    covariance_D,
    covariance_Dtilde,
    run_clt_fixed,
)
from permspectra._seedseq import PrecomputedSeed
from permspectra.cesaro import verify_telescoping
from permspectra.cli import parse_arcs
from permspectra.ewens import TrialBatch, coupling_tail_expectation
from permspectra.experiments import NormalityReport, _lattice_ks
from permspectra.limits import c_numeric, ctilde_numeric
from permspectra.spacings import mod_gap_extremes


def _config(**fields):
    return ExperimentConfig(theta=1.0, trials=8, master_seed=0, model="mod", **fields)


def _report(statistic):
    return NormalityReport(8, statistic, 0.5, 0.0, 1.0, 0.0, 1.0)


_TOO_LONG = 2**27 + 2


@pytest.mark.parametrize("call, message", [
    (lambda: parse_arcs("0.1,0.2,0.3"), "arc '0.1,0.2,0.3' must be 'alpha,beta'"),
    (lambda: parse_arcs("0.1,0.2;"), "arc '' must be 'alpha,beta'"),
    (lambda: CovarianceMatrix(np.ones((2, 3))), "entries must be square"),
    (lambda: CovarianceMatrix(np.array([[1.0, 0.2], [0.3, 1.0]])), "entries must be symmetric"),
    (lambda: CovarianceMatrix(np.array([[1.0, 0.2], [0.2, 2.0]])), "diagonal must be 1"),
    (lambda: CovarianceMatrix(np.array([[1.0, 2.0], [2.0, 1.0]])),
     "matrix is not positive semidefinite within tolerance"),
    (lambda: covariance_D([]), "need at least one arc"),
    (lambda: covariance_Dtilde([]), "need at least one arc"),
    (lambda: covariance_D([Arc(0.1, 0.6)], 0), "n_numeric must be >= 1, got 0"),
    (lambda: covariance_Dtilde([Arc(0.1, 0.6)], 0), "n_numeric must be >= 1, got 0"),
    (lambda: c_numeric(0.1, 0.2, 0.3, 0.4, 0), "n must be >= 1"),
    (lambda: ctilde_numeric(0.1, 0.2, 0.3, 0.4, 0), "n must be >= 1"),
    (lambda: run_clt_fixed(_config(arcs=(Arc(0.1, 0.5),))),
     "run_clt_fixed needs n and at least one arc"),
    (lambda: run_clt_fixed(_config(n=50)), "run_clt_fixed needs n and at least one arc"),
    (lambda: coupling_tail_expectation(100, 1.0, 50), "horizon must be at least n"),
    (lambda: verify_telescoping(10, 0, 0.7), "j must lie in \\[1, n-1\\] = \\[1, 9\\], got 0"),
    (lambda: verify_telescoping(10, 10, 0.7), "j must lie in \\[1, n-1\\] = \\[1, 9\\], got 10"),
    (lambda: CountMoments(1.0, -1e-6), "variance must be >= 0, got -1e-06"),
    (lambda: CountMoments(math.nan, 1.0), "mean must be finite, got nan"),
    (lambda: CountMoments(1.0, math.nan), "variance must be finite, got nan"),
    (lambda: CountMoments(1.0, math.inf), "variance must be finite, got inf"),
    (lambda: _report(1.5), "KS statistic and p-value must lie in \\[0, 1\\]"),
    (lambda: _lattice_ks(np.zeros(5, dtype=np.int64), 0.0, 1.0),
     "need at least 8 samples, got 5"),
    (lambda: mod_gap_extremes(TrialBatch(_TOO_LONG, np.array([_TOO_LONG]), np.array([0.5]))),
     f"modified spacings are exact up to n = 2\\*\\*27, got n = {_TOO_LONG}"),
    (lambda: PrecomputedSeed(np.zeros(4, np.uint64)).generate_state(8, np.uint32),
     "a precomputed trial seed holds generate_state\\(4, uint64\\) only"),
], ids=[
    "arc-three-endpoints", "arc-trailing-semicolon", "matrix-not-square",
    "matrix-not-symmetric", "matrix-diagonal", "matrix-not-psd", "D-no-arcs",
    "Dtilde-no-arcs", "D-n0", "Dtilde-n0", "c-numeric-n0", "ctilde-numeric-n0",
    "clt-without-n", "clt-without-arcs", "coupling-short-horizon", "telescoping-j0",
    "telescoping-jn",
    "negative-variance", "nan-mean", "nan-variance", "inf-variance", "ks-statistic-above-one",
    "ks-five-counts", "spacings-beyond-2**27", "precomputed-seed-other-state",
])
def test_refused_with_its_message(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()

