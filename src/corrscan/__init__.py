"""Spatial scan statistics with a correlation-adjusted Monte Carlo null."""

from .region import (
    CandidateCluster,
    StudyRegion,
    WindowSet,
    distance_matrix,
    enumerate_windows,
    load_study_region,
)
from .scan import ScanResult, mc_pvalue, scan
from .matern import CovFactor, MaternParams, cholesky, matern_cov, simulate_grf
from .mcmc import McmcConfig, ModelIIFit, PriorSpec, fit_model2, posterior_means
from .adjusted import (
    AdjustedScanConfig,
    AdjustedScanResult,
    adjusted_scan,
    simulate_model2_counts,
    train_test_adjusted_scan,
)
from .theory import mixture_tail, poisson_tail, prop2_correction, verify_prop2
from .fdr import FdrModel, fit_empirical_density, fit_empirical_null, fit_fdr_model, local_fdr, p_to_z
from .harness import (
    ExperimentConfig,
    ProportionTable,
    adjusted_study,
    surveillance_run,
    synth_geometry,
    type1_study,
)

__version__ = "0.1.0"
