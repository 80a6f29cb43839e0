"""Estimation of tau = ln(sigma), and hence the differential entropy, of two
independent normal populations with a common variance and ordered means
mu_1 <= mu_2: improved point estimators, four interval procedures, and a
deterministic Monte Carlo laboratory for risk and coverage comparisons."""

__version__ = "0.1.0"

from .errors import BracketError, DataError, DomainError, EntropyLabError, NumericError
from .estimators import (
    EstimateReport,
    baee,
    brewster_zidek,
    bz_r0,
    bz_r0_defining,
    conditional_median,
    estimate_all,
    ierd_check,
    improved_mle,
    improved_rmle,
    mle,
    pitman_clipped,
    rmle,
    stein,
    umvue,
)
from .intervals import (
    BootConfig,
    IntervalResult,
    McmcConfig,
    aci,
    boot_p,
    boot_t,
    chen_shao_hpd,
    gci_umvue,
    hpd_mcmc,
)
from .model import (
    Loss,
    SuffStats,
    TwoSampleData,
    closed_form_bias_baee,
    closed_form_risk_baee,
    d0,
    entropy_of_log_sigma,
    m0,
    suff_stats,
    two_sample_data,
)
from .risk import (
    GpcResult,
    SimConfig,
    SimResult,
    gpc_estimate,
    simulate_risk,
)
from .evaluate import (
    CoverageConfig,
    CoverageResult,
    coverage_study,
    f_test_equal_var,
    ks_normality,
    t_test_ordered_means,
)

__all__ = [
    "BootConfig", "BracketError", "CoverageConfig", "CoverageResult",
    "DataError", "DomainError", "EntropyLabError", "EstimateReport",
    "GpcResult", "IntervalResult", "Loss", "McmcConfig", "NumericError",
    "SimConfig", "SimResult", "SuffStats", "TwoSampleData",
    "aci", "baee", "boot_p", "boot_t", "brewster_zidek", "bz_r0",
    "bz_r0_defining", "chen_shao_hpd", "closed_form_bias_baee",
    "closed_form_risk_baee", "conditional_median", "coverage_study", "d0",
    "entropy_of_log_sigma", "estimate_all", "f_test_equal_var", "gci_umvue",
    "gpc_estimate", "hpd_mcmc", "ierd_check", "improved_mle",
    "improved_rmle", "ks_normality", "m0", "mle",
    "pitman_clipped", "rmle", "simulate_risk", "stein",
    "suff_stats", "t_test_ordered_means", "two_sample_data", "umvue",
]
