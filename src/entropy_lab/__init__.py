"""Estimation of tau = ln(sigma), and hence the differential entropy, of two
independent normal populations with a common variance and ordered means
mu_1 <= mu_2: improved point estimators, four interval procedures, and a
deterministic Monte Carlo laboratory for risk and coverage comparisons."""

__version__ = "0.1.0"

from .errors import BracketError, DataError, DomainError, EntropyLabError, NumericError
from .estimators import (
    EstimateReport,
    bz_r0,
    bz_r0_defining,
    conditional_median,
    estimate,
    estimate_all,
    ierd_check,
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
    t_test_ordered_means,
)

__all__ = [
    "BootConfig", "BracketError", "CoverageConfig", "CoverageResult",
    "DataError", "DomainError", "EntropyLabError", "EstimateReport",
    "GpcResult", "IntervalResult", "Loss", "McmcConfig", "NumericError",
    "SimConfig", "SimResult", "SuffStats", "TwoSampleData",
    "aci", "boot_p", "boot_t", "bz_r0", "bz_r0_defining", "chen_shao_hpd",
    "closed_form_bias_baee", "closed_form_risk_baee", "conditional_median",
    "coverage_study", "d0", "entropy_of_log_sigma", "estimate",
    "estimate_all", "gci_umvue", "gpc_estimate", "hpd_mcmc", "ierd_check",
    "m0", "simulate_risk", "suff_stats", "t_test_ordered_means",
]
