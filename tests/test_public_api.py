"""The names the package exports."""

import entropy_lab as el
from entropy_lab import numerics


def test_public_surface():
    assert sorted(el.__all__) == sorted([
        "BootConfig", "BracketError", "CoverageConfig", "CoverageResult",
        "DataError", "DomainError", "EntropyLabError", "EstimateReport",
        "GpcResult", "IntervalResult", "Loss", "McmcConfig", "NumericError",
        "SimConfig", "SimResult", "SuffStats", "TwoSampleData",
        "aci", "boot_p", "boot_t", "bz_r0", "bz_r0_defining", "chen_shao_hpd",
        "closed_form_bias_baee", "closed_form_risk_baee", "conditional_median",
        "coverage_study", "d0", "entropy_of_log_sigma", "estimate",
        "estimate_all", "gci_umvue", "gpc_estimate", "hpd_mcmc", "ierd_check",
        "m0", "simulate_risk", "suff_stats", "t_test_ordered_means",
    ])
    assert all(hasattr(el, name) for name in el.__all__)
    for gone in ("Params", "rri_curve", "baee", "umvue", "mle", "rmle", "stein",
                 "improved_mle", "improved_rmle", "brewster_zidek", "pitman_clipped",
                 "two_sample_data", "ks_normality", "f_test_equal_var"):
        assert not hasattr(el, gone)
    for gone in ("f_cdf", "kolmogorov_sf"):
        assert not hasattr(numerics, gone)
