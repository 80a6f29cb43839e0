"""The names the package exports, and the one runtime dependency."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import entropy_lab as el
from entropy_lab import estimators, numerics


def test_public_surface():
    assert sorted(el.__all__) == sorted([
        "BootConfig", "CoverageConfig", "CoverageResult",
        "DataError", "DomainError", "EntropyLabError", "EstimateReport",
        "GpcResult", "IntervalResult", "Loss", "McmcConfig", "NumericError",
        "SimConfig", "SimResult", "SuffStats", "TwoSampleData",
        "aci", "boot_p", "boot_t", "bz_r0", "chen_shao_hpd",
        "closed_form_bias_baee", "closed_form_risk_baee",
        "coverage_study", "d0", "entropy_of_log_sigma", "estimate",
        "estimate_all", "gci_umvue", "gpc_estimate", "hpd_mcmc",
        "m0", "simulate_risk", "suff_stats", "t_test_ordered_means",
    ])
    assert all(hasattr(el, name) for name in el.__all__)
    for gone in ("Params", "rri_curve", "baee", "umvue", "mle", "rmle", "stein",
                 "improved_mle", "improved_rmle", "brewster_zidek", "pitman_clipped",
                 "two_sample_data", "ks_normality", "f_test_equal_var",
                 "BracketError", "bz_r0_defining", "conditional_median", "ierd_check"):
        assert not hasattr(el, gone)
    for gone in ("f_cdf", "kolmogorov_sf", "find_root", "EULER_GAMMA", "reg_inc_beta",
                 "reg_lower_gamma", "reg_upper_gamma", "std_normal_cdf",
                 "ln_gamma", "std_normal_quantile"):
        assert not hasattr(numerics, gone)
    for gone in ("median_ln_v_eta0", "window_mass_ratio"):
        assert not hasattr(estimators, gone)
    assert not hasattr(el.Loss, "deriv")
    assert not hasattr(el.IntervalResult, "to_json_dict")


def test_no_module_imports_scipy():
    # numpy is the only runtime dependency; scipy is the tests' oracle
    package = Path(el.__file__).parent
    for path in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            assert not any(name.split(".")[0] == "scipy" for name in names), path


def test_import_leaves_statistics_and_multiprocessing_for_the_runs_that_need_them():
    # statistics (which imports decimal and fractions) serves only aci, and
    # multiprocessing only a pool of more than one worker
    env = {**os.environ, "PYTHONPATH": str(Path(el.__file__).parent.parent)}
    out = subprocess.run(
        [sys.executable, "-c", "import sys, entropy_lab.cli; print(sorted(m for m in "
         "('statistics', 'decimal', 'fractions', 'multiprocessing') if m in sys.modules))"],
        env=env, capture_output=True, text=True, check=True).stdout
    assert out == "[]\n"
