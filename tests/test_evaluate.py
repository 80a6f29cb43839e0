"""Coverage study bookkeeping and the data-screening tests."""

import numpy as np
import pytest

import entropy_lab as el
from entropy_lab.datasets import BOEING_PLANE_7907, BOEING_PLANE_7916
from entropy_lab.errors import DataError, DomainError
from entropy_lab.numerics import kolmogorov_sf


@pytest.fixture(scope="module")
def study():
    cfg = el.CoverageConfig(n_grid=(10, 20, 40), methods=("aci", "gci", "boot-p", "boot-t", "hpd"),
                            outer_reps=900, master_seed=33, gci_draws=600,
                            boot_k=300, mcmc_n=1_200, mcmc_burnin=200)
    return el.coverage_study(cfg)


class TestCoverageStudy:
    def test_pcd_consistency(self, study):
        for r in study.rows:
            assert r.pcd == pytest.approx(r.cp / r.al, rel=1e-12)

    def test_al_decreasing_in_n(self, study):
        for method in ("aci", "gci", "boot-p", "boot-t", "hpd"):
            als = [study.row(method, n).al for n in (10, 20, 40)]
            assert als[0] > als[1] > als[2]

    def test_cp_band(self, study):
        for r in study.rows:
            assert 0.60 <= r.cp <= 0.97

    def test_cp_ordering(self, study):
        # the pivot construction forces gci >= boot-t >= boot-p up to noise
        for n in (10, 20):
            gci = study.row("gci", n)
            bt = study.row("boot-t", n)
            bp = study.row("boot-p", n)
            assert gci.cp >= bt.cp - 3.0 * (gci.cp_stderr + bt.cp_stderr)
            assert bt.cp >= bp.cp + 3.0 * (bt.cp_stderr + bp.cp_stderr) / 2.0

    def test_csv_schema(self, study, tmp_path):
        out = tmp_path / "cov.csv"
        study.to_csv(out)
        lines = out.read_text().splitlines()
        assert lines[0] == "method,n,level,cp,cp_stderr,al,pcd,outer_reps,inner_reps,seed"
        assert len(lines) == 1 + 15

    def test_thread_independence(self):
        base = dict(n_grid=(10,), methods=("gci", "hpd"), outer_reps=500,
                    master_seed=8, gci_draws=400, mcmc_n=1_100, mcmc_burnin=100)
        r1 = el.coverage_study(el.CoverageConfig(**base, threads=1))
        r8 = el.coverage_study(el.CoverageConfig(**base, threads=8))
        assert r1.rows == r8.rows

    def test_config_validation(self):
        with pytest.raises(DomainError):
            el.CoverageConfig(methods=("nope",))
        with pytest.raises(DomainError):
            el.CoverageConfig(level=1.2)
        with pytest.raises(DomainError):
            el.CoverageConfig(n_grid=(1,))
        for bad in ({"gci_draws": 0}, {"boot_k": 0}, {"gci_draws": -5}):
            with pytest.raises(DomainError):
                el.CoverageConfig(**bad)


class TestKsNormality:
    def test_boeing_decisions(self):
        # both planes pass the normality screen at the 5% level
        for sample, ref_p in ((BOEING_PLANE_7907, 0.374), (BOEING_PLANE_7916, 0.405)):
            r = el.ks_normality(sample)
            assert r.p_value > 0.05
            assert r.p_value == pytest.approx(ref_p, abs=0.25)

    def test_statistic_definition(self):
        r = el.ks_normality(BOEING_PLANE_7907)
        assert 0.0 < r.statistic < 1.0
        assert r.p_value == pytest.approx(
            kolmogorov_sf(np.sqrt(6) * r.statistic), abs=1e-14)

    def test_simple_null_p_uniformity(self):
        # under a fully specified null the p-values are uniform; the
        # secondary KS on the p-sample stays under its 10% critical value
        rng = np.random.default_rng(1)
        pvals = []
        for _ in range(150):
            x = rng.standard_normal(400)
            pvals.append(el.ks_normality(x, mean=0.0, sd=1.0).p_value)
        pvals = np.sort(pvals)
        grid = np.arange(1, 151) / 150.0
        d = max(np.max(grid - pvals), np.max(pvals - (grid - 1 / 150.0)))
        assert d < 1.224 / np.sqrt(150)

    def test_rejects_gross_nonnormality(self):
        rng = np.random.default_rng(2)
        x = rng.exponential(1.0, 500)
        assert el.ks_normality(x).p_value < 0.01

    def test_degenerate(self):
        with pytest.raises(DataError):
            el.ks_normality([3.0, 3.0, 3.0, 3.0])
        with pytest.raises(DataError):
            el.ks_normality([1.0, 2.0])


class TestVarianceAndOrderTests:
    def test_boeing_equal_variance_not_rejected(self):
        r = el.f_test_equal_var(BOEING_PLANE_7907, BOEING_PLANE_7916)
        assert r.p_value > 0.05

    def test_identical_samples(self):
        r = el.f_test_equal_var([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert r.statistic == 1.0
        assert r.p_value == pytest.approx(1.0, abs=1e-12)

    def test_detects_unequal_variances(self):
        rng = np.random.default_rng(3)
        r = el.f_test_equal_var(rng.normal(0, 1, 60), rng.normal(0, 5, 60))
        assert r.p_value < 0.01

    def test_zero_variance(self):
        with pytest.raises(DataError):
            el.f_test_equal_var([1.0, 1.0], [1.0, 2.0])

    def test_boeing_order_consistent(self):
        r = el.t_test_ordered_means(BOEING_PLANE_7907, BOEING_PLANE_7916)
        assert r.p_value > 0.05

    def test_shifted_sample_consistent(self):
        s1 = np.array(BOEING_PLANE_7907)
        r = el.t_test_ordered_means(s1, s1 + 10.0)
        assert r.p_value > 0.5

    def test_violation_detected(self):
        rng = np.random.default_rng(4)
        x = rng.normal(5.0, 1.0, 40)
        y = rng.normal(0.0, 1.0, 40)
        r = el.t_test_ordered_means(x, y)
        assert r.p_value < 0.01

    def test_degenerate(self):
        with pytest.raises(DataError):
            el.t_test_ordered_means([1.0, 1.0], [1.0, 1.0])
