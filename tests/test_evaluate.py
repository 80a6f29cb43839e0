"""Coverage study bookkeeping and the data-screening tests."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import entropy_lab as el
from entropy_lab import evaluate
from entropy_lab.datasets import BOEING_PLANE_7907, BOEING_PLANE_7916
from entropy_lab.errors import DataError, DomainError
from entropy_lab.intervals import run_variance_chains
from entropy_lab.numerics import kolmogorov_sf
from entropy_lab.numerics.rng import RngStream


# four n of 256 reps a block: blocks of 256, 256 and a partial 188
BLOCKS_BASE = dict(n_grid=(4, 9, 15, 23), outer_reps=700, master_seed=21, gci_draws=300,
                   boot_k=200, mcmc_n=600, mcmc_burnin=100)


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

    def test_csv_schema(self, study):
        lines = study.csv_text().splitlines()
        assert lines[0] == "method,n,level,cp,cp_stderr,al,pcd,outer_reps,inner_reps,seed"
        assert len(lines) == 1 + 15

    def test_thread_independence(self):
        r1, r2, r8 = (el.coverage_study(el.CoverageConfig(**BLOCKS_BASE, threads=t))
                      for t in (1, 2, 8))
        assert el.CoverageConfig(**BLOCKS_BASE).block_size == 256   # three blocks
        assert r1.rows == r2.rows == r8.rows
        assert r1.hpd_acceptance == r2.hpd_acceptance == r8.hpd_acceptance

    def test_config_validation(self):
        with pytest.raises(DomainError):
            el.CoverageConfig(methods=("nope",))
        with pytest.raises(DomainError):
            el.CoverageConfig(level=1.2)
        with pytest.raises(DomainError):
            el.CoverageConfig(n_grid=(1,))
        for bad in ({"gci_draws": 0}, {"boot_k": 0}, {"gci_draws": -5},
                    {"n_grid": ()}, {"methods": ()}, {"n_grid": (10, 10)},
                    {"methods": ("aci", "aci")}, {"threads": 0}, {"threads": -3}):
            with pytest.raises(DomainError):
                el.CoverageConfig(**bad)

    def test_hpd_block_holds_one_chain_array(self):
        # one 256-rep block's chains keep only the tails of their draws that
        # the window reads, in a buffer below (M, B): the study never holds
        # more than one array of the full trace's size
        b, m = 256, 2_000
        cfg = el.CoverageConfig(n_grid=(10,), methods=("hpd",), outer_reps=b,
                                master_seed=12, mcmc_n=m + 500, mcmc_burnin=500)
        # a first run imports modules lazily; keep that out of the trace
        el.coverage_study(replace(cfg, outer_reps=1))
        tracemalloc.start()
        try:
            el.coverage_study(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.3 * m * b * 8


class TestCoverageBlocks:
    """Block ib holds replications [ib B, (ib + 1) B) at every n, and the
    set of methods a study runs shows in no row."""

    @pytest.fixture(scope="class")
    def full(self):
        return el.coverage_study(el.CoverageConfig(**BLOCKS_BASE))

    @pytest.mark.parametrize("methods", [("hpd",), ("aci",), ("boot-p", "boot-t"), ("gci", "hpd")])
    def test_rows_do_not_depend_on_methods(self, full, methods):
        res = el.coverage_study(el.CoverageConfig(**{**BLOCKS_BASE, "methods": methods}))
        assert res.rows == tuple(r for r in full.rows if r.method in methods)
        assert res.hpd_acceptance == (full.hpd_acceptance if "hpd" in methods else ())

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_chains_per_block_are_bounded(self, monkeypatch, k):
        sizes = []

        def counting(x1bar, x2bar, ss1, ss2, n, cfg, gen):
            sizes.append(len(ss1))
            return run_variance_chains(x1bar, x2bar, ss1, ss2, n, cfg, gen)

        monkeypatch.setattr(evaluate, "run_variance_chains", counting)
        cfg = el.CoverageConfig(n_grid=tuple(range(5, 5 + k)), methods=("hpd",),
                                outer_reps=1_100, mcmc_n=110, mcmc_burnin=10)
        el.coverage_study(cfg)
        assert max(sizes) <= evaluate.BLOCK_CHAINS
        assert sum(sizes) == k * cfg.outer_reps


class TestHpdAcceptance:
    def test_desk_summary(self):
        # desk-scale coverage sizes
        cfg = el.CoverageConfig(n_grid=(10, 20), outer_reps=600, master_seed=42,
                                gci_draws=800, boot_k=400, mcmc_n=1_200, mcmc_burnin=300)
        res = el.coverage_study(cfg)
        assert [h.n for h in res.hpd_acceptance] == [10, 20]
        for h in res.hpd_acceptance:
            assert 0.05 <= h.min <= h.mean <= h.max <= 0.7
            assert h.outside_share == 0.0
            assert h.mean == pytest.approx(0.4, abs=0.1)   # the adaptation target
        # the summary is not part of the table
        assert res.csv_text().splitlines()[0] == (
            "method,n,level,cp,cp_stderr,al,pcd,outer_reps,inner_reps,seed")

    def test_summary_reads_the_block_chains(self):
        # one block, redrawn by hand on the streams the study keys for it:
        # SS0 per n from slot 0 of that n, the step noise from slot 3 of the first
        cfg = el.CoverageConfig(n_grid=(7, 12), methods=("hpd",), outer_reps=40,
                                master_seed=5, mcmc_n=1_100, mcmc_burnin=100)
        health = el.coverage_study(cfg).hpd_acceptance
        ss0 = np.concatenate([RngStream(5, ni << 28).generator.chisquare(2 * n - 2, 40)
                              for ni, n in enumerate((7, 12))])
        zeros = np.zeros(80)
        _, acc, _ = run_variance_chains(zeros, zeros, ss0, zeros, np.repeat([7, 12], 40),
                                        el.McmcConfig(N=1_100, N0=100, level=0.95),
                                        RngStream(5, 3).generator)
        for h, n, a in zip(health, (7, 12), (acc[:40], acc[40:])):
            outside = np.mean((a < 0.05) | (a > 0.7))
            assert (h.n, h.mean, h.min, h.max, h.outside_share) == (
                n, a.mean(), a.min(), a.max(), outside)

    def test_empty_without_hpd(self):
        cfg = el.CoverageConfig(n_grid=(10,), methods=("aci",), outer_reps=10)
        assert el.coverage_study(cfg).hpd_acceptance == ()


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
