"""Interval procedures: asymptotic, pivot, bootstrap pair, MCMC HPD."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import stats

import entropy_lab as el
from entropy_lab import intervals
from entropy_lab.datasets import boeing
from entropy_lab.errors import DomainError, NumericError
from entropy_lab.intervals import (
    _mh_update,
    _shortest_window,
    aci_offsets,
    at_log_scale,
    boot_offsets,
    gci_offsets,
    hpd_offsets,
    run_variance_chains,
)
from entropy_lab.numerics import chi_square_cdf, chi_square_quantile
from entropy_lab.numerics.rng import RngStream


class TestAci:
    def test_boeing_endpoints(self, boeing_data):
        r = el.aci(boeing_data, 0.95)
        assert r.lower == pytest.approx(4.186403343739677, abs=1e-9)
        assert r.upper == pytest.approx(4.986555289798895, abs=1e-9)
        # published reference row, looser rounding tolerance
        assert r.lower == pytest.approx(4.1864, abs=2e-4)
        assert r.upper == pytest.approx(4.9865, abs=2e-4)
        assert r.length == pytest.approx(r.upper - r.lower, abs=1e-15)

    def test_collapses_as_level_vanishes(self, boeing_data):
        r = el.aci(boeing_data, 1e-12)
        center = 4.586479316769287
        assert r.length < 1e-9
        assert r.lower == pytest.approx(center, abs=1e-9)

    def test_level_validation(self, boeing_data):
        for bad in (0.0, 1.0, -0.2):
            with pytest.raises(DomainError):
                el.aci(boeing_data, bad)

    def test_asymptotic_coverage_at_moderate_n(self):
        cfg = el.CoverageConfig(n_grid=(50,), methods=("aci",), outer_reps=4_000,
                                master_seed=19)
        cp = el.coverage_study(cfg).row("aci", 50).cp
        assert cp == pytest.approx(0.95, abs=0.02)


class TestGci:
    def test_large_draw_limit_matches_quantile_arithmetic(self, boeing_stats):
        r = el.gci_umvue(boeing_stats, 0.95, draws=400_000, seed=11)
        lns = math.log(boeing_stats.s)
        lo = lns - 0.5 * math.log(float(stats.chi2.ppf(0.975, 10)))
        hi = lns - 0.5 * math.log(float(stats.chi2.ppf(0.025, 10)))
        assert r.lower == pytest.approx(lo, abs=6e-3)
        assert r.upper == pytest.approx(hi, abs=6e-3)
        # frozen pivot arithmetic for the reference data
        assert lo == pytest.approx(4.3191, abs=1e-4)
        assert hi == pytest.approx(5.2401, abs=1e-4)

    def test_observed_value_is_estimand(self, boeing_stats):
        # substituting the observed chi-square value V = s^2/sigma^2 into the
        # pivot returns ln(sigma) identically
        for sigma in (0.5, 1.0, 7.0):
            v_obs = boeing_stats.s2 / sigma ** 2
            t = math.log(boeing_stats.s) - 0.5 * math.log(v_obs)
            assert t == pytest.approx(math.log(sigma), abs=1e-12)

    def test_draw_floor(self, boeing_stats):
        with pytest.raises(DomainError):
            el.gci_umvue(boeing_stats, 0.95, draws=500, seed=1)

    def test_seed_reproducible(self, boeing_stats):
        a = el.gci_umvue(boeing_stats, 0.95, draws=5_000, seed=3)
        b = el.gci_umvue(boeing_stats, 0.95, draws=5_000, seed=3)
        assert (a.lower, a.upper) == (b.lower, b.upper)


class TestBootstrapPair:
    def test_lengths_equal_exactly(self, boeing_data):
        cfg = el.BootConfig(K=3000, seed=2)
        rp = el.boot_p(boeing_data, 0.95, cfg)
        rt = el.boot_t(boeing_data, 0.95, cfg)
        assert rp.length == rt.length

    def test_boot_t_contains_mle(self, boeing_data):
        rt = el.boot_t(boeing_data, 0.95, el.BootConfig(K=3000, seed=2))
        assert rt.lower <= 4.586479316769287 <= rt.upper

    def test_length_scale_on_reference_data(self, boeing_data):
        # published bootstrap length on this dataset is about 0.919
        rp = el.boot_p(boeing_data, 0.95, el.BootConfig(K=3000, seed=2))
        assert rp.length == pytest.approx(0.92, abs=0.05)

    def test_boot_t_is_reflected_percentile(self, boeing_data):
        cfg = el.BootConfig(K=2000, seed=9)
        rp = el.boot_p(boeing_data, 0.95, cfg)
        rt = el.boot_t(boeing_data, 0.95, cfg)
        eta_hat = 4.586479316769287
        assert rt.lower == pytest.approx(2 * eta_hat - rp.upper, abs=1e-12)

    def test_k_floor(self, boeing_data):
        with pytest.raises(DomainError):
            el.BootConfig(K=1, seed=0)

    def test_coverage_lengths_equal_exactly(self):
        # boot-t is boot-p reflected on the same resamples, so the summed
        # lengths agree to the last bit
        cfg = el.CoverageConfig(n_grid=(10,), methods=("boot-p", "boot-t"),
                                outer_reps=128, boot_k=3000, master_seed=12)
        res = el.coverage_study(cfg)
        assert res.row("boot-p", 10).al == res.row("boot-t", 10).al

    def test_coverage_ordering_smoke(self):
        cfg = el.CoverageConfig(n_grid=(10,), methods=("boot-p", "boot-t"),
                                outer_reps=800, master_seed=15, boot_k=400)
        res = el.coverage_study(cfg)
        cp_p = res.row("boot-p", 10)
        cp_t = res.row("boot-t", 10)
        assert cp_t.cp > cp_p.cp
        assert cp_t.al == pytest.approx(cp_p.al, rel=1e-12)


class TestAciCoverage:
    def test_coverage_matches_closed_form_limit(self):
        # aci covers tau iff 2n e^(-2h) <= V <= 2n e^(2h), V = S^2/sigma^2
        # ~ chi-square(2n - 2) and h = z_{(1+level)/2} / (2 sqrt(n)); aci has
        # no inner sample, so the limit is its exact CP
        n, level = 10, 0.95
        h = stats.norm.ppf(0.5 * (1.0 + level)) / (2.0 * math.sqrt(n))
        chi2 = stats.chi2(2 * (n - 1))
        limit = chi2.cdf(2 * n * math.exp(2 * h)) - chi2.cdf(2 * n * math.exp(-2 * h))
        assert 0.85 < limit < level
        cfg = el.CoverageConfig(n_grid=(n,), methods=("aci",), outer_reps=20_000,
                                master_seed=46)
        row = el.coverage_study(cfg).row("aci", n)
        assert abs(row.cp - limit) <= 5.0 * row.cp_stderr


class TestChiSquareBootstrap:
    def test_boot_p_coverage_matches_closed_form_limit(self):
        # boot-p covers tau iff 4n^2/q_hi <= V <= 4n^2/q_lo, V = S^2/sigma^2
        # ~ chi-square(2n - 2) and q the resampling law's tail quantiles.
        # Finite-K allowance: the percentile endpoints are order statistics
        # of K draws, which lowers CP by about 2.4/K (measured 0.0023 at
        # K = 1000 over 100k outer reps); 0.005 covers it.
        n, level, K = 10, 0.95, 1_000
        df = 2 * (n - 1)
        q_lo = chi_square_quantile(df, 0.5 * (1.0 - level))
        q_hi = chi_square_quantile(df, 0.5 * (1.0 + level))
        limit = chi_square_cdf(df, 4 * n * n / q_lo) - chi_square_cdf(df, 4 * n * n / q_hi)
        assert limit == pytest.approx(0.8097, abs=1e-4)
        cfg = el.CoverageConfig(n_grid=(n,), methods=("boot-p",), outer_reps=5_000,
                                boot_k=K, master_seed=44)
        row = el.coverage_study(cfg).row("boot-p", n)
        assert abs(row.cp - limit) <= 5.0 * row.cp_stderr + 0.005

    def test_boot_t_coverage_matches_level(self):
        # boot-t is the gci pivot on K chi-square draws, so its K -> infinity
        # limit F(q_hi) - F(q_lo) at the exact quantiles is the level; the
        # 0.005 allows for the order statistics of a finite K
        n, level, K = 10, 0.95, 1_000
        chi2 = stats.chi2(2 * (n - 1))
        limit = chi2.cdf(chi2.ppf(0.5 * (1.0 + level))) - chi2.cdf(chi2.ppf(0.5 * (1.0 - level)))
        assert limit == pytest.approx(level, abs=1e-12)
        cfg = el.CoverageConfig(n_grid=(n,), methods=("boot-t",), outer_reps=5_000,
                                boot_k=K, master_seed=45)
        row = el.coverage_study(cfg).row("boot-t", n)
        assert abs(row.cp - limit) <= 5.0 * row.cp_stderr + 0.005

    def test_memory_does_not_grow_with_n(self):
        # no resample is drawn, so the traced peak is set by B alone, not by
        # K or n
        def peak(n: int) -> int:
            tracemalloc.start()
            try:
                boot_offsets(n, 0.95, 3_000, 256, RngStream(5, 0).generator)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        p10, p40 = peak(10), peak(40)
        assert p40 <= 1.25 * p10
        assert p40 < 32 * 2 ** 20


def _direct_quantiles(n: int, level: float, m: int, b: int, seed: int,
                      chunk: int = 2_000) -> np.ndarray:
    """Reference for the order-statistic kernel: the (lo, hi) linear sample
    quantiles of ln(V)/2 over an explicit (b, m) chi-square draw, in row
    chunks to bound memory."""
    gen = np.random.default_rng(seed)
    alpha = 1.0 - level
    out = []
    for start in range(0, b, chunk):
        v = gen.chisquare(2 * (n - 1), (min(chunk, b - start), m))
        out.append(np.quantile(0.5 * np.log(v), [0.5 * alpha, 1.0 - 0.5 * alpha], axis=1))
    return np.concatenate(out, axis=1)


class TestOrderStatisticQuantiles:
    """gci and boot read four order statistics drawn from their exact law;
    each check compares that law with np.quantile over explicit draws."""

    B = 20_000

    @pytest.mark.parametrize("n, m", [(6, 1_000), (40, 300)])
    def test_gci_endpoints_match_direct_pivot_quantiles(self, n, m):
        lower, upper, length = gci_offsets(n, 0.95, m, self.B, RngStream(61, n).generator)
        lo, hi = _direct_quantiles(n, 0.95, m, self.B, seed=62 + n)
        for got, want in ((lower, -hi), (upper, -lo), (length, hi - lo)):
            assert stats.ks_2samp(got, want).pvalue > 1e-3

    @pytest.mark.parametrize("n, K", [(6, 1_000), (40, 300)])
    def test_boot_endpoints_match_direct_resample_quantiles(self, n, K):
        # the percentile endpoints are quantiles of ln(sigma_hat^2 V/(2n))/2
        # over K draws, sigma_hat^2 = s2/(2n)
        s2 = np.full(self.B, 3.0 * n)
        pct, _ = boot_offsets(n, 0.95, K, self.B, RngStream(63, n).generator)
        q_lo, q_hi, _ = at_log_scale(0.5 * np.log(s2), pct)
        shift = 0.5 * math.log(s2[0] / (2.0 * n) / (2.0 * n))
        lo, hi = _direct_quantiles(n, 0.95, K, self.B, seed=64 + n)
        assert stats.ks_2samp(q_lo, shift + lo).pvalue > 1e-3
        assert stats.ks_2samp(q_hi, shift + hi).pvalue > 1e-3

    def test_boot_t_is_gci_pivot_with_m_equal_k(self):
        _, stud = boot_offsets(8, 0.9, 3_000, 3, RngStream(65, 0).generator)
        gci = gci_offsets(8, 0.9, 3_000, 3, RngStream(65, 0).generator)
        for a, b in zip(stud, gci):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("level, m", [(0.001, 100), (0.999, 100), (0.95, 1), (0.95, 2)])
    def test_rank_edge_cases_in_law(self, level, m):
        # level 0.001 at m = 100 reads ranks 50 and 51 for both quantiles;
        # m = 1 clips the upper neighbour with weight 0
        n = 10
        lower, upper, _ = gci_offsets(n, level, m, self.B, RngStream(66, m).generator)
        lo, hi = _direct_quantiles(n, level, m, self.B, seed=67 + m)
        assert np.isfinite(lower).all() and (lower <= upper).all()
        assert stats.ks_2samp(lower, -hi).pvalue > 1e-3
        assert stats.ks_2samp(upper, -lo).pvalue > 1e-3

    def test_memory_does_not_grow_with_draws(self):
        def peak(draws: int) -> int:
            tracemalloc.start()
            try:
                gci_offsets(10, 0.95, draws, 256, RngStream(68, 0).generator)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(100_000) <= 1.25 * peak(1_000)


class TestChenShaoHpd:
    def test_equal_windows_take_first(self):
        grid = np.arange(1, 101) / 128.0
        lo, hi = el.chen_shao_hpd(grid, 0.9)
        assert (lo, hi) == (1 / 128.0, 91 / 128.0)

    def test_hundredths_grid(self):
        grid = np.arange(1, 101) * 0.01
        lo, hi = el.chen_shao_hpd(grid, 0.9)
        assert lo == pytest.approx(0.01, abs=1e-15)
        assert hi == pytest.approx(0.91, abs=1e-15)

    def test_standard_normal_draws(self):
        z = np.sort(np.random.default_rng(5).standard_normal(100_000))
        lo, hi = el.chen_shao_hpd(z, 0.95)
        assert lo == pytest.approx(-1.959964, abs=0.03)
        assert hi == pytest.approx(1.959964, abs=0.03)

    def test_skewed_hpd_shorter_than_equal_tail(self):
        draws = np.sort(np.log(np.random.default_rng(8).chisquare(4, 50_000)))
        lo, hi = el.chen_shao_hpd(draws, 0.95)
        eq_lo, eq_hi = np.quantile(draws, [0.025, 0.975])
        assert (hi - lo) < (eq_hi - eq_lo)

    def test_validation(self):
        with pytest.raises(DomainError):
            el.chen_shao_hpd(np.arange(50) / 50.0, 0.95)  # too few draws
        with pytest.raises(DomainError):
            el.chen_shao_hpd(np.linspace(1, 0, 200), 0.95)  # unsorted
        with pytest.raises(DomainError):
            el.chen_shao_hpd(np.linspace(0, 1, 200), 1.5)


class TestMcmc:
    def test_mh_step_targets_inverse_gamma(self):
        # the kernel-level validity oracle: a long thinned chain on the
        # standardized variance, target IG(n, 1)
        n = 10
        gen = RngStream(9, 0).generator
        u = np.array([1.0 / (n - 1)])
        log_u = np.log(u)
        prop_sd = np.array([2.4 / ((n - 1) * math.sqrt(n))])
        burn, keep, thin = 2_000, 10_000, 3
        draws = np.empty(keep)
        with np.errstate(invalid="ignore"):     # a nonpositive proposal's log
            for k in range(burn + keep * thin):
                _mh_update(u, log_u, n + 1.0, prop_sd, gen.standard_normal(1),
                           -np.log(gen.random(1)))
                if k >= burn and (k - burn) % thin == 0:
                    draws[(k - burn) // thin] = u[0]
        d = stats.kstest(draws, lambda x: stats.invgamma.cdf(x, a=n, scale=1.0)).statistic
        assert d < 0.025

    def test_hpd_contains_point_estimate(self, boeing_data):
        r = el.hpd_mcmc(boeing_data, 0.95, el.McmcConfig(N=8_000, N0=1_000, seed=3))
        assert r.lower <= 4.586479316769287 <= r.upper
        assert 0.05 <= r.diagnostics["acceptance_rate"] <= 0.7
        assert r.diagnostics["draws"] == 7_000
        assert r.diagnostics["ess"] > 100

    def test_posterior_concentration(self):
        # at large n the credible interval contracts to the delta-method
        # width 2 z_{0.975} / (2 sqrt(n))
        n = 1000
        rng = np.random.default_rng(30)
        data = el.TwoSampleData(rng.standard_normal(n), rng.standard_normal(n))
        r = el.hpd_mcmc(data, 0.95, el.McmcConfig(N=9_000, N0=2_000, seed=31))
        want = 2.0 * 1.959964 / (2.0 * math.sqrt(n))
        assert r.length == pytest.approx(want, rel=0.15)

    def test_hpd_coverage_band(self):
        cfg = el.CoverageConfig(n_grid=(10,), methods=("hpd",), outer_reps=2_000,
                                master_seed=41, mcmc_n=2_500, mcmc_burnin=500)
        cp = el.coverage_study(cfg).row("hpd", 10).cp
        assert 0.90 <= cp <= 0.97

    def test_burnin_extension_stability(self, boeing_data):
        r1 = el.hpd_mcmc(boeing_data, 0.95, el.McmcConfig(N=12_000, N0=2_000, seed=21))
        r2 = el.hpd_mcmc(boeing_data, 0.95, el.McmcConfig(N=14_000, N0=4_000, seed=22))
        # same post-burn-in draw count; endpoints agree within MC resolution
        assert r1.lower == pytest.approx(r2.lower, abs=0.1)
        assert r1.upper == pytest.approx(r2.upper, abs=0.1)

    def test_acceptance_warning_for_bad_proposal(self, boeing_data):
        with pytest.warns(RuntimeWarning, match=r"acceptance rate .* outside \[0.05, 0.7\]$"):
            r = el.hpd_mcmc(boeing_data, 0.95,
                            el.McmcConfig(N=3_000, N0=0, proposal_sd=1e6, seed=1))
        assert r.diagnostics.get("acceptance_warning")
        assert 0.0 < r.diagnostics["acceptance_rate"] < 0.05 and r.length > 0.0

    @pytest.mark.filterwarnings("error")
    def test_chain_that_never_moves_is_refused(self, boeing_data):
        # every proposal at sd 1e9 is refused: a one-point trace has no HPD
        with pytest.raises(NumericError, match="never moved"):
            el.hpd_mcmc(boeing_data, 0.95,
                        el.McmcConfig(N=3_000, N0=0, proposal_sd=1e9, seed=1))

    def test_config_validation(self, boeing_data):
        with pytest.raises(DomainError):
            el.McmcConfig(N=100, N0=200)
        for sd in (-1.0, math.nan, math.inf):
            with pytest.raises(DomainError):
                el.McmcConfig(N=5_000, N0=1_000, proposal_sd=sd)
        with pytest.raises(DomainError):
            # fewer than 1000 kept draws is rejected at run time
            el.hpd_mcmc(boeing_data, 0.95, el.McmcConfig(N=1_500, N0=1_000))

    def test_config_with_a_level_is_refused(self, boeing_data):
        # a level keeps only each chain's tails, and hpd_mcmc reads the whole
        # trace for its ESS
        with pytest.raises(DomainError, match="McmcConfig.level"):
            el.hpd_mcmc(boeing_data, 0.95, el.McmcConfig(level=0.95))


class TestEquivariance:
    @pytest.mark.parametrize("a,b", [(3.0, 0.0), (1.0, 11.0), (0.25, -4.0)])
    def test_all_methods_shift_by_log_scale(self, boeing_data, a, b):
        scaled = el.TwoSampleData(a * boeing_data.sample1 + b,
                                  a * boeing_data.sample2 + b)
        shift = math.log(a)
        st1, st2 = el.suff_stats(boeing_data), el.suff_stats(scaled)

        r1, r2 = el.aci(boeing_data, 0.95), el.aci(scaled, 0.95)
        assert r2.lower == pytest.approx(r1.lower + shift, abs=1e-12)
        assert r2.upper == pytest.approx(r1.upper + shift, abs=1e-12)

        g1 = el.gci_umvue(st1, 0.95, draws=4_000, seed=5)
        g2 = el.gci_umvue(st2, 0.95, draws=4_000, seed=5)
        assert g2.lower == pytest.approx(g1.lower + shift, abs=1e-12)

        cfg = el.BootConfig(K=1_000, seed=5)
        b1, b2 = el.boot_p(boeing_data, 0.95, cfg), el.boot_p(scaled, 0.95, cfg)
        assert b2.upper == pytest.approx(b1.upper + shift, abs=1e-12)

        m1 = el.hpd_mcmc(boeing_data, 0.95, el.McmcConfig(N=4_000, N0=1_000, seed=5))
        m2 = el.hpd_mcmc(scaled, 0.95, el.McmcConfig(N=4_000, N0=1_000, seed=5))
        assert m2.lower == pytest.approx(m1.lower + shift, abs=1e-12)
        assert m2.upper == pytest.approx(m1.upper + shift, abs=1e-12)

    def test_boot_shifts_by_log_scale_where_ss0_underflows(self, boeing_data):
        # boot reads only n and ln S, so data whose SS0 underflows (about
        # 1e-356 here) give the interval on the data, shifted by ln 2^-600
        tiny = el.TwoSampleData(np.ldexp(boeing_data.sample1, -600),
                                np.ldexp(boeing_data.sample2, -600))
        assert el.suff_stats(tiny).s2 == 0.0
        cfg, shift = el.BootConfig(K=1_000, seed=5), -600.0 * math.log(2.0)
        for method in (el.boot_t, el.boot_p):
            r1, r2 = method(boeing_data, 0.95, cfg), method(tiny, 0.95, cfg)
            assert r2.lower == pytest.approx(r1.lower + shift, abs=1e-12)
            assert r2.upper == pytest.approx(r1.upper + shift, abs=1e-12)

    @pytest.mark.parametrize("k", [200, -200])
    @pytest.mark.parametrize("B, sd", [(1, None), (1, 0.5), (12, None), (12, 0.5)])
    def test_chain_shifts_by_log_scale(self, B, sd, k):
        # the chain steps u = sigma^2 / (SS0/2) and keeps draws of ln(u)/2,
        # so SS0 scaled by 4^k, and a proposal sd in sigma^2 units with it,
        # takes the same steps and keeps the same draws bit for bit
        n = 10 if B == 1 else np.repeat([3, 10, 40], 4)
        ss0, scale, zeros = np.linspace(5.0, 40.0, B), 4.0 ** k, np.zeros(B)
        runs = [run_variance_chains(zeros, zeros, ss0 * c, zeros, n,
                                    el.McmcConfig(N=1_400, N0=400,
                                                  proposal_sd=None if sd is None else sd * c),
                                    RngStream(4, 1).generator)
                for c in (1.0, scale)]
        (t1, a1, s1), (t2, a2, s2) = runs
        np.testing.assert_array_equal(a2, a1)
        np.testing.assert_array_equal(s2, s1 * scale)
        np.testing.assert_array_equal(t2, t1)


class TestOffsets:
    """Each kernel returns data-free offsets (a, b, length), and ln S plus
    them is the interval."""

    @pytest.mark.parametrize("n, level", [(2, 0.5), (6, 0.95), (40, 0.9)])
    def test_aci_offsets_are_exact(self, n, level):
        lower, upper, length = aci_offsets(n, level)
        h = stats.norm.ppf(0.5 * (1.0 + level)) / (2.0 * math.sqrt(n))
        assert 0.5 * length == pytest.approx(h, rel=1e-15)
        center = -0.5 * math.log(2.0 * n)
        assert (lower, upper) == (center - 0.5 * length, center + 0.5 * length)

    def test_aci_half_width_over_the_level_range(self):
        # z at p = (1 + level)/2 over the levels aci reads, and near 1, where
        # 1 - p is exact and the quantile keeps its digits; n = 4 makes the
        # scaling by 2 sqrt(n) exact
        levels = np.concatenate([np.linspace(0.0, 0.999, 2001), [1.0 - 6.4e-14, 1.0 - 2e-8]])
        z = np.array([aci_offsets(4, float(v))[2] * 2.0 for v in levels])
        assert np.abs(z - stats.norm.ppf(0.5 * (1.0 + levels))).max() <= 2e-15

    def test_aci_offsets_refuse_a_level_whose_p_rounds_to_one(self):
        # (1 + level)/2 rounds to 1 from level = 1 - 2^-53; one ulp below, z is finite
        with pytest.raises(DomainError, match="below 1"):
            aci_offsets(6, 0.9999999999999999)
        assert all(map(math.isfinite, aci_offsets(6, 0.9999999999999998)))

    @pytest.mark.parametrize("level", [0.95, 0.9])
    @pytest.mark.parametrize("scale", [1.0, 1e-100, 1e100])
    def test_offsets_plus_log_s_give_the_single_dataset_interval(self, boeing_data, level,
                                                                 scale):
        data = el.TwoSampleData(scale * boeing_data.sample1, scale * boeing_data.sample2)
        st = el.suff_stats(data)
        lns = 0.5 * math.log(st.s2)      # ln S as the coverage study forms it

        def check(result, offsets):
            got = (float(np.ravel(v)[0]) for v in at_log_scale(lns, offsets))
            for g, want in zip(got, (result.lower, result.upper, result.length)):
                assert g == pytest.approx(want, rel=1e-12, abs=1e-12)

        check(el.aci(data, level), aci_offsets(st.n, level))
        check(el.gci_umvue(st, level, draws=4_000, seed=3),
              gci_offsets(st.n, level, 4_000, 1, RngStream(3, 0).generator))
        pct, stud = boot_offsets(st.n, level, 1_000, 1, RngStream(4, 0).generator)
        boot = el.BootConfig(K=1_000, seed=4)
        check(el.boot_p(data, level, boot), pct)
        check(el.boot_t(data, level, boot), stud)
        # the chain run for an interval keeps only the tails the window reads
        tails, _, _ = run_variance_chains(
            np.zeros(1), np.zeros(1), np.array([st.s2]), np.zeros(1), st.n,
            el.McmcConfig(N=4_000, N0=1_000, level=level), RngStream(5, 0).generator)
        check(el.hpd_mcmc(data, level, el.McmcConfig(N=4_000, N0=1_000, seed=5)),
              hpd_offsets(*_shortest_window(*tails)))


class TestLockstepChains:
    @pytest.mark.parametrize("n", [6, 20])
    def test_chain_targets_exact_marginal_posterior(self, n):
        # sigma^2 | data ~ IG(n - 1, SS0/2), so a chain's draw of ln(u)/2,
        # u = sigma^2 / (SS0/2), is -ln(G)/2 with G ~ Gamma(n - 1); the final
        # states of many independent short chains must follow that law
        B, ss1, ss2 = 20_000, 0.6 * n, 1.1 * n
        cfg = el.McmcConfig(N=600, N0=500)
        theta, _, _ = run_variance_chains(
            np.zeros(B), np.zeros(B), np.full(B, ss1), np.full(B, ss2), n, cfg,
            RngStream(71, n).generator)
        p = stats.kstest(theta[-1],
                         lambda t: stats.gamma.sf(np.exp(-2.0 * t), n - 1)).pvalue
        assert p > 1e-3

    def test_single_chain_matches_batch_layout(self):
        # the chain runner is shared by the single-data and coverage paths;
        # shapes and acceptance bookkeeping must line up
        gen = RngStream(3, 0).generator
        cfg = el.McmcConfig(N=2_000, N0=500, seed=0)
        theta, acc, sd = run_variance_chains(
            np.array([0.0, 1.0]), np.array([0.5, 1.5]),
            np.array([8.0, 9.0]), np.array([7.0, 11.0]), 6, cfg, gen)
        assert theta.shape == (1_500, 2)
        assert acc.shape == (2,) and sd.shape == (2,)
        assert np.isfinite(theta).all()


class TestTailFold:
    """A chain run at a level keeps only the tails of its draws that the
    Chen–Shao window reads, through a bounded buffer that is sorted and cut
    back whenever it fills."""

    @staticmethod
    def _chains(M, level, seed):
        # mixed n in one lockstep group, as the coverage study groups blocks
        n = np.repeat([3, 10, 40], 4)
        ss = 0.8 * (2 * n - 2.0)
        cfg = el.McmcConfig(N=M + 150, N0=150, level=level)
        return run_variance_chains(np.zeros(12), np.zeros(12), ss, 0.3 * ss, n, cfg,
                                   RngStream(seed, 0).generator)

    @pytest.mark.parametrize("level", [0.5, 0.95, 0.99])
    @pytest.mark.parametrize("M, fold", [(100, 1), (1_000, 1), (1_000, 7), (1_003, 64),
                                         (2_500, 300), (2_500, 10**6)])
    def test_tails_give_the_full_trace_window(self, monkeypatch, M, fold, level):
        theta, acc, sd = self._chains(M, None, M + fold)
        full = np.sort(theta, axis=0)
        lower, upper = el.chen_shao_hpd(full, level)
        monkeypatch.setattr(intervals, "FOLD_DRAWS", fold)
        (lowest, highest), acc_t, sd_t = self._chains(M, level, M + fold)
        r = M - math.floor(level * M)
        assert lowest.shape == highest.shape == (r, 12)
        np.testing.assert_array_equal(lowest, full[:r])
        np.testing.assert_array_equal(highest, full[-r:])
        lo_t, hi_t = _shortest_window(lowest, highest)
        np.testing.assert_array_equal(lo_t, lower)
        np.testing.assert_array_equal(hi_t, upper)
        np.testing.assert_array_equal(acc_t, acc)
        np.testing.assert_array_equal(sd_t, sd)

    def test_group_peak_is_bounded_by_the_fold_buffer(self):
        # 256 chains at M = 8,000: the full trace would be M * B * 8 bytes,
        # the level-0.95 buffer (2r + FOLD_DRAWS) * B * 8 with r = 400
        B, M = 256, 8_000
        ss = np.full(B, 18.0)
        cfg = el.McmcConfig(N=M + 100, N0=100, level=0.95)
        args = (np.zeros(B), np.zeros(B), ss, ss, 10)
        run_variance_chains(*args, el.McmcConfig(N=200, N0=50, level=0.5),
                            RngStream(1, 0).generator)
        tracemalloc.start()
        try:
            run_variance_chains(*args, cfg, RngStream(2, 0).generator)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * M * B * 8

    def test_level_needs_a_window(self):
        with pytest.raises(DomainError):
            el.McmcConfig(N=150, N0=100, level=0.95)      # 50 draws
        for bad in (0.0, 1.0, 1.2):
            with pytest.raises(DomainError):
                el.McmcConfig(level=bad)


class TestStepKernel:
    """The chain's step, run on the carried (u, ln u) with a NaN or +inf
    bound rejecting bad proposals, against the step as first written: a
    valid mask, a safe copy, two logs a step and np.where, on the same
    draws, on the standardized variance u = sigma^2 / (SS0/2), keeping
    draws of ln(u)/2.  The two must agree bit for bit."""

    @staticmethod
    def _reference(ss0, n, cfg, gen):
        B = len(ss0)
        half_ss0 = 0.5 * ss0
        u = np.ones(B) / (n - 1)
        if cfg.proposal_sd is None:
            prop_sd = 2.4 / ((n - 1) * np.sqrt(n)) * np.ones(B)
            sd = prop_sd * half_ss0
        else:
            sd = np.full(B, float(cfg.proposal_sd))
            prop_sd = sd / half_ss0
        window, M, scale = min(cfg.N0, 500), cfg.N - cfg.N0, 1.0
        win_accept, accepted = np.zeros(B, dtype=np.int64), np.zeros(B, dtype=np.int64)
        trace = np.empty((M, B))
        with np.errstate(over="ignore"):
            for k in range(1, cfg.N + 1):
                z_prop = gen.standard_normal(B)
                logu = -gen.standard_exponential(B)
                prop = u + prop_sd * z_prop
                valid = prop > 0.0
                safe = np.where(valid, prop, 1.0)
                logr = (-((n - 1) + 1.0) * (np.log(safe) - np.log(u))
                        - (1.0 / safe - 1.0 / u))
                accept = valid & (logu <= logr)
                u = np.where(accept, prop, u)
                if k <= window:
                    win_accept += accept
                    if k == window and window >= 50:
                        scale = np.clip(win_accept / window / 0.40, 0.2, 5.0)
                        prop_sd = prop_sd * scale
                if k > cfg.N0:
                    trace[k - cfg.N0 - 1] = 0.5 * np.log(u)
                    accepted += accept
        return trace, accepted / M, sd * scale

    @staticmethod
    def _case(name):
        if name == "one chain":
            return np.array([19.0]), 10
        if name == "mixed batch":
            n = np.repeat([3, 10, 40], 4)
            return 1.3 * 0.8 * (2 * n - 2.0) * np.linspace(0.5, 2.0, 12), n
        # three-value samples scaled by 1e-153: SS0/2 sits a few hundred times
        # above the normal floor, and a sd in sigma^2 units is near 1e306
        # times its value in u units
        st = el.suff_stats(el.TwoSampleData(np.array([1.0, 2.0, 3.0]) * 1e-153,
                                            np.array([1.5, 2.5, 4.0]) * 1e-153))
        return np.array([st.s2]), st.n

    @pytest.mark.parametrize("sd_factor", [None, 50.0])
    @pytest.mark.parametrize("name", ["one chain", "mixed batch", "near the 1/beta floor"])
    def test_chain_step_matches_the_masked_step(self, name, sd_factor):
        ss0, n = self._case(name)
        B = len(ss0)
        level = 0.95 if B > 1 else None
        sd = None
        if sd_factor is not None:
            # 50 times the default scale: most proposals are nonpositive
            sd = sd_factor * float(np.max(2.4 * (0.5 * ss0) / ((n - 1) * np.sqrt(n))))
        cfg = el.McmcConfig(N=3_150, N0=150 if B > 1 else 600, proposal_sd=sd, level=level)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            trace, acc, prop_sd = self._reference(ss0, n, cfg, RngStream(17, 3).generator)
            got, got_acc, got_sd = run_variance_chains(np.zeros(B), np.zeros(B), ss0,
                                                       np.zeros(B), n, cfg,
                                                       RngStream(17, 3).generator)
        if level is None:
            np.testing.assert_array_equal(got, trace)
        else:
            full = np.sort(trace, axis=0)
            r = len(trace) - math.floor(level * len(trace))
            np.testing.assert_array_equal(got[0], full[:r])
            np.testing.assert_array_equal(got[1], full[-r:])
        np.testing.assert_array_equal(got_acc, acc)
        np.testing.assert_array_equal(got_sd, prop_sd)
        if sd_factor is not None:
            assert (acc < 0.1).all()
        else:
            assert (acc > 0.1).all()


class TestOneChain:
    """A batch of one chain with no level steps on Python floats, and with
    a level runs the lockstep kernel.  Against the kernel's steps,
    ``_mh_update`` on 1-element arrays with size-1 draws into buffers,
    driven from the same stream, its trace (or tails), acceptance and
    proposal sd must agree bit for bit."""

    @staticmethod
    def _reference(ss0, n, cfg, gen):
        half_ss0 = 0.5 * ss0
        u = np.ones(1) / (n - 1)
        if cfg.proposal_sd is None:
            prop_sd = 2.4 / ((n - 1) * np.sqrt(n)) * np.ones(1)
            sd = prop_sd * half_ss0
        else:
            sd = np.full(1, float(cfg.proposal_sd))
            prop_sd = sd / half_ss0
        log_u, shape1 = np.log(u), (n - 1) + 1.0
        window, M, scale = min(cfg.N0, 500), cfg.N - cfg.N0, 1.0
        win_accept, accepted = np.zeros(1, dtype=np.int64), np.zeros(1, dtype=np.int64)
        z, e = np.empty(1), np.empty(1)
        trace = np.empty((M, 1))
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            for k in range(1, cfg.N + 1):
                gen.standard_normal(out=z)
                gen.standard_exponential(out=e)
                accept = intervals._mh_update(u, log_u, shape1, prop_sd, z, e)
                if k <= window:
                    win_accept += accept
                    if k == window and window >= 50:
                        scale = np.clip(win_accept / window / 0.40, 0.2, 5.0)
                        prop_sd = prop_sd * scale
                if k > cfg.N0:
                    np.multiply(log_u, 0.5, out=trace[k - cfg.N0 - 1])
                    accepted += accept
        if cfg.level is not None:
            trace.sort(axis=0)
            r = M - math.floor(cfg.level * M)
            trace = (trace[:r], trace[M - r:])
        return trace, accepted / M, sd * scale

    @staticmethod
    def _stats(data):
        if data == "boeing":
            return el.suff_stats(boeing())
        # three-value samples: at 1e-153 SS0/2 sits a few hundred times above
        # the normal floor, and a sd in sigma^2 units is near 1e306 times its
        # value in u units; n = 3, so u ~ IG(2, 1) often sits near 1, where
        # math.log and numpy's log often differ in the last bit
        scale = float(data)
        return el.suff_stats(el.TwoSampleData(np.array([1.0, 2.0, 3.0]) * scale,
                                              np.array([1.5, 2.5, 4.0]) * scale))

    @pytest.mark.parametrize("level", [None, 0.95, 0.5])
    @pytest.mark.parametrize("data, sd", [("boeing", None), ("boeing", 50.0), ("boeing", 1e6),
                                          ("1e-153", None), ("1e-153", 50.0), ("1", None)])
    def test_float_steps_match_the_kernel(self, monkeypatch, data, sd, level):
        if level is not None:
            def refuse(*args):
                raise AssertionError("a chain run at a level stepped on floats")
            monkeypatch.setattr(intervals, "_one_chain", refuse)
        st = self._stats(data)
        ss0 = np.array([st.s2])
        default_sd = 2.4 * (0.5 * st.s2) / ((st.n - 1) * math.sqrt(st.n))
        if sd == 50.0:
            sd *= default_sd       # 50 times the default: most proposals are nonpositive
        for seed in (3, 11):
            # with adaptation at step 400, and without (N0 < 50)
            for N, N0 in ((1_400, 400), (1_200, 40)):
                cfg = el.McmcConfig(N=N, N0=N0, proposal_sd=sd, level=level)
                for n in (st.n, np.array([st.n])):
                    with warnings.catch_warnings():
                        warnings.simplefilter("error")
                        want, acc, prop_sd = self._reference(ss0, n, cfg,
                                                             RngStream(seed, 1).generator)
                        got, got_acc, got_sd = run_variance_chains(
                            np.zeros(1), np.zeros(1), ss0, np.zeros(1), n, cfg,
                            RngStream(seed, 1).generator)
                    if level is None:
                        np.testing.assert_array_equal(got, want)
                    else:
                        np.testing.assert_array_equal(got[0], want[0])
                        np.testing.assert_array_equal(got[1], want[1])
                    np.testing.assert_array_equal(got_acc, acc)
                    np.testing.assert_array_equal(got_sd, prop_sd)
                    assert (acc < 0.1).all() if sd is not None else (acc > 0.1).all()

    def test_draws_through_the_generators_attributes(self):
        """A forwarding generator, as a tracer would wrap it, sees every
        draw: one normal, then one exponential, per step."""

        class Forwarding:
            def __init__(self, gen):
                self._gen, self.calls = gen, []

            def __getattr__(self, name):
                attr = getattr(self._gen, name)

                def draw(*args, **kwargs):
                    out = attr(*args, **kwargs)
                    self.calls.append((name, int(np.size(out))))
                    return out

                setattr(self, name, draw)
                return draw

        cfg = el.McmcConfig(N=1_500, N0=300)
        args = (np.zeros(1), np.zeros(1), np.array([19.0]), np.zeros(1), 10, cfg)
        gen = Forwarding(RngStream(5, 0).generator)
        got = run_variance_chains(*args, gen)
        assert gen.calls == [("standard_normal", 1), ("standard_exponential", 1)] * cfg.N
        bare = run_variance_chains(*args, RngStream(5, 0).generator)
        for a, b in zip(got, bare):
            np.testing.assert_array_equal(a, b)
