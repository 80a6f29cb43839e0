"""Point estimators, the smooth shrinkage solver and its floor r0 on a
grid, conditional medians, and the Pitman clip."""

import math
import warnings

import numpy as np
import pytest
from scipy import integrate, special, stats

import entropy_lab as el
from entropy_lab import estimators
from entropy_lab.errors import DomainError
from entropy_lab.estimators import (
    _TABLE_CACHE,
    WTerms,
    bz_table,
    resolve_estimator,
)
from entropy_lab.model import SuffStats
from entropy_lab.numerics import quadrature
from references import bz_r0_defining, conditional_median, window_mass_ratio

# frozen from the verified closed forms / defining equations
BOEING_LNS = 5.8289326416632868
BOEING_BAEE_L1 = 4.729300217167414
BOEING_STEIN_L1 = 4.685508273872992
BOEING_BZ_L1 = 4.679647725457768
BOEING_MLE = 4.586479316769287
BOEING_RMLE_SWAPPED = 4.595175113549841
BOEING_R0_L1 = -1.1492849148052735
BOEING_R0_LINEXM3 = -1.0657465683944947


def median_ln_v_eta0(w, n):
    # the conditional law of V given W = w at eta = 0 is
    # Gamma((2n-1)/2, scale 2/(1 + n w^2/2)): a chi-square(2n - 1) median, scaled
    return math.log(float(stats.chi2.ppf(0.5, 2 * n - 1))) - math.log1p(0.5 * n * w * w)


def unit_scale_stats(n=6, w=0.0):
    # s = 1 so ln s = 0 and the estimate equals its additive term
    return SuffStats(n=n, mean1=0.0, mean2=w, s2=1.0, s=1.0, w=w)


class TestBaseline:
    def test_baee_boeing_l1(self, boeing_stats, l1):
        assert el.estimate("baee", boeing_stats, l1) == pytest.approx(BOEING_BAEE_L1, abs=1e-9)
        assert el.estimate("baee", boeing_stats, l1) == pytest.approx(4.7293, abs=5e-4)

    @pytest.mark.parametrize("a1,table_value", [(-3.0, 4.8233), (-2.0, 4.7892),
                                                (2.0, 4.6776), (4.0, 4.6321)])
    def test_baee_boeing_linex_table(self, boeing_stats, a1, table_value):
        assert el.estimate("baee", boeing_stats, el.Loss.linex(a1)) == pytest.approx(
            table_value, abs=5e-4)

    def test_baee_unit_scale_is_d0(self, l1):
        assert el.estimate("baee", unit_scale_stats(), l1) == pytest.approx(
            el.d0(l1, 6), abs=1e-14)

    def test_umvue_equals_baee_under_l1(self, l1):
        rng = np.random.default_rng(0)
        for _ in range(5):
            data = el.TwoSampleData(rng.normal(0, 2, 7), rng.normal(1, 2, 7))
            st = el.suff_stats(data)
            assert el.estimate("umvue", st, l1) == el.estimate("baee", st, l1)


class TestMleFamily:
    def test_mle_boeing(self, boeing_stats, l1):
        assert el.estimate("mle", boeing_stats, l1) == pytest.approx(BOEING_MLE, abs=1e-9)

    def test_rmle_equals_mle_for_positive_w(self, boeing_stats, l1):
        assert el.estimate("rmle", boeing_stats, l1) == el.estimate("mle", boeing_stats, l1)

    def test_rmle_swapped(self, boeing_data, l1):
        swapped = el.TwoSampleData(boeing_data.sample2, boeing_data.sample1)
        st = el.suff_stats(swapped)
        assert st.w < 0
        assert el.estimate("rmle", st, l1) == pytest.approx(BOEING_RMLE_SWAPPED, abs=1e-9)
        # explicit arithmetic: + ln(1 + 3 w^2)/2 at n = 6
        assert el.estimate("rmle", st, l1) == pytest.approx(
            el.estimate("mle", st, l1) + 0.5 * math.log1p(3.0 * st.w ** 2), abs=1e-12)

    def test_rmle_continuous_at_zero(self, l1):
        st = unit_scale_stats(w=0.0)
        assert el.estimate("rmle", st, l1) == el.estimate("mle", st, l1)

    @pytest.mark.parametrize("name", ["rmle", "improved_rmle"])
    def test_rmle_at_huge_positive_w(self, name, l1):
        # n W^2 / 2 overflows, so T(W) is inf; for W > 0 the restricted term
        # is 0, not inf * 0, and no RuntimeWarning is raised
        st = el.suff_stats(el.TwoSampleData([0.0, 1e-150], [1e10, 1e10]))
        assert st.w > 1e150
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = el.estimate(name, st, l1)
        assert got == el.estimate("mle", st, l1) == math.log(st.s) - 0.5 * math.log(4.0)


class TestSteinFamily:
    def test_stein_boeing_l1(self, boeing_stats, l1):
        assert el.estimate("stein", boeing_stats, l1) == pytest.approx(BOEING_STEIN_L1, abs=1e-9)
        assert el.estimate("stein", boeing_stats, l1) == pytest.approx(4.6855, abs=5e-4)

    def test_stein_at_w_zero_is_baee(self, l1):
        st = unit_scale_stats(w=0.0)
        assert el.estimate("stein", st, l1) == el.estimate("baee", st, l1)

    def test_stein_saturates_for_large_w(self, l1):
        st = unit_scale_stats(w=50.0)
        assert el.estimate("stein", st, l1) == el.estimate("baee", st, l1)

    def test_improved_mle_boeing(self, boeing_stats, l1):
        # threshold does not bind here, MLE retained
        assert el.estimate("improved_mle", boeing_stats, l1) == pytest.approx(BOEING_MLE, abs=1e-9)

    def test_improved_mle_at_zero(self, l1):
        st = unit_scale_stats(w=0.0)
        assert el.estimate("improved_mle", st, l1) == el.estimate("mle", st, l1)

    def test_improved_rmle_swapped(self, boeing_data, l1):
        swapped = el.TwoSampleData(boeing_data.sample2, boeing_data.sample1)
        st = el.suff_stats(swapped)
        assert el.estimate("improved_rmle", st, l1) == pytest.approx(BOEING_STEIN_L1, abs=1e-9)

    def test_improved_rmle_takes_larger_arm_for_negative_w(self, l1):
        # for w < 0 the improvement replaces the restricted term by the
        # conditional target whenever that target is larger
        st = unit_scale_stats(w=-0.9)
        t = 0.5 * math.log1p(0.5 * 6 * 0.81)
        want = max(-0.5 * math.log(12.0) + t, el.m0(l1, 6) + t)
        assert el.estimate("improved_rmle", st, l1) == pytest.approx(want, abs=1e-14)
        assert el.estimate("improved_rmle", st, l1) >= el.estimate("rmle", st, l1)

    # improved_rmle binds improved_mle's rule and constants exactly where
    # m0 >= c = -ln(2n)/2, the mle shift: under squared error and linex with
    # a1 <= 4, but not at a1 = 4.25 or 8, where m0 < c at every n here
    SHARE_N = (*range(3, 60), 100, 500, 1000)

    @pytest.mark.parametrize("loss", [el.Loss.squared_error(), el.Loss.linex(-3.0),
                                      el.Loss.linex(2.0), el.Loss.linex(4.0)],
                             ids=["l1", "linex-3", "linex2", "linex4"])
    def test_improved_rmle_shares_the_row_where_m0_is_not_below_c(self, loss):
        for n in self.SHARE_N:
            assert el.m0(loss, n) >= -0.5 * math.log(2.0 * n)
            rmle, mle = (resolve_estimator(e, n, loss)[1]
                         for e in ("improved_rmle", "improved_mle"))
            assert (rmle.func, rmle.keywords) == (mle.func, mle.keywords)
            assert estimators.rule_identity("improved_rmle", n, loss) == \
                estimators.rule_identity("improved_mle", n, loss)

    @pytest.mark.parametrize("a1", [4.25, 8.0])
    def test_improved_rmle_keeps_its_row_where_m0_is_below_c(self, a1):
        loss = el.Loss.linex(a1)
        for n in self.SHARE_N:
            assert el.m0(loss, n) < -0.5 * math.log(2.0 * n)
            rmle, mle = (resolve_estimator(e, n, loss)[1]
                         for e in ("improved_rmle", "improved_mle"))
            assert rmle.func is not mle.func
            assert estimators.rule_identity("improved_rmle", n, loss) != \
                estimators.rule_identity("improved_mle", n, loss)
        res = el.simulate_risk(el.SimConfig(
            n=3, eta_grid=(0.0, 1.0), loss=loss, replications=2_000, master_seed=3,
            estimators=("improved_mle", "improved_rmle"), baseline="improved_mle"))
        for eta in (0.0, 1.0):
            rmle, mle = res.cell("improved_rmle", eta), res.cell("improved_mle", eta)
            assert rmle.risk != mle.risk and rmle.bias != mle.bias and rmle.diff_stderr > 0


class TestSmoothShrinkageSolver:
    def test_limit_at_zero(self, l1, linex_m3):
        for loss in (l1, linex_m3):
            assert el.bz_r0(0.0, 6, loss) == el.m0(loss, 6)
            assert el.bz_r0(1e-6, 6, loss) == pytest.approx(el.m0(loss, 6), abs=1e-6)

    def test_limit_at_infinity(self, l1, linex_m3):
        for loss in (l1, linex_m3):
            assert el.bz_r0(1e3, 6, loss) == pytest.approx(el.d0(loss, 6), abs=1e-4)

    def test_boeing_values(self, l1, linex_m3):
        assert el.bz_r0(0.0764716, 6, l1) == pytest.approx(BOEING_R0_L1, abs=1e-10)
        assert el.bz_r0(0.0764716, 6, linex_m3) == pytest.approx(BOEING_R0_LINEXM3, abs=1e-10)

    def test_matches_defining_equation(self, l1, linex_m3):
        for loss in (l1, linex_m3):
            for absw in (0.0764716, 0.4, 1.3):
                assert el.bz_r0(absw, 6, loss) == pytest.approx(
                    bz_r0_defining(absw, 6, loss), abs=1e-8)

    def test_sandwich_and_monotone(self, l1):
        lo, hi = el.m0(l1, 6), el.d0(l1, 6)
        grid = np.geomspace(1e-3, 30.0, 50)
        vals = [el.bz_r0(float(w), 6, l1) for w in grid]
        assert all(lo <= v <= hi for v in vals)
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_brewster_zidek_boeing(self, boeing_stats, l1):
        assert el.estimate("bz", boeing_stats, l1) == pytest.approx(BOEING_BZ_L1, abs=1e-8)
        assert el.estimate("bz", boeing_stats, l1) <= el.estimate("baee", boeing_stats, l1)

    def test_brewster_zidek_at_zero(self, l1):
        st = unit_scale_stats(w=0.0)
        assert el.estimate("bz", st, l1) == pytest.approx(el.m0(l1, 6), abs=1e-14)

    def test_negative_absw_rejected(self, l1):
        with pytest.raises(DomainError):
            el.bz_r0(-0.1, 6, l1)

    def test_table_accuracy_and_export(self, l1):
        tab = bz_table(6, l1)
        for w in (0.0, 0.05, 0.3, 1.0, 4.0):
            assert float(tab(np.array(w))) == pytest.approx(el.bz_r0(w, 6, l1), abs=2e-6)


def _r0_oracle(absw, n, loss):
    """r0 from kernel integrals by scipy quad under a purely relative
    tolerance, with scipy's digamma and log-gamma."""
    y = n * absw * absw

    def J(a, k):
        f = lambda u: 2.0 * (2.0 + u * u) ** (-a) * math.log(2.0 + u * u) ** k
        val, _ = integrate.quad(f, 0.0, math.sqrt(y), epsabs=0.0, epsrel=1e-13, limit=200)
        return val

    a = n - 0.5
    if loss.kind == "squared_error":
        return -0.5 * (special.digamma(a) + math.log(4.0) - J(a, 1) / J(a, 0))
    a1 = loss.a1
    a_shift = a + 0.5 * a1
    return (special.gammaln(a) + math.log(J(a, 0)) - 0.5 * a1 * math.log(4.0)
            - special.gammaln(a_shift) - math.log(J(a_shift, 0))) / a1


TABLE_LOSSES = [el.Loss.squared_error(), el.Loss.linex(-3.0), el.Loss.linex(1.0)]


class TestBzTable:
    @pytest.mark.parametrize("n", [21, 26, 40])
    def test_bz_r0_against_relative_tolerance_oracle(self, n):
        # an absolute tolerance on J ~ 2^-a loses digits once n is large
        for loss in TABLE_LOSSES:
            for y in (0.3, 3.0, 30.0, 50.0, 100.0, 1000.0):
                absw = math.sqrt(y / n)
                assert el.bz_r0(absw, n, loss) == pytest.approx(
                    _r0_oracle(absw, n, loss), abs=1e-12), (loss, y)

    # linex(-3) r0 needs n >= 3
    @pytest.mark.parametrize("n,loss", [(n, loss) for n in (2, 6, 8, 15, 26)
                                        for loss in TABLE_LOSSES if n >= 3 or loss.a1 != -3.0])
    def test_every_node_equals_bz_r0(self, n, loss):
        tab = bz_table(n, loss)
        want = [el.bz_r0(w, n, loss) for w in tab.absw_grid]
        np.testing.assert_allclose(tab(tab.absw_grid), want, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("n", [8, 26])
    def test_nodes_match_defining_equation(self, n, l1, linex_m3):
        for loss in (l1, linex_m3):
            tab = bz_table(n, loss)
            for i in (40, 300, 560):
                w = float(tab.absw_grid[i])
                assert float(tab(np.array(w))) == pytest.approx(
                    bz_r0_defining(w, n, loss), abs=1e-7)

    def test_midpoint_interpolation_error(self, l1, linex_m3):
        n = 26
        for loss in (l1, linex_m3):
            tab = bz_table(n, loss)
            y = np.square(tab.absw_grid) * n
            mid = np.sqrt(np.expm1(0.5 * (np.log1p(y[:-1]) + np.log1p(y[1:]))) / n)
            exact = np.array([el.bz_r0(w, n, loss) for w in mid])
            assert np.max(np.abs(tab(mid) - exact)) <= 1e-5

    @pytest.mark.parametrize("n,loss", [(2, el.Loss.squared_error()), (8, el.Loss.linex(-3.0)),
                                        (26, el.Loss.linex(1.0))])
    def test_lookup_is_np_interp_bit_for_bit(self, n, loss):
        tab = bz_table(n, loss)
        xp, fp = np.linspace(0.0, math.log1p(1600.0), 800), tab._vals
        assert np.array_equal(tab._x[:-1], xp)
        rng = np.random.default_rng(n)
        # the nodes, each node 1 ulp either side, random points, and past the cap
        x = np.concatenate([xp, np.nextafter(xp, np.inf), np.nextafter(xp, -np.inf)[1:],
                            rng.uniform(0.0, xp[-1], 100_000), xp[-1] + np.array([1e-9, 1.0, 1e3])])
        assert np.array_equal(tab.at_x(x), np.interp(x, xp, fp))
        w = np.concatenate([[0.0, -0.0, 1e3, -1e6], rng.normal(0.0, 1.0, 100_000)])
        assert np.array_equal(tab(w), np.interp(np.log1p(n * np.square(w)), xp, fp))
        assert np.array_equal(tab(-w), tab(w))
        assert tab(0.0) == fp[0] and tab(1e6) == fp[-1]
        one = tab(np.array(0.3))
        assert np.ndim(one) == 0
        assert one == np.interp(np.log1p(n * 0.09), xp, fp)
        assert np.isnan(tab.at_x(np.array([np.nan]))).all()

    @pytest.mark.parametrize("n", [2, 8, 26])
    @pytest.mark.parametrize("loss", [el.Loss.squared_error(), el.Loss.linex(-1.0)],
                             ids=["l1", "linex-1"])
    def test_fast_bracket_and_fallback_are_np_interp(self, monkeypatch, n, loss):
        # the nodes, each node 1 ulp either side, the cap and NaN: a lookup
        # takes the fallback bracket at some of them and the fast one at the
        # rest, and each gives np.interp's bits
        tab = bz_table(n, loss)
        xp, fp = tab._x[:-1], tab._vals
        x = np.concatenate([xp, np.nextafter(xp, np.inf), np.nextafter(xp, -np.inf)[1:],
                            [tab._x_max, np.nan]])
        bracket, taken = estimators.BzTable._bracket, []

        def counted(self, x, j, dx, k):
            taken.append(k.copy())
            return bracket(self, x, j, dx, k)

        monkeypatch.setattr(estimators.BzTable, "_bracket", counted)
        got = tab.at_x(x)
        (k,) = taken
        slow = np.zeros(len(x), dtype=bool)
        slow[k] = True
        # NaN and some points 1 ulp below a node take the fallback; every
        # node, every point 1 ulp above one and the cap take the fast path
        assert slow[-1] and 0 < slow[len(xp):-1].sum() and not slow[:2 * len(xp)].any()
        assert not slow[-2]
        want = np.interp(x, xp, fp)
        for part in (slow, ~slow):
            assert got[part].tobytes() == want[part].tobytes()
            assert tab.at_x(x[part]).tobytes() == want[part].tobytes()

    def test_lookup_is_np_interp_for_rough_node_values(self, l1, monkeypatch):
        # r0 varies so slowly that a lookup one node off rounds to the same
        # value; on rough values only the correct node gives np.interp's bits
        rng = np.random.default_rng(5)
        monkeypatch.setattr(estimators, "_r0_on_nodes",
                            lambda n, loss, u: rng.normal(0.0, 1.0, len(u) - 1))
        tab = estimators.BzTable(8, l1)
        xp = np.linspace(0.0, math.log1p(1600.0), 800)
        x = np.concatenate([xp, np.nextafter(xp, np.inf), np.nextafter(xp, -np.inf)[1:]])
        assert np.array_equal(tab.at_x(x), np.interp(x, xp, tab._vals))

    def test_build_runs_no_adaptive_quadrature(self, l1, monkeypatch):
        calls = []
        adaptive_quad = quadrature.adaptive_quad

        def counting(*args, **kwargs):
            calls.append(args[1:3])
            return adaptive_quad(*args, **kwargs)

        monkeypatch.setattr(quadrature, "adaptive_quad", counting)
        estimators.BzTable(8, l1)
        assert calls == []


class TestIerdChecker:
    """The smooth-shrinkage floor r0 on a grid of y = n w^2: the bound that
    the paper's sufficient condition for improving on baee puts under a
    rule phi(y), and the nodes of every BzTable."""

    @pytest.mark.parametrize("n", [3, 6, 26])
    @pytest.mark.parametrize("loss", [el.Loss.squared_error(), el.Loss.linex(-3.0),
                                      el.Loss.linex(1.0)], ids=["l1", "linex-3", "linex1"])
    def test_floor_equals_bz_r0(self, n, loss):
        y = np.geomspace(1e-4, 400.0, 50)
        floor = estimators._r0_on_nodes(n, loss, np.concatenate(([0.0], np.sqrt(y))))
        want = [el.bz_r0(math.sqrt(v / n), n, loss) for v in y]
        assert np.max(np.abs(floor - want)) <= 1e-12

    def test_floor_built_without_bz_r0(self, l1, monkeypatch):
        calls = []
        bz_r0 = estimators.bz_r0

        def counting(*args, **kwargs):
            calls.append(args)
            return bz_r0(*args, **kwargs)

        monkeypatch.setattr(estimators, "bz_r0", counting)
        estimators.BzTable(6, l1)
        assert calls == []


class TestConditionalMedian:
    def test_chi_square_median_at_origin(self):
        want = math.log(float(stats.chi2.ppf(0.5, 11)))
        assert conditional_median(0.0, 0.0, 6) == pytest.approx(want, abs=1e-3)

    def test_scale_shift_in_w(self):
        # at eta = 0 the conditional law is gamma with scale 2/(1 + n w^2/2)
        m0w = conditional_median(0.5, 0.0, 6)
        want = conditional_median(0.0, 0.0, 6) - math.log1p(6 * 0.25 / 2.0)
        assert m0w == pytest.approx(want, abs=2e-6)
        assert m0w == pytest.approx(median_ln_v_eta0(0.5, 6), abs=2e-6)

    def test_monotone_in_eta_for_positive_w(self):
        vals = [conditional_median(0.5, e, 6) for e in (0.0, 0.5, 1.0, 2.0, 4.0)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_domain(self):
        with pytest.raises(DomainError):
            conditional_median(0.5, -1.0, 6)


class TestPitmanClip:
    def test_no_clip_far_from_target(self, l1):
        # at w = 1 the median target sits above d0, so the baseline is kept
        st = unit_scale_stats(w=1.0)
        assert el.estimate("pitman", st, l1) == el.estimate("baee", st, l1)

    def test_w_zero_keeps_base(self, l1):
        st = unit_scale_stats(w=0.0)
        assert el.estimate("pitman", st, l1) == el.estimate("baee", st, l1)

    def test_clips_down_for_small_positive_w(self, boeing_stats, l1):
        # boeing w is small positive: estimate capped at the median target
        target = math.log(boeing_stats.s) - 0.5 * median_ln_v_eta0(boeing_stats.w, 6)
        assert el.estimate("pitman", boeing_stats, l1) == pytest.approx(target, abs=1e-12)
        assert el.estimate("pitman", boeing_stats, l1) < el.estimate("baee", boeing_stats, l1)

    def test_clips_up_for_moderate_negative_w(self, l1):
        # the floor binds once the median target rises above d0
        st = unit_scale_stats(w=-0.5)
        target = -0.5 * median_ln_v_eta0(-0.5, 6)
        assert target > el.d0(l1, 6)
        assert el.estimate("pitman", st, l1) == pytest.approx(target, abs=1e-12)
        assert el.estimate("pitman", st, l1) > el.estimate("baee", st, l1)


class TestEquivariance:
    @pytest.mark.parametrize("name", ["baee", "umvue", "mle", "rmle", "stein",
                                      "improved_mle", "improved_rmle", "bz", "pitman"])
    def test_scale_shift_equivariance(self, name, l1):
        rng = np.random.default_rng(11)
        x = rng.normal(0.0, 1.5, 8)
        y = rng.normal(0.5, 1.5, 8)
        a = 2.5
        st1 = el.suff_stats(el.TwoSampleData(x, y))
        st2 = el.suff_stats(el.TwoSampleData(a * x + 3.0, a * y + 3.0))
        _, fn = resolve_estimator(name, 8, l1)
        v1 = float(fn(np.array(math.log(st1.s)), WTerms(np.array(st1.w), 8)))
        v2 = float(fn(np.array(math.log(st2.s)), WTerms(np.array(st2.w), 8)))
        assert v2 == pytest.approx(v1 + math.log(a), abs=1e-10)


class TestScalarVectorAgreement:
    def test_all_estimators(self, l1, linex_m3):
        # a single-dataset estimate is the rule on a batch of one, so it
        # equals the rule on a whole block exactly; bz differs only because
        # the block interpolates the r0 table
        rng = np.random.default_rng(21)
        s = rng.uniform(0.2, 40.0, 60)
        w = np.concatenate([rng.normal(0.0, 0.6, 57), [0.0, 1e-9, -1e-9]])
        stats_ = [SuffStats(n=6, mean1=0.0, mean2=wv * sv, s2=sv * sv, s=sv, w=wv)
                  for sv, wv in zip(s, w)]
        lns = np.array([math.log(sv) for sv in s])
        wt = WTerms(w, 6)
        for loss in (l1, linex_m3):
            for name in estimators.ESTIMATOR_NAMES:
                _, fn = resolve_estimator(name, 6, loss)
                got = [el.estimate(name, st, loss) for st in stats_]
                if name == "bz":
                    np.testing.assert_allclose(fn(lns, wt), got, rtol=0.0, atol=2e-6)
                else:
                    assert fn(lns, wt).tolist() == got, (name, loss)

    def test_estimate_all_builds_no_table(self, linex_m3):
        st = el.suff_stats(el.TwoSampleData([1.0, 4.0, 2.5, 7.0, 3.0, 9.5, 2.0],
                                            [2.0, 6.0, 3.5, 8.0, 5.0, 9.0, 4.0]))
        before = dict(_TABLE_CACHE)
        bz = next(r.value for r in el.estimate_all(st, linex_m3) if r.kind == "bz")
        assert _TABLE_CACHE == before
        assert bz == el.estimate("bz", st, linex_m3)

    def test_unknown_name(self, l1):
        with pytest.raises(DomainError):
            resolve_estimator("nope", 6, l1)
        with pytest.raises(DomainError):
            el.estimate("nope", unit_scale_stats(), l1)

    @pytest.mark.parametrize("name", ["umvue", "mle", "rmle"])
    def test_loss_free_rules_ignore_loss(self, name, boeing_stats, l1, linex_m3):
        for st in (boeing_stats, unit_scale_stats(w=-0.7)):
            assert el.estimate(name, st, l1) == el.estimate(name, st, linex_m3)


def _out_of_place_clip(wt, phi, bound):
    out = wt.sign * np.minimum(wt.sign * phi, wt.sign * bound)
    return out if wt.zero is None else np.where(wt.zero, phi, out)


def _out_of_place_lookup(tab, x):
    x = np.minimum(x, tab._x_max)
    j = np.fmin(x * tab._per_step, len(tab._vals) - 1).astype(np.intp)
    xj = tab._x[j]
    below, above = xj > x, tab._x[1:][j] <= x
    if below.any() or above.any():
        j = j - below + above
        xj = tab._x[j]
    return tab._slopes[j] * (x - xj) + tab._vals[j]


def _out_of_place_table(tab, absw):
    return _out_of_place_lookup(tab, np.log1p(tab.n * np.square(absw)))


def _out_of_place_linex(a1, t):
    at = a1 * np.asarray(t, dtype=float)
    return np.exp(at) - at - 1.0


# each rule as a sum of new arrays, from the constants its builder bound (k)
_OUT_OF_PLACE_RULES = {
    "baee": lambda lns, wt, k: lns + k["c"],
    "umvue": lambda lns, wt, k: lns + k["c"],
    "mle": lambda lns, wt, k: lns + k["c"],
    "rmle": lambda lns, wt, k: lns + k["c"] + wt.t_neg,
    "stein": lambda lns, wt, k: lns + _out_of_place_clip(wt, k["c"], k["c_m0"] + wt.t),
    "improved_mle": lambda lns, wt, k: lns + _out_of_place_clip(wt, k["c"], k["c_m0"] + wt.t),
    "improved_rmle": lambda lns, wt, k: lns + _out_of_place_clip(wt, k["c"] + wt.t_neg,
                                                                 k["c_m0"] + wt.t),
    "bz": lambda lns, wt, k: lns + _out_of_place_table(k["r0"], wt.w),
    "pitman": lambda lns, wt, k: lns + _out_of_place_clip(wt, k["c"], wt.t - k["half_ln_med"]),
}


def _row_inputs(kind):
    """(ln S, W): numbers, one-element arrays, or a block holding W = +-0,
    W < 0 and one NaN."""
    if kind == "number":
        return np.float64(1.3), np.float64(-0.4)
    if kind == "one":
        return np.array([1.3]), np.array([0.25])
    rng = np.random.default_rng(17)
    lns = 0.5 * np.log(rng.chisquare(14, 16_384))
    w = rng.normal(0.0, 0.7, 16_384)
    w[[3, 900, 4_000, 16_000]] = 0.0, -0.0, np.nan, -3.5
    return lns, w


class TestRowsComputeInPlace:
    """Rules, table lookups and losses form their rows in arrays of their
    own: they write into none of their inputs, the WTerms fields or the
    table, and give the bits and the type of the same arithmetic done in
    new arrays, for a number, one row and a block."""

    N = 8

    @pytest.mark.parametrize("kind", ["number", "one", "block"])
    @pytest.mark.parametrize("subject", [*estimators.ESTIMATOR_NAMES, "WTerms", "BzTable.__call__",
                                         "BzTable.at_x", "l1.value", "linex.value"])
    def test_is_pure_and_matches_new_arrays(self, subject, kind, l1, linex_m3):
        n = self.N
        lns, w = _row_inputs(kind)
        tab = bz_table(n, linex_m3)
        wt = WTerms(w, n)
        want = None
        if subject in _OUT_OF_PLACE_RULES:
            fn = resolve_estimator(subject, n, linex_m3)[1]
            watched = [lns, wt.w, wt.t, wt.t_neg, wt.sign, wt.zero]
            call, want = lambda: fn(lns, wt), _OUT_OF_PLACE_RULES[subject](lns, wt, fn.keywords)
        elif subject == "WTerms":
            w = np.append(w, [1e200, -1e200]) if kind == "block" else w  # T(W) = inf
            wt = WTerms(w, n)
            watched, call = [w], lambda: WTerms(w, n)
            with np.errstate(over="ignore"):
                t = 0.5 * np.log1p(0.5 * n * np.square(w))
            zero = w == 0.0
            for got, ref in ((wt.t, t), (wt.t_neg, np.where(w < 0.0, t, 0.0)),
                             (wt.sign, np.copysign(1.0, w)),
                             (wt.zero, zero if zero.any() else None)):
                assert np.asarray(got).tobytes() == np.asarray(ref).tobytes()
        elif subject == "BzTable.__call__":
            watched, call, want = [w], lambda: tab(w), _out_of_place_table(tab, w)
        elif subject == "BzTable.at_x":
            x = np.log1p(n * np.square(w))
            watched, call, want = [x], lambda: tab.at_x(x), _out_of_place_lookup(tab, x)
        else:
            t = (lns - 0.9) + 0.0 * w  # NaN where W is NaN
            loss = l1 if subject == "l1.value" else el.Loss.linex(2.0)
            watched, call = [t], lambda: loss.value(t)
            want = np.square(t) if loss is l1 else _out_of_place_linex(2.0, t)
        watched += [tab._x, tab._vals, tab._slopes]
        before = [np.array(a, copy=True) for a in watched if a is not None]
        got = call()
        assert [np.asarray(a).tobytes() for a in watched if a is not None] == \
            [b.tobytes() for b in before]
        if want is not None:
            assert type(got) is type(want)
            assert np.shape(got) == np.shape(want)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


class TestWindowMassRatio:
    def test_closed_form_oracle(self):
        # I(t) = 2 sqrt(pi) [Phi((s a - eta)/sqrt2) - Phi((-s a - eta)/sqrt2)] / s,
        # s = sqrt(n) e^t
        n, eta, alpha = 6, 1.0, 0.8

        def oracle(t):
            s = math.sqrt(n) * math.exp(t)
            hi = (s * alpha - eta) / math.sqrt(2.0)
            lo = (-s * alpha - eta) / math.sqrt(2.0)
            return 2.0 * math.sqrt(math.pi) * (stats.norm.cdf(hi) - stats.norm.cdf(lo)) / s

        got = window_mass_ratio(0.3, 0.2, 0.9, n, eta, alpha)
        assert got == pytest.approx(oracle(0.3 - 0.9) / oracle(0.3 - 0.2), rel=1e-9)

    @pytest.mark.parametrize("params", [(6, 1.0, 0.8, 0.2, 0.9), (10, 1.0, 1.5, 0.1, 0.5)])
    def test_nondecreasing_in_y(self, params):
        n, eta, alpha, d1, d2 = params
        ys = np.linspace(-3.0, 3.0, 40)
        vals = [window_mass_ratio(float(y), d1, d2, n, eta, alpha) for y in ys]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_large_eta_counterexample(self):
        # the monotonicity claim fails once the mean separation dominates
        # the window; kept as a regression guard on the boundary of validity
        ys = np.linspace(-3.0, 0.0, 30)
        vals = [window_mass_ratio(float(y), 0.3, 0.8, 8, 3.0, 1.0) for y in ys]
        assert min(b - a for a, b in zip(vals, vals[1:])) < -1e-4


class TestReporting:
    def test_estimate_all_order_and_entropy(self, boeing_stats, l1):
        reports = el.estimate_all(boeing_stats, l1)
        kinds = [r.kind for r in reports]
        assert kinds == ["baee", "umvue", "mle", "rmle", "stein",
                         "improved_mle", "improved_rmle", "bz", "pitman"]
        for r in reports:
            assert r.entropy_value - 2.0 * r.value == pytest.approx(
                1.0 + math.log(2.0 * math.pi), abs=1e-12)
