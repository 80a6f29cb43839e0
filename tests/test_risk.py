"""Monte Carlo engine: closed-form oracles, dominance, GPC, determinism."""

import csv
import math
import tracemalloc

import numpy as np
import pytest
from scipy import special

import entropy_lab as el
from entropy_lab import estimators
from entropy_lab.errors import DomainError, NumericError
from entropy_lab.model import draw_suff_stats
from entropy_lab.numerics.rng import RngStream
from entropy_lab.risk import BLOCK_SIZE, risk_csv


@pytest.fixture
def nan_stein(monkeypatch):
    """Swap the stein rule for one whose every estimate is NaN."""
    monkeypatch.setitem(estimators._BUILDERS, "stein",
                        lambda n, loss: lambda lns, w: lns + math.nan)


class TestClosedForms:
    @pytest.mark.parametrize("n,want", [(6, 0.05533073893427883),
                                        (8, 0.03838629448983439),
                                        (15, 0.018510067166002585)])
    def test_risk_l1(self, l1, n, want):
        assert el.closed_form_risk_baee(l1, n) == pytest.approx(want, abs=1e-12)
        assert el.closed_form_risk_baee(l1, n) == pytest.approx(
            float(special.polygamma(1, n - 1)) / 4.0, abs=1e-13)

    def test_bias_l1_zero(self, l1):
        assert el.closed_form_bias_baee(l1, 8) == 0.0

    def test_bias_linex(self):
        # psi(5)/2 + ln(Gamma(4)/Gamma(5))/2 at a1 = -2, n = 6
        want = 0.5 * float(special.digamma(5)) + 0.5 * (
            float(special.gammaln(4)) - float(special.gammaln(5)))
        assert el.closed_form_bias_baee(el.Loss.linex(-2.0), 6) == pytest.approx(want, abs=1e-12)
        assert want == pytest.approx(0.0599116, abs=1e-7)

    def test_linex_risk_is_minus_a1_times_bias(self):
        # at the optimal shift the exponential term of the risk is exactly 1
        for a1 in (-3.0, -2.0, 2.0, 4.0):
            for n in (4, 6, 11):
                loss = el.Loss.linex(a1)
                assert el.closed_form_risk_baee(loss, n) == pytest.approx(
                    -a1 * el.closed_form_bias_baee(loss, n), abs=1e-12)

    def test_domain_guard(self):
        with pytest.raises(DomainError):
            el.closed_form_risk_baee(el.Loss.linex(-12.0), 6)


class TestSimulateRisk:
    def test_matches_closed_form_l1(self, l1):
        cfg = el.SimConfig(n=6, eta_grid=(0.7,), loss=l1, replications=60_000,
                           master_seed=101, estimators=("baee",))
        c = el.simulate_risk(cfg).cell("baee", 0.7)
        want = el.closed_form_risk_baee(l1, 6)
        assert abs(c.risk - want) <= 3.0 * c.stderr

    def test_matches_closed_form_linex(self):
        # cross-validation of the derived linex constant against simulation
        loss = el.Loss.linex(-2.0)
        cfg = el.SimConfig(n=6, eta_grid=(0.0,), loss=loss, replications=300_000,
                           master_seed=103, estimators=("baee",))
        c = el.simulate_risk(cfg).cell("baee", 0.0)
        assert abs(c.risk - el.closed_form_risk_baee(loss, 6)) <= 3.0 * c.stderr
        assert abs(c.bias - el.closed_form_bias_baee(loss, 6)) <= 3.0 * c.bias_stderr

    @pytest.mark.parametrize("n", [21, 26])
    def test_oracle_match_large_n(self, l1, n):
        # self-calibration gate on the wider n grid, desk scale
        cfg = el.SimConfig(n=n, eta_grid=(0.0,), loss=l1, replications=60_000,
                           master_seed=200 + n, estimators=("baee",))
        c = el.simulate_risk(cfg).cell("baee", 0.0)
        assert abs(c.risk - el.closed_form_risk_baee(l1, n)) <= 3.0 * c.stderr

    def test_umvue_unbiased(self, l1):
        cfg = el.SimConfig(n=8, eta_grid=(0.0, 2.0), loss=l1, replications=100_000,
                           master_seed=7, estimators=("baee", "umvue"))
        res = el.simulate_risk(cfg)
        for eta in (0.0, 2.0):
            c = res.cell("umvue", eta)
            assert abs(c.bias) <= 3.0 * c.bias_stderr

    def test_constant_risk_under_common_draws(self, l1):
        # equivariant baseline ignores w, so shared draws give identical cells
        cfg = el.SimConfig(n=6, eta_grid=(0.0, 4.0), loss=l1, replications=20_000,
                           master_seed=5, estimators=("baee",))
        res = el.simulate_risk(cfg)
        assert res.cell("baee", 0.0).risk == res.cell("baee", 4.0).risk

    def test_constant_risk_across_independent_seeds(self, l1):
        r1 = el.simulate_risk(el.SimConfig(n=6, eta_grid=(0.0,), loss=l1,
                                           replications=80_000, master_seed=31,
                                           estimators=("baee",))).cell("baee", 0.0)
        r2 = el.simulate_risk(el.SimConfig(n=6, eta_grid=(0.0,), loss=l1,
                                           replications=80_000, master_seed=77,
                                           estimators=("baee",))).cell("baee", 0.0)
        joint = math.hypot(r1.stderr, r2.stderr)
        assert abs(r1.risk - r2.risk) <= 3.0 * joint

    def test_dominance_smoke(self, l1):
        cfg = el.SimConfig(n=6, eta_grid=(0.0, 1.0), loss=l1, replications=50_000,
                           master_seed=13, estimators=("baee", "stein", "bz"))
        res = el.simulate_risk(cfg)
        for est in ("stein", "bz"):
            for eta in (0.0, 1.0):
                c = res.cell(est, eta)
                assert c.diff_vs_baseline <= 3.0 * c.diff_stderr

    def test_stein_improvement_significant_at_origin(self, l1):
        cfg = el.SimConfig(n=8, eta_grid=(0.0,), loss=l1, replications=50_000,
                           master_seed=3, estimators=("baee", "stein"))
        c = el.simulate_risk(cfg).cell("stein", 0.0)
        assert -c.diff_vs_baseline > 3.0 * c.diff_stderr
        assert c.rri > 0.0

    def test_rmle_improvement_region(self, l1):
        cfg = el.SimConfig(n=8, eta_grid=(0.0, 8.0), loss=l1, replications=100_000,
                           master_seed=2, estimators=("mle", "rmle"), baseline="mle")
        res = el.simulate_risk(cfg)
        at0 = res.cell("rmle", 0.0)
        assert -at0.diff_vs_baseline > 3.0 * at0.diff_stderr  # real gain at eta = 0
        assert res.cell("rmle", 8.0).rri < at0.rri            # fades as eta grows

    def test_determinism_and_thread_independence(self, l1):
        base = dict(n=6, eta_grid=(0.0, 1.0), loss=l1, replications=30_000,
                    master_seed=99, estimators=("baee", "stein", "bz"))
        r1 = el.simulate_risk(el.SimConfig(**base, threads=1))
        r2 = el.simulate_risk(el.SimConfig(**base, threads=4))
        r3 = el.simulate_risk(el.SimConfig(**base, threads=1))
        assert r1.cells == r2.cells == r3.cells

    def test_csv_schema(self, l1):
        cfg = el.SimConfig(n=6, eta_grid=(0.0,), loss=el.Loss.linex(-3.0),
                           replications=2_000, master_seed=1,
                           estimators=("baee", "stein"))
        res = el.simulate_risk(cfg)
        rows = list(csv.DictReader(risk_csv([res]).splitlines()))
        assert set(rows[0]) == {"n", "eta", "loss", "a1", "estimator",
                                "risk", "stderr", "bias", "rri"}
        assert len(rows) == 2
        assert rows[0]["loss"] == "linex" and float(rows[0]["a1"]) == -3.0
        assert float(rows[0]["stderr"]) > 0

    def test_estimator_failure_reports_replication(self, l1, nan_stein):
        cfg = el.SimConfig(n=6, eta_grid=(0.0,), loss=l1, replications=500,
                           master_seed=1, estimators=("baee", "stein"))
        with pytest.raises(NumericError, match="replication"):
            el.simulate_risk(cfg)

    def test_config_validation(self, l1):
        with pytest.raises(DomainError):
            el.SimConfig(n=1, loss=l1)
        with pytest.raises(DomainError):
            el.SimConfig(n=6, loss=l1, eta_grid=(-1.0,))
        with pytest.raises(DomainError, match="eta_grid"):
            el.SimConfig(n=6, loss=l1, eta_grid=())
        with pytest.raises(DomainError, match="unknown estimators"):
            el.SimConfig(n=6, loss=l1, estimators=("baee", "foo"))
        with pytest.raises(DomainError):
            el.SimConfig(n=6, loss=l1, estimators=("stein",), baseline="baee")
        with pytest.raises(DomainError):
            el.SimConfig(n=6, loss=l1, estimators=("baee", "baee"))
        for threads in (0, -3):
            with pytest.raises(DomainError, match="threads"):
                el.SimConfig(n=6, loss=l1, threads=threads)

    def test_block_memory_does_not_grow_with_n(self, l1):
        def peak(n):
            cfg = el.SimConfig(n=n, eta_grid=(0.0,), loss=l1, replications=BLOCK_SIZE,
                               master_seed=1, estimators=("baee",))
            tracemalloc.start()
            try:
                el.simulate_risk(cfg)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(5)  # the first call in a process makes one-off allocations
        assert peak(60) <= 1.5 * peak(5)


class TestGpc:
    def test_self_comparison_exact_half(self, l1):
        g = el.gpc_estimate("baee", "baee", l1, 8, 1.0, 10_000, seed=5)
        assert g.value == 0.5
        assert g.n_tie == 10_000
        assert g.stderr == 0.0      # every replication scores 1/2

    def test_stderr_is_that_of_the_scores(self, l1):
        # one block, redrawn by hand: a replication scores 1, 1/2 on a tie or 0
        n, eta, reps = 8, 0.0, 2_000
        g = el.gpc_estimate("pitman", "baee", l1, n, eta, reps, seed=7)
        m1, m2, ss1, ss2 = draw_suff_stats(RngStream(7, 0).generator, reps, n)
        lns, w = 0.5 * np.log(ss1 + ss2), (m2 - m1 + eta / math.sqrt(n)) / np.sqrt(ss1 + ss2)
        lv1, lv2 = (l1.value(estimators.resolve_estimator(e, n, l1)[1](lns, w))
                    for e in ("pitman", "baee"))
        scores = np.where(lv1 < lv2, 1.0, np.where(lv1 == lv2, 0.5, 0.0))
        assert 0 < g.n_tie < reps
        assert g.value == pytest.approx(scores.mean(), abs=1e-15)
        assert g.stderr == pytest.approx(scores.std() / math.sqrt(reps), rel=1e-10)

    def test_stein_beats_baseline_at_origin(self, l1):
        g = el.gpc_estimate("stein", "baee", l1, 8, 0.0, 50_000, seed=5)
        assert g.value - 0.5 > 3.0 * g.stderr

    def test_pitman_clip_never_worse(self, l1, linex_m3):
        for loss in (l1, linex_m3):
            for eta in (0.0, 1.0):
                g = el.gpc_estimate("pitman", "baee", loss, 8, eta, 30_000, seed=6)
                assert g.value >= 0.5 - 3.0 * g.stderr

    def test_validation(self, l1):
        with pytest.raises(DomainError):
            el.gpc_estimate("baee", "stein", l1, 8, -1.0, 100, seed=1)
        with pytest.raises(DomainError, match="threads"):
            el.gpc_estimate("baee", "stein", l1, 8, 0.0, 100, seed=1, threads=0)

    def test_nan_rule_reports_replication(self, l1, nan_stein):
        for pair in (("stein", "baee"), ("baee", "stein")):
            with pytest.raises(NumericError, match="'stein' failed at replication 0"):
                el.gpc_estimate(*pair, l1, 8, 0.5, 1_000, seed=1)
