"""Monte Carlo engine: closed-form oracles, dominance, GPC, determinism."""

import csv
import math
import tracemalloc
import warnings
from functools import partial

import numpy as np
import pytest
from scipy import integrate, special, stats

import entropy_lab as el
from entropy_lab import estimators, model, risk
from entropy_lab.errors import DomainError, NumericError
from entropy_lab.numerics import chi_square_cdf
from entropy_lab.numerics.rng import RngStream
from entropy_lab.risk import (
    BLOCK_SIZE,
    SimConfig,
    _risk_sums,
    _risk_sums_squared_error,
    risk_csv,
)


# the non-finite estimates a swapped stein rule writes into its row at
# replications FIRST_BAD, FIRST_BAD + 1, ... of every block
BAD_ROWS = {"nan": (math.nan,), "inf-pair": (math.inf, 0.0, -math.inf), "neg-inf": (-math.inf,)}
FIRST_BAD = 37


@pytest.fixture
def nan_stein(monkeypatch, request):
    """Swap the stein rule for one whose every estimate is NaN or, by
    indirect parameter, whose row holds the values of ``BAD_ROWS[param]``
    from replication FIRST_BAD on, the rest being baee's."""
    bad = getattr(request, "param", None)

    def rule(lns, wt):
        if bad is None:
            return lns + math.nan
        row = lns + 0.0
        row[FIRST_BAD:FIRST_BAD + len(BAD_ROWS[bad])] = BAD_ROWS[bad]
        return row

    # a builder returns a partial, as every builder does
    monkeypatch.setitem(estimators._BUILDERS, "stein", lambda n, loss: partial(rule))


def hand_draw(seed: int, b: int, n: int):
    """One block's (D, S^2), drawn as the engine draws block 0 of ``seed``."""
    gen = RngStream(seed, 0).generator
    return math.sqrt(2.0 / n) * gen.standard_normal(b), gen.chisquare(2 * n - 2, b)


class TestPairDraw:
    """A replication is the pair (D, S^2) = (xbar_2 - xbar_1, SS_0), whose
    exact law at sigma = 1 is N(0, 2/n) x chi-square(2n - 2)."""

    DRAWS = 200_000

    @pytest.mark.parametrize("n", [2, 6, 26])
    def test_block_is_the_hand_draw(self, l1, n):
        names, etas, b = ("baee", "stein", "rmle"), (0.0, 1.5), 3_000
        cfg = SimConfig(n=n, eta_grid=etas, loss=l1, replications=b, master_seed=9,
                        estimators=names)
        (block,) = risk.risk_jobs(cfg, lambda l, d, l_base, sum_d: d.copy())
        got = block()
        d, s2 = hand_draw(9, b, n)
        for t, eta in enumerate(etas):
            lns, w = 0.5 * np.log(s2), (d + eta / math.sqrt(n)) / np.sqrt(s2)
            for e, name in enumerate(names):
                want = estimators.resolve_estimator(name, n, l1)[1](lns, estimators.WTerms(w, n))
                assert np.array_equal(got[e, :, t], want)

    @pytest.mark.parametrize("n", [2, 6, 26])
    def test_laws(self, n):
        d, s2 = hand_draw(40 + n, self.DRAWS, n)
        var = 2.0 / n
        assert abs(d.mean()) <= 5.0 * math.sqrt(var / self.DRAWS)
        assert abs(d.var() - var) <= 5.0 * var * math.sqrt(2.0 / self.DRAWS)
        assert stats.kstest(s2, lambda v: chi_square_cdf(2 * n - 2, v)).pvalue > 1e-3


class TestRowEngine:
    """Each estimator's row of a block is evaluated, checked, lossed and
    reduced on its own, the baseline's first."""

    @pytest.mark.parametrize("loss", [el.Loss.squared_error(), el.Loss.linex(-3.0)],
                             ids=["l1", "linex-3"])
    def test_baseline_moves_no_rule_own_fields(self, loss):
        # the baseline enters only the cross term and the RRI
        base = dict(n=8, eta_grid=(0.0, 0.75, 2.5), loss=loss, replications=BLOCK_SIZE + 999,
                    master_seed=17, estimators=estimators.ESTIMATOR_NAMES)
        by_baee = el.simulate_risk(SimConfig(**base, baseline="baee"))
        by_stein = el.simulate_risk(SimConfig(**base, baseline="stein"))
        for a, b in zip(by_baee.cells, by_stein.cells, strict=True):
            assert (a.estimator, a.eta) == (b.estimator, b.eta)
            assert (a.risk, a.stderr, a.bias, a.bias_stderr) == (b.risk, b.stderr, b.bias,
                                                                 b.bias_stderr)

    # rule calls per block of all nine rules at five eta: one row per distinct
    # rule, the baseline's at every eta, and a row that ignores W (baee,
    # umvue, mle) at the first eta only when the baseline ignores W too;
    # umvue is baee under squared error, and improved_rmle is improved_mle
    # except under linex(8) at n = 3
    @pytest.mark.parametrize("baseline", ["baee", "mle", "stein"])
    @pytest.mark.parametrize("loss,calls", [
        (el.Loss.squared_error(), {"baee": 31, "mle": 31, "stein": 35}),
        (el.Loss.linex(-3.0), {"baee": 32, "mle": 32, "stein": 40}),
        (el.Loss.linex(8.0), {"baee": 37, "mle": 37, "stein": 45}),
    ], ids=["l1", "linex-3", "linex8"])
    def test_shared_rows_move_no_bit(self, monkeypatch, loss, calls, baseline):
        etas = (0.0, 0.5, 1.25, 2.0, 3.0)
        base = dict(n=3, loss=loss, replications=BLOCK_SIZE + 999, master_seed=23)
        resolve, called = risk.resolve_estimator, []

        def counted(name, n, loss):
            fn = resolve(name, n, loss)[1]
            return name, lambda lns, wt: called.append(name) or fn(lns, wt)

        monkeypatch.setattr(risk, "resolve_estimator", counted)
        shared = el.simulate_risk(SimConfig(**base, eta_grid=etas, baseline=baseline,
                                            estimators=estimators.ESTIMATOR_NAMES))
        assert len(called) == 2 * calls[baseline]
        # the reference shares nothing: every name is its own rule and reads W
        monkeypatch.setattr(risk, "rule_identity", lambda name, n, loss: (name, True))
        for eta in etas:
            for name in estimators.ESTIMATOR_NAMES:
                alone = el.simulate_risk(SimConfig(
                    **base, eta_grid=(eta,), baseline=baseline,
                    estimators=tuple(dict.fromkeys((baseline, name)))))
                assert repr(shared.cell(name, eta)) == repr(alone.cell(name, eta))

    @pytest.mark.parametrize("loss", [el.Loss.squared_error(), el.Loss.linex(-3.0)],
                             ids=["l1", "linex-3"])
    def test_no_w_terms_without_a_reader(self, monkeypatch, loss):
        # baee, umvue and mle never read W, so their block forms no WTerms,
        # and their cells are those of a run where stein makes the block form them
        base = dict(n=8, eta_grid=(0.0, 0.75, 2.5), loss=loss, replications=BLOCK_SIZE + 999,
                    master_seed=31, baseline="baee")
        formed = []
        terms = risk.WTerms
        monkeypatch.setattr(risk, "WTerms", lambda w, n: formed.append(n) or terms(w, n))
        shifts = el.simulate_risk(SimConfig(**base, estimators=("baee", "umvue", "mle")))
        assert formed == []
        with_stein = el.simulate_risk(SimConfig(**base,
                                                estimators=("baee", "umvue", "mle", "stein")))
        assert len(formed) == 2 * 3
        for cell in shifts.cells:
            assert repr(cell) == repr(with_stein.cell(cell.estimator, cell.eta))

    @pytest.mark.parametrize("own", [True, False], ids=["baseline-row", "other-row"])
    @pytest.mark.parametrize("loss", [el.Loss.squared_error(), el.Loss.linex(-3.0)],
                             ids=["l1", "linex-3"])
    def test_row_sums_are_the_sums_of_new_arrays(self, loss, own):
        # the reducer simulate_risk picks for the loss: the squares go into one
        # scratch row, and under squared error the sum of d^2 is that of l
        rng = np.random.default_rng(3)
        d, d_base = rng.normal(0.0, 0.4, (2, BLOCK_SIZE))
        l = loss.value(d)
        l_base = l if own else loss.value(d_base)
        reduce = _risk_sums_squared_error if loss.kind == "squared_error" else _risk_sums
        before = [a.copy() for a in (l, d, l_base)]
        sum_d = d.sum()
        got = reduce(l, d, l_base, sum_d)
        want = (l.sum(), np.square(l).sum(), sum_d, np.square(d).sum(), (l * l_base).sum())
        assert [float(v).hex() for v in got] == [float(v).hex() for v in want]
        assert got[2] is sum_d  # the block's own sum, not formed again
        for a, b in zip((l, d, l_base), before):
            assert np.array_equal(a, b)


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

    @pytest.mark.parametrize("loss", [el.Loss.squared_error(), el.Loss.linex(-3.0),
                                      el.Loss.linex(2.0)], ids=["l1", "linex-3", "linex2"])
    @pytest.mark.parametrize("n", [3, 5, 8, 26])
    def test_shift_forms_at_d0_are_baee(self, loss, n):
        c = el.d0(loss, n)
        assert model.closed_form_risk_shift(loss, n, c) == pytest.approx(
            el.closed_form_risk_baee(loss, n), abs=1e-12)
        assert model.closed_form_bias_shift(loss, n, c) == pytest.approx(
            el.closed_form_bias_baee(loss, n), abs=1e-12)

    @pytest.mark.parametrize("loss", [el.Loss.squared_error(), el.Loss.linex(-3.0),
                                      el.Loss.linex(2.0)], ids=["l1", "linex-3", "linex2"])
    @pytest.mark.parametrize("n,c", [(3, -0.9), (5, 0.3), (12, -0.5)])
    def test_shift_forms_against_quadrature(self, loss, n, c):
        # the error is ln sqrt(V) + c with V ~ chi-square(2n - 2)
        law = stats.chi2(2 * n - 2)
        bias = integrate.quad(lambda v: (0.5 * math.log(v) + c) * law.pdf(v), 0.0, np.inf,
                              limit=200)[0]
        risk = integrate.quad(lambda v: float(loss.value(0.5 * math.log(v) + c)) * law.pdf(v),
                              0.0, np.inf, limit=200)[0]
        assert model.closed_form_bias_shift(loss, n, c) == pytest.approx(bias, rel=1e-8)
        assert model.closed_form_risk_shift(loss, n, c) == pytest.approx(risk, rel=1e-8)

    def test_shift_form_domain(self, l1):
        for args in ((l1, 1, 0.0), (el.Loss.linex(-3.0), 2, 0.0), (l1, 5, math.inf),
                     (el.Loss.linex(2.0), 5, math.nan), (el.Loss.linex(8.0), 5, 1e3)):
            with pytest.raises(DomainError):
                model.closed_form_risk_shift(*args)


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

    @pytest.mark.parametrize("loss", [el.Loss.squared_error(), el.Loss.linex(-3.0)],
                             ids=["l1", "linex-3"])
    @pytest.mark.parametrize("n", [5, 8, 26])
    def test_shift_cells_match_shift_forms(self, loss, n):
        # mle is ln S - ln(2n)/2 and umvue ln S + d0 under squared error,
        # whatever the loss the cell is scored under
        shifts = {"mle": -0.5 * math.log(2.0 * n), "umvue": el.d0(el.Loss.squared_error(), n)}
        res = el.simulate_risk(el.SimConfig(n=n, eta_grid=(0.0, 1.5), loss=loss,
                                            replications=40_000, master_seed=300 + n,
                                            estimators=("baee", "umvue", "mle")))
        for name, c in shifts.items():
            risk = model.closed_form_risk_shift(loss, n, c)
            bias = model.closed_form_bias_shift(loss, n, c)
            for eta in (0.0, 1.5):
                cell = res.cell(name, eta)
                assert abs(cell.risk - risk) <= 4.0 * cell.stderr
                assert abs(cell.bias - bias) <= 4.0 * cell.bias_stderr

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

    @pytest.mark.parametrize("loss", [el.Loss.squared_error(), el.Loss.linex(-3.0)],
                             ids=["l1", "linex-3"])
    @pytest.mark.parametrize("nan_stein", list(BAD_ROWS), indirect=True)
    def test_bad_row_fails_before_its_loss(self, nan_stein, loss):
        # the row's sum is NaN or inf: the block names the rule, the first
        # bad replication and eta, and no loss (linex(-3) of -inf is
        # inf - inf) nor sum (+inf + -inf) warns on the way
        cfg = el.SimConfig(n=6, eta_grid=(0.5,), loss=loss, replications=500,
                           master_seed=1, estimators=("baee", "stein"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match=rf"^estimator 'stein' failed at replication "
                                                   rf"{FIRST_BAD} \(eta=0\.5\)$"):
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
        # a repeated eta would write a second row group that cell() never reads
        for grid in ((0.0, 0.5, 0.0), (0.0, -0.0)):
            with pytest.raises(DomainError, match="repeat"):
                el.SimConfig(n=6, loss=l1, eta_grid=grid)

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

    # pitman ties baee wherever its clip does not bind; bz reads W, so
    # stein's losses are compared with a row that moves with W
    @pytest.mark.parametrize("loss,est1,est2,ties", [
        (el.Loss.squared_error(), "pitman", "baee", True),
        (el.Loss.linex(-3.0), "pitman", "baee", True),
        (el.Loss.squared_error(), "stein", "bz", False),
    ], ids=["l1-pitman-baee", "linex-pitman-baee", "l1-stein-bz"])
    def test_stderr_is_that_of_the_scores(self, loss, est1, est2, ties):
        # one block, redrawn by hand: a replication scores 1, 1/2 on a tie or 0
        n, eta, reps = 8, 0.0, 2_000
        g = el.gpc_estimate(est1, est2, loss, n, eta, reps, seed=7)
        d, s2 = hand_draw(7, reps, n)
        lns, w = 0.5 * np.log(s2), (d + eta / math.sqrt(n)) / np.sqrt(s2)
        wt = estimators.WTerms(w, n)
        lv1, lv2 = (loss.value(estimators.resolve_estimator(e, n, loss)[1](lns, wt))
                    for e in (est1, est2))
        scores = np.where(lv1 < lv2, 1.0, np.where(lv1 == lv2, 0.5, 0.0))
        assert (0 < g.n_tie < reps) if ties else g.n_tie == 0
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

    def test_nan_rule_reports_replication(self, l1, nan_stein):
        for pair in (("stein", "baee"), ("baee", "stein")):
            with pytest.raises(NumericError, match="'stein' failed at replication 0"):
                el.gpc_estimate(*pair, l1, 8, 0.5, 1_000, seed=1)

    @pytest.mark.parametrize("loss", [el.Loss.squared_error(), el.Loss.linex(-3.0)],
                             ids=["l1", "linex-3"])
    @pytest.mark.parametrize("nan_stein", list(BAD_ROWS), indirect=True)
    def test_bad_row_fails_before_its_loss(self, nan_stein, loss):
        for pair in (("stein", "baee"), ("baee", "stein")):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(NumericError, match=rf"^estimator 'stein' failed at "
                                                       rf"replication {FIRST_BAD} \(eta=0\.5\)$"):
                    el.gpc_estimate(*pair, loss, 8, 0.5, 1_000, seed=1)
