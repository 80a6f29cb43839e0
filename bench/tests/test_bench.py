"""Tests of the benchmark's own arithmetic: the closed-form coverage oracles
against scipy, self times and per-layer sums on synthetic span trees, the
tracing wrappers, and BENCHMARK.json against the metrics the code reports."""

import json
import math

import pytest
from scipy import stats

import oracles
import spans
from run import END_TO_END, ROOT
from workloads import WORKLOADS


@pytest.mark.parametrize("df", [2, 18, 38, 78])
def test_chi2_cdf_and_ppf_match_scipy(df):
    for x in (0.5, df / 2.0, float(df), 2.0 * df, 4.0 * df):
        assert oracles.chi2_cdf_even(x, df) == pytest.approx(stats.chi2.cdf(x, df), abs=1e-13)
    for p in (0.025, 0.5, 0.975):
        assert oracles.chi2_ppf_even(p, df) == pytest.approx(stats.chi2.ppf(p, df), rel=1e-11)


@pytest.mark.parametrize("n", [6, 10, 20, 40])
def test_aci_limit_matches_scipy(n):
    df = 2 * n - 2
    h = stats.norm.ppf(0.975) / (2.0 * math.sqrt(n))
    expected = stats.chi2.cdf(2 * n * math.exp(2 * h), df) - stats.chi2.cdf(2 * n * math.exp(-2 * h), df)
    assert oracles.aci_cp_limit(n, 0.95) == pytest.approx(expected, abs=1e-12)
    assert 2.0 * oracles.aci_half_width(n, 0.95) == pytest.approx(2.0 * h, rel=1e-14)


@pytest.mark.parametrize("n", [6, 10, 20, 40])
def test_boot_p_limit_matches_scipy(n):
    df = 2 * n - 2
    q_lo, q_hi = stats.chi2.ppf([0.025, 0.975], df)
    expected = stats.chi2.cdf(4 * n * n / q_lo, df) - stats.chi2.cdf(4 * n * n / q_hi, df)
    assert oracles.boot_p_cp_limit(n, 0.95) == pytest.approx(expected, abs=1e-11)


def test_limits_agree_with_known_n10_values():
    # the n = 10 limits to four decimals, as listed in ROADMAP.md item 4
    assert oracles.aci_cp_limit(10, 0.95) == pytest.approx(0.8992, abs=5e-5)
    assert oracles.boot_p_cp_limit(10, 0.95) == pytest.approx(0.8097, abs=5e-5)


def _boot_pair_gate(al_p, al_t):
    from types import SimpleNamespace

    from workloads import COV_N, CoveragePaper

    wl = CoveragePaper(None, 0, None)
    wl._check([SimpleNamespace(method=m, n=n, cp=0.9, cp_stderr=0.01, failures=0,
                               al=al_t if m == "boot-t" else al_p, pcd=0.5)
               for n in COV_N for m in ("boot-p", "boot-t")])
    return wl.gates._g["coverage.boot_t_al_ulps_from_boot_p"]


def test_boot_pair_gate_takes_rounding_and_refuses_real_gaps():
    # the pair as coverage_study gave it for CoverageConfig(n_grid=(10,),
    # methods=("boot-p", "boot-t"), outer_reps=128, boot_k=3000, master_seed=12)
    al = 0.6714785676935205
    assert _boot_pair_gate(al, al)[1] == 0
    assert _boot_pair_gate(al, 0.6714785676935204)[1] == 0
    assert _boot_pair_gate(al, al + 1e-6)[1] == 3


def _span(id_, name, start, end, parent=None, pass_id="0", leaves=None, **attrs):
    return {"id": id_, "name": name, "start": start, "end": end, "parent": parent,
            "pass_id": pass_id, "attrs": attrs, "leaves": leaves or {}}


def test_self_times_subtract_union_of_children_and_leaves():
    tree = [
        _span(0, "root", 0.0, 10.0, leaves={"rng": [0.5, 100]}),
        _span(1, "a", 1.0, 4.0, parent=0, leaves={"rule": [0.25, 10]}),
        _span(2, "b", 3.0, 6.0, parent=0),          # overlaps a: union is [1, 6]
        _span(3, "c", 2.0, 3.0, parent=1),          # grandchild: not the root's business
        _span(4, "busy", 7.0, 8.0, parent=0, leaves={"rng": [1.5, 1]}),
    ]
    selfs = spans.self_times(tree)
    assert selfs[0] == pytest.approx(10.0 - 5.0 - 1.0 - 0.5)
    assert selfs[1] == pytest.approx(3.0 - 1.0 - 0.25)
    assert selfs[2] == pytest.approx(3.0)
    assert selfs[3] == pytest.approx(1.0)
    assert selfs[4] == 0.0  # leaves from several threads can exceed the span


def test_layer_metrics_count_setup_once_and_average_passes():
    tree = [
        _span(0, "setup", 0.0, 2.0, pass_id="setup"),
        _span(1, "estimators.bz_table", 0.5, 1.5, parent=0, pass_id="setup",
              leaves={"integrate_J": [0.8, 1600]}),
        _span(2, "risk.simulate_risk", 2.0, 4.0, pass_id="0",
              leaves={"rule": [1.0, 1000], "rng": [0.5, 400]}),
        _span(3, "risk.simulate_risk", 4.0, 8.0, pass_id="1",
              leaves={"rule": [2.0, 1000], "rng": [0.5, 400]}),
    ]
    values = spans.layer_metrics(tree, passes=2, extra={"trace.overhead_frac": 0.05})
    assert values["estimators.bz_table.builds"] == 1
    assert values["estimators.bz_table.s"] == pytest.approx(1.0)
    assert values["numerics.quadrature.integrate_J.calls"] == 1600
    assert values["risk.simulate_risk.s"] == pytest.approx(3.0)
    assert values["risk.self_s"] == pytest.approx((0.5 + 1.5) / 2)
    assert values["estimators.rule.evals"] == 1000
    assert values["estimators.rule.ns_per_eval"] == pytest.approx(1.5e6)
    assert values["numerics.rng.variates"] == 400
    assert values["intervals.mcmc.s"] == 0.0
    assert values["trace.overhead_frac"] == 0.05
    assert set(values) == {name for name, _, _ in spans.PER_LAYER}


def test_cli_stages_run_from_first_call_to_next_stage():
    tree = [
        _span("m", "cli.main", 0.0, 10.0),
        _span(1, "estimators.estimate_all", 0.1, 0.2, parent="m"),
        _span(2, "intervals.aci", 0.3, 0.4, parent="m"),
        _span(3, "intervals.hpd_mcmc", 0.5, 1.0, parent="m"),
        _span(4, "intervals.mcmc", 0.6, 0.9, parent=3),
        _span(5, "risk.simulate_risk", 1.0, 3.0, parent="m", stage="risk"),
        _span(6, "risk.simulate_risk", 3.0, 5.0, parent="m", stage="risk"),
        _span(7, "risk.simulate_risk", 5.5, 6.0, parent="m", stage="rmle"),
        _span(8, "evaluate.coverage_study", 6.0, 9.0, parent="m", group="all"),
    ]
    stages = spans.cli_stages(tree)
    assert stages == pytest.approx({"point": 0.2, "intervals": 0.7, "risk": 4.5,
                                    "rmle": 0.5, "coverage": 4.0})


def test_wrappers_keep_outputs_and_come_off():
    import entropy_lab as el
    from entropy_lab import cli, risk

    def outputs():
        sim = el.simulate_risk(el.SimConfig(n=6, eta_grid=(0.0, 1.0), replications=3000,
                                            estimators=("baee", "bz"), master_seed=4))
        cov = el.coverage_study(el.CoverageConfig(
            n_grid=(6,), outer_reps=8, master_seed=4, gci_draws=1000, boot_k=100,
            mcmc_n=1100, mcmc_burnin=100))
        return repr(sim), repr(cov.rows)

    originals = (risk.resolve_estimator, risk.RngStream, cli.coverage_study)
    plain = outputs()
    tracer = spans.Tracer()
    undo = spans.install(tracer)
    try:
        with tracer.span("pass"):
            traced = outputs()
    finally:
        undo()
    assert traced == plain
    assert (risk.resolve_estimator, risk.RngStream, cli.coverage_study) == originals
    records = tracer.records()
    names = {r["name"] for r in records}
    assert {"pass", "intervals.mcmc"} <= names
    leaves = records[-1]["leaves"]
    assert leaves["rule"][1] == 2 * 2 * 3000 and leaves["rng"][1] > 0


def test_benchmark_json_matches_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        [tuple(m) for m in spans.PER_LAYER]
