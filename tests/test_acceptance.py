"""Acceptance gate: every criterion at its stated tolerance and scale.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion.  Criterion numbers follow the project checklist.

Two documented reinterpretations (also listed in DISCREPANCIES.md emitted
by the reproduce command):

* Criterion 1 also states the ordering baee >= bz >= stein.  That ordering
  contradicts the defining equation of the smooth shrinkage solver, which
  criterion 6 independently pins to 1e-7: the solver averages shrinkage
  targets over {|W| <= w}, so its shift sits strictly below the
  hard-threshold arm at the same w, and three independent routes
  (kernel-integral closed form, defining-equation quadrature, brute-force
  conditional Monte Carlo) agree the true ordering on this dataset is
  baee >= stein >= bz.  The literal claim is kept as a strict expected
  failure; the verified ordering is asserted in the main test.

* Criterion 5 reproduces the published RRI figure shapes.  Those figures
  put the raw mean separation (mu2 - mu1)/sigma on the x axis, while the
  engine's eta carries the extra sqrt(n) factor from the standardized
  two-sample geometry; the stated check values {1, 4} are figure-axis
  positions and are converted via eta = sqrt(n) * s.  (Under the converted
  axis the smooth-shrinkage peak lands inside the published [0.5, 1.5]
  window; without conversion it would sit at sqrt(n) times that.)
"""

import json
import math
import time

import numpy as np
import pytest
from scipy import stats

import entropy_lab as el
from entropy_lab.cli import main as cli_main
from entropy_lab.estimators import window_mass_ratio
from entropy_lab.intervals import mh_variance_step
from entropy_lab.numerics.rng import RngStream
from references import bz_r0_defining

PAPER_BAEE = {None: 4.7293, -3.0: 4.8233, -2.0: 4.7892, 2.0: 4.6776, 4.0: 4.6321}


def report(num: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num} {'PASS' if ok else 'FAIL'}: {detail}")


def test_criterion_01_boeing_point_estimates(boeing_stats, l1):
    t0 = time.perf_counter()
    errors = []
    got = el.estimate("baee", boeing_stats, l1)
    if abs(got - PAPER_BAEE[None]) > 5e-4:
        errors.append(f"baee l1 {got}")
    for a1 in (-3.0, -2.0, 2.0, 4.0):
        got = el.estimate("baee", boeing_stats, el.Loss.linex(a1))
        if abs(got - PAPER_BAEE[a1]) > 5e-4:
            errors.append(f"baee linex({a1}) {got}")
    st_val = el.estimate("stein", boeing_stats, l1)
    if abs(st_val - 4.6855) > 5e-4:
        errors.append(f"stein l1 {st_val}")
    bz_val = el.estimate("bz", boeing_stats, l1)
    baee_val = el.estimate("baee", boeing_stats, l1)
    if not baee_val >= st_val >= bz_val:
        errors.append(f"verified ordering broken: {baee_val}, {st_val}, {bz_val}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 1.0:
        errors.append(f"too slow: {elapsed:.2f}s")
    report("01", not errors, f"point estimates on the reference data ({elapsed:.3f}s) {errors}")
    assert not errors


@pytest.mark.xfail(strict=True,
                   reason="stated sandwich contradicts the defining-equation solver; "
                          "verified ordering is baee >= stein >= bz (see module docstring)")
def test_criterion_01_sandwich_as_stated(boeing_stats, l1):
    baee_val = el.estimate("baee", boeing_stats, l1)
    st_val = el.estimate("stein", boeing_stats, l1)
    bz_val = el.estimate("bz", boeing_stats, l1)
    report("01b", False, "literal 'baee >= bz >= stein' is a documented spec defect "
                         f"(bz={bz_val:.6f} < stein={st_val:.6f})")
    assert baee_val >= bz_val >= st_val


def test_criterion_02_boeing_aci(boeing_data):
    t0 = time.perf_counter()
    r = el.aci(boeing_data, 0.95)
    elapsed = time.perf_counter() - t0
    ok = (abs(r.lower - 4.1864) <= 2e-4 and abs(r.upper - 4.9865) <= 2e-4
          and elapsed < 1.0)
    report("02", ok, f"asymptotic interval ({r.lower:.5f}, {r.upper:.5f}) ({elapsed:.3f}s)")
    assert ok


@pytest.mark.parametrize("n", [6, 8, 15])
def test_criterion_03_risk_oracle(n, l1):
    t0 = time.perf_counter()
    cfg = el.SimConfig(n=n, eta_grid=(0.6,), loss=l1, replications=200_000,
                       master_seed=300 + n, estimators=("baee",))
    c = el.simulate_risk(cfg).cell("baee", 0.6)
    want = el.closed_form_risk_baee(l1, n)
    elapsed = time.perf_counter() - t0
    ok = abs(c.risk - want) <= 3.0 * c.stderr and elapsed < 30.0
    report("03", ok, f"n={n}: mc risk {c.risk:.6f} vs trigamma({n - 1})/4 = {want:.6f} "
                     f"(z={(c.risk - want) / c.stderr:+.2f}, {elapsed:.1f}s)")
    assert ok


def test_criterion_04_dominance_suite(l1, linex_m3):
    t0 = time.perf_counter()
    etas = (0.0, 0.5, 1.0, 2.0, 4.0)
    failures = []
    for loss in (l1, linex_m3):
        for n in (6, 8):
            for ests, base, pairs in (
                (("baee", "stein", "bz"), "baee", ("stein", "bz")),
                (("mle", "improved_mle"), "mle", ("improved_mle",)),
                (("rmle", "improved_rmle"), "rmle", ("improved_rmle",)),
            ):
                cfg = el.SimConfig(n=n, eta_grid=etas, loss=loss,
                                   replications=200_000, master_seed=400,
                                   estimators=ests, baseline=base)
                res = el.simulate_risk(cfg)
                for est in pairs:
                    for eta in etas:
                        c = res.cell(est, eta)
                        if c.diff_vs_baseline > 3.0 * c.diff_stderr:
                            failures.append((loss.label, n, est, eta,
                                             c.diff_vs_baseline, c.diff_stderr))
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 300.0
    report("04", ok, f"dominance over {2 * 2 * 4 * len(etas)} cells with paired "
                     f"3-sigma margins ({elapsed:.1f}s) {failures[:3]}")
    assert ok


def test_criterion_05_rri_shapes(l1, linex_m3):
    t0 = time.perf_counter()
    n = 8
    rootn = math.sqrt(n)
    failures = []
    for loss in (l1, linex_m3):
        # separation-axis positions (mu2 - mu1)/sigma: 0, 1, 3, 4
        etas = tuple(s * rootn for s in (0.0, 1.0, 3.0, 4.0))
        cfg = el.SimConfig(n=n, eta_grid=etas, loss=loss, replications=200_000,
                           master_seed=500, estimators=("baee", "stein", "bz"))
        res = el.simulate_risk(cfg)

        def rri_noise(cell):
            return 100.0 * 3.0 * cell.diff_stderr / el.closed_form_risk_baee(loss, n)

        s0, s3 = res.cell("stein", etas[0]), res.cell("stein", etas[2])
        if not s0.rri - s3.rri > rri_noise(s0) + rri_noise(s3):
            failures.append((loss.label, "stein trend"))
        b1, b4 = res.cell("bz", etas[1]), res.cell("bz", etas[3])
        if not b1.rri - b4.rri > rri_noise(b1) + rri_noise(b4):
            failures.append((loss.label, "bz peak"))

        cfg2 = el.SimConfig(n=n, eta_grid=(etas[0], etas[3]), loss=loss,
                            replications=200_000, master_seed=501,
                            estimators=("mle", "rmle"), baseline="mle")
        res2 = el.simulate_risk(cfg2)
        r0, r4 = res2.cell("rmle", etas[0]), res2.cell("rmle", etas[3])
        if not (r0.rri >= -rri_noise(r0) and r4.rri <= 0.5):
            failures.append((loss.label, "rmle region", r0.rri, r4.rri))
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 300.0
    report("05", ok, f"improvement-curve shapes on the separation axis "
                     f"({elapsed:.1f}s) {failures}")
    assert ok


def test_criterion_06_bz_solver(l1, linex_m3):
    t0 = time.perf_counter()
    failures = []
    for loss in (l1, linex_m3):
        for n in (6, 8, 15):
            if abs(el.bz_r0(1e-5, n, loss) - el.m0(loss, n)) > 1e-4:
                failures.append((loss.label, n, "limit at 0"))
            if abs(el.bz_r0(1e3, n, loss) - el.d0(loss, n)) > 1e-4:
                failures.append((loss.label, n, "limit at infinity"))
            grid = np.geomspace(1e-3, 40.0, 200)
            vals = [el.bz_r0(float(w), n, loss) for w in grid]
            if not all(b >= a - 1e-10 for a, b in zip(vals, vals[1:])):
                failures.append((loss.label, n, "monotonicity"))
            for absw in (0.05, 0.4, 1.5):
                if abs(el.bz_r0(absw, n, loss) - bz_r0_defining(absw, n, loss)) > 1e-7:
                    failures.append((loss.label, n, "defining equation", absw))
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 10.0
    report("06", ok, f"shrinkage solver limits, monotonicity, closed-vs-defining "
                     f"agreement ({elapsed:.1f}s) {failures}")
    assert ok


def test_criterion_07_gci_exactness():
    t0 = time.perf_counter()
    cfg = el.CoverageConfig(n_grid=(6, 10), methods=("gci",), outer_reps=5_000,
                            master_seed=700, gci_draws=2_000)
    res = el.coverage_study(cfg)
    failures = [(n, res.row("gci", n).cp) for n in (6, 10)
                if abs(res.row("gci", n).cp - 0.95) > 0.012]
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 120.0
    cps = {n: round(res.row("gci", n).cp, 4) for n in (6, 10)}
    report("07", ok, f"exact-pivot coverage {cps} ({elapsed:.1f}s)")
    assert ok


def test_criterion_08_bootstrap_pair():
    t0 = time.perf_counter()
    cfg = el.CoverageConfig(n_grid=(10,), methods=("boot-p", "boot-t"),
                            outer_reps=3_000, master_seed=800, boot_k=1_000)
    res = el.coverage_study(cfg)
    bp, bt = res.row("boot-p", 10), res.row("boot-t", 10)
    al_equal = bp.al == bt.al  # same resamples, identical float sums
    margin = 3.0 * math.hypot(bp.cp_stderr, bt.cp_stderr)
    cp_ordered = bt.cp - bp.cp > margin
    elapsed = time.perf_counter() - t0
    ok = al_equal and cp_ordered and elapsed < 300.0
    report("08", ok, f"AL equal exactly ({bp.al:.4f}), CP {bt.cp:.3f} > {bp.cp:.3f} "
                     f"by >{margin:.3f} ({elapsed:.1f}s)")
    assert ok


def test_criterion_09_mcmc_validity():
    t0 = time.perf_counter()
    # package MH kernel at fixed means against the conjugate direct law
    n, ss = 10, 19.0
    gen = RngStream(900, 0).generator
    beta = np.array([ss / (2 * (n - 1))])
    prop_sd = np.array([2.4 * (ss / 2) / ((n - 1) * math.sqrt(n))])
    burn, keep, thin = 2_000, 10_000, 5
    draws = np.empty(keep)
    for k in range(burn + keep * thin):
        beta, _ = mh_variance_step(beta, np.array([ss]), n, prop_sd,
                                   gen.standard_normal(1), np.log(gen.random(1)))
        if k >= burn and (k - burn) % thin == 0:
            draws[(k - burn) // thin] = beta[0]
    ks = stats.kstest(draws, lambda x: stats.invgamma.cdf(x, a=n, scale=ss / 2)).statistic

    z = np.sort(RngStream(901, 0).generator.standard_normal(100_000))
    lo, hi = el.chen_shao_hpd(z, 0.95)
    hpd_ok = abs(lo + 1.959964) <= 0.03 and abs(hi - 1.959964) <= 0.03
    elapsed = time.perf_counter() - t0
    ok = ks < 0.02 and hpd_ok and elapsed < 60.0
    report("09", ok, f"MH-vs-conjugate KS {ks:.4f} < 0.02; normal HPD "
                     f"({lo:.3f}, {hi:.3f}) ({elapsed:.1f}s)")
    assert ok


def test_criterion_10_gpc(l1, linex_m3):
    t0 = time.perf_counter()
    failures = []
    for loss in (l1, linex_m3):
        for eta in (0.0, 0.5, 1.0):
            g = el.gpc_estimate("pitman", "baee", loss, 8, eta, 50_000, seed=1000)
            if not g.value >= 0.5 - 3.0 * g.stderr:
                failures.append((loss.label, eta, g.value))
    g_self = el.gpc_estimate("baee", "baee", l1, 8, 0.5, 20_000, seed=1001)
    if g_self.value != 0.5:
        failures.append(("self", g_self.value))
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 120.0
    report("10", ok, f"Pitman-closeness of the clipped estimator ({elapsed:.1f}s) {failures}")
    assert ok


def test_criterion_11_window_ratio_monotone():
    t0 = time.perf_counter()
    combos = [(6, 0.0, 0.8, 0.2, 0.9), (6, 0.5, 0.5, 0.1, 0.4),
              (6, 1.0, 0.8, 0.2, 0.9), (8, 0.7, 1.0, 0.3, 0.8),
              (10, 1.0, 1.5, 0.1, 0.5), (15, 1.2, 0.6, 0.25, 0.75)]
    ys = np.linspace(-3.0, 3.0, 200)
    failures = []
    for n, eta, alpha, d1, d2 in combos:
        vals = [window_mass_ratio(float(y), d1, d2, n, eta, alpha) for y in ys]
        if not all(b >= a - 1e-9 for a, b in zip(vals, vals[1:])):
            failures.append((n, eta, alpha, d1, d2))
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 10.0
    report("11", ok, f"windowed-mass ratio nondecreasing on 200-point grids "
                     f"({elapsed:.1f}s) {failures}")
    assert ok


def test_criterion_12_reproduce_determinism(tmp_path, monkeypatch, capsys):
    t0 = time.perf_counter()
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
    monkeypatch.chdir(tmp_path)
    assert cli_main(["reproduce", "--desk-scale", "--seed", "42",
                     "--out-dir", "w1", "--threads", "1"]) == 0
    assert cli_main(["reproduce", "--desk-scale", "--seed", "42",
                     "--out-dir", "w8", "--threads", "8"]) == 0
    capsys.readouterr()
    rel1 = sorted(p.relative_to(tmp_path / "w1")
                  for p in (tmp_path / "w1").rglob("*") if p.is_file())
    rel8 = sorted(p.relative_to(tmp_path / "w8")
                  for p in (tmp_path / "w8").rglob("*") if p.is_file())
    mismatched = []
    assert rel1 == rel8
    for rel in rel1:
        b1 = (tmp_path / "w1" / rel).read_bytes()
        b8 = (tmp_path / "w8" / rel).read_bytes()
        if rel.name == "manifest.json":
            # the manifest records the differing invocation (out-dir, threads)
            m1 = json.loads(b1)
            m8 = json.loads(b8)
            for m in (m1, m8):
                m.pop("command")
                m.pop("outputs")
                m["config"].pop("threads")
            if m1 != m8:
                mismatched.append(rel)
        elif b1 != b8:
            mismatched.append(rel)
    elapsed = time.perf_counter() - t0
    ok = not mismatched
    report("12", ok, f"desk-scale reproduction bit-identical at 1 and 8 workers "
                     f"({len(rel1)} files, {elapsed:.1f}s) {mismatched}")
    assert ok
