"""Command-line interface: outputs, exit codes, manifests, determinism."""

import csv
import json
import math
import multiprocessing
import platform
import re
import time
from dataclasses import replace
from functools import partial
from operator import itemgetter
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from entropy_lab import cli, evaluate, risk, workers
from entropy_lab.cli import main
from entropy_lab.datasets import BOEING_PLANE_7907, BOEING_PLANE_7916
from entropy_lab.errors import DataError, NumericError
from entropy_lab.estimators import ESTIMATOR_NAMES
from entropy_lab.evaluate import CoverageResult
from entropy_lab.numerics.rng import RngStream
from entropy_lab.risk import SimResult


@pytest.fixture(autouse=True)
def no_process_outlives_a_command():
    yield
    assert multiprocessing.active_children() == []


@pytest.fixture
def four_cpus(monkeypatch):
    """Let ``--threads`` start up to four worker processes whatever this
    machine has, so that the process path runs."""
    monkeypatch.setattr(workers, "_cpus", lambda: 4)


@pytest.fixture
def run_jobs_calls(monkeypatch):
    """(jobs, workers) of each run_jobs call that the package makes."""
    calls = []

    def counting(jobs, threads):
        jobs = list(jobs)
        calls.append((len(jobs), threads))
        return workers.run_jobs(jobs, threads)

    for module in (cli, risk, evaluate):
        monkeypatch.setattr(module, "run_jobs", counting)
    return calls


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def parse_table(stdout, column="tau"):
    return {r["estimator"]: float(r[column]) for r in csv.DictReader(stdout.splitlines())}


class TestEstimate:
    def test_boeing_l1(self, capsys):
        code, out, err = run_cli(capsys, "estimate", "--dataset", "boeing", "--loss", "l1")
        assert code == 0
        rows = parse_table(out)
        assert rows["baee"] == pytest.approx(4.7293, abs=5e-4)
        assert rows["stein"] == pytest.approx(4.6855, abs=5e-4)
        assert rows["umvue"] == rows["baee"]

    def test_boeing_linex(self, capsys):
        code, out, _ = run_cli(capsys, "estimate", "--dataset", "boeing",
                               "--loss", "linex", "--a1", "-3")
        assert code == 0
        assert parse_table(out)["baee"] == pytest.approx(4.8233, abs=5e-4)

    def test_entropy_mode(self, capsys):
        code, out, _ = run_cli(capsys, "estimate", "--dataset", "boeing", "--loss", "l1")
        assert code == 0
        want = 1.0 + math.log(2 * math.pi) + 2 * 4.729300217167414
        assert parse_table(out, "entropy")["baee"] == pytest.approx(want, abs=1e-3)

    def test_paired_csv_matches_dataset(self, capsys, tmp_path):
        f = tmp_path / "boeing.csv"
        f.write_text("sample1,sample2\n" + "".join(
            f"{a},{b}\n" for a, b in zip(BOEING_PLANE_7907, BOEING_PLANE_7916)))
        code, out, _ = run_cli(capsys, "estimate", "--csv", str(f))
        assert code == 0
        assert out == run_cli(capsys, "estimate", "--dataset", "boeing")[1]

    def test_ordering_warning(self, capsys, tmp_path):
        f1 = tmp_path / "high.txt"
        f2 = tmp_path / "low.txt"
        f1.write_text("101\n99\n100\n102\n98\n")
        f2.write_text("1\n-1\n0\n2\n-2\n")
        code, out, err = run_cli(capsys, "estimate", "--data1", str(f1),
                                 "--data2", str(f2), "--loss", "l1")
        assert code == 0
        assert "warning: ordering test rejects mu1 <= mu2" in err
        assert len(parse_table(out)) == 9

    def test_ordering_warning_bytes(self, capsys, tmp_path):
        # sample1 = 3..7 over sample2 = 1..5: t = 2 at df = 8
        f = tmp_path / "order.csv"
        f.write_text("sample1,sample2\n" + "".join(f"{a},{a - 2}\n" for a in range(3, 8)))
        code, out, err = run_cli(capsys, "estimate", "--csv", str(f), "--loss", "l1")
        assert code == 0 and len(parse_table(out)) == 9
        assert err == "# warning: ordering test rejects mu1 <= mu2 (p = 0.0403)\n"
        res = evaluate.t_test_ordered_means(range(3, 8), range(1, 6))
        assert res.statistic == pytest.approx(2.0, abs=1e-15)
        assert res.p_value == pytest.approx(float(stats.t.sf(2.0, 8)), abs=1e-12)

    def test_equal_samples_collapse_to_baselines(self, capsys, tmp_path):
        f1 = tmp_path / "a.txt"
        f2 = tmp_path / "b.txt"
        f1.write_text("1\n5\n9\n2\n")
        f2.write_text("1\n5\n9\n2\n")
        code, out, _ = run_cli(capsys, "estimate", "--data1", str(f1),
                               "--data2", str(f2), "--loss", "l1")
        assert code == 0
        rows = parse_table(out)
        assert rows["stein"] == rows["baee"]
        assert rows["pitman"] == rows["baee"]
        assert rows["improved_mle"] == rows["mle"]
        assert rows["rmle"] == rows["mle"]

    def test_linex_needs_a1(self, capsys):
        code, _, err = run_cli(capsys, "estimate", "--dataset", "boeing", "--loss", "linex")
        assert code == 2

    def test_missing_data(self, capsys):
        code, _, err = run_cli(capsys, "estimate", "--loss", "l1")
        assert code == 3

    def test_parse_error_reports_line(self, capsys, tmp_path):
        f1 = tmp_path / "bad.txt"
        f1.write_text("1.0\nx\n")
        code, _, err = run_cli(capsys, "estimate", "--data1", str(f1),
                               "--data2", str(f1), "--loss", "l1")
        assert code == 3
        assert "bad.txt:2" in err

    def test_csv_output_and_manifest(self, capsys, tmp_path):
        out = tmp_path / "est.csv"
        code, _, _ = run_cli(capsys, "estimate", "--dataset", "boeing",
                             "--loss", "l1", "--out", str(out))
        assert code == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 9
        manifest = json.loads(out.with_suffix(".csv.manifest.json").read_text())
        assert manifest["outputs"] == [str(out)]
        assert manifest["numpy_version"] == np.__version__
        assert manifest["python_version"] == platform.python_version()


class TestCi:
    def test_aci_json(self, capsys):
        code, out, _ = run_cli(capsys, "ci", "--dataset", "boeing", "--method", "aci")
        assert code == 0
        payload = json.loads(out)
        assert payload["method"] == "aci"
        assert payload["lower"] == pytest.approx(4.1864, abs=2e-4)
        assert payload["upper"] == pytest.approx(4.9865, abs=2e-4)

    def test_gci_seeded(self, capsys):
        args = ("ci", "--dataset", "boeing", "--method", "gci",
                "--draws", "50000", "--seed", "7")
        code1, out1, _ = run_cli(capsys, *args)
        code2, out2, _ = run_cli(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2
        payload = json.loads(out1)
        assert payload["lower"] == pytest.approx(4.319, abs=0.01)
        assert payload["upper"] == pytest.approx(5.240, abs=0.01)

    def test_hpd_contains_mle(self, capsys):
        code, out, _ = run_cli(capsys, "ci", "--dataset", "boeing", "--method", "hpd",
                               "--n-draws", "6000", "--burnin", "1000", "--seed", "4")
        assert code == 0
        payload = json.loads(out)
        assert payload["lower"] <= 4.586479 <= payload["upper"]
        assert "acceptance_rate" in payload["diagnostics"]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_hpd_acceptance_warning_is_one_plain_line(self, capsys):
        # at about 88 times the default proposal sd the chain accepts 3.8 %
        code, out, err = run_cli(capsys, "ci", "--dataset", "boeing", "--method", "hpd",
                                 "--proposal-sd", "1e6", "--seed", "42")
        assert code == 0
        assert err == "# warning: MH acceptance rate 0.038 outside [0.05, 0.7]\n"
        payload = json.loads(out)
        assert payload["diagnostics"]["acceptance_warning"] is True
        assert payload["diagnostics"]["acceptance_rate"] == 0.0379

    def test_boot_p_and_t_share_length(self, capsys):
        lengths = []
        for method in ("boot-p", "boot-t"):
            code, out, _ = run_cli(capsys, "ci", "--dataset", "boeing", "--method", method,
                                   "--boot-k", "2000", "--seed", "5")
            assert code == 0
            payload = json.loads(out)
            assert payload["method"] == method
            lengths.append(payload["length"])
        assert math.isfinite(lengths[0]) and lengths[0] > 0
        assert lengths[0] == lengths[1]

    def test_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "ci", "--dataset", "boeing")
        assert code == 2


class TestRisk:
    def test_missing_n_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "risk", "--eta-to", "1")
        assert code == 2

    def test_small_run_matches_oracle(self, capsys):
        code, out, _ = run_cli(capsys, "risk", "--n", "8", "--eta-from", "0",
                               "--eta-to", "0", "--reps", "30000", "--seed", "1",
                               "--estimators", "baee,stein")
        assert code == 0
        rows = list(csv.DictReader(out.splitlines()))
        baee = next(r for r in rows if r["estimator"] == "baee")
        assert float(baee["risk"]) == pytest.approx(0.0383863, abs=4 * float(baee["stderr"]))

    @pytest.mark.parametrize("n", ["8,x", ",", "6,6"])
    def test_bad_n_list_is_usage_error(self, capsys, n):
        code, _, err = run_cli(capsys, "risk", "--n", n, "--reps", "100", "--seed", "1")
        assert code == 2
        assert "usage error" in err

    def test_zero_eta_step_is_usage_error(self, capsys):
        for flag, value in (("--eta-step", "0"), ("--eta-step", "nan"), ("--eta-to", "nan"),
                            ("--eta-to", "inf")):
            code, out, err = run_cli(capsys, "risk", "--n", "8", flag, value,
                                     "--reps", "100", "--seed", "1")
            assert code == 2
            assert out == ""
            assert "invalid eta grid" in err

    def test_repeated_estimator_is_domain_error(self, capsys):
        code, out, err = run_cli(capsys, "risk", "--n", "8", "--eta-to", "0", "--reps", "100",
                                 "--seed", "1", "--estimators", "baee,baee")
        assert code == 4
        assert out == ""
        assert "repeat" in err

    def test_repeated_eta_is_domain_error(self, capsys):
        # a step below the grid's 10-place rounding gives four etas of 0.0
        code, out, err = run_cli(capsys, "risk", "--n", "8", "--eta-to", "3e-11",
                                 "--eta-step", "1e-11", "--reps", "100", "--seed", "1")
        assert code == 4
        assert out == ""
        assert "repeat" in err

    def test_unknown_estimator_is_domain_error(self, capsys):
        code, out, err = run_cli(capsys, "risk", "--n", "8", "--reps", "100", "--seed", "1",
                                 "--estimators", "foo")
        assert code == 4
        assert out == ""
        assert "unknown estimators ['foo']" in err
        assert "baseline" not in err

    def test_one_pool_for_every_n(self, capsys, four_cpus, run_jobs_calls):
        # every n's blocks go to one run_jobs call, and so to one pool
        argv = ("risk", "--n", "6,8", "--eta-to", "0.5", "--eta-step", "0.5",
                "--reps", "20000", "--seed", "1")
        code, pooled, _ = run_cli(capsys, *argv, "--threads", "2")
        assert code == 0
        assert run_jobs_calls == [(4, 2)]  # two blocks of 16,384 reps at each n
        assert run_cli(capsys, *argv) == (0, pooled, "")

    def test_multiple_n(self, capsys):
        code, out, _ = run_cli(capsys, "risk", "--n", "6,8", "--eta-from", "0",
                               "--eta-to", "0.5", "--eta-step", "0.5",
                               "--reps", "2000", "--seed", "1")
        assert code == 0
        rows = list(csv.DictReader(out.splitlines()))
        assert {r["n"] for r in rows} == {"6", "8"}


class TestCoverage:
    def test_runs_and_reports(self, capsys):
        code, out, _ = run_cli(capsys, "coverage", "--methods", "aci,gci", "--n", "10",
                               "--outer", "400", "--gci-draws", "400", "--seed", "3")
        assert code == 0
        rows = list(csv.DictReader(out.splitlines()))
        assert len(rows) == 2
        gci = next(r for r in rows if r["method"] == "gci")
        assert abs(float(gci["cp"]) - 0.95) < 0.05

    @pytest.mark.parametrize("flags", [("--methods", "gci", "--gci-draws", "0"),
                                       ("--methods", "boot-p", "--boot-k", "0")])
    def test_empty_inner_sample_is_domain_error(self, capsys, flags):
        code, _, err = run_cli(capsys, "coverage", "--n", "10", "--outer", "10",
                               "--seed", "1", *flags)
        assert code == 4
        assert "must be positive" in err

    @pytest.mark.parametrize("flags", [("--methods", "gci", "--gci-draws", "1"),
                                       ("--methods", "boot-p", "--boot-k", "1")])
    def test_one_inner_draw_is_domain_error(self, capsys, flags):
        code, out, err = run_cli(capsys, "coverage", "--n", "10", "--outer", "10",
                                 "--seed", "1", *flags)
        assert code == 4
        assert out == ""
        assert "need 2 or more" in err

    def test_non_integer_n_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "coverage", "--n", "10,a", "--outer", "10",
                               "--seed", "1", "--methods", "aci")
        assert code == 2
        assert "usage error" in err

    def test_empty_n_grid_is_domain_error(self, capsys):
        code, out, err = run_cli(capsys, "coverage", "--n", "", "--outer", "10",
                                 "--seed", "1", "--methods", "aci")
        assert code == 4
        assert out == ""
        assert "must not be empty" in err

    @pytest.mark.parametrize("n,methods", [("10", "aci,aci"), ("10,10", "gci")])
    def test_repeated_entry_is_domain_error(self, capsys, n, methods):
        code, out, err = run_cli(capsys, "coverage", "--n", n, "--outer", "10",
                                 "--seed", "1", "--methods", methods)
        assert code == 4
        assert out == ""
        assert "must not repeat" in err


@pytest.mark.parametrize("argv", [
    ("estimate", "--dataset", "boeing"),
    ("ci", "--dataset", "boeing", "--method", "gci", "--draws", "2000", "--seed", "4"),
    ("risk", "--n", "6,8", "--eta-to", "0.5", "--eta-step", "0.5", "--reps", "500",
     "--loss", "linex", "--a1", "-3", "--seed", "4"),
    ("coverage", "--methods", "aci,boot-p,boot-t", "--n", "6", "--outer", "50",
     "--boot-k", "100", "--seed", "4"),
])
def test_stdout_matches_out_file(capsys, tmp_path, argv):
    code, printed, _ = run_cli(capsys, *argv)
    assert code == 0
    out = tmp_path / "table.csv"
    code, silent, _ = run_cli(capsys, *argv, "--out", str(out))
    assert code == 0
    assert silent == ""
    assert out.read_text() == printed
    manifest = json.loads(out.with_suffix(".csv.manifest.json").read_text())
    assert manifest["outputs"] == [str(out)]


def _norm_manifest(path: Path) -> dict:
    m = json.loads(path.read_text())
    m.pop("command", None)
    m.pop("outputs", None)
    m.get("config", {}).pop("threads", None)
    return m


class TestReproduce:
    def test_bit_identical_same_flags(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
        d1 = tmp_path / "one"
        d2 = tmp_path / "two"
        d1.mkdir()
        d2.mkdir()
        monkeypatch.chdir(d1)
        assert main(["reproduce", "--desk-scale", "--seed", "42", "--out-dir", "r"]) == 0
        monkeypatch.chdir(d2)
        assert main(["reproduce", "--desk-scale", "--seed", "42", "--out-dir", "r"]) == 0
        capsys.readouterr()
        files1 = sorted(p.relative_to(d1) for p in (d1 / "r").rglob("*") if p.is_file())
        files2 = sorted(p.relative_to(d2) for p in (d2 / "r").rglob("*") if p.is_file())
        assert files1 == files2
        for rel in files1:
            assert (d1 / rel).read_bytes() == (d2 / rel).read_bytes(), rel

    def test_worker_count_does_not_change_tables(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
        monkeypatch.chdir(tmp_path)
        assert main(["reproduce", "--desk-scale", "--seed", "42",
                     "--out-dir", "w1", "--threads", "1"]) == 0
        assert main(["reproduce", "--desk-scale", "--seed", "42",
                     "--out-dir", "w8", "--threads", "8"]) == 0
        capsys.readouterr()
        t1 = sorted(p.relative_to(tmp_path / "w1")
                    for p in (tmp_path / "w1").rglob("*")
                    if p.is_file() and p.name != "manifest.json")
        t8 = sorted(p.relative_to(tmp_path / "w8")
                    for p in (tmp_path / "w8").rglob("*")
                    if p.is_file() and p.name != "manifest.json")
        assert t1 == t8
        for rel in t1:
            assert (tmp_path / "w1" / rel).read_bytes() == (tmp_path / "w8" / rel).read_bytes(), rel
        # manifests agree once the recorded invocation details are set aside
        assert _norm_manifest(tmp_path / "w1" / "manifest.json") == \
            _norm_manifest(tmp_path / "w8" / "manifest.json")

    def test_tables_identical_at_one_two_and_three_workers(self, capsys, tmp_path, monkeypatch,
                                                          four_cpus):
        monkeypatch.chdir(tmp_path)
        tables = []
        for threads in ("1", "2", "3"):
            assert main(["reproduce", "--desk-scale", "--seed", "42", "--out-dir", threads,
                         "--threads", threads]) == 0
            tables.append({p.name: p.read_bytes() for p in (tmp_path / threads).rglob("*")
                           if p.is_file() and p.name != "manifest.json"})
        capsys.readouterr()
        assert len(tables[0]) == 8
        assert tables[0] == tables[1] == tables[2]

    def test_non_finite_field_is_a_numeric_error(self, capsys, tmp_path, monkeypatch):
        def stub(n_values, **cfg):
            return [], lambda blocks: "n,eta,loss,a1,estimator,risk,stderr,bias,rri\n" + "".join(
                f"{n},0.0,l1,,baee,{'nan' if n == 15 else 0.5},0.1,0.0,0.0\n" for n in n_values)

        monkeypatch.setattr(cli, "_risk_table", stub)
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(capsys, "reproduce", "--desk-scale", "--seed", "1",
                                 "--out-dir", "out")
        assert code == 4
        assert "risk_rri_l1.csv, line 3" in err and "nan" in err
        # the check runs before the first file is written
        assert not any((tmp_path / "out" / "tables").iterdir())

    def test_non_finite_field_on_stdout_is_a_numeric_error(self, capsys, monkeypatch):
        # the command that prints a table takes the same guard
        monkeypatch.setattr(cli, "_risk_table",
                            lambda n_values, **cfg: ([], lambda blocks: "n,risk\n8,-inf\n"))
        code, out, err = run_cli(capsys, "risk", "--n", "8", "--seed", "1")
        assert (code, out) == (4, "")
        assert "stdout, line 2: 8,-inf" in err

    def test_estimate_prints_point_table(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["reproduce", "--desk-scale", "--seed", "1", "--out-dir", "out"]) == 0
        capsys.readouterr()
        code, out, _ = run_cli(capsys, "estimate", "--dataset", "boeing")
        assert code == 0
        assert out == (tmp_path / "out" / "tables" / "point_estimates_boeing.csv").read_text()

    def test_discrepancies_written(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["reproduce", "--desk-scale", "--seed", "1", "--out-dir", "out"]) == 0
        capsys.readouterr()
        text = (tmp_path / "out" / "DISCREPANCIES.md").read_text()
        assert "4.6768" in text and "HPD" in text and "improved_rmle" in text


class TestScales:
    def test_paper_scale_commands_match_reproduce(self, capsys, tmp_path, monkeypatch):
        # the configs each command hands the library, seeds set aside; the
        # campaigns themselves are not run
        seen = {"risk": [], "coverage": []}

        def fake_risk_jobs(cfg):
            seen["risk"].append(replace(cfg, master_seed=0))
            return []

        def fake_fold_risk(cfg, blocks):
            return SimResult(n=cfg.n, loss=cfg.loss, replications=cfg.replications,
                             master_seed=cfg.master_seed, baseline=cfg.baseline, cells=())

        def fake_coverage_jobs(cfg):
            seen["coverage"].append(replace(cfg, master_seed=0))
            return []

        monkeypatch.setattr(cli, "risk_jobs", fake_risk_jobs)
        monkeypatch.setattr(cli, "fold_risk", fake_fold_risk)
        monkeypatch.setattr(cli, "coverage_jobs", fake_coverage_jobs)
        monkeypatch.setattr(cli, "fold_coverage",
                            lambda cfg, blocks: CoverageResult(rows=(), config=cfg))
        monkeypatch.chdir(tmp_path)
        common = ("--seed", "1", "--threads", "1")
        assert run_cli(capsys, "reproduce", "--paper-scale", "--out-dir", "rep", *common)[0] == 0
        reproduced = {key: list(cfgs) for key, cfgs in seen.items()}
        for cfgs in seen.values():
            cfgs.clear()
        assert run_cli(capsys, "risk", "--paper-scale", *common)[0] == 0
        assert run_cli(capsys, "risk", "--paper-scale", "--loss", "linex", "--a1", "-3",
                       *common)[0] == 0
        assert run_cli(capsys, "coverage", "--paper-scale", *common)[0] == 0
        assert seen["risk"] == reproduced["risk"][:8]
        assert seen["coverage"] == reproduced["coverage"]
        assert [c.n for c in seen["risk"]] == [8, 15, 21, 26] * 2
        assert {(c.replications, len(c.eta_grid)) for c in seen["risk"]} == {(70_000, 21)}
        assert seen["coverage"][0].outer_reps == 30_000


class TestOneJobList:
    def test_reproduce_runs_every_block_in_one_call(self, capsys, tmp_path, monkeypatch,
                                                     run_jobs_calls):
        # the Boeing tables, two coverage blocks of 512 and 88 replications
        # at each n, and two risk blocks at each n of three tables
        monkeypatch.chdir(tmp_path)
        assert run_cli(capsys, "reproduce", "--desk-scale", "--seed", "42", "--threads",
                       "1")[0] == 0
        assert run_jobs_calls == [(1 + 2 + 3 * 4, 1)]

    def test_coverage_runs_its_blocks_in_one_call(self, capsys, run_jobs_calls):
        code, _, _ = run_cli(capsys, "coverage", "--n", "10,20", "--outer", "600",
                             "--methods", "aci,gci", "--seed", "1", "--threads", "2")
        assert code == 0
        assert run_jobs_calls == [(2, 2)]

    @pytest.mark.parametrize("threads", [1, 2])
    def test_each_fold_gets_its_own_results_in_order(self, four_cpus, threads):
        tables = [([partial(abs, -1)], list),
                  ([partial(abs, -k) for k in (2, 3, 4)], tuple),
                  ([], list),
                  ([partial(abs, -5)], itemgetter(0)),
                  ([partial(abs, -6), partial(abs, -7)], list)]
        assert cli._run_tables(tables, threads) == [[1], (2, 3, 4), [], 5, [6, 7]]


@pytest.mark.parametrize("argv", [
    ("coverage", "--n", "10,20", "--outer", "600", "--seed", "42", "--gci-draws", "200",
     "--boot-k", "200", "--mcmc-n", "600", "--mcmc-burnin", "100"),
    ("risk", "--n", "6,9", "--estimators", "baee,stein,bz,pitman", "--baseline", "stein",
     "--reps", "20000", "--eta-step", "1", "--seed", "42"),
])
def test_commands_print_the_same_at_one_and_two_workers(capsys, four_cpus, argv):
    one = run_cli(capsys, *argv, "--threads", "1")
    assert one[0] == 0
    assert run_cli(capsys, *argv, "--threads", "2") == one


def _failing_stream(error, seed, index):
    """``RngStream`` for the coverage study, failing in blocks 1 and 2;
    block 1 fails last."""
    ib = (index >> 3) & ((1 << 25) - 1)
    if ib in (1, 2):
        time.sleep(0.3 if ib == 1 else 0.0)
        raise error(f"block {ib} failed")
    return RngStream(seed, index)


# the patched stream reaches the workers by fork
@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(), reason="no fork")
@pytest.mark.parametrize("error, code", [(DataError, 3), (NumericError, 4)])
def test_worker_error_exits_as_in_process(capsys, monkeypatch, four_cpus, error, code):
    monkeypatch.setattr(evaluate, "RngStream", lambda *key: _failing_stream(error, *key))
    argv = ("coverage", "--n", "10,20", "--outer", "1500", "--seed", "1", "--methods", "aci")
    one = run_cli(capsys, *argv, "--threads", "1")
    assert one == (code, "", one[2])
    assert one[2].endswith("block 1 failed\n")
    assert run_cli(capsys, *argv, "--threads", "2") == one


@pytest.mark.parametrize("threads", ["0", "-3"])
@pytest.mark.parametrize("argv", [
    ("risk", "--n", "8", "--eta-to", "0", "--reps", "100", "--seed", "1"),
    ("coverage", "--n", "10", "--outer", "10", "--seed", "1", "--methods", "aci"),
    ("reproduce", "--seed", "1"),
])
def test_non_positive_threads_is_usage_error(capsys, tmp_path, monkeypatch, argv, threads):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, *argv, "--threads", threads)
    assert code == 2
    assert out == ""
    assert "--threads" in err and "positive" in err
    assert not any(tmp_path.iterdir())


# inputs whose arithmetic overflows, each with its documented exit code;
# HUGE stands for a paired CSV of two samples of three values near 1e200
_OVERFLOWING_INPUTS = [
    pytest.param(("estimate", "--dataset", "boeing", "--loss", "linex", "--a1", "1e308"), 4,
                 id="estimate-a1-1e308"),
    pytest.param(("estimate", "--dataset", "boeing", "--loss", "linex", "--a1=-1e308"), 4,
                 id="estimate-a1-minus-1e308"),
    pytest.param(("estimate", "--csv", "HUGE"), 3, id="estimate-huge"),
    *(pytest.param(("ci", "--method", m, "--csv", "HUGE", "--seed", "1"), 3, id=f"ci-{m}-huge")
      for m in ("aci", "gci", "boot-p", "boot-t", "hpd")),
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv, want", _OVERFLOWING_INPUTS)
def test_overflowing_input_prints_no_non_finite_number(capsys, tmp_path, argv, want):
    huge = tmp_path / "huge.csv"
    huge.write_text("sample1,sample2\n1e200,1.5e200\n2e200,2.5e200\n3e200,3.1e200\n")
    code, out, err = run_cli(capsys, *(str(huge) if a == "HUGE" else a for a in argv))
    assert code == want
    assert not re.search(r"\b(inf|nan|infinity)\b", out + err, re.IGNORECASE)


def _scaled_csv(path, exponent: int):
    """Two samples of three values scaled by 10^exponent, as a paired CSV."""
    scale = 10.0 ** exponent
    path.write_text("sample1,sample2\n" + "".join(
        f"{a * scale!r},{b * scale!r}\n" for a, b in ((1.0, 1.5), (2.0, 2.5), (3.0, 4.0))))
    return str(path)


# data scales from 1e-300 to 1e300: SS0 underflows from about 1e-154 down and
# is rescaled by a power of two; from about 1e154 up SS0 overflows (exit 3)
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("exponent, want", [(-300, 0), (-250, 0), (-200, 0), (-150, 0),
                                            (150, 0), (200, 3), (250, 3), (300, 3)])
def test_estimate_across_data_scales(capsys, tmp_path, exponent, want):
    code, unit, _ = run_cli(capsys, "estimate", "--loss", "all",
                            "--csv", _scaled_csv(tmp_path / "unit.csv", 0))
    assert code == 0
    code, out, err = run_cli(capsys, "estimate", "--loss", "all",
                             "--csv", _scaled_csv(tmp_path / "scaled.csv", exponent))
    assert code == want
    if want:
        assert "overflows" in err and out == ""
        return
    rows, unit_rows = (list(csv.DictReader(t.splitlines())) for t in (out, unit))
    assert len(rows) == len(unit_rows) == len(cli._ALL_LOSSES) * len(ESTIMATOR_NAMES)
    for row, unit_row in zip(rows, unit_rows):
        # every estimate is ln S + phi(W), W scale-free: only ln S moves
        assert float(row["tau"]) == pytest.approx(
            float(unit_row["tau"]) + exponent * math.log(10.0), abs=1e-9)
        assert math.isfinite(float(row["entropy"]))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("method, want", [("aci", 0), ("gci", 0), ("boot-p", 0), ("boot-t", 0),
                                          ("hpd", 3)])
def test_ci_on_data_whose_sum_of_squares_underflows(capsys, tmp_path, method, want):
    # aci, gci and boot read n and ln S; hpd's proposal scale reads S^2
    # itself, which underflows
    code, out, err = run_cli(capsys, "ci", "--method", method, "--seed", "1",
                             "--csv", _scaled_csv(tmp_path / "tiny.csv", -200))
    assert code == want
    if want:
        assert "underflows" in err
    else:
        assert all(math.isfinite(v) for v in json.loads(out).values() if isinstance(v, float))


# data scales from 1e-150 down: the hpd chain steps u = sigma^2 / (S^2/2),
# whatever the scale, so only S^2 itself bounds it; below about 1e-154 S^2
# underflows, and each such scale is a data error
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("exponent", range(-150, -161, -1))
def test_hpd_across_small_data_scales(capsys, tmp_path, exponent):
    code, out, err = run_cli(capsys, "ci", "--method", "hpd", "--seed", "1",
                             "--csv", _scaled_csv(tmp_path / "tiny.csv", exponent))
    assert code == (0 if exponent >= -154 else 3)
    if code:
        assert "pooled sum of squares underflows" in err and out == ""
    else:
        result = json.loads(out)
        assert all(math.isfinite(result[k]) for k in ("lower", "upper", "length"))


# a proposal sd is given in sigma^2 units and the chain divides it by S^2/2:
# on tiny data it overflows to inf, whose proposals all fail, so the chain
# never moves and its one-point trace is refused with exit 4; the default sd
# scales with the data and gives a finite interval with no warning
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("sd", [None, "1e10", "1e300"])
@pytest.mark.parametrize("exponent", [-150, -153, -153.5])
def test_hpd_proposal_sd_on_tiny_data(capsys, tmp_path, exponent, sd):
    code, out, err = run_cli(capsys, "ci", "--method", "hpd", "--seed", "1",
                             "--csv", _scaled_csv(tmp_path / "tiny.csv", exponent),
                             *(() if sd is None else ("--proposal-sd", sd)))
    if sd is not None:
        assert code == 4 and out == ""
        assert err == "numeric error: MH chain never moved: acceptance 0 after burn-in\n"
        return
    assert code == 0 and err == ""
    result = json.loads(out)
    assert all(math.isfinite(result[k]) for k in ("lower", "upper", "length"))


# the adversarial-input table: every command that reads data, on data
# scaled by 10^e and on CSV fields that read as non-finite floats, the
# linex asymmetry at the float range's end, and bz past the sample sizes its
# kernel integral reaches.  Each case exits 0 printing only
# finite numbers, or exits with its documented code and message and prints
# nothing.  aci, gci and boot read ln S; hpd reads S^2, which underflows
# from about 1e-154 down; from about 1e154 up S^2 overflows for every method.
def _scale_cases():
    for e in (-300, -250, -200, -150, 150, 200, 250, 300):
        big = (3, "pooled sum of squares overflows") if e > 154 else (0, "")
        yield pytest.param(("estimate", "--csv", f"SCALED{e}"), *big, id=f"estimate-1e{e}")
        for m in ("aci", "gci", "boot-p", "boot-t", "hpd"):
            want = big
            if e < -154 and m == "hpd":
                want = (3, "pooled sum of squares underflows")
            yield pytest.param(("ci", "--method", m, "--seed", "1", "--csv", f"SCALED{e}"),
                               *want, id=f"ci-{m}-1e{e}")


_ADVERSARIAL_INPUTS = [
    *_scale_cases(),
    *(pytest.param(("estimate", "--dataset", "boeing", "--loss", "linex", f"--a1={a1}"),
                   4, "linex shift", id=f"estimate-a1-{a1}") for a1 in ("1e308", "-1e308")),
    # below |a1| = 1e-3 the shift constants' ln Gamma difference cancels
    *(pytest.param(("estimate", "--dataset", "boeing", "--loss", "linex", f"--a1={a1}"),
                   4, "|a1| >= 1e-3", id=f"estimate-a1-{a1}") for a1 in ("1e-300", "1e-12")),
    # (1 + level)/2 rounds to 1, where the normal quantile is infinite
    pytest.param(("ci", "--method", "aci", "--dataset", "boeing",
                  "--level", "0.9999999999999999"), 4, "below 1", id="ci-aci-level-p-one"),
    *(pytest.param((cmd, *flags, "--csv", f"FIELD{field}"), 3, "non-finite values",
                   id=f"{cmd}-csv-{field}")
      for cmd, flags in (("estimate", ()), ("ci", ("--method", "hpd", "--seed", "1")))
      for field in ("nan", "inf", "-inf", "NaN", "Infinity")),
    # bz's kernel integral J(n - 1/2, 0) underflows from n near 1,075
    pytest.param(("estimate", "--csv", "LONG1100"), 4, "l1 shift is not finite",
                 id="estimate-n-1100"),
    pytest.param(("risk", "--n", "1100", "--reps", "10", "--seed", "1", "--eta-to", "0"), 4,
                 "l1 shift is not finite", id="risk-n-1100"),
    # the chi-square quantile at df = 2n - 2 = 15,998 (gci, boot) and pitman's
    # median at 2n - 1 = 7,699, where the incomplete gamma sums need about
    # 8.5 sqrt(df/2) terms and P's front carries about 1e-12 relative error
    *(pytest.param(("ci", "--method", m, "--seed", "1", "--csv", "LONG8000"), 0, "",
                   id=f"ci-{m}-n-8000") for m in ("gci", "boot-p", "boot-t")),
    pytest.param(("risk", "--n", "3850", "--estimators", "baee,pitman", "--reps", "2000",
                  "--seed", "1", "--eta-to", "0"), 0, "", id="risk-pitman-n-3850"),
    # an eta grid is counted before it is formed: a step of 5e-324 makes the
    # count infinite, and 1e-9 over the default [0, 5] makes it 5,000,000,001
    *(pytest.param(("risk", "--n", "8", "--reps", "100", "--seed", "1", "--eta-step", step), 2,
                   "at most 1000 points", id=f"risk-eta-step-{step}")
      for step in ("5e-324", "1e-9")),
    # a proposal sd that overflows in units of S^2/2: no proposal is accepted
    pytest.param(("ci", "--method", "hpd", "--seed", "1", "--proposal-sd", "1e10",
                  "--csv", "SCALED-150"), 4, "MH chain never moved", id="ci-hpd-never-moves"),
]


def _finite_numbers(text: str) -> bool:
    """Whether every field of a CSV or JSON text that reads as a float is finite."""
    if text.lstrip().startswith("{"):
        fields = [v for v in json.loads(text).values() if isinstance(v, (int, float))]
    else:
        fields = []
        for row in csv.reader(text.splitlines()):
            for cell in row:
                try:
                    fields.append(float(cell))
                except ValueError:
                    pass
    return bool(fields) and all(map(math.isfinite, fields))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv, want, message", _ADVERSARIAL_INPUTS)
def test_adversarial_input_exits_clean_or_documented(capsys, tmp_path, argv, want, message):
    def resolve(arg):
        if arg.startswith("SCALED"):
            return _scaled_csv(tmp_path / "scaled.csv", int(arg[6:]))
        if arg.startswith("LONG"):
            path = tmp_path / "long.csv"
            path.write_text("sample1,sample2\n" + "".join(
                f"{math.sin(k)!r},{math.cos(k)!r}\n" for k in range(int(arg[4:]))))
            return str(path)
        if arg.startswith("FIELD"):
            path = tmp_path / "field.csv"
            path.write_text(f"sample1,sample2\n1.0,1.5\n{arg[5:]},2.5\n3.0,4.0\n")
            return str(path)
        return arg

    code, out, err = run_cli(capsys, *map(resolve, argv))
    assert code == want
    if want:
        assert message in err and out == ""
    else:
        assert _finite_numbers(out)


def test_json_text_refuses_non_finite():
    assert cli._json_text({"x": 1.5}) == json.dumps({"x": 1.5}, indent=2) + "\n"
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(NumericError, match="non-finite"):
            cli._json_text({"x": bad})


class TestMisc:
    def test_version(self, capsys):
        code, out, _ = run_cli(capsys, "--version")
        assert code == 0

    def test_no_command_usage(self, capsys):
        code, _, _ = run_cli(capsys)
        assert code == 2

    def test_seed_reported_when_generated(self, capsys):
        code, out, err = run_cli(capsys, "risk", "--n", "6", "--eta-to", "0",
                                 "--reps", "500")
        assert code == 0
        assert "seed" in err
