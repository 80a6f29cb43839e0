"""Command-line interface: outputs, exit codes, manifests, determinism."""

import csv
import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from entropy_lab import cli
from entropy_lab.cli import main
from entropy_lab.datasets import BOEING_PLANE_7907, BOEING_PLANE_7916
from entropy_lab.evaluate import CoverageResult
from entropy_lab.risk import SimResult


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

    def test_unknown_estimator_is_domain_error(self, capsys):
        code, out, err = run_cli(capsys, "risk", "--n", "8", "--reps", "100", "--seed", "1",
                                 "--estimators", "foo")
        assert code == 4
        assert out == ""
        assert "unknown estimators ['foo']" in err
        assert "baseline" not in err

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
        assert "4.6768" in text and "HPD" in text


class TestScales:
    def test_paper_scale_commands_match_reproduce(self, capsys, tmp_path, monkeypatch):
        # the configs each command hands the library, seeds set aside; the
        # campaigns themselves are not run
        seen = {"risk": [], "coverage": []}

        def fake_risk(cfg):
            seen["risk"].append(replace(cfg, master_seed=0))
            return SimResult(n=cfg.n, loss=cfg.loss, replications=cfg.replications,
                             master_seed=cfg.master_seed, baseline=cfg.baseline, cells=())

        def fake_coverage(cfg):
            seen["coverage"].append(replace(cfg, master_seed=0))
            return CoverageResult(rows=(), config=cfg)

        monkeypatch.setattr(cli, "simulate_risk", fake_risk)
        monkeypatch.setattr(cli, "coverage_study", fake_coverage)
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
