"""The three benchmark workloads, their correctness gates and the
thread-scaling probe.

Each workload is a closed loop with one client: a pass starts after the
previous one ends.  Inputs are generated configs, derived from the run's
seed; the package is driven only through its public calls.

* ``risk-paper``     simulate_risk on the paper grid, threads=1.  Set-up
                     fills the BzTable cache.
* ``coverage-paper`` coverage_study with all five methods at the paper's
                     inner sizes, threads=1.
* ``reproduce-desk`` ``entropy-lab reproduce --desk-scale --threads nproc``
                     in a fresh child process per pass.
"""

from __future__ import annotations

import hashlib
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import oracles
from spans import coverage_attrs, maybe_span

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

K_SIGMA = 5.0            # Monte Carlo gates allow this many standard errors
FINITE_K_ALLOWANCE = 0.005  # CP gap of K=3000 resamples / 10k pivot draws from K -> inf
LEVEL = 0.95
# boot-p and boot-t share resamples and quantiles, so their AL agree but for
# rounding: coverage_study sums boot-t lengths as (lower + length) - lower,
# which is off from length by about an ulp of the endpoints, and the sums
# over a block round further.  Other resamples or quantiles would differ by
# ~1e-3, many orders of magnitude above this bound.
BOOT_AL_MAX_ULPS = 64

RISK_N = (8, 15, 21, 26)
RISK_ETAS = tuple(0.25 * i for i in range(21))
RISK_RULES = ("baee", "umvue", "mle", "rmle", "stein", "improved_mle",
              "improved_rmle", "bz", "pitman")
RISK_REPS = 3 * 16_384   # three engine blocks per (n, loss)
RISK_TARGET_STDERR = 1e-4

COV_N = (10, 20, 40)
COV_METHODS = ("aci", "gci", "boot-p", "boot-t", "hpd")
COV_GROUPS = (("aci",), ("gci",), ("boot-p", "boot-t"), ("hpd",))
COV_OUTER = 128          # one partial block of 128 outer reps per n
COV_INNER = {"gci_draws": 10_000, "boot_k": 3_000, "mcmc_n": 10_000, "mcmc_burnin": 2_000}
COV_TARGET_STDERR = 1e-3

CHILD_TIMEOUT_S = 150.0


def derive_seed(seed: int, *parts) -> int:
    """A 63-bit seed from the run seed and a label, stable across runs."""
    digest = hashlib.sha256(repr((seed,) + parts).encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


def digest_of(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return env


def run_child(argv: list[str], log: Path) -> tuple[float, int, float]:
    """Run a child to completion: (wall seconds, exit code, peak RSS in MB).

    The child is reaped with wait4 so its own peak RSS is known; a timer
    kills it if it outlives ``CHILD_TIMEOUT_S``.
    """
    with open(log, "wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT,
                                env=child_env(), cwd=ROOT)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        seconds = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return seconds, proc.returncode, usage.ru_maxrss / 1024.0


class Ledger:
    """Operations attempted and failed; fail_frac = failed / attempted."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def fail(self, what: str, count: int = 1) -> None:
        self.failed += count
        if len(self.errors) < 10:
            self.errors.append(what)


class Gates:
    """Named correctness checks; the run is correct when every gate ran and
    none failed.  ``score`` keeps the worst margin seen, e.g. |z|."""

    def __init__(self) -> None:
        self._g: dict[str, list] = {}

    def check(self, name: str, ok: bool, score: float = 0.0) -> None:
        g = self._g.setdefault(name, [0, 0, 0.0])
        g[0] += 1
        g[1] += 0 if ok else 1
        g[2] = max(g[2], score) if math.isfinite(score) else math.inf

    def all_ok(self) -> bool:
        return bool(self._g) and all(g[1] == 0 for g in self._g.values())

    def lines(self) -> list[str]:
        return [f"gate {name:32s} {'ok' if g[1] == 0 else 'FAIL'}  "
                f"({g[0] - g[1]}/{g[0]} checks, worst {g[2]:.3g})"
                for name, g in self._g.items()]


def _finite(*values) -> bool:
    return all(math.isfinite(v) for v in values)


class Workload:
    """Shared shape of the workloads.  ``in_process`` ones run their passes
    inside the benchmark process; the others start a child per pass."""

    name = ""
    target_stderr = 1.0
    in_process = True

    def __init__(self, el, seed: int, work: Path) -> None:
        self.el = el
        self.seed = seed
        self.work = work
        self.ledger = Ledger()
        self.gates = Gates()
        self.stderrs: list[float] = []

    def typical_stderr(self) -> float:
        """Geometric mean of the reported stderrs of risk cells.  Cells of
        different n and loss form clusters a decade apart, and a median
        sitting between two of them swings with the seed; the geometric mean
        weighs every cell."""
        return math.exp(statistics.fmean(math.log(se) for se in self.stderrs))

    def setup_times(self, repeats: int) -> list[float]:
        """Set up ``repeats`` times, each in a fresh interpreter: import,
        configs and warm-up, as a user's process pays them."""
        times = []
        for r in range(repeats):
            seconds, code, _ = run_child(
                [sys.executable, str(BENCH_DIR / "child.py"), "setup", self.name],
                self.work / f"setup{r}.log")
            self.ledger.attempted += 1
            if code != 0:
                self.ledger.fail(f"set-up child exited with {code}")
            times.append(seconds)
        return times

    def warm_up(self) -> None:
        pass

    def finish(self) -> None:
        pass


class RiskPaper(Workload):
    name = "risk-paper"
    target_stderr = RISK_TARGET_STDERR

    def configs(self, master_seed: int, reps: int):
        el = self.el
        for loss in (el.Loss.squared_error(), el.Loss.linex(-3.0)):
            for n in RISK_N:
                yield el.SimConfig(n=n, eta_grid=RISK_ETAS, loss=loss, replications=reps,
                                   master_seed=master_seed, estimators=RISK_RULES,
                                   baseline="baee", threads=1)

    def warm_up(self) -> None:
        for cfg in self.configs(0, 64):
            self.el.simulate_risk(cfg)

    def run_pass(self, i: int, tracer=None) -> tuple[float, str]:
        el = self.el
        results = []
        t0 = time.perf_counter()
        for cfg in self.configs(derive_seed(self.seed, self.name, i), RISK_REPS):
            self.ledger.attempted += 1
            try:
                with maybe_span(tracer, "risk.simulate_risk", stage="risk"):
                    results.append(el.simulate_risk(cfg))
            except (el.NumericError, el.DataError) as exc:
                self.ledger.fail(f"simulate_risk n={cfg.n}: {exc}")
        seconds = time.perf_counter() - t0
        for res in results:
            self._check(res)
        return seconds, digest_of(results)

    def _check(self, res) -> None:
        el, g = self.el, self.gates
        cf_risk = el.closed_form_risk_baee(res.loss, res.n)
        cf_bias = el.closed_form_bias_baee(res.loss, res.n)
        by_key = {(c.estimator, c.eta): c for c in res.cells}
        g.check("risk.cells_finite", all(
            _finite(c.risk, c.stderr, c.bias, c.bias_stderr, c.rri, c.diff_vs_baseline,
                    c.diff_stderr) for c in res.cells))
        for c in res.cells:
            self.stderrs.append(c.stderr)
            if c.estimator == "baee":
                z = abs(c.risk - cf_risk) / c.stderr
                g.check("risk.baee_risk_vs_closed_form", z <= K_SIGMA, z)
                zb = abs(c.bias - cf_bias) / c.bias_stderr
                g.check("risk.baee_bias_vs_closed_form", zb <= K_SIGMA, zb)
            if c.estimator == "umvue" and res.loss.kind == "squared_error":
                b = by_key[("baee", c.eta)]
                g.check("risk.umvue_equals_baee_l1",
                        (c.risk, c.stderr, c.bias) == (b.risk, b.stderr, b.bias))


class CoveragePaper(Workload):
    name = "coverage-paper"
    target_stderr = COV_TARGET_STDERR

    def __init__(self, el, seed: int, work: Path) -> None:
        super().__init__(el, seed, work)
        self.pooled: dict[tuple[str, int], list[int]] = {}

    def config(self, methods, master_seed: int, outer: int = COV_OUTER, **inner):
        return self.el.CoverageConfig(n_grid=COV_N, methods=tuple(methods), outer_reps=outer,
                                      level=LEVEL, sigma=1.0, master_seed=master_seed,
                                      threads=1, **(inner or COV_INNER))

    def warm_up(self) -> None:
        self.el.coverage_study(self.config(COV_METHODS, 0, outer=4, gci_draws=1_000,
                                           boot_k=100, mcmc_n=1_100, mcmc_burnin=100))

    def _study(self, methods, master_seed: int, tracer) -> list:
        el = self.el
        cfg = self.config(methods, master_seed)
        ops = cfg.outer_reps * len(cfg.n_grid) * len(cfg.methods)
        self.ledger.attempted += ops
        try:
            with maybe_span(tracer, "evaluate.coverage_study", **coverage_attrs(cfg)) as sp:
                res = el.coverage_study(cfg)
                failures = sum(r.failures for r in res.rows)
                if sp is not None:
                    sp.attrs["failures"] = failures
        except (el.NumericError, el.DataError) as exc:
            self.ledger.fail(f"coverage_study {methods}: {exc}", ops)
            return []
        if failures:
            self.ledger.fail(f"coverage_study {methods}: {failures} non-finite intervals",
                             failures)
        return list(res.rows)

    def run_pass(self, i: int, tracer=None) -> tuple[float, str]:
        master_seed = derive_seed(self.seed, self.name, i)
        t0 = time.perf_counter()
        if tracer is None:
            rows = self._study(COV_METHODS, master_seed, None)
        else:
            # the boot branch is inline in coverage_study, so method groups run
            # one at a time; streams are keyed by method slot, so the rows are
            # the full run's rows
            by_key = {(r.method, r.n): r for group in COV_GROUPS
                      for r in self._study(group, master_seed, tracer)}
            rows = [by_key[(m, n)] for n in COV_N for m in COV_METHODS if (m, n) in by_key]
        seconds = time.perf_counter() - t0
        self._check(rows)
        return seconds, digest_of(rows)

    def _check(self, rows) -> None:
        g = self.gates
        g.check("coverage.all_rows_present", len(rows) == len(COV_N) * len(COV_METHODS))
        by_key = {(r.method, r.n): r for r in rows}
        for r in rows:
            self.stderrs.append(r.cp_stderr)
            g.check("coverage.cells_finite", _finite(r.cp, r.cp_stderr, r.al, r.pcd))
            good = COV_OUTER - r.failures
            acc = self.pooled.setdefault((r.method, r.n), [0, 0])
            acc[0] += round(r.cp * good)
            acc[1] += good
        for n in COV_N:
            bp, bt, a = by_key.get(("boot-p", n)), by_key.get(("boot-t", n)), by_key.get(("aci", n))
            if bp and bt:
                ulps = abs(bp.al - bt.al) / math.ulp(bp.al)
                g.check("coverage.boot_t_al_ulps_from_boot_p", ulps <= BOOT_AL_MAX_ULPS, ulps)
            if a:
                h2 = 2.0 * oracles.aci_half_width(n, LEVEL)
                rel = abs(a.al - h2) / h2
                g.check("coverage.aci_al_closed_form", rel <= 1e-9, rel)

    def typical_stderr(self) -> float:
        """Root mean square of the cp_stderr every row of every pass reports.
        Rows share one scale, and a row whose pass covered every rep reports
        zero, which a geometric mean cannot take."""
        return math.sqrt(statistics.fmean(se * se for se in self.stderrs))

    def finish(self) -> None:
        """Pooled CP over every pass of the run against its limit."""
        limits = {"aci": (oracles.aci_cp_limit, 0.0),
                  "boot-p": (oracles.boot_p_cp_limit, FINITE_K_ALLOWANCE),
                  "gci": (lambda n, level: level, FINITE_K_ALLOWANCE),
                  "boot-t": (lambda n, level: level, FINITE_K_ALLOWANCE)}
        for (method, n), (contains, good) in sorted(self.pooled.items()):
            if method not in limits or good == 0:
                continue
            limit_fn, allowance = limits[method]
            p = limit_fn(n, LEVEL)
            se = math.sqrt(p * (1.0 - p) / good)
            gap = abs(contains / good - p)
            z = max(0.0, gap - allowance) / se
            self.gates.check(f"coverage.{method}_cp_vs_limit", z <= K_SIGMA, z)


class ReproduceDesk(Workload):
    """``entropy-lab reproduce --desk-scale`` in a fresh process per pass."""

    name = "reproduce-desk"
    target_stderr = RISK_TARGET_STDERR
    in_process = False
    # The typical stderr comes from the squared-error table alone: at desk
    # scale the linex(-3) cells rest on 20k draws of a loss growing like
    # e^{3|t|}, and their reported stderr moves by several percent per seed.
    accuracy_table = "risk_rri_l1.csv"

    def __init__(self, el, seed: int, work: Path) -> None:
        super().__init__(el, seed, work)
        self.threads = nproc()
        self.cli_seed = derive_seed(seed, self.name)
        self.reference: dict[str, bytes] | None = None
        self.rss_mb: list[float] = []
        self.bytes_written: list[int] = []

    def cli_args(self, threads: int, out: Path) -> list[str]:
        return ["reproduce", "--desk-scale", "--threads", str(threads),
                "--seed", str(self.cli_seed), "--out-dir", str(out)]

    def _run(self, tag: str, threads: int, traced: bool) -> tuple[float, dict, float]:
        out = self.work / tag
        shutil.rmtree(out, ignore_errors=True)
        if traced:
            argv = [sys.executable, str(BENCH_DIR / "child.py"), "reproduce",
                    str(self.work / f"{tag}.spans.json"), tag, "--"]
        else:
            argv = [sys.executable, "-m", "entropy_lab.cli"]
        seconds, code, rss = run_child(argv + self.cli_args(threads, out), self.work / f"{tag}.log")
        self.ledger.attempted += 1
        if code != 0:
            self.ledger.fail(f"reproduce {tag} exited with {code}")
        tables = {}
        if (out / "tables").is_dir():
            tables = {p.name: p.read_bytes() for p in sorted((out / "tables").iterdir())}
        if traced:
            self.bytes_written.append(sum(p.stat().st_size for p in out.rglob("*") if p.is_file()))
        shutil.rmtree(out, ignore_errors=True)
        return seconds, tables, rss

    def setup_times(self, repeats: int) -> list[float]:
        """Single-thread reference runs; the passes must reproduce their
        tables byte for byte at ``nproc`` threads."""
        times = []
        for r in range(repeats):
            seconds, tables, _ = self._run(f"ref{r}", 1, traced=False)
            times.append(seconds)
            if self.reference is None:
                self.reference = tables
            else:
                self.gates.check("reproduce.reference_deterministic", tables == self.reference)
        self.gates.check("reproduce.reference_complete", bool(self.reference) and all(
            t in self.reference for t in (self.accuracy_table, "coverage.csv")))
        return times

    def run_pass(self, i: int, tracer=None) -> tuple[float, str]:
        traced = tracer is not None
        seconds, tables, rss = self._run(f"{'traced' if traced else 'pass'}{i}", self.threads, traced)
        self.rss_mb.append(rss)
        self.gates.check("reproduce.tables_match_1thread_reference", tables == self.reference)
        lines = tables.get(self.accuracy_table, b"").decode().splitlines()
        if lines:
            col = lines[0].split(",").index("stderr")
            self.stderrs.extend(float(line.split(",")[col]) for line in lines[1:])
        return seconds, digest_of(sorted(tables.items()))


WORKLOADS = {w.name: w for w in (RiskPaper, CoveragePaper, ReproduceDesk)}


def thread_probe(el, threads: int, seed: int, repeats: int = 3) -> tuple[dict, bool]:
    """Time the desk-scale risk and coverage stages at 1 and ``threads``
    threads; returns the speed-ups (1-thread time over ``threads``-thread
    time) and whether both thread counts gave identical results."""
    etas = tuple(0.5 * i for i in range(11))

    def risk_stage(t):
        return [el.simulate_risk(el.SimConfig(n=n, eta_grid=etas, loss=loss, replications=20_000,
                                              master_seed=seed, threads=t))
                for loss in (el.Loss.squared_error(), el.Loss.linex(-3.0)) for n in (8, 15)]

    def coverage_stage(t):
        return el.coverage_study(el.CoverageConfig(
            n_grid=(10, 20), methods=COV_METHODS, outer_reps=600, level=LEVEL,
            master_seed=seed, gci_draws=800, boot_k=400, mcmc_n=1_200, mcmc_burnin=300,
            threads=t)).rows

    stages = {"risk": risk_stage, "evaluate": coverage_stage}
    risk_stage(1)  # fill the BzTable cache outside the timing
    times: dict[tuple[str, int], list[float]] = {}
    digests: dict[str, set] = {name: set() for name in stages}
    for _ in range(repeats):
        for t in (1, threads):
            for name, stage in stages.items():
                t0 = time.perf_counter()
                out = stage(t)
                times.setdefault((name, t), []).append(time.perf_counter() - t0)
                digests[name].add(digest_of(out))
    speedups = {f"{name}.thread_speedup": statistics.median(times[(name, 1)])
                / statistics.median(times[(name, threads)]) for name in stages}
    return speedups, all(len(d) == 1 for d in digests.values())
