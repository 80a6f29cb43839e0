"""Coverage / average-length / PCD study across the interval methods, and
the one-sided t test of the mean ordering that ``estimate`` screens with.

Every interval is ln S, S^2 = SS_0 = SS_1 + SS_2, plus offsets free of the
data, so the study draws each outer replication at mu1 = mu2 = 0 and the
configured sigma as SS_0 = sigma^2 chi-square(2n - 2) alone, draws each
requested method's offsets on its own deterministic substream, and reports
coverage probability (CP), average length (AL), and their ratio
PCD = CP / AL.  Block ``ib`` holds replications [ib B, (ib + 1) B) at every
n of the grid and is one job for the worker processes; stream indices
encode (sample-size slot, block, method slot), so results depend neither on
the worker count nor on which methods run.  A block's hpd chains, every n
together, advance in lockstep on its one step-noise stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import DataError, DomainError, NumericError
from .intervals import (
    ACCEPTANCE_BAND,
    McmcConfig,
    _shortest_window,
    aci_offsets,
    at_log_scale,
    boot_offsets,
    gci_offsets,
    hpd_offsets,
    run_variance_chains,
)
from .model import pooled_ss, scaled_ratio
from .numerics import student_t_cdf
from .numerics.rng import RngStream
from .workers import run_jobs

COVERAGE_METHODS = ("aci", "gci", "boot-p", "boot-t", "hpd")

_SLOT_DATA, _SLOT_GCI, _SLOT_BOOT, _SLOT_MCMC = 0, 1, 2, 3

# hpd chains one block advances in lockstep, every n of the grid together
BLOCK_CHAINS = 1024


@dataclass(frozen=True)
class CoverageConfig:
    n_grid: tuple = (10, 20, 40)
    methods: tuple = COVERAGE_METHODS
    outer_reps: int = 5000
    level: float = 0.95
    sigma: float = 1.0
    master_seed: int = 0
    gci_draws: int = 1000
    boot_k: int = 1000
    mcmc_n: int = 2500
    mcmc_burnin: int = 500
    threads: int = 1

    def __post_init__(self) -> None:
        if self.outer_reps < 1:
            raise DomainError("outer_reps must be positive")
        if not 0.0 < self.level < 1.0:
            raise DomainError("level must be in (0, 1)")
        if self.sigma <= 0.0:
            raise DomainError("sigma must be positive")
        if not self.n_grid or not self.methods:
            raise DomainError("n_grid and methods must not be empty")
        if len(set(self.n_grid)) < len(self.n_grid) or len(set(self.methods)) < len(self.methods):
            raise DomainError("n_grid and methods must not repeat an entry")
        unknown = set(self.methods) - set(COVERAGE_METHODS)
        if unknown:
            raise DomainError(f"unknown interval methods: {sorted(unknown)}")
        if any(n < 2 for n in self.n_grid):
            raise DomainError("every n must be >= 2")
        if self.gci_draws < 1 or self.boot_k < 1 or self.threads < 1:
            raise DomainError("gci_draws, boot_k and threads must be positive")
        if self.gci_draws < 2 or self.boot_k < 2:
            raise DomainError("gci_draws and boot_k need 2 or more: one draw gives no interval")

    @property
    def block_size(self) -> int:
        """Replications of a block at each n, so that a block holds at most
        BLOCK_CHAINS hpd chains; the block index keys the streams."""
        return max(1, BLOCK_CHAINS // len(self.n_grid))


@dataclass(frozen=True)
class CoverageRow:
    method: str
    n: int
    cp: float
    cp_stderr: float
    al: float
    pcd: float
    failures: int


@dataclass(frozen=True)
class ChainHealth:
    """Post-burn-in acceptance of the hpd chains at one n."""

    n: int
    mean: float
    min: float
    max: float
    outside_share: float  # share of chains outside ACCEPTANCE_BAND


@dataclass(frozen=True)
class CoverageResult:
    rows: tuple
    config: CoverageConfig
    hpd_acceptance: tuple = ()  # one ChainHealth per n when hpd runs

    def row(self, method: str, n: int) -> CoverageRow:
        for r in self.rows:
            if r.method == method and r.n == n:
                return r
        raise KeyError((method, n))

    def csv_text(self) -> str:
        """CSV text of the rows, header first."""
        cfg = self.config
        inner_reps = {"aci": 0, "gci": cfg.gci_draws, "boot-p": cfg.boot_k,
                      "boot-t": cfg.boot_k, "hpd": cfg.mcmc_n}
        return "method,n,level,cp,cp_stderr,al,pcd,outer_reps,inner_reps,seed\n" + "".join(
            f"{r.method},{r.n},{cfg.level!r},{r.cp!r},{r.cp_stderr!r},{r.al!r},{r.pcd!r},"
            f"{cfg.outer_reps},{inner_reps[r.method]},{cfg.master_seed}\n" for r in self.rows)


def _tally(tau: float, lower: np.ndarray, upper: np.ndarray,
           length: np.ndarray) -> tuple[int, float, int]:
    """(intervals covering tau, summed finite length, non-finite intervals)."""
    ok = np.isfinite(lower) & np.isfinite(upper)
    contains = ok & (lower <= tau) & (tau <= upper)
    return int(contains.sum()), float(np.where(ok, length, 0.0).sum()), int(len(ok) - ok.sum())


def _block(cfg: CoverageConfig, ib: int):
    """Block ``ib``'s tallies, one dict of method -> ``_tally`` per n, and
    its hpd chains' acceptance by n (None without hpd)."""
    def stream(ni: int, slot: int) -> np.random.Generator:
        return RngStream(cfg.master_seed, (ni << 28) | (ib << 3) | slot).generator

    tau = math.log(cfg.sigma)
    b = min(cfg.block_size, cfg.outer_reps - ib * cfg.block_size)
    ss0 = np.stack([cfg.sigma * cfg.sigma * stream(ni, _SLOT_DATA).chisquare(2 * n - 2, b)
                    for ni, n in enumerate(cfg.n_grid)])
    offsets = [{} for _ in cfg.n_grid]   # method -> data-free (a, b, length), by n
    for ni, (n, o) in enumerate(zip(cfg.n_grid, offsets)):
        if "aci" in cfg.methods:
            o["aci"] = aci_offsets(n, cfg.level)
        if "gci" in cfg.methods:
            o["gci"] = gci_offsets(n, cfg.level, cfg.gci_draws, b, stream(ni, _SLOT_GCI))
        if "boot-p" in cfg.methods or "boot-t" in cfg.methods:
            o["boot-p"], o["boot-t"] = boot_offsets(n, cfg.level, cfg.boot_k, b,
                                                    stream(ni, _SLOT_BOOT))
    acc = None
    if "hpd" in cfg.methods:
        # every n's chains share the block's step-noise stream (the first n's slot)
        k = len(cfg.n_grid)
        zeros = np.zeros(k * b)
        tails, acc, _ = run_variance_chains(
            zeros, zeros, ss0.ravel(), zeros, np.repeat(cfg.n_grid, b),
            McmcConfig(N=cfg.mcmc_n, N0=cfg.mcmc_burnin, level=cfg.level), stream(0, _SLOT_MCMC))
        hpd = (w.reshape(k, b) for w in hpd_offsets(*_shortest_window(*tails)))
        for o, *by_n in zip(offsets, *hpd):
            o["hpd"] = by_n
        acc = acc.reshape(k, b)
    lns = 0.5 * np.log(ss0)   # ln S, once per n
    return [{m: _tally(tau, *at_log_scale(lns[ni], o[m])) for m in o}
            for ni, o in enumerate(offsets)], acc


def coverage_jobs(cfg: CoverageConfig) -> list:
    """The study's blocks as jobs for :func:`~entropy_lab.workers.run_jobs`;
    :func:`fold_coverage` turns their results into the study's result."""
    nblocks = (cfg.outer_reps + cfg.block_size - 1) // cfg.block_size
    return [partial(_block, cfg, ib) for ib in range(nblocks)]


def fold_coverage(cfg: CoverageConfig, blocks: list) -> CoverageResult:
    """The study's rows and chain health from its blocks' results, in block
    order."""
    rows, health = [], []
    for ni, n in enumerate(cfg.n_grid):
        partials = [tallies[ni] for tallies, _ in blocks]
        for method in cfg.methods:
            contains = sum(p[method][0] for p in partials)
            length = sum(p[method][1] for p in partials)
            failures = sum(p[method][2] for p in partials)
            if failures > 0.001 * cfg.outer_reps:
                raise NumericError(f"{method}: failure rate above 0.1% "
                                   f"({failures}/{cfg.outer_reps})")
            good = cfg.outer_reps - failures
            cp = contains / good
            al = length / good
            rows.append(CoverageRow(
                method=method, n=n, cp=cp,
                cp_stderr=math.sqrt(max(cp * (1.0 - cp), 1e-300) / good),
                al=al, pcd=cp / al, failures=failures))
        if "hpd" in cfg.methods:
            acc = np.concatenate([a[ni] for _, a in blocks])
            outside = (acc < ACCEPTANCE_BAND[0]) | (acc > ACCEPTANCE_BAND[1])
            health.append(ChainHealth(n=n, mean=float(acc.mean()), min=float(acc.min()),
                                      max=float(acc.max()), outside_share=float(outside.mean())))
    return CoverageResult(rows=tuple(rows), config=cfg, hpd_acceptance=tuple(health))


def coverage_study(cfg: CoverageConfig) -> CoverageResult:
    """Run the CP/AL/PCD study over the configured n grid and methods.

    A block takes each method's data-free offsets from the kernel that the
    single-dataset interval runs on a batch of one and places them at its
    ln S; blocks run on ``cfg.threads`` worker processes, tallied here.
    Both bootstrap methods come from one draw of order statistics.
    """
    return fold_coverage(cfg, run_jobs(coverage_jobs(cfg), cfg.threads))


# ---------------------------------------------------------------------------
# screening test of the mean ordering
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TestResult:
    statistic: float
    p_value: float


def t_test_ordered_means(sample1, sample2) -> TestResult:
    """Pooled one-sided t test of the ordering: small p-values are evidence
    against mu1 <= mu2 (i.e. the data favor mu1 > mu2)."""
    x = np.asarray(sample1, dtype=float)
    y = np.asarray(sample2, dtype=float)
    n1, n2 = len(x), len(y)
    if n1 < 2 or n2 < 2:
        raise DataError("t test needs n >= 2 in each sample")
    mx, my, q, k = pooled_ss(x, y)
    t = scaled_ratio(mx - my, k, math.sqrt(q / (n1 + n2 - 2) * (1.0 / n1 + 1.0 / n2)),
                     "t statistic")
    return TestResult(statistic=t, p_value=student_t_cdf(n1 + n2 - 2, -t))
