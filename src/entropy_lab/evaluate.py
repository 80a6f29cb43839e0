"""Coverage / average-length / PCD study across the interval methods, and
the data-screening tests (normality, equal variances, mean ordering).

The study draws outer replications at mu1 = mu2 = 0 and the configured
sigma as (xbar_1, xbar_2, SS_1, SS_2) from their exact law
(:func:`model.draw_suff_stats`), since no interval uses more of the data,
applies each requested interval method with its own deterministic
substream, and reports coverage probability (CP), average length (AL), and
their ratio PCD = CP / AL.  Blocks of outer replications are the unit of
parallelism; stream indices encode (sample-size slot, block, method slot),
so results do not depend on the worker count.

The hpd chains run after the other methods, in lockstep groups of
consecutive (n, block) pairs of up to ``GROUP_CHAINS`` chains.  Within a
group each block still draws its own step noise from its own stream, so a
chain's path does not depend on the grouping either, and each chain keeps
only the tails of its draws that the Chen–Shao window reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import DataError, DomainError, NumericError
from .intervals import (
    McmcConfig,
    _shortest_window,
    aci_bounds,
    boot_bounds,
    gci_bounds,
    run_variance_chains,
)
from .model import draw_suff_stats
from .numerics import f_cdf, kolmogorov_sf, std_normal_cdf, student_t_cdf
from .numerics.rng import RngStream
from .risk import map_blocks

COVERAGE_METHODS = ("aci", "gci", "boot-p", "boot-t", "hpd")

_SLOT_DATA, _SLOT_GCI, _SLOT_BOOT, _SLOT_MCMC = 0, 1, 2, 3

# hpd chains advanced in lockstep by one job; whole blocks join a group
GROUP_CHAINS = 1024


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
    block_size: ClassVar[int] = 256  # fixed: the block index keys the streams

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
    outside_share: float  # share of chains outside [0.05, 0.7]


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


class _BlockStreams:
    """Step noise for a group of blocks: each block's generator fills its
    own slice with the draws it makes when its block runs alone."""

    def __init__(self, parts) -> None:
        self._parts = list(parts)    # (generator, slice of the group)

    def standard_normal(self, size: int) -> np.ndarray:
        out = np.empty(size)
        for gen, part in self._parts:
            gen.standard_normal(out=out[part])
        return out

    def standard_exponential(self, size: int) -> np.ndarray:
        out = np.empty(size)
        for gen, part in self._parts:
            gen.standard_exponential(out=out[part])
        return out


def _groups(sizes: list) -> list:
    """Consecutive index ranges whose sizes sum to at most GROUP_CHAINS,
    or one larger block alone."""
    groups, start, total = [], 0, 0
    for i, size in enumerate(sizes):
        if i > start and total + size > GROUP_CHAINS:
            groups.append(range(start, i))
            start, total = i, 0
        total += size
    return groups + [range(start, len(sizes))]


def _tally(tau: float, lower: np.ndarray, upper: np.ndarray,
           length: np.ndarray) -> tuple[int, float, int]:
    """(intervals covering tau, summed finite length, non-finite intervals)."""
    ok = np.isfinite(lower) & np.isfinite(upper)
    contains = ok & (lower <= tau) & (tau <= upper)
    return int(contains.sum()), float(np.where(ok, length, 0.0).sum()), int(len(ok) - ok.sum())


def coverage_study(cfg: CoverageConfig) -> CoverageResult:
    """Run the CP/AL/PCD study over the configured n grid and methods.

    Each block of outer replications goes, as sufficient statistics, to the
    batched interval functions that the single-dataset intervals call on a
    batch of one; this function keys the streams and tallies the results.
    Both bootstrap methods come from one draw of order statistics.  The hpd
    chains of all blocks then run in groups (module docstring); a block's
    tallies and acceptance summary are the same whatever its group.
    """
    tau = math.log(cfg.sigma)
    nblocks = (cfg.outer_reps + cfg.block_size - 1) // cfg.block_size
    pairs = [(ni, n, ib) for ni, n in enumerate(cfg.n_grid) for ib in range(nblocks)]
    hpd = "hpd" in cfg.methods
    mcmc = McmcConfig(N=cfg.mcmc_n, N0=cfg.mcmc_burnin, level=cfg.level) if hpd else None

    def one_block(i: int):
        ni, n, ib = pairs[i]

        def stream(slot: int) -> np.random.Generator:
            return RngStream(cfg.master_seed, (ni << 28) | (ib << 3) | slot).generator

        b = min(cfg.block_size, cfg.outer_reps - ib * cfg.block_size)
        _, _, ss1, ss2 = draw_suff_stats(stream(_SLOT_DATA), b, n, cfg.sigma)
        s2 = ss1 + ss2
        lns = 0.5 * np.log(s2)
        tallies = {}
        if "aci" in cfg.methods:
            tallies["aci"] = _tally(tau, *aci_bounds(lns, n, cfg.level))
        if "gci" in cfg.methods:
            tallies["gci"] = _tally(tau, *gci_bounds(lns, n, cfg.level, cfg.gci_draws,
                                                     stream(_SLOT_GCI)))
        if "boot-p" in cfg.methods or "boot-t" in cfg.methods:
            pct, stud = boot_bounds(s2, n, cfg.level, cfg.boot_k, stream(_SLOT_BOOT))
            tallies["boot-p"], tallies["boot-t"] = _tally(tau, *pct), _tally(tau, *stud)
        chains = (n, ss1, ss2, stream(_SLOT_MCMC)) if hpd else None
        return tallies, chains

    blocks = map_blocks(len(pairs), one_block, cfg.threads)
    health = []
    if hpd:
        groups = _groups([len(chains[1]) for _, chains in blocks])

        def one_group(g: int) -> list:
            ns, ss1s, ss2s, gens = zip(*(blocks[i][1] for i in groups[g]))
            sizes = [len(ss1) for ss1 in ss1s]
            parts = [slice(stop - size, stop) for size, stop in zip(sizes, np.cumsum(sizes))]
            ss1, ss2 = np.concatenate(ss1s), np.concatenate(ss2s)
            tails, acc, _ = run_variance_chains(
                np.zeros_like(ss1), np.zeros_like(ss2), ss1, ss2, np.repeat(ns, sizes),
                mcmc, _BlockStreams(zip(gens, parts)))
            lower, upper = _shortest_window(*tails)
            return [(_tally(tau, lower[p], upper[p], upper[p] - lower[p]), acc[p]) for p in parts]

        hpd_parts = [p for group in map_blocks(len(groups), one_group, cfg.threads) for p in group]
        for (tallies, _), (tally, _) in zip(blocks, hpd_parts):
            tallies["hpd"] = tally
        for ni, n in enumerate(cfg.n_grid):
            acc = np.concatenate([a for _, a in hpd_parts[ni * nblocks:(ni + 1) * nblocks]])
            outside = (acc < 0.05) | (acc > 0.7)          # hpd_mcmc's warning band
            health.append(ChainHealth(n=n, mean=float(acc.mean()), min=float(acc.min()),
                                      max=float(acc.max()), outside_share=float(outside.mean())))

    rows = []
    for ni, n in enumerate(cfg.n_grid):
        partials = [tallies for tallies, _ in blocks[ni * nblocks:(ni + 1) * nblocks]]
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
    return CoverageResult(rows=tuple(rows), config=cfg, hpd_acceptance=tuple(health))


# ---------------------------------------------------------------------------
# screening tests
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TestResult:
    statistic: float
    p_value: float


def ks_normality(sample, mean: float | None = None, sd: float | None = None) -> TestResult:
    """One-sample Kolmogorov-Smirnov test of normality; p-value from the
    asymptotic Kolmogorov distribution at sqrt(n) D, no small-sample
    correction.

    By default the reference normal is fitted (N(xbar, s^2)); pass ``mean``
    and ``sd`` for a fully specified null, under which the p-value is
    asymptotically uniform.  With fitted parameters the p-value is
    conservative and only the accept/reject decision should be relied on.
    """
    x = np.sort(np.asarray(sample, dtype=float))
    n = len(x)
    if n < 3:
        raise DataError(f"KS test needs n >= 3, got {n}")
    if not np.isfinite(x).all():
        raise DataError("sample contains non-finite values")
    if sd is None:
        sd = float(x.std(ddof=1))
    if sd <= 0.0:
        raise DataError("degenerate sample: zero variance")
    center = float(x.mean()) if mean is None else float(mean)
    z = (x - center) / sd
    cdf = std_normal_cdf(z)
    steps = np.arange(1, n + 1) / n
    d_plus = float(np.max(steps - cdf))
    d_minus = float(np.max(cdf - (np.arange(n) / n)))
    d = max(d_plus, d_minus)
    return TestResult(statistic=d, p_value=kolmogorov_sf(math.sqrt(n) * d))


def f_test_equal_var(sample1, sample2) -> TestResult:
    """Two-sided variance-ratio F test, statistic var1/var2."""
    x = np.asarray(sample1, dtype=float)
    y = np.asarray(sample2, dtype=float)
    if len(x) < 2 or len(y) < 2:
        raise DataError("F test needs n >= 2 in each sample")
    v1 = float(x.var(ddof=1))
    v2 = float(y.var(ddof=1))
    if v1 == 0.0 or v2 == 0.0:
        raise DataError("degenerate sample: zero variance")
    f = v1 / v2
    cdf = f_cdf(len(x) - 1.0, len(y) - 1.0, f)
    return TestResult(statistic=f, p_value=min(1.0, 2.0 * min(cdf, 1.0 - cdf)))


def t_test_ordered_means(sample1, sample2) -> TestResult:
    """Pooled one-sided t test of the ordering: small p-values are evidence
    against mu1 <= mu2 (i.e. the data favor mu1 > mu2)."""
    x = np.asarray(sample1, dtype=float)
    y = np.asarray(sample2, dtype=float)
    n1, n2 = len(x), len(y)
    if n1 < 2 or n2 < 2:
        raise DataError("t test needs n >= 2 in each sample")
    pooled = (float(((x - x.mean()) ** 2).sum()) + float(((y - y.mean()) ** 2).sum())) / (n1 + n2 - 2)
    if pooled == 0.0:
        raise DataError("degenerate samples: zero pooled variance")
    se = math.sqrt(pooled * (1.0 / n1 + 1.0 / n2))
    t = (float(x.mean()) - float(y.mean())) / se
    return TestResult(statistic=t, p_value=1.0 - student_t_cdf(n1 + n2 - 2.0, t))
