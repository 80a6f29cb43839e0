"""Coverage / average-length / PCD study across the interval methods, and
the data-screening tests (normality, equal variances, mean ordering).

Every interval method reads a dataset only through SS_0 = SS_1 + SS_2, so
the study draws each outer replication at mu1 = mu2 = 0 and the configured
sigma as SS_0 = sigma^2 chi-square(2n - 2) alone, applies each requested
interval method with its own deterministic substream, and reports coverage
probability (CP), average length (AL), and their ratio PCD = CP / AL.
Block ``ib`` holds replications [ib B, (ib + 1) B) at every n of the grid
and is the unit of parallelism; stream indices encode (sample-size slot,
block, method slot), so results depend neither on the worker count nor on
which methods run.  The hpd chains of a block, every n together, advance
in lockstep on the block's one step-noise stream, and each chain keeps only
the tails of its draws that the Chen–Shao window reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
from .numerics import f_cdf, kolmogorov_sf, std_normal_cdf, student_t_cdf
from .numerics.rng import RngStream
from .risk import map_blocks

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


def _tally(tau: float, lower: np.ndarray, upper: np.ndarray,
           length: np.ndarray) -> tuple[int, float, int]:
    """(intervals covering tau, summed finite length, non-finite intervals)."""
    ok = np.isfinite(lower) & np.isfinite(upper)
    contains = ok & (lower <= tau) & (tau <= upper)
    return int(contains.sum()), float(np.where(ok, length, 0.0).sum()), int(len(ok) - ok.sum())


def coverage_study(cfg: CoverageConfig) -> CoverageResult:
    """Run the CP/AL/PCD study over the configured n grid and methods.

    Each block of outer replications goes, as SS_0, to the batched interval
    functions that the single-dataset intervals call on a batch of one; this
    function keys the streams and tallies the results.  Both bootstrap
    methods come from one draw of order statistics.
    """
    tau = math.log(cfg.sigma)
    size = cfg.block_size
    nblocks = (cfg.outer_reps + size - 1) // size
    k = len(cfg.n_grid)
    hpd = "hpd" in cfg.methods
    mcmc = McmcConfig(N=cfg.mcmc_n, N0=cfg.mcmc_burnin, level=cfg.level) if hpd else None

    def one_block(ib: int):
        def stream(ni: int, slot: int) -> np.random.Generator:
            return RngStream(cfg.master_seed, (ni << 28) | (ib << 3) | slot).generator

        b = min(size, cfg.outer_reps - ib * size)
        ss0 = np.stack([cfg.sigma * cfg.sigma * stream(ni, _SLOT_DATA).chisquare(2 * n - 2, b)
                        for ni, n in enumerate(cfg.n_grid)])
        tallies = []
        for ni, n in enumerate(cfg.n_grid):
            lns, t = 0.5 * np.log(ss0[ni]), {}
            if "aci" in cfg.methods:
                t["aci"] = _tally(tau, *aci_bounds(lns, n, cfg.level))
            if "gci" in cfg.methods:
                t["gci"] = _tally(tau, *gci_bounds(lns, n, cfg.level, cfg.gci_draws,
                                                   stream(ni, _SLOT_GCI)))
            if "boot-p" in cfg.methods or "boot-t" in cfg.methods:
                pct, stud = boot_bounds(ss0[ni], n, cfg.level, cfg.boot_k, stream(ni, _SLOT_BOOT))
                t["boot-p"], t["boot-t"] = _tally(tau, *pct), _tally(tau, *stud)
            tallies.append(t)
        if not hpd:
            return tallies, None
        # the chains of every n share the block's step-noise stream, keyed at
        # the first n's slot; a chain reads only ss1 + ss2
        zeros = np.zeros(k * b)
        tails, acc, _ = run_variance_chains(zeros, zeros, ss0.ravel(), zeros,
                                            np.repeat(cfg.n_grid, b), mcmc, stream(0, _SLOT_MCMC))
        lower, upper = (w.reshape(k, b) for w in _shortest_window(*tails))
        for ni, t in enumerate(tallies):
            t["hpd"] = _tally(tau, lower[ni], upper[ni], upper[ni] - lower[ni])
        return tallies, acc.reshape(k, b)

    blocks = map_blocks(nblocks, one_block, cfg.threads)
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
        if hpd:
            acc = np.concatenate([a[ni] for _, a in blocks])
            outside = (acc < 0.05) | (acc > 0.7)          # hpd_mcmc's warning band
            health.append(ChainHealth(n=n, mean=float(acc.mean()), min=float(acc.min()),
                                      max=float(acc.max()), outside_share=float(outside.mean())))
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
