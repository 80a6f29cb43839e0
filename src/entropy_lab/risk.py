"""Monte Carlo engine for risk, bias, relative risk improvement, and
generalized Pitman closeness.

A replication enters only through (xbar_1, xbar_2, SS_1, SS_2), so it is
drawn as those four from their exact law (:func:`model.draw_suff_stats`).
Replications are processed in blocks of ``BLOCK_SIZE``.  Block ``i`` draws
from the counter-based stream ``(master_seed, i)`` and partial sums are
folded in block order, so results are bit-identical for any worker count.
Within a replication every estimator sees the same data (common random
numbers), and one draw of (xbar_2 - xbar_1, S^2) serves every point on the
eta grid: eta only shifts the mean difference, so only W moves.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DomainError, NumericError
from .estimators import resolve_estimator
from .model import Loss, draw_suff_stats
from .numerics.rng import RngStream

DEFAULT_ESTIMATORS = ("baee", "umvue", "mle", "rmle", "stein",
                      "improved_mle", "improved_rmle", "bz")

BLOCK_SIZE = 16_384  # fixed: block i draws from stream (seed, i)


@dataclass(frozen=True)
class SimConfig:
    """Risk-simulation campaign for a single sample size n.

    ``eta_grid`` holds the standardized mean separations sqrt(n)(mu2-mu1)/sigma,
    all >= 0 under the ordering.  ``baseline`` names the estimator used for
    RRI and paired-difference statistics and must appear in ``estimators``.
    """

    n: int
    eta_grid: tuple = (0.0,)
    loss: Loss = field(default_factory=Loss.squared_error)
    replications: int = 70_000
    master_seed: int = 0
    estimators: tuple = DEFAULT_ESTIMATORS
    baseline: str = "baee"
    threads: int = 1

    def __post_init__(self) -> None:
        if self.n < 2:
            raise DomainError(f"need n >= 2, got {self.n}")
        if self.replications < 1:
            raise DomainError("need at least one replication")
        if self.threads < 1:
            raise DomainError(f"threads must be positive, got {self.threads}")
        if any(e < 0 for e in self.eta_grid):
            raise DomainError("eta values must be >= 0 under the mean ordering")
        names = [_name_of(e) for e in self.estimators]
        if len(set(names)) < len(names):
            raise DomainError(f"estimators repeat a name: {names}")
        if self.baseline not in names:
            raise DomainError(f"baseline {self.baseline!r} must be among the estimators")


def _name_of(spec) -> str:
    return spec if isinstance(spec, str) else spec.name


@dataclass(frozen=True)
class RiskCell:
    estimator: str
    eta: float
    risk: float
    stderr: float
    bias: float
    bias_stderr: float
    rri: float
    diff_vs_baseline: float
    diff_stderr: float


@dataclass(frozen=True)
class SimResult:
    n: int
    loss: Loss
    replications: int
    master_seed: int
    baseline: str
    cells: tuple

    def cell(self, estimator: str, eta: float) -> RiskCell:
        for c in self.cells:
            if c.estimator == estimator and c.eta == eta:
                return c
        raise KeyError((estimator, eta))

    def to_csv(self, path: str | Path) -> None:
        Path(path).write_text(risk_csv([self]))


def risk_csv(results) -> str:
    """CSV text of the cells of one or more results, header first."""
    lines = ["n,eta,loss,a1,estimator,risk,stderr,bias,rri\n"]
    for res in results:
        lines.extend(f"{res.n},{c.eta!r},{res.loss.csv_fields},{c.estimator},"
                     f"{c.risk!r},{c.stderr!r},{c.bias!r},{c.rri!r}\n" for c in res.cells)
    return "".join(lines)


def map_blocks(nblocks: int, fn, threads: int) -> list:
    """[fn(0), ..., fn(nblocks - 1)], on ``threads`` worker threads."""
    if threads <= 1:
        return [fn(i) for i in range(nblocks)]
    with ThreadPoolExecutor(max_workers=threads) as ex:
        return list(ex.map(fn, range(nblocks)))


def simulate_risk(cfg: SimConfig) -> SimResult:
    """Estimate risk and bias of each estimator across the eta grid.

    Data are drawn at mu1 = 0, sigma = 1 (risk depends on the parameters
    only through eta), so the estimation error is the estimate itself.
    """
    n = cfg.n
    etas = tuple(float(e) for e in cfg.eta_grid)
    names, fns = zip(*(resolve_estimator(e, n, cfg.loss) for e in cfg.estimators))
    ibase = names.index(cfg.baseline)
    ne, nt = len(names), len(etas)
    shift = np.array(etas) / math.sqrt(n)
    nblocks = (cfg.replications + BLOCK_SIZE - 1) // BLOCK_SIZE

    def one_block(ib: int):
        b = min(BLOCK_SIZE, cfg.replications - ib * BLOCK_SIZE)
        m1, m2, ss1, ss2 = draw_suff_stats(RngStream(cfg.master_seed, ib).generator, b, n)
        s2 = ss1 + ss2
        lns = 0.5 * np.log(s2)
        s = np.sqrt(s2)
        sums = np.empty((5, ne, nt))
        for t in range(nt):
            w = (m2 - m1 + shift[t]) / s
            delta = np.stack([fn(lns, w) for fn in fns])
            finite = np.isfinite(delta)
            if not finite.all():
                e, bad = np.argwhere(~finite)[0]
                raise NumericError(
                    f"estimator {names[e]!r} failed at replication "
                    f"{ib * BLOCK_SIZE + int(bad)} (eta={etas[t]})")
            lv = cfg.loss.value(delta)
            sums[:, :, t] = (lv.sum(axis=1), np.square(lv).sum(axis=1), delta.sum(axis=1),
                             np.square(delta).sum(axis=1), (lv * lv[ibase]).sum(axis=1))
        return sums

    blocks = map_blocks(nblocks, one_block, cfg.threads)
    sum_l, sum_l2, sum_d, sum_d2, sum_lb = np.sum(blocks, axis=0)
    reps = cfg.replications
    risk, bias = sum_l / reps, sum_d / reps
    stderr = np.sqrt(np.maximum(sum_l2 / reps - np.square(risk), 0.0) / reps)
    bias_stderr = np.sqrt(np.maximum(sum_d2 / reps - np.square(bias), 0.0) / reps)
    diff = risk - risk[ibase]
    ex_ll = (sum_l2 + sum_l2[ibase] - 2.0 * sum_lb) / reps
    diff_stderr = np.sqrt(np.maximum(ex_ll - diff * diff, 0.0) / reps)
    rri = 100.0 * (risk[ibase] - risk) / risk[ibase]
    stats = np.stack([risk, stderr, bias, bias_stderr, rri, diff, diff_stderr])
    cells = tuple(RiskCell(names[e], etas[t], *stats[:, e, t].tolist())
                  for t in range(nt) for e in range(ne))
    return SimResult(n=n, loss=cfg.loss, replications=reps,
                     master_seed=cfg.master_seed, baseline=cfg.baseline, cells=cells)


def rri_curve(cfg: SimConfig) -> list[tuple[float, str, float]]:
    """(eta, estimator, rri) rows relative to the configured baseline."""
    res = simulate_risk(cfg)
    return [(c.eta, c.estimator, c.rri) for c in res.cells]


# ---------------------------------------------------------------------------
# generalized Pitman closeness
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GpcResult:
    value: float
    stderr: float
    n_less: int
    n_tie: int
    replications: int


def gpc_estimate(est1, est2, loss: Loss, n: int, eta: float, reps: int,
                 seed: int, threads: int = 1) -> GpcResult:
    """P[L(err1) < L(err2)] + P[tie]/2 by simulation with common random
    numbers; identical estimators give exactly 1/2."""
    if eta < 0:
        raise DomainError("eta must be >= 0")
    if reps < 1:
        raise DomainError("need at least one replication")
    if threads < 1:
        raise DomainError(f"threads must be positive, got {threads}")
    name1, fn1 = resolve_estimator(est1, n, loss)
    name2, fn2 = resolve_estimator(est2, n, loss)
    shift = eta / math.sqrt(n)
    nblocks = (reps + BLOCK_SIZE - 1) // BLOCK_SIZE

    def one_block(ib: int):
        b = min(BLOCK_SIZE, reps - ib * BLOCK_SIZE)
        m1, m2, ss1, ss2 = draw_suff_stats(RngStream(seed, ib).generator, b, n)
        s2 = ss1 + ss2
        lns = 0.5 * np.log(s2)
        w = (m2 - m1 + shift) / np.sqrt(s2)
        l1 = loss.value(fn1(lns, w))
        l2 = loss.value(fn2(lns, w))
        return int((l1 < l2).sum()), int((l1 == l2).sum())

    partials = map_blocks(nblocks, one_block, threads)
    n_less = sum(p[0] for p in partials)
    n_tie = sum(p[1] for p in partials)
    p = (n_less + 0.5 * n_tie) / reps
    return GpcResult(value=p, stderr=math.sqrt(max(p * (1.0 - p), 1e-300) / reps),
                     n_less=n_less, n_tie=n_tie, replications=reps)
