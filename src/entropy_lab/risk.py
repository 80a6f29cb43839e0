"""Monte Carlo engine for risk, bias, relative risk improvement, and
generalized Pitman closeness.

A replication enters only through (xbar_1, xbar_2, SS_1, SS_2), so it is
drawn as those four from their exact law (:func:`model.draw_suff_stats`).
Replications are processed in blocks of ``BLOCK_SIZE``.  Block ``i`` draws
from the counter-based stream ``(master_seed, i)`` and partial sums are
folded in block order, so results are bit-identical for any worker count.
Within a replication every estimator sees the same data (common random
numbers), and one draw of (xbar_2 - xbar_1, S^2) serves every point on the
eta grid: eta only shifts the mean difference, so only W moves.  Risk and
Pitman closeness run on the same blocks and differ only in how a block's
losses are reduced.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, NumericError
from .estimators import ESTIMATOR_NAMES, resolve_estimator
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
        if not self.eta_grid or any(e < 0 for e in self.eta_grid):
            raise DomainError("eta_grid needs values, each >= 0 under the mean ordering")
        names = self.estimators
        unknown = [e for e in names if e not in ESTIMATOR_NAMES]
        if unknown:
            raise DomainError(f"unknown estimators {unknown}; expected one of {ESTIMATOR_NAMES}")
        if len(set(names)) < len(names):
            raise DomainError(f"estimators repeat a name: {list(names)}")
        if self.baseline not in names:
            raise DomainError(f"baseline {self.baseline!r} must be among the estimators")


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


def _replications(cfg: SimConfig, reduce) -> np.ndarray:
    """Fold ``reduce(lv, delta)`` over every block and eta of ``cfg``.

    ``delta`` holds the estimates of the configured estimators, one row
    each, on one block at one eta, and ``lv`` their losses.  Data are drawn
    at mu1 = 0, sigma = 1 (risk depends on the parameters only through
    eta), so an estimate is its own error.  The result stacks the reduced
    values on a last axis over eta and sums them over blocks in block order.
    """
    n, reps = cfg.n, cfg.replications
    fns = [resolve_estimator(e, n, cfg.loss)[1] for e in cfg.estimators]
    shift = np.array(cfg.eta_grid, dtype=float) / math.sqrt(n)
    nblocks = (reps + BLOCK_SIZE - 1) // BLOCK_SIZE

    def one_block(ib: int) -> np.ndarray:
        b = min(BLOCK_SIZE, reps - ib * BLOCK_SIZE)
        m1, m2, ss1, ss2 = draw_suff_stats(RngStream(cfg.master_seed, ib).generator, b, n)
        s2 = ss1 + ss2
        lns = 0.5 * np.log(s2)
        s = np.sqrt(s2)
        d = m2 - m1
        out = []
        for t, sh in enumerate(shift):
            w = (d + sh) / s
            delta = np.stack([fn(lns, w) for fn in fns])
            finite = np.isfinite(delta)
            if not finite.all():
                e, bad = np.argwhere(~finite)[0]
                raise NumericError(
                    f"estimator {cfg.estimators[e]!r} failed at replication "
                    f"{ib * BLOCK_SIZE + int(bad)} (eta={float(cfg.eta_grid[t])})")
            lv = cfg.loss.value(delta)  # held until the next eta: half the page faults
            out.append(reduce(lv, delta))
        return np.stack(out, axis=-1)

    return np.sum(map_blocks(nblocks, one_block, cfg.threads), axis=0)


def simulate_risk(cfg: SimConfig) -> SimResult:
    """Estimate risk and bias of each estimator across the eta grid."""
    names = cfg.estimators
    etas = tuple(float(e) for e in cfg.eta_grid)
    ibase = names.index(cfg.baseline)

    def sums(lv, delta):
        return (lv.sum(axis=1), np.square(lv).sum(axis=1), delta.sum(axis=1),
                np.square(delta).sum(axis=1), (lv * lv[ibase]).sum(axis=1))

    sum_l, sum_l2, sum_d, sum_d2, sum_lb = _replications(cfg, sums)
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
                  for t in range(len(etas)) for e in range(len(names)))
    return SimResult(n=cfg.n, loss=cfg.loss, replications=reps,
                     master_seed=cfg.master_seed, baseline=cfg.baseline, cells=cells)


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


def gpc_estimate(est1: str, est2: str, loss: Loss, n: int, eta: float, reps: int,
                 seed: int, threads: int = 1) -> GpcResult:
    """P[L(err1) < L(err2)] + P[tie]/2 by simulation with common random
    numbers; identical estimators give exactly 1/2 with stderr 0.  The
    stderr is that of the mean score, a replication scoring 1, 1/2 or 0."""
    cfg = SimConfig(n=n, eta_grid=(eta,), loss=loss, replications=reps, master_seed=seed,
                    estimators=tuple(dict.fromkeys((est1, est2))), baseline=est2, threads=threads)
    i1, i2 = cfg.estimators.index(est1), cfg.estimators.index(est2)
    n_less, n_tie = _replications(
        cfg, lambda lv, delta: ((lv[i1] < lv[i2]).sum(), (lv[i1] == lv[i2]).sum()))[:, 0].tolist()
    p = (n_less + 0.5 * n_tie) / reps
    var = (n_less + 0.25 * n_tie) / reps - p * p
    return GpcResult(value=p, stderr=math.sqrt(max(var, 0.0) / reps),
                     n_less=n_less, n_tie=n_tie, replications=reps)
