"""Monte Carlo engine for risk, bias, relative risk improvement, and
generalized Pitman closeness.

Every estimator is ln S + phi(W) with W = D / S and D = xbar_2 - xbar_1, so
a replication is the pair (D, S^2), drawn from its exact law at sigma = 1:
D ~ N(0, 2/n) independent of S^2 ~ chi-square(2n - 2).  Replications are
processed in blocks of ``BLOCK_SIZE``.  Block ``i`` draws from the
counter-based stream ``(master_seed, i)``, blocks are independent jobs
(:mod:`~entropy_lab.workers`) and partial sums are folded in block order,
so results are bit-identical for any worker count.  Within a replication
every estimator sees the same data (common random numbers), and one draw
of (D, S^2) serves every point on the eta grid: eta only shifts D, so only
W moves.

A block does each piece of work once.  At each eta the terms of W that
several rules read (its sign and T(W)) are computed once, as a
:class:`~entropy_lab.estimators.WTerms`.  Each estimator's row of the block
is then evaluated, checked finite, turned into losses and reduced while
that one array is still in cache, the baseline's row first, since every
reduction reads its losses.  Risk and Pitman closeness run on the same
blocks and differ only in how a row is reduced.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .errors import DomainError, NumericError
from .estimators import ESTIMATOR_NAMES, WTerms, resolve_estimator
from .model import Loss
from .numerics.rng import RngStream
from .workers import run_jobs

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


def _block(cfg: SimConfig, reduce, ib: int) -> np.ndarray:
    """Block ``ib`` of :func:`_replications`: estimators by reduced values by
    eta."""
    n, loss, names = cfg.n, cfg.loss, cfg.estimators
    fns = [resolve_estimator(e, n, loss)[1] for e in names]
    ibase = names.index(cfg.baseline)
    order = [ibase] + [e for e in range(len(names)) if e != ibase]
    b = min(BLOCK_SIZE, cfg.replications - ib * BLOCK_SIZE)
    gen = RngStream(cfg.master_seed, ib).generator
    d = math.sqrt(2.0 / n) * gen.standard_normal(b)
    s2 = gen.chisquare(2 * n - 2, b)
    lns = 0.5 * np.log(s2)
    s = np.sqrt(s2)
    out = [[None] * len(cfg.eta_grid) for _ in names]
    for t, eta in enumerate(cfg.eta_grid):
        wt = WTerms((d + eta / math.sqrt(n)) / s, n)
        for e in order:
            de = fns[e](lns, wt)
            finite = np.isfinite(de)
            if not finite.all():
                raise NumericError(
                    f"estimator {names[e]!r} failed at replication "
                    f"{ib * BLOCK_SIZE + int(np.argmin(finite))} (eta={float(eta)})")
            le = loss.value(de)
            if e == ibase:
                l_base = le
            out[e][t] = reduce(le, de, l_base)
    return np.moveaxis(np.array(out), 1, -1)


def _replications(cfg: SimConfig, reduce) -> np.ndarray:
    """Fold ``reduce(l, d, l_base)`` over every block, eta and estimator of
    ``cfg``.

    ``d`` holds one estimator's estimates on one block at one eta, ``l``
    their losses and ``l_base`` the baseline estimator's losses there.  Data
    are drawn at mu1 = 0, sigma = 1 (risk depends on the parameters only
    through eta), so an estimate is its own error.  The result has the
    estimators on its first axis, the reduced values next and eta last,
    summed over blocks in block order.  With more than one worker,
    ``reduce`` must be a module-level function, so that it pickles.
    """
    nblocks = (cfg.replications + BLOCK_SIZE - 1) // BLOCK_SIZE
    jobs = [partial(_block, cfg, reduce, ib) for ib in range(nblocks)]
    return np.sum(run_jobs(jobs, cfg.threads), axis=0)


def _risk_sums(l, d, l_base) -> tuple:
    return l.sum(), np.square(l).sum(), d.sum(), np.square(d).sum(), (l * l_base).sum()


def simulate_risk(cfg: SimConfig) -> SimResult:
    """Estimate risk and bias of each estimator across the eta grid."""
    names = cfg.estimators
    etas = tuple(float(e) for e in cfg.eta_grid)
    ibase = names.index(cfg.baseline)

    sum_l, sum_l2, sum_d, sum_d2, sum_lb = np.moveaxis(_replications(cfg, _risk_sums), 1, 0)
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


def _gpc_counts(l, d, l_base) -> tuple:
    return (l < l_base).sum(), (l == l_base).sum()


def gpc_estimate(est1: str, est2: str, loss: Loss, n: int, eta: float, reps: int,
                 seed: int, threads: int = 1) -> GpcResult:
    """P[L(err1) < L(err2)] + P[tie]/2 by simulation with common random
    numbers; identical estimators give exactly 1/2 with stderr 0.  The
    stderr is that of the mean score, a replication scoring 1, 1/2 or 0."""
    cfg = SimConfig(n=n, eta_grid=(eta,), loss=loss, replications=reps, master_seed=seed,
                    estimators=tuple(dict.fromkeys((est1, est2))), baseline=est2, threads=threads)
    n_less, n_tie = _replications(cfg, _gpc_counts)[cfg.estimators.index(est1), :, 0].tolist()
    p = (n_less + 0.5 * n_tie) / reps
    var = (n_less + 0.25 * n_tie) / reps - p * p
    return GpcResult(value=p, stderr=math.sqrt(max(var, 0.0) / reps),
                     n_less=n_less, n_tie=n_tie, replications=reps)
