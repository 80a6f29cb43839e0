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

A block forms one row per distinct rule: names whose builders bind one rule
function to the same constants (:func:`~entropy_lab.estimators.rule_identity`)
share the reduced values of the first of them.  A rule that ignores W,
against a baseline that ignores W too, reduces the same operands at every
eta, so its row is reduced at the first eta only; the baseline's own row is
formed at every eta.  A block whose rows all ignore W forms neither W nor its
terms, and its rules get None for them.

Rows compute into arrays they own.  W is formed in one row per block,
each rule, table lookup and loss writes into the few arrays its own call
made (never into ln S, a WTerms field or the table), and a reduction
squares into one scratch row; so a block makes few 128 KiB arrays, each
with the same operands in the same order as before, and the same bits.
The baseline's own row takes its sum of l^2 as its cross sum, and under
squared error, where l = d^2 elementwise, the sum of d^2 is the sum of l.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .errors import DomainError, NumericError
from .estimators import ESTIMATOR_NAMES, WTerms, resolve_estimator, rule_identity
from .model import SQUARED_ERROR, Loss
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
        if len(set(self.eta_grid)) < len(self.eta_grid):
            raise DomainError(f"eta_grid repeats a value: {list(self.eta_grid)}")
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
    """Block ``ib`` of :func:`risk_jobs`: estimators by reduced values by eta."""
    n, loss, names = cfg.n, cfg.loss, cfg.estimators
    ids = [rule_identity(e, n, loss) for e in names]
    ibase = names.index(cfg.baseline)
    # names[e] takes the row of names[rep[e]], the first name with its rule
    # in the order the rows are formed: the baseline's, then the others
    order = [ibase] + [e for e in range(len(names)) if e != ibase]
    first = {}
    for e in order:
        first.setdefault(ids[e][0], e)
    rep = [first[key] for key, _ in ids]
    rows = list(first.values())
    fns = {e: resolve_estimator(names[e], n, loss)[1] for e in rows}
    # against a baseline that ignores W, a row that ignores W reduces to the
    # same values at every eta; the baseline's own row is formed at each
    fixed = set() if ids[ibase][1] else {e for e in rows if e != ibase and not ids[e][1]}
    reads_w = any(ids[e][1] for e in rows)
    b = min(BLOCK_SIZE, cfg.replications - ib * BLOCK_SIZE)
    gen = RngStream(cfg.master_seed, ib).generator
    d = gen.standard_normal(b)
    np.multiply(math.sqrt(2.0 / n), d, out=d)
    s2 = gen.chisquare(2 * n - 2, b)
    lns = np.log(s2)
    np.multiply(0.5, lns, out=lns)
    s = np.sqrt(s2, out=s2)
    w = np.empty_like(d)
    wt = None
    out = [[None] * len(cfg.eta_grid) for _ in names]
    for t, eta in enumerate(cfg.eta_grid):
        if reads_w:
            np.add(d, eta / math.sqrt(n), out=w)
            wt = WTerms(np.divide(w, s, out=w), n)
        for e in rows:
            if t and e in fixed:
                out[e][t] = out[e][0]
                continue
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
    return np.moveaxis(np.array([out[r] for r in rep]), 1, -1)


def risk_jobs(cfg: SimConfig, reduce=None) -> list:
    """The campaign's blocks as jobs for :func:`~entropy_lab.workers.run_jobs`,
    each folding ``reduce(l, d, l_base)`` over its replications, every eta
    and every estimator; by default the sums :func:`fold_risk` reads.

    ``d`` holds one estimator's estimates on one block at one eta, ``l``
    their losses and ``l_base`` the baseline estimator's losses there.  Data
    are drawn at mu1 = 0, sigma = 1 (risk depends on the parameters only
    through eta), so an estimate is its own error.  A job's result has the
    estimators on its first axis, the reduced values next and eta last; the
    campaign's is their sum in block order.  With more than one worker,
    ``reduce`` must be a module-level function, so that it pickles.
    """
    if reduce is None:
        reduce = _risk_sums_squared_error if cfg.loss.kind == SQUARED_ERROR else _risk_sums
    nblocks = (cfg.replications + BLOCK_SIZE - 1) // BLOCK_SIZE
    return [partial(_block, cfg, reduce, ib) for ib in range(nblocks)]


def _loss_square_sums(l, l_base) -> tuple:
    """Sums of l^2 and l * l_base, formed in one scratch row, and the row.
    The baseline's own row (l is l_base) takes its sum of l^2 as both."""
    sq = np.square(l)
    sum_l2 = sq.sum()
    return sum_l2, sum_l2 if l is l_base else np.multiply(l, l_base, out=sq).sum(), sq


def _risk_sums(l, d, l_base) -> tuple:
    """Sums of l, l^2, d, d^2 and l * l_base."""
    sum_l2, sum_lb, sq = _loss_square_sums(l, l_base)
    return l.sum(), sum_l2, d.sum(), np.square(d, out=sq).sum(), sum_lb


def _risk_sums_squared_error(l, d, l_base) -> tuple:
    """:func:`_risk_sums` under squared error, where l = d^2 elementwise, so
    the sum of d^2 is the sum of l."""
    sum_l2, sum_lb, _ = _loss_square_sums(l, l_base)
    sum_l = l.sum()
    return sum_l, sum_l2, d.sum(), sum_l, sum_lb


def fold_risk(cfg: SimConfig, blocks: list) -> SimResult:
    """The campaign's cells from its blocks' results, in block order."""
    names = cfg.estimators
    etas = tuple(float(e) for e in cfg.eta_grid)
    ibase = names.index(cfg.baseline)
    sum_l, sum_l2, sum_d, sum_d2, sum_lb = np.moveaxis(np.sum(blocks, axis=0), 1, 0)
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


def simulate_risk(cfg: SimConfig) -> SimResult:
    """Estimate risk and bias of each estimator across the eta grid."""
    return fold_risk(cfg, run_jobs(risk_jobs(cfg), cfg.threads))


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
    counts = np.sum(run_jobs(risk_jobs(cfg, _gpc_counts), threads), axis=0)
    n_less, n_tie = counts[cfg.estimators.index(est1), :, 0].tolist()
    p = (n_less + 0.5 * n_tie) / reps
    var = (n_less + 0.25 * n_tie) / reps - p * p
    return GpcResult(value=p, stderr=math.sqrt(max(var, 0.0) / reps),
                     n_less=n_less, n_tie=n_tie, replications=reps)
