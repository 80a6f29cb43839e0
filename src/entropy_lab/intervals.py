"""Interval procedures for tau = ln(sigma): asymptotic, generalized pivot,
parametric bootstrap (percentile and studentized), and an MCMC
highest-posterior-density interval.

Each is location-scale equivariant: on data with pooled sum of squares
SS0 = S^2 it is ln S + (a, b), offsets (a, b) free of the data.  So a
method's kernel (``aci_offsets``, ``gci_offsets``, ``boot_offsets``, and
``hpd_offsets`` over ``run_variance_chains``) reads no data and returns
(a, b, length) for b replications at one n; :func:`at_log_scale`, the one
place that adds ln S, serves the coverage study's blocks and ``aci`` ...
``hpd_mcmc``, which run their kernel on a batch of one.

Var(ln sigma_hat) = 1/(4n) fixes the asymptotic interval and the
bootstrap-t's standard error.  The pivot ln(s) - ln(V)/2, V ~ chi-square
2(n-1), is exact.  A parametric resample's pooled sum of squares is
sigma_hat^2 V (Cochran), so boot-t is the pivot over K draws and boot-p is
it reflected about eta_hat, whose offset is -ln(2n)/2.  No pivot draw or
resample is formed: a linear sample quantile reads two adjacent order
statistics, drawn from their exact law U_(k) = G_k / G_(m+1), G the partial
sums of m + 1 Exp(1) spacings (Renyi's representation; Devroye 1986, ch. V).

The hpd chain walks on the exact marginal posterior
sigma^2 | data ~ IG(n - 1, SS0/2), the means integrated out (Liu 1994), in
u = sigma^2 / (SS0/2) ~ IG(n - 1, 1), which no datum enters.  As
ln(sigma) = ln S + ln(u)/2 - ln(2)/2, hpd's offsets are the Chen & Shao
(1999) window over draws of ln(u)/2, less ln(2)/2 (see
:func:`run_variance_chains` for the lockstep chains and their tails).
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, DomainError, NumericError
from .model import SuffStats, TwoSampleData, suff_stats
from .numerics import chi_square_quantile
from .numerics.rng import RngStream


@dataclass(frozen=True)
class IntervalResult:
    method: str
    lower: float
    upper: float
    level: float
    length: float
    diagnostics: dict = field(default_factory=dict)


@dataclass(frozen=True)
class BootConfig:
    """Parametric bootstrap settings; K resamples (at least 100)."""

    K: int = 3000
    seed: int = 0

    def __post_init__(self) -> None:
        if self.K < 100:
            raise DomainError(f"bootstrap needs K >= 100 resamples, got {self.K}")


@dataclass(frozen=True)
class McmcConfig:
    """Random-walk chain settings: N total iterations, N0 burn-in.

    The chain walks on the standardized variance u = sigma^2 / (SS0/2).
    ``proposal_sd`` of None selects the default scale 2.4 / ((n-1) sqrt(n))
    in u units, from the marginal posterior of the variance; a given
    ``proposal_sd`` is in sigma^2 units and the chain divides it by SS0/2.
    One adaptation window inside burn-in rescales it once, after which the
    kernel is frozen.  ``level`` of None keeps each chain's full
    time-ordered trace; a level keeps only the draws the Chen–Shao window
    at that level reads.
    """

    N: int = 12_000
    N0: int = 2_000
    proposal_sd: float | None = None
    seed: int = 0
    level: float | None = None

    def __post_init__(self) -> None:
        if not self.N > self.N0 >= 0:
            raise DomainError(f"need N > N0 >= 0, got N={self.N}, N0={self.N0}")
        if self.proposal_sd is not None and not 0 < self.proposal_sd < math.inf:
            raise DomainError(f"proposal_sd must be positive and finite, got {self.proposal_sd!r}")
        if self.level is not None:
            _window_offset(self.N - self.N0, _check_level(self.level))


def _check_level(level: float) -> float:
    level = float(level)
    if not 0.0 < level < 1.0:
        raise DomainError(f"confidence level must be in (0, 1), got {level!r}")
    return level


def at_log_scale(lns, offsets):
    """ln S + (a, b), and the length, for a kernel's offsets (a, b, length)."""
    lower, upper, length = offsets
    return lns + lower, lns + upper, length


def _result(method: str, level: float, st: SuffStats, offsets,
            diagnostics: dict) -> IntervalResult:
    """The interval ``offsets`` give on the data of ``st``, a batch of one."""
    lower, upper, length = (float(np.ravel(v)[0])
                            for v in at_log_scale(math.log(st.s), offsets))
    return IntervalResult(method, lower, upper, level, length, diagnostics)


# ---------------------------------------------------------------------------
# asymptotic interval
# ---------------------------------------------------------------------------


def aci_offsets(n: int, level: float) -> tuple[float, float, float]:
    """The asymptotic interval's offsets -ln(2n)/2 -/+ h, h = z / (2 sqrt(n)),
    the same for every replication; z is the normal quantile at (1 + level)/2,
    a DomainError where that rounds to 1."""
    from statistics import NormalDist  # imports decimal, which only aci needs

    p = 0.5 * (1.0 + level)
    if not p < 1.0:
        raise DomainError(f"aci needs (1 + level)/2 below 1, got level {level!r}")
    center = -0.5 * math.log(2.0 * n)
    half = NormalDist().inv_cdf(p) / (2.0 * math.sqrt(n))
    return center - half, center + half, 2.0 * half


def aci(data: TwoSampleData, level: float = 0.95) -> IntervalResult:
    """ln(sigma_hat_MLE) +/- z_{(1+level)/2} / (2 sqrt(n))."""
    level = _check_level(level)
    st = suff_stats(data)
    return _result("aci", level, st, aci_offsets(st.n, level),
                   {"center": math.log(st.s) - 0.5 * math.log(2.0 * st.n)})


# ---------------------------------------------------------------------------
# generalized pivot interval
# ---------------------------------------------------------------------------


def gci_offsets(n: int, level: float, draws: int, b: int, gen: np.random.Generator):
    """Offsets of b intervals, each from the (1 -/+ level)/2 linear sample
    quantiles of the pivot ln(s) - ln(V)/2 over ``draws`` iid
    V ~ chi-square 2(n-1): minus those of ln(V)/2, (lo, hi).  Quantile p
    reads ranks j + 1 and j + 2 with weight h - j, h = (draws - 1) p,
    j = floor(h); a rank past ``draws`` only occurs with weight 0 and is
    clipped."""
    alpha = 1.0 - level
    h = (draws - 1) * np.array([0.5 * alpha, 1.0 - 0.5 * alpha])
    j = np.floor(h)
    pair = np.minimum(np.stack([j + 1.0, j + 2.0]), draws)   # (neighbour, quantile)
    ranks, rows = np.unique(pair, return_inverse=True)
    shapes = np.diff(np.concatenate(([0.0], ranks, [draws + 1.0])))
    g = np.cumsum(gen.standard_gamma(shapes[:, None], (len(shapes), b)), axis=0)
    half_log_v = 0.5 * np.log(chi_square_quantile(2 * (n - 1), g[:-1] / g[-1]))
    below, above = half_log_v[rows.reshape(pair.shape)]
    lo, hi = below + (h - j)[:, None] * (above - below)
    return -hi, -lo, hi - lo


def gci_umvue(st: SuffStats, level: float = 0.95, draws: int = 10_000,
              seed: int = 0) -> IntervalResult:
    """Sample quantiles over ``draws`` draws of the pivot ln(s) - ln(V)/2,
    V ~ chi-square 2(n-1); the observed V returns tau exactly, which makes
    the coverage exact."""
    level = _check_level(level)
    if draws < 1000:
        raise DomainError(f"gci needs at least 1000 pivot draws, got {draws}")
    offsets = gci_offsets(st.n, level, draws, 1, RngStream(seed, 0).generator)
    return _result("gci", level, st, offsets, {"draws": draws})


# ---------------------------------------------------------------------------
# parametric bootstrap
# ---------------------------------------------------------------------------


def boot_offsets(n: int, level: float, K: int, b: int, gen: np.random.Generator):
    """Offsets of b percentile and b studentized intervals, each from K
    resamples; returns (percentile, studentized).

    A resample's estimate is eta_hat + ln(V / (2n))/2 with
    eta_hat = ln(s) - ln(2n)/2, so with the constant standard error
    1/(2 sqrt(n)) the studentized interval is the gci pivot interval over K
    draws and the percentile interval is it reflected about eta_hat, whose
    offset is -ln(2n)/2: the two share one length array, while only the
    studentized coverage matches the exact pivot.
    """
    lower, upper, length = gci_offsets(n, level, K, b, gen)
    two_eta_hat = -math.log(2.0 * n)
    return (two_eta_hat - upper, two_eta_hat - lower, length), (lower, upper, length)


def _boot(data: TwoSampleData, level: float,
          cfg: BootConfig) -> tuple[IntervalResult, IntervalResult]:
    level = _check_level(level)
    st = suff_stats(data)
    pct, stud = boot_offsets(st.n, level, cfg.K, 1, RngStream(cfg.seed, 0).generator)
    diag = {"K": cfg.K}
    return (_result("boot-p", level, st, pct, diag),
            _result("boot-t", level, st, stud, {**diag, "se": 0.5 / math.sqrt(st.n)}))


def boot_p(data: TwoSampleData, level: float = 0.95,
           cfg: BootConfig = BootConfig()) -> IntervalResult:
    """Percentile interval of the resampled ln(sigma_hat*)."""
    return _boot(data, level, cfg)[0]


def boot_t(data: TwoSampleData, level: float = 0.95,
           cfg: BootConfig = BootConfig()) -> IntervalResult:
    """Studentized interval with the constant standard error 1/(2 sqrt(n));
    same resamples and length as ``boot_p`` at the same config."""
    return _boot(data, level, cfg)[1]


# ---------------------------------------------------------------------------
# MCMC highest posterior density interval
# ---------------------------------------------------------------------------


def _mh_update(u: np.ndarray, log_u: np.ndarray, shape1, prop_sd: np.ndarray,
               z: np.ndarray, e: np.ndarray) -> np.ndarray:
    """One random-walk update, in place, of the carried state (u, ln u)
    targeting the kernel u^-shape1 exp(-1/u), i.e. IG(shape1 - 1, 1); ``z``
    is the standard normal noise, overwritten by the proposal, and e = -ln U
    for the uniform acceptance draw U.  The test e >= shape1 (ln prop - ln u)
    + (1/prop - 1/u) is ln U <= ln r exactly.  A nonpositive proposal makes
    its right side NaN, and one so near 0 that 1/prop overflows, or so large
    that it overflows, +inf (target density 0): both fail it, with no mask.
    Returns the accept mask."""
    prop = np.add(u, np.multiply(prop_sd, z, out=z), out=z)
    log_prop = np.log(prop)
    accept = e >= shape1 * (log_prop - log_u) + (1.0 / prop - 1.0 / u)
    np.putmask(u, accept, prop)
    np.putmask(log_u, accept, log_prop)
    return accept


# draws a chain buffers beyond its two tails before it sorts and folds
FOLD_DRAWS = 256

# post-burn-in acceptance rates of a healthy chain; outside, hpd_mcmc warns
ACCEPTANCE_BAND = (0.05, 0.7)


def run_variance_chains(x1bar: np.ndarray, x2bar: np.ndarray,
                        ss1: np.ndarray, ss2: np.ndarray, n: int | np.ndarray,
                        cfg: McmcConfig, gen: np.random.Generator):
    """Advance B independent chains in lockstep over the marginal posterior
    of sigma^2 under the noninformative 1/sigma^2 prior.

    With the means integrated out, sigma^2 | data is inverse-gamma with
    shape n - 1 and scale SS0/2, SS0 = ss1 + ss2, so the standardized
    variance u = sigma^2 / (SS0/2) is IG(n - 1, 1) whatever the data.  Each
    chain is a random walk on u from 1/(n - 1), and its draws are of
    ln(u)/2, which no datum enters: ln(sigma) = ln(SS0/2)/2 + ln(u)/2.  The
    data arguments stay in the signature, which the bench's tracing wrapper
    (``bench/spans.py``) matches, until that wrapper changes: ``x1bar`` and
    ``x2bar`` are not read, and ss1 + ss2 only sets the chain count and puts
    a given ``proposal_sd`` in u units and the returned one back in sigma^2
    units.  ``n`` is one sample size or one per chain; each step draws B
    standard normals, then B standard exponentials.

    Returns (theta, acceptance, proposal_sd) where theta[k, j] = ln(u)_k / 2
    for chain j after burn-in and proposal_sd is each chain's final sd in
    sigma^2 units.  With ``cfg.level`` set, theta is instead the pair
    (lowest, highest) of (r, B) arrays, each chain's r smallest and r
    largest draws in ascending order, r = M - floor(level M): the draws
    :func:`chen_shao_hpd` would read from the sorted trace.  Draws are
    stored chain-major; a level bounds the buffer at 2r + FOLD_DRAWS per
    chain, and a full buffer is sorted along its rows and cut back to its
    2r tail draws.  A batch of one chain steps on floats
    (:func:`_one_chain`) and sorts its whole trace once for a level: the
    same values.
    """
    half_ss0 = 0.5 * np.atleast_1d(np.asarray(ss1, dtype=float) + np.asarray(ss2, dtype=float))
    B = len(half_ss0)
    u = np.ones(B) / (n - 1)              # the pooled sample variance, in u units
    if cfg.proposal_sd is None:
        prop_sd = np.broadcast_to(2.4 / ((n - 1) * np.sqrt(n)), B)
        sd = prop_sd * half_ss0
    else:
        sd = np.full(B, float(cfg.proposal_sd))
        with np.errstate(over="ignore"):    # inf on tiny data; an inf sd only rejects
            prop_sd = sd / half_ss0
    M = cfg.N - cfg.N0
    r = M if cfg.level is None else M - _window_offset(M, cfg.level)
    log_u, shape1 = np.log(u), (n - 1) + 1.0
    if B == 1:
        draws, accepted, scale = _one_chain(u.item(), log_u.item(), np.asarray(shape1).item(),
                                            prop_sd.item(), cfg, gen)
        theta = np.array(draws)[:, None]
        if cfg.level is not None:
            theta.sort(axis=0)
            theta = (theta[:r], theta[M - r:])
        return theta, np.array([accepted / M]), sd * scale
    trace = np.empty((B, min(M, 2 * r + FOLD_DRAWS)))
    filled = 0

    def fold() -> int:
        rows = trace[:, :filled]
        rows.sort(axis=1)
        if 2 * r >= filled:
            return filled
        trace[:, r:2 * r] = rows[:, filled - r:]
        return 2 * r

    accepted = np.zeros(B, dtype=np.int64)
    window, scale = min(cfg.N0, 500), 1.0
    win_accept = np.zeros(B, dtype=np.int64)
    z, e = np.empty(B), np.empty(B)
    # a nonpositive or overflowing proposal is an exact rejection (see _mh_update)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for k in range(1, cfg.N + 1):
            gen.standard_normal(out=z)
            gen.standard_exponential(out=e)
            accept = _mh_update(u, log_u, shape1, prop_sd, z, e)
            if k <= window:
                win_accept += accept
                if k == window and window >= 50:
                    scale = np.clip(win_accept / window / 0.40, 0.2, 5.0)
                    prop_sd = prop_sd * scale
            if k > cfg.N0:
                if filled == trace.shape[1]:
                    filled = fold()
                np.multiply(log_u, 0.5, out=trace[:, filled])
                filled += 1
                accepted += accept
    if cfg.level is None:
        return trace.T, accepted / M, sd * scale
    filled = fold()
    return (trace[:, :r].T, trace[:, filled - r:filled].T), accepted / M, sd * scale


def _one_chain(u: float, log_u: float, shape1: float, sd: float,
               cfg: McmcConfig, gen: np.random.Generator) -> tuple[list, int, float]:
    """The steps of :func:`run_variance_chains` for a batch of one chain, on
    Python floats; returns the M post-burn-in draws of ln(u)/2 in time
    order, the post-burn-in accept count and the adaptation's factor on the
    proposal sd (1.0 without an adaptation window).  A step draws the
    size-1 draws' variates in their order, takes numpy's log (``math.log``
    differs from its SIMD log in the last bit on some inputs) and the
    kernel's test left to right, so every bit matches; a nonpositive
    proposal fails the guard ``prop > 0.0`` where the kernel's bound is NaN,
    since 1.0/0.0 raises on floats."""
    log, normal, exponential = np.log, gen.standard_normal, gen.standard_exponential
    window, scale = min(cfg.N0, 500), 1.0
    win_accept = accepted = 0
    trace = []
    for k in range(1, cfg.N + 1):
        prop = u + sd * normal()
        e = exponential()
        accept = False
        if prop > 0.0:
            log_prop = float(log(prop))
            if e >= shape1 * (log_prop - log_u) + (1.0 / prop - 1.0 / u):
                u, log_u, accept = prop, log_prop, True
        if k <= window:
            win_accept += accept
            if k == window and window >= 50:
                scale = min(max(win_accept / window / 0.40, 0.2), 5.0)
                sd = sd * scale
        if k > cfg.N0:
            trace.append(0.5 * log_u)
            accepted += accept
    return trace, accepted, scale


def _autocorr_ess(x: np.ndarray, max_lag: int = 200) -> float:
    """Effective sample size from the truncated autocorrelation sum."""
    m = len(x)
    xc = x - x.mean()
    denom = float(xc @ xc)
    if denom == 0.0:
        return float(m)
    tau = 1.0
    for k in range(1, min(max_lag, m - 1)):
        rho = float(xc[:-k] @ xc[k:]) / denom
        if rho <= 0.0:
            break
        tau += 2.0 * rho
    return m / tau


def hpd_mcmc(data: TwoSampleData, level: float = 0.95,
             cfg: McmcConfig = McmcConfig()) -> IntervalResult:
    """Highest-posterior-density interval for tau from a random-walk chain
    on the marginal posterior of sigma^2.  The chain's whole trace gives
    the ESS, so ``cfg.level`` must be None; its proposal scale reads S^2,
    so data whose S^2 underflows are refused."""
    level = _check_level(level)
    if cfg.N - cfg.N0 < 1000:
        raise DomainError(f"need at least 1000 post-burn-in draws, got {cfg.N - cfg.N0}")
    if cfg.level is not None:
        raise DomainError("hpd_mcmc reads the whole trace: McmcConfig.level must be None, "
                          f"got {cfg.level!r}")
    st = suff_stats(data)
    if st.s2 < sys.float_info.min:
        raise DataError("samples too small: pooled sum of squares underflows")
    theta, acc, prop_sd = run_variance_chains(
        np.array([st.mean1]), np.array([st.mean2]), np.array([st.s2]), np.zeros(1), st.n, cfg,
        RngStream(cfg.seed, 0).generator)
    rate = float(acc[0])
    if rate == 0.0:
        # a one-point trace: its HPD has zero width and its ESS means nothing
        raise NumericError("MH chain never moved: acceptance 0 after burn-in")
    diag = {"acceptance_rate": rate, "ess": _autocorr_ess(theta[:, 0]),
            "draws": len(theta), "proposal_sd": float(prop_sd[0])}
    lo, hi = ACCEPTANCE_BAND
    if not lo <= rate <= hi:
        diag["acceptance_warning"] = True
        warnings.warn(f"MH acceptance rate {rate:.3f} outside [{lo}, {hi}]",
                      RuntimeWarning, stacklevel=2)
    theta.sort(axis=0)
    return _result("hpd", level, st, hpd_offsets(*chen_shao_hpd(theta, level)), diag)


def hpd_offsets(lower: np.ndarray, upper: np.ndarray):
    """hpd's offsets from Chen–Shao windows [lower, upper] over draws of
    ln(u)/2: ln(sigma) = ln S + ln(u)/2 - ln(2)/2, since SS0/2 = S^2/2."""
    half_ln2 = 0.5 * math.log(2.0)
    return lower - half_ln2, upper - half_ln2, upper - lower


def _window_offset(m: int, level: float) -> int:
    """The index offset floor(level * m) of a window over m sorted draws."""
    if m < 100:
        raise DomainError(f"need at least 100 draws for an HPD interval, got {m}")
    offset = int(math.floor(level * m))
    if offset < 1 or offset >= m:
        raise DomainError(f"level {level} leaves no valid window for M={m}")
    return offset


def _shortest_window(lowest: np.ndarray, highest: np.ndarray):
    """The narrowest [lowest[i], highest[i]] along the first axis; widths
    within a 1e-12 relative band of the minimum count as ties and the
    smallest i wins."""
    widths = highest - lowest
    wmin = widths.min(axis=0)
    tol = 1e-12 * np.maximum(np.abs(wmin), 1.0)
    i = np.expand_dims(np.argmax(widths <= wmin + tol, axis=0), 0)
    return (np.take_along_axis(lowest, i, axis=0)[0],
            np.take_along_axis(highest, i, axis=0)[0])


def chen_shao_hpd(sorted_draws, level: float):
    """Shortest sliding-window interval over posterior draws sorted
    ascending along the first axis, one per column of a 2-d array: over M
    draws, of the windows [draws[i], draws[i + floor(level M)]], the one
    :func:`_shortest_window` picks."""
    level = _check_level(level)
    draws = np.asarray(sorted_draws, dtype=float)
    m = len(draws)
    offset = _window_offset(m, level)
    if (draws[1:] < draws[:-1]).any():
        raise DomainError("draws must be sorted ascending")
    return _shortest_window(draws[:m - offset], draws[offset:])
