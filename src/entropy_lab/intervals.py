"""Interval procedures for tau = ln(sigma): asymptotic, parametric
bootstrap (percentile and studentized), generalized pivot, and an MCMC
highest-posterior-density interval.

Fisher information gives Var(ln sigma_hat) = 1/(4n) for the pooled model,
which fixes both the asymptotic interval and the studentizing constant of
the bootstrap-t.  The generalized pivot ln(s) - ln(V)/2 with V chi-square
2(n-1) is exact: its observed value is tau itself, so coverage matches the
nominal level at every n.  By Cochran's theorem a parametric resample's
pooled sum of squares is sigma_hat^2 V, so the studentized bootstrap is the
same pivot over K draws and the percentile one is it reflected about
eta_hat.  No pivot draw or resample is formed: a linear sample quantile
reads two adjacent order statistics, and the four an interval reads have an
exact law, U_(k) = G_k / G_(m+1) with G the partial sums of m + 1 Exp(1)
spacings (Renyi's representation; Devroye 1986, ch. V).

The hpd chain is a random walk on the exact marginal posterior
sigma^2 | data ~ IG(n - 1, SS0/2), the means integrated out (Liu 1994),
read by the Chen & Shao (1999) window.  With M draws the window at a level
reads only the r = M - floor(level M) lowest and the r highest, so a chain
run for an interval keeps just those: its draws go into a bounded buffer
that, when full, is sorted in place and cut back to its two tails.  Chains
of different n advance in lockstep on one step-noise stream.

Each method is one function over arrays of statistics (``aci_bounds``,
``gci_bounds``, ``boot_bounds``; for hpd, ``run_variance_chains`` and the
Chen–Shao window).  The coverage study calls it on blocks of replications,
every n of a block together; ``aci`` ... ``hpd_mcmc`` call it on a batch
of one and add input floors and diagnostics.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .model import SuffStats, TwoSampleData, suff_stats
from .numerics import chi_square_quantile, std_normal_quantile
from .numerics.rng import RngStream


@dataclass(frozen=True)
class IntervalResult:
    method: str
    lower: float
    upper: float
    level: float
    length: float
    diagnostics: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {"method": self.method, "level": self.level, "lower": self.lower,
                "upper": self.upper, "length": self.length,
                "diagnostics": dict(self.diagnostics)}


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

    ``proposal_sd`` of None selects the default scale
    2.4 (SS0/2) / ((n-1) sqrt(n)) from the marginal posterior of the
    variance; one adaptation window inside burn-in rescales it once, after
    which the kernel is frozen.  ``level`` of None keeps each chain's full
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


def _result(method: str, level: float, bounds, diagnostics: dict) -> IntervalResult:
    lower, upper, length = (float(v[0]) for v in bounds)
    return IntervalResult(method, lower, upper, level, length, diagnostics)


# ---------------------------------------------------------------------------
# asymptotic interval
# ---------------------------------------------------------------------------


def aci_bounds(lns: np.ndarray, n: int, level: float):
    """The asymptotic interval for each ln(S)."""
    center = lns - 0.5 * math.log(2.0 * n)
    half = std_normal_quantile(0.5 * (1.0 + level)) / (2.0 * math.sqrt(n))
    lower, upper = center - half, center + half
    return lower, upper, upper - lower


def aci(data: TwoSampleData, level: float = 0.95) -> IntervalResult:
    """ln(sigma_hat_MLE) +/- z_{(1+level)/2} / (2 sqrt(n))."""
    level = _check_level(level)
    st = suff_stats(data)
    return _result("aci", level, aci_bounds(np.array([math.log(st.s)]), st.n, level),
                   {"center": math.log(st.s) - 0.5 * math.log(2.0 * st.n)})


# ---------------------------------------------------------------------------
# generalized pivot interval
# ---------------------------------------------------------------------------


def _half_log_chi2_quantiles(n: int, level: float, m: int, b: int,
                             gen: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """b draws of the linear sample quantiles (lo, hi) of ln(V)/2 at
    (1 -/+ level)/2 over m iid V ~ chi-square 2(n-1).  Quantile p reads ranks
    j + 1 and j + 2 with weight h - j, h = (m - 1) p, j = floor(h); a rank
    past m only occurs with weight 0 and is clipped."""
    alpha = 1.0 - level
    h = (m - 1) * np.array([0.5 * alpha, 1.0 - 0.5 * alpha])
    j = np.floor(h)
    pair = np.minimum(np.stack([j + 1.0, j + 2.0]), m)       # (neighbour, quantile)
    ranks, rows = np.unique(pair, return_inverse=True)
    shapes = np.diff(np.concatenate(([0.0], ranks, [m + 1.0])))
    g = np.cumsum(gen.standard_gamma(shapes[:, None], (len(shapes), b)), axis=0)
    half_log_v = 0.5 * np.log(chi_square_quantile(2 * (n - 1), g[:-1] / g[-1]))
    below, above = half_log_v[rows.reshape(pair.shape)]
    lo, hi = below + (h - j)[:, None] * (above - below)
    return lo, hi


def gci_bounds(lns: np.ndarray, n: int, level: float, draws: int, gen: np.random.Generator):
    """Quantiles of the pivot ln(s) - ln(V)/2 over ``draws`` draws of V for
    each ln(s); the pivot falls in V."""
    lo, hi = _half_log_chi2_quantiles(n, level, draws, len(lns), gen)
    return lns - hi, lns - lo, hi - lo


def gci_umvue(st: SuffStats, level: float = 0.95, draws: int = 10_000,
              seed: int = 0) -> IntervalResult:
    """Sample quantiles over ``draws`` draws of the pivot ln(s) - ln(V)/2,
    V ~ chi-square 2(n-1); the observed V returns tau exactly, which makes
    the coverage exact."""
    level = _check_level(level)
    if draws < 1000:
        raise DomainError(f"gci needs at least 1000 pivot draws, got {draws}")
    bounds = gci_bounds(np.array([math.log(st.s)]), st.n, level, draws,
                        RngStream(seed, 0).generator)
    return _result("gci", level, bounds, {"draws": draws})


# ---------------------------------------------------------------------------
# parametric bootstrap
# ---------------------------------------------------------------------------


def boot_bounds(s2: np.ndarray, n: int, level: float, K: int, gen: np.random.Generator):
    """Percentile and studentized intervals from K resamples per pooled sum
    of squares; returns (percentile, studentized).

    A resample's estimate is eta_hat + ln(V / (2n))/2 with
    eta_hat = ln(s) - ln(2n)/2, so with the constant standard error
    1/(2 sqrt(n)) the studentized interval is the gci pivot interval over K
    draws and the percentile interval is it reflected about eta_hat: one
    length, while only the studentized coverage matches the exact pivot.
    """
    lns = 0.5 * np.log(s2)
    lower, upper, length = gci_bounds(lns, n, level, K, gen)
    two_eta_hat = 2.0 * lns - math.log(2.0 * n)
    return (two_eta_hat - upper, two_eta_hat - lower, length), (lower, upper, length)


def _boot(data: TwoSampleData, level: float,
          cfg: BootConfig) -> tuple[IntervalResult, IntervalResult]:
    level = _check_level(level)
    st = suff_stats(data)
    pct, stud = boot_bounds(np.array([st.s2]), st.n, level, cfg.K,
                            RngStream(cfg.seed, 0).generator)
    diag = {"K": cfg.K}
    return (_result("boot-p", level, pct, diag),
            _result("boot-t", level, stud, {**diag, "se": 0.5 / math.sqrt(st.n)}))


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


def mh_variance_step(beta: np.ndarray, ss: np.ndarray, n: int, prop_sd: np.ndarray,
                     z_prop: np.ndarray, logu: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One random-walk update of beta = sigma^2 targeting the kernel
    beta^-(n+1) exp(-ss/(2 beta)), i.e. inverse-gamma with shape n and
    scale ss/2.  Nonpositive proposals are rejected.

    ``z_prop`` is the standard normal proposal noise and ``logu`` the log
    uniform acceptance draw; returns (new beta, accept mask).
    """
    prop = beta + prop_sd * z_prop
    valid = prop > 0.0
    safe = np.where(valid, prop, 1.0)
    logr = -(n + 1.0) * (np.log(safe) - np.log(beta)) - 0.5 * ss * (1.0 / safe - 1.0 / beta)
    accept = valid & (logu <= logr)
    return np.where(accept, prop, beta), accept


# draws a chain buffers beyond its two tails before it sorts and folds
FOLD_DRAWS = 256


def run_variance_chains(x1bar: np.ndarray, x2bar: np.ndarray,
                        ss1: np.ndarray, ss2: np.ndarray, n: int | np.ndarray,
                        cfg: McmcConfig, gen: np.random.Generator):
    """Advance B independent chains in lockstep over the marginal posterior
    of beta = sigma^2 under the noninformative 1/sigma^2 prior.

    With the means integrated out, beta | data is inverse-gamma with shape
    n - 1 and scale SS0/2, SS0 = ss1 + ss2, so each step is one random-walk
    proposal for beta on that exact law; the sample means do not enter.
    ``n`` is one sample size or one per chain, and each step draws B
    standard normals, then B standard exponentials, from ``gen``.

    Returns (theta, acceptance, proposal_sd) where theta[k, j] = ln(sigma)_k
    for chain j after burn-in.  With ``cfg.level`` set, theta is instead
    the pair (lowest, highest) of (r, B) arrays, each chain's r smallest
    and r largest draws in ascending order, r = M - floor(level M): the
    draws :func:`chen_shao_hpd` would read from the sorted trace.  Draws
    are stored chain-major; a level bounds the buffer at 2r + FOLD_DRAWS
    per chain, and a full buffer is sorted along its rows and cut back to
    its 2r tail draws.
    """
    ss0 = np.atleast_1d(np.asarray(ss1, dtype=float) + np.asarray(ss2, dtype=float))
    B = len(ss0)
    beta = ss0 / (2.0 * (n - 1))          # pooled sample variance start
    if cfg.proposal_sd is None:
        prop_sd = 2.4 * (0.5 * ss0) / ((n - 1) * np.sqrt(n))
    else:
        prop_sd = np.full(B, float(cfg.proposal_sd))
    M = cfg.N - cfg.N0
    r = M if cfg.level is None else M - _window_offset(M, cfg.level)
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
    window = min(cfg.N0, 500)
    win_accept = np.zeros(B, dtype=np.int64)
    for k in range(1, cfg.N + 1):
        z_prop = gen.standard_normal(B)
        logu = -gen.standard_exponential(B)
        beta, accept = mh_variance_step(beta, ss0, n - 1, prop_sd, z_prop, logu)
        if k <= window:
            win_accept += accept
            if k == window and window >= 50:
                rate = win_accept / window
                prop_sd = prop_sd * np.clip(rate / 0.40, 0.2, 5.0)
        if k > cfg.N0:
            if filled == trace.shape[1]:
                filled = fold()
            np.multiply(np.log(beta), 0.5, out=trace[:, filled])
            filled += 1
            accepted += accept
    if cfg.level is None:
        return trace.T, accepted / M, prop_sd
    filled = fold()
    return (trace[:, :r].T, trace[:, filled - r:filled].T), accepted / M, prop_sd


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
    on the marginal posterior of sigma^2."""
    level = _check_level(level)
    if cfg.N - cfg.N0 < 1000:
        raise DomainError(f"need at least 1000 post-burn-in draws, got {cfg.N - cfg.N0}")
    st = suff_stats(data)
    gen = RngStream(cfg.seed, 0).generator
    theta, acc, prop_sd = run_variance_chains(
        np.array([st.mean1]), np.array([st.mean2]),
        np.array([st.s2]), np.zeros(1), st.n, cfg, gen)
    rate = float(acc[0])
    diag = {"acceptance_rate": rate, "ess": _autocorr_ess(theta[:, 0]),
            "draws": len(theta), "proposal_sd": float(prop_sd[0])}
    if not 0.05 <= rate <= 0.7:
        diag["acceptance_warning"] = True
        warnings.warn(f"MH acceptance rate {rate:.3f} outside [0.05, 0.7]",
                      RuntimeWarning, stacklevel=2)
    theta.sort(axis=0)
    lower, upper = chen_shao_hpd(theta, level)
    return _result("hpd", level, (lower, upper, upper - lower), diag)


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
    ascending along the first axis; a 2-d array gives one interval per
    column.

    With M draws and window offset floor(level * M), the start index
    minimizing the window width is chosen; widths within a 1e-12 relative
    band of the minimum count as ties and the smallest index wins.
    """
    level = _check_level(level)
    draws = np.asarray(sorted_draws, dtype=float)
    m = len(draws)
    offset = _window_offset(m, level)
    if (draws[1:] < draws[:-1]).any():
        raise DomainError("draws must be sorted ascending")
    return _shortest_window(draws[:m - offset], draws[offset:])
