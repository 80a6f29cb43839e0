"""Interval procedures for tau = ln(sigma): asymptotic, parametric
bootstrap (percentile and studentized), generalized pivot, and an MCMC
highest-posterior-density interval.

Fisher information gives Var(ln sigma_hat) = 1/(4n) for the pooled model,
which fixes both the asymptotic interval and the studentizing constant of
the bootstrap-t.  The generalized pivot ln(s) - ln(V)/2 with V chi-square
2(n-1) is exact: its observed value is tau itself, so coverage matches the
nominal level at every n.  The parametric bootstrap uses the same law: by
Cochran's theorem a normal resample's pooled sum of squares is
sigma_hat^2 times a chi-square with 2(n-1) df, so each resample is one
chi-square draw.

Each method is one function over arrays of statistics (``aci_bounds``,
``gci_bounds``, ``boot_bounds``; for hpd, ``run_variance_chains`` and
``chen_shao_hpd``).  The coverage study calls it on blocks of replications;
``aci`` ... ``hpd_mcmc`` call it on a batch of one and add input floors and
diagnostics.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .estimators import mle
from .model import SuffStats, TwoSampleData, suff_stats
from .numerics import std_normal_quantile
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
    2.4 (SS/2) / ((n-1) sqrt(n)) from the conditional posterior of the
    variance; one adaptation window inside burn-in rescales it once, after
    which the kernel is frozen.
    """

    N: int = 12_000
    N0: int = 2_000
    proposal_sd: float | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.N > self.N0 >= 0:
            raise DomainError(f"need N > N0 >= 0, got N={self.N}, N0={self.N0}")
        if self.proposal_sd is not None and self.proposal_sd <= 0:
            raise DomainError("proposal_sd must be positive")


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
                   {"center": mle(st)})


# ---------------------------------------------------------------------------
# generalized pivot interval
# ---------------------------------------------------------------------------


def gci_bounds(lns: np.ndarray, n: int, level: float, draws: int, gen: np.random.Generator):
    """Pivot quantiles over ``draws`` chi-square draws for each ln(s)."""
    v = gen.chisquare(2 * (n - 1), (len(lns), draws))
    pivot = lns[:, None] - 0.5 * np.log(v)
    alpha = 1.0 - level
    lower, upper = np.quantile(pivot, [0.5 * alpha, 1.0 - 0.5 * alpha], axis=1)
    return lower, upper, upper - lower


def gci_umvue(st: SuffStats, level: float = 0.95, draws: int = 10_000,
              seed: int = 0) -> IntervalResult:
    """Empirical quantiles of the pivot ln(s) - ln(V)/2, V ~ chi-square
    with 2(n-1) df.

    Algebraically this is the unbiased estimate minus the centered pivot
    noise; substituting the observed V returns tau exactly, which is what
    makes the interval an exact-coverage procedure.
    """
    level = _check_level(level)
    if draws < 1000:
        raise DomainError(f"gci needs at least 1000 pivot draws, got {draws}")
    bounds = gci_bounds(np.array([math.log(st.s)]), st.n, level, draws,
                        RngStream(seed, 0).generator)
    return _result("gci", level, bounds, {"draws": draws})


# ---------------------------------------------------------------------------
# parametric bootstrap
# ---------------------------------------------------------------------------


def _bootstrap_log_sigmas(s2: np.ndarray, n: int, K: int,
                          gen: np.random.Generator) -> np.ndarray:
    """(B, K) parametric-resample estimates ln(sigma_hat*), K per pooled
    sum of squares in ``s2``.

    A resample is two normal samples of size n with variance
    sigma_hat^2 = s2 / (2n), and it enters only through its pooled sum of
    squares, which by Cochran's theorem is sigma_hat^2 times a chi-square
    with 2(n-1) df.  So one (B, K) chi-square draw stands for the (B, K, 2n)
    normal resample; it is positive almost surely.
    """
    ssz = gen.chisquare(2 * (n - 1), (len(s2), K))
    sigma_hat2 = s2 / (2.0 * n)
    return 0.5 * np.log(sigma_hat2[:, None] * ssz / (2.0 * n))


def boot_bounds(s2: np.ndarray, n: int, level: float, K: int, gen: np.random.Generator):
    """Percentile and studentized intervals from one set of K resamples per
    pooled sum of squares; returns (percentile, studentized).

    With the constant standard error 1/(2 sqrt(n)) the studentized interval
    eta_hat - se * [T_(1-alpha/2), T_(alpha/2)] is the percentile interval
    reflected about eta_hat: both have the length q_hi - q_lo, while the
    studentized coverage matches the exact pivot, not the resampling law.
    """
    etas = _bootstrap_log_sigmas(s2, n, K, gen)
    alpha = 1.0 - level
    q_lo, q_hi = np.quantile(etas, [0.5 * alpha, 1.0 - 0.5 * alpha], axis=1)
    length = q_hi - q_lo
    eta_hat = 0.5 * np.log(s2 / (2.0 * n))
    lower_t = 2.0 * eta_hat - q_hi
    return (q_lo, q_hi, length), (lower_t, lower_t + length, length)


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
    """One random-walk update of beta = sigma^2 targeting the conditional
    posterior with kernel beta^-(n+1) exp(-ss/(2 beta)), i.e. inverse-gamma
    with shape n and scale ss/2.  Nonpositive proposals are rejected.

    ``z_prop`` is the standard normal proposal noise and ``logu`` the log
    uniform acceptance draw; returns (new beta, accept mask).
    """
    prop = beta + prop_sd * z_prop
    valid = prop > 0.0
    safe = np.where(valid, prop, 1.0)
    logr = -(n + 1.0) * (np.log(safe) - np.log(beta)) - 0.5 * ss * (1.0 / safe - 1.0 / beta)
    accept = valid & (logu <= logr)
    return np.where(accept, prop, beta), accept


def run_variance_chains(x1bar: np.ndarray, x2bar: np.ndarray,
                        ss1: np.ndarray, ss2: np.ndarray, n: int,
                        cfg: McmcConfig, gen: np.random.Generator):
    """Advance B independent chains in lockstep over the posterior of
    (mu1, mu2, beta), beta = sigma^2, under the noninformative 1/sigma^2
    prior.

    Means are drawn exactly from their normal conditionals; beta moves by a
    random-walk proposal targeting the inverse-gamma conditional with shape
    n and scale SS(mu1, mu2)/2.  A mean drawn about its sample mean adds
    beta z^2 to SS wherever that mean lies, so only ss1 + ss2 enters.
    Returns (theta, acceptance, proposal_sd) where theta[k, j] = ln(sigma)_k
    for chain j after burn-in.
    """
    ss0 = np.atleast_1d(np.asarray(ss1, dtype=float) + np.asarray(ss2, dtype=float))
    B = len(ss0)
    beta = ss0 / (2.0 * (n - 1))          # pooled sample variance start
    if cfg.proposal_sd is None:
        prop_sd = 2.4 * (0.5 * ss0) / ((n - 1) * math.sqrt(n))
    else:
        prop_sd = np.full(B, float(cfg.proposal_sd))
    M = cfg.N - cfg.N0
    theta = np.empty((M, B))
    accepted = np.zeros(B, dtype=np.int64)
    window = min(cfg.N0, 500)
    win_accept = np.zeros(B, dtype=np.int64)
    for k in range(1, cfg.N + 1):
        z1 = gen.standard_normal(B)
        z2 = gen.standard_normal(B)
        # conditional draws of the means; SS contribution is beta * z^2
        ss = ss0 + beta * (z1 * z1 + z2 * z2)
        z_prop = gen.standard_normal(B)
        logu = np.log(gen.random(B))
        beta, accept = mh_variance_step(beta, ss, n, prop_sd, z_prop, logu)
        if k <= window:
            win_accept += accept
            if k == window and window >= 50:
                rate = win_accept / window
                prop_sd = prop_sd * np.clip(rate / 0.40, 0.2, 5.0)
        if k > cfg.N0:
            theta[k - cfg.N0 - 1] = 0.5 * np.log(beta)
            accepted += accept
    return theta, accepted / M, prop_sd


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
    """Highest-posterior-density interval for tau from a Gibbs-within-MH
    chain on (mu1, mu2, sigma^2)."""
    level = _check_level(level)
    if cfg.N - cfg.N0 < 1000:
        raise DomainError(f"need at least 1000 post-burn-in draws, got {cfg.N - cfg.N0}")
    st = suff_stats(data)
    ss1 = float(((data.sample1 - st.mean1) ** 2).sum())
    ss2 = float(((data.sample2 - st.mean2) ** 2).sum())
    gen = RngStream(cfg.seed, 0).generator
    theta, acc, prop_sd = run_variance_chains(
        np.array([st.mean1]), np.array([st.mean2]),
        np.array([ss1]), np.array([ss2]), st.n, cfg, gen)
    rate = float(acc[0])
    diag = {"acceptance_rate": rate, "ess": _autocorr_ess(theta[:, 0]),
            "draws": len(theta), "proposal_sd": float(prop_sd[0])}
    if not 0.05 <= rate <= 0.7:
        diag["acceptance_warning"] = True
        warnings.warn(f"MH acceptance rate {rate:.3f} outside [0.05, 0.7]",
                      RuntimeWarning, stacklevel=2)
    lower, upper = chen_shao_hpd(np.sort(theta, axis=0), level)
    return _result("hpd", level, (lower, upper, upper - lower), diag)


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
    if m < 100:
        raise DomainError(f"need at least 100 draws for an HPD interval, got {m}")
    if np.any(np.diff(draws, axis=0) < 0.0):
        raise DomainError("draws must be sorted ascending")
    offset = int(math.floor(level * m))
    if offset < 1 or offset >= m:
        raise DomainError(f"level {level} leaves no valid window for M={m}")
    widths = draws[offset:] - draws[:m - offset]
    wmin = widths.min(axis=0)
    tol = 1e-12 * np.maximum(np.abs(wmin), 1.0)
    r = np.expand_dims(np.argmax(widths <= wmin + tol, axis=0), 0)
    return (np.take_along_axis(draws, r, axis=0)[0],
            np.take_along_axis(draws, r + offset, axis=0)[0])
