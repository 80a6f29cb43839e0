"""Point estimators of tau = ln(sigma) under the mean ordering mu_1 <= mu_2.

Every estimator is a function of the sufficient statistics only and has the
additive form

    estimate = ln(S) + phi(W),

where S is the pooled root sum of squares and W = (xbar_2 - xbar_1)/S.  The
classical equivariant baseline uses the constant phi = d0.  The improved
estimators replace the constant by a data-driven term that shrinks the
estimate when W is small and positive (data agreeing with the ordering) and,
for the restricted-MLE family, inflates it when W is negative:

* ``stein``          hard min/max switch between d0 and m0 + T(w),
                     with T(w) = ln sqrt(1 + n w^2 / 2);
* ``bz``             smooth shrinkage ln(S) + r0(|w|), where r0 solves the
                     first-order risk condition conditional on |W| <= w;
* ``improved_mle`` / ``improved_rmle``  the same switch applied to the
                     (restricted) maximum likelihood constants;
* ``pitman``         clips the baee term at the conditional-median target,
                     improving Pitman closeness for every eta >= 0.

Each rule is defined once, as a vectorized function of ln S and the
:class:`WTerms` of W (W with its signs and T(W), computed once for all
rules), returned by :func:`resolve_estimator`.  On a single dataset,
:func:`estimate` and :func:`estimate_all` evaluate the same rule on a batch
of one.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from functools import cache, partial
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError
from .model import Loss, SuffStats, d0, entropy_of_log_sigma, m0
from .numerics import (
    adaptive_quad,
    chi_square_quantile,
    cumulative_J,
    digamma,
    find_root,
    integrate_J,
    ln_gamma,
)


def _shrink_term(w: np.ndarray, n: int) -> np.ndarray:
    """T(w) = ln sqrt(1 + n w^2 / 2), the conditional scale correction; inf,
    its limit, where n w^2 / 2 overflows."""
    with np.errstate(over="ignore"):
        return 0.5 * np.log1p(0.5 * n * np.square(w))


class WTerms:
    """W of a batch at sample size n with the terms the rules share, each
    computed once for every rule: T(W), T(W) where W < 0 and 0 elsewhere,
    the sign of W as +1 or -1, and the mask of W = 0 (None when no W is 0)."""

    __slots__ = ("w", "t", "t_neg", "sign", "zero")

    def __init__(self, w: np.ndarray, n: int):
        self.w = w
        self.t = _shrink_term(w, n)
        self.t_neg = np.where(w < 0.0, self.t, 0.0)  # 0, not inf * 0, where T(W) overflows
        self.sign = np.copysign(1.0, w)
        zero = w == 0.0
        self.zero = zero if zero.any() else None


VectorFn = Callable[[np.ndarray, WTerms], np.ndarray]


# ---------------------------------------------------------------------------
# smooth shrinkage solver
# ---------------------------------------------------------------------------
#
# r0(absw) minimizes the conditional risk given |W| <= absw at the boundary
# of the ordering (eta = 0).  Closed forms for both supported losses reduce
# to ratios of the kernel integrals
#
#     J_k(a, y) = int_0^y t^(-1/2) (2+t)^(-a) ln^k(2+t) dt,  y = n absw^2,
#
# with a = n - 1/2.  bz_r0_defining solves the defining first-order
# condition directly by quadrature against the erf-weighted conditional
# density of S^2 and is kept as an independent cross-check.


def _r0_closed_form(n: int, loss: Loss, J: Callable[[float, int], np.ndarray]):
    """r0 from the kernel integrals: :meth:`Loss.shift` over the law of V
    given |W| <= absw, whose moments are J ratios.  ``J(a, k)`` returns
    J_k(a, y) at the points wanted, a number or an array, so one closed
    form serves a single |W| and a whole grid."""
    a = n - 0.5

    def log_root_mgf(a1: float):
        b = a + 0.5 * a1
        # J(b, 0) underflows at a large a1, and Loss.shift refuses the non-finite moment
        with np.errstate(divide="ignore", invalid="ignore"):
            return (0.5 * a1 * math.log(4.0) + ln_gamma(b) + np.log(J(b, 0))
                    - (ln_gamma(a) + np.log(J(a, 0))))

    return loss.shift(a, lambda: 0.5 * (digamma(a) + math.log(4.0) - J(a, 1) / J(a, 0)),
                      log_root_mgf)


def _r0_on_nodes(n: int, loss: Loss, u: np.ndarray) -> np.ndarray:
    """r0 at |W| = u_i / sqrt(n) for the nodes u[1:] of an ascending u with
    u[0] = 0, from one cumulative quadrature pass."""
    return _r0_closed_form(n, loss, lambda a, k: cumulative_J(a, u, k)[1:])


def bz_r0(absw: float, n: int, loss: Loss) -> float:
    """Smooth shrinkage shift at |W| = absw; continuous limits m0 at 0 and
    d0 at infinity."""
    absw = float(absw)
    if absw < 0.0 or not math.isfinite(absw):
        raise DomainError(f"bz_r0 needs finite absw >= 0, got {absw!r}")
    if n < 2:
        raise DomainError(f"need n >= 2, got {n}")
    if absw == 0.0:
        return m0(loss, n)
    y = n * absw * absw
    return float(_r0_closed_form(n, loss, lambda a, k: integrate_J(a, y, k)))


def bz_r0_defining(absw: float, n: int, loss: Loss) -> float:
    """Defining-equation route for r0: solve

        E[ L'(ln sqrt(V) + r) | |W| <= absw ] = 0   at eta = 0

    where the conditional density of V is proportional to
    v^(n-2) e^(-v/2) erf(absw sqrt(n v) / 2).  Independent of the closed
    forms in :func:`bz_r0`; used to validate them.
    """
    absw = float(absw)
    if absw < 0.0 or not math.isfinite(absw):
        raise DomainError(f"bz_r0_defining needs finite absw >= 0, got {absw!r}")
    if absw == 0.0:
        return m0(loss, n)
    upper = 2.0 * (2.0 * n) + 20.0 * math.sqrt(4.0 * n) + 60.0
    erf_vec = np.vectorize(math.erf, otypes=[float])
    log_norm = ln_gamma(n - 1.0) + (n - 1.0) * math.log(2.0)

    def weight(v: np.ndarray) -> np.ndarray:
        v = np.maximum(v, 1e-300)
        logw = (n - 2.0) * np.log(v) - 0.5 * v - log_norm
        return np.exp(logw) * erf_vec(0.5 * absw * np.sqrt(n * v))

    # normalize so the first-order condition is O(1) in r
    total = adaptive_quad(weight, 0.0, upper)

    def condition(r: float) -> float:
        def integrand(v: np.ndarray) -> np.ndarray:
            return loss.deriv(0.5 * np.log(np.maximum(v, 1e-300)) + r) * weight(v)

        return adaptive_quad(integrand, 0.0, upper) / total

    return find_root(condition, -8.0, 8.0, tol=1e-12)


_TABLE_POINTS, _TABLE_Y_CAP = 800, 1600.0


class BzTable:
    """Dense lookup table for r0(|w|), for vectorized Monte Carlo use.

    The grid has ``_TABLE_POINTS`` nodes uniform in x = ln(1 + n w^2) out to
    ``_TABLE_Y_CAP``, where r0 has saturated at d0 to well below Monte Carlo
    resolution; larger |w| clamp to the last node.  The node values are the
    closed form of :func:`bz_r0` on kernel integrals from one cumulative
    quadrature pass over the grid.  Linear interpolation error, measured at
    grid midpoints, grows with n: about 4e-7 at n = 3, 1.2e-6 at n = 8 and
    5.4e-6 at n = 26, far below Monte Carlo standard errors (about 3e-4).

    Because the nodes are uniform in x, a lookup finds its interval by
    direct index, j = floor(x / step), and moves j by one where rounding
    put x on the other side of a stored node; there is no binary search.
    With the slopes precomputed as ``np.interp`` forms them, the value is
    ``np.interp``'s bit for bit.  ``absw`` is read only through its
    square, so a signed w gives r0(|w|).
    """

    def __init__(self, n: int, loss: Loss):
        self.n = n
        self.loss = loss
        x = np.linspace(0.0, math.log1p(_TABLE_Y_CAP), _TABLE_POINTS)
        y = np.expm1(x)
        vals = np.concatenate(([m0(loss, n)], _r0_on_nodes(n, loss, np.sqrt(y))))
        self._x = np.append(x, np.inf)  # x[j + 1] > any x at the last node
        self._x_max = x[-1]
        self._per_step = (_TABLE_POINTS - 1) / x[-1]
        self._vals = vals
        self._slopes = np.append(np.diff(vals) / np.diff(x), 0.0)  # flat past the cap
        self.absw_grid = np.sqrt(y / n)

    def __call__(self, absw: np.ndarray) -> np.ndarray:
        return self.at_x(np.log1p(self.n * np.square(absw)))

    def at_x(self, x: np.ndarray) -> np.ndarray:
        """r0 at x = ln(1 + n w^2): ``np.interp(x, nodes, values)``."""
        x = np.minimum(x, self._x_max)
        j = np.fmin(x * self._per_step, _TABLE_POINTS - 1).astype(np.intp)  # NaN -> last
        xj = self._x[j]
        below, above = xj > x, self._x[1:][j] <= x
        if below.any() or above.any():  # x * per_step rounded across a node
            j = j - below + above
            xj = self._x[j]
        return self._slopes[j] * (x - xj) + self._vals[j]


_TABLE_CACHE: dict[tuple[int, Loss], BzTable] = {}
_TABLE_LOCK = threading.Lock()


def bz_table(n: int, loss: Loss) -> BzTable:
    """Cached table, safe for concurrent readers after first build."""
    key = (n, loss)
    tab = _TABLE_CACHE.get(key)
    if tab is None:
        with _TABLE_LOCK:
            tab = _TABLE_CACHE.get(key)
            if tab is None:
                tab = BzTable(n, loss)
                _TABLE_CACHE[key] = tab
    return tab


# ---------------------------------------------------------------------------
# conditional medians and the Pitman clip
# ---------------------------------------------------------------------------


@cache
def _ln_chi2_median(df: int) -> float:
    return math.log(chi_square_quantile(df, 0.5))


def median_ln_v_eta0(w, n: int):
    """Median of ln(S^2/sigma^2) given W = w at eta = 0, for a number or an
    array of w.

    The conditional law is Gamma((2n-1)/2, scale 2/(1 + n w^2/2)), so the
    median shifts by -ln(1 + n w^2/2) relative to w = 0.
    """
    return _ln_chi2_median(2 * n - 1) - np.log1p(0.5 * n * np.square(w))


def conditional_median(w: float, eta: float, n: int) -> float:
    """Median of Z = ln(S^2/sigma^2) given W = w at mean separation eta >= 0.

    Solved from the conditional density

        f(z | w) ~ exp( (2n-1) z/2 - [e^z + (sqrt(n) e^(z/2) w - eta)^2 / 2] / 2 )

    by locating the mode, windowing where the density is negligible, and
    root-solving the quadrature CDF at 1/2.  At eta = 0 this reduces to the
    closed form of :func:`median_ln_v_eta0`.
    """
    if n < 2:
        raise DomainError(f"need n >= 2, got {n}")
    if eta < 0.0:
        raise DomainError(f"need eta >= 0, got {eta}")
    w = float(w)
    shape = 0.5 * (2.0 * n - 1.0)

    def log_density(z):
        z = np.asarray(z, dtype=float)
        ez = np.exp(z)
        dev = np.sqrt(n) * np.exp(0.5 * z) * w - eta
        return shape * z - 0.5 * (ez + 0.5 * dev * dev)

    zg = np.linspace(-40.0, 40.0, 401)
    lg = log_density(zg)
    zm = float(zg[int(np.argmax(lg))])
    lo, hi = zm - 0.2, zm + 0.2
    for _ in range(200):
        if log_density(lo) < log_density(zm) - 45.0:
            break
        lo -= 0.5
    for _ in range(200):
        if log_density(hi) < log_density(zm) - 45.0:
            break
        hi += 0.5
    peak = float(log_density(zm))

    def dens(z):
        return np.exp(log_density(z) - peak)

    total = adaptive_quad(dens, lo, hi)

    def cdf_half(z: float) -> float:
        return adaptive_quad(dens, lo, z) / total - 0.5

    return find_root(cdf_half, lo, hi, tol=1e-10)


# ---------------------------------------------------------------------------
# the rules: (ln S, WTerms) -> ln S + phi(W), constants bound by _BUILDERS
# ---------------------------------------------------------------------------


def _mle_shift(n: int) -> float:
    return -0.5 * math.log(2.0 * n)


def _clip(wt: WTerms, phi, bound) -> np.ndarray:
    """phi capped at ``bound`` where W > 0 and floored there where W < 0;
    W = 0 keeps phi.  A floor is a negated cap, max(phi, b) =
    -min(-phi, -b), and negation is exact, so both are
    sign * min(sign * phi, sign * b): one pass with no branch on the sign."""
    out = wt.sign * np.minimum(wt.sign * phi, wt.sign * bound)
    return out if wt.zero is None else np.where(wt.zero, phi, out)


def _shift_rule(lns, wt, c: float):
    """ln(S) + c: baee (c = d0), umvue (d0 under squared error), mle."""
    return lns + c


def _rmle_rule(lns, wt, c: float):
    """Restricted MLE: equals the MLE (shift c) when W >= 0, otherwise
    absorbs the squared mean gap into the scale estimate."""
    return lns + c + wt.t_neg


def _switch_rule(lns, wt, c: float, c_m0: float):
    """Hard threshold: min/max of the constant c against m0 + T(w) by the
    sign of W.  stein uses c = d0, improved_mle the MLE shift."""
    arm = c_m0 + wt.t
    return lns + _clip(wt, c, arm)


def _improved_rmle_rule(lns, wt, c: float, c_m0: float):
    """The hard threshold applied to the restricted-MLE term (MLE shift c)."""
    arm = c_m0 + wt.t
    return lns + _clip(wt, c + wt.t_neg, arm)


def _bz_rule(lns, wt, r0: Callable[[np.ndarray], np.ndarray]):
    """Smooth shrinkage ln(S) + r0(|W|), with r0 from its table."""
    return lns + r0(wt.w)


def _pitman_rule(lns, wt, c: float, half_ln_med: float):
    """Clip the additive term c at the eta = 0 conditional-median target
    t(w) = -median[ln sqrt(V) | W = w, eta = 0] = T(w) - ln(med)/2, with med
    the median of chi-square(2n - 1) (see :func:`median_ln_v_eta0`): the
    estimate is capped at ln(S) + t(w) for w > 0 and floored there for
    w < 0.  Because the conditional median is monotone in eta, the clipped
    estimator is closer to tau in the generalized Pitman sense for every
    eta >= 0, whatever bowl-shaped loss is used for the comparison."""
    target = wt.t - half_ln_med
    return lns + _clip(wt, c, target)


_BUILDERS: dict[str, Callable[[int, Loss], VectorFn]] = {
    "baee": lambda n, loss: partial(_shift_rule, c=d0(loss, n)),
    "umvue": lambda n, loss: partial(_shift_rule, c=d0(Loss.squared_error(), n)),
    "mle": lambda n, loss: partial(_shift_rule, c=_mle_shift(n)),
    "rmle": lambda n, loss: partial(_rmle_rule, c=_mle_shift(n)),
    "stein": lambda n, loss: partial(_switch_rule, c=d0(loss, n), c_m0=m0(loss, n)),
    "improved_mle": lambda n, loss: partial(_switch_rule, c=_mle_shift(n), c_m0=m0(loss, n)),
    "improved_rmle": lambda n, loss: partial(_improved_rmle_rule, c=_mle_shift(n),
                                             c_m0=m0(loss, n)),
    "bz": lambda n, loss: partial(_bz_rule, r0=bz_table(n, loss)),
    "pitman": lambda n, loss: partial(_pitman_rule, c=d0(loss, n),
                                      half_ln_med=0.5 * _ln_chi2_median(2 * n - 1)),
}
ESTIMATOR_NAMES = tuple(_BUILDERS)


def resolve_estimator(name: str, n: int, loss: Loss) -> tuple[str, VectorFn]:
    """(name, vector fn) of the named rule at sample size n under ``loss``."""
    if name not in _BUILDERS:
        raise DomainError(f"unknown estimator {name!r}; expected one of {ESTIMATOR_NAMES}")
    return name, _BUILDERS[name](n, loss)


# ---------------------------------------------------------------------------
# dominance checking
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IerdReport:
    """Outcome of the three sufficient conditions for risk dominance of an
    additive rule phi(y), y = n w^2: monotonicity, the correct limit d0, and
    pointwise domination of the smooth-shrinkage floor r0(sqrt(y / n))."""

    monotone: bool
    limit_ok: bool
    dominates: bool

    @property
    def all_ok(self) -> bool:
        return self.monotone and self.limit_ok and self.dominates


def ierd_check(y_grid: Sequence[float], phi_values: Sequence[float], loss: Loss, n: int,
               *, limit_tol: float = 1e-3, slack: float = 1e-9) -> IerdReport:
    """Check a tabulated phi(y) against the dominance conditions.

    The grid must be strictly increasing and should extend far enough that
    the smooth-shrinkage floor has saturated at d0 (within about 1e-4).
    """
    y = np.asarray(y_grid, dtype=float)
    phi = np.asarray(phi_values, dtype=float)
    if y.ndim != 1 or y.shape != phi.shape or len(y) < 2:
        raise DomainError("ierd_check needs matching 1-d grids with >= 2 points")
    if not (np.diff(y) > 0).all():
        raise DomainError("ierd_check grid must be strictly increasing")
    if y[0] <= 0.0:
        raise DomainError("ierd_check grid must cover positive y only")
    monotone = bool((np.diff(phi) >= -slack).all())
    limit_ok = bool(abs(phi[-1] - d0(loss, n)) <= limit_tol)
    floor = _r0_on_nodes(n, loss, np.concatenate(([0.0], np.sqrt(y))))
    dominates = bool((phi >= floor - slack).all())
    return IerdReport(monotone=monotone, limit_ok=limit_ok, dominates=dominates)


def window_mass_ratio(y: float, d1: float, d2: float, n: int, eta: float, alpha: float) -> float:
    """Ratio I(y - d2) / I(y - d1) of the windowed Gaussian masses

        I(t) = int_{-alpha}^{alpha} exp(-(s w - eta)^2 / 4) dw
             = (sqrt(pi) / s) [erfc((eta - s alpha) / 2) - erfc((eta + s alpha) / 2)],

    s = sqrt(n) e^t, in closed form (the sqrt(pi) cancels in the ratio).  For
    d1 < d2 the ratio is nondecreasing in y, which is the monotone-likelihood
    property behind the shrinkage solvers.
    """

    def mass(t: float) -> float:
        s = math.sqrt(n) * math.exp(t)
        return (math.erfc((eta - s * alpha) / 2) - math.erfc((eta + s * alpha) / 2)) / s

    return mass(y - d2) / mass(y - d1)


# ---------------------------------------------------------------------------
# single datasets: each rule on a batch of one
# ---------------------------------------------------------------------------


def estimate(name: str, st: SuffStats, loss: Loss) -> float:
    """The named estimate of tau on one dataset: its rule on a batch of one.
    ``bz`` uses the exact r0, so no lookup table is built; ``umvue``, ``mle``
    and ``rmle`` ignore ``loss``."""
    if name == "bz":
        return math.log(st.s) + bz_r0(abs(st.w), st.n, loss)
    rule = resolve_estimator(name, st.n, loss)[1]
    return float(rule(np.array([math.log(st.s)]), WTerms(np.array([st.w]), st.n))[0])


@dataclass(frozen=True)
class EstimateReport:
    kind: str
    value: float
    entropy_value: float


def estimate_all(st: SuffStats, loss: Loss) -> list[EstimateReport]:
    """All point estimators on one dataset, in canonical order."""
    reports = []
    for name in ESTIMATOR_NAMES:
        value = estimate(name, st, loss)
        reports.append(EstimateReport(name, value, entropy_of_log_sigma(value)))
    return reports
