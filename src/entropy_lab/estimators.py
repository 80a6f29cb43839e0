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
from dataclasses import dataclass
from functools import cache, partial
from typing import Callable

import numpy as np

from .errors import DomainError
from .model import Loss, SuffStats, d0, entropy_of_log_sigma, m0, mle_shift
from .numerics import chi_square_quantile, cumulative_J, digamma, integrate_J


def _shrink_term(w: np.ndarray, n: int) -> np.ndarray:
    """T(w) = ln sqrt(1 + n w^2 / 2), the conditional scale correction; inf,
    its limit, where n w^2 / 2 overflows.  Formed in one new array, a 0-d
    array for a number."""
    with np.errstate(over="ignore"):
        t = np.square(w, out=..., dtype=float)
        np.multiply(0.5 * n, t, out=t)
        np.log1p(t, out=t)
        return np.multiply(0.5, t, out=t)


_SIGN_BIT = np.int64(-2**63)
_ONE_BITS = np.float64(1.0).view(np.int64)


class WTerms:
    """W of a batch at sample size n with the terms the rules share, each
    computed once for every rule: T(W), T(W) where W < 0 and +0 elsewhere,
    the sign of W as +1 or -1, and the mask of W = 0 (None when no W is 0)."""

    __slots__ = ("w", "t", "t_neg", "sign", "zero")

    def __init__(self, w: np.ndarray, n: int):
        self.w = w
        self.t = _shrink_term(w, n)
        # T's bits under the sign bit of W shifted across the word: T(W)
        # where W < 0 and +0 elsewhere (W = -0 has T = +0, a NaN W whose
        # sign bit is set gives NaN), not inf * 0 where T(W) overflows.
        # np.where on a mask with no pattern takes four times as long, and
        # a bool mask cast to int64 twice as long as the shift.
        bits = w.view(np.int64)
        mask = np.right_shift(bits, 63, out=...)
        self.t_neg = np.bitwise_and(self.t.view(np.int64), mask, out=mask).view(np.float64)
        sign = np.bitwise_and(bits, _SIGN_BIT, out=...)  # copysign(1, W), from the same bits
        self.sign = np.bitwise_or(sign, _ONE_BITS, out=sign).view(np.float64)
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
# with a = n - 1/2.  The tests check them against the defining first-order
# condition, solved by scipy quadrature against the erf-weighted conditional
# density of S^2.


def _r0_closed_form(n: int, loss: Loss, J: Callable[[float, int], np.ndarray]):
    """r0 from the kernel integrals: :meth:`Loss.shift` over the law of V
    given |W| <= absw, whose moments are J ratios.  ``J(a, k)`` returns
    J_k(a, y) at the points wanted, a number or an array, so one closed
    form serves a single |W| and a whole grid."""
    a = n - 0.5

    def log_root_mgf(a1: float):
        b = a + 0.5 * a1
        return (0.5 * a1 * math.log(4.0) + math.lgamma(b) + np.log(J(b, 0))
                - (math.lgamma(a) + np.log(J(a, 0))))

    # J(b, 0) underflows from b near 1,074; Loss.shift refuses a non-finite moment
    with np.errstate(divide="ignore", invalid="ignore"):
        return loss.shift(a, lambda: 0.5 * (digamma(a) + math.log(4.0)
                                            - np.divide(J(a, 1), J(a, 0))),
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


_TABLE_STEP, _TABLE_Y_CAP = 2.0**-7, 1600.0


class BzTable:
    """Dense lookup table for r0(|w|), for vectorized Monte Carlo use.

    The nodes are x_j = j * ``_TABLE_STEP`` in x = ln(1 + n w^2), out to the
    first node at or past ln(1 + ``_TABLE_Y_CAP``), where r0 has saturated
    at d0 to well below Monte Carlo resolution; larger |w| clamp to the last
    node.  The node values are the closed form of :func:`bz_r0` on kernel
    integrals from one cumulative quadrature pass over the grid.  Linear
    interpolation error, measured at grid midpoints, grows with n: about
    3.0e-7 at n = 3, 8.7e-7 at n = 8 and 3.8e-6 at n = 26, far below Monte
    Carlo standard errors (about 3e-4).

    A lookup takes its interval by direct index, j = floor(x / step): the
    step is a power of two, so x / step is exact, its floor is np.interp's
    interval for every x >= 0, and dx = x - x_j is exact (Sterbenz).  With
    the slopes precomputed as np.interp forms them, the value is np.interp's
    bit for bit.  A table reads its own step and last node.  ``absw`` is read
    only through its square, so a signed w gives r0(|w|).  A lookup writes
    into two float rows and one index row of its own, never its argument.
    """

    def __init__(self, n: int, loss: Loss):
        self.n = n
        self._last = math.ceil(math.log1p(_TABLE_Y_CAP) / _TABLE_STEP)  # read at every lookup
        self._per_step = 1.0 / _TABLE_STEP
        self._x = x = np.arange(self._last + 1) * _TABLE_STEP
        self._x_max = x[-1]
        y = np.expm1(x)
        self._vals = vals = np.concatenate(([m0(loss, n)], _r0_on_nodes(n, loss, np.sqrt(y))))
        self._slopes = np.append(np.diff(vals) / np.diff(x), 0.0)  # flat past the cap
        self.absw_grid = np.sqrt(y / n)

    def __call__(self, absw: np.ndarray) -> np.ndarray:
        return self._row(absw)[()]

    def at_x(self, x: np.ndarray) -> np.ndarray:
        """r0 at x = ln(1 + n w^2): ``np.interp(x, nodes, values)``, node 0's below 0."""
        x = np.maximum(x, 0.0, out=...)
        return self._lookup(np.minimum(x, self._x_max, out=x))[()]

    def _row(self, absw: np.ndarray) -> np.ndarray:
        """r0(|absw|) in a new array, a 0-d array for a number."""
        x = np.square(absw, out=..., dtype=float)
        np.multiply(self.n, x, out=x)
        np.log1p(x, out=x)
        return self._lookup(np.minimum(x, self._x_max, out=x))

    def _lookup(self, x: np.ndarray) -> np.ndarray:
        """r0 at the capped x, an array this lookup owns and overwrites."""
        xj = np.multiply(x, self._per_step, out=...)
        j = np.fmin(xj, self._last, out=xj).astype(np.intp)  # NaN -> last
        # np.take buffers `out` in its default mode="raise"; "wrap" writes
        # straight into it, and j is in [0, last] for every x >= 0 or NaN
        dx = np.subtract(x, np.take(self._x, j, out=xj, mode="wrap"), out=xj)
        slope = np.take(self._slopes, j, out=x, mode="wrap")
        np.multiply(slope, dx, out=dx)
        return np.add(dx, np.take(self._vals, j, out=x, mode="wrap"), out=dx)


@cache
def bz_table(n: int, loss: Loss) -> BzTable:
    """The table at (n, loss), built on first use and cached for the life of
    the process; two threads that missed at once would each build it."""
    return BzTable(n, loss)


# ---------------------------------------------------------------------------
# conditional medians and the Pitman clip
# ---------------------------------------------------------------------------


@cache
def _ln_chi2_median(df: int) -> float:
    return math.log(chi_square_quantile(df, 0.5))


# ---------------------------------------------------------------------------
# the rules: (ln S, WTerms) -> ln S + phi(W), constants bound by _BUILDERS
# ---------------------------------------------------------------------------


def _clip(wt: WTerms, phi, bound: np.ndarray) -> np.ndarray:
    """phi capped at ``bound`` where W > 0 and floored there where W < 0;
    W = 0 keeps phi.  A floor is a negated cap, max(phi, b) =
    -min(-phi, -b), and negation is exact, so both are
    sign * min(sign * phi, sign * b): one pass with no branch on the sign.
    ``bound`` is an array of the caller's; the result is formed in it."""
    sign = wt.sign
    signed_phi = np.multiply(sign, phi, out=...)
    np.multiply(sign, bound, out=bound)
    np.minimum(signed_phi, bound, out=bound)
    np.multiply(sign, bound, out=bound)
    if wt.zero is not None:
        np.copyto(bound, phi, where=wt.zero)
    return bound


# A rule's row is the one array it returns: each rule forms ln S + phi(W) in
# arrays it made itself, never in ln S or a WTerms field, and hands a number
# back for a number ([()] of a 0-d array).


def _shift_rule(lns, wt, c: float):
    """ln(S) + c: baee (c = d0), umvue (d0 under squared error), mle."""
    return lns + c


def _rmle_rule(lns, wt, c: float):
    """Restricted MLE: equals the MLE (shift c) when W >= 0, otherwise
    absorbs the squared mean gap into the scale estimate."""
    out = np.add(lns, c, out=...)
    return np.add(out, wt.t_neg, out=out)[()]


def _switch_rule(lns, wt, c: float, c_m0: float):
    """Hard threshold: min/max of the constant c against m0 + T(w) by the
    sign of W.  stein uses c = d0, improved_mle the MLE shift."""
    clipped = _clip(wt, c, np.add(c_m0, wt.t, out=...))
    return np.add(lns, clipped, out=clipped)[()]


def _improved_rmle_rule(lns, wt, c: float, c_m0: float):
    """The hard threshold applied to the restricted-MLE term (MLE shift c)."""
    clipped = _clip(wt, np.add(c, wt.t_neg, out=...), np.add(c_m0, wt.t, out=...))
    return np.add(lns, clipped, out=clipped)[()]


def _bz_rule(lns, wt, r0: BzTable):
    """Smooth shrinkage ln(S) + r0(|W|), with r0 from its table."""
    r = r0._row(wt.w)
    return np.add(lns, r, out=r)[()]


def _improved_rmle(c: float, c_m0: float) -> VectorFn:
    """improved_rmle, which is improved_mle bit for bit where m0 >= c: for
    W >= 0 the restricted term is c, and for W < 0 both rules take m0 + T(W),
    since c + T <= m0 + T.  m0 > c under squared error and under linex with
    a1 <= 4; from a1 = 4.25, m0 < c at every n from 3."""
    rule = _switch_rule if c_m0 >= c else _improved_rmle_rule
    return partial(rule, c=c, c_m0=c_m0)


_BUILDERS: dict[str, Callable[[int, Loss], VectorFn]] = {
    "baee": lambda n, loss: partial(_shift_rule, c=d0(loss, n)),
    "umvue": lambda n, loss: partial(_shift_rule, c=d0(Loss.squared_error(), n)),
    "mle": lambda n, loss: partial(_shift_rule, c=mle_shift(n)),
    "rmle": lambda n, loss: partial(_rmle_rule, c=mle_shift(n)),
    "stein": lambda n, loss: partial(_switch_rule, c=d0(loss, n), c_m0=m0(loss, n)),
    "improved_mle": lambda n, loss: partial(_switch_rule, c=mle_shift(n), c_m0=m0(loss, n)),
    "improved_rmle": lambda n, loss: _improved_rmle(mle_shift(n), m0(loss, n)),
    "bz": lambda n, loss: partial(_bz_rule, r0=bz_table(n, loss)),
    # pitman caps d0 at -median[ln sqrt(V) | W = w, eta = 0] = T(w) - h for
    # w > 0 and floors it there for w < 0, h = ln(median chi-square(2n - 1))/2,
    # as V | W = w is Gamma((2n-1)/2, scale 2/(1 + n w^2/2)).  That median is
    # monotone in eta, so the clip is closer to tau in the generalized Pitman
    # sense at every eta >= 0 under any bowl-shaped loss.  It is the hard
    # threshold at m0 = -h, bit for bit: (-h) + T rounds as T - h does.
    "pitman": lambda n, loss: partial(_switch_rule, c=d0(loss, n),
                                      c_m0=-0.5 * _ln_chi2_median(2 * n - 1)),
}
ESTIMATOR_NAMES = tuple(_BUILDERS)


def resolve_estimator(name: str, n: int, loss: Loss) -> tuple[str, VectorFn]:
    """(name, vector fn) of the named rule at sample size n under ``loss``."""
    if name not in _BUILDERS:
        raise DomainError(f"unknown estimator {name!r}; expected one of {ESTIMATOR_NAMES}")
    return name, _BUILDERS[name](n, loss)


def rule_identity(name: str, n: int, loss: Loss) -> tuple[object, bool]:
    """(identity, reads W) of the named rule at sample size n under ``loss``,
    from its builder.  Two names with one identity bind one rule function to
    the same constants, so their rows are equal bit for bit; a rule that does
    not read W gives the same row at every eta.  Builders return partials."""
    rule = _BUILDERS[name](n, loss)
    key = (rule.func, rule.args, tuple(sorted(rule.keywords.items())))
    return key, rule.func is not _shift_rule


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
