"""Data model for two order-restricted normal populations with a common
variance: sufficient statistics, loss functions, the equivariant shift
constants, and the exact bias and risk of every shift rule ln(S) + c,
the baseline they define among them.

The estimand throughout is tau = ln(sigma); the differential entropy of the
two-population system is the affine map H = 1 + ln(2*pi) + 2*tau.

Model conventions.  Both samples have the same size n.  With sample means
xbar_1, xbar_2 the pooled sum of squared deviations is

    S^2 = sum_j (x_1j - xbar_1)^2 + sum_j (x_2j - xbar_2)^2,

so S^2 / sigma^2 is chi-square with 2(n - 1) degrees of freedom, and the
scale-free statistic W = (xbar_2 - xbar_1) / S carries all the information
about the mean ordering mu_1 <= mu_2.
"""

from __future__ import annotations

import csv
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .errors import DataError, DomainError
from .numerics import digamma, ln_gamma, trigamma

LN_2PI = math.log(2.0 * math.pi)


def entropy_of_log_sigma(tau: float) -> float:
    """Differential entropy 1 + ln(2*pi) + 2*tau of the two-population system."""
    return 1.0 + LN_2PI + 2.0 * tau


@dataclass(frozen=True)
class TwoSampleData:
    """Raw observations from the two populations (equal sizes, n >= 2)."""

    sample1: np.ndarray
    sample2: np.ndarray

    def __post_init__(self) -> None:
        s1 = np.asarray(self.sample1, dtype=float)
        s2 = np.asarray(self.sample2, dtype=float)
        object.__setattr__(self, "sample1", s1)
        object.__setattr__(self, "sample2", s2)
        if s1.ndim != 1 or s2.ndim != 1:
            raise DataError("samples must be one-dimensional")
        if len(s1) != len(s2):
            raise DataError(f"samples must have equal sizes, got {len(s1)} and {len(s2)}")
        if len(s1) < 2:
            raise DataError(f"need at least 2 observations per sample, got {len(s1)}")
        if not (np.isfinite(s1).all() and np.isfinite(s2).all()):
            raise DataError("samples contain non-finite values")

    @property
    def n(self) -> int:
        return len(self.sample1)


@dataclass(frozen=True)
class SuffStats:
    """Complete sufficient reduction (n, xbar_1, xbar_2, S^2) plus W."""

    n: int
    mean1: float
    mean2: float
    s2: float
    s: float
    w: float


def pooled_ss(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float, int]:
    """Means of x and y and the pooled sum of squared deviations SS0 about
    them, as (mean_x, mean_y, q, k) with SS0 = q * 4^k.

    k = 0 and q = SS0 unless SS0 falls below the normal range; then the
    deviations are scaled by 2^-k, an exact step, before they are squared,
    so that q keeps full precision however small the data.  DataError when
    a mean or SS0 overflows, or every deviation is 0.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        mx, my = float(x.mean()), float(y.mean())
        dx, dy = x - mx, y - my
        q = float((dx ** 2).sum() + (dy ** 2).sum())
    if not math.isfinite(q):
        raise DataError("samples too large: pooled sum of squares overflows")
    k = 0
    if q < sys.float_info.min:
        peak = max(float(np.abs(dx).max()), float(np.abs(dy).max()))
        if peak == 0.0:
            raise DataError("degenerate data: pooled sum of squares is zero")
        k = math.frexp(peak)[1]
        q = float((np.ldexp(dx, -k) ** 2).sum() + (np.ldexp(dy, -k) ** 2).sum())
    return mx, my, q, k


def scaled_ratio(num: float, k: int, den: float, what: str) -> float:
    """num * 2^-k / den for a den formed from :func:`pooled_ss`'s q, which
    undoes its scaling; DataError when the ratio overflows."""
    try:
        ratio = math.ldexp(num, -k) / den
    except OverflowError:
        ratio = math.inf
    if not math.isfinite(ratio):
        raise DataError(f"sample means too far apart for their spread: {what} overflows")
    return ratio


def suff_stats(data: TwoSampleData) -> SuffStats:
    """Reduce raw data to (n, mean1, mean2, s2, s, w).

    Data whose SS0 underflows are reduced on deviations rescaled by a power
    of two (:func:`pooled_ss`): W is scale-free and S scales back exactly,
    so s and w keep full precision, while s2 may then be subnormal or 0.
    """
    mean1, mean2, q, k = pooled_ss(data.sample1, data.sample2)
    root = math.sqrt(q)
    return SuffStats(n=data.n, mean1=mean1, mean2=mean2, s2=math.ldexp(q, 2 * k),
                     s=math.ldexp(root, k), w=scaled_ratio(mean2 - mean1, k, root, "W"))


# ---------------------------------------------------------------------------
# loss functions
# ---------------------------------------------------------------------------

SQUARED_ERROR = "squared_error"
LINEX = "linex"


@dataclass(frozen=True)
class Loss:
    """Location-invariant loss on the estimation error t = estimate - tau.

    Squared error: L(t) = t^2.  Linex(a1): L(t) = exp(a1 t) - a1 t - 1 with
    a1 != 0; positive a1 penalizes overestimation more.  Both are strictly
    convex with L(0) = 0.
    """

    kind: str
    a1: float | None = None

    def __post_init__(self) -> None:
        if self.kind == SQUARED_ERROR:
            if self.a1 is not None:
                raise DomainError("squared error loss takes no a1 parameter")
        elif self.kind == LINEX:
            if self.a1 is None or self.a1 == 0.0 or not math.isfinite(self.a1):
                raise DomainError(f"linex loss needs nonzero finite a1, got {self.a1!r}")
        else:
            raise DomainError(f"unknown loss kind {self.kind!r}")

    @classmethod
    def squared_error(cls) -> "Loss":
        return cls(SQUARED_ERROR)

    @classmethod
    def linex(cls, a1: float) -> "Loss":
        return cls(LINEX, float(a1))

    def value(self, t):
        """L(t), a number for a number; linex forms exp(a1 t) - a1 t - 1 in
        its exp array."""
        if self.kind == SQUARED_ERROR:
            return np.square(t)
        at = np.multiply(self.a1, np.asarray(t, dtype=float), out=...)
        out = np.exp(at, out=...)
        np.subtract(out, at, out=out)
        return np.subtract(out, 1.0, out=out)[()]

    def deriv(self, t):
        if self.kind == SQUARED_ERROR:
            return 2.0 * np.asarray(t, dtype=float)
        return self.a1 * (np.exp(self.a1 * np.asarray(t, dtype=float)) - 1.0)

    def shift(self, shape: float, mean_log_root: Callable[[], float],
              log_root_mgf: Callable[[float], float]):
        """The shift c solving E[L'(ln sqrt(V) + c)] = 0, from the moments of
        V: c = -E[ln sqrt(V)] = -``mean_log_root()`` under squared error and
        c = -ln E[V^(a1/2)] / a1 = -``log_root_mgf(a1)`` / a1 under linex.
        Only the moment the loss needs is called.  The density of V is
        ~ v^(shape-1) near 0, so the linex moment needs shape + a1/2 > 0,
        and a shift that overflows is a DomainError too."""
        if self.kind == LINEX and shape + 0.5 * self.a1 <= 0.0:
            raise DomainError(f"linex shift needs shape + a1/2 > 0 (shape={shape}, a1={self.a1})")
        c = -mean_log_root() if self.kind == SQUARED_ERROR else -log_root_mgf(self.a1) / self.a1
        if not np.isfinite(c).all():
            raise DomainError(f"{self.label} shift is not finite (shape={shape}, a1={self.a1})")
        return c

    @property
    def label(self) -> str:
        return "l1" if self.kind == SQUARED_ERROR else "linex"

    @property
    def csv_fields(self) -> str:
        """The ``loss,a1`` fields of a CSV row (a1 empty under squared error)."""
        return f"{self.label},{'' if self.a1 is None else repr(self.a1)}"


# ---------------------------------------------------------------------------
# equivariant shift constants
# ---------------------------------------------------------------------------
#
# d0(loss, n):  shift of the best affine equivariant estimator ln(S) + d0.
# It solves E[L'(ln sqrt(U) + d0)] = 0 with U ~ Gamma(n-1, scale 2), which
# is the chi-square law of S^2 at sigma = 1.
#
# m0(loss, n):  same first-order condition with U ~ Gamma((2n-1)/2, scale 2),
# the conditional law of S^2 given W = 0.  It is the small-|W| target of all
# shrinkage estimators and satisfies m0 < d0.  Both are Loss.shift over a
# gamma law, and the exact bias and risk of any shift rule ln(S) + c
# (baee, umvue, mle) follow from the moments of the chi-square law of S^2.


def _gamma_mean_log_root(shape: float) -> float:
    """E[ln sqrt(U)] for U ~ Gamma(shape, scale 2)."""
    return 0.5 * (math.log(2.0) + digamma(shape))


def _gamma_log_root_mgf(shape: float, a: float) -> float:
    """ln E[U^(a/2)] for U ~ Gamma(shape, scale 2), where
    E[U^(a/2)] = 2^(a/2) Gamma(shape + a/2) / Gamma(shape)."""
    return 0.5 * a * math.log(2.0) + ln_gamma(shape + 0.5 * a) - ln_gamma(shape)


def _gamma_shift(loss: Loss, n: int, shape: float) -> float:
    """:meth:`Loss.shift` for U ~ Gamma(shape, scale 2)."""
    if n < 2:
        raise DomainError(f"need n >= 2, got {n}")
    return loss.shift(shape, lambda: _gamma_mean_log_root(shape),
                      lambda a: _gamma_log_root_mgf(shape, a))


def d0(loss: Loss, n: int) -> float:
    """Shift constant of the best affine equivariant estimator ln(S) + d0."""
    return _gamma_shift(loss, n, n - 1.0)


def m0(loss: Loss, n: int) -> float:
    """Conditional shrinkage target: the shift solving the same first-order
    condition under Gamma((2n-1)/2, scale 2)."""
    return _gamma_shift(loss, n, 0.5 * (2.0 * n - 1.0))


def closed_form_bias_baee(loss: Loss, n: int) -> float:
    """Exact bias E[ln sqrt(V)] + d0 of ln(S) + d0; zero under squared error."""
    return d0(loss, n) + _gamma_mean_log_root(n - 1.0)


def closed_form_risk_baee(loss: Loss, n: int) -> float:
    """Exact constant risk of ln(S) + d0: trigamma(n-1)/4, the variance of
    ln sqrt(V), under squared error; under linex d0 zeroes the exponential
    term of E[L'], so the risk is -a1 times the bias."""
    bias = closed_form_bias_baee(loss, n)  # checks n and the linex moment
    return 0.25 * trigamma(n - 1.0) if loss.kind == SQUARED_ERROR else -loss.a1 * bias


def closed_form_bias_shift(loss: Loss, n: int, c: float) -> float:
    """Exact bias b = c + E[ln sqrt(V)] = c + (ln 2 + psi(n-1))/2 of the
    shift rule ln(S) + c (baee at c = d0, mle at c = -ln(2n)/2), whatever
    the loss; ``loss`` is read only to check that, under linex(a), the
    moment E[V^(a/2)] of its risk exists: n - 1 + a/2 > 0."""
    if n < 2:
        raise DomainError(f"need n >= 2, got {n}")
    if not math.isfinite(c):
        raise DomainError(f"shift must be finite, got {c!r}")
    if loss.kind == LINEX and n - 1.0 + 0.5 * loss.a1 <= 0.0:
        raise DomainError(f"linex risk needs n - 1 + a1/2 > 0 (n={n}, a1={loss.a1})")
    return c + _gamma_mean_log_root(n - 1.0)


def closed_form_risk_shift(loss: Loss, n: int, c: float) -> float:
    """Exact constant risk of ln(S) + c, with b its bias: trigamma(n-1)/4 +
    b^2 under squared error, and under linex(a)
    E[exp(a (ln sqrt(V) + c))] - a b - 1 = expm1(a c + ln E[V^(a/2)]) - a b.
    At c = d0 the exponential term is 1, which
    :func:`closed_form_risk_baee` takes as given."""
    b = closed_form_bias_shift(loss, n, c)
    if loss.kind == SQUARED_ERROR:
        return 0.25 * trigamma(n - 1.0) + b * b
    a = loss.a1
    try:
        return math.expm1(a * c + _gamma_log_root_mgf(n - 1.0, a)) - a * b
    except OverflowError:
        raise DomainError(f"linex risk of the shift {c!r} overflows (n={n}, a1={a})") from None


# ---------------------------------------------------------------------------
# data ingestion
# ---------------------------------------------------------------------------


def load_samples(path: str | Path) -> np.ndarray:
    """One numeric value per line; blank lines and '#' comments ignored."""
    values: list[float] = []
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            values.append(float(line))
        except ValueError:
            raise DataError(f"{path}:{lineno}: not a number: {line!r}") from None
    if not values:
        raise DataError(f"{path}: no numeric data found")
    return np.asarray(values, dtype=float)


def load_paired_csv(path: str | Path) -> TwoSampleData:
    """Two-column CSV with header ``sample1,sample2``."""
    path = Path(path)
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or [h.strip().lower() for h in header] != ["sample1", "sample2"]:
                raise DataError(f"{path}: expected header 'sample1,sample2', got {header!r}")
            col1: list[float] = []
            col2: list[float] = []
            for lineno, row in enumerate(reader, start=2):
                if not row or all(not c.strip() for c in row):
                    continue
                if len(row) != 2:
                    raise DataError(f"{path}:{lineno}: expected 2 columns, got {len(row)}")
                try:
                    col1.append(float(row[0]))
                    col2.append(float(row[1]))
                except ValueError:
                    raise DataError(f"{path}:{lineno}: not numeric: {row!r}") from None
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    return TwoSampleData(col1, col2)
