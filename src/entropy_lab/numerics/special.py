"""Special functions: digamma, trigamma, regularized incomplete gamma, and
the distribution helpers built on them.

The chi-square CDF and quantile take a scalar df and an array x or p of any
shape (a scalar x or p returns a float); the rest take scalars.  numpy has
no ln Gamma and no normal quantile, and the standard library has both:
``math.lgamma`` (CPython's own Lanczos sum, not the platform libm; within
1.3e-15 relative to max(|v|, 1) from 0.05 to 1e6) and
``statistics.NormalDist.inv_cdf`` (Wichura's AS 241), which ``aci`` reads.
What is here neither has, and is implemented in-module (series and
continued fractions after Numerical Recipes 6.2) so the numerical contracts
stay auditable.  Target accuracy is 1e-12 absolute on the declared domains,
except where a docstring states a measured bound of its own.
"""

from __future__ import annotations

import math
import sys
from numbers import Integral

import numpy as np

from ..errors import DomainError, NumericError


# math.lgamma(df/2 + 1), which the chi-square helpers read, overflows from df near 5.12e305
_MAX_DF = 5e305


def _check_positive(x: float, name: str, below: float = math.inf) -> float:
    x = float(x)
    if not 0.0 < x < below:
        raise DomainError(f"{name} requires 0 < x < {below}, got {x!r}")
    return x


# Asymptotic tail coefficients: B_{2k}/(2k) for digamma, B_{2k} for trigamma.
_DIGAMMA_TAIL = (
    1.0 / 12.0,
    -1.0 / 120.0,
    1.0 / 252.0,
    -1.0 / 240.0,
    1.0 / 132.0,
    -691.0 / 32760.0,
    1.0 / 12.0,
)

_TRIGAMMA_TAIL = (
    1.0 / 6.0,
    -1.0 / 30.0,
    1.0 / 42.0,
    -1.0 / 30.0,
    5.0 / 66.0,
    -691.0 / 2730.0,
    7.0 / 6.0,
)


def digamma(x: float) -> float:
    """psi(x) = d/dx ln Gamma(x) for x > 0."""
    x = _check_positive(x, "digamma")
    acc = 0.0
    while x < 10.0:
        acc -= 1.0 / x
        x += 1.0
    inv2 = 1.0 / (x * x)
    tail = 0.0
    p = inv2
    for c in _DIGAMMA_TAIL:
        tail += c * p
        p *= inv2
    return acc + math.log(x) - 0.5 / x - tail


def trigamma(x: float) -> float:
    """psi'(x), the derivative of digamma, for x > 0."""
    x = _check_positive(x, "trigamma")
    acc = 0.0
    while x < 10.0:
        acc += 1.0 / (x * x)
        x += 1.0
    inv = 1.0 / x
    inv2 = inv * inv
    tail = 0.0
    p = inv * inv2
    for c in _TRIGAMMA_TAIL:
        tail += c * p
        p *= inv2
    return acc + inv + 0.5 * inv2 + tail


_GAMMAINC_EPS = 3e-16
_GAMMAINC_ITMAX = 500
_TINY = 1e-300


def _gamma_pq(a: float, x, name: str) -> tuple[np.ndarray, np.ndarray]:
    """P(a, x) and Q(a, x) on an array x >= 0, at least 1-d.  The series
    gives P where x < a + 1, the continued fraction Q where x >= a + 1."""
    a = _check_positive(a, name)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if not (x >= 0.0).all():
        raise DomainError(f"{name} needs x >= 0 everywhere")
    p = np.where(x == math.inf, 1.0, 0.0)
    series = (x > 0.0) & (x < a + 1.0)
    p[series] = _gamma_series(a, x[series])
    q = 1.0 - p
    cf = (x >= a + 1.0) & (x < math.inf)
    q[cf] = _gamma_cf(a, x[cf])
    p[cf] = 1.0 - q[cf]
    return p, q


def _as_output(v: np.ndarray, x):
    return v.item() if np.ndim(x) == 0 else v


def _in_range(alx: np.ndarray, x: np.ndarray, lg: float) -> np.ndarray:
    """Where :func:`_gamma_front` forms its factors apart: a ln x, x and ln Gamma(a) in range."""
    return (np.abs(alx) < 1400.0) & (x < 1400.0) & (lg < 1400.0)


def _gamma_front(a: float, x: np.ndarray) -> np.ndarray:
    """x^a e^(-x) / Gamma(a), x > 0: in range, the square roots of the three
    factors apart, then squared; exp(a ln x - x - ln Gamma(a)) loses |exponent| ulps."""
    lg = math.lgamma(a)
    alx = a * np.log(x)
    ok = _in_range(alx, x, lg)
    front = np.exp(np.where(ok, 0.0, alx - x - lg))
    front[ok] = (np.power(x[ok], 0.5 * a) * np.exp(-0.5 * x[ok]) * math.exp(-0.5 * lg)) ** 2
    return front


def _gamma_series(a: float, x: np.ndarray) -> np.ndarray:
    # sum_k x^k / (a (a+1) ... (a+k)); a converged element adds zeros
    term = total = np.full_like(x, 1.0 / a)
    for k in range(1, _GAMMAINC_ITMAX + int(16.0 * math.sqrt(a))):
        term = term * x / (a + k)
        total = total + term
        live = np.abs(term) >= np.abs(total) * _GAMMAINC_EPS
        term = term * live
        if not live.any():
            return total * _gamma_front(a, x)
    raise NumericError(f"incomplete gamma series failed to converge (a={a}, x={x[live][0]})")


def _gamma_cf(a: float, x: np.ndarray) -> np.ndarray:
    # modified Lentz continued fraction for Q(a, x); converged elements hold
    b = x + 1.0 - a
    c = np.full_like(x, 1.0 / _TINY)
    d = h = 1.0 / b
    live = True
    for i in range(1, _GAMMAINC_ITMAX + int(16.0 * math.sqrt(a))):
        an = -i * (i - a)
        b = b + 2.0
        d = an * d + b
        d = 1.0 / np.where(np.abs(d) < _TINY, _TINY, d)
        c = b + an / c
        c = np.where(np.abs(c) < _TINY, _TINY, c)
        delta = np.where(live, d * c, 1.0)
        h = h * delta
        live = np.abs(delta - 1.0) >= _GAMMAINC_EPS
        if not live.any():
            return h * _gamma_front(a, x)
    raise NumericError(f"incomplete gamma continued fraction failed (a={a}, x={x[live][0]})")


# ---------------------------------------------------------------------------
# distribution helpers
# ---------------------------------------------------------------------------

def chi_square_cdf(df: float, x):
    """P(df/2, x/2), and 0 for x <= 0."""
    a = 0.5 * _check_positive(df, "chi_square_cdf", _MAX_DF)
    return _as_output(_gamma_pq(a, 0.5 * np.maximum(x, 0.0), "chi_square_cdf")[0], x)


def chi_square_quantile(df: float, p):
    """Inverse chi-square CDF over an array p in (0, 1): twice the root g of
    P(a, g) = p (p <= 1/2) or Q(a, g) = 1 - p (p > 1/2, exact), a = df/2, by
    Newton steps from Wilson-Hilferty that bisect a bracket they leave.
    P(a, g) <= g^a / Gamma(a+1) gives its lo, the root itself below 1e-17 and
    the answer below 1e-300; Q(a, g) <= e^(a-g) (g/a)^a gives its hi."""
    a = 0.5 * _check_positive(df, "chi_square_quantile", _MAX_DF)
    p = np.asarray(p, dtype=float)
    if not ((p > 0.0) & (p < 1.0)).all():
        raise DomainError("chi_square_quantile needs p in (0, 1) everywhere")
    upper = p > 0.5
    tail = np.where(upper, 1.0 - p, p)
    lo = floor = np.exp((np.log(p) + math.lgamma(a + 1.0)) / a)
    hi = 2.0 * a - 2.0 * np.log1p(-p)
    # Wilson-Hilferty, with the normal quantile of Abramowitz & Stegun 26.2.23
    t = np.sqrt(-2.0 * np.log(tail))
    z = t - (2.30753 + 0.27061 * t) / (1.0 + t * (0.99229 + t * 0.04481))
    z = np.where(upper, z, -z) / (3.0 * math.sqrt(a))
    g = np.maximum(a * (1.0 - 1.0 / (9.0 * a) + z) ** 3, lo)
    deep = floor < 1e-300           # the root is floor; the density could overflow
    g = np.where(~deep & (g < hi), g, 0.5 * (lo + hi))
    live = ~deep
    lg = math.lgamma(a)
    for _ in range(_GAMMAINC_ITMAX):
        pg, qg = _gamma_pq(a, g, "chi_square_quantile")
        err = np.where(upper, tail - qg, pg - tail)          # increasing in g
        lo = np.where(err < 0.0, g, lo)
        hi = np.where(err > 0.0, g, hi)
        # an underflowed density sends the step out of the bracket; a floor above
        # the least normal double shortens steps where the density is near 1e-302
        lng = np.log(g)
        dens = np.maximum(np.exp((a - 1.0) * lng - g - lg), sys.float_info.min)
        # P and Q carry _gamma_front's error, a few ulps in range and else
        # about as many as its exponent's terms are large; a step within it is noise
        ulps = np.where(_in_range(a * lng, g, lg), 0.0, np.abs(a * lng) + g + abs(lg))
        step, noise = err / dens, _GAMMAINC_EPS * ulps * tail / dens
        newton = g - step
        inside = (newton >= lo) & (newton <= hi)
        g = np.where(live, np.where(inside, newton, 0.5 * (lo + hi)), g)
        stop = np.abs(step) <= np.maximum(1e-14 * newton, noise)
        live = live & ~(inside & stop) & (hi - lo > 4e-16 * hi)
        if not live.any():
            return _as_output(2.0 * np.where(deep, floor, g), p)
    raise NumericError(f"chi_square_quantile failed to converge (df={df})")


def student_t_cdf(df: int, t: float) -> float:
    """Student's t CDF at an integer df >= 1 in closed form (Abramowitz &
    Stegun 26.7.3-4): with theta = atan(|t|/sqrt(df)) and c = cos(theta),
    P(|T| <= |t|) is (2/pi)(theta + sin(theta)(c + 2/3 c^3 + ...)) at odd df
    and sin(theta)(1 + 1/2 c^2 + 3/8 c^4 + ...) at even df, each sum ending
    at c^(df-2).  A t < 0 returns the tail (1 - P)/2 itself.  The sum's df/2
    terms make error and cost grow with df: about 2e-14 absolute at
    df = 2,000, 6e-13 at 1e5 and 1e-12 at 2e5, where a call takes 25 ms
    on one Xeon core."""
    if isinstance(df, bool) or not isinstance(df, Integral) or df < 1:
        raise DomainError(f"student_t_cdf needs an integer df >= 1, got {df!r}")
    theta = math.atan2(abs(t), math.sqrt(df))
    odd, c2 = df % 2, math.cos(theta) ** 2
    term = total = (math.cos(theta) if df > 1 else 0.0) if odd else 1.0
    for k in range(1, df // 2):
        term *= c2 * (2 * k - 1 + odd) / (2 * k + odd)
        total += term
    p = math.sin(theta) * total
    if odd:
        p = (theta + p) / (0.5 * math.pi)
    return 0.5 - 0.5 * p if t < 0.0 else 0.5 + 0.5 * p
