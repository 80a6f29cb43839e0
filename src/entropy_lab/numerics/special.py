"""Special functions: log-gamma, digamma, trigamma, regularized incomplete
gamma, and the distribution helpers built on them.

The chi-square CDF and quantile take a scalar df and an array x or p of any
shape (a scalar x or p returns a float); the rest take scalars.  Everything
here is implemented in-module (Lanczos approximation, series and continued
fractions after Numerical Recipes 6.2) so the numerical contracts stay
auditable.  Target accuracy is 1e-12 absolute on the declared domains, except
where a docstring states a measured bound of its own.
"""

from __future__ import annotations

import math
from numbers import Integral

import numpy as np

from ..errors import DomainError, NumericError

_LN_SQRT_2PI = 0.9189385332046727418  # ln sqrt(2*pi)

# Lanczos coefficients, g = 607/128, 15 terms (Godfrey's set).
_LANCZOS_G = 4.7421875
_LANCZOS_C = (
    0.99999999999999709182,
    57.156235665862923517,
    -59.597960355475491248,
    14.136097974741747174,
    -0.49191381609762019978,
    0.33994649984811888699e-4,
    0.46523628927048575665e-4,
    -0.98374475304879564677e-4,
    0.15808870322491248884e-3,
    -0.21026444172410488319e-3,
    0.21743961811521264320e-3,
    -0.16431810653676389022e-3,
    0.84418223983852743293e-4,
    -0.26190838401581408670e-4,
    0.36899182659531622704e-5,
)


def _check_positive(x: float, name: str) -> float:
    x = float(x)
    if not math.isfinite(x) or x <= 0.0:
        raise DomainError(f"{name} requires a positive finite argument, got {x!r}")
    return x


def ln_gamma(x: float) -> float:
    """Natural log of the gamma function for x > 0."""
    x = _check_positive(x, "ln_gamma")
    if x < 0.5:
        # reflection keeps the Lanczos sum in its accurate range
        return math.log(math.pi / math.sin(math.pi * x)) - ln_gamma(1.0 - x)
    acc = _LANCZOS_C[0]
    for k in range(1, 15):
        acc += _LANCZOS_C[k] / (x - 1.0 + k)
    t = x + _LANCZOS_G - 0.5
    return (x - 0.5) * math.log(t) - t + _LN_SQRT_2PI + math.log(acc)


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


def _gamma_front(a: float, x: np.ndarray) -> np.ndarray:
    """x^a e^(-x) / Gamma(a), x > 0: in range, the square roots of the three
    factors apart, then squared; exp(a ln x - x - ln Gamma(a)) loses |exponent| ulps."""
    lg = ln_gamma(a)
    alx = a * np.log(x)
    ok = (np.abs(alx) < 1400.0) & (x < 1400.0) & (lg < 1400.0)
    front = np.exp(np.where(ok, 0.0, alx - x - lg))
    front[ok] = (np.power(x[ok], 0.5 * a) * np.exp(-0.5 * x[ok]) * math.exp(-0.5 * lg)) ** 2
    return front


def _gamma_series(a: float, x: np.ndarray) -> np.ndarray:
    # sum_k x^k / (a (a+1) ... (a+k)); a converged element adds zeros
    term = total = np.full_like(x, 1.0 / a)
    for k in range(1, _GAMMAINC_ITMAX):
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
    for i in range(1, _GAMMAINC_ITMAX):
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

_ACKLAM_A = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
             1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_ACKLAM_B = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
             6.680131188771972e+01, -1.328068155288572e+01)
_ACKLAM_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
             -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_ACKLAM_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
             3.754408661907416e+00)


def std_normal_quantile(p: float) -> float:
    """Inverse of the standard normal CDF for p in (0, 1).

    Acklam's approximation, then two Halley steps on erfc(-x/sqrt(2))/2 =
    tail, tail = min(p, 1 - p) (exact), negated for p > 1/2, so p -> 1 keeps
    its digits as p -> 0 does.
    Measured against ``scipy.stats.norm.ppf``: within 8.9e-16 absolute at
    p = (1 + level)/2 for level in [0, 0.999], the range ``aci`` reads;
    within 1.8e-15 absolute at p = 1 - 3.2e-14 and 1 - 1e-8; and 1.8e-11
    relative off at p = 1/2 +- 1e-7, where the quantile is near 0."""
    p = float(p)
    if not 0.0 < p < 1.0:
        raise DomainError(f"std_normal_quantile needs p in (0, 1), got {p!r}")
    tail = p if p <= 0.5 else 1.0 - p
    a, b, c, d = _ACKLAM_A, _ACKLAM_B, _ACKLAM_C, _ACKLAM_D
    if tail < 0.02425:
        q = math.sqrt(-2.0 * math.log(tail))
        x = (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / \
            ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0)
    else:
        q = tail - 0.5
        r = q * q
        x = (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q / \
            (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0)
    for _ in range(2):
        e = 0.5 * math.erfc(-x / math.sqrt(2.0)) - tail
        u = e * math.sqrt(2.0 * math.pi) * math.exp(0.5 * x * x)
        x -= u / (1.0 + 0.5 * x * u)
    return -x if p > 0.5 else x


def chi_square_cdf(df: float, x):
    """P(df/2, x/2), and 0 for x <= 0."""
    df = _check_positive(df, "chi_square_cdf")
    return _as_output(_gamma_pq(0.5 * df, 0.5 * np.maximum(x, 0.0), "chi_square_cdf")[0], x)


def chi_square_quantile(df: float, p):
    """Inverse chi-square CDF over an array p in (0, 1): twice the root g of
    P(a, g) = p (p <= 1/2) or Q(a, g) = 1 - p (p > 1/2, exact), a = df/2, by
    Newton steps from Wilson-Hilferty that bisect a bracket they leave.
    P(a, g) <= g^a / Gamma(a+1) gives its lo, the root itself below 1e-17 and
    the answer below 1e-300; Q(a, g) <= e^(a-g) (g/a)^a gives its hi."""
    a = 0.5 * _check_positive(df, "chi_square_quantile")
    p = np.asarray(p, dtype=float)
    if not ((p > 0.0) & (p < 1.0)).all():
        raise DomainError("chi_square_quantile needs p in (0, 1) everywhere")
    upper = p > 0.5
    tail = np.where(upper, 1.0 - p, p)
    lo = floor = np.exp((np.log(p) + ln_gamma(a + 1.0)) / a)
    hi = 2.0 * a - 2.0 * np.log1p(-p)
    # Wilson-Hilferty, with the normal quantile of Abramowitz & Stegun 26.2.23
    t = np.sqrt(-2.0 * np.log(tail))
    z = t - (2.30753 + 0.27061 * t) / (1.0 + t * (0.99229 + t * 0.04481))
    z = np.where(upper, z, -z) / (3.0 * math.sqrt(a))
    g = np.maximum(a * (1.0 - 1.0 / (9.0 * a) + z) ** 3, lo)
    deep = floor < 1e-300           # the root is floor; the density could overflow
    g = np.where(~deep & (g < hi), g, 0.5 * (lo + hi))
    live = ~deep
    for _ in range(_GAMMAINC_ITMAX):
        pg, qg = _gamma_pq(a, g, "chi_square_quantile")
        err = np.where(upper, tail - qg, pg - tail)          # increasing in g
        lo = np.where(err < 0.0, g, lo)
        hi = np.where(err > 0.0, g, hi)
        # an underflowed density sends the step out of the bracket
        step = err / np.maximum(np.exp((a - 1.0) * np.log(g) - g - ln_gamma(a)), _TINY)
        newton = g - step
        inside = (newton >= lo) & (newton <= hi)
        g = np.where(live, np.where(inside, newton, 0.5 * (lo + hi)), g)
        live = live & ~(inside & (np.abs(step) <= 1e-14 * newton)) & (hi - lo > 4e-16 * hi)
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
