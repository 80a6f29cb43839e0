"""Special functions: log-gamma, digamma, trigamma, regularized incomplete
gamma/beta, and the distribution helpers built on them.

The incomplete gamma P and Q and the chi-square CDF and quantile take a
scalar a or df and an array x or p of any shape (a scalar x or p returns a
float), as does std_normal_cdf; the rest take scalars.  Everything here is
implemented in-module (Lanczos approximation, series and continued fractions
after Numerical Recipes 6.2) so the numerical contracts stay auditable.
Target accuracy is 1e-12 absolute on the declared domains.
"""

from __future__ import annotations

import math
import sys
from decimal import Decimal, localcontext

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


def reg_lower_gamma(a: float, x):
    """Regularized lower incomplete gamma P(a, x) = gamma(a, x)/Gamma(a)."""
    return _as_output(_gamma_pq(a, x, "reg_lower_gamma")[0], x)


def reg_upper_gamma(a: float, x):
    """Regularized upper incomplete gamma Q(a, x) = 1 - P(a, x)."""
    return _as_output(_gamma_pq(a, x, "reg_upper_gamma")[1], x)


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


def reg_inc_beta(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b)."""
    a = _check_positive(a, "reg_inc_beta")
    b = _check_positive(b, "reg_inc_beta")
    x = float(x)
    if x < 0.0 or x > 1.0:
        raise DomainError(f"reg_inc_beta needs x in [0, 1], got {x!r}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    front = _beta_front(a, b, x)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cf(a, b, x) / a
    return 1.0 - front * _beta_cf(b, a, 1.0 - x) / b


def _beta_front(a: float, b: float, x: float) -> float:
    """x^a (1-x)^b / B(a, b), 0 < x < 1: in range, as two powers times a
    ratio of gamma functions, and where the powers' product is subnormal, as
    the square of the same product of square roots; exp(a ln x + b ln(1-x)
    - ln B(a, b)) loses |exponent| ulps, and each ln Gamma its own magnitude.
    Past the range of math.gamma (a + b >= 170) that exponent is formed and
    exponentiated in 40-digit decimals, and rounded to a float once, at the end."""
    if a + b < 170.0:
        ratio = math.gamma(a + b) / math.gamma(a) / math.gamma(b)
        lead = math.pow(x, a) * math.pow(1.0 - x, b)
        if lead >= sys.float_info.min:
            return lead * ratio
        return (math.pow(x, 0.5 * a) * math.pow(1.0 - x, 0.5 * b) * math.sqrt(ratio)) ** 2
    with localcontext() as ctx:
        ctx.prec = 40
        da, db, dx = Decimal(a), Decimal(b), Decimal(x)
        return float((da * dx.ln() + db * (1 - dx).ln() + _ln_gamma_40(da + db)
                      - _ln_gamma_40(da) - _ln_gamma_40(db)).exp())


_LN_SQRT_2PI_40 = Decimal("0.9189385332046727417803297364056176398614")


def _ln_gamma_40(z: Decimal) -> Decimal:
    """ln Gamma(z) to the context's 40 digits: Stirling's series at
    z + k >= 20, whose remainder (below 1/240) is summed in floats, and the
    recurrence ln Gamma(z) = ln Gamma(z + k) - ln(z (z + 1) ... (z + k - 1))."""
    k = max(0, math.ceil(20.0 - float(z)))
    shift = math.prod((z + i for i in range(k)), start=Decimal(1))
    zk = z + k
    inv2 = 1.0 / float(zk * zk)
    tail = 0.0
    p = 1.0 / float(zk)
    for c in _STIRLING_TAIL:
        tail += c * p
        p *= inv2
    return (zk - Decimal("0.5")) * zk.ln() - zk + _LN_SQRT_2PI_40 + Decimal(tail) - shift.ln()


# B_2k / (2k (2k - 1)), the coefficients of ln Gamma's Stirling series
_STIRLING_TAIL = tuple(c / (2 * k + 1) for k, c in enumerate(_DIGAMMA_TAIL))


def _beta_cf(a: float, b: float, x: float) -> float:
    tiny = 1e-300
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, _GAMMAINC_ITMAX):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _GAMMAINC_EPS:
            return h
    raise NumericError(f"incomplete beta continued fraction failed (a={a}, b={b}, x={x})")


# ---------------------------------------------------------------------------
# distribution helpers
# ---------------------------------------------------------------------------

_SQRT2 = math.sqrt(2.0)


def std_normal_cdf(x):
    """Phi(x) via math.erfc, element by element (accurate in both tails)."""
    erfc = np.frompyfunc(math.erfc, 1, 1)(np.abs(x) / _SQRT2)
    tail = 0.5 * np.asarray(erfc, dtype=float)
    return _as_output(np.where(np.asarray(x) >= 0.0, 1.0 - tail, tail), x)


# Acklam's rational approximation, then Halley refinement against the erfc
# based CDF.  The refinement brings |cdf(quantile(p)) - p| below 1e-14.
_ACKLAM_A = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
             1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_ACKLAM_B = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
             6.680131188771972e+01, -1.328068155288572e+01)
_ACKLAM_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
             -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_ACKLAM_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
             3.754408661907416e+00)


def std_normal_quantile(p: float) -> float:
    """Inverse of the standard normal CDF for p in (0, 1)."""
    p = float(p)
    if not 0.0 < p < 1.0:
        raise DomainError(f"std_normal_quantile needs p in (0, 1), got {p!r}")
    plow = 0.02425
    a, b, c, d = _ACKLAM_A, _ACKLAM_B, _ACKLAM_C, _ACKLAM_D
    if p < plow:
        q = math.sqrt(-2.0 * math.log(p))
        x = (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / \
            ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0)
    elif p <= 1.0 - plow:
        q = p - 0.5
        r = q * q
        x = (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q / \
            (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0)
    else:
        q = math.sqrt(-2.0 * math.log1p(-p))
        x = -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / \
            ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0)
    for _ in range(2):
        e = std_normal_cdf(x) - p
        u = e * math.sqrt(2.0 * math.pi) * math.exp(0.5 * x * x)
        x -= u / (1.0 + 0.5 * x * u)
    return x


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


def student_t_cdf(df: float, t: float) -> float:
    df = _check_positive(df, "student_t_cdf")
    t = float(t)
    if t == 0.0:
        return 0.5
    x = df / (df + t * t)
    tail = 0.5 * reg_inc_beta(0.5 * df, 0.5, x)
    return tail if t < 0.0 else 1.0 - tail
