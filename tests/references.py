"""References the tests check the package against, sharing no code with it.

The scipy references solve a defining first-order condition, or a
conditional CDF, by ``scipy.integrate.quad`` and ``scipy.optimize.brentq``,
so that no node table or tolerance is shared with ``entropy_lab.numerics``;
they read a loss through :func:`loss_deriv`, written here, not through the
package's ``Loss``.  :func:`window_mass_ratio` is the closed form behind
acceptance criterion 11."""

import math

from scipy import integrate, optimize, special

from entropy_lab.errors import DomainError


def _quad(f, a, b):
    return integrate.quad(f, a, b, epsabs=1e-13, epsrel=1e-12, limit=200)[0]


def loss_deriv(loss, t):
    """L'(t) of a squared error or linex(a1) loss: 2t, or a1 (e^(a1 t) - 1)."""
    if loss.kind == "squared_error":
        return 2.0 * t
    return loss.a1 * math.expm1(loss.a1 * t)


def _shift_root(loss, log_weight, mode):
    """The c solving E[L'(ln sqrt(V) + c)] = 0 for V with density
    proportional to exp(log_weight(v)) on (0, inf), peaked near ``mode``."""
    peak = log_weight(mode)

    def weight(v):
        return math.exp(log_weight(v) - peak)

    def moment(g):
        return (_quad(lambda v: g(v) * weight(v), 0.0, mode)
                + _quad(lambda v: g(v) * weight(v), mode, math.inf))

    total = moment(lambda v: 1.0)

    def condition(c):
        return moment(lambda v: loss_deriv(loss, 0.5 * math.log(v) + c)) / total

    return optimize.brentq(condition, -8.0, 8.0, xtol=1e-14)


def gamma_shift_root(loss, shape):
    """The shift c solving E[L'(ln sqrt(U) + c)] = 0 for U ~ Gamma(shape,
    scale 2): d0 at shape n - 1 and m0 at shape n - 1/2."""
    return _shift_root(loss, lambda u: (shape - 1.0) * math.log(u) - 0.5 * u,
                       2.0 * shape)


def bz_r0_defining(absw, n, loss):
    """r0 from its defining condition E[L'(ln sqrt(V) + r) | |W| <= absw] = 0
    at eta = 0, where V given |W| <= absw has density proportional to
    v^(n-2) e^(-v/2) erf(absw sqrt(n v) / 2)."""
    return _shift_root(loss, lambda v: ((n - 2.0) * math.log(v) - 0.5 * v
                                        + math.log(special.erf(0.5 * absw * math.sqrt(n * v)))),
                       2.0 * n)


def conditional_median(w, eta, n):
    """Median of Z = ln(S^2/sigma^2) given W = w at mean separation eta >= 0,
    from the conditional density

        f(z | w) ~ exp( (2n-1) z/2 - [e^z + (sqrt(n) e^(z/2) w - eta)^2 / 2] / 2 ).
    """
    if eta < 0.0:
        raise DomainError(f"need eta >= 0 under the mean ordering, got {eta}")

    def log_density(z):
        dev = math.sqrt(n) * math.exp(0.5 * z) * w - eta
        return (n - 0.5) * z - 0.5 * (math.exp(z) + 0.5 * dev * dev)

    zm = optimize.minimize_scalar(lambda z: -log_density(z), bounds=(-40.0, 40.0),
                                  method="bounded").x
    peak = log_density(zm)
    # the window where the density is above e^-60 of its peak
    lo, hi = zm - 1.0, zm + 1.0
    while log_density(lo) > peak - 60.0:
        lo -= 1.0
    while log_density(hi) > peak - 60.0:
        hi += 1.0

    def mass(a, b):
        return _quad(lambda z: math.exp(log_density(z) - peak), a, b)

    total = mass(lo, hi)
    return optimize.brentq(lambda z: mass(lo, z) / total - 0.5, lo, hi, xtol=1e-14)


def window_mass_ratio(y, d1, d2, n, eta, alpha):
    """Ratio I(y - d2) / I(y - d1) of the windowed Gaussian masses

        I(t) = int_{-alpha}^{alpha} exp(-(s w - eta)^2 / 4) dw
             = (sqrt(pi) / s) [erfc((eta - s alpha) / 2) - erfc((eta + s alpha) / 2)],

    s = sqrt(n) e^t, in closed form (the sqrt(pi) cancels in the ratio).  For
    d1 < d2 the ratio is nondecreasing in y, which is the monotone-likelihood
    property behind the shrinkage solvers.
    """

    def mass(t):
        s = math.sqrt(n) * math.exp(t)
        return (math.erfc((eta - s * alpha) / 2) - math.erfc((eta + s * alpha) / 2)) / s

    return mass(y - d2) / mass(y - d1)
