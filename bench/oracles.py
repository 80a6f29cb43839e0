"""Closed-form K -> infinity coverage limits, the oracles of the coverage gates.

Every interval of the coverage study has the form (1/2) ln SS0 + (a, b) with
(a, b) free of the data, and SS0 / sigma^2 is chi-square with 2n - 2 degrees
of freedom.  Coverage of tau is therefore P(e^{-2b} <= SS0/sigma^2 <= e^{-2a}),
a difference of two chi-square CDF values.  The degrees of freedom are even,
where the CDF is a finite Poisson sum, so the oracles are evaluated here
with the standard library instead of through the package they check.
"""

from __future__ import annotations

import math
from statistics import NormalDist


def chi2_cdf_even(x: float, df: int) -> float:
    """P(X <= x) for X chi-square with an even number ``df`` of degrees of
    freedom: 1 - e^{-x/2} sum_{j < df/2} (x/2)^j / j!."""
    if df <= 0 or df % 2:
        raise ValueError(f"df must be a positive even integer, got {df!r}")
    if x <= 0.0:
        return 0.0
    half = 0.5 * x
    term = math.exp(-half)
    terms = [term]
    for j in range(1, df // 2):
        term *= half / j
        terms.append(term)
    return max(0.0, 1.0 - math.fsum(terms))


def chi2_ppf_even(p: float, df: int) -> float:
    """Inverse of :func:`chi2_cdf_even` by bisection."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must be in (0, 1), got {p!r}")
    lo, hi = 0.0, df + 10.0 * math.sqrt(2.0 * df) + 50.0
    while chi2_cdf_even(hi, df) < p:
        hi *= 2.0
    while hi - lo > 1e-14 * hi:
        mid = 0.5 * (lo + hi)
        if chi2_cdf_even(mid, df) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def aci_half_width(n: int, level: float) -> float:
    """Half-width z_{(1+level)/2} / (2 sqrt(n)) of the asymptotic interval."""
    return NormalDist().inv_cdf(0.5 * (1.0 + level)) / (2.0 * math.sqrt(n))


def aci_cp_limit(n: int, level: float) -> float:
    """Exact coverage F(2n e^{2h}) - F(2n e^{-2h}) of ln(sigma_MLE) +/- h."""
    h = aci_half_width(n, level)
    df = 2 * n - 2
    return chi2_cdf_even(2.0 * n * math.exp(2.0 * h), df) - chi2_cdf_even(2.0 * n * math.exp(-2.0 * h), df)


def boot_p_cp_limit(n: int, level: float) -> float:
    """K -> infinity coverage F(4n^2/q_lo) - F(4n^2/q_hi) of the percentile
    bootstrap, q the chi-square(2n - 2) quantiles at the two tail levels."""
    df = 2 * n - 2
    alpha = 1.0 - level
    q_lo = chi2_ppf_even(0.5 * alpha, df)
    q_hi = chi2_ppf_even(1.0 - 0.5 * alpha, df)
    return chi2_cdf_even(4.0 * n * n / q_lo, df) - chi2_cdf_even(4.0 * n * n / q_hi, df)
