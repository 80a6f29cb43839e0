"""Gauss-Kronrod quadrature and the log-weighted kernel integrals used by
the shrinkage solvers.

One engine, :func:`_cumulative`, integrates a nonnegative f from the first
node of an ascending grid to every node: GK15 on all intervals at once, and
panel doubling where the relative error bound fails.  The kernel integral is

    J_k(a, y) = int_0^y t^(-1/2) (2 + t)^(-a) [ln(2 + t)]^k dt,   k in {0, 1}.

The endpoint singularity t^(-1/2) is removed exactly by substituting
t = u^2, which turns the integrand into 2 (2 + u^2)^(-a) [ln(2 + u^2)]^k on
[0, sqrt(y)].  :func:`cumulative_J` gives J at every node of a grid in u,
and :func:`adaptive_quad` is the engine on one interval.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from ..errors import DomainError, NumericError

# 15-point Kronrod nodes on [-1, 1] (positive half) and weights; the Gauss-7
# rule reuses the even-indexed nodes.
_XK = np.array([
    0.991455371120813, 0.949107912342759, 0.864864423359769,
    0.741531185599394, 0.586087235467691, 0.405845151377397,
    0.207784955007898, 0.0,
])
_WK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
])
_WG = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469,
])

_NODES = np.concatenate([-_XK[:-1], _XK[::-1]])          # 15 ascending nodes
_WEIGHTS_K = np.concatenate([_WK[:-1], _WK[::-1]])
_WEIGHTS_G = np.zeros(15)
_WEIGHTS_G[1:-1:2] = np.concatenate([_WG[:-1], _WG[::-1]])

REL_TOL = 1e-10
MAX_SUBDIVISIONS = 200


def _kernel(a: float, log_power: int) -> Callable[[np.ndarray], np.ndarray]:
    """The integrand 2 (2 + u^2)^(-a) [ln(2 + u^2)]^k of J_k in u = sqrt(t)."""
    if log_power == 0:
        def g(u: np.ndarray) -> np.ndarray:
            return 2.0 * (2.0 + u * u) ** (-a)
    else:
        def g(u: np.ndarray) -> np.ndarray:
            q = 2.0 + u * u
            return 2.0 * q ** (-a) * np.log(q)
    return g


def _gk_intervals(f: Callable[[np.ndarray], np.ndarray], lo: np.ndarray, hi: np.ndarray,
                  panels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """K15 integral and summed |K15 - G7| bound of f over each [lo_i, hi_i],
    split into panels_i equal panels, all evaluated as one array."""
    first = np.cumsum(panels) - panels                  # first panel of each interval
    owner = np.repeat(np.arange(len(lo)), panels)
    k = np.arange(len(owner)) - first[owner]            # panel index within its interval
    width = ((hi - lo) / panels)[owner]
    half = 0.5 * width
    mid = lo[owner] + (k + 0.5) * width
    fx = f(mid[:, None] + half[:, None] * _NODES)
    ik = half * (fx @ _WEIGHTS_K)
    ig = half * (fx @ _WEIGHTS_G)
    return np.add.reduceat(ik, first), np.add.reduceat(np.abs(ik - ig), first)


def _check_log_power(log_power: int) -> None:
    if log_power not in (0, 1):
        raise DomainError(f"log_power must be 0 or 1, got {log_power!r}")


def _cumulative(f: Callable[[np.ndarray], np.ndarray], u: np.ndarray) -> np.ndarray:
    """The integral of f >= 0 from u[0] to every node of the ascending array u.

    The K15 rule runs on all intervals [u_i, u_(i+1)] at once and a cumsum
    gives the integrals.  The summed |K15 - G7| bound up to each node must be
    at most REL_TOL times the integral there; error control is relative
    only, so it holds however small the integral is.  While it fails, every
    interval up to the last failing node whose own bound exceeds REL_TOL / 2
    times its own integral is split into twice as many equal panels; an
    interval that would need more than MAX_SUBDIVISIONS + 1 panels raises
    NumericError.
    """
    lo, hi = u[:-1], u[1:]
    panels = np.ones(len(lo), dtype=np.int64)
    ik = np.zeros(len(lo))
    err = np.zeros(len(lo))
    todo = np.arange(len(lo))
    while True:
        if len(todo):
            ik[todo], err[todo] = _gk_intervals(f, lo[todo], hi[todo], panels[todo])
        J = np.concatenate(([0.0], np.cumsum(ik)))
        if not math.isfinite(J[-1]):
            raise NumericError("quadrature: integrand not finite on the nodes")
        failing = np.flatnonzero(np.cumsum(err) > REL_TOL * J[1:])
        if len(failing) == 0:
            return J
        # ik >= 0, so a node that fails has an interval before it whose own
        # bound exceeds rel_tol times its own integral; half of rel_tol leaves
        # a margin that rounding in the cumsums cannot close
        head = failing[-1] + 1
        todo = np.flatnonzero(err[:head] > 0.5 * REL_TOL * ik[:head])
        panels[todo] *= 2
        if panels[todo].max() > MAX_SUBDIVISIONS + 1:
            i = int(failing[0])
            raise NumericError(
                f"quadrature: error {np.sum(err[:i + 1]):.3e} above tolerance at "
                f"u = {u[i + 1]:.6g} after {MAX_SUBDIVISIONS} subdivisions "
                f"(value {J[i + 1]:.6e})")


def adaptive_quad(f: Callable[[np.ndarray], np.ndarray], a: float, b: float) -> float:
    """Integral over finite a <= b of f >= 0, which maps an ndarray of
    abscissae to its values, by :func:`_cumulative`: the tolerance is
    REL_TOL relative to the integral, with no absolute floor."""
    a, b = float(a), float(b)
    if not (math.isfinite(a) and math.isfinite(b) and a <= b):
        raise DomainError(f"adaptive_quad needs finite a <= b, got [{a!r}, {b!r}]")
    return float(_cumulative(f, np.array([a, b]))[-1])


def cumulative_J(a: float, u: np.ndarray, log_power: int) -> np.ndarray:
    """J_k(a, u_i^2) at every node of the ascending array u, u[0] = 0, from
    one :func:`_cumulative` pass over the nodes."""
    _check_log_power(log_power)
    u = np.asarray(u, dtype=float)
    if u.ndim != 1 or len(u) == 0 or u[0] != 0.0:
        raise DomainError("cumulative_J needs a 1-d array of nodes starting at 0")
    if not (np.isfinite(u[-1]) and (np.diff(u) >= 0.0).all()):
        raise DomainError("cumulative_J needs finite ascending nodes")
    return _cumulative(_kernel(float(a), log_power), u)


def integrate_J(a: float, y: float, log_power: int) -> float:
    """J_k(a, y) with k = log_power, for finite y >= 0."""
    _check_log_power(log_power)
    y = float(y)
    if not 0.0 <= y < math.inf:
        raise DomainError(f"integrate_J needs finite y >= 0, got {y!r}")
    if y == 0.0:
        return 0.0
    # pre-split geometrically so a huge upper limit cannot hide the mass
    # concentrated near u = 0 from the first error estimate
    upper = math.sqrt(y)
    decades = [10.0 ** k for k in range(int(math.log10(upper)) + 2)]
    cuts = [0.0, *(s for s in decades if s < upper), upper]
    return float(cumulative_J(a, np.array(cuts), log_power)[-1])
