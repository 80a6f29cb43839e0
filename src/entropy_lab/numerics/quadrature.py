"""Adaptive Gauss-Kronrod quadrature and the log-weighted kernel integrals
used by the shrinkage solvers.

The kernel integral is

    J_k(a, y) = int_0^y t^(-1/2) (2 + t)^(-a) [ln(2 + t)]^k dt,   k in {0, 1}.

The endpoint singularity t^(-1/2) is removed exactly by substituting
t = u^2, which turns the integrand into 2 (2 + u^2)^(-a) [ln(2 + u^2)]^k on
[0, sqrt(y)].  :func:`cumulative_J` gives J at every node of a grid in u
from one vectorized Gauss-Kronrod pass over the consecutive intervals.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
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


@dataclass(frozen=True)
class QuadSpec:
    """Tolerances and the subdivision budget for adaptive quadrature."""

    abs_tol: float = 1e-12
    rel_tol: float = 1e-10
    max_subdivisions: int = 200

    def __post_init__(self) -> None:
        if not (self.abs_tol > 0.0 and self.rel_tol > 0.0):
            raise DomainError("QuadSpec tolerances must be positive")
        if self.max_subdivisions < 1:
            raise DomainError("QuadSpec.max_subdivisions must be >= 1")


DEFAULT_QUAD = QuadSpec()


def _gk_panel(f: Callable[[np.ndarray], np.ndarray], a: float, b: float) -> tuple[float, float]:
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    fx = np.asarray(f(mid + half * _NODES), dtype=float)
    ik = half * float(fx @ _WEIGHTS_K)
    ig = half * float(fx @ _WEIGHTS_G)
    return ik, abs(ik - ig)


def adaptive_quad(f: Callable[[np.ndarray], np.ndarray], a: float, b: float,
                  spec: QuadSpec = DEFAULT_QUAD) -> float:
    """Integral of f over the finite interval [a, b].

    f must accept an ndarray of abscissae and return the integrand values.
    The |K15 - G7| panel discrepancy is used as a conservative error bound;
    the worst panel is bisected until the summed bound meets the tolerance.
    """
    a, b = float(a), float(b)
    if a == b:
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        raise DomainError("adaptive_quad requires finite endpoints")
    ik, err = _gk_panel(f, a, b)
    heap = [(-err, a, b, ik, err)]
    total, total_err = ik, err
    for _ in range(spec.max_subdivisions):
        if total_err <= max(spec.abs_tol, spec.rel_tol * abs(total)):
            return total
        _, pa, pb, pik, perr = heapq.heappop(heap)
        pm = 0.5 * (pa + pb)
        il, el = _gk_panel(f, pa, pm)
        ir, er = _gk_panel(f, pm, pb)
        total += il + ir - pik
        total_err += el + er - perr
        heapq.heappush(heap, (-el, pa, pm, il, el))
        heapq.heappush(heap, (-er, pm, pb, ir, er))
    if total_err <= max(spec.abs_tol, spec.rel_tol * abs(total)):
        return total
    raise NumericError(
        f"adaptive_quad: error {total_err:.3e} above tolerance after "
        f"{spec.max_subdivisions} subdivisions (value {total:.6e})")


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


def cumulative_J(a: float, u: np.ndarray, log_power: int,
                 spec: QuadSpec = DEFAULT_QUAD) -> np.ndarray:
    """J_k(a, u_i^2) at every node of the ascending array u, u[0] = 0.

    The K15 rule runs on all intervals [u_i, u_(i+1)] at once and a cumsum
    gives J.  The summed |K15 - G7| bound up to each node must be at most
    spec.rel_tol times J there; error control is relative only, so it holds
    however small J is (spec.abs_tol is not used).  While it fails, every
    interval up to the last failing node whose own bound exceeds rel_tol / 2
    times its own integral is split into twice as many equal panels; an
    interval that would need more than spec.max_subdivisions + 1 panels
    raises NumericError.
    """
    _check_log_power(log_power)
    u = np.asarray(u, dtype=float)
    if u.ndim != 1 or len(u) == 0 or u[0] != 0.0:
        raise DomainError("cumulative_J needs a 1-d array of nodes starting at 0")
    if not (np.isfinite(u[-1]) and (np.diff(u) >= 0.0).all()):
        raise DomainError("cumulative_J needs finite ascending nodes")
    g = _kernel(float(a), log_power)
    lo, hi = u[:-1], u[1:]
    panels = np.ones(len(lo), dtype=np.int64)
    ik = np.zeros(len(lo))
    err = np.zeros(len(lo))
    todo = np.arange(len(lo))
    while True:
        if len(todo):
            ik[todo], err[todo] = _gk_intervals(g, lo[todo], hi[todo], panels[todo])
        J = np.concatenate(([0.0], np.cumsum(ik)))
        if not math.isfinite(J[-1]):
            raise NumericError(f"cumulative_J: integrand not finite on the nodes (a={a})")
        failing = np.flatnonzero(np.cumsum(err) > spec.rel_tol * J[1:])
        if len(failing) == 0:
            return J
        # ik >= 0, so a node that fails has an interval before it whose own
        # bound exceeds rel_tol times its own integral; half of rel_tol leaves
        # a margin that rounding in the cumsums cannot close
        head = failing[-1] + 1
        todo = np.flatnonzero(err[:head] > 0.5 * spec.rel_tol * ik[:head])
        panels[todo] *= 2
        if panels[todo].max() > spec.max_subdivisions + 1:
            i = int(failing[0])
            raise NumericError(
                f"cumulative_J: error {np.sum(err[:i + 1]):.3e} above tolerance at "
                f"u = {u[i + 1]:.6g} after {spec.max_subdivisions} subdivisions "
                f"(value {J[i + 1]:.6e})")


def integrate_J(a: float, y: float, log_power: int, spec: QuadSpec = DEFAULT_QUAD) -> float:
    """J_k(a, y) with k = log_power; y may be math.inf when a > 1/2."""
    _check_log_power(log_power)
    a = float(a)
    y = float(y)
    if y < 0.0 or math.isnan(y):
        raise DomainError(f"integrate_J needs y >= 0, got {y!r}")
    if y == 0.0:
        return 0.0

    if math.isinf(y):
        if a <= 0.5:
            raise DomainError(f"J_k(a, inf) diverges for a <= 1/2 (a={a})")
        # split at u = 1; map the tail through u = 1/t onto (0, 1], written in
        # the overflow-free form (2 + 1/t^2)^(-a)/t^2 = t^(2a-2) (1 + 2t^2)^(-a)
        head = adaptive_quad(_kernel(a, log_power), 0.0, 1.0, spec)

        def g_tail(t: np.ndarray) -> np.ndarray:
            base = 2.0 * t ** (2.0 * a - 2.0) * (1.0 + 2.0 * t * t) ** (-a)
            if log_power == 0:
                return base
            return base * (np.log1p(2.0 * t * t) - 2.0 * np.log(t))

        tail = adaptive_quad(g_tail, 0.0, 1.0, spec)
        return head + tail
    # pre-split geometrically so a huge upper limit cannot hide the mass
    # concentrated near u = 0 from the first error estimate
    upper = math.sqrt(y)
    cuts = [0.0]
    scale = 1.0
    while scale < upper:
        cuts.append(scale)
        scale *= 10.0
    cuts.append(upper)
    return float(cumulative_J(a, np.array(cuts), log_power, spec)[-1])
