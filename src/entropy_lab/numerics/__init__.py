"""Numerics that numpy and the standard library lack: special functions,
quadrature and deterministic random streams.  ln Gamma is ``math.lgamma``
and the normal quantile ``statistics.NormalDist.inv_cdf``, each called
where it is needed."""

from .quadrature import adaptive_quad, cumulative_J, integrate_J
from .rng import RngStream
from .special import (
    chi_square_cdf,
    chi_square_quantile,
    digamma,
    student_t_cdf,
    trigamma,
)

__all__ = [
    "RngStream",
    "adaptive_quad",
    "chi_square_cdf",
    "chi_square_quantile",
    "cumulative_J",
    "digamma",
    "integrate_J",
    "student_t_cdf",
    "trigamma",
]
