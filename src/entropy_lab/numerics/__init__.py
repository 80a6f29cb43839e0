"""Self-contained numerics: special functions, quadrature and
deterministic random streams."""

from .quadrature import adaptive_quad, cumulative_J, integrate_J
from .rng import RngStream
from .special import (
    chi_square_cdf,
    chi_square_quantile,
    digamma,
    ln_gamma,
    std_normal_quantile,
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
    "ln_gamma",
    "std_normal_quantile",
    "student_t_cdf",
    "trigamma",
]
