"""Self-contained numerics: special functions, quadrature, root finding,
and deterministic random streams."""

from .quadrature import adaptive_quad, cumulative_J, integrate_J
from .rng import RngStream
from .roots import find_root
from .special import (
    EULER_GAMMA,
    chi_square_cdf,
    chi_square_quantile,
    digamma,
    ln_gamma,
    reg_inc_beta,
    reg_lower_gamma,
    reg_upper_gamma,
    std_normal_cdf,
    std_normal_quantile,
    student_t_cdf,
    trigamma,
)

__all__ = [
    "EULER_GAMMA",
    "RngStream",
    "adaptive_quad",
    "chi_square_cdf",
    "chi_square_quantile",
    "cumulative_J",
    "digamma",
    "find_root",
    "integrate_J",
    "ln_gamma",
    "reg_inc_beta",
    "reg_lower_gamma",
    "reg_upper_gamma",
    "std_normal_cdf",
    "std_normal_quantile",
    "student_t_cdf",
    "trigamma",
]
