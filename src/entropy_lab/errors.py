"""Exception hierarchy shared by all modules."""


class EntropyLabError(Exception):
    """Base class for every error raised by this package."""


class DomainError(EntropyLabError, ValueError):
    """An argument is outside the mathematical domain of an operation."""


class DataError(EntropyLabError, ValueError):
    """Input data is malformed, degenerate, or cannot be parsed."""


class NumericError(EntropyLabError, ArithmeticError):
    """An iterative numerical procedure failed to converge."""
