"""Shared exception types."""


class SizeGuardError(RuntimeError):
    """Raised when an exhaustive computation is refused because the instance
    is larger than the guard allows; the message names the guard that fired,
    its limit and the size refused."""

    def __init__(self, guard, limit, actual):
        super().__init__(
            f"size guard '{guard}' refused: {actual} exceeds limit {limit}"
        )


class NumericCheckError(ArithmeticError):
    """An identity the code promises failed; only _linalg.check raises it."""


class ConfigError(ValueError):
    """Invalid experiment configuration."""
