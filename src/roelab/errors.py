"""Shared exception types."""


class SizeGuardError(RuntimeError):
    """Raised when an exhaustive computation is refused because the instance
    is larger than the guard allows. ``guard`` names the limit that fired."""

    def __init__(self, guard, limit, actual):
        self.guard = guard
        self.limit = limit
        self.actual = actual
        super().__init__(
            f"size guard '{guard}' refused: {actual} exceeds limit {limit}"
        )


class NumericCheckError(ArithmeticError):
    """An identity the code promises failed; only _linalg.check raises it."""


class ConfigError(ValueError):
    """Invalid experiment configuration."""
