"""Exception types shared across the package."""


class ParseError(ValueError):
    """Raised on malformed word input; carries the 1-based offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"syntax error at position {position}: {message}")
        self.position = position


class InexactDivisionError(ArithmeticError):
    """Exact division requested but the divisor does not divide the dividend."""


class ZeroParameterError(ValueError):
    """A torus parameter was specialized to zero."""


class NotUnimodularError(ValueError):
    """A matrix expected to have determinant 1 does not."""


class TrivialWordError(ValueError):
    """An operation that needs a non-trivial word received a trivial one."""


class PrecisionExhaustedError(RuntimeError):
    """A numeric witness did not print stably, or meet its residual target,
    within the cap on the bits of its root bracket."""
