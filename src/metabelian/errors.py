"""Exception types shared across the package."""


class AmbientMismatch(ValueError):
    """Two elements (or an element and an operand) live in different ambients."""


class ParseError(ValueError):
    """Malformed input text; carries a position when known."""

    def __init__(self, message, position=None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class ExponentSumError(ValueError):
    """A word expected to lie in the module kernel has a nonzero t-exponent sum."""


class BudgetExceeded(RuntimeError):
    """A configurable step budget ran out before the computation finished."""


class TamenessViolation(ValueError):
    """A sampled direction witnesses failure of the tameness condition."""

    def __init__(self, message, direction=None):
        super().__init__(message)
        self.direction = direction
