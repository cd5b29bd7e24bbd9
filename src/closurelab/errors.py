"""Exception types shared across the package."""


class ClosureLabError(Exception):
    """Base class for all errors raised by this package."""


class NotPrime(ClosureLabError):
    pass


class ReducibleModulus(ClosureLabError):
    pass


class DivisionByZero(ClosureLabError):
    pass


class UnsupportedField(ClosureLabError):
    pass


class ParseError(ClosureLabError):
    """Syntax error in a presentation or polynomial string.

    Carries the 0-based offset of the offending character in `position`.
    """

    def __init__(self, message, position=None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class UnknownVariable(ParseError):
    pass


class RingMismatch(ClosureLabError):
    pass


class FieldMismatch(ClosureLabError):
    pass


class NotZeroDimensional(ClosureLabError):
    pass


class BudgetExceeded(ClosureLabError):
    pass


class InfiniteFieldUnsupported(ClosureLabError):
    pass


class DegreeTooSmall(ClosureLabError):
    pass


class LengthMismatch(ClosureLabError):
    pass


class CertificateFailure(ClosureLabError):
    pass
