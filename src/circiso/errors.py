"""Error types raised across the package.

Every domain error derives from CircisoError so callers can catch the
whole family; each also derives from ValueError because they all signal
bad argument values.
"""


class CircisoError(ValueError):
    pass


class ZeroOffset(CircisoError):
    """An offset congruent to 0 mod n was supplied."""


class NotAUnit(CircisoError):
    """Multiplier is not coprime to the modulus."""


class OrderMismatch(CircisoError):
    """Two graphs that must share an order do not."""


class InvalidParams(CircisoError):
    """Transform parameters violate m > 1, m^3 | n or the t range."""


class ParamMismatch(CircisoError):
    """Two transforms that must share (n, m) do not."""


class PreconditionViolation(CircisoError):
    """A stated operation precondition does not hold for the input."""


class NotCoprime(CircisoError):
    pass


class NotConnected(CircisoError):
    pass


class OrderTooSmall(CircisoError):
    pass


class EvenOrder(CircisoError):
    pass


class NotAPermutation(CircisoError):
    pass


class ParseError(CircisoError):
    """Graph text could not be parsed; message carries the byte offset."""


class InvariantViolation(CircisoError):
    """An internal consistency check failed, e.g. a witness that should
    verify did not. Raised explicitly so the check survives `python -O`."""


class ReportError(CircisoError):
    """A report file handed to `verify` is not a well-formed report."""
