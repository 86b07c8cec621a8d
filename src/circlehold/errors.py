"""Exception types shared across the package."""


class CircleHoldError(Exception):
    """Base class for all package-specific errors."""


class DegenerateInput(CircleHoldError, ValueError):
    """Input geometry is flat, collinear, or otherwise not full-dimensional."""


class InvalidInput(CircleHoldError, ValueError):
    """Input violates a documented precondition."""


class InvalidParam(CircleHoldError, ValueError):
    """A family constructor received a parameter outside its valid range."""


class NoBlockingSlice(CircleHoldError):
    """No cross-section wider than the circle exists on the required side."""


class InvalidStart(CircleHoldError, ValueError):
    """An escape search was started from a penetrating pose."""


class NotFound(CircleHoldError):
    """A search finished without producing a certified result."""


class CertificationError(CircleHoldError):
    """A certificate failed its own internal consistency checks."""
