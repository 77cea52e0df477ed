"""Exception hierarchy shared across the package."""


class PignisticError(Exception):
    """Base class for all errors raised by this package."""


class FrameError(PignisticError):
    """Invalid frame construction."""


class EmptyFrameError(FrameError):
    pass


class DuplicateLabelError(FrameError):
    pass


class FrameTooLargeError(FrameError):
    pass


class MassFunctionError(PignisticError):
    """Invalid mass-function construction."""


class UnknownLabelError(MassFunctionError):
    pass


class EmptySetMassError(MassFunctionError):
    pass


class DuplicateFocalSetError(MassFunctionError):
    pass


class MassOutOfRangeError(MassFunctionError):
    pass


class MassSumMismatchError(MassFunctionError):
    pass


class FrameMismatchError(PignisticError):
    """Two values built over different frames were combined."""


class UnsupportedDivergenceError(PignisticError):
    """KL divergence is infinite: p puts mass where q has none."""


class ConvergenceError(PignisticError):
    """Fixed-point iteration exceeded its iteration budget.

    Carries the last iterate, its residual and gap, and the iterations used.
    """

    def __init__(self, message, last_iterate=None, residual=None, iterations=None, gap=None):
        super().__init__(message)
        self.last_iterate = last_iterate
        self.residual = residual
        self.iterations = iterations
        self.gap = gap


class ParseError(PignisticError):
    """Malformed document text (syntax level)."""


class ValidationError(PignisticError, ValueError):
    """A value breaks a rule of the code that checks it; also a ``ValueError``."""
