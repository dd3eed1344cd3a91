"""Exception types shared across the package.

Each maps to a specific failure contract. Its class attribute ``exit_code``
is the status the CLI exits with when it reaches the command line; the
built-in ValueError and OSError exit 2 there as well, and any other
exception propagates.
"""


class RingcavError(Exception):
    """Base class for all package errors; invalid input unless overridden."""

    exit_code = 2


class NonPositiveRate(RingcavError):
    """A rate or scale that must be strictly positive is not."""


class AmbiguousDrive(RingcavError):
    """Both or neither of input power and dimensionless drive were given."""


class NoRealRoot(RingcavError):
    """The intensity cubic has no physical root: the drive |y|^2 is negative."""

    exit_code = 3


class NumericalInstability(RingcavError):
    """Root residual certification failed or coefficients are not finite."""

    exit_code = 3


class FinesseTooLow(RingcavError):
    """Ring-to-rates mapping requested outside its validity regime."""


class NotConverged(RingcavError):
    """Fit ended by evaluation budget, not by convergence."""

    exit_code = 4


class DegenerateFit(RingcavError):
    """Objective is flat along some parameter direction at the optimum.

    Carries the offending parameter names and the FitResult so callers may
    opt in to using it anyway.
    """

    exit_code = 5

    def __init__(self, message, parameters=(), result=None):
        super().__init__(message)
        self.parameters = tuple(parameters)
        self.result = result


class ModelEvaluationFailed(RingcavError):
    """Model could not be evaluated at some data point during fitting."""

    exit_code = 3


class StepTooCoarse(RingcavError):
    """Integrator step too coarse: dt >= tau_th/10, or a scan step that jumps the resonance."""


class LockLost(RingcavError):
    """Probe transmission left the capture range for too many steps."""

    exit_code = 6

    def __init__(self, message, time_s=None):
        super().__init__(message)
        self.time_s = time_s
