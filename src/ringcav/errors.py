"""Exception types shared across the package.

Each maps to a specific failure contract; cli._execute translates them to
exit codes:

- 2, invalid input: NonPositiveRate, AmbiguousDrive, UnknownUnit,
  StepTooCoarse, FinesseTooLow, and ValueError or OSError;
- 3, solver failure: NoRealRoot, NumericalInstability, ModelEvaluationFailed;
- 4, fit did not converge: NotConverged;
- 5, degenerate fit: DegenerateFit;
- 6, lock lost: LockLost.

Other exceptions, DivergentDrive among them, are not caught there.
"""


class RingcavError(Exception):
    """Base class for all package errors."""


class NonPositiveRate(RingcavError):
    """A rate or scale that must be strictly positive is not."""


class AmbiguousDrive(RingcavError):
    """Both or neither of input power and dimensionless drive were given."""


class UnknownUnit(RingcavError):
    """Unit label outside the supported {rad/s, Hz, MHz} set."""


class NoRealRoot(RingcavError):
    """The intensity cubic returned no physical root (solver failure)."""


class NumericalInstability(RingcavError):
    """Root residual certification failed or coefficients are not finite."""


class DivergentDrive(RingcavError):
    """Operation requires y > 0 (use the weak-drive form for y = 0)."""


class FinesseTooLow(RingcavError):
    """Ring-to-rates mapping requested outside its validity regime."""


class NotConverged(RingcavError):
    """Fit ended by evaluation budget, not by convergence."""


class DegenerateFit(RingcavError):
    """Objective is flat along some parameter direction at the optimum.

    Carries the offending parameter names and the FitResult so callers may
    opt in to using it anyway.
    """

    def __init__(self, message, parameters=(), result=None):
        super().__init__(message)
        self.parameters = tuple(parameters)
        self.result = result


class ModelEvaluationFailed(RingcavError):
    """Model could not be evaluated at some data point during fitting."""


class StepTooCoarse(RingcavError):
    """Integrator step size violates the dt < tau_th/10 contract."""


class LockLost(RingcavError):
    """Probe transmission left the capture range for too many steps."""

    def __init__(self, message, time_s=None):
        super().__init__(message)
        self.time_s = time_s
