"""Exception types shared across the library."""


class NtkOriginError(Exception):
    """Base class for all library errors."""


class DegenerateDirection(NtkOriginError, ValueError):
    """A direction vector is zero (or numerically indistinguishable from it)."""


class DimensionError(NtkOriginError, ValueError):
    """Operands disagree on the ambient dimension."""


class InvalidInput(NtkOriginError, ValueError):
    """An input contains NaN or infinite entries."""


class InvalidRegularization(NtkOriginError, ValueError):
    """Tikhonov parameter is non-positive."""


class NumericalFailure(NtkOriginError, RuntimeError):
    """A linear solve broke down or failed its residual check, or a step size
    could not be derived from a zero init-time gram."""


class MissingFeatureSample(NtkOriginError, ValueError):
    """An operation needs a Monte Carlo feature sample, but its operand was
    computed under the analytic kernel, which has none."""


class BoundaryTooClose(NtkOriginError, ValueError):
    """A finite-difference probe sits too close to an indicator boundary."""


class EvaluationError(NtkOriginError, RuntimeError):
    """A user-supplied function returned NaN during stencil evaluation."""


class FitFailure(NtkOriginError, RuntimeError):
    """Polynomial profile fit was rank deficient."""


class DivergenceError(NtkOriginError, RuntimeError):
    """Gradient descent diverged (loss grew past the abort threshold)."""


class NaNError(NtkOriginError, RuntimeError):
    """Training produced non-finite parameters or loss."""


class ConfigError(NtkOriginError, ValueError):
    """A scenario configuration is malformed."""
