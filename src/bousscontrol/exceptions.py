"""Exception hierarchy for solver, geometry and configuration failures."""


class BoussControlError(Exception):
    """Base class for all toolkit errors."""


class GeometryError(BoussControlError):
    """Control patch / domain geometry is inconsistent."""


class DomainError(BoussControlError):
    """Scalar argument outside its admissible interval."""


class ShapeError(BoussControlError):
    """Field shapes do not match the grid."""


class StepSizeError(BoussControlError):
    """Time step violates the configured CFL bound."""


class DivergenceError(BoussControlError):
    """Energy blow-up detected during time integration."""

    def __init__(self, message, step=None):
        super().__init__(message)
        self.step = step


class RegimeError(BoussControlError):
    """Uncontrolled run left the monotone-decay regime (decay stall)."""


class SearchError(BoussControlError):
    """Parameter search (e.g. minimal feasible exponent) found no solution."""


class ConvergenceError(BoussControlError):
    """Outer or CG iteration failed to converge."""

    def __init__(self, message, history=None):
        super().__init__(message)
        self.history = history


class ConfigError(BoussControlError):
    """Experiment configuration is invalid."""
