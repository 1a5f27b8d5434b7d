"""Exception types shared across the simulator."""


class DubinsimError(Exception):
    """Base class for all package-specific errors."""


class StateIntegrityError(DubinsimError):
    """Plant update saw or produced a non-finite value; usually controller divergence."""


class ControllerFault(DubinsimError):
    """Controller received a non-finite measurement."""


class HorizonTooLongError(DubinsimError):
    """Receding-horizon exponent argument exceeded the overflow guard."""


class InfeasibleBypassError(DubinsimError):
    """No collision-free tangent-arc-tangent bypass could be constructed."""


class ReplanLimitError(DubinsimError):
    """One sample needed more bypasses than the replan limit allows."""


class ConfigError(DubinsimError, ValueError):
    """Scenario configuration failed validation."""


class DegeneratePathError(ConfigError):
    """Reference path specification is degenerate (zero length, zero radius, ...)."""
