"""Exception types shared across the package."""


class TinGdofError(Exception):
    """Base class for all package errors."""


class NetworkSpecError(TinGdofError):
    """Invalid network description (parse failure, dimension mismatch, ...)."""


class TopologyError(TinGdofError):
    """Operation requires a specific network topology."""


class GuardExceededError(TinGdofError):
    """Problem size exceeds a hard guard of an exhaustive routine."""


class ConditionsNotMetError(TinGdofError):
    """Operation is only valid when the TIN sufficient conditions hold."""


class InfeasibleAllocationError(TinGdofError):
    """No feasible power allocation exists; ``circuit`` is a negative circuit proving it."""

    def __init__(self, message: str, circuit=None):
        super().__init__(message)
        self.circuit = circuit


class EmptyRegionError(TinGdofError):
    """The inequality system has no feasible point at all."""
