"""Exception types shared across the package."""


class TinGdofError(Exception):
    """Base class for all package errors."""


class NetworkSpecError(TinGdofError, ValueError):
    """Invalid network description or input value (parse failure, negative GDoF, ...)."""


class TopologyError(TinGdofError):
    """Operation requires a specific network topology."""


class GuardExceededError(TinGdofError):
    """Problem size exceeds a hard guard of an exhaustive routine."""


class ConditionsNotMetError(TinGdofError):
    """Operation is only valid when the TIN sufficient conditions hold."""


class EmptyRegionError(TinGdofError):
    """The inequality system has no feasible point at all."""
