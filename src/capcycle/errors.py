"""Exception types shared across the package."""


class CapcycleError(Exception):
    """Base class for all capcycle-specific errors."""


class AllocationError(CapcycleError, ValueError):
    """Invalid allocation values or unparseable allocation text."""


class DimensionMismatchError(CapcycleError, ValueError):
    """Two allocations with different category counts were compared."""


class AllTiesError(CapcycleError, ValueError):
    """Every cell ties, so reroll-style play can never produce a decision."""


class SpaceTooLargeError(CapcycleError, RuntimeError):
    """The requested strategy space exceeds the configured enumeration limit."""
