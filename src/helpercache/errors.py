"""Exception types shared across the package."""


class InvalidParameterError(ValueError):
    """A scalar parameter or field is outside its documented domain."""


class InsufficientDataError(ValueError):
    """Not enough data to run an estimator (e.g. fewer than two distinct files)."""


class InfeasiblePlacementError(ValueError):
    """A placement violates capacity, rank-range, or shape constraints."""


class DegenerateInstanceError(ValueError):
    """An optimization instance has no users or an empty catalog."""


class InstanceTooLargeError(ValueError):
    """An instance is above a size guard (brute-force search space, LP nonzeros)."""


class UnboundedProblemError(RuntimeError):
    """The LP has directions of unbounded improvement (should not occur for

    instances built by this package, where every variable is boxed)."""


class IterationLimitError(RuntimeError):
    """The LP solver stopped before an optimum (iteration limit or other status)."""


class ConfigError(ValueError):
    """A CLI/config field failed validation.  Carries the field name."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")
