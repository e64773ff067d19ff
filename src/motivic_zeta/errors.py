"""Exception hierarchy shared by all modules.

The CLI turns each into an envelope status and exit code:
ResourceError -> resource_error, 2; NumericError -> numeric_error, 3;
PreconditionError -> precondition_error, 1; any other MotivicZetaError,
usage mistakes and unreadable --in or --out files included ->
validation_error, 1.
"""


class MotivicZetaError(Exception):
    """Base class for all library errors."""


class ValidationError(MotivicZetaError):
    """Malformed or inadmissible input data."""


class DimensionError(ValidationError):
    """Matrix or vector dimensions do not match the operation."""


class PreconditionError(MotivicZetaError):
    """A documented operation precondition was violated."""


class NotInvertibleError(PreconditionError):
    """A matrix block that must be invertible is singular."""


class PrecisionError(PreconditionError):
    """More series coefficients were requested than are tracked."""


class ResourceError(MotivicZetaError):
    """An enumeration would exceed the configured budget."""

    def __init__(self, message, required=None, budget=None):
        super().__init__(message)
        self.required = required
        self.budget = budget


class NumericError(MotivicZetaError):
    """A floating-point routine failed its certification check."""


class PoleError(NumericError):
    """Evaluation was requested at (or too close to) a pole."""

    def __init__(self, message, nearest_pole=None):
        super().__init__(message)
        self.nearest_pole = nearest_pole
