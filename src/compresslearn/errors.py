"""Exception types shared across the package."""


class CompressLearnError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(CompressLearnError, ValueError):
    """Invalid argument or malformed input object."""


class DimensionMismatchError(ValidationError):
    """Operands have incompatible dimensions."""


class SingularCovarianceError(ValidationError):
    """Covariance matrix is not symmetric positive definite."""


class MessageSizeError(CompressLearnError):
    """An encoder's message has the wrong scheme id or size for its codec."""


class DecodingError(CompressLearnError):
    """A message does not decode to a valid distribution."""


class WorkerPoolError(CompressLearnError):
    """A worker process of the program's one worker pool died mid-task."""
