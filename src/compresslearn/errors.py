"""Exception types shared across the package."""


class CompressLearnError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(CompressLearnError, ValueError):
    """Invalid argument or malformed input object."""


class DimensionMismatchError(ValidationError):
    """Operands have incompatible dimensions."""


class SingularCovarianceError(ValidationError):
    """Covariance matrix is not symmetric positive definite."""


class NetSizeError(ValidationError):
    """A requested net would exceed the enumeration size guard."""


class MessageSizeError(CompressLearnError):
    """A compression message exceeds its scheme's size budget."""


class DecodingError(CompressLearnError):
    """A message does not decode to a valid distribution."""


class WorkerPoolError(CompressLearnError):
    """A worker process of the selection pool died mid-tournament."""
