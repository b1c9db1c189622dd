"""Exception types shared across the package."""


class GeometryError(Exception):
    """Base class for every error raised by this package."""


class DimensionMismatch(GeometryError):
    """Operands live on fibers of different or invalid dimensions."""


class NonFiniteValue(GeometryError, ValueError):
    """A matrix or field holds a NaN or infinite entry, as given or after
    an operation overflowed."""


class InvalidStructure(GeometryError, ValueError):
    """A matrix expected to be an almost complex structure does not square
    to -identity."""


class SingularOperator(GeometryError):
    """An operator that must be inverted is singular or too ill-conditioned."""


class AnticommutationViolation(GeometryError):
    """A matrix expected to anticommute with the base structure does not."""


class DegeneratePlane(GeometryError):
    """The Gram determinant of a tangent plane is too close to zero."""


class ConfigError(GeometryError):
    """Invalid run configuration."""


class IoError(GeometryError):
    """A field or report file could not be read, parsed, or written."""
