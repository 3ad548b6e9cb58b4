"""Exception types shared across the package."""

import numpy as np


class ModelError(Exception):
    """Base class for all package-specific errors."""


class InvalidParam(ModelError):
    """A physical parameter violates its allowed range."""

    def __init__(self, field, message=None):
        self.field = field
        super().__init__(message or f"invalid parameter: {field}")


class ParseError(ModelError):
    """Configuration document is malformed."""


class GapTooSmall(ModelError):
    """Spectral gap too small for reliable dominant-branch tracking."""


class FitResidualExceeded(ModelError):
    """Two-term intensity expansion does not describe the diffusion data."""


class DegenerateAbsorption(ModelError):
    """Absorption cross section vanishes; no optimal thickness exists."""


class DegenerateSignal(ModelError):
    """Signal derivative is numerically zero or beyond the float range;
    sensitivity bound undefined."""


class SingularCovariance(ModelError):
    """Covariance matrix is not invertible."""


class QuadratureNotConverged(ModelError):
    """Adaptive quadrature failed to reach the requested tolerance."""


class InsufficientStatistics(ModelError):
    """Monte-Carlo standard error too large relative to the analytic value."""


class StencilUnstable(ModelError):
    """Five-point derivative stencil failed its step-halving agreement test."""


# The failures of one point: typed model errors and untyped numerical ones.
# They end a point in error JSON and a sweep grid point in its error row.
POINT_ERRORS = (ModelError, ArithmeticError, np.linalg.LinAlgError)
