"""Exception types shared across the package."""

from functools import reduce
from operator import or_

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


def some(mask) -> bool:
    """Whether a mask over stacked points (or at one point) is true
    anywhere, without ``np.any``'s cost on a small array."""
    return bool(np.count_nonzero(mask))


def raise_first(*checks) -> None:
    """Raise what the first stacked point that fails one of ``checks``
    raises alone, with ``outcomes``: per point, what it raises alone, or
    None.  ``checks`` are (mask, error type, message, *values), in the order
    a point meets them; a mask is true where a point fails, whose message is
    formatted with its own entries of ``values``."""
    failed = reduce(or_, [check[0] for check in checks])
    if some(failed):
        outcomes = [None] * np.size(failed)
        for mask, error, message, *values in checks:
            for point in np.flatnonzero(mask):
                outcomes[point] = outcomes[point] or error(message.format(
                    *(np.ravel(value)[point] for value in values)))
        first = outcomes[np.argmax(failed)]
        first.outcomes = outcomes
        raise first
