"""Reference finite-difference stencils in the two counting fields.

The package computes second cumulants exactly by bordered solves and takes
the cross sections by a central-difference stencil of its own
(``fcs.first_cumulants``); these stencils, on the dominant eigenvalue, are
the independent check on both.  Each evaluates ``fun(s1, s2)`` once, on
arrays of all its tilts, at a scalar step or a 1-D array of steps, over
which the result's last axis runs.
"""

import numpy as np


def gradient(fun, h) -> np.ndarray:
    """Central-difference gradient of ``fun(s1, s2)`` at the origin."""
    zero = np.zeros_like(h)
    f = fun(np.concatenate([h, -h, zero, zero], axis=None),
            np.concatenate([zero, zero, h, -h], axis=None))
    f = f.reshape((4,) + np.shape(h))
    return np.array([(f[0] - f[1]) / (2 * h), (f[2] - f[3]) / (2 * h)])


def hessian(fun, h) -> np.ndarray:
    """Central-difference Hessian of ``fun(s1, s2)`` at the origin; the
    origin is evaluated once for all steps."""
    zero = np.zeros_like(h)
    f = fun(np.concatenate([0.0, h, -h, zero, zero, h, h, -h, -h], axis=None),
            np.concatenate([0.0, zero, zero, h, -h, h, -h, h, -h], axis=None))
    f00, f = f[0], f[1:].reshape((8,) + np.shape(h))
    d11 = (f[0] - 2 * f00 + f[1]) / h**2
    d22 = (f[2] - 2 * f00 + f[3]) / h**2
    d12 = (f[4] - f[5] - f[6] + f[7]) / (4 * h**2)
    return np.array([[d11, d12], [d12, d22]])


def richardson(stencil, fun, h):
    """One Richardson step on ``stencil(fun, step)`` from a scalar step h
    and h/2, in one call."""
    both = stencil(fun, np.array([h, h / 2]))
    return (4 * both[..., 1] - both[..., 0]) / 3
