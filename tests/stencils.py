"""Reference finite-difference Hessian in the two counting fields.

The package computes second cumulants exactly by bordered solves; this
stencil, with ``fcs.richardson``, is the independent check on eigenvalues.
"""

import numpy as np


def hessian(fun, h) -> np.ndarray:
    """Central-difference Hessian of ``fun(s1, s2)`` at the origin, from one
    call on arrays of all its tilts; a step array gives one result per step
    along the last axis."""
    zero = np.zeros_like(h)
    f = fun(np.concatenate([0.0, h, -h, zero, zero, h, h, -h, -h], axis=None),
            np.concatenate([0.0, zero, zero, h, -h, h, -h, h, -h], axis=None))
    f00, f = f[0], f[1:].reshape((8,) + np.shape(h))
    d11 = (f[0] - 2 * f00 + f[1]) / h**2
    d22 = (f[2] - 2 * f00 + f[3]) / h**2
    d12 = (f[4] - f[5] - f[6] + f[7]) / (4 * h**2)
    return np.array([[d11, d12], [d12, d22]])
