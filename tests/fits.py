"""Reference fit of the intensity expansion, one point at a time.

The package fits every point of a pass at once, with the least-squares
projectors of its two designs built once (``fcs.FIT_FLUXES``); this is the
independent check on them: a per-point ``np.linalg.lstsq`` on the same
designs, built here from the normalized fluxes alone.
"""

import numpy as np


def lstsq_expansion(x, rates, j0, s_plus=None):
    """(D2, relative residual) of one point's rates (m, 2, 2) at the
    fluxes x * J0: the linear coefficient pinned to S_plus * I when
    ``s_plus`` is given, with x^2, x^3 and x^4 fitted to the rest, or free,
    with x, x^2 and x^3."""
    flat = rates.reshape(len(x), 4)
    if s_plus is not None:
        linear = np.outer(x, s_plus * j0 * np.eye(2).ravel())
        design = np.stack([x**2, x**3, x**4], axis=-1)
    else:
        linear = np.zeros_like(flat)
        design = np.stack([x, x**2, x**3], axis=-1)
    coeffs, *_ = np.linalg.lstsq(design, flat - linear, rcond=None)
    residual = np.linalg.norm(linear + design @ coeffs - flat)
    quadratic = coeffs[0 if s_plus is not None else 1].reshape(2, 2)
    return 2.0 * quadratic / j0**2, residual / np.linalg.norm(flat)
