"""Reference finite-time counting statistics from the tilted propagator.

The package takes every cumulant from the dominant eigenvalue or bordered
solves; this matrix exponential, started in the stationary state, is the
independent check that the long-time CGF per unit time converges to that
eigenvalue.
"""

import numpy as np
import scipy.linalg

from spectrosens.liouvillian import bordered, build_two_sided, trace_vector


def stationary_state(matrix):
    """Vectorized stationary density matrix of the chi=0 generator: the
    solution of L rho = 0 with unit trace, from the bordered system."""
    n = matrix.shape[-1]
    system = bordered(matrix, trace_vector(n))
    return np.linalg.solve(system, np.append(np.zeros(n), 1.0))[:n]


def cgf_finite_time(params, chi, tau):
    """Finite-time cumulant-generating function at the counting-field pair
    ``chi`` from the tilted propagator, started in the stationary state of
    the untilted generator."""
    rho_ss = stationary_state(build_two_sided(params, (0.0, 0.0)))
    propagated = scipy.linalg.expm(build_two_sided(params, chi) * tau) @ rho_ss
    value = trace_vector() @ propagated
    assert np.isfinite(value), "matrix exponential overflowed"
    return complex(np.log(value))
