"""Transport of the probe beam through the sample: mean attenuation and phase
accumulation, the closed-form photon-count covariance, and the
signal-optimal thickness.

The covariance closed form integrates the two-term intensity expansion of the
per-molecule diffusion rate along the attenuated beam exactly; the direct
numerical quadrature of the same integral (see oracles) checks it.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DegenerateAbsorption
from .params import ModelParams

# Below this absorption cross section (m^2) no optimal thickness exists.
ABSORPTION_THRESHOLD = 1e-40

V_PLUS = np.array([1.0, 1.0])
V_MINUS = np.array([1.0, -1.0])


def z_optimal(params: ModelParams, s_plus: float) -> float:
    """Sample thickness maximizing the transmitted signal, 1/(rho_M * S_plus)."""
    if s_plus <= ABSORPTION_THRESHOLD:
        raise DegenerateAbsorption(
            f"absorption cross section {s_plus:.3e} m^2 below threshold")
    return 1.0 / (params.sample.density_rho_m * s_plus)


def _check_depth(z) -> None:
    if not (math.isfinite(z) and z >= 0):
        raise ValueError("z must be finite and non-negative")


def propagate_mean(params: ModelParams, s_plus: float, s_minus: float,
                   z: float):
    """Attenuated mean photon number and accumulated phase at depth z."""
    _check_depth(z)
    rho = params.sample.density_rho_m
    n_p = params.derived.n_p0 * np.exp(-rho * s_plus * z)
    phase = rho * s_minus * z
    return n_p, phase


def covariance_closed_form(params: ModelParams, s_plus: float,
                           D1: np.ndarray, D2: np.ndarray,
                           z: float) -> np.ndarray:
    """Photon-count covariance at depth z from the fitted intensity expansion.

    Input covariance is Poissonian, Sigma_0^2 = n_p0 * identity, and decays
    as att^2, att = exp(-rho S+ z).  The slice at z' adds rho A tau times the
    rate D1 J + (1/2) D2 J^2 at J = J0 exp(-rho S+ z'), damped by
    exp(-2 rho S+ (z - z')).  With n_p0 = J0 A tau, the D1 term integrates to
    n_p0 (D1/S+)(att - att^2), a relaxation toward the attenuated shot level,
    and the D2 term, whose integrand is constant in z', to
    int_0^z e^{-2 rho S+ (z-z')} rho A tau (1/2) D2 J0^2 e^{-2 rho S+ z'} dz'
    = (1/2) att^2 n_p0 J0 rho D2 z.
    """
    _check_depth(z)
    der, sample = params.derived, params.sample
    rho, n_p0, j0 = sample.density_rho_m, der.n_p0, der.photon_flux_j0
    att = np.exp(-rho * s_plus * z)
    identity = np.eye(2)
    sigma2 = n_p0 * att**2 * identity
    sigma2 = sigma2 + n_p0 * (D1 / s_plus) * (att - att**2)
    sigma2 = sigma2 + att**2 * n_p0 * j0 * rho * D2 * z * 0.5
    return sigma2

