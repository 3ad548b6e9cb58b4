"""Closed-form adiabatic theory: stationary probabilities, conditioned cross
sections and diffusion, and the composed effective quantities.

In the adiabatic regime (reaction rates slow compared to the electronic
dissipation) the counting statistics factorize into statistics conditioned on
the chemical state plus a telegraph-noise term.  The telegraph term carries a
factor 2*t_R (second derivative of the two-state eigenvalue; equivalently the
stationary variance of a time-integrated telegraph signal).
"""

from __future__ import annotations

import warnings

import numpy as np

from .errors import FitResidualExceeded
from .fcs import (DiffusionExpansion, cumulants, detector_rate,
                  dominant_eigenvalue)
from .liouvillian import UNIT_DECAY, generator_derivatives, two_sided
from .params import ModelParams

ADIABATIC_GATE = 0.1   # warn when (r_A + r_B) / gamma exceeds this


def stationary_probabilities(params: ModelParams):
    mol = params.molecule
    total = mol.rate_a + mol.rate_b
    return mol.rate_a / total, mol.rate_b / total


def reaction_time(params: ModelParams) -> float:
    mol = params.molecule
    return 1.0 / (mol.rate_a + mol.rate_b)


def _state_constants(params: ModelParams, state: str):
    """(Rabi frequency, detuning, beta^2, decay rate) of the state as numpy
    floats, whose squares saturate to inf where Python floats would raise
    OverflowError."""
    mol, der = params.molecule, params.derived
    if state == "A":
        constants = der.rabi_a, mol.detuning_a, der.beta_sq_a
    elif state == "B":
        constants = der.rabi_b, mol.detuning_b, der.beta_sq_b
    else:
        raise ValueError(f"unknown chemical state {state!r}")
    return np.float64((*constants, mol.decay_gamma))


def warn_if_nonadiabatic(params):
    mol = params.molecule
    if mol.rate_a + mol.rate_b > ADIABATIC_GATE * mol.decay_gamma:
        warnings.warn("adiabatic factorization unreliable: "
                      "rate_a + rate_b > gamma/10", stacklevel=3)


# ---------------------------------------------------------------------------
# conditioned quantities
# ---------------------------------------------------------------------------

def conditioned_cross_sections(params: ModelParams, state: str):
    """(S_plus|state, S_minus|state) in m^2, weak-field Lorentzian forms."""
    _, eps, beta_sq, gamma = _state_constants(params, state)
    denom = 4.0 * eps**2 + gamma**2
    return 0.5 * gamma * beta_sq / denom, eps * beta_sq / denom


def _curvature_weak_field(params, state, J):
    """Second-derivative matrix of the conditioned eigenvalue to leading
    order in the drive (counting order, 1/s), from the characteristic
    polynomial of the conditioned tilted generator."""
    rabi, eps, _, gamma = _state_constants(params, state)
    w = rabi**2 * (J / params.derived.photon_flux_j0)
    u = np.array([gamma / 8.0 - eps / 4.0, gamma / 8.0 + eps / 4.0])
    a1 = eps**2 + gamma**2 / 4.0
    a2 = eps**2 / gamma + 1.25 * gamma
    return (gamma * w / (8.0 * a1) * np.eye(2)
            - 2.0 * a2 * w**2 / a1**3 * np.outer(u, u)
            + w**2 / (4.0 * a1**2) * (u[:, None] + u[None, :]))


def _conditioned_model(params, state, J):
    """The state's driven two-level block at flux J and its decay."""
    rabi, eps, _, gamma = _state_constants(params, state)
    scale = np.sqrt(J / params.derived.photon_flux_j0)
    return ((eps, rabi * scale),), gamma * UNIT_DECAY


def conditioned_cgf(params: ModelParams, state: str, s1, s2, J: float):
    """Conditioned cumulant-generating rate K_state(s), elementwise in s."""
    chi = (-1j * np.asarray(s1), -1j * np.asarray(s2))
    matrix = two_sided(*_conditioned_model(params, state, J), chi)
    return dominant_eigenvalue(matrix)[0]


def _conditioned_cumulants(params, state, J):
    """Exact (c1, c2) of the conditioned generator (counting order, 1/s)."""
    model = _conditioned_model(params, state, J)
    return cumulants(*generator_derivatives(*model))


def conditioned_first_cumulants(params: ModelParams, state: str,
                                J: float) -> np.ndarray:
    """Conditioned mean detector fluxes (counting-index order, 1/s)."""
    return _conditioned_cumulants(params, state, J)[0]


def _statistics(params, state, J, method):
    """(c1, curvature) of the state at flux J (counting order, 1/s) by
    ``method``: "exact" from one solve of the conditioned generator,
    "weak_field" to leading order in the drive, c1 as J times the
    Lorentzian channels (S_plus - S_minus) / 2 and (S_plus + S_minus) / 2.
    This is the one place an unknown ``method`` raises ``ValueError``."""
    if method == "exact":
        return _conditioned_cumulants(params, state, J)
    if method == "weak_field":
        s_plus, s_minus = conditioned_cross_sections(params, state)
        c1 = J * np.array([(s_plus - s_minus) / 2.0,
                           (s_plus + s_minus) / 2.0])
        return c1, _curvature_weak_field(params, state, J)
    raise ValueError(f"unknown method {method!r}")


def conditioned_rate(params: ModelParams, state: str, J: float,
                     method: str = "exact") -> np.ndarray:
    """Per-molecule conditioned second-cumulant rate (detector order, 1/s)."""
    c1, curvature = _statistics(params, state, J, method)
    return detector_rate(curvature, c1[0] + c1[1])


# ---------------------------------------------------------------------------
# composition across chemical states
# ---------------------------------------------------------------------------

def effective_cross_sections(params: ModelParams):
    """(S_plus, S_minus): stationary-probability weighted cross sections."""
    p_a, p_b = stationary_probabilities(params)
    sa = conditioned_cross_sections(params, "A")
    sb = conditioned_cross_sections(params, "B")
    return (p_a * sa[0] + p_b * sb[0], p_a * sa[1] + p_b * sb[1])


def _telegraph_term(params, c1):
    """2 t_R p_A p_B dS dS^T (detector order) from the first cumulants
    ``c1`` of states A and B."""
    p_a, p_b = stationary_probabilities(params)
    t_r = reaction_time(params)
    delta = c1[0][::-1] - c1[1][::-1]
    return 2.0 * t_r * p_a * p_b * np.outer(delta, delta)


def chemical_rate_term(params: ModelParams, J: float,
                       method: str = "exact") -> np.ndarray:
    """Telegraph contribution to the per-molecule rate: 2 t_R p_A p_B dS dS^T."""
    c1 = [_statistics(params, state, J, method)[0] for state in "AB"]
    return _telegraph_term(params, c1)


def adiabatic_rate(params: ModelParams, J: float,
                   method: str = "exact") -> np.ndarray:
    """Per-molecule diffusion rate composed from conditioned statistics plus
    the telegraph term (detector order, 1/s)."""
    p_a, p_b = stationary_probabilities(params)
    (c1_a, curvature_a), (c1_b, curvature_b) = (
        _statistics(params, state, J, method) for state in "AB")
    return (p_a * detector_rate(curvature_a, c1_a[0] + c1_a[1])
            + p_b * detector_rate(curvature_b, c1_b[0] + c1_b[1])
            + _telegraph_term(params, (c1_a, c1_b)))


def weak_field_expansion(params: ModelParams):
    """(S_plus, S_minus, DiffusionExpansion) of the composition in closed
    form: the weak-field rate is exactly D1*J + (1/2)*D2*J^2, D1 = S_plus*I,
    so D2 follows from the rate at J0 and nothing is fitted."""
    warn_if_nonadiabatic(params)
    s_plus, s_minus = effective_cross_sections(params)
    j0 = params.derived.photon_flux_j0
    d1 = s_plus * np.eye(2)
    d2 = 2.0 * (adiabatic_rate(params, j0, method="weak_field")
                - j0 * d1) / j0**2
    if not (np.isfinite(s_minus) and np.all(np.isfinite(d2))):
        raise FitResidualExceeded("weak-field expansion is not finite")
    return s_plus, s_minus, DiffusionExpansion(D1=d1, D2=d2, fit_residual=0.0)
