"""Closed-form adiabatic theory: stationary probabilities, conditioned cross
sections and diffusion, and the composed effective quantities.

In the adiabatic regime (reaction rates slow compared to the electronic
dissipation) the counting statistics factorize into statistics conditioned on
the chemical state plus a telegraph-noise term.  The telegraph term carries a
factor 2*t_R (second derivative of the two-state eigenvalue; equivalently the
stationary variance of a time-integrated telegraph signal).
The closed forms (the weak-field method) are one expression for both
chemical states, on a leading state axis (A, B), and elementwise in the fields
of points stacked by ``params.stack``: vectors and matrices gain last axes.
A flux array J broadcasts over the point axes the same way: its axes beyond
the points' go after the state axis, so a (21, 1, 1) J at one point gives
(21, 1, 1, 2, 2) rates, and each entry's bytes are those of its scalar J.
"""

from __future__ import annotations

import warnings

import numpy as np

from .errors import FitResidualExceeded, raise_first
from .fcs import (DiffusionExpansion, cumulants, detector_rate,
                  dominant_eigenvalue)
from .liouvillian import UNIT_DECAY, generator_derivatives, two_sided
from .params import ModelParams, coefficient, power

ADIABATIC_GATE = 0.1   # warn when (r_A + r_B) / gamma exceeds this

_EYE = np.eye(2)
_SIGNS = np.array([-1.0, 1.0])  # a + b * _SIGNS is (a - b, a + b), exactly


def stationary_probabilities(params: ModelParams):
    mol = params.molecule
    total = mol.rate_a + mol.rate_b
    return mol.rate_a / total, mol.rate_b / total


def reaction_time(params: ModelParams) -> float:
    mol = params.molecule
    return 1.0 / (mol.rate_a + mol.rate_b)


def _constants(params: ModelParams):
    """(Rabi frequency, detuning, beta^2, decay rate) of states A and B on a
    leading axis, as numpy floats, whose squares saturate to inf where
    Python floats would raise OverflowError."""
    mol, der = params.molecule, params.derived
    return np.float64(((der.rabi_a, der.rabi_b),
                       (mol.detuning_a, mol.detuning_b),
                       (der.beta_sq_a, der.beta_sq_b),
                       (mol.decay_gamma, mol.decay_gamma)))


def _index(state: str) -> int:
    """The position of a chemical state on the state axis."""
    if state not in ("A", "B"):
        raise ValueError(f"unknown chemical state {state!r}")
    return "AB".index(state)


def warn_if_nonadiabatic(params):
    mol = params.molecule
    for _ in range(np.count_nonzero(
            mol.rate_a + mol.rate_b > ADIABATIC_GATE * mol.decay_gamma)):
        warnings.warn("adiabatic factorization unreliable: "
                      "rate_a + rate_b > gamma/10", stacklevel=3)


# ---------------------------------------------------------------------------
# conditioned quantities
# ---------------------------------------------------------------------------

def _cross_sections(constants):
    """(S_plus, S_minus) in m^2 from the states' ``_constants``,
    weak-field Lorentzian forms."""
    _, eps, beta_sq, gamma = constants
    denom = 4.0 * power(eps, 2) + power(gamma, 2)
    return 0.5 * gamma * beta_sq / denom, eps * beta_sq / denom


def conditioned_cross_sections(params: ModelParams, state: str):
    """(S_plus|state, S_minus|state) in m^2, weak-field Lorentzian forms."""
    return _cross_sections(_constants(params)[:, _index(state)])


def _curvature_weak_field(constants, x):
    """Second-derivative matrices of the conditioned eigenvalues, from the
    states' ``_constants``, at the flux x = J/J0, to leading order in the
    drive (counting order, 1/s), from the characteristic polynomial of the
    conditioned tilted generator."""
    rabi, eps, _, gamma = constants
    w = power(rabi, 2) * x
    u = (gamma / 8.0)[..., None] + (eps / 4.0)[..., None] * _SIGNS
    eps_sq, w_sq = power(eps, 2), power(w, 2)
    a1 = eps_sq + power(gamma, 2) / 4.0
    a2 = eps_sq / gamma + 1.25 * gamma
    return (coefficient(gamma * w / (8.0 * a1)) * _EYE
            - coefficient(2.0 * a2 * w_sq / power(a1, 3))
            * (u[..., :, None] * u[..., None, :])
            + coefficient(w_sq / (4.0 * power(a1, 2)))
            * (u[..., :, None] + u[..., None, :]))


def _conditioned_model(params, state, J):
    """The state's driven two-level block at flux J and its decay.  Its
    builds take no point axes, so a stack of points raises ValueError."""
    if any(np.ndim(value) for value in vars(params.molecule).values()):
        raise ValueError('method="exact" takes one point, not a stack of '
                         'points; stacks take method="weak_field"')
    rabi, eps, _, gamma = _constants(params)[:, _index(state)]
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


def _statistics(params, J, method, states=slice(None)):
    """(c1, curvature) of states A and B at flux J on a leading state axis,
    or of the ``states`` slice of them (counting order, 1/s), by ``method``:
    "exact" from one solve of each state's conditioned generator,
    "weak_field" to leading order in the drive, c1 as J times the
    Lorentzian channels (S_plus - S_minus) / 2 and (S_plus + S_minus) / 2.
    This is the one place an unknown ``method`` raises ``ValueError``."""
    if method == "exact":
        c1, c2 = zip(*(_conditioned_cumulants(params, state, J)
                       for state in "AB"[states]))
        return np.stack(c1), np.stack(c2)
    if method == "weak_field":
        constants = _constants(params)
        # J's axes beyond the points' go after the state axis
        extra = max(0, np.ndim(J) - (constants.ndim - 2))
        constants = np.expand_dims(constants, tuple(range(2, 2 + extra)))
        s_plus, s_minus = _cross_sections(constants)
        # (S_plus - S_minus) / 2 and (S_plus + S_minus) / 2
        c1 = np.asarray(J)[..., None] * (
            (s_plus[..., None] + s_minus[..., None] * _SIGNS) / 2.0)
        curvature = _curvature_weak_field(
            constants, J / params.derived.photon_flux_j0)
        return c1[states], curvature[states]
    raise ValueError(f"unknown method {method!r}")


def conditioned_rate(params: ModelParams, state: str, J: float,
                     method: str = "exact") -> np.ndarray:
    """Per-molecule conditioned second-cumulant rate (detector order, 1/s)."""
    i = _index(state)
    c1, curvature = _statistics(params, J, method, slice(i, i + 1))
    return detector_rate(curvature[0], c1[0, ..., 0] + c1[0, ..., 1])


# ---------------------------------------------------------------------------
# composition across chemical states
# ---------------------------------------------------------------------------

def effective_cross_sections(params: ModelParams):
    """(S_plus, S_minus): stationary-probability weighted cross sections."""
    p_a, p_b = stationary_probabilities(params)
    s_plus, s_minus = _cross_sections(_constants(params))
    return (p_a * s_plus[0] + p_b * s_plus[1],
            p_a * s_minus[0] + p_b * s_minus[1])


def _telegraph_term(params, c1):
    """2 t_R p_A p_B dS dS^T (detector order) from the first cumulants
    ``c1`` of states A and B."""
    p_a, p_b = stationary_probabilities(params)
    t_r = reaction_time(params)
    delta = c1[0][..., ::-1] - c1[1][..., ::-1]
    return (coefficient(2.0 * t_r * p_a * p_b)
            * (delta[..., :, None] * delta[..., None, :]))


def chemical_rate_term(params: ModelParams, J: float,
                       method: str = "exact") -> np.ndarray:
    """Telegraph contribution to the per-molecule rate: 2 t_R p_A p_B dS dS^T."""
    return _telegraph_term(params, _statistics(params, J, method)[0])


def adiabatic_rate(params: ModelParams, J: float,
                   method: str = "exact") -> np.ndarray:
    """Per-molecule diffusion rate composed from conditioned statistics plus
    the telegraph term (detector order, 1/s)."""
    p_a, p_b = stationary_probabilities(params)
    c1, curvature = _statistics(params, J, method)
    rates = detector_rate(curvature, c1[..., 0] + c1[..., 1])
    return (coefficient(p_a) * rates[0] + coefficient(p_b) * rates[1]
            + _telegraph_term(params, c1))


def weak_field_expansion(params: ModelParams):
    """(S_plus, S_minus, DiffusionExpansion) of the composition in closed
    form: the weak-field rate is exactly D1*J + (1/2)*D2*J^2, D1 = S_plus*I,
    so D2 follows from the rate at J0 and nothing is fitted."""
    warn_if_nonadiabatic(params)
    s_plus, s_minus = effective_cross_sections(params)
    j0 = params.derived.photon_flux_j0
    d1 = coefficient(s_plus) * _EYE
    d2 = 2.0 * (adiabatic_rate(params, j0, method="weak_field")
                - coefficient(j0) * d1) / coefficient(power(j0, 2))
    raise_first((~np.isfinite(s_minus) | ~np.isfinite(d2).all(axis=(-2, -1)),
                 FitResidualExceeded, "weak-field expansion is not finite"))
    return s_plus, s_minus, DiffusionExpansion(D1=d1, D2=d2, fit_residual=0.0)
