"""Closed-form adiabatic theory: stationary probabilities, conditioned cross
sections and diffusion, the two-state dominant eigenvalue, and the composed
effective quantities.

In the adiabatic regime (reaction rates slow compared to the electronic
dissipation) the counting statistics factorize into statistics conditioned on
the chemical state plus a telegraph-noise term.  The telegraph term carries a
factor 2*t_R (second derivative of the two-state eigenvalue; equivalently the
stationary variance of a time-integrated telegraph signal).
"""

from __future__ import annotations

import warnings

import numpy as np

from .errors import BranchAmbiguous
from .fcs import (CROSS_SECTION_FLUX_FRACTION, detector_rate, gradient,
                  hessian, richardson)
from .liouvillian import block_hamiltonian, commutator, decay_dissipator
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
    mol, der = params.molecule, params.derived
    if state == "A":
        return der.rabi_a, mol.detuning_a, der.beta_sq_a
    if state == "B":
        return der.rabi_b, mol.detuning_b, der.beta_sq_b
    raise ValueError(f"unknown chemical state {state!r}")


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
    _, eps, beta_sq = _state_constants(params, state)
    gamma = params.molecule.decay_gamma
    denom = 4.0 * eps**2 + gamma**2
    return 0.5 * gamma * beta_sq / denom, eps * beta_sq / denom


def _detector_components(s_plus, s_minus):
    """Split S_pm into per-detector channels (detector order)."""
    return np.array([(s_plus + s_minus) / 2.0, (s_plus - s_minus) / 2.0])


def weak_field_coefficients(params: ModelParams, state: str, J: float):
    """The eight characteristic-polynomial coefficients of the conditioned
    tilted generator, to leading order in the drive (counting-index order)."""
    rabi, eps, _ = _state_constants(params, state)
    gamma = params.molecule.decay_gamma
    om_sq = rabi**2 * (J / params.derived.photon_flux_j0)
    a0_k = {1: -1j * (gamma / 8.0 - eps / 4.0) * om_sq,
            2: -1j * (gamma / 8.0 + eps / 4.0) * om_sq}
    a0_kl = {(1, 1): gamma * om_sq / 8.0, (2, 2): gamma * om_sq / 8.0,
             (1, 2): 0.0, (2, 1): 0.0}
    a1 = eps**2 + gamma**2 / 4.0
    a1_k = {1: -1j * om_sq / 4.0, 2: -1j * om_sq / 4.0}
    a2 = eps**2 / gamma + 1.25 * gamma
    return a0_k, a0_kl, a1, a1_k, a2


def _curvature_weak_field(params, state, J):
    """Second-derivative matrix of the conditioned eigenvalue from the
    weak-field coefficient table (counting order, 1/s)."""
    a0_k, a0_kl, a1, a1_k, a2 = weak_field_coefficients(params, state, J)
    out = np.zeros((2, 2))
    for k in (1, 2):
        for l in (1, 2):
            value = (a0_kl[(k, l)] / a1
                     + 2.0 * a2 * a0_k[k] * a0_k[l] / a1**3
                     - (a0_k[k] * a1_k[l] + a0_k[l] * a1_k[k]) / a1**2)
            out[k - 1, l - 1] = value.real
    return out


def _conditioned_lambda(rabi, eps, gamma, s1, s2):
    """Dominant eigenvalue of the conditioned (single-state) tilted generator:
    one driven two-level block, vectorized to 4x4, for arrays of tilts."""
    chi = (-1j * np.asarray(s1), -1j * np.asarray(s2))
    blocks = ((eps, rabi),)
    h_left = block_hamiltonian(blocks, (chi[0] / 2.0, chi[1] / 2.0))
    h_right = block_hamiltonian(blocks, (-chi[0] / 2.0, -chi[1] / 2.0))
    matrix = commutator(h_left, h_right) + decay_dissipator(gamma)
    values = np.linalg.eigvals(matrix)
    top = np.argmax(values.real, axis=-1)[..., None]
    return np.take_along_axis(values, top, axis=-1)[..., 0].real


def conditioned_cgf(params: ModelParams, state: str, s1, s2, J: float):
    """Conditioned cumulant-generating rate K_state(s), elementwise in s."""
    rabi, eps, _ = _state_constants(params, state)
    scale = np.sqrt(J / params.derived.photon_flux_j0)
    return _conditioned_lambda(rabi * scale, eps,
                               params.molecule.decay_gamma, s1, s2)


def conditioned_first_cumulants(params: ModelParams, state: str,
                                J: float) -> np.ndarray:
    """Conditioned mean detector fluxes (counting-index order, 1/s)."""
    fun = lambda a, b: conditioned_cgf(params, state, a, b, J)
    return richardson(gradient, fun, 1e-4)[0]


def _curvature_exact(params, state, J):
    fun = lambda a, b: conditioned_cgf(params, state, a, b, J)
    return richardson(hessian, fun, 1e-3)[0]


def _exact_rate(params, state, J, c1):
    """Exact conditioned rate from the state's first cumulants ``c1``."""
    return detector_rate(_curvature_exact(params, state, J), c1[0] + c1[1])


def conditioned_rate(params: ModelParams, state: str, J: float,
                     method: str = "exact") -> np.ndarray:
    """Per-molecule conditioned second-cumulant rate (detector order, 1/s)."""
    if method == "exact":
        return _exact_rate(params, state, J,
                           conditioned_first_cumulants(params, state, J))
    if method != "weak_field":
        raise ValueError(f"unknown method {method!r}")
    s_plus, _ = conditioned_cross_sections(params, state)
    return detector_rate(_curvature_weak_field(params, state, J), s_plus * J)


def reference_expansion_coefficients(params: ModelParams, state: str = "A"):
    """Compact closed-form flux-expansion combinations of the conditioned
    diffusion: (D1_pm, D2_plus, D2_minus); D1 applies to both signs.

    The linear coefficient is exact (D1 = 2 S_plus).  The quadratic forms
    are approximate: against the exact weak-field expansion the sum-channel
    value carries a fixed factor 2 and the difference-channel value deviates
    in a detuning-dependent way (both quantified in the tests); use
    ``conditioned_rate`` for quantitative work."""
    _, eps, beta_sq = _state_constants(params, state)
    gamma = params.molecule.decay_gamma
    denom = 4.0 * eps**2 + gamma**2
    d1 = gamma * beta_sq / denom
    d2_plus = beta_sq**2 * gamma * (8.0 * eps**2 - 6.0 * gamma**2) / denom**3
    d2_minus = (2.0 * beta_sq**2 / (gamma * denom)
                - 8.0 * eps**2 * (4.0 * eps**2 + 5.0 * gamma**2) * beta_sq**2
                / (gamma * denom**3))
    return d1, d2_plus, d2_minus


# ---------------------------------------------------------------------------
# composition across chemical states
# ---------------------------------------------------------------------------

def effective_cross_sections(params: ModelParams):
    """(S_plus, S_minus): stationary-probability weighted cross sections."""
    p_a, p_b = stationary_probabilities(params)
    sa = conditioned_cross_sections(params, "A")
    sb = conditioned_cross_sections(params, "B")
    return (p_a * sa[0] + p_b * sb[0], p_a * sa[1] + p_b * sb[1])


def cross_sections(params: ModelParams):
    """(S1, S2) in m^2 from the stationary-weighted conditioned mean fluxes
    at the linear-response reference flux (detector order); the adiabatic
    counterpart of ``fcs.cross_sections``."""
    warn_if_nonadiabatic(params)
    j_ref = params.derived.photon_flux_j0 * CROSS_SECTION_FLUX_FRACTION
    p_a, p_b = stationary_probabilities(params)
    c1 = (p_a * conditioned_first_cumulants(params, "A", j_ref)
          + p_b * conditioned_first_cumulants(params, "B", j_ref))
    return c1[1] / j_ref, c1[0] / j_ref


def two_state_lambda(k_a: complex, k_b: complex, r_a: float, r_b: float) -> complex:
    """Dominant eigenvalue of the two-state (telegraph-dressed) generator,
    branch continuous to 0 at k_a = k_b = 0."""
    half_sum = 0.5 * (k_a + k_b - r_a - r_b)
    argument = (k_a - k_b + r_a - r_b) ** 2 + 4.0 * r_a * r_b
    root = np.sqrt(complex(argument))
    if root.real < 0:
        root = -root
    if abs(argument) > 0 and root.real <= 1e-12 * abs(root):
        raise BranchAmbiguous("square-root argument on the branch cut")
    value = half_sum + 0.5 * root
    if abs(value.imag) < 1e-12 * max(1.0, abs(value.real)):
        value = complex(value.real, 0.0)
    return value


def _telegraph_term(params, delta):
    """2 t_R p_A p_B delta delta^T of the conditioned flux difference delta."""
    p_a, p_b = stationary_probabilities(params)
    t_r = reaction_time(params)
    return 2.0 * t_r * p_a * p_b * np.outer(delta, delta)


def chemical_rate_term(params: ModelParams, J: float,
                       method: str = "exact") -> np.ndarray:
    """Telegraph contribution to the per-molecule rate: 2 t_R p_A p_B dS dS^T."""
    if method == "exact":
        delta = (conditioned_first_cumulants(params, "A", J)[::-1]
                 - conditioned_first_cumulants(params, "B", J)[::-1])
    else:
        sa = _detector_components(*conditioned_cross_sections(params, "A"))
        sb = _detector_components(*conditioned_cross_sections(params, "B"))
        delta = (sa - sb) * J
    return _telegraph_term(params, delta)


def adiabatic_rate(params: ModelParams, J: float,
                   method: str = "exact") -> np.ndarray:
    """Per-molecule diffusion rate composed from conditioned statistics plus
    the telegraph term (detector order, 1/s)."""
    p_a, p_b = stationary_probabilities(params)
    if method == "exact":
        c1 = [conditioned_first_cumulants(params, state, J) for state in "AB"]
        rates = [_exact_rate(params, s, J, c) for s, c in zip("AB", c1)]
        chemical = _telegraph_term(params, c1[0][::-1] - c1[1][::-1])
    else:
        rates = [conditioned_rate(params, s, J, method=method) for s in "AB"]
        chemical = chemical_rate_term(params, J, method=method)
    return p_a * rates[0] + p_b * rates[1] + chemical
