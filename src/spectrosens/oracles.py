"""Independent verification engines: direct quadrature of the covariance
transport integral, Monte-Carlo simulation of the chemical telegraph noise,
a finite-difference derivative baseline, and the finite-time
cumulant-generating function from the tilted propagator.

These deliberately avoid the code paths they check: the quadrature does not
use the closed-form covariance, the telegraph sampler does not use eigenvalue
derivatives, the stencil differentiates the pipeline as a black box, and the
finite-time CGF takes a matrix exponential instead of the dominant
eigenvalue.  They are the only users of scipy in the package.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.integrate
import scipy.linalg

from .adiabatic import (chemical_rate_term, conditioned_cross_sections,
                        reaction_time, stationary_probabilities)
from .errors import (InsufficientStatistics, PropagationOverflow,
                     QuadratureNotConverged, StencilUnstable)
from .liouvillian import build_two_sided, stationary_state, trace_vector
from .params import ModelParams


# ---------------------------------------------------------------------------
# covariance transport quadrature
# ---------------------------------------------------------------------------

QUADRATURE_RTOL = 1e-9


def quadrature_covariance(params: ModelParams, rate_fn, s_plus: float,
                          z: float) -> np.ndarray:
    """Covariance at depth z by adaptive quadrature of the transport integral.

    ``rate_fn(J) -> 2x2`` is the per-molecule diffusion rate (1/s).  The
    integrand is the rate at the locally attenuated flux, damped by the
    remaining two-pass attenuation, with line density rho_M * A * tau applied.
    """
    der, sample, laser = params.derived, params.sample, params.laser
    rho, n_p0, j0 = sample.density_rho_m, der.n_p0, der.photon_flux_j0
    line_density = rho * der.beam_area * laser.measurement_time

    def integrand(z_prime):
        j_local = j0 * np.exp(-rho * s_plus * z_prime)
        damping = np.exp(-2.0 * rho * s_plus * (z - z_prime))
        return damping * line_density * np.asarray(rate_fn(j_local))

    result, error = scipy.integrate.quad_vec(integrand, 0.0, z,
                                             epsrel=QUADRATURE_RTOL,
                                             epsabs=0.0)
    scale = np.max(np.abs(result))
    if scale > 0 and np.max(np.abs(error)) > 10.0 * QUADRATURE_RTOL * scale:
        raise QuadratureNotConverged(
            f"quadrature error {np.max(np.abs(error)):.2e} above tolerance")
    return n_p0 * np.exp(-2.0 * rho * s_plus * z) * np.eye(2) + result


# ---------------------------------------------------------------------------
# telegraph Monte Carlo
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class McConfig:
    n_trajectories: int = 10_000
    seed: int = 0
    dt: float | None = None      # s; defaults to 0.01 * t_R
    horizon: float | None = None  # s; defaults to 50 * t_R

    def resolve(self, t_r: float):
        dt = 0.01 * t_r if self.dt is None else self.dt
        horizon = 50.0 * t_r if self.horizon is None else self.horizon
        if self.n_trajectories < 1_000:
            raise ValueError("n_trajectories must be at least 1000")
        if dt > 0.01 * t_r:
            raise ValueError("dt must not exceed 0.01 * t_R")
        if horizon < 10.0 * t_r:
            raise ValueError("horizon must be at least 10 * t_R")
        return dt, horizon


def _occupancy_time(rng, p_a, rate_a, rate_b, horizon):
    """Time spent in state A over [0, horizon] of one telegraph trajectory.

    Waiting times are exact exponentials; because the conditioned fluxes are
    constant within a chemical state, occupancy times integrate the flux
    between jumps exactly (no discretization step enters).
    """
    in_a = rng.random() < p_a
    t, time_a = 0.0, 0.0
    while t < horizon:
        # leaving A happens at rate r_B (transfer into B) and vice versa
        rate_out = rate_b if in_a else rate_a
        stay = rng.exponential(1.0 / rate_out) if rate_out > 0 else np.inf
        segment = min(stay, horizon - t)
        if in_a:
            time_a += segment
        t += segment
        in_a = not in_a
    return time_a


def telegraph_mc_diffusion(params: ModelParams, mc: McConfig):
    """Chemical contribution to the per-molecule diffusion rate at the
    reference flux J0, by direct simulation of the two-state jump process.

    Returns ``(rate, stderr)``: the 2x2 sample covariance of the
    time-integrated per-detector fluxes divided by the horizon, and its
    jackknife standard error.  For fixed seed the output is bit-reproducible
    and independent of scheduling, because each trajectory uses a
    counter-based generator keyed by (seed, trajectory index).
    """
    mol, J = params.molecule, params.derived.photon_flux_j0
    t_r = reaction_time(params)
    _, horizon = mc.resolve(t_r)
    p_a, _ = stationary_probabilities(params)

    s_a = np.array(conditioned_cross_sections(params, "A"))
    s_b = np.array(conditioned_cross_sections(params, "B"))
    # detector-channel fluxes (1/s) conditioned on the chemical state
    flux_a = J * np.array([(s_a[0] + s_a[1]) / 2, (s_a[0] - s_a[1]) / 2])
    flux_b = J * np.array([(s_b[0] + s_b[1]) / 2, (s_b[0] - s_b[1]) / 2])

    n = mc.n_trajectories
    samples = np.empty((n, 2))
    for i in range(n):
        rng = np.random.Generator(
            np.random.Philox(key=np.array([mc.seed, i], dtype=np.uint64)))
        time_a = _occupancy_time(rng, p_a, mol.rate_a, mol.rate_b, horizon)
        samples[i] = flux_a * time_a + flux_b * (horizon - time_a)

    mean = samples.mean(axis=0)
    centered = samples - mean
    cov = centered.T @ centered / (n - 1)
    rate = cov / horizon

    # jackknife over trajectories
    sum_x = samples.sum(axis=0)
    sum_xx = np.einsum("ni,nj->ij", samples, samples)
    s1 = sum_x - samples
    s2 = sum_xx - samples[:, :, None] * samples[:, None, :]
    m = s1 / (n - 1)
    loo = (s2 - (n - 1) * (m[:, :, None] * m[:, None, :])) / (n - 2)
    loo /= horizon
    stderr = np.sqrt((n - 1) / n * np.sum((loo - loo.mean(axis=0)) ** 2,
                                          axis=0))

    analytic = chemical_rate_term(params, J, method="weak_field")
    scale = np.max(np.abs(analytic))
    if scale > 0 and np.max(stderr) > 0.1 * scale:
        raise InsufficientStatistics(
            f"standard error {np.max(stderr):.3e} exceeds 10% of the "
            f"analytic chemical term {scale:.3e}")
    return rate, stderr


# ---------------------------------------------------------------------------
# finite-difference baseline
# ---------------------------------------------------------------------------

# first step relative to |rho|, and how often it may be halved
FD_INITIAL_STEP = 1e-3
FD_MAX_HALVINGS = 6


def fd_pipeline_derivative(f, rho: float, rtol: float = 1e-7):
    """Derivative of a scalar function of the density by a five-point central
    stencil, with the step chosen by Richardson agreement between h and h/2.

    Returns ``(derivative, error_estimate)``.
    """
    h = FD_INITIAL_STEP * abs(rho)
    if not h > 0:
        raise ValueError("initial step must be positive (rho must be nonzero)")

    def stencil(h):
        return (-f(rho + 2 * h) + 8 * f(rho + h)
                - 8 * f(rho - h) + f(rho - 2 * h)) / (12 * h)

    previous = stencil(h)
    for _ in range(FD_MAX_HALVINGS):
        h /= 2
        current = stencil(h)
        error = abs(current - previous)
        scale = max(abs(current), abs(previous))
        if scale == 0.0:
            return 0.0, error
        if error <= rtol * scale:
            return current, error
        previous = current
    raise StencilUnstable(
        f"stencil did not stabilize to rtol={rtol:g} after "
        f"{FD_MAX_HALVINGS} halvings (last error {error:.3e})")


# ---------------------------------------------------------------------------
# finite-time cumulant-generating function
# ---------------------------------------------------------------------------

def cgf_finite_time(params: ModelParams, chi, tau: float) -> complex:
    """Finite-time cumulant-generating function at the counting-field pair
    ``chi`` from the tilted propagator, started in the stationary state of
    the untilted generator."""
    if not tau > 0:
        raise ValueError("tau must be positive")
    rho_ss = stationary_state(build_two_sided(params, (0.0, 0.0)))
    propagated = scipy.linalg.expm(build_two_sided(params, chi) * tau) @ rho_ss
    value = trace_vector() @ propagated
    if not np.isfinite(value):
        raise PropagationOverflow("matrix exponential overflowed")
    return complex(np.log(value))
