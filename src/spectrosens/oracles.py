"""Independent verification engines: direct quadrature of the covariance
transport integral, Monte-Carlo simulation of the chemical telegraph noise,
and a finite-difference derivative baseline.

These deliberately avoid the code paths they check: the quadrature does not
use the closed-form covariance, the telegraph sampler does not use eigenvalue
derivatives, and the stencil differentiates the pipeline as a black box.
All three need numpy alone: the quadrature is QUADPACK's adaptive
Gauss-Kronrod (10, 21) scheme, written out here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .adiabatic import (chemical_rate_term, conditioned_cross_sections,
                        reaction_time, stationary_probabilities)
from .errors import (InsufficientStatistics, QuadratureNotConverged,
                     StencilUnstable)
from .params import ModelParams
from .propagation import _check_depth


# ---------------------------------------------------------------------------
# covariance transport quadrature
# ---------------------------------------------------------------------------

QUADRATURE_RTOL = 1e-9
# the most subintervals the adaptive rule may hold before it gives up
QUADRATURE_MAX_INTERVALS = 200

# Gauss-Kronrod (10, 21) rule on [-1, 1], QUADPACK's dqk21 (Piessens et
# al., QUADPACK, Springer 1983): the 11 non-negative Kronrod nodes from the
# outermost in, their Kronrod weights, and the 10-point Gauss weights of
# every second node, 0.9739... to 0.1488...
_KRONROD_NODES = (0.995657163025808080735527280689003,
                  0.973906528517171720077964012084452,
                  0.930157491355708226001207180059508,
                  0.865063366688984510732096688423493,
                  0.780817726586416897063717578345042,
                  0.679409568299024406234327365114874,
                  0.562757134668604683339000099272694,
                  0.433395394129247190799265943165784,
                  0.294392862701460198131126603103866,
                  0.148874338981631210884826001129720,
                  0.0)
_KRONROD_WEIGHTS = (0.011694638867371874278064396062192,
                    0.032558162307964727478818972459390,
                    0.054755896574351996031381300244580,
                    0.075039674810919952767043140916190,
                    0.093125454583697605535065465083366,
                    0.109387158802297641899210590325805,
                    0.123491976262065851077958109831074,
                    0.134709217311473325928054001771707,
                    0.142775938577060080797094273138717,
                    0.147739104901338491374841515972068,
                    0.149445554002916905664936468389821)
_GAUSS_WEIGHTS = (0.066671344308688137593568809893332,
                  0.149451349150580593145776339657697,
                  0.219086362515982043995534934228163,
                  0.269266719309996355091226921569469,
                  0.295524224714752870173892994651338)

# the 21 nodes from -1 to 1 and the weights of both rules on them; the
# Gauss rule gives the Kronrod-only nodes weight 0
GK21_NODES = np.concatenate([-np.array(_KRONROD_NODES),
                             _KRONROD_NODES[-2::-1]])
GK21_KRONROD_WEIGHTS = np.concatenate([_KRONROD_WEIGHTS,
                                       _KRONROD_WEIGHTS[-2::-1]])
GK21_GAUSS_WEIGHTS = np.zeros(21)
GK21_GAUSS_WEIGHTS[1::2] = _GAUSS_WEIGHTS + _GAUSS_WEIGHTS[::-1]


def _gk21(integrand, a: float, b: float):
    """The 21-point Kronrod value of the integral over [a, b] and its error
    estimate, the largest entry of |K21 - G10|."""
    center, half = 0.5 * (a + b), 0.5 * (b - a)
    values = np.array([integrand(center + half * x)
                       for x in GK21_NODES.tolist()])
    kronrod = half * np.tensordot(GK21_KRONROD_WEIGHTS, values, axes=1)
    gauss = half * np.tensordot(GK21_GAUSS_WEIGHTS, values, axes=1)
    return kronrod, float(np.max(np.abs(kronrod - gauss)))


def quadrature_covariance(params: ModelParams, rate_fn, s_plus: float,
                          z: float) -> np.ndarray:
    """Covariance at depth z by adaptive quadrature of the transport integral.

    ``rate_fn(J) -> 2x2`` is the per-molecule diffusion rate (1/s), called
    with one scalar J at a time.  The integrand is the rate at the locally
    attenuated flux, damped by the remaining two-pass attenuation, with line
    density rho_M * A * tau applied.  The Gauss-Kronrod (10, 21) rule runs
    on [0, z] and bisects the subinterval of largest error estimate until
    the summed estimates are at most ``QUADRATURE_RTOL`` times the largest
    entry of the integral; a non-finite value or more than
    ``QUADRATURE_MAX_INTERVALS`` subintervals raise QuadratureNotConverged.
    """
    _check_depth(z)
    der, sample, laser = params.derived, params.sample, params.laser
    rho, n_p0, j0 = sample.density_rho_m, der.n_p0, der.photon_flux_j0
    line_density = rho * der.beam_area * laser.measurement_time

    def integrand(z_prime):
        j_local = j0 * np.exp(-rho * s_plus * z_prime)
        damping = np.exp(-2.0 * rho * s_plus * (z - z_prime))
        return damping * line_density * np.asarray(rate_fn(j_local))

    intervals = [(0.0, z, *_gk21(integrand, 0.0, z))]
    while True:
        result = sum(value for _, _, value, _ in intervals)
        error = sum(estimate for *_, estimate in intervals)
        if not (np.all(np.isfinite(result)) and math.isfinite(error)):
            raise QuadratureNotConverged("non-finite integrand or integral")
        if error <= QUADRATURE_RTOL * np.max(np.abs(result)):
            break
        if len(intervals) == QUADRATURE_MAX_INTERVALS:
            raise QuadratureNotConverged(
                f"quadrature error {error:.2e} above tolerance after "
                f"{QUADRATURE_MAX_INTERVALS} subintervals")
        a, b, _, _ = intervals.pop(max(range(len(intervals)),
                                       key=lambda i: intervals[i][3]))
        middle = 0.5 * (a + b)
        intervals += [(a, middle, *_gk21(integrand, a, middle)),
                      (middle, b, *_gk21(integrand, middle, b))]
    return n_p0 * np.exp(-2.0 * rho * s_plus * z) * np.eye(2) + result


# ---------------------------------------------------------------------------
# telegraph Monte Carlo
# ---------------------------------------------------------------------------

def _is_integer(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


@dataclass(frozen=True)
class McConfig:
    n_trajectories: int = 10_000
    seed: int = 0
    dt: float | None = None      # s; checked only, the sampler has no step
    horizon: float | None = None  # s; defaults to 50 * t_R

    def resolve(self, t_r: float):
        dt = 0.01 * t_r if self.dt is None else self.dt
        horizon = 50.0 * t_r if self.horizon is None else self.horizon
        # a float or bool seed would alias an integer seed's streams; int()
        # keeps numpy integers out of numpy's mixed-type comparison
        if not _is_integer(self.seed) or not 0 <= int(self.seed) < 2**64:
            raise ValueError("seed must be an integer in [0, 2**64)")
        if not _is_integer(self.n_trajectories):
            raise ValueError("n_trajectories must be an integer")
        if self.n_trajectories < 1_000:
            raise ValueError("n_trajectories must be at least 1000")
        if dt > 0.01 * t_r:
            raise ValueError("dt must not exceed 0.01 * t_R")
        if not (math.isfinite(horizon) and horizon >= 10.0 * t_r):
            raise ValueError("horizon must be finite and at least 10 * t_R")
        return dt, horizon


# trajectories sampled per block of arrays, and the margin of a trajectory's
# block of waiting times over its expected number of jumps m: the block holds
# ceil(m + MC_BLOCK_MARGIN * (sqrt(m) + 1)) draws.  At the default horizon
# a margin of 4 leaves about 1 trajectory in 10^5 to be drawn again, a
# margin of 3 about 1 in 1600.
MC_CHUNK = 2048
MC_BLOCK_MARGIN = 4


def _mean_stay(rate_out: float) -> float:
    """Mean dwell time (s) in a state left at ``rate_out``; a state that is
    never left has an infinite stay."""
    return 1.0 / rate_out if rate_out > 0 else np.inf


def _block_occupancy(in_a, draws, stay_a, stay_b, horizon):
    """Time in state A over [0, horizon] of trajectories given their initial
    states and rows of standard exponential draws, and which rows ran out of
    draws before the horizon.

    Column j of a row is the j-th stay: in A at even j if the row starts in
    A, at odd j if it starts in B, and as long as its draw times the mean
    stay of that state.  The per-jump loop runs over the columns for all
    rows at once: a row takes the segment ``min(stay, horizon - t)`` while
    its clock t is below the horizon and none after, so the clock and the
    occupancy are summed in the loop's order, bit for bit, including where
    ``t + (horizon - t)`` rounds below the horizon and the loop takes one
    more segment.  The loop stops once no row's clock is below the
    horizon, so the columns left over are never read.
    """
    n, width = draws.shape
    stays = np.empty((width, n))
    np.multiply(draws.T[0::2], np.where(in_a, stay_a, stay_b),
                out=stays[0::2])
    np.multiply(draws.T[1::2], np.where(in_a, stay_b, stay_a),
                out=stays[1::2])
    clock = np.zeros(n)
    occupancy = np.zeros((2, n))        # sums of the even and odd segments
    segment = np.empty(n)
    for j, stay in enumerate(stays):
        if clock.min() >= horizon:
            break
        # the stay in a state that is never left is inf, or NaN where its
        # draw is 0, and fmin takes horizon - t for both; past the horizon
        # the segment is 0
        np.subtract(horizon, clock, out=segment)
        np.fmin(stay, segment, out=segment)
        np.maximum(segment, 0.0, out=segment)
        clock += segment
        occupancy[j % 2] += segment
    return np.where(in_a, occupancy[0], occupancy[1]), clock < horizon


def _occupancy_times(seed, n, p_a, rate_a, rate_b, horizon):
    """Time spent in state A over [0, horizon] by telegraph trajectories
    0 .. n-1.

    Trajectory i draws from a Philox stream keyed by (seed, i): one uniform
    for its initial state, then exact exponential waiting times.  Leaving A
    happens at rate r_B (transfer into B) and vice versa.  Because the
    conditioned fluxes are constant within a chemical state, occupancy times
    integrate the flux between jumps exactly (no discretization step
    enters).  Each trajectory takes its waiting times in one block of draws;
    a block that ends before the horizon is drawn again twice as long, which
    extends the same stream, so the margin of the block sets only how often
    that happens, never the result.  One generator serves all trajectories:
    setting the key into its fresh state gives the stream of a new
    generator.  The fresh state holds plain lists, which the state setter
    reads faster than arrays.
    """
    stay_a, stay_b = _mean_stay(rate_b), _mean_stay(rate_a)
    jumps = 2.0 * horizon / (stay_a + stay_b)
    width = max(1, math.ceil(jumps
                             + MC_BLOCK_MARGIN * (math.sqrt(jumps) + 1)))

    bit_generator = np.random.Philox(key=np.array([seed, 0], dtype=np.uint64))
    rng = np.random.Generator(bit_generator)
    random, exponentials = rng.random, rng.standard_exponential
    state = bit_generator.state
    fresh = {**state, "buffer": state["buffer"].tolist(),
             "state": {name: value.tolist()
                       for name, value in state["state"].items()}}
    key = fresh["state"]["key"]
    times = np.empty(n)
    for start in range(0, n, MC_CHUNK):
        rows, k = np.arange(start, min(start + MC_CHUNK, n)), width
        while rows.size:
            uniforms = []
            draws = np.empty((rows.size, k))
            for i, row in zip(rows.tolist(), draws):
                key[1] = i
                bit_generator.state = fresh
                uniforms.append(random())
                exponentials(out=row)
            times[rows], short = _block_occupancy(
                np.array(uniforms) < p_a, draws, stay_a, stay_b, horizon)
            rows, k = rows[short], 2 * k
    return times


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
    time_a = _occupancy_times(mc.seed, n, p_a, mol.rate_a, mol.rate_b,
                              horizon)[:, None]
    samples = flux_a * time_a + flux_b * (horizon - time_a)

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

# first step relative to |rho|, how often it may be halved, and the relative
# agreement between steps h and h/2 that ends the halving
FD_INITIAL_STEP = 1e-3
FD_MAX_HALVINGS = 6
FD_RTOL = 1e-7


def fd_pipeline_derivative(f, rho: float):
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
        if error <= FD_RTOL * scale:
            return current, error
        previous = current
    raise StencilUnstable(
        f"stencil did not stabilize to rtol={FD_RTOL:g} after "
        f"{FD_MAX_HALVINGS} halvings (last error {error:.3e})")
