"""Independent verification engines: direct quadrature of the covariance
transport integral, Monte-Carlo simulation of the chemical telegraph noise,
and a finite-difference derivative baseline.

These deliberately avoid the code paths they check: the quadrature does not
use the closed-form covariance, the telegraph sampler does not use eigenvalue
derivatives, and the stencil differentiates the pipeline as a black box.
All three need numpy alone and run on the caller's thread: the quadrature
is QUADPACK's adaptive Gauss-Kronrod (10, 21) scheme, written out here, and
the telegraph sampler draws each column of waiting times when its loop
reaches it, for the trajectories of a chunk's working set, those not yet
dropped at a check for having reached the horizon, from one PCG64 stream
per chunk of trajectories, each seeded by a child that
``numpy.random.SeedSequence`` spawns from the seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .adiabatic import (_constants, _cross_sections, chemical_rate_term,
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
    estimate, the largest entry of |K21 - G10|.  ``integrand`` takes the
    (21, 1, 1) nodes in one call and gives their (21, 2, 2) values."""
    center, half = 0.5 * (a + b), 0.5 * (b - a)
    values = integrand(center + half * GK21_NODES[:, None, None])
    kronrod = half * np.tensordot(GK21_KRONROD_WEIGHTS, values, axes=1)
    gauss = half * np.tensordot(GK21_GAUSS_WEIGHTS, values, axes=1)
    return kronrod, float(np.max(np.abs(kronrod - gauss)))


def quadrature_covariance(params: ModelParams, rate_fn, s_plus: float,
                          z: float) -> np.ndarray:
    """Covariance at depth z by adaptive quadrature of the transport integral.

    ``rate_fn(J)`` is the per-molecule diffusion rate (1/s), called once
    per 21-point rule with the rule's (21, 1, 1) array of fluxes; it returns
    their 21 rates as any shape of 21 * 4 entries, such as (21, 2, 2) or
    the (21, 1, 1, 2, 2) of ``adiabatic.adiabatic_rate``, or one 2x2 rate
    that holds at every flux.  The integrand is the rate at the locally
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
        return damping * line_density * np.reshape(rate_fn(j_local),
                                                   (-1, 2, 2))

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


# trajectories per seeded stream, chunks stepped together in one column
# loop, and columns between the checks at which a chunk may drop its
# finished rows.  MC_CHUNK and MC_CHECKPOINT are part of the definition of
# the streams: trajectory i draws from the stream of chunk i // MC_CHUNK,
# and how many draws that stream gives each column depends on the chunk's
# checks, so changing either changes the numbers.  MC_GROUP sets only how
# many rows share a column's numpy calls, never a number.  At the default
# point on a 2-core Xeon VM, in process, medians of four runs of 21
# interleaved rounds of ``_occupancy_times``: 10 000 trajectories took
# 4.5-5.5 ms in groups of 1 chunk, 3.8-4.7 in groups of 2, 3.7-4.7 in
# groups of 4 and 3.3-4.2 in one group (8 or 16); 100 000 took 44-46,
# 36-38, 31-32, 29-31 and 29-30 ms in groups of 1, 2, 4, 8 and 16 in three
# runs, and 49-80 ms in a fourth run under load, where 8 and 16 tied.  8
# keeps a 10 000-trajectory call one group.
MC_CHUNK = 2048
MC_GROUP = 8
MC_CHECKPOINT = 4


def _mean_stay(rate_out: float) -> float:
    """Mean dwell time (s) in a state left at ``rate_out``; a state that is
    never left has an infinite stay."""
    return 1.0 / rate_out if rate_out > 0 else np.inf


def _stream(seed, chunk):
    """Chunk ``chunk``'s generator: PCG64 seeded by the chunk-th child of
    ``SeedSequence(seed).spawn``, numpy's recipe for independent streams."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(
        int(seed), spawn_key=(chunk,))))


def _block_occupancy(in_a, streams, stay_a, stay_b, horizon):
    """Time in state A over [0, horizon] of the rows of ``len(streams)``
    equal chunks, given their initial states; ``streams[c]`` draws chunk
    c's standard exponentials.

    Column j of a row is its j-th stay: in A at even j if the row starts in
    A, at odd j if it starts in B, and as long as its draw times the mean
    stay of that state.  Each chunk steps its working set, at first all of
    its rows: at column j it draws one exponential per row of the set, in
    row order.  A row takes the segment ``min(stay, horizon - t)`` while
    its clock t is below the horizon and exact zeros after, so the clock
    and the occupancy are summed in the loop's order, bit for bit,
    including where ``t + (horizon - t)`` rounds below the horizon and the
    row takes one more segment.  After every ``MC_CHECKPOINT``-th column, a
    chunk whose rows still short of the horizon are at most half of its
    working set drops its finished rows, whose occupancy is written out
    first; the loop ends at the first such check where no row is live.
    Every decision is a chunk's own, so a row's numbers do not depend on
    the chunks stepped beside it.
    """
    n = len(in_a)
    widths = np.full(len(streams), n // len(streams))
    rows = np.arange(n)                 # the block row of each working row
    # the mean stays of the even and of the odd columns
    means = np.where(in_a, [[stay_a], [stay_b]], [[stay_b], [stay_a]])
    clock = np.zeros(n)
    occupancy = np.zeros((2, n))        # sums of the even and odd segments
    stay, segment, times = np.empty(n), np.empty(n), np.empty(n)
    j = 0
    while len(streams):
        starts = np.cumsum(widths) - widths
        outs = np.split(stay, starts[1:])
        while True:
            for stream, out in zip(streams, outs):
                stream.standard_exponential(out=out)
            # the stay in a state that is never left is inf, or NaN where
            # its draw is 0, and fmin takes horizon - t for both; past the
            # horizon the segment is 0
            np.multiply(stay, means[j % 2], out=stay)
            np.subtract(horizon, clock, out=segment)
            np.fmin(stay, segment, out=segment)
            np.maximum(segment, 0.0, out=segment)
            clock += segment
            occupancy[j % 2] += segment
            j += 1
            if j % MC_CHECKPOINT:
                continue
            live = clock < horizon
            counts = np.add.reduceat(live, starts, dtype=np.intp)
            shrink = 2 * counts <= widths
            if shrink.any():
                break
        # every working row's sums so far: final for the rows that leave,
        # written again later for the others
        times[rows] = np.where(in_a[rows], occupancy[0], occupancy[1])
        for start, width in zip(starts[~shrink], widths[~shrink]):
            live[start:start + width] = True
        # the kept rows move to the front of each array, in order
        kept = np.flatnonzero(live)
        size = len(kept)
        for row in (rows, clock, *means, *occupancy):
            row[:size] = row[kept]
        rows, clock, stay, segment = (rows[:size], clock[:size], stay[:size],
                                      segment[:size])
        means, occupancy = means[:, :size], occupancy[:, :size]
        widths = np.where(shrink, counts, widths)
        streams = [stream for stream, width in zip(streams, widths) if width]
        widths = widths[widths > 0]
    return times


def _occupancy_times(seed, n, p_a, rate_a, rate_b, horizon):
    """Time spent in state A over [0, horizon] by telegraph trajectories
    0 .. n-1.

    Chunk c, trajectories c * MC_CHUNK .. (c + 1) * MC_CHUNK - 1, draws from
    one PCG64 stream (``_stream``): first ``MC_CHUNK`` uniforms, one per
    row, which set the initial states, then its working set's exponentials
    column by column (``_block_occupancy``).  A last, partial chunk steps
    all its ``MC_CHUNK`` rows too, so trajectory i's numbers depend on the
    seed and i alone.  Up to ``MC_GROUP`` chunks are stepped together in
    one column loop, which draws each column when it reaches it, so a call
    holds one column per row whatever the horizon.  Leaving A happens at
    rate r_B (transfer into B) and vice versa.  Because the conditioned
    fluxes are constant within a chemical state, occupancy times integrate
    the flux between jumps exactly (no discretization step enters).
    """
    stay_a, stay_b = _mean_stay(rate_b), _mean_stay(rate_a)
    chunks = math.ceil(n / MC_CHUNK)
    blocks = []
    for first in range(0, chunks, MC_GROUP):
        streams = [_stream(seed, chunk)
                   for chunk in range(first, min(first + MC_GROUP, chunks))]
        uniforms = np.empty((len(streams), MC_CHUNK))
        for stream, row in zip(streams, uniforms):
            stream.random(out=row)
        blocks.append(_block_occupancy(uniforms.reshape(-1) < p_a, streams,
                                       stay_a, stay_b, horizon))
    return np.concatenate(blocks)[:n]


def telegraph_mc_diffusion(params: ModelParams, mc: McConfig):
    """Chemical contribution to the per-molecule diffusion rate at the
    reference flux J0, by direct simulation of the two-state jump process.

    Returns ``(rate, stderr)``: the 2x2 sample covariance of the
    time-integrated per-detector fluxes divided by the horizon T, and its
    jackknife standard error.  A trajectory's fluxes are affine in its time
    in state A, flux_B * T + (flux_A - flux_B) * time_A, so the covariance
    is Delta Delta^T * Var(time_A) for Delta = flux_A - flux_B, and each
    entry's jackknife is |Delta_i Delta_j| times the jackknife of
    Var(time_A): the oracle estimates one number, the sample variance of
    the occupancy time.  For fixed seed the output is bit-reproducible
    and independent of how the trajectories are grouped, because each
    chunk of ``MC_CHUNK`` trajectories draws from its own PCG64 stream,
    seeded by the chunk index's spawned child of the seed, and which of
    its trajectories a chunk steps at each column, so which draw of the
    stream each one takes, follows from that chunk's trajectories alone.
    """
    mol, J = params.molecule, params.derived.photon_flux_j0
    t_r = reaction_time(params)
    _, horizon = mc.resolve(t_r)
    p_a, _ = stationary_probabilities(params)

    s_plus, s_minus = _cross_sections(_constants(params))
    # detector-channel fluxes (1/s) conditioned on the chemical state, one
    # column per state (A, B)
    flux = J * np.array([(s_plus + s_minus) / 2, (s_plus - s_minus) / 2])
    delta = flux[:, 0] - flux[:, 1]
    outer = np.outer(delta, delta)

    n = mc.n_trajectories
    time_a = _occupancy_times(mc.seed, n, p_a, mol.rate_a, mol.rate_b,
                              horizon)
    centered = time_a - time_a.mean()
    sum_sq = np.sum(centered ** 2)
    variance = sum_sq / (n - 1)

    # jackknife over trajectories: the variance without trajectory i
    mean_rest = (centered.sum() - centered) / (n - 1)
    loo = (sum_sq - centered ** 2 - (n - 1) * mean_rest ** 2) / (n - 2)
    jackknife = np.sqrt((n - 1) / n * np.sum((loo - loo.mean()) ** 2))

    rate = outer * variance / horizon
    stderr = np.abs(outer) * jackknife / horizon

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
