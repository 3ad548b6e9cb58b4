"""Counting statistics from the tilted superoperator: cross sections (first
cumulants) and the diffusion matrix (second cumulants).

Conventions frozen here:

* Cumulants are taken by analytic continuation chi_k -> -i s_k with real s,
  so the cumulant-generating function is a real moment-generating function
  and plain d/ds derivatives apply.
* Physical detector labels are the reverse of the counting-field indices
  (detector 1 <-> s_2); this makes S_minus = S_1 - S_2 positive at positive
  detuning, consistent with the homodyne-mean labels.
* The diffusion matrix is the full detector-flux covariance: the molecular
  eigenvalue curvature plus the per-detector partition shot noise of
  absorption, D_kl = d2(lambda)/ds_k ds_l + delta_kl * (absorbed flux)/2.
  The shot term is what keeps a coherent input coherent under the variance
  flow (linear coefficient 2*S_plus instead of S_plus).
* The curvature is exact up to roundoff, by Rayleigh-Schroedinger theory
  in s with bordered solves (Flindt, Novotny & Jauho, EPL 69, 475 (2005);
  Flindt et al., PRL 100, 150601 (2008)).  Only the cross sections still
  come from finite differences of the dominant eigenvalue.
* The generator is affine in the flux scale f = sqrt(J/J0): the undriven
  part holds the detunings and dissipators, and the drive, through which
  alone the counting fields enter, scales with f.  Two builds, at f = 0 and
  f = 1, give the generator and its s-derivatives at any flux, and
  ``cumulants`` solves a leading stack axis of fluxes at once, so the ten
  fluxes of the intensity expansion are one stacked solve.
* The generator is block-diagonal: it never mixes the matrix elements
  within one chemical state with those between the states (see
  ``liouvillian``).  The stationary state and every dL/ds_k live within the
  states, so the exact solves run on that 8x8 sector, bordered by its part
  of the trace row.  The finite-difference tilts of the cross sections
  still eigensolve the full 16x16 generator.
* Points stack.  ``cross_sections`` and ``fit_diffusion_expansion`` also
  take points stacked by ``params.stack``, whose generators they build,
  eigensolve and solve all at once along a leading point axis: the tilts
  of all points in one eigensolve per stencil, the fluxes of all points in
  one pair of bordered solves.  A stacked call raises as a single one
  does, with the error of the first point that fails a check; the
  pipeline then splits the stack in halves until the failing point is
  alone.  One point runs the same code as a stack of one.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import FitResidualExceeded, GapTooSmall
from .liouvillian import (WITHIN, bordered, build_two_sided, dissipator_sum,
                          generator_derivatives, model_blocks, sector,
                          trace_vector, two_sided)
from .params import ModelParams, stack

# Largest relative residual of the intensity-expansion fit.
FIT_RESIDUAL_TOL = 1e-3

# Smallest spectral gap, as a fraction of the decay rate, at which the
# dominant branch is still tracked.  The chemical relaxation mode makes the
# gap scale with r_A + r_B, far below the electronic scale at slow rates.
GAP_FRACTION = 1e-10


@dataclass(frozen=True)
class DiffusionExpansion:
    D1: np.ndarray = field(repr=False)  # 2x2, m^2 (order-J coefficient)
    D2: np.ndarray = field(repr=False)  # 2x2, m^4 s (order-J^2 coefficient)
    fit_residual: float


def dominant_eigenvalue(matrix: np.ndarray):
    """Eigenvalue of maximal real part and the spectral gap to the runner-up.

    An (..., d, d) stack gives arrays of each from one solve.  For the real
    tilts used throughout (|s| <= 1e-4) the max-real-part branch coincides
    with the branch continuously connected to lambda(0) = 0; the property
    tests check this against eigenvector-overlap tracking.
    """
    values = np.linalg.eigvals(matrix)
    order = np.argsort(-values.real, axis=-1)[..., :2]
    # the two picked from each row of eigenvalues by one fancy index
    rows = values.reshape(-1, values.shape[-1])
    top, second = rows[np.arange(len(rows))[:, None], order.reshape(-1, 2)].T
    top, second = (v.reshape(order.shape[:-1])[()] for v in (top, second))
    return top, top.real - second.real


def _check_gaps(batch, gaps, tilted) -> None:
    """Raise ``GapTooSmall`` for the first stacked point among the
    ``tilted`` ones (a mask) with a tilt's gap below the pipeline's
    threshold, a fraction of its decay rate."""
    min_gap = GAP_FRACTION * batch.molecule.decay_gamma
    narrow = (gaps < min_gap).any(axis=-1) & tilted
    if narrow.any():
        i = narrow.argmax()
        raise GapTooSmall(f"spectral gap {np.min(gaps[i]):.3e} below "
                          f"threshold {min_gap[i, 0]:.3e}")


# ---------------------------------------------------------------------------
# finite-difference stencils in the two counting fields
# ---------------------------------------------------------------------------

# Each stencil evaluates ``fun(s1, s2)`` once, on arrays of all its tilts.
# ``h`` is a step or an array of steps, over which the result's last axis runs.

def gradient(fun, h) -> np.ndarray:
    """Central-difference gradient of ``fun(s1, s2)`` at the origin.  An
    (n, m) array of steps is n points at m steps each: a point's tilts run
    along the last axis of the tilt arrays."""
    h = np.asarray(h)
    zero = np.zeros_like(h)
    axis = -1 if h.ndim else None
    f = fun(np.concatenate([h, -h, zero, zero], axis=axis),
            np.concatenate([zero, zero, h, -h], axis=axis))
    f = f.reshape(h.shape[:-1] + (4,) + h.shape[-1:])
    if h.ndim > 1:   # the four tilt groups ahead of the points
        f = f.swapaxes(0, 1)
    return np.array([(f[0] - f[1]) / (2 * h), (f[2] - f[3]) / (2 * h)])


def richardson(stencil, fun, h):
    """One Richardson step on ``stencil(fun, step)`` from steps h and h/2 in
    one call; an (n,) array of steps h gives n results."""
    both = stencil(fun, np.array([h, h / 2]).T)
    return (4 * both[..., 1] - both[..., 0]) / 3


# ---------------------------------------------------------------------------
# eigenvalue derivatives
# ---------------------------------------------------------------------------

def cumulants(l0: np.ndarray, first: np.ndarray, trace=None):
    """(c1, c2): first and second s-derivatives of the dominant eigenvalue
    at s = 0 (counting order, 1/s), from the generator ``l0`` at s = 0 and
    the stack ``first`` of its derivatives dL/ds_k.  With <<1| the trace
    row, rho the stationary state and rho_k the traceless solution of
    L0 rho_k = -(dL/ds_k - c1_k) rho, c1_k = <<1|dL/ds_k|rho>> and
    c2_kl = <<1|dL/ds_k|rho_l>> + (k <-> l).  L0 bordered by the trace row
    and column is invertible and serves every solve.  ``trace`` defaults to
    vec(identity); a sector block takes the sector's part of it.

    A leading stack axis, ``l0`` of shape (m, n, n) and ``first`` of shape
    (m, 2, n, n), gives c1 of shape (m, 2) and c2 of shape (m, 2, 2) from
    two stacked solves."""
    n = l0.shape[-1]
    trace = trace_vector(n) if trace is None else trace
    system = bordered(l0, trace)
    # right-hand sides as full (..., n + 1, k) stacks, never (n + 1, k)
    # alone, which numpy < 2 reads as a stack of vectors
    unit = np.broadcast_to(np.eye(n + 1)[:, n:], system.shape[:-1] + (1,))
    rho = np.linalg.solve(system, unit)[..., :n, 0]       # (..., n)
    moved = (first @ rho[..., None, :, None])[..., 0]     # (..., 2, n)
    c1 = moved @ trace
    source = c1[..., :, None] * rho[..., None, :] - moved
    rhs = np.concatenate([source.swapaxes(-1, -2),
                          np.zeros(source.shape[:-2] + (1, 2))], axis=-2)
    rho_k = np.linalg.solve(system, rhs)[..., :n, :]      # (..., n, 2)
    cross = (trace @ first) @ rho_k                       # [..., k, l]
    return c1.real, (cross + cross.swapaxes(-1, -2)).real


def _lambda_s(params, s1, s2, flux_scale):
    """Dominant eigenvalues and gaps at arrays of real tilts, in one solve."""
    chi = (-1j * np.asarray(s1), -1j * np.asarray(s2))
    top, gap = dominant_eigenvalue(
        build_two_sided(params, chi, flux_scale=flux_scale))
    return top.real, gap


def _adaptive_steps(batch, flux_scale, tilted) -> np.ndarray:
    """Per stacked point a finite-difference step below the chemical
    curvature scale of the CGF, which is of order gap/|c1| at slow reaction
    rates; all tilts in one eigensolve, whose gaps are checked for the
    ``tilted`` points."""
    h1 = 1e-4
    values, gaps = _lambda_s(batch, [0.0, h1, 0.0], [0.0, 0.0, h1],
                             flux_scale)
    _check_gaps(batch, gaps, tilted)
    steps = []
    for value, gap in zip(values, gaps[:, 0]):
        c1_scale = max(abs(value[1]), abs(value[2])) / h1
        steps.append(min(h1, 0.2 * gap / c1_scale) if c1_scale > 0 else h1)
    return np.array(steps)


def first_cumulants(params: ModelParams, flux_scale: float, h):
    """(c1_1, c1_2): plain d(lambda)/ds_k in counting-index order, units 1/s,
    from central differences of step ``h``, and the spectral gaps of the
    tilts.  Stacked points with an (n,) array of steps give c1 of shape
    (2, n) and the gaps of shape (n, 8)."""
    gaps = []

    def fun(s1, s2):
        values, gap = _lambda_s(params, s1, s2, flux_scale)
        gaps.append(gap)
        return values
    return richardson(gradient, fun, h), gaps[0]


def second_cumulant_matrix(params: ModelParams, flux_scale):
    """Exact (c1, c2) of the 4-level model: d(lambda)/ds_k and the 2x2
    matrix of d2(lambda)/ds_k ds_l (counting-index order), units 1/s, at a
    scalar ``flux_scale`` f or an (m,) array of them (both results gain the
    axis), or for stacked points at an (n, m) array of them.
    L(f) = L_u + f (L(1) - L_u) and dL/ds_k(f) = f dL/ds_k(1).
    The stationary state and every dL/ds_k act within the chemical states,
    so the solves run on that 8x8 sector."""
    dissipator = dissipator_sum(params)
    undriven = two_sided(model_blocks(params, 0.0), dissipator, (0.0, 0.0))
    driven, first = generator_derivatives(model_blocks(params, 1.0),
                                          dissipator)
    undriven, driven, first = (sector(m, WITHIN)
                               for m in (undriven, driven, first))
    f = np.asarray(flux_scale)[..., None, None]
    return cumulants(undriven + f * (driven - undriven),
                     f[..., None, :, :] * first, trace_vector()[WITHIN])


def detector_rate(curvature: np.ndarray, absorbed) -> np.ndarray:
    """Per-molecule second-cumulant rate in detector order from the eigenvalue
    curvature (counting-index order) and the absorbed flux (1/s): the
    curvature plus the partition shot noise of absorption.  Both may carry
    a leading stack axis."""
    absorbed = np.asarray(absorbed)[..., None, None]
    return curvature[..., ::-1, ::-1] + 0.5 * absorbed * np.eye(2)


# ---------------------------------------------------------------------------
# physical cumulants
# ---------------------------------------------------------------------------

WEAK_PROBE_LIMIT = 0.25  # warn above this Omega^2/gamma^2

CROSS_SECTION_FLUX_FRACTION = 1e-3  # linear-response reference flux J/J0


def _warn_if_strong(rabi_a, rabi_b, gamma):
    # numpy floats saturate to 0 or inf at extreme but finite rates, where
    # Python floats would raise ZeroDivisionError or OverflowError
    saturation = (np.float64(max(rabi_a, rabi_b)) ** 2
                  / np.float64(gamma) ** 2)
    if saturation > WEAK_PROBE_LIMIT:
        warnings.warn(f"outside weak-probe regime: Omega^2/gamma^2 = "
                      f"{saturation:.3g}", stacklevel=3)


def cross_sections(params):
    """(S1, S2) in m^2: photon flux removed from detector channel k per
    molecule and unit intensity, in the linear-response (small-flux) limit.
    Stacked points (``params.stack``) give arrays of each over the points,
    or raise the ``GapTooSmall`` of the first point that ends in one; the
    tilts of all points take one eigensolve for the step choice and one
    for the Richardson stencil."""
    if not isinstance(params.molecule.decay_gamma, np.ndarray):
        s1, s2 = cross_sections(stack([params]))
        return s1[0], s2[0]
    frac = CROSS_SECTION_FLUX_FRACTION
    flux_scale = np.sqrt(frac)
    der, mol = params.derived, params.molecule
    for rabi_a, rabi_b, gamma in zip(der.rabi_a.flat, der.rabi_b.flat,
                                     mol.decay_gamma.flat):
        _warn_if_strong(rabi_a, rabi_b, gamma)
    j_ref = der.photon_flux_j0[:, 0] * frac
    # a reference flux that underflows to 0 leaves nothing to tilt: the
    # point stays in the stack, unchecked, and gets (0, 0)
    tilted = j_ref > 0
    steps = _adaptive_steps(params, flux_scale, tilted)
    c1, gaps = first_cumulants(params, flux_scale, steps)
    _check_gaps(params, gaps, tilted)
    # counting index order -> physical detector order is reversed
    return tuple(np.divide(c1[::-1], j_ref, out=np.zeros_like(c1),
                           where=tilted))


def diffusion_rate(params: ModelParams, J) -> np.ndarray:
    """Per-molecule second-cumulant rate matrix at flux J (detector order).
    An (m,) array of fluxes gives the (m, 2, 2) stack of rates from one
    stacked solve of the flux-affine generator; stacked points with an
    (n, m) array of fluxes give (n, m, 2, 2)."""
    flux_scale = np.sqrt(np.asarray(J) / params.derived.photon_flux_j0)
    c1, c2 = second_cumulant_matrix(params, flux_scale)
    return detector_rate(c2, c1[..., 0] + c1[..., 1])


def _fit(j0, s_plus, x, rates, pin_linear):
    """The intensity expansion of one point from its rates (m, 2, 2) at
    the fluxes x * J0; see ``fit_diffusion_expansion``."""
    flat = rates.reshape(len(x), 4)
    norm = np.linalg.norm(flat)

    if pin_linear:
        d1 = s_plus * np.eye(2)
        linear = np.outer(x, (s_plus * j0) * np.eye(2).ravel())
        design = np.vstack([x**2, x**3, x**4]).T  # normalized flux
        coeffs, *_ = np.linalg.lstsq(design, flat - linear, rcond=None)
        model = linear + design @ coeffs
        d2 = 2.0 * coeffs[0].reshape(2, 2) / j0**2
    else:
        design = np.vstack([x, x**2, x**3]).T
        coeffs, *_ = np.linalg.lstsq(design, flat, rcond=None)
        model = design @ coeffs
        d1 = coeffs[0].reshape(2, 2) / j0
        d2 = 2.0 * coeffs[1].reshape(2, 2) / j0**2

    # Judge adequacy against the fitted polynomial family including the
    # nuisance columns: near resonance the saturation corrections to the
    # dominant chemical term are real (few 1e-3 relative) and must not abort
    # sweeps that traverse resonance, while noisy or non-polynomial data
    # still trips the threshold.
    residual = np.linalg.norm(model - flat) / norm if norm > 0 else 0.0
    if residual > FIT_RESIDUAL_TOL:
        raise FitResidualExceeded(
            f"intensity expansion residual {residual:.2e} "
            f"exceeds {FIT_RESIDUAL_TOL:.0e}")
    return DiffusionExpansion(D1=d1, D2=d2, fit_residual=float(residual))


def fit_diffusion_expansion(params, s_plus=None, pin_linear: bool = True):
    """Least-squares fit of the per-molecule rate to D1*J + (1/2)*D2*J^2
    through the origin, on ten log-spaced fluxes spanning the decade below
    J0, all ten rates from one ``diffusion_rate`` call on the flux grid; a
    relative residual above ``FIT_RESIDUAL_TOL`` raises
    ``FitResidualExceeded``.  Stacked points, with their S_plus, give a
    list of their ``DiffusionExpansion``s, or raise the error of the first
    point whose fit fails: the rates of all points from one
    ``diffusion_rate`` call, the fits point by point.

    At slow reaction rates the quadratic chemical term exceeds the linear
    coefficient by many orders of magnitude, and higher-order saturation
    corrections of that dominant term leak into a freely fitted linear
    column at the full scale of the linear coefficient.  The linear
    coefficient is therefore pinned to its known structure D1 = S_plus * I
    (verified to be exact against the conditioned-statistics composition and
    against free fits in well-conditioned regimes), and only the quadratic
    coefficient is extracted, with cubic and quartic nuisance columns
    absorbing saturation corrections of the chemical term.  Without
    ``s_plus`` it comes from ``cross_sections``.

    ``pin_linear=False`` restores the free linear column, which is reliable
    only when chemical noise does not dwarf absorption (fast rates); it is
    retained as a consistency check on the pinned structure.
    """
    if not isinstance(params.molecule.decay_gamma, np.ndarray):
        expansion, = fit_diffusion_expansion(
            stack([params]), None if s_plus is None else [s_plus], pin_linear)
        return expansion
    j0 = params.derived.photon_flux_j0
    # one point per row (a C-ordered copy: geomspace is faster on axis 0)
    J_grid = np.geomspace(j0[:, 0] / 10.0, j0[:, 0], 10).T.copy()
    rates = diffusion_rate(params, J_grid)                # (n, m, 2, 2)
    if s_plus is None:
        s_plus = (np.add(*cross_sections(params)) if pin_linear
                  else [None] * len(rates))
    return [_fit(*row, pin_linear) for row in zip(
        j0[:, 0].tolist(), s_plus, J_grid / j0, rates)]
