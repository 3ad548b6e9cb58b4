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
  alone the counting fields enter, scales with f.  Its builds at f = 0 and
  f = 1 give the generator and its s-derivatives at any flux, and
  ``cumulants`` solves a leading stack axis of fluxes at once, so the ten
  fluxes of the intensity expansion are one stacked solve.
* Every generator a pass needs before its first eigensolve is a member of
  its ``Batch``'s one build at ``REFERENCE_TILTS``; only the Richardson
  stencil, whose tilts depend on the step, builds again.
* The generator is block-diagonal: it never mixes the matrix elements
  within one chemical state with those between the states (see
  ``liouvillian``).  The stationary state and every dL/ds_k live within the
  states, so the exact solves run on that 8x8 sector, bordered by its part
  of the trace row.  The finite-difference tilts of the cross sections
  still eigensolve the full 16x16 generator.
* Points stack.  ``cross_sections`` and ``fit_diffusion_expansion`` also
  take a ``Batch`` of points (``batch``), whose generators they build,
  eigensolve and solve all at once along a leading point axis: the tilts
  of all points in one eigensolve per stencil, the fluxes of all points in
  one pair of bordered solves.  A stacked call raises as a single one
  does, with the error of the first point that fails a check; the
  pipeline then splits the stack in halves until the failing point is
  alone.  One point runs the same code as a batch of one.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import FitResidualExceeded, GapTooSmall
from .liouvillian import (WITHIN, bordered, build_two_sided, sector,
                          trace_vector)
from .params import DerivedQuantities, ModelParams, MoleculeParams, stack

# Largest relative residual of the intensity-expansion fit.
FIT_RESIDUAL_TOL = 1e-3

# Smallest spectral gap, as a fraction of the decay rate, at which the
# dominant branch is still tracked.  The chemical relaxation mode makes the
# gap scale with r_A + r_B, far below the electronic scale at slow rates.
GAP_FRACTION = 1e-10

CROSS_SECTION_FLUX_FRACTION = 1e-3  # linear-response reference flux J/J0

# The step choice's tilt, the largest finite-difference tilt.
STEP_TILT = 1e-4

# (s1, s2, flux scale) of the members of a pass's reference build:
#   0     L(1), the generator of the spectral gap and the intensity expansion
#   1-4   L(1) at s_1 = ln 4, -ln 4 and s_2 = ln 4, -ln 4, whose differences
#         are dL/ds_k exactly (see ``liouvillian.generator_derivatives``)
#   5     L_u = L(0), the undriven generator
#   6-8   the step choice's tilts at the cross sections' reference flux
_LN4, _F_REF = np.log(4.0), np.sqrt(CROSS_SECTION_FLUX_FRACTION)
REFERENCE_TILTS = np.array([
    (0.0, 0.0, 1.0),
    (_LN4, 0.0, 1.0), (-_LN4, 0.0, 1.0), (0.0, _LN4, 1.0), (0.0, -_LN4, 1.0),
    (0.0, 0.0, 0.0),
    (0.0, 0.0, _F_REF), (STEP_TILT, 0.0, _F_REF), (0.0, STEP_TILT, _F_REF),
]).T


@dataclass(frozen=True)
class Batch:
    """The points of one stacked pass: their ``molecule`` and ``derived``
    fields as ``params.stack`` gives them, (n, 1) arrays over the points,
    and ``built``, their (n, 9, 16, 16) generators at the members of
    ``REFERENCE_TILTS``."""
    molecule: MoleculeParams
    derived: DerivedQuantities
    built: np.ndarray = field(repr=False)


def batch(points) -> Batch:
    """The points stacked, with their reference build from one call."""
    stacked = stack(points)
    s1, s2, flux_scale = REFERENCE_TILTS
    return Batch(stacked.molecule, stacked.derived,
                 build_two_sided(stacked, (-1j * s1, -1j * s2), flux_scale))


@dataclass(frozen=True)
class DiffusionExpansion:
    D1: np.ndarray = field(repr=False)  # 2x2, m^2 (order-J coefficient)
    D2: np.ndarray = field(repr=False)  # 2x2, m^4 s (order-J^2 coefficient)
    fit_residual: float


def dominant_eigenvalue(matrix: np.ndarray):
    """Largest real part of the eigenvalues and its gap to the runner-up.

    An (..., d, d) stack gives arrays of each from one solve.  For the real
    tilts used throughout (|s| <= 1e-4) the max-real-part branch coincides
    with the branch continuously connected to lambda(0) = 0; the property
    tests check this against eigenvector-overlap tracking.
    """
    values = np.sort(np.linalg.eigvals(matrix).real, axis=-1)
    return values[..., -1], values[..., -1] - values[..., -2]


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
    return dominant_eigenvalue(
        build_two_sided(params, chi, flux_scale=flux_scale))


def _adaptive_steps(batch, tilted) -> np.ndarray:
    """Per stacked point a finite-difference step below the chemical
    curvature scale of the CGF, which is of order gap/|c1| at slow reaction
    rates; the step tilts of the reference build in one eigensolve, whose
    gaps are checked for the ``tilted`` points."""
    values, gaps = dominant_eigenvalue(batch.built[:, 6:])
    _check_gaps(batch, gaps, tilted)
    c1_scale = np.abs(values[:, 1:]).max(axis=-1) / STEP_TILT
    # the tilt where c1_scale is 0 or the ratio is nan, as min() gives
    steps = np.divide(0.2 * gaps[:, 0], c1_scale,
                      out=np.full_like(c1_scale, STEP_TILT),
                      where=c1_scale > 0)
    return np.fmin(STEP_TILT, steps)


def first_cumulants(params: ModelParams, flux_scale: float, h):
    """(c1, gaps): plain d(lambda)/ds_k in counting-index order, units 1/s,
    by one Richardson step on central differences at steps h and h/2, and
    the spectral gaps of the eight tilts (+-h, +-h/2 on each field), all
    from one eigensolve.  Stacked points with an (n,) array of steps give
    c1 of shape (2, n) and the gaps of shape (n, 8)."""
    h = np.stack([h, np.divide(h, 2)], axis=-1)           # (..., 2)
    zero = np.zeros_like(h)
    values, gaps = _lambda_s(params,
                             np.concatenate([h, -h, zero, zero], axis=-1),
                             np.concatenate([zero, zero, h, -h], axis=-1),
                             flux_scale)
    f = values.reshape(h.shape[:-1] + (4, 2))             # (..., tilt, step)
    both = np.array([f[..., 0, :] - f[..., 1, :],
                     f[..., 2, :] - f[..., 3, :]]) / (2 * h)
    return (4 * both[..., 1] - both[..., 0]) / 3, gaps


def second_cumulant_matrix(params: ModelParams, flux_scale):
    """Exact (c1, c2) of the 4-level model: d(lambda)/ds_k and the 2x2
    matrix of d2(lambda)/ds_k ds_l (counting-index order), units 1/s, at a
    scalar ``flux_scale`` f or an (m,) array of them (both results gain the
    axis), or for a ``Batch`` at an (n, m) array of them.
    L(f) = L_u + f (L(1) - L_u) and dL/ds_k(f) = f dL/ds_k(1), all from
    the batch's reference build.  The stationary state and every dL/ds_k
    act within the chemical states, so the solves run on that 8x8 sector."""
    if not isinstance(params, Batch):
        f = np.asarray(flux_scale)
        c1, c2 = second_cumulant_matrix(batch([params]), f.reshape(1, -1))
        return c1.reshape(f.shape + (2,)), c2.reshape(f.shape + (2, 2))
    built = sector(params.built, WITHIN)
    driven, undriven = built[:, :1], built[:, 5:6]
    first = (built[:, None, 1:5:2] - built[:, None, 2:5:2]) / 3.0
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


def _warn_if_strong(rabi_a, rabi_b, gamma):
    """One warning per stacked point outside the weak-probe regime, in
    point order, attributed to the caller of ``cross_sections``."""
    saturation = np.maximum(rabi_a, rabi_b) ** 2 / gamma ** 2
    for value in saturation[saturation > WEAK_PROBE_LIMIT]:
        warnings.warn(f"outside weak-probe regime: Omega^2/gamma^2 = "
                      f"{value:.3g}", stacklevel=3)


def cross_sections(params):
    """(S1, S2) in m^2: photon flux removed from detector channel k per
    molecule and unit intensity, in the linear-response (small-flux) limit.
    A ``Batch`` of points gives arrays of each over the points, or raises
    the ``GapTooSmall`` of the first point that ends in one; the tilts of
    all points take one eigensolve for the step choice and one for the
    Richardson stencil."""
    if not isinstance(params, Batch):
        s1, s2 = cross_sections(batch([params]))
        return s1[0], s2[0]
    der = params.derived
    _warn_if_strong(der.rabi_a, der.rabi_b, params.molecule.decay_gamma)
    j_ref = der.photon_flux_j0[:, 0] * CROSS_SECTION_FLUX_FRACTION
    # a reference flux that underflows to 0 leaves nothing to tilt: the
    # point stays in the stack, unchecked, and gets (0, 0)
    tilted = j_ref > 0
    c1, gaps = first_cumulants(params, _F_REF,
                               _adaptive_steps(params, tilted))
    _check_gaps(params, gaps, tilted)
    # counting index order -> physical detector order is reversed
    return tuple(np.divide(c1[::-1], j_ref, out=np.zeros_like(c1),
                           where=tilted))


def diffusion_rate(params: ModelParams, J) -> np.ndarray:
    """Per-molecule second-cumulant rate matrix at flux J (detector order).
    An (m,) array of fluxes gives the (m, 2, 2) stack of rates from one
    stacked solve of the flux-affine generator; a ``Batch`` with an (n, m)
    array of fluxes gives (n, m, 2, 2)."""
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
    ``FitResidualExceeded``.  A ``Batch``, with its points' S_plus, gives
    a list of their ``DiffusionExpansion``s, or raises the error of the
    first point whose fit fails: the rates of all points from one
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
    if not isinstance(params, Batch):
        expansion, = fit_diffusion_expansion(
            batch([params]), None if s_plus is None else [s_plus], pin_linear)
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
