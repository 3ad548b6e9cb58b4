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
* The generator is block-diagonal: it never mixes the matrix elements
  within one chemical state with those between the states (see
  ``liouvillian``).  The stationary state and every dL/ds_k live within the
  states, so the exact solves run on that 8x8 sector, bordered by its part
  of the trace row.  The finite-difference tilts of the cross sections
  still eigensolve the full 16x16 generator.
* Points stack.  ``cross_sections`` and ``fit_diffusion_expansion`` also
  take a ``Batch`` of points (``batch``), whose generators, eigensolves and
  solves run along a leading point axis.  The batch's reference build is
  every generator a pass needs, the Richardson stencil at STEP_TILT
  included, so one eigensolve serves the step choice and the stencil; only
  points whose step comes out below STEP_TILT are built again.  The
  eigensolve of eight or more points' tilts runs in two halves, one on a
  helper thread, so a sweep's passes use two cores for the kernel that
  dominates them; the values are those of one call.
  The expansion is fitted on one normalized flux grid (``FIT_FLUXES``), so
  one least-squares projector, built at import, fits every point at once.
  A stacked call's checks raise through ``errors.raise_first``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import FitResidualExceeded, GapTooSmall, raise_first
from .liouvillian import (WITHIN, bordered, build_two_sided, sector,
                          trace_vector)
from .params import (DerivedQuantities, ModelParams, MoleculeParams,
                     SampleParams, coefficient, stack)

# Largest relative residual of the intensity-expansion fit.
FIT_RESIDUAL_TOL = 1e-3

# The intensity expansion's fluxes x = J/J0, ten log-spaced over the decade
# below J0, and the least-squares projectors (pseudo-inverses) of its two
# designs in x: pinned (x^2, x^3, x^4 after the known linear term) and free
# (x, x^2, x^3).  The normal equations and one Newton-Schulz step give them
# to 1e-15, without the LAPACK code an SVD (``pinv``) would load.
FIT_FLUXES = np.geomspace(0.1, 1.0, 10)
_DESIGNS = {pin: FIT_FLUXES[:, None] ** np.array(powers)
            for pin, powers in ((True, [2, 3, 4]), (False, [1, 2, 3]))}
_PROJECTORS = {pin: 2 * p - p @ design @ p for pin, design in _DESIGNS.items()
               for p in [np.linalg.solve(design.T @ design, design.T)]}

# Smallest spectral gap, as a fraction of the decay rate, at which the
# dominant branch is still tracked.  The chemical relaxation mode makes the
# gap scale with r_A + r_B, far below the electronic scale at slow rates.
GAP_FRACTION = 1e-10

CROSS_SECTION_FLUX_FRACTION = 1e-3  # linear-response reference flux J/J0

# The step choice's tilt, the largest finite-difference tilt.
STEP_TILT = 1e-4

# Fewest matrices in a stack whose eigensolve runs in two halves, one on a
# helper thread.  Stencil stacks (n, 9, 16, 16) of the reference build on
# a 2-core Xeon VM, one call's time over the split's: 0.45-0.92 at 2-6
# points, 0.86-1.23 at 7-8, 1.28-1.63 at 10-12 and 1.3-1.9 at 50-100.
# Whether the halves overlap varies from process to process.  On the bench
# sweep's (12, 9, 16, 16) stack, median of 41 alternating calls in each
# fresh process on the same VM type, the split took 1.05-1.29 times one
# call's wall time, at CPU time equal to wall time, in every process of two
# sets of 12; in a third set it took 0.59-0.90 times it, at 1.6-1.9 times
# the CPU, in 9 of 12 (1.07 times in the other 3).  Bench sweep throughput
# is bimodal too: in 15-30 s runs interleaved with one call, the split
# read 860-882 points/s in 4 pairs and 1 088-1 096 in 4 others, where one
# call read 902-964; in 14 later pairs it read 844-889, and one call won
# all 14 at 878-939 (ROADMAP item 13).
_SPLIT_MATRICES = 64


def _stencil_tilts(h):
    """(s1, s2) of the Richardson stencil at steps h, (..., 8) arrays for
    an (...) array of them: +h, +h/2, -h, -h/2 on s_1, then on s_2."""
    h = np.stack([h, np.divide(h, 2)], axis=-1)           # (..., 2)
    zero = np.zeros_like(h)
    return (np.concatenate([h, -h, zero, zero], axis=-1),
            np.concatenate([zero, zero, h, -h], axis=-1))


# (s1, s2, flux scale) of the members of a pass's reference build:
#   0     L(1), the generator of the spectral gap and the intensity expansion
#   1-4   L(1) at s_1 = ln 4, -ln 4 and s_2 = ln 4, -ln 4, whose differences
#         are dL/ds_k exactly (see ``liouvillian.generator_derivatives``)
#   5     L_u = L(0), the undriven generator
#   6     the cross sections' generator at their reference flux
#   7-14  the Richardson stencil at STEP_TILT at that flux; the step choice
#         reads rows 6, 7 (s_1 = STEP_TILT) and 11 (s_2 = STEP_TILT)
_LN4, _F_REF = np.log(4.0), np.sqrt(CROSS_SECTION_FLUX_FRACTION)
REFERENCE_TILTS = np.concatenate([
    np.array([(0.0, 0.0, 1.0), (_LN4, 0.0, 1.0), (-_LN4, 0.0, 1.0),
              (0.0, _LN4, 1.0), (0.0, -_LN4, 1.0), (0.0, 0.0, 0.0),
              (0.0, 0.0, _F_REF)]).T,
    [*_stencil_tilts(STEP_TILT), np.full(8, _F_REF)]], axis=1)
# the step choice's members among rows 6-14
_STEP_MEMBERS = [0, 1, 5]


@dataclass(frozen=True)
class Batch:
    """The points of one stacked pass: their fields as ``params.stack``
    gives them, and ``built``, their generators at ``REFERENCE_TILTS``."""
    molecule: MoleculeParams
    sample: SampleParams
    derived: DerivedQuantities
    built: np.ndarray = field(repr=False)


def batch(points) -> Batch:
    """The points stacked, with their reference build."""
    stacked = stack(points)
    s1, s2, flux_scale = REFERENCE_TILTS
    return Batch(stacked.molecule, stacked.sample, stacked.derived,
                 build_two_sided(stacked, (-1j * s1, -1j * s2), flux_scale))


@dataclass(frozen=True)
class DiffusionExpansion:
    """One point's expansion, or a stack's with a leading point axis."""
    D1: np.ndarray = field(repr=False)  # 2x2, m^2 (order-J coefficient)
    D2: np.ndarray = field(repr=False)  # 2x2, m^4 s (order-J^2 coefficient)
    fit_residual: float


def dominant_eigenvalue(matrix: np.ndarray):
    """Largest real part of the eigenvalues and its gap to the runner-up.

    An (..., d, d) stack gives arrays of each from one solve (see
    ``_real_eigenvalues``).  For the real tilts used throughout
    (|s| <= 1e-4) the max-real-part branch coincides with the branch
    continuously connected to lambda(0) = 0; the property tests check this
    against eigenvector-overlap tracking.
    """
    values = np.sort(_real_eigenvalues(matrix), axis=-1)
    return values[..., -1], values[..., -1] - values[..., -2]


def _real_eigenvalues(matrix):
    """Real parts of the eigenvalues of an (..., d, d) stack.

    A stack of at least ``_SPLIT_MATRICES`` matrices over two or more
    leading-axis entries is solved in two halves of that axis: a one-worker
    executor solves the second while the caller solves the first.  LAPACK
    runs without the GIL and solves each matrix on its own, so the values
    are those of one call, byte for byte.  A smaller stack is one call and
    starts no thread.  The worker has ended when the call returns, and what
    it raised is raised here.
    """
    if (matrix.ndim < 3 or len(matrix) < 2
            or matrix.size < _SPLIT_MATRICES * matrix.shape[-1] ** 2):
        return np.linalg.eigvals(matrix).real
    # imported on first use: at module level it adds to every import's memory
    from concurrent.futures import ThreadPoolExecutor

    half = len(matrix) // 2
    with ThreadPoolExecutor(1) as executor:
        second = executor.submit(np.linalg.eigvals, matrix[half:])
        first = np.linalg.eigvals(matrix[:half])
        return np.concatenate([first.real, second.result().real])


def _check_gaps(batch, gaps, tilted) -> None:
    """Raise ``GapTooSmall`` (``errors.raise_first``) for the stacked
    points among the ``tilted`` ones (a mask) with a tilt's gap below the
    pipeline's threshold, a fraction of its decay rate."""
    min_gap = GAP_FRACTION * batch.molecule.decay_gamma
    raise_first(((gaps < min_gap).any(axis=-1) & tilted, GapTooSmall,
                 "spectral gap {:.3e} below threshold {:.3e}",
                 gaps.min(axis=-1), min_gap))


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


def _adaptive_steps(batch, tilted):
    """(steps, stencil): per stacked point a finite-difference step below
    the chemical curvature scale of the CGF, which is of order gap/|c1| at
    slow reaction rates, and the (values, gaps) of the Richardson stencil
    at STEP_TILT, (n, 8) arrays.  One eigensolve of rows 6-14 of the
    reference build gives both; the step choice's gaps are checked for the
    ``tilted`` points."""
    values, gaps = dominant_eigenvalue(batch.built[:, 6:])
    _check_gaps(batch, gaps[:, _STEP_MEMBERS], tilted)
    c1_scale = np.abs(values[:, _STEP_MEMBERS[1:]]).max(axis=-1) / STEP_TILT
    # the tilt where c1_scale is 0 or the ratio is nan, as min() gives
    steps = np.divide(0.2 * gaps[:, 0], c1_scale,
                      out=np.full_like(c1_scale, STEP_TILT),
                      where=c1_scale > 0)
    return np.fmin(STEP_TILT, steps), (values[:, 1:], gaps[:, 1:])


def _points(batch, index):
    """The stacked points that ``index`` selects, as ``params.stack``
    gives them."""
    def take(fields):
        return type(fields)(*(value[index] for value in vars(fields).values()))
    return ModelParams(None, take(batch.molecule), take(batch.sample),
                       take(batch.derived))


def first_cumulants(batch: Batch, h, stencil):
    """(c1, gaps): plain d(lambda)/ds_k at the cross sections' reference
    flux in counting-index order, units 1/s, by one Richardson step on
    central differences at steps h and h/2, and the spectral gaps of the
    eight tilts (+-h, +-h/2 on each field), for the points of a ``Batch``
    with an (n,) array of steps: c1 of shape (2, n) and the gaps of shape
    (n, 8).  ``stencil``, the (values, gaps) of the batch's stencil at
    STEP_TILT (``_adaptive_steps``), serves the points whose step is
    STEP_TILT; the others are built and eigensolved at their own step, in
    one eigensolve."""
    values, gaps = stencil
    own = h < STEP_TILT
    if own.any():
        values, gaps = values.copy(), gaps.copy()
        values[own], gaps[own] = _lambda_s(
            _points(batch, own), *_stencil_tilts(h[own]), _F_REF)
    h = np.stack([h, np.divide(h, 2)], axis=-1)           # (n, 2)
    f = values.reshape(-1, 4, 2)                          # (n, tilt, step)
    both = np.array([f[:, 0] - f[:, 1], f[:, 2] - f[:, 3]]) / (2 * h)
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
    the ``GapTooSmall`` of the first point that ends in one.  The step
    choice and the Richardson stencil at STEP_TILT of all points are one
    eigensolve of the reference build; only points whose step comes out
    smaller are built and eigensolved again, at their own step."""
    if not isinstance(params, Batch):
        s1, s2 = cross_sections(batch([params]))
        return s1[0], s2[0]
    der = params.derived
    _warn_if_strong(der.rabi_a, der.rabi_b, params.molecule.decay_gamma)
    j_ref = der.photon_flux_j0[:, 0] * CROSS_SECTION_FLUX_FRACTION
    # a reference flux that underflows to 0 leaves nothing to tilt: the
    # point stays in the stack, unchecked, and gets (0, 0)
    tilted = j_ref > 0
    c1, gaps = first_cumulants(params, *_adaptive_steps(params, tilted))
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


def fit_diffusion_expansion(params, s_plus=None, pin_linear: bool = True):
    """Least-squares fit of the per-molecule rate to D1*J + (1/2)*D2*J^2
    through the origin, on the fluxes ``FIT_FLUXES`` * J0, all ten rates
    from one ``diffusion_rate`` call; a relative residual above
    ``FIT_RESIDUAL_TOL`` raises ``FitResidualExceeded``.  A ``Batch``, with
    its points' S_plus, gives one ``DiffusionExpansion`` of stacked fields,
    (n, 2, 2) coefficients and (n,) residuals, or raises the error of the
    first point whose fit fails: every point's coefficients come from one
    product of the design's projector with the stacked rates.

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
        stacked = fit_diffusion_expansion(
            batch([params]), None if s_plus is None else [s_plus], pin_linear)
        return DiffusionExpansion(stacked.D1[0], stacked.D2[0],
                                  float(stacked.fit_residual[0]))
    j0 = params.derived.photon_flux_j0[..., None]         # (n, 1, 1)
    rates = diffusion_rate(params, j0[..., 0] * FIT_FLUXES).reshape(-1, 10, 4)
    fitted = rates
    if pin_linear:
        if s_plus is None:
            s_plus = np.add(*cross_sections(params))
        d1 = coefficient(s_plus) * np.eye(2)
        fitted = rates - FIT_FLUXES[:, None] * (d1 * j0).reshape(-1, 1, 4)
    coeffs = _PROJECTORS[pin_linear] @ fitted             # (n, 3, 4)
    if not pin_linear:
        d1 = coeffs[:, 0].reshape(-1, 2, 2) / j0
    d2 = 2.0 * coeffs[:, int(not pin_linear)].reshape(-1, 2, 2) / j0**2

    # Judge adequacy against the fitted polynomial family including the
    # nuisance columns: near resonance the saturation corrections to the
    # dominant chemical term are real (few 1e-3 relative) and must not abort
    # sweeps that traverse resonance, while noisy or non-polynomial data
    # still trips the threshold.
    norm = np.linalg.norm(rates, axis=(1, 2))
    residual = np.divide(
        np.linalg.norm(_DESIGNS[pin_linear] @ coeffs - fitted, axis=(1, 2)),
        norm, out=np.zeros_like(norm), where=norm > 0)
    raise_first((residual > FIT_RESIDUAL_TOL, FitResidualExceeded,
                 "intensity expansion residual {:.2e} exceeds "
                 f"{FIT_RESIDUAL_TOL:.0e}", residual))
    return DiffusionExpansion(D1=d1, D2=d2, fit_residual=residual)
