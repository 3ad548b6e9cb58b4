"""End-to-end evaluation of parameter points: cross sections, diffusion
expansion, transported covariance, and the sensitivity report.  A list of
points is evaluated in one stacked pass (``evaluate_points``), and a single
point is that pass at one point (``evaluate_point``): a stack of one, which
runs the same code as any other pass.

Two routes are provided.  The ``full`` route extracts everything from the
tilted superoperator of the chemical model; the ``adiabatic`` route is the
weak-field conditioned-statistics composition in closed form, valid for slow
chemical rates.  ``both`` runs the two and records their relative deviation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import adiabatic, fcs
from .errors import POINT_ERRORS, SingularCovariance, raise_first
from .estimation import SensitivityReport, sensitivity_report
from .liouvillian import BETWEEN, WITHIN, build_two_sided, sector
from .params import ModelParams, stack
from .propagation import covariance_closed_form, z_optimal

ROUTES = ("full", "adiabatic", "both")


@dataclass(frozen=True)
class PointResult:
    s_plus: float
    s_minus: float
    expansion: fcs.DiffusionExpansion
    sigma2: np.ndarray = field(repr=False)
    report: SensitivityReport
    route: str
    spectral_gap: float
    route_deviation: float | None


def _spectral_gaps(liou) -> np.ndarray:
    """Per stacked point the gap between the top two real parts of its
    untilted generator's spectrum (``liou``, of shape (n, 1, 16, 16)), the
    union of its two sectors' spectra, from one eigensolve of all points'
    8x8 sector blocks."""
    blocks = np.concatenate([sector(liou, WITHIN), sector(liou, BETWEEN)],
                            axis=-3)
    values = np.sort(np.linalg.eigvals(blocks).real.reshape(len(liou), -1))
    return values[:, -1] - values[:, -2]


def _full_quantities(batch):
    """(S+, S-, D1, D2, fit residual) of the full route, in the (n, 1)
    shape of the stacked fields."""
    # looked up per call, so that wrappers installed on the modules apply
    s1, s2 = fcs.cross_sections(batch)
    expansion = fcs.fit_diffusion_expansion(batch, s1 + s2)
    return ((s1 + s2)[:, None], (s1 - s2)[:, None], expansion.D1[:, None],
            expansion.D2[:, None], expansion.fit_residual[:, None])


def _adiabatic_quantities(params):
    """(S+, S-, D1, D2, fit residual) of the adiabatic route."""
    s_plus, s_minus, expansion = adiabatic.weak_field_expansion(params)
    return (s_plus, s_minus, expansion.D1, expansion.D2, 0.0 * s_plus)


def _relative_deviation(full, adia):
    """Largest relative mismatch over the complex cross section S+ + iS- and
    the expansion coefficients.  S+/- are compared together because on
    resonance S- is zero up to finite-difference noise, which a scale of its
    own would turn into a mismatch of 1.  ``np.hypot`` is the modulus of a
    Python complex, bit for bit."""
    devs = [np.hypot(full[0] - adia[0], full[1] - adia[1])
            / np.maximum(np.maximum(np.hypot(full[0], full[1]),
                                    np.hypot(adia[0], adia[1])), 1e-300)]
    for ma, mb in zip(full[2:4], adia[2:4]):
        scale = np.maximum(np.maximum(np.abs(ma).max(axis=(-2, -1)),
                                      np.abs(mb).max(axis=(-2, -1))), 1e-300)
        devs.append(np.abs(ma - mb).max(axis=(-2, -1)) / scale)
    return np.maximum.reduce(devs)


def _result(params, s_plus, s_minus, d1, d2):
    """(sigma2, report) at each point's fixed depth or, where it has none
    (nan), at z_opt."""
    optimal = np.isnan(params.sample.thickness)
    # a fixed-depth point needs no optimal depth: an infinite S+ passes the
    # threshold and gives depth 0, which its thickness replaces
    z = np.where(optimal, z_optimal(params, np.where(optimal, s_plus, np.inf)),
                 params.sample.thickness)
    # rho_M S+ underflows (density 1e-300): the optimal depth, and the
    # covariance transported that far, leave the float range
    raise_first((~np.isfinite(z), SingularCovariance,
                 "covariance has non-finite entries"))
    sigma2 = covariance_closed_form(params, s_plus, d1, d2, z)
    return sigma2, sensitivity_report(params, s_plus, s_minus, sigma2, z)


def _evaluate(points, route) -> list:
    if route == "adiabatic":
        stacked = stack(points)
        gaps = _spectral_gaps(build_two_sided(stacked, (0.0, 0.0)))
        quantities = _adiabatic_quantities(stacked)
    else:
        # the untilted generator is the first member of the reference build
        # that the full route's cross sections and expansion share
        stacked = fcs.batch(points)
        gaps = _spectral_gaps(stacked.built[:, :1])
        quantities = _full_quantities(stacked)
    deviations = [None] * len(points)
    if route == "both":
        deviations = _relative_deviation(
            quantities, _adiabatic_quantities(stacked)).ravel().tolist()
    sigma2, report = _result(stacked, *quantities[:4])
    numbers = [value.ravel().tolist() for value in (
        *quantities[:2], quantities[4], report.rel_full,
        report.rel_intensity, report.rel_phase, report.rel_psn,
        report.regime, *report.diagnostics.values())]
    return [PointResult(
        s_plus, s_minus, fcs.DiffusionExpansion(d1, d2, residual), cov,
        SensitivityReport(full, intensity, phase, psn, regime,
                          {"sigma_plus_ratio": plus,
                           "sigma_minus_ratio": minus}),
        route, gap, deviation)
        for (s_plus, s_minus, residual, full, intensity, phase, psn, regime,
             plus, minus, d1, d2, cov, gap, deviation) in zip(
            *numbers, *(value[:, 0] for value in (*quantities[2:4], sigma2)),
            gaps, deviations)]


def _pointwise(fn, points) -> list:
    """``fn(points)``, one outcome per point.  A ``POINT_ERRORS`` raised
    with one ``outcomes`` entry per point (``errors.raise_first``) gives the
    points it names their errors and runs the rest again, once; any other
    runs each half again, down to single points."""
    if not points:
        return []
    try:
        return fn(points)
    except POINT_ERRORS as exc:
        # the error's outcomes hold the error itself, and its traceback the
        # pass's frames: dropping both lets reference counting free them
        outcomes = vars(exc).pop("outcomes", ())
        exc.__traceback__ = None
        if len(outcomes) == len(points):
            rest = iter(_pointwise(fn, [point for point, error in zip(
                points, outcomes) if error is None]))
            return [error or next(rest) for error in outcomes]
        if len(points) == 1:
            return [exc]
        half = len(points) // 2
        return _pointwise(fn, points[:half]) + _pointwise(fn, points[half:])


def evaluate_points(points, route: str = "full") -> list:
    """Run the complete pipeline at parameter points, any iterable of them,
    in one stacked pass; returns per point its ``PointResult`` or the error
    it ended in (``POINT_ERRORS``).

    Every stage runs for all points at once, on arrays along a leading
    point axis, a pass of one point too: the full route's generator build
    (``fcs.batch``'s reference build, and the Richardson stencil of any
    point whose step falls below ``fcs.STEP_TILT``), its eigensolves,
    bordered solves and flux fit, the adiabatic route's closed forms, the
    transport and the report.  A stage's checks raise through
    ``errors.raise_first``, which names the error each failing point raises
    alone; those points end in it and the rest run again in one pass, so
    points failing k distinct checks cost at most k + 1 passes.  Another
    error (``LinAlgError``, ``ArithmeticError``) reruns each half of the
    pass, down to single points: 2 log2(n) + 1 passes for one among n.

    This is the one place that sets numpy's floating-point error state.
    Far out in rate, detuning or density the arithmetic saturates to 0, inf
    or nan without a warning, and the typed checks downstream turn
    non-finite results into ``ModelError``s, so the only warnings a point
    raises are physics warnings."""
    if route not in ROUTES:
        raise ValueError(f"route must be one of {ROUTES}")
    with np.errstate(all="ignore"):
        return _pointwise(lambda pass_points: _evaluate(pass_points, route),
                          list(points))


def evaluate_point(params: ModelParams, route: str = "full") -> PointResult:
    """Run the complete pipeline at one parameter point: ``evaluate_points``
    at one point, raising the error it ended in."""
    result, = evaluate_points([params], route)
    if isinstance(result, Exception):
        raise result
    return result
