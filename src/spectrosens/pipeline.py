"""End-to-end evaluation of parameter points: cross sections, diffusion
expansion, transported covariance, and the sensitivity report.  A list of
points is evaluated in one stacked pass (``evaluate_points``), and a single
point is that pass at one point (``evaluate_point``).

Two routes are provided.  The ``full`` route extracts everything from the
tilted superoperator of the chemical model; the ``adiabatic`` route is the
weak-field conditioned-statistics composition in closed form, valid for slow
chemical rates.  ``both`` runs the two and records their relative deviation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import adiabatic, fcs
from .errors import POINT_ERRORS
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


def _spectral_gaps(batch) -> list:
    """Per stacked point the gap between the top two real parts of the
    untilted generator's spectrum, the union of its two sectors' spectra,
    from one eigensolve of all points' 8x8 sector blocks."""
    liou = build_two_sided(batch, (0.0, 0.0))             # (n, 1, 16, 16)
    blocks = np.concatenate([sector(liou, WITHIN), sector(liou, BETWEEN)],
                            axis=-3)
    values = np.sort(np.linalg.eigvals(blocks).real.reshape(len(liou), -1))
    return list(values[:, -1] - values[:, -2])


def _full_quantities(batch) -> list:
    """Per stacked point (S+, S-, DiffusionExpansion) of the full route, or
    the error it ended in."""
    # looked up per call, so that wrappers installed on the modules apply
    cross = fcs.cross_sections(batch)
    s_plus = fcs.each(lambda c: c[0] + c[1], cross)
    expansion = fcs.stacked(fcs.fit_diffusion_expansion, batch, s_plus)
    return fcs.each(lambda c, e: (c[0] + c[1], c[0] - c[1], e), cross,
                    expansion)


def _relative_deviation(full, adia):
    """Largest relative mismatch over the complex cross section S+ + iS- and
    the expansion coefficients.  S+/- are compared together because on
    resonance S- is zero up to finite-difference noise, which a scale of its
    own would turn into a mismatch of 1."""
    a, b = complex(full[0], full[1]), complex(adia[0], adia[1])
    devs = [abs(a - b) / max(abs(a), abs(b), 1e-300)]
    for attr in ("D1", "D2"):
        ma, mb = getattr(full[2], attr), getattr(adia[2], attr)
        scale = max(np.max(np.abs(ma)), np.max(np.abs(mb)), 1e-300)
        devs.append(np.max(np.abs(ma - mb)) / scale)
    return float(max(devs))


def _result(params, quantities, gap, route, deviation=None) -> PointResult:
    s_plus, s_minus, expansion = quantities
    z = params.sample.thickness
    if z is None:
        z = z_optimal(params, s_plus)
    sigma2 = covariance_closed_form(params, s_plus, expansion.D1,
                                    expansion.D2, z)
    report = sensitivity_report(params, s_plus, s_minus, sigma2, z)
    return PointResult(
        s_plus=s_plus, s_minus=s_minus, expansion=expansion, sigma2=sigma2,
        report=report, route=route, spectral_gap=gap,
        route_deviation=deviation,
    )


def _evaluate(points, route) -> list:
    batch = stack(points)
    gaps = _spectral_gaps(batch)
    if route == "adiabatic":
        quantities = fcs.each(adiabatic.weak_field_expansion, points)
    else:
        quantities = _full_quantities(batch)
    if route != "both":
        return fcs.each(lambda *row: _result(*row, route), points,
                        quantities, gaps)
    # only the points whose full route succeeded take the adiabatic route
    adia = fcs.each(lambda p, _: adiabatic.weak_field_expansion(p), points,
                    quantities)
    return fcs.each(lambda p, f, a, g: _result(p, f, g, route,
                                                _relative_deviation(f, a)),
                    points, quantities, adia, gaps)


def _pointwise(fn, points) -> list:
    """``fn(points)``, one outcome per point.  When the stacked call raises
    one of ``POINT_ERRORS``, ``fn`` runs point by point, so that only
    the points that raise end in that error."""
    try:
        return fn(points)
    except POINT_ERRORS as exc:
        if len(points) == 1:
            return [exc]
        return [_pointwise(fn, [point])[0] for point in points]


def evaluate_points(points, route: str = "full") -> list:
    """Run the complete pipeline at a list of parameter points in one
    stacked pass; returns per point its ``PointResult`` or the error it
    ended in (``POINT_ERRORS``).

    The generators, eigensolves and bordered solves of the full route run
    for all points at once along a leading point axis (``params.stack``):
    five generator builds, three eigensolves (the gaps, the step choice and
    the Richardson stencil) and the two bordered solves of the intensity
    expansion.  The flux fit, the adiabatic route, the transport and the
    report run point by point, and a point that fails a stage drops out of
    the later ones.  When a stacked call raises, the pass is repeated point
    by point, so that only the points that raise end in that error.

    This is the one place that sets numpy's floating-point error state.
    Far out in rate, detuning or density the arithmetic saturates to 0, inf
    or nan without a warning, and the typed checks downstream turn
    non-finite results into ``ModelError``s, so the only warnings a point
    raises are physics warnings."""
    if route not in ROUTES:
        raise ValueError(f"route must be one of {ROUTES}")
    if not points:
        return []
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
