"""End-to-end evaluation of a parameter point: cross sections, diffusion
expansion, transported covariance, and the sensitivity report.

Two routes are provided.  The ``full`` route extracts everything from the
tilted superoperator of the chemical model; the ``adiabatic`` route is the
weak-field conditioned-statistics composition in closed form, valid for slow
chemical rates.  ``both`` runs the two and records their relative deviation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import adiabatic, fcs
from .estimation import SensitivityReport, sensitivity_report
from .liouvillian import BETWEEN, WITHIN, build_two_sided, sector
from .params import ModelParams
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


def _spectral_gap(params: ModelParams) -> float:
    """Gap between the top two real parts of the untilted generator's
    spectrum, the union of its two sectors' spectra, from one stacked
    eigensolve of the 8x8 sector blocks."""
    liou = build_two_sided(params, (0.0, 0.0))
    blocks = np.stack([sector(liou, WITHIN), sector(liou, BETWEEN)])
    second, top = np.sort(np.linalg.eigvals(blocks).real, axis=None)[-2:]
    return top - second


def _route_quantities(params: ModelParams, route: str):
    # looked up per call, so that wrappers installed on the modules apply
    if route == "adiabatic":
        return adiabatic.weak_field_expansion(params)
    s1, s2 = fcs.cross_sections(params)
    expansion = fcs.fit_diffusion_expansion(params, s_plus=s1 + s2)
    return s1 + s2, s1 - s2, expansion


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


def evaluate_point(params: ModelParams, route: str = "full") -> PointResult:
    """Run the complete pipeline at one parameter point.

    This is the one place that sets numpy's floating-point error state.
    Far out in rate, detuning or density the arithmetic saturates to 0, inf
    or nan without a warning, and the typed checks downstream turn
    non-finite results into ``ModelError``s, so the only warnings a point
    raises are physics warnings."""
    if route not in ROUTES:
        raise ValueError(f"route must be one of {ROUTES}")
    with np.errstate(all="ignore"):
        gap = _spectral_gap(params)

        deviation = None
        if route == "both":
            full_q = _route_quantities(params, "full")
            adia_q = _route_quantities(params, "adiabatic")
            deviation = _relative_deviation(full_q, adia_q)
            s_plus, s_minus, expansion = full_q
        else:
            s_plus, s_minus, expansion = _route_quantities(params, route)

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
