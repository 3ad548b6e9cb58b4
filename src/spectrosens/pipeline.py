"""End-to-end evaluation of a parameter point: cross sections, diffusion
expansion, transported covariance, and the sensitivity report.

Two routes are provided.  The ``full`` route extracts everything from the
dominant eigenvalue of the tilted superoperator; the ``adiabatic`` route uses
the conditioned-statistics composition, valid for slow chemical rates.
``both`` runs the two and records their relative deviation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import adiabatic, fcs
from .estimation import SensitivityReport, sensitivity_report
from .liouvillian import CountingField, build_two_sided
from .params import ModelParams
from .propagation import covariance_closed_form, z_optimal

ROUTES = ("full", "adiabatic", "both")

# The chemical relaxation mode makes the gap scale with r_A + r_B, far below
# the electronic scale at slow rates; the pipeline therefore uses a much
# looser gap threshold than the single-call default.
PIPELINE_GAP_FACTOR = 1e-10


@dataclass(frozen=True)
class PointResult:
    s_plus: float
    s_minus: float
    expansion: fcs.DiffusionExpansion
    sigma2: np.ndarray = field(repr=False)
    report: SensitivityReport = None
    route: str = "full"
    spectral_gap: float = 0.0
    route_deviation: float | None = None


def _spectral_gap(params: ModelParams) -> float:
    liou = build_two_sided(params, CountingField(0.0, 0.0))
    _, gap = fcs.dominant_eigenvalue(liou)
    return gap


def _route_quantities(params: ModelParams, route: str, min_gap: float):
    if route == "full":
        s1, s2 = fcs.cross_sections(params, min_gap=min_gap)
        expansion = fcs.fit_diffusion_expansion(params, min_gap=min_gap,
                                                s_plus=s1 + s2)
    elif route == "adiabatic":
        adiabatic.warn_if_nonadiabatic(params)
        j_ref = params.derived.photon_flux_j0 * fcs.CROSS_SECTION_FLUX_FRACTION
        p_a, p_b = adiabatic.stationary_probabilities(params)
        c1 = (p_a * adiabatic.conditioned_first_cumulants(params, "A", j_ref)
              + p_b * adiabatic.conditioned_first_cumulants(params, "B", j_ref))
        s1, s2 = c1[1] / j_ref, c1[0] / j_ref
        expansion = fcs.fit_diffusion_expansion(
            params, rate_fn=lambda p, j: adiabatic.adiabatic_rate(p, j),
            s_plus=s1 + s2)
    else:
        raise ValueError(f"unknown route {route!r}")
    return s1 + s2, s1 - s2, expansion


def _relative_deviation(full, adia):
    """Largest relative mismatch over S+/- and the expansion coefficients."""
    devs = []
    for a, b in ((full[0], adia[0]), (full[1], adia[1])):
        scale = max(abs(a), abs(b), 1e-300)
        devs.append(abs(a - b) / scale)
    for attr in ("D1", "D2"):
        ma, mb = getattr(full[2], attr), getattr(adia[2], attr)
        scale = max(np.max(np.abs(ma)), np.max(np.abs(mb)), 1e-300)
        devs.append(np.max(np.abs(ma - mb)) / scale)
    return float(max(devs))


def evaluate_point(params: ModelParams, route: str = "full") -> PointResult:
    """Run the complete pipeline at one parameter point."""
    if route not in ROUTES:
        raise ValueError(f"route must be one of {ROUTES}")
    min_gap = PIPELINE_GAP_FACTOR * params.molecule.decay_gamma
    gap = _spectral_gap(params)

    deviation = None
    if route == "both":
        full_q = _route_quantities(params, "full", min_gap)
        adia_q = _route_quantities(params, "adiabatic", min_gap)
        deviation = _relative_deviation(full_q, adia_q)
        s_plus, s_minus, expansion = full_q
        route_used = "both"
    else:
        s_plus, s_minus, expansion = _route_quantities(params, route, min_gap)
        route_used = route

    z = params.sample.thickness
    if z is None:
        z = z_optimal(params, s_plus)
    sigma2 = covariance_closed_form(params, s_plus, expansion.D1,
                                    expansion.D2, z)
    report = sensitivity_report(params, s_plus, s_minus, sigma2, z=z)
    return PointResult(
        s_plus=s_plus, s_minus=s_minus, expansion=expansion, sigma2=sigma2,
        report=report, route=route_used, spectral_gap=gap,
        route_deviation=deviation,
    )
