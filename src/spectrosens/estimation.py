"""Detector means, signal vectors, Cramér-Rao sensitivity bounds, the naive
photon-shot-noise estimate, and regime classification.

All sensitivities are reported as relative density precision Delta(rho)/rho in
the SensitivityReport; only ``cramer_rao_full`` returns an absolute
Delta(rho) in m^-3.

Sign conventions: derivatives with respect to the density are carried signed
(attenuation makes d n_p / d rho negative); the quadratic bounds are
sign-invariant so reported sensitivities are unaffected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSignal, SingularCovariance
from .params import ModelParams
from .propagation import V_MINUS, V_PLUS, propagate_mean, z_optimal

SIGNAL_FLOOR = 1e-300
CONDITION_LIMIT = 1e12

# A variance ratio below 1 + REGIME_DELTA counts as shot-noise level, one
# above REGIME_THETA as excess noise.
REGIME_DELTA = 0.1
REGIME_THETA = 2.0

REGIME_PSNL = "PSNL"
REGIME_CL = "CL"
REGIME_IR = "IR"
REGIME_UNCLASSIFIED = "Unclassified"


@dataclass(frozen=True)
class SensitivityReport:
    rel_full: float
    rel_intensity: float
    rel_phase: float
    rel_psn: float
    regime: str
    diagnostics: dict


def homodyne_means(n_plus: float, phase: float, phase_lo: float):
    """Mean counts of the two balanced-homodyne output ports.

    The port splitting is cos^2/sin^2 of (pi/4 + (phase - phase_lo)/2), so the
    sum rule n1 + n2 = n_plus holds identically.
    """
    if n_plus < 0:
        raise ValueError("n_plus must be non-negative")
    angle = np.pi / 4.0 + (phase - phase_lo) / 2.0
    return n_plus * np.cos(angle) ** 2, n_plus * np.sin(angle) ** 2


def _transported_signal(params: ModelParams, s_plus: float, s_minus: float,
                        z: float):
    """(n_p, d n_p/d rho, d phase/d rho, signal vector) at depth z.

    Differentiating the port means gives equal weight 1/2 to the intensity
    (1,1) channel and the phase (1,-1) channel; the projections onto the
    sum/difference vectors recover the full d n_p/d rho and n_p d phase/d rho.
    """
    n_p, _ = propagate_mean(params, s_plus, s_minus, z)
    dn_drho, dphi_drho = -s_plus * z * n_p, s_minus * z
    vec = 0.5 * dn_drho * V_PLUS - 0.5 * n_p * dphi_drho * V_MINUS
    if np.max(np.abs(vec)) < SIGNAL_FLOOR:
        raise DegenerateSignal("signal vector numerically zero")
    return n_p, dn_drho, dphi_drho, vec


def signal_vector(params: ModelParams, s_plus: float, s_minus: float,
                  z: float | None = None) -> np.ndarray:
    """Density derivative of the two homodyne port means at balanced LO, at
    depth z (default z_opt)."""
    if z is None:
        z = z_optimal(params, s_plus)
    return _transported_signal(params, s_plus, s_minus, z)[3]


def cramer_rao_full(signal: np.ndarray, sigma2: np.ndarray) -> float:
    """Gaussian Cramér-Rao bound using both detector channels jointly."""
    sigma2 = np.asarray(sigma2, dtype=float)
    if not np.all(np.isfinite(sigma2)):
        raise SingularCovariance("covariance has non-finite entries")
    if np.linalg.cond(sigma2) > CONDITION_LIMIT:
        raise SingularCovariance(
            f"covariance condition number exceeds {CONDITION_LIMIT:.0e}")
    fisher = float(signal @ np.linalg.solve(sigma2, signal))
    if fisher <= 0:
        raise DegenerateSignal("non-positive Fisher information")
    return 1.0 / math.sqrt(fisher)


def classify_regime(sigma_plus_ratio: float, sigma_minus_ratio: float) -> str:
    """Label the noise regime from the variance-to-shot-noise ratios."""
    near_shot = 1.0 + REGIME_DELTA
    if sigma_plus_ratio < near_shot and sigma_minus_ratio < near_shot:
        return REGIME_PSNL
    if sigma_plus_ratio > REGIME_THETA and sigma_minus_ratio > REGIME_THETA:
        return REGIME_CL
    if sigma_plus_ratio < near_shot and sigma_minus_ratio > REGIME_THETA:
        return REGIME_IR
    return REGIME_UNCLASSIFIED


def sensitivity_report(params: ModelParams, s_plus: float, s_minus: float,
                       sigma2: np.ndarray, z: float) -> SensitivityReport:
    """All relative sensitivity bounds and the regime label at depth z, from
    one transported mean.

    Direct photodetection (intensity-only) mixes in no local oscillator, so
    its vacuum contribution n_p is removed from the sum-channel variance.  The
    phase-only bound is infinite where there is no phase signal (resonance).
    The shot-noise estimate is the Gaussian bound with the isotropic shot
    covariance n_p * 1 (sigma_PSN^2 = 2 n_p in each +/- combination); it stays
    meaningful when both channels contribute.
    """
    rho = params.sample.density_rho_m
    n_p, dn_drho, dphi_drho, signal = _transported_signal(
        params, s_plus, s_minus, z)
    sigma_plus_sq = float(V_PLUS @ sigma2 @ V_PLUS)
    sigma_minus_sq = float(V_MINUS @ sigma2 @ V_MINUS)
    psn = 2.0 * n_p
    rel_full = cramer_rao_full(signal, sigma2) / rho

    if abs(dn_drho) < SIGNAL_FLOOR:
        raise DegenerateSignal("intensity signal derivative is zero")
    variance = sigma_plus_sq - n_p
    if variance <= 0:
        raise SingularCovariance("non-positive direct-detection variance")
    rel_intensity = math.sqrt(variance) / abs(dn_drho) / rho

    phase_slope = n_p * dphi_drho
    if abs(phase_slope) < SIGNAL_FLOOR:
        rel_phase = math.inf
    elif sigma_minus_sq <= 0:
        raise SingularCovariance("non-positive difference-channel variance")
    else:
        rel_phase = math.sqrt(sigma_minus_sq) / abs(phase_slope) / rho

    try:
        slope_sq = float(V_PLUS @ signal) ** 2 + float(V_MINUS @ signal) ** 2
    except OverflowError:
        raise DegenerateSignal(
            "channel projections leave the float range") from None
    if slope_sq < SIGNAL_FLOOR:
        raise DegenerateSignal("both channel projections are zero")
    rel_psn = math.sqrt(psn / slope_sq) / rho

    ratios = (sigma_plus_sq / psn, sigma_minus_sq / psn)
    return SensitivityReport(
        rel_full=rel_full,
        rel_intensity=rel_intensity,
        rel_phase=rel_phase,
        rel_psn=rel_psn,
        regime=classify_regime(*ratios),
        diagnostics={"sigma_plus_ratio": ratios[0],
                     "sigma_minus_ratio": ratios[1]},
    )
