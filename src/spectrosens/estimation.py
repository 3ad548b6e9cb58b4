"""Detector means, signal vectors, Cramér-Rao sensitivity bounds, the naive
photon-shot-noise estimate, and regime classification.

All sensitivities are reported as relative density precision Delta(rho)/rho in
the SensitivityReport; only ``cramer_rao_full`` returns an absolute
Delta(rho) in m^-3.

Sign conventions: derivatives with respect to the density are carried signed
(attenuation makes d n_p / d rho negative); the quadratic bounds are
sign-invariant so reported sensitivities are unaffected.  Functions take one
point or stacked points, as in ``propagation``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSignal, SingularCovariance, raise_first, some
from .params import ModelParams, coefficient, power
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
_LABELS = np.array([REGIME_UNCLASSIFIED, REGIME_PSNL, REGIME_CL, REGIME_IR])


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


def _transported_signal(params: ModelParams, s_plus, s_minus, z):
    """(n_p, d n_p/d rho, d phase/d rho, signal vector) at depth z.

    Differentiating the port means gives equal weight 1/2 to the intensity
    (1,1) channel and the phase (1,-1) channel; the projections onto the
    sum/difference vectors recover the full d n_p/d rho and n_p d phase/d rho.
    """
    n_p, _ = propagate_mean(params, s_plus, s_minus, z)
    dn_drho, dphi_drho = -s_plus * z * n_p, s_minus * z
    vec = ((0.5 * dn_drho)[..., None] * V_PLUS
           - (0.5 * n_p * dphi_drho)[..., None] * V_MINUS)
    return n_p, dn_drho, dphi_drho, vec


def _zero_signal(vec):
    return (np.abs(vec).max(axis=-1) < SIGNAL_FLOOR, DegenerateSignal,
            "signal vector numerically zero")


def signal_vector(params: ModelParams, s_plus: float, s_minus: float,
                  z: float | None = None) -> np.ndarray:
    """Density derivative of the two homodyne port means at balanced LO, at
    depth z (default z_opt)."""
    if z is None:
        z = z_optimal(params, s_plus)
    vec = _transported_signal(params, s_plus, s_minus, z)[3]
    raise_first(_zero_signal(vec))
    return vec


def cramer_rao_full(signal: np.ndarray, sigma2: np.ndarray, checks=None):
    """Gaussian Cramér-Rao bound using both detector channels jointly.  Its
    checks (see ``errors.raise_first``) raise, or join a list ``checks``.
    A point that fails one solves the identity instead, so that the stacked
    solve cannot fail; its (..., 2, 1) right-hand sides are matrices to
    numpy < 2 and 2 alike."""
    sigma2 = np.asarray(sigma2, dtype=float)
    nonfinite = ~np.isfinite(sigma2).all(axis=(-2, -1))
    solvable = sigma2
    if some(nonfinite):
        solvable = np.where(coefficient(nonfinite), np.eye(2), sigma2)
    ill = np.linalg.cond(solvable) > CONDITION_LIMIT
    if some(ill):
        solvable = np.where(coefficient(ill), np.eye(2), solvable)
    fisher = (signal[..., None, :]
              @ np.linalg.solve(solvable, signal[..., None]))[..., 0, 0]
    own = [(nonfinite, SingularCovariance, "covariance has non-finite entries"),
           (ill, SingularCovariance,
            f"covariance condition number exceeds {CONDITION_LIMIT:.0e}"),
           (fisher <= 0, DegenerateSignal, "non-positive Fisher information")]
    if checks is None:
        raise_first(*own)
    else:
        checks += own
    return 1.0 / np.sqrt(fisher)


def classify_regime(sigma_plus_ratio, sigma_minus_ratio):
    """Label the noise regime from the variance-to-shot-noise ratios, of
    one point or of stacked points."""
    near_shot = 1.0 + REGIME_DELTA
    plus_low = sigma_plus_ratio < near_shot
    minus_high = sigma_minus_ratio > REGIME_THETA
    # the labelled regimes exclude each other, so at most one term is set
    return _LABELS[(plus_low & (sigma_minus_ratio < near_shot))
                   + 2 * ((sigma_plus_ratio > REGIME_THETA) & minus_high)
                   + 3 * (plus_low & minus_high)]


def sensitivity_report(params: ModelParams, s_plus, s_minus,
                       sigma2: np.ndarray, z) -> SensitivityReport:
    """All relative sensitivity bounds and the regime label at depth z, from
    one transported mean.

    Direct photodetection (intensity-only) mixes in no local oscillator, so
    its vacuum contribution n_p is removed from the sum-channel variance.  The
    phase-only bound is infinite where there is no phase signal (resonance).
    The shot-noise estimate is the Gaussian bound with the isotropic shot
    covariance n_p * 1 (sigma_PSN^2 = 2 n_p in each +/- combination); it stays
    meaningful when both channels contribute.  A sum of squared channel
    projections beyond the float range raises ``DegenerateSignal``.
    """
    rho = params.sample.density_rho_m
    n_p, dn_drho, dphi_drho, signal = _transported_signal(
        params, s_plus, s_minus, z)
    # V_PLUS @ sigma2 @ V_PLUS and V_MINUS @ sigma2 @ V_MINUS
    sums = sigma2[..., 0, :] + sigma2[..., 1, :]
    differences = sigma2[..., 0, :] - sigma2[..., 1, :]
    sigma_plus_sq = sums[..., 0] + sums[..., 1]
    sigma_minus_sq = differences[..., 0] - differences[..., 1]
    psn = 2.0 * n_p
    checks = [_zero_signal(signal)]
    rel_full = cramer_rao_full(signal, sigma2, checks) / rho

    variance = sigma_plus_sq - n_p
    intensity_slope = np.abs(dn_drho)
    rel_intensity = np.sqrt(variance) / intensity_slope / rho

    phase_slope = np.abs(n_p * dphi_drho)
    flat = phase_slope < SIGNAL_FLOOR
    rel_phase = np.divide(np.sqrt(sigma_minus_sq), phase_slope,
                          out=np.full(np.shape(flat), np.inf),
                          where=~flat) / rho

    slope_sq = (power(signal[..., 0] + signal[..., 1], 2)
                + power(signal[..., 0] - signal[..., 1], 2))
    rel_psn = np.sqrt(psn / slope_sq) / rho

    raise_first(
        *checks,
        (intensity_slope < SIGNAL_FLOOR, DegenerateSignal,
         "intensity signal derivative is zero"),
        (variance <= 0, SingularCovariance,
         "non-positive direct-detection variance"),
        (~flat & (sigma_minus_sq <= 0), SingularCovariance,
         "non-positive difference-channel variance"),
        (~np.isfinite(slope_sq), DegenerateSignal,
         "channel projections leave the float range"),
        (slope_sq < SIGNAL_FLOOR, DegenerateSignal,
         "both channel projections are zero"))
    ratios = (sigma_plus_sq / psn, sigma_minus_sq / psn)
    return SensitivityReport(
        rel_full, rel_intensity, rel_phase, rel_psn, classify_regime(*ratios),
        {"sigma_plus_ratio": ratios[0], "sigma_minus_ratio": ratios[1]})
