import math

import numpy as np
import pytest

from spectrosens import fcs, oracles, propagation
from spectrosens.errors import DegenerateAbsorption
from spectrosens.params import from_config
from spectrosens.pipeline import evaluate_point


def test_z_optimal_scaling(default_params):
    s_plus = 5e-17
    z1 = propagation.z_optimal(default_params, s_plus)
    doubled = default_params.with_density(
        2 * default_params.sample.density_rho_m)
    assert propagation.z_optimal(doubled, s_plus) == pytest.approx(
        z1 / 2, rel=1e-12)


def test_z_optimal_degenerate(default_params):
    with pytest.raises(DegenerateAbsorption):
        propagation.z_optimal(default_params, 0.0)
    with pytest.raises(DegenerateAbsorption):
        propagation.z_optimal(default_params, 1e-41)


def test_propagate_mean(default_params):
    s_plus, s_minus = 5e-17, 2e-16
    n0, phase0 = propagation.propagate_mean(default_params, s_plus, s_minus, 0.0)
    assert n0 == pytest.approx(default_params.derived.n_p0)
    assert phase0 == 0.0
    z_opt = propagation.z_optimal(default_params, s_plus)
    n, phase = propagation.propagate_mean(default_params, s_plus, s_minus, z_opt)
    assert n == pytest.approx(default_params.derived.n_p0 / math.e, rel=1e-12)
    assert phase == pytest.approx(s_minus / s_plus, rel=1e-12)
    # resonance: no phase at any depth
    _, phase_res = propagation.propagate_mean(default_params, s_plus, 0.0, 0.013)
    assert phase_res == 0.0


@pytest.mark.parametrize("z", [-0.01, math.nan, math.inf])
def test_depth_must_be_finite_and_non_negative(default_params, z):
    """A negative or non-finite depth is refused, not turned into NaN
    means and covariances."""
    s_plus, zero = 5e-17, np.zeros((2, 2))
    with pytest.raises(ValueError, match="z must be finite and non-negative"):
        propagation.propagate_mean(default_params, s_plus, 2e-16, z)
    with pytest.raises(ValueError, match="z must be finite and non-negative"):
        propagation.covariance_closed_form(default_params, s_plus, zero,
                                           zero, z)


def test_monotone_attenuation(default_params):
    s_plus = 5e-17
    zs = np.linspace(0.0, 3 / (default_params.sample.density_rho_m * s_plus), 40)
    ns = [propagation.propagate_mean(default_params, s_plus, 0.0, z)[0]
          for z in zs]
    assert np.all(np.diff(ns) < 0)


def test_covariance_pure_attenuation(default_params):
    s_plus = 5e-17
    zero = np.zeros((2, 2))
    z_opt = propagation.z_optimal(default_params, s_plus)
    sigma2 = propagation.covariance_closed_form(default_params, s_plus,
                                                zero, zero, z_opt)
    expected = default_params.derived.n_p0 / math.e**2
    assert np.allclose(sigma2, expected * np.eye(2), rtol=1e-12)
    at_zero = propagation.covariance_closed_form(default_params, s_plus,
                                                 zero, zero, 0.0)
    assert np.allclose(at_zero, default_params.derived.n_p0 * np.eye(2))


def test_closed_form_matches_quadrature_grid():
    """Transport closed form vs direct quadrature of the fitted expansion on
    a detuning/rate grid."""
    for eps in (0.0, 10.0, 40.0):
        for rate in (1e-5, 1e-3):
            params = from_config({"detuning_a_mhz": eps,
                                  "rate_a_mhz": rate, "rate_b_mhz": rate})
            exp = fcs.fit_diffusion_expansion(params)
            s1, s2 = fcs.cross_sections(params)
            s_plus = s1 + s2
            z = propagation.z_optimal(params, s_plus)
            closed = propagation.covariance_closed_form(
                params, s_plus, exp.D1, exp.D2, z)
            rate_fn = lambda j: exp.D1 * j + 0.5 * exp.D2 * j * j
            quad = oracles.quadrature_covariance(params, rate_fn, s_plus, z)
            assert np.max(np.abs(closed - quad)) <= 1e-6 * np.max(np.abs(quad))


def test_covariance_psd_along_depth(default_params):
    exp = fcs.fit_diffusion_expansion(default_params)
    s1, s2 = fcs.cross_sections(default_params)
    s_plus = s1 + s2
    z_opt = propagation.z_optimal(default_params, s_plus)
    for z in np.linspace(0.0, 3 * z_opt, 25):
        sigma2 = propagation.covariance_closed_form(default_params, s_plus,
                                                    exp.D1, exp.D2, z)
        assert np.min(np.linalg.eigvalsh(sigma2)) > 0


def test_pipeline_uses_fixed_thickness():
    params = from_config({"thickness_m": 0.02})
    result = evaluate_point(params)
    sigma2 = propagation.covariance_closed_form(
        params, result.s_plus, result.expansion.D1, result.expansion.D2,
        z=0.02)
    assert np.array_equal(result.sigma2, sigma2)
