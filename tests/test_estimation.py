import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spectrosens import estimation, fcs, oracles, propagation
from spectrosens.errors import SingularCovariance
from spectrosens.params import from_config
from spectrosens.pipeline import evaluate_point

finite = st.floats(min_value=-10.0, max_value=10.0,
                   allow_nan=False, allow_infinity=False)


def test_homodyne_means_balanced():
    n1, n2 = estimation.homodyne_means(10.0, 0.3, 0.3)
    assert n1 == pytest.approx(5.0)
    assert n2 == pytest.approx(5.0)


def test_homodyne_means_quadrature_point():
    n1, n2 = estimation.homodyne_means(8.0, math.pi / 2, 0.0)
    assert n1 == pytest.approx(0.0, abs=1e-12)
    assert n2 == pytest.approx(8.0, rel=1e-12)


@given(n_plus=st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
       phase=finite, phase_lo=finite)
def test_homodyne_sum_rule(n_plus, phase, phase_lo):
    n1, n2 = estimation.homodyne_means(n_plus, phase, phase_lo)
    assert n1 + n2 == pytest.approx(n_plus, abs=1e-12 * max(1.0, n_plus))
    assert n1 >= 0 and n2 >= 0


def test_signal_vector_structure(default_params):
    s_plus = 5e-17
    sig = estimation.signal_vector(default_params, s_plus, 0.0)
    # pure intensity channel at resonance
    assert sig[0] == pytest.approx(sig[1], rel=1e-12)
    sig2 = estimation.signal_vector(default_params, s_plus, 20 * s_plus)
    vp, vm = np.array([1.0, 1.0]), np.array([1.0, -1.0])
    assert abs(vm @ sig2) > 5 * abs(vp @ sig2)


def test_signal_vector_matches_finite_difference(default_params):
    """Both components reproduced by differentiating the port means of the
    transported beam with respect to the density at fixed depth."""
    s1, s2 = fcs.cross_sections(default_params)
    s_plus, s_minus = s1 + s2, s1 - s2
    rho = default_params.sample.density_rho_m
    z = propagation.z_optimal(default_params, s_plus)
    # the local oscillator is balanced at the working point
    phase_lo = rho * s_minus * z

    def port(k):
        def f(rho_val):
            p = default_params.with_density(rho_val)
            n_p, phase = propagation.propagate_mean(p, s_plus, s_minus, z)
            return estimation.homodyne_means(n_p, phase, phase_lo)[k]
        return f

    sig = estimation.signal_vector(default_params, s_plus, s_minus)
    for k in (0, 1):
        fd, _ = oracles.fd_pipeline_derivative(port(k), rho)
        assert sig[k] == pytest.approx(fd, rel=1e-6)


def test_cramer_rao_full_isotropic():
    sigma2 = 4.0 * np.eye(2)
    signal = np.array([3.0, 3.0])
    assert estimation.cramer_rao_full(signal, sigma2) == pytest.approx(
        2.0 / (3.0 * math.sqrt(2.0)))


def test_cramer_rao_full_singular():
    with pytest.raises(SingularCovariance):
        estimation.cramer_rao_full(np.array([1.0, 1.0]),
                                   np.array([[1.0, 1.0], [1.0, 1.0]]))


@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=0.1, max_value=10.0),
       st.floats(min_value=0.1, max_value=10.0),
       st.floats(min_value=-0.9, max_value=0.9),
       st.floats(min_value=-5.0, max_value=5.0),
       st.floats(min_value=-5.0, max_value=5.0))
def test_fisher_additivity(a, b, corr, s1, s2):
    """The joint bound is never worse than either single-channel bound."""
    sigma2 = np.array([[a, corr * math.sqrt(a * b)],
                       [corr * math.sqrt(a * b), b]])
    signal = np.array([s1, s2])
    vp, vm = np.array([1.0, 1.0]), np.array([1.0, -1.0])
    fisher_full = float(signal @ np.linalg.solve(sigma2, signal))
    for v in (vp, vm):
        slope = float(v @ signal)
        variance = float(v @ sigma2 @ v)
        if variance > 1e-12:
            assert fisher_full >= slope**2 / variance - 1e-9 * abs(fisher_full)


def _shot_covariance(params):
    """Isotropic covariance above shot level, 4 n_p0 * 1."""
    return 4.0 * params.derived.n_p0 * np.eye(2)


def test_phase_bound_degenerate_at_resonance(default_params):
    """No phase signal at S- = 0: the phase-only bound is infinite while the
    other bounds stay finite."""
    s_plus = 5e-17
    z = propagation.z_optimal(default_params, s_plus)
    report = estimation.sensitivity_report(
        default_params, s_plus, 0.0, _shot_covariance(default_params), z)
    assert report.rel_phase == math.inf
    assert math.isfinite(report.rel_full)
    assert math.isfinite(report.rel_intensity)


def test_psn_estimate_scales_with_time():
    base = from_config({})
    doubled = from_config({"measurement_time_s": 2.0})
    s_plus, s_minus = 5e-17, 2e-16
    z = propagation.z_optimal(base, s_plus)
    r1 = estimation.sensitivity_report(base, s_plus, s_minus,
                                       _shot_covariance(base), z).rel_psn
    r2 = estimation.sensitivity_report(doubled, s_plus, s_minus,
                                       _shot_covariance(doubled), z).rel_psn
    assert r2 == pytest.approx(r1 / math.sqrt(2.0), rel=1e-9)


def test_report_transports_the_mean_once(default_params, monkeypatch):
    """All four bounds of one report come from a single transported mean."""
    calls = []

    def counting(*args):
        calls.append(args)
        return propagation.propagate_mean(*args)

    monkeypatch.setattr(estimation, "propagate_mean", counting)
    evaluate_point(default_params, "adiabatic")
    assert len(calls) == 1


def test_classify_regime():
    assert estimation.classify_regime(1.0, 1.0) == "PSNL"
    assert estimation.classify_regime(50.0, 400.0) == "CL"
    assert estimation.classify_regime(1.05, 30.0) == "IR"
    assert estimation.classify_regime(1.5, 1.5) == "Unclassified"


def test_report_invariants(default_params):
    report = evaluate_point(default_params).report
    assert report.rel_full <= min(report.rel_intensity,
                                  report.rel_phase) + 1e-12
    assert report.rel_full > 0 and math.isfinite(report.rel_full)
    # chemical noise present: the naive estimate is overly optimistic
    assert report.rel_psn <= report.rel_full


def test_phase_dominates_off_resonance():
    """Slow rates, moderate-to-large detuning: the phase readout beats the
    intensity readout."""
    for eps in (10.0, 40.0, 100.0):
        for rate in (1e-4, 1e-2):
            params = from_config({"detuning_a_mhz": eps,
                                  "rate_a_mhz": rate, "rate_b_mhz": rate})
            report = evaluate_point(params).report
            assert report.rel_phase <= report.rel_intensity


def test_detuning_improves_cl_sensitivity():
    """Full sensitivity decreases monotonically with detuning beyond the
    resonance peak at slow rates."""
    values = []
    for eps in (0.0, 10.0, 20.0, 40.0, 80.0):
        params = from_config({"detuning_a_mhz": eps})
        values.append(evaluate_point(params).report.rel_full)
    assert np.all(np.diff(values) < 0)
