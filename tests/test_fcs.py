import contextlib
import os
import warnings

import numpy as np
import pytest

from spectrosens import adiabatic, cli, fcs, pipeline
from spectrosens.errors import FitResidualExceeded, GapTooSmall
from spectrosens.liouvillian import (build_two_sided, dissipator_sum,
                                     generator_derivatives, model_blocks)
from spectrosens.params import default_config, from_config, stack
from spectrosens.pipeline import evaluate_point
from stencils import hessian


def test_dominant_eigenvalue_zero_at_chi_zero(default_params):
    liou = build_two_sided(default_params, (0.0, 0.0))
    top, gap = fcs.dominant_eigenvalue(liou)
    assert abs(top) < 1e-6
    assert gap > 0


def test_gap_threshold(default_params):
    """A stack that holds a point whose tilts' gaps fall below the threshold
    raises the error that point raises alone; a stack without it gives
    each point what a single call gives."""
    slow = from_config({"rate_a_mhz": 1e-12, "rate_b_mhz": 1e-12})
    fast = from_config({"rate_a_mhz": 2.0, "rate_b_mhz": 3.0})
    with pytest.raises(GapTooSmall) as alone:
        fcs.cross_sections(slow)
    with pytest.raises(GapTooSmall) as stacked:
        fcs.cross_sections(stack([default_params, slow, fast]))
    assert str(stacked.value) == str(alone.value)
    s1, s2 = fcs.cross_sections(stack([default_params, fast]))
    assert list(zip(s1, s2)) == [fcs.cross_sections(params)
                                 for params in (default_params, fast)]


def test_stacked_dominant_eigenvalue_equals_single_solves(default_params):
    """A stack gives each member's eigenvalue and gap."""
    slow = from_config({"rate_a_mhz": 1e-6, "rate_b_mhz": 3e-6})
    stack = np.stack([build_two_sided(default_params, (0.0, 0.0)),
                      build_two_sided(default_params, (-1e-3j, 0)),
                      build_two_sided(slow, (0.0, -2e-3j))])
    tops, gaps = fcs.dominant_eigenvalue(stack)
    singles = [fcs.dominant_eigenvalue(matrix) for matrix in stack]
    assert np.array_equal(tops, [top for top, _ in singles])
    assert np.array_equal(gaps, [gap for _, gap in singles])
    assert gaps[2] < gaps[0]


def test_cross_sections_use_pipeline_gap_threshold():
    """Direct calls track the dominant branch down to the same gap as the
    pipeline: at slow rates they give the pipeline's cross sections."""
    params = from_config({"rate_a_mhz": 1e-6, "rate_b_mhz": 1e-6})
    s1, s2 = fcs.cross_sections(params)
    result = evaluate_point(params, "full")
    assert (s1 + s2, s1 - s2) == (result.s_plus, result.s_minus)


def test_gap_threshold_shared_with_pipeline():
    params = from_config({"rate_a_mhz": 1e-12, "rate_b_mhz": 1e-12})
    with pytest.raises(GapTooSmall):
        fcs.cross_sections(params)
    with pytest.raises(GapTooSmall):
        evaluate_point(params, "full")


def test_diffusion_rate_needs_no_gap_threshold():
    """The bordered solves track no eigenvalue branch: below the pipeline's
    gap threshold the diffusion rate still matches the composition."""
    params = from_config({"rate_a_mhz": 1e-12, "rate_b_mhz": 1e-12})
    j0 = params.derived.photon_flux_j0
    full = fcs.diffusion_rate(params, j0)
    adia = adiabatic.adiabatic_rate(params, j0, method="exact")
    assert np.max(np.abs(full - adia)) <= 1e-6 * np.max(np.abs(full))


def test_cross_sections_reference_values(default_params):
    """Single absorbing state at 40 MHz detuning: weak-field Lorentzian
    values, halved by the stationary occupation of the dark state."""
    s1, s2 = fcs.cross_sections(default_params)
    der, mol = default_params.derived, default_params.molecule
    denom = 4 * mol.detuning_a**2 + mol.decay_gamma**2
    s_plus_a = 0.5 * mol.decay_gamma * der.beta_sq_a / denom
    s_minus_a = mol.detuning_a * der.beta_sq_a / denom
    assert s1 + s2 == pytest.approx(0.5 * s_plus_a, rel=1e-3)
    assert s1 - s2 == pytest.approx(0.5 * s_minus_a, rel=1e-3)


def test_cross_section_parity():
    """S_plus is even in the detuning, S_minus is odd."""
    plus, minus = [], []
    for eps in (-30.0, 30.0):
        params = from_config({"detuning_a_mhz": eps})
        s1, s2 = fcs.cross_sections(params)
        plus.append(s1 + s2)
        minus.append(s1 - s2)
    assert plus[0] == pytest.approx(plus[1], rel=1e-6)
    assert minus[0] == pytest.approx(-minus[1], rel=1e-6)


def test_cross_sections_scale_with_dipole_squared(default_params):
    doubled = from_config({"dipole_a_debye": 2.0})
    s1, s2 = fcs.cross_sections(default_params)
    d1, d2 = fcs.cross_sections(doubled)
    assert d1 + d2 == pytest.approx(4 * (s1 + s2), rel=1e-4)


def test_diffusion_matrix_symmetric_psd(default_params):
    d = fcs.diffusion_rate(default_params,
                           default_params.derived.photon_flux_j0)
    assert d[0, 1] == pytest.approx(d[1, 0], rel=1e-9)
    assert np.all(np.linalg.eigvalsh(d) > 0)


def test_fit_diffusion_expansion(default_params):
    exp = fcs.fit_diffusion_expansion(default_params)
    assert exp.fit_residual < 1e-3
    vp, vm = np.array([1.0, 1.0]), np.array([1.0, -1.0])
    s1, s2 = fcs.cross_sections(default_params)
    # linear coefficient = twice the absorption cross section, both channels
    assert vp @ exp.D1 @ vp == pytest.approx(2 * (s1 + s2), rel=1e-2)
    assert vm @ exp.D1 @ vm == pytest.approx(2 * (s1 + s2), rel=1e-2)
    # chemical noise dominates the difference channel at slow rates
    assert vm @ exp.D2 @ vm > 10 * abs(vp @ exp.D2 @ vp)


def test_fit_residual_guard(default_params, monkeypatch):
    j0 = default_params.derived.photon_flux_j0
    rate = fcs.diffusion_rate
    noisy = lambda p, j: rate(p, j) * (1 + 0.05 * np.sin(j / j0 * 37))[
        ..., None, None]
    monkeypatch.setattr(fcs, "diffusion_rate", noisy)
    with pytest.raises(FitResidualExceeded):
        fcs.fit_diffusion_expansion(default_params)


FLUX_STACK_POINTS = {
    "default": {},
    "slow": {"rate_a_mhz": 1e-6, "rate_b_mhz": 3e-6},
    "fast": {"rate_a_mhz": 3.0, "rate_b_mhz": 60.0},
    "100MHz": {"detuning_a_mhz": 100.0},
}


@pytest.mark.parametrize("config", FLUX_STACK_POINTS.values(),
                         ids=FLUX_STACK_POINTS.keys())
def test_stacked_diffusion_rate_equals_scalar_calls(config):
    """One call on a flux grid gives each flux's rate matrix as a call at
    that flux alone would."""
    params = from_config(config)
    j0 = params.derived.photon_flux_j0
    grid = np.geomspace(j0 / 10.0, j0, 10)
    stacked = fcs.diffusion_rate(params, grid)
    singles = np.array([fcs.diffusion_rate(params, j) for j in grid])
    assert stacked.shape == (10, 2, 2)
    scale = np.max(np.abs(singles), axis=(1, 2), keepdims=True)
    assert np.max(np.abs(stacked - singles) / scale) <= 1e-15


@pytest.mark.parametrize("config", FLUX_STACK_POINTS.values(),
                         ids=FLUX_STACK_POINTS.keys())
def test_sector_gap_equals_full_gap(config):
    """The pipeline's gap, from the two 8x8 sector blocks, is the gap of
    the 16x16 generator, down to the slow point's chemical mode."""
    params = from_config(config)
    _, full = fcs.dominant_eigenvalue(build_two_sided(params, (0.0, 0.0)))
    gap, = pipeline._spectral_gaps(stack([params]))
    assert gap == pytest.approx(full, rel=1e-8)


@pytest.mark.parametrize("config", FLUX_STACK_POINTS.values(),
                         ids=FLUX_STACK_POINTS.keys())
def test_flux_affine_cumulants_match_direct_builds(config):
    """The generator combined from its builds at zero and full drive, solved
    on the within-state sector, gives the cumulants of the 16x16 generator
    built at each flux scale directly."""
    params = from_config(config)
    scales = np.array([0.0, 0.3, 1.0, 2.5])
    c1, c2 = fcs.second_cumulant_matrix(params, scales)
    for k, scale in enumerate(scales):
        d1, d2 = fcs.cumulants(*generator_derivatives(
            model_blocks(params, scale), dissipator_sum(params)))
        for got, want in ((c1[k], d1), (c2[k], d2)):
            assert np.max(np.abs(got - want)) <= 1e-13 * max(
                np.max(np.abs(want)), 1e-300)


def test_full_point_makes_one_stacked_rate_call(default_params, monkeypatch):
    """The intensity expansion takes all its fluxes from one call, and
    differentiates one generator: the undriven part has no tilts to build."""
    shapes, builds = [], []
    rate, derivatives = fcs.diffusion_rate, fcs.generator_derivatives

    def counted(params, J):
        shapes.append(np.shape(J))
        return rate(params, J)

    def counted_build(*args):
        builds.append(args)
        return derivatives(*args)

    monkeypatch.setattr(fcs, "diffusion_rate", counted)
    monkeypatch.setattr(fcs, "generator_derivatives", counted_build)
    evaluate_point(default_params, "full")
    assert shapes == [(1, 10)]   # one point, ten fluxes
    assert len(builds) == 1


def _outcome(result):
    """Every number of a point's result, or its error, for == comparison."""
    if isinstance(result, Exception):
        return type(result), str(result)
    report, expansion = result.report, result.expansion
    return (result.s_plus, result.s_minus, result.spectral_gap,
            result.route, result.route_deviation, expansion.fit_residual,
            expansion.D1.tolist(), expansion.D2.tolist(),
            result.sigma2.tolist(), report.rel_full, report.rel_intensity,
            report.rel_phase, report.rel_psn, report.regime,
            report.diagnostics)


@pytest.mark.parametrize("route", pipeline.ROUTES)
def test_evaluate_points_equals_evaluate_point(route):
    """A stacked pass over points that end in results and in different
    errors gives each point what evaluating it alone gives: the same
    numbers, or the same error type and message."""
    configs = [{}, {"rate_a_mhz": 1e-12, "rate_b_mhz": 1e-12},
               {"detuning_a_mhz": 500.0}, {"detuning_a_mhz": 1000.0},
               {"rate_a_mhz": 3.0, "rate_b_mhz": 60.0, "dipole_b_debye": 0.6},
               {"density_per_m3": 1e-300}, {"detuning_a_mhz": -40.0},
               # J0 so small that the cross sections' reference flux is 0
               {"power_mw": 1e-300, "beam_diameter_cm": 3.6e20}]
    points = [from_config(config) for config in configs]
    singles = []
    # the adiabatic route warns at the 3 and 60 MHz rates
    with (pytest.warns(UserWarning, match="adiabatic factorization")
          if route != "full" else contextlib.nullcontext()):
        for params in points:
            try:
                singles.append(_outcome(evaluate_point(params, route)))
            except Exception as exc:
                singles.append(_outcome(exc))
        results = pipeline.evaluate_points(points, route)
    assert [_outcome(result) for result in results] == singles
    errors = {type(r).__name__ for r in results if isinstance(r, Exception)}
    assert errors == {
        "full": {"GapTooSmall", "FitResidualExceeded", "SingularCovariance",
                 "DegenerateAbsorption"},
        "adiabatic": {"SingularCovariance", "FitResidualExceeded"},
        "both": {"GapTooSmall", "FitResidualExceeded", "SingularCovariance"},
    }[route]


def test_failing_pass_is_bisected(monkeypatch):
    """One failing point among 64 costs 13 stacked passes, the first and
    two per halving, not one more pass per point: it ends in the error it
    raises alone, and the other 63 keep the results they get alone."""
    points = [from_config({"detuning_a_mhz": detuning})
              for detuning in np.linspace(-100.0, 100.0, 64)]
    points[37] = from_config({"rate_a_mhz": 1e-12, "rate_b_mhz": 1e-12})
    passes, evaluate = [], pipeline._evaluate

    def counted(pass_points, route):
        passes.append(len(pass_points))
        return evaluate(pass_points, route)

    monkeypatch.setattr(pipeline, "_evaluate", counted)
    outcomes = pipeline.evaluate_points(points, "full")
    assert len(passes) == 13 and passes[0] == 64
    with pytest.raises(GapTooSmall) as alone:
        evaluate_point(points[37], "full")
    assert _outcome(outcomes[37]) == _outcome(alone.value)
    for params, outcome in zip(points[:37] + points[38:],
                               outcomes[:37] + outcomes[38:]):
        assert _outcome(outcome) == _outcome(evaluate_point(params, "full"))


def test_physics_warnings_point_at_the_pipeline():
    """The strong-probe and the adiabatic-factorization warnings of a
    stacked pass are attributed to the pipeline, which evaluates the
    point."""
    params = from_config({"power_mw": 30.0, "rate_a_mhz": 3.0,
                          "rate_b_mhz": 3.0})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        evaluate_point(params, "both")
    sources = {str(warning.message).split(":")[0]:
               os.path.basename(warning.filename) for warning in caught}
    assert sources == {"outside weak-probe regime": "pipeline.py",
                       "adiabatic factorization unreliable": "pipeline.py"}


def test_sweep_makes_three_stacked_eigensolves(monkeypatch):
    """A full-route sweep stacks its points: one eigensolve for the gaps,
    one for the step choice and one for the Richardson tilts, however many
    points there are (a point alone makes three too)."""
    calls = []
    eigvals = np.linalg.eigvals

    def counted(matrix):
        calls.append(matrix.shape)
        return eigvals(matrix)

    monkeypatch.setattr(np.linalg, "eigvals", counted)
    rows = cli.run_sweep(default_config(), ["detuning,linear,-40,40,12"],
                         "full")
    assert [row["status"] for row in rows] == ["ok"] * 12
    assert calls == [(12, 2, 8, 8), (12, 3, 16, 16), (12, 8, 16, 16)]
    assert cli.SWEEP_CHUNK >= 12


def test_strong_probe_warning():
    """The warning names the saturation in a few significant digits, even
    where it is a number of a hundred digits."""
    for config in ({"power_mw": 1e4}, {"gamma_mhz": 1e-60}):
        params = from_config(config)
        with pytest.warns(UserWarning, match="weak-probe") as record:
            fcs.cross_sections(params)
        number = str(record[0].message).rsplit("= ", 1)[1]
        assert float(number) > fcs.WEAK_PROBE_LIMIT and len(number) <= 9


def _counted_quadratic():
    """A quadratic in (s1, s2) with dyadic coefficients, so that central
    differences at dyadic steps reproduce its derivatives exactly, and a log
    of the calls made to it."""
    calls = []

    def fun(s1, s2):
        calls.append(np.shape(s1))
        return 3 + 2 * s1 - 5 * s2 + 4 * s1**2 + 6 * s1 * s2 - 2 * s2**2

    return fun, calls


def test_stencils_exact_on_quadratic_in_one_call():
    # tilts per call at one step and at the two Richardson steps; the
    # Hessian evaluates its origin once for both
    for stencil, expected, points, both in (
            (fcs.gradient, np.array([2.0, -5.0]), 4, 8),
            (hessian, np.array([[8.0, 6.0], [6.0, -4.0]]), 9, 17)):
        fun, calls = _counted_quadratic()
        assert np.array_equal(stencil(fun, 0.25), expected)
        assert calls == [(points,)]
        fun, calls = _counted_quadratic()
        assert np.array_equal(fcs.richardson(stencil, fun, 0.25), expected)
        assert calls == [(both,)]


def _model_cumulants(rate_mhz, detuning_mhz):
    """Exact (c1, c2) of the 4-level model at J0, both states absorbing,
    and its dominant eigenvalue as a function of the tilts."""
    params = from_config({"rate_a_mhz": rate_mhz,
                          "rate_b_mhz": 1.5 * rate_mhz,
                          "detuning_a_mhz": detuning_mhz,
                          "dipole_b_debye": 0.6})
    return (fcs.second_cumulant_matrix(params, 1.0),
            lambda a, b: fcs._lambda_s(params, a, b, 1.0)[0])


def _block_cumulants(state):
    """The same for a conditioned block at J0."""
    params = from_config({"dipole_b_debye": 0.6})
    j0 = params.derived.photon_flux_j0
    return (adiabatic._conditioned_cumulants(params, state, j0),
            lambda a, b: adiabatic.conditioned_cgf(params, state, a, b, j0))


@pytest.mark.parametrize("build,args", [
    *[pytest.param(_model_cumulants, (rate, eps), id=f"{rate}MHz-{eps}MHz")
      for rate in (1.0, 10.0) for eps in (-100.0, 0.0, 40.0)],
    *[pytest.param(_block_cumulants, (state,), id=f"block-{state}")
      for state in "AB"]])
def test_cumulants_match_eigenvalue_stencils(build, args):
    """The bordered-solve cumulants equal Richardson-extrapolated stencils
    on the dominant eigenvalue, at fast rates and on the conditioned blocks,
    where the stencils are well conditioned."""
    (c1, c2), fun = build(*args)
    stencil_c1 = fcs.richardson(fcs.gradient, fun, 1e-2)
    stencil_c2 = fcs.richardson(hessian, fun, 1e-2)
    assert np.max(np.abs(c1 - stencil_c1)) <= 1e-7 * np.max(np.abs(c1))
    assert np.max(np.abs(c2 - stencil_c2)) <= 1e-5 * np.max(np.abs(c2))


@pytest.mark.parametrize("config", [
    {"rate_a_mhz": 1.7816e-7, "rate_b_mhz": 1.8734e-7,
     "detuning_a_mhz": -3.08},
    {"rate_a_mhz": 1.39e-7, "rate_b_mhz": 1.39e-7, "detuning_a_mhz": -2.63},
    {"rate_a_mhz": 1e-6, "rate_b_mhz": 3e-6},
], ids=["bench-seed-3", "seed-91", "slow-unequal"])
def test_full_route_covariance_is_psd(config):
    """Slow, nearly balanced rates make the covariance nearly singular; the
    exact curvature keeps it positive semidefinite."""
    sigma2 = evaluate_point(from_config(config), "full").sigma2
    assert np.min(np.linalg.eigvalsh(sigma2)) >= 0.0


def test_far_detuned_turnover_point_evaluates():
    """The fig3 grid point at 100 MHz and the fifth rate of its axis."""
    rate = np.geomspace(1e-6, 1e2, 25)[4]
    params = from_config({"detuning_a_mhz": 100.0, "rate_a_mhz": rate,
                          "rate_b_mhz": rate})
    assert evaluate_point(params, "full").report.rel_full > 0


@pytest.mark.parametrize("route,limit", [("full", 3), ("adiabatic", 1)])
def test_point_eigensolves_are_stacked(route, limit, default_params,
                                       monkeypatch):
    """Each finite-difference stencil is one stacked eigensolve, not one
    solve per tilt (several hundred per point); the diffusion rates need
    none, and the closed-form adiabatic route solves only for the spectral
    gap."""
    calls = []
    eigvals = np.linalg.eigvals

    def counted(matrix):
        calls.append(matrix.shape)
        return eigvals(matrix)

    monkeypatch.setattr(np.linalg, "eigvals", counted)
    evaluate_point(default_params, route)
    assert 0 < len(calls) <= limit
