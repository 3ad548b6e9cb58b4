"""The stacked closed forms of a pass (the weak-field expansion, the
transport and the report) and the stacked intensity-expansion fit against
per-point calls, byte for byte."""

import dataclasses
import re
import warnings

import numpy as np
import pytest

from spectrosens import adiabatic, estimation, fcs, pipeline, propagation
from spectrosens.params import from_config, stack


def _configs():
    """Seeded points with resonances (S- = 0, an infinite phase bound),
    fixed and optimal depths mixed, and an underflowing density."""
    rng = np.random.default_rng(20261019)
    configs = []
    for k in range(24):
        config = {"detuning_a_mhz": float(rng.uniform(-120.0, 120.0)),
                  "rate_a_mhz": float(10.0 ** rng.uniform(-6.0, 0.5)),
                  "rate_b_mhz": float(10.0 ** rng.uniform(-6.0, 0.5)),
                  "dipole_b_debye": float(rng.choice([0.0, 0.5]))}
        if k % 4 == 0:
            config["detuning_a_mhz"] = 0.0
        if k % 3 == 0:
            config["thickness_m"] = float(10.0 ** rng.uniform(-4.0, -2.0))
        configs.append(config)
    configs[5]["density_per_m3"] = 1e-300
    configs[6].update(density_per_m3=1e-300, thickness_m=1e-3)
    return configs


POINTS = [from_config(config) for config in _configs()]


def _bytes(value):
    if dataclasses.is_dataclass(value):
        return [_bytes(getattr(value, f.name))
                for f in dataclasses.fields(value)]
    if isinstance(value, dict):
        return [(key, _bytes(value[key])) for key in sorted(value)]
    if isinstance(value, str) or value is None:
        return value
    return np.asarray(value, dtype=float).tobytes()


def test_stacked_weak_field_expansion_equals_each_point():
    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        s_plus, s_minus, expansion = adiabatic.weak_field_expansion(
            stack(POINTS))
        for i, params in enumerate(POINTS):
            single = adiabatic.weak_field_expansion(params)
            assert _bytes(single[:2]) == _bytes((s_plus[i, 0],
                                                 s_minus[i, 0]))
            assert _bytes(single[2]) == _bytes(dataclasses.replace(
                expansion, D1=expansion.D1[i, 0], D2=expansion.D2[i, 0]))


def test_stacked_transport_and_report_equal_each_point():
    """z_opt, the covariance and every report field of stacked points
    equal the scalar calls at each point, an infinite z_opt and an
    infinite phase bound included; a stacked report with failing points
    raises what the first of them raises alone."""
    stacked = stack(POINTS)
    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        s_plus, s_minus, expansion = adiabatic.weak_field_expansion(stacked)
        z_opt = propagation.z_optimal(stacked, s_plus)
        for i, params in enumerate(POINTS):
            assert _bytes(z_opt[i, 0]) == _bytes(
                propagation.z_optimal(params, s_plus[i, 0]))
        assert np.isinf(z_opt[5, 0])
        z = np.where(np.isnan(stacked.sample.thickness), z_opt,
                     stacked.sample.thickness)
        columns = (s_plus, s_minus, expansion.D1, expansion.D2, z)
        outcomes = []
        for i, params in enumerate(POINTS):
            sp, sm, d1, d2, depth = (value[i, 0] for value in columns)
            if not np.isfinite(depth):
                outcomes.append(None)
                continue
            cov = propagation.covariance_closed_form(params, sp, d1, d2, depth)
            try:
                report = estimation.sensitivity_report(params, sp, sm, cov,
                                                       depth)
            except Exception as exc:
                report = exc
            outcomes.append((cov, report))

        def stacked_calls(keep):
            args = [value[keep] for value in columns]
            sub = stack([p for p, k in zip(POINTS, keep) if k])
            sigma2 = propagation.covariance_closed_form(sub, args[0],
                                                        *args[2:])
            return sigma2, estimation.sensitivity_report(
                sub, args[0], args[1], sigma2, args[4])

        finite = np.array([outcome is not None for outcome in outcomes])
        failed = [isinstance(o[1], Exception) if o else False
                  for o in outcomes]
        first = outcomes[failed.index(True)][1]
        with pytest.raises(type(first), match=re.escape(str(first))):
            stacked_calls(finite)
        keep = finite & ~np.array(failed)
        sigma2, report = stacked_calls(keep)
    for row, i in enumerate(np.flatnonzero(keep)):
        cov, single = outcomes[i]
        assert _bytes(cov) == _bytes(sigma2[row, 0])
        assert _bytes(single) == _bytes(dataclasses.replace(
            report, **{f.name: getattr(report, f.name)[row, 0]
                       for f in dataclasses.fields(report)[:5]},
            diagnostics={key: value[row, 0]
                         for key, value in report.diagnostics.items()}))
    assert np.isinf(report.rel_phase).any() and keep[6]


@pytest.mark.parametrize("pin_linear", [True, False], ids=["pinned", "free"])
def test_expansion_bytes_do_not_depend_on_the_stack(pin_linear):
    """A point's fitted D1, D2 and residual are the same bytes in passes of
    1, 2, 12 and 100 points and from the single-point call, so the
    projector product and the residual norms act on each point alone."""
    rng = np.random.default_rng(20261020)
    points = []
    for _ in range(100):
        rate = float(10.0 ** rng.uniform(-6.0, 0.5))
        points.append(from_config({
            "detuning_a_mhz": float(rng.uniform(-80.0, 80.0)),
            "rate_a_mhz": rate,
            "rate_b_mhz": float(rate * rng.uniform(0.5, 3.0)),
            "dipole_b_debye": float(rng.choice([0.0, 0.5]))}))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        singles = [_bytes(fcs.fit_diffusion_expansion(
            p, pin_linear=pin_linear)) for p in points]
        for n in (1, 2, 12, 100):
            stacked = fcs.fit_diffusion_expansion(fcs.batch(points[:n]),
                                                  pin_linear=pin_linear)
            assert [_bytes(dataclasses.replace(
                stacked, **{f.name: getattr(stacked, f.name)[i]
                            for f in dataclasses.fields(stacked)}))
                for i in range(n)] == singles[:n]


@pytest.mark.parametrize("route", pipeline.ROUTES)
def test_one_point_pass_equals_its_stacked_pass(route):
    """A pass of one point, a stack of one on the same code path, gives
    each point's outcome in the stacked pass of all of them, bit for bit,
    the errors of underflowing densities included."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        stacked = pipeline.evaluate_points(POINTS, route)
        singles = [pipeline.evaluate_points([p], route)[0] for p in POINTS]
    for got, want in zip(singles, stacked):
        if isinstance(want, Exception):
            assert (type(got), str(got)) == (type(want), str(want))
        else:
            assert _bytes(got) == _bytes(want)
    assert any(isinstance(outcome, Exception) for outcome in stacked)
    assert any(outcome.report.rel_phase == np.inf for outcome in stacked
               if not isinstance(outcome, Exception))


def test_stacked_pass_warns_once_per_nonadiabatic_point():
    """One weak-field expansion per pass raises one warning per point
    beyond the adiabatic gate, attributed to the pipeline."""
    points = [from_config({"rate_a_mhz": rate, "rate_b_mhz": rate})
              for rate in (5.0, 1e-4, 3.0)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        pipeline.evaluate_points(points, "adiabatic")
    assert [w.filename.endswith("pipeline.py") for w in caught] == [True] * 2
    assert all("adiabatic factorization" in str(w.message) for w in caught)
