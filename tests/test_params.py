import math

import pytest
from hypothesis import given, strategies as st

from spectrosens.errors import InvalidParam, ParseError
from spectrosens.params import (MHZ, angular_to_mhz, default_config,
                                from_config, mhz_to_angular, stack, take)


def test_unit_scale():
    assert MHZ == pytest.approx(2 * math.pi * 1e6, rel=1e-15)


@given(st.floats(min_value=1e-12, max_value=1e6,
                 allow_nan=False, allow_infinity=False))
def test_unit_round_trip(value):
    assert angular_to_mhz(mhz_to_angular(value)) == pytest.approx(
        value, rel=1e-12)


def test_derived_quantities(default_params):
    der = default_params.derived
    assert der.beam_area == pytest.approx(math.pi * 0.005**2 / 4, rel=1e-12)
    # 1 mW for 1 s at 500 nm
    assert der.n_p0 == pytest.approx(2.517058e15, rel=1e-5)
    assert der.photon_flux_j0 == pytest.approx(
        der.n_p0 / (der.beam_area * 1.0), rel=1e-12)
    # drive amplitude for a 1 Debye dipole
    assert angular_to_mhz(der.rabi_a) == pytest.approx(0.98614, rel=1e-4)
    assert der.rabi_b == 0.0
    assert der.beta_sq_a == pytest.approx(
        2 * der.rabi_a**2 / der.photon_flux_j0, rel=1e-12)


def test_rate_units(default_params):
    # rates are converted with the same angular factor as frequencies
    assert default_params.molecule.rate_a == pytest.approx(
        2 * math.pi * 1e-4 * 1e6, rel=1e-12)


def test_unknown_key_rejected():
    with pytest.raises(ParseError):
        from_config({"detuning_mhz": 40.0})


def test_non_numeric_rejected():
    with pytest.raises(ParseError):
        from_config({"gamma_mhz": "10"})


@pytest.mark.parametrize("key,value", [
    ("power_mw", 0.0),
    ("wavelength_nm", -1.0),
    ("gamma_mhz", 0.0),
    ("rate_a_mhz", -1.0),
    ("density_per_m3", 0.0),
    ("beam_diameter_cm", -0.5),
    ("measurement_time_s", 0.0),
    ("dipole_a_debye", -1.0),
    ("rate_b_mhz", -1e-4),
])
def test_range_checks(key, value):
    with pytest.raises(InvalidParam) as excinfo:
        from_config({key: value})
    assert excinfo.value.field == key


def test_both_rates_zero_rejected():
    with pytest.raises(InvalidParam):
        from_config({"rate_a_mhz": 0.0, "rate_b_mhz": 0.0})


def test_fixed_thickness_policy():
    """thickness_m alone sets the depth: null is the signal-optimal depth,
    a positive finite number a fixed one."""
    assert from_config({"thickness_m": 0.01}).sample.thickness == 0.01
    assert from_config({"thickness_m": None}).sample.thickness is None
    for bad in (0, -1.0, math.inf):
        with pytest.raises(InvalidParam) as excinfo:
            from_config({"thickness_m": bad})
        assert excinfo.value.field == "thickness_m"
    for not_a_number in ("x", True):
        with pytest.raises(ParseError):
            from_config({"thickness_m": not_a_number})
    with pytest.raises(ParseError, match="unknown configuration keys"):
        from_config({"thickness_policy": "fixed"})


def test_type_errors_before_value_errors():
    """A value that is not a number raises ParseError before any
    InvalidParam, and InvalidParam names the first bad key in schema
    order, whatever the kind of its error."""
    with pytest.raises(ParseError):
        from_config({"power_mw": math.inf, "gamma_mhz": "x"})
    with pytest.raises(InvalidParam) as excinfo:
        from_config({"power_mw": -1.0, "gamma_mhz": math.nan})
    assert excinfo.value.field == "power_mw"


def test_default_config_is_copy():
    config = default_config()
    config["power_mw"] = 99.0
    assert default_config()["power_mw"] == 1.0


@pytest.mark.parametrize("key,value", [
    ("detuning_a_mhz", math.nan),
    ("gamma_mhz", math.inf),
    ("rate_b_mhz", -math.inf),
    ("power_mw", 10**400),
    ("rate_a_mhz", 1e308),
    ("thickness_m", math.inf),
])
def test_non_finite_rejected(key, value):
    with pytest.raises(InvalidParam) as excinfo:
        from_config({key: value})
    assert excinfo.value.field == key
    assert str(excinfo.value) == f"invalid parameter: {key}"


@pytest.mark.parametrize("density", [math.nan, math.inf, -math.inf, 0.0,
                                     -1.0, True, "1e20"])
def test_with_density_rejects_what_from_config_rejects(default_params,
                                                       density):
    with pytest.raises((InvalidParam, ParseError)) as expected:
        from_config({"density_per_m3": density})
    with pytest.raises(type(expected.value)) as excinfo:
        default_params.with_density(density)
    assert type(excinfo.value) is type(expected.value)
    assert str(excinfo.value) == str(expected.value)


def test_stack_and_take():
    """A stack holds each point's molecule and derived fields, bit for bit,
    along its (n, 1) point axis; take picks points of it in order."""
    points = [from_config({"detuning_a_mhz": d, "rate_a_mhz": r})
              for d, r in ((-30.0, 1e-6), (0.0, 1e-4), (55.5, 3.0))]
    batch = stack(points)
    assert batch.laser is None and batch.sample is None
    for part in ("molecule", "derived"):
        for name, values in vars(getattr(batch, part)).items():
            assert values.shape == (3, 1)
            assert values[:, 0].tolist() == [
                getattr(getattr(p, part), name) for p in points]
    picked = take(batch, [2, 0])
    assert picked.molecule.detuning_a[:, 0].tolist() == [
        points[2].molecule.detuning_a, points[0].molecule.detuning_a]
    assert picked.derived.photon_flux_j0.shape == (2, 1)
