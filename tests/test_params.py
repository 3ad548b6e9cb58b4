import json
import math
import pathlib

import numpy as np
import pytest
from hypothesis import given, strategies as st

import config_rules
from spectrosens import cli, params
from spectrosens.errors import InvalidParam, ParseError
from spectrosens.params import (MHZ, angular_to_mhz, default_config,
                                from_config, stack)
from spectrosens.pipeline import evaluate_point

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_unit_scale():
    assert MHZ == pytest.approx(2 * math.pi * 1e6, rel=1e-15)


@given(st.floats(min_value=1e-12, max_value=1e6,
                 allow_nan=False, allow_infinity=False))
def test_unit_round_trip(value):
    assert angular_to_mhz(value * MHZ) == pytest.approx(
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


@pytest.mark.parametrize("density", [
    math.nan, math.inf, -math.inf, 0.0, -1.0,
    pytest.param(10**400, id="10**400"), True, "1e20"])
def test_with_density_rejects_what_from_config_rejects(default_params,
                                                       density):
    with pytest.raises((InvalidParam, ParseError)) as expected:
        from_config({"density_per_m3": density})
    with pytest.raises(type(expected.value)) as excinfo:
        default_params.with_density(density)
    assert type(excinfo.value) is type(expected.value)
    assert str(excinfo.value) == str(expected.value)


# zeros, signs, the smallest subnormal, values whose MHz form overflows in
# rad/s (3e301, 1.7e308), non-finite floats and integers beyond the float
# range
CHARACTERISATION_VALUES = (0, -0.0, -1, 5e-324, 1, 3e301, -3e301, 1.7e308,
                           math.inf, -math.inf, math.nan, 10**400, -10**400)


def _error(function, *args):
    """The type name and message of what ``function(*args)`` raises, or
    None."""
    try:
        function(*args)
    except Exception as exc:
        return type(exc).__name__, str(exc)
    return None


def _bits(group):
    return [None if value is None else float(value).hex()
            for value in vars(group).values()]


@pytest.mark.parametrize("key", list(default_config()))
def test_checks_equal_name_based_rules(key):
    """For every value of a key, ``_check_value`` and ``from_config`` raise
    the error type and message of the rules that read the key's spelling
    (``config_rules``), and a configuration that passes has those rules'
    field values, bit for bit."""
    for value in CHARACTERISATION_VALUES:
        assert (_error(params._check_value, key, value)
                == _error(config_rules.check_value, key, value))
        config = dict(default_config(), **{key: value})
        expected = _error(config_rules.groups, config)
        if expected is None:
            reference = config_rules.groups(config)
            expected = _error(params.derive, *reference[:2])
        assert _error(from_config, {key: value}) == expected
        if expected is None:
            p = from_config({key: value})
            for group, ref in zip((p.laser, p.molecule, p.sample),
                                  reference):
                assert _bits(group) == _bits(ref)


def test_with_density_takes_integer_beyond_uint64(default_params):
    """A density given as an integer of 2**64 or more is its float: the
    point equals the float's and evaluates to its record."""
    p, ref = (default_params.with_density(d) for d in (10**20, 1e20))
    assert p == ref and type(p.sample.density_rho_m) is float
    assert (cli._record(evaluate_point(p, route="adiabatic"))
            == cli._record(evaluate_point(ref, route="adiabatic")))


def test_readme_lists_configuration_keys():
    """The README's table of configuration keys lists ``default_config``'s
    keys in order, with their defaults."""
    lines = README.read_text().splitlines()
    start = lines.index("| Key | Default | Unit and model field "
                        "| Allowed values |") + 2
    rows = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        key, default = (cell.strip().strip("`")
                        for cell in line.split("|")[1:3])
        rows.append((key, json.loads(default)))
    assert rows == list(default_config().items())


def test_stack():
    """A stack holds each point's molecule, sample and derived fields, bit
    for bit, along its (n, 1) point axis; a thickness of None (the optimal
    depth) is nan."""
    points = [from_config({"detuning_a_mhz": d, "rate_a_mhz": r,
                           "thickness_m": z})
              for d, r, z in ((-30.0, 1e-6, None), (0.0, 1e-4, 2e-3),
                              (55.5, 3.0, None))]
    batch = stack(points)
    assert batch.laser is None
    for part in ("molecule", "sample", "derived"):
        for name, values in vars(getattr(batch, part)).items():
            expected = [getattr(getattr(p, part), name) for p in points]
            if name == "thickness":
                expected = [math.nan if z is None else z for z in expected]
            assert values.shape == (3, 1)
            assert np.array_equal(values[:, 0], expected, equal_nan=True)
