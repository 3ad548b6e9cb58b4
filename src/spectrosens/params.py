"""Physical inputs, unit conversion, and derived quantities.

Unit conventions (frozen for the whole package):

* User-facing frequencies and rates carry an explicit ``_mhz`` suffix and are
  ordinary frequencies; internally everything is angular, ``omega = 2*pi*nu``.
  The same conversion is applied uniformly to detunings, the decay rate and
  the chemical rates so that they are commensurate inside eigenvalues.
* Dipole moments are entered in Debye, lengths in the unit named by the key.

``_SCHEMA`` is the one place where a configuration key's default, unit
factor, allowed sign and ``ModelParams`` field live.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidParam, ParseError

MHZ = 2.0 * math.pi * 1.0e6  # angular rad/s per user-facing MHz

# CODATA SI constants
HBAR = 1.054571817e-34      # J s
EPS0 = 8.8541878128e-12     # C^2 J^-1 m^-1
C = 2.99792458e8            # m s^-1
DEBYE = 3.33564e-30         # C m


def angular_to_mhz(value_rad_s: float) -> float:
    return value_rad_s / MHZ


@dataclass(frozen=True)
class LaserParams:
    power: float                # W
    wavelength: float           # m
    beam_diameter: float        # m
    measurement_time: float     # s


@dataclass(frozen=True)
class MoleculeParams:
    dipole_a: float             # C m
    dipole_b: float             # C m
    detuning_a: float           # rad/s, eps/hbar - omega_p for state A
    detuning_b: float           # rad/s
    decay_gamma: float          # rad/s
    rate_a: float               # 1/s, transfer rate into state A
    rate_b: float               # 1/s, transfer rate into state B


@dataclass(frozen=True)
class SampleParams:
    density_rho_m: float        # m^-3
    thickness: float | None     # m; None means optimal thickness


@dataclass(frozen=True)
class DerivedQuantities:
    omega_p: float              # rad/s probe carrier
    beam_area: float            # m^2
    field_e: float              # V/m
    rabi_a: float               # rad/s at reference flux J0
    rabi_b: float               # rad/s
    beta_sq_a: float            # m^2 rad/s per (m^-2 s^-1): beta^2 = 2 Omega^2 / J
    beta_sq_b: float
    photon_flux_j0: float       # m^-2 s^-1
    n_p0: float                 # photons over the measurement


@dataclass(frozen=True)
class ModelParams:
    laser: LaserParams
    molecule: MoleculeParams
    sample: SampleParams
    derived: DerivedQuantities

    def with_density(self, density: float) -> "ModelParams":
        _check_type("density_per_m3", density)
        density = _check_value("density_per_m3", density)
        return ModelParams(self.laser, self.molecule,
                           replace(self.sample, density_rho_m=density),
                           self.derived)


def stack(points) -> ModelParams:
    """The points as one ModelParams whose molecule, sample and derived
    fields are (n, 1) arrays over them: a leading point axis, and a unit
    axis against which the tilts or fluxes of a stacked build broadcast.
    A sample thickness of None (the optimal depth) is nan.  The laser is
    not stacked (None)."""
    values = np.array([tuple(vars(p.molecule).values())
                       + (p.sample.density_rho_m,
                          math.nan if p.sample.thickness is None
                          else p.sample.thickness)
                       + tuple(vars(p.derived).values()) for p in points])
    columns = values.T[..., None]
    split = len(vars(points[0].molecule))
    return ModelParams(None, MoleculeParams(*columns[:split]),
                       SampleParams(*columns[split:split + 2]),
                       DerivedQuantities(*columns[split + 2:]))


def power(x, k):
    """x ** k by the libm pow that ``**`` on a float calls, on arrays too,
    where ``**`` rounds differently: a stacked point keeps its bits."""
    return np.float_power(x, k) if isinstance(x, np.ndarray) else x ** k


def coefficient(x):
    """A number (per point) as the coefficient of a matrix (per point)."""
    return np.asarray(x)[..., None, None]


def derive(laser: LaserParams, molecule: MoleculeParams) -> DerivedQuantities:
    """Compute field amplitude, Rabi frequencies and photon bookkeeping from
    inputs ``from_config`` has range-checked.

    Finite inputs so extreme that a derived quantity leaves the float range,
    or so small that they vanish on unit conversion, raise
    ``InvalidParam("derived")``."""
    try:
        area = math.pi * laser.beam_diameter**2 / 4.0
        field_e = math.sqrt(2.0 * laser.power / (area * EPS0 * C))
        omega_p = 2.0 * math.pi * C / laser.wavelength
        n_p0 = (laser.power * laser.measurement_time * laser.wavelength
                / (2.0 * math.pi * HBAR * C))
        j0 = n_p0 / (area * laser.measurement_time)
        rabi_a = molecule.dipole_a * field_e / HBAR
        rabi_b = molecule.dipole_b * field_e / HBAR
        derived = DerivedQuantities(
            omega_p=omega_p,
            beam_area=area,
            field_e=field_e,
            rabi_a=rabi_a,
            rabi_b=rabi_b,
            beta_sq_a=2.0 * rabi_a**2 / j0,
            beta_sq_b=2.0 * rabi_b**2 / j0,
            photon_flux_j0=j0,
            n_p0=n_p0,
        )
    except (OverflowError, ZeroDivisionError):
        derived = None
    # the intensity expansion also divides by J0^2
    if (derived is None or not all(map(math.isfinite, vars(derived).values()))
            or math.isinf(derived.photon_flux_j0 * derived.photon_flux_j0)):
        raise InvalidParam("derived",
                           "derived quantities leave the float range")
    return derived


# ---------------------------------------------------------------------------
# JSON configuration
# ---------------------------------------------------------------------------

# key: (default, ModelParams group, field, factor to the field's unit,
#       allowed sign "> 0", ">= 0" or "any"), in the order from_config
#       checks them; a key whose default is None (thickness_m: z_opt) may
#       be None
_SCHEMA = {
    "power_mw":           (1.0, LaserParams, "power", 1e-3, "> 0"),
    "wavelength_nm":      (500.0, LaserParams, "wavelength", 1e-9, "> 0"),
    "beam_diameter_cm":   (0.5, LaserParams, "beam_diameter", 1e-2, "> 0"),
    "measurement_time_s": (1.0, LaserParams, "measurement_time", 1.0, "> 0"),
    "dipole_a_debye":     (1.0, MoleculeParams, "dipole_a", DEBYE, ">= 0"),
    "dipole_b_debye":     (0.0, MoleculeParams, "dipole_b", DEBYE, ">= 0"),
    "detuning_a_mhz":     (40.0, MoleculeParams, "detuning_a", MHZ, "any"),
    "detuning_b_mhz":     (0.0, MoleculeParams, "detuning_b", MHZ, "any"),
    "gamma_mhz":          (10.0, MoleculeParams, "decay_gamma", MHZ, "> 0"),
    "rate_a_mhz":         (1.0e-4, MoleculeParams, "rate_a", MHZ, ">= 0"),
    "rate_b_mhz":         (1.0e-4, MoleculeParams, "rate_b", MHZ, ">= 0"),
    "density_per_m3":     (1.0e20, SampleParams, "density_rho_m", 1.0, "> 0"),
    "thickness_m":        (None, SampleParams, "thickness", 1.0, "> 0"),
}


def _check_type(key: str, value) -> None:
    """Raise ``ParseError`` unless ``value`` is a number (bool excluded), or
    None for a key whose default is None."""
    if value is None and _SCHEMA[key][0] is None:
        return
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ParseError(f"key {key!r} must be a number, got {value!r}")


def _check_value(key: str, value) -> float:
    """The number ``value`` in its field's unit, a float; raise
    ``InvalidParam(key)`` unless that is finite and ``value`` has the
    key's sign."""
    _, _, _, factor, sign = _SCHEMA[key]
    try:
        # MHz values near the float maximum overflow on conversion to rad/s
        converted = value * factor
        finite = math.isfinite(converted)
    except OverflowError:  # an integer beyond the float range
        finite = False
    if (not finite or sign == "> 0" and not value > 0
            or sign == ">= 0" and value < 0):
        raise InvalidParam(key)
    return converted


def default_config() -> dict:
    return {key: entry[0] for key, entry in _SCHEMA.items()}


def from_config(config: dict) -> ModelParams:
    """Build a validated ModelParams bundle from a configuration dict."""
    unknown = set(config) - set(_SCHEMA)
    if unknown:
        raise ParseError(f"unknown configuration keys: {sorted(unknown)}")
    merged = dict(default_config(), **config)  # in schema order
    # every type error before any value error
    for key, value in merged.items():
        _check_type(key, value)
    fields = {LaserParams: {}, MoleculeParams: {}, SampleParams: {}}
    for key, value in merged.items():
        _, group, field, _, _ = _SCHEMA[key]
        fields[group][field] = (None if value is None
                                else _check_value(key, value))
    if not merged["rate_a_mhz"] + merged["rate_b_mhz"] > 0:
        raise InvalidParam("rate_a_mhz+rate_b_mhz")
    laser, molecule, sample = (group(**kwargs)
                               for group, kwargs in fields.items())
    return ModelParams(laser, molecule, sample, derive(laser, molecule))
