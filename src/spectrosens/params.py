"""Physical inputs, unit conversion, and derived quantities.

Unit conventions (frozen for the whole package):

* User-facing frequencies and rates carry an explicit ``_mhz`` suffix and are
  ordinary frequencies; internally everything is angular, ``omega = 2*pi*nu``.
  The same conversion is applied uniformly to detunings, the decay rate and
  the chemical rates so that they are commensurate inside eigenvalues.
* Dipole moments are entered in Debye, lengths in the unit named by the key.
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


def mhz_to_angular(value_mhz: float) -> float:
    return value_mhz * MHZ


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
        _check_value("density_per_m3", density)
        return ModelParams(self.laser, self.molecule,
                           replace(self.sample, density_rho_m=density),
                           self.derived)


def stack(points) -> ModelParams:
    """The points as one ModelParams whose molecule and derived fields, all
    that a generator build reads, are (n, 1) arrays over them: a leading
    point axis, and a unit axis against which the tilts or fluxes of a
    stacked build broadcast.  The laser and the sample are not stacked
    (None)."""
    values = np.array([tuple(vars(p.molecule).values())
                       + tuple(vars(p.derived).values()) for p in points])
    columns = values.T[..., None]
    split = len(vars(points[0].molecule))
    return ModelParams(None, MoleculeParams(*columns[:split]), None,
                       DerivedQuantities(*columns[split:]))


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

DEFAULT_CONFIG = {
    "power_mw": 1.0,
    "wavelength_nm": 500.0,
    "beam_diameter_cm": 0.5,
    "measurement_time_s": 1.0,
    "dipole_a_debye": 1.0,
    "dipole_b_debye": 0.0,
    "detuning_a_mhz": 40.0,
    "detuning_b_mhz": 0.0,
    "gamma_mhz": 10.0,
    "rate_a_mhz": 1.0e-4,
    "rate_b_mhz": 1.0e-4,
    "density_per_m3": 1.0e20,
    "thickness_m": None,             # fixed sample depth; None means z_opt
}

# keys that must be positive; the others but the detunings (the dipoles and
# the rates) must be non-negative
_POSITIVE_KEYS = {"power_mw", "wavelength_nm", "beam_diameter_cm",
                  "measurement_time_s", "gamma_mhz", "density_per_m3",
                  "thickness_m"}


def _check_type(key: str, value) -> None:
    """Raise ``ParseError`` unless ``value`` is a number (bool excluded)."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ParseError(f"key {key!r} must be a number, got {value!r}")


def _check_value(key: str, value) -> None:
    """Raise ``InvalidParam(key)`` unless the number ``value`` is finite, in
    rad/s too for a MHz key, and in the key's range."""
    try:
        # MHz values near the float maximum overflow on conversion to rad/s
        finite = math.isfinite(mhz_to_angular(value) if key.endswith("_mhz")
                               else value)
    except OverflowError:  # an integer beyond the float range
        finite = False
    if (not finite or key in _POSITIVE_KEYS and not value > 0
            or not key.startswith("detuning") and value < 0):
        raise InvalidParam(key)


def default_config() -> dict:
    return dict(DEFAULT_CONFIG)


def from_config(config: dict) -> ModelParams:
    """Build a validated ModelParams bundle from a configuration dict."""
    unknown = set(config) - set(DEFAULT_CONFIG)
    if unknown:
        raise ParseError(f"unknown configuration keys: {sorted(unknown)}")
    merged = dict(DEFAULT_CONFIG, **config)  # in schema order
    numbers = dict(merged)
    if numbers["thickness_m"] is None:  # the signal-optimal depth
        del numbers["thickness_m"]
    # every type error before any value error
    for key, value in numbers.items():
        _check_type(key, value)
    for key, value in numbers.items():
        _check_value(key, value)
    if not merged["rate_a_mhz"] + merged["rate_b_mhz"] > 0:
        raise InvalidParam("rate_a_mhz+rate_b_mhz")
    laser = LaserParams(
        power=merged["power_mw"] * 1e-3,
        wavelength=merged["wavelength_nm"] * 1e-9,
        beam_diameter=merged["beam_diameter_cm"] * 1e-2,
        measurement_time=merged["measurement_time_s"],
    )
    molecule = MoleculeParams(
        dipole_a=merged["dipole_a_debye"] * DEBYE,
        dipole_b=merged["dipole_b_debye"] * DEBYE,
        detuning_a=mhz_to_angular(merged["detuning_a_mhz"]),
        detuning_b=mhz_to_angular(merged["detuning_b_mhz"]),
        decay_gamma=mhz_to_angular(merged["gamma_mhz"]),
        rate_a=mhz_to_angular(merged["rate_a_mhz"]),
        rate_b=mhz_to_angular(merged["rate_b_mhz"]),
    )
    sample = SampleParams(density_rho_m=merged["density_per_m3"],
                          thickness=merged["thickness_m"])
    return ModelParams(laser, molecule, sample, derive(laser, molecule))
