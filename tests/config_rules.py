"""Reference configuration rules that read each key's spelling.

The package takes a key's unit factor, sign and field from one schema
table.  These are the rules it replaced: a ``_mhz`` key is finite in rad/s
too, a detuning takes any sign, the keys of ``POSITIVE_KEYS`` must be
positive and the others non-negative, and each group is built field by
field.
"""

import math

from spectrosens.errors import InvalidParam
from spectrosens.params import (DEBYE, MHZ, LaserParams, MoleculeParams,
                                SampleParams)

POSITIVE_KEYS = {"power_mw", "wavelength_nm", "beam_diameter_cm",
                 "measurement_time_s", "gamma_mhz", "density_per_m3",
                 "thickness_m"}


def check_value(key, value):
    """Raise ``InvalidParam(key)`` unless the number ``value`` is finite, in
    rad/s too for a MHz key, and in the key's range."""
    try:
        finite = math.isfinite(value * MHZ if key.endswith("_mhz")
                               else value)
    except OverflowError:  # an integer beyond the float range
        finite = False
    if (not finite or key in POSITIVE_KEYS and not value > 0
            or not key.startswith("detuning") and value < 0):
        raise InvalidParam(key)


def groups(config):
    """The laser, molecule and sample parameters of a complete numeric
    configuration (a null ``thickness_m`` aside), after its value checks."""
    for key, value in config.items():
        if value is not None:
            check_value(key, value)
    if not config["rate_a_mhz"] + config["rate_b_mhz"] > 0:
        raise InvalidParam("rate_a_mhz+rate_b_mhz")
    laser = LaserParams(
        power=config["power_mw"] * 1e-3,
        wavelength=config["wavelength_nm"] * 1e-9,
        beam_diameter=config["beam_diameter_cm"] * 1e-2,
        measurement_time=config["measurement_time_s"],
    )
    molecule = MoleculeParams(
        dipole_a=config["dipole_a_debye"] * DEBYE,
        dipole_b=config["dipole_b_debye"] * DEBYE,
        detuning_a=config["detuning_a_mhz"] * MHZ,
        detuning_b=config["detuning_b_mhz"] * MHZ,
        decay_gamma=config["gamma_mhz"] * MHZ,
        rate_a=config["rate_a_mhz"] * MHZ,
        rate_b=config["rate_b_mhz"] * MHZ,
    )
    sample = SampleParams(density_rho_m=config["density_per_m3"],
                          thickness=config["thickness_m"])
    return laser, molecule, sample
