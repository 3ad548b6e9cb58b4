#!/usr/bin/env python3
"""Digests of the pipeline's outcomes, for checking that a change to the
evaluation leaves every number bit for bit as it was.

Prints, per route, one sha256 over the outcomes of 54 points (6 rate pairs
x 9 detunings, one stacked pass), so that a change to one route shows
which lines move: the ``float.hex`` of every number of a ``PointResult``,
or the type and message of the error a point ends in.  Then one sha256
over the adiabatic composition of the same rate pairs and detunings, with
state B dark and with it absorbing: ``conditioned_rate`` of A and B,
``chemical_rate_term`` and ``adiabatic_rate`` by both methods at J0 and
J0/10.  Then one sha256 per
sweep, over its CSV and every field of its rows (the route deviation of
``both`` too), for grids that mix results with several kinds of failure,
and for one whose cross sections take finite-difference steps below
``fcs.STEP_TILT``, on the ``full`` and ``both`` routes.  Last, one sha256
over the standalone ``fcs`` calls on single (unstacked) points at the same
rate pairs and detunings: ``cross_sections``, ``diffusion_rate`` at J0 and at
three fluxes, ``second_cumulant_matrix`` at a scalar and an array flux
scale, and ``fit_diffusion_expansion`` with the linear coefficient pinned
and free.  Then one sha256 over the bytes of the telegraph Monte Carlo's
``(rate, stderr)``, or its error, at seeds 0 and 2**64 - 1, 1000,
MC_CHUNK + 88 and 9 * MC_CHUNK + 88 trajectories, over the default
horizon and 400 t_R, with state B never entered (``rate_b = 0``),
state A never entered (``rate_a = 0``), rates 50:1 either way, and two
states that absorb alike (equal detunings and dipoles).  Last, one
sha256 over the quadrature oracle's covariance, or its error, at 4 of the
rate pairs and 4 of the detunings, at the optimal depth and 10 and 30
attenuation lengths deep (at 30 the adaptive rule bisects twice), with the
weak-field ``adiabatic_rate`` and with the polynomial D1*J + D2*J^2/2 of
the weak-field expansion as the rate.  Run it on two versions of the code
and compare the output; it takes a few seconds.

    PYTHONPATH=src python scripts/outcome_digest.py
"""

import dataclasses
import hashlib
import io
import itertools
import warnings

import numpy as np

from spectrosens import adiabatic, cli, fcs, oracles, pipeline, propagation
from spectrosens.params import default_config, from_config

# (rate_a_mhz, rate_b_mhz)
RATE_PAIRS = ((1e-6, 3e-6), (1e-4, 1.5e-4), (2.0, 3.0), (1e-12, 1e-12),
              (0.05, 0.02), (3.0, 60.0))
DETUNINGS_MHZ = (-100.0, -60.0, -20.0, 0.0, 10.0, 25.0, 70.0, 500.0, 1000.0)

# configurations of the Monte-Carlo line, and its seeds
MC_CONFIGS = ({"rate_a_mhz": 1e-4, "rate_b_mhz": 0.0},
              {"rate_a_mhz": 0.0, "rate_b_mhz": 1e-4},
              {"rate_a_mhz": 5e-3, "rate_b_mhz": 1e-4},
              {"rate_a_mhz": 1e-4, "rate_b_mhz": 5e-3},
              {"detuning_a_mhz": 40.0, "detuning_b_mhz": 40.0,
               "dipole_a_debye": 1.0, "dipole_b_debye": 1.0})
MC_SEEDS = (0, 2**64 - 1)
# trajectories: one partial chunk, two chunks, and two groups of up to 8
# chunks stepped together, the last chunk partial; horizons in t_R (None is
# the default)
MC_TRAJECTORIES = (1000, oracles.MC_CHUNK + 88, 9 * oracles.MC_CHUNK + 88)
MC_HORIZONS = (None, 400.0)

# rate pairs and detunings of the quadrature line
QUAD_RATE_PAIRS = RATE_PAIRS[:4]
QUAD_DETUNINGS_MHZ = (-60.0, 0.0, 25.0, 1000.0)
# depths in attenuation lengths 1/(rho_M S_plus), None the optimal depth
QUAD_DEPTHS = (None, 10.0, 30.0)

# (name, base configuration, axes)
SWEEPS = (
    ("gap", {}, ["rate,log,1e-13,1e-1,12"]),
    ("gap-wide", {}, ["rate,log,1e-13,1e2,101"]),
    ("detuning-rate", {}, ["detuning,linear,-100,100,101",
                           "rate,log,1e-6,1,5"]),
    ("density-edge", {}, ["density,log,1e-300,1e20,6"]),
    ("far-detuned", {}, ["detuning,linear,500,1000,2",
                         "rate,log,1e-4,1e-2,2"]),
    ("fig-rate", {}, ["rate,log,1e-6,1e2,25"]),   # the fig1c and fig3 axis
    ("thickness", {"thickness_m": 0.01}, ["detuning,linear,-50,50,5"]),
    # at 100 mW and slow rates the step choice picks steps below STEP_TILT
    ("step-limited", {"power_mw": 100}, ["rate,log,1e-10,1e-3,15",
                                         "detuning,linear,-60,60,3"]),
)


def _flatten(value):
    """The tokens of an outcome: ``float.hex`` of each number, in field
    order, and the text of everything else."""
    if isinstance(value, Exception):
        return [type(value).__name__, str(value)]
    if dataclasses.is_dataclass(value):
        return [token for item in dataclasses.fields(value)
                for token in _flatten(getattr(value, item.name))]
    if isinstance(value, dict):
        return [token for key in sorted(value)
                for token in [key] + _flatten(value[key])]
    if isinstance(value, np.ndarray):
        return [float(x).hex() for x in value.ravel()]
    if isinstance(value, (float, np.floating)):
        return [float(value).hex()]
    return [repr(value)]


def point_digest(route) -> str:
    digest = hashlib.sha256()
    points = [from_config({"detuning_a_mhz": d, "rate_a_mhz": ra,
                           "rate_b_mhz": rb})
              for (ra, rb), d in itertools.product(RATE_PAIRS, DETUNINGS_MHZ)]
    for outcome in pipeline.evaluate_points(points, route):
        digest.update("\n".join(_flatten(outcome)).encode() + b"\n\n")
    return digest.hexdigest()


def adiabatic_digest() -> str:
    digest = hashlib.sha256()
    for dipole_b, (ra, rb), d in itertools.product((0.0, 0.6), RATE_PAIRS,
                                                   DETUNINGS_MHZ):
        params = from_config({"detuning_a_mhz": d, "rate_a_mhz": ra,
                              "rate_b_mhz": rb, "dipole_b_debye": dipole_b})
        j0 = params.derived.photon_flux_j0
        for method, J in itertools.product(("exact", "weak_field"),
                                           (j0, j0 / 10.0)):
            calls = [(adiabatic.conditioned_rate, (params, "A", J, method)),
                     (adiabatic.conditioned_rate, (params, "B", J, method)),
                     (adiabatic.chemical_rate_term, (params, J, method)),
                     (adiabatic.adiabatic_rate, (params, J, method))]
            for function, args in calls:
                try:
                    outcome = function(*args)
                except Exception as exc:   # an error is an outcome too
                    outcome = exc
                digest.update("\n".join(_flatten(outcome)).encode()
                              + b"\n\n")
    return digest.hexdigest()


def fcs_digest() -> str:
    digest = hashlib.sha256()
    for (ra, rb), d in itertools.product(RATE_PAIRS, DETUNINGS_MHZ):
        params = from_config({"detuning_a_mhz": d, "rate_a_mhz": ra,
                              "rate_b_mhz": rb})
        j0 = params.derived.photon_flux_j0
        calls = [(fcs.cross_sections, (params,)),
                 (fcs.diffusion_rate, (params, j0)),
                 (fcs.diffusion_rate,
                  (params, j0 * np.array([0.1, 0.5, 1.0]))),
                 (fcs.second_cumulant_matrix, (params, 0.5)),
                 (fcs.second_cumulant_matrix,
                  (params, np.array([0.0, 0.3, 1.0, 2.5]))),
                 (fcs.fit_diffusion_expansion, (params, None, True)),
                 (fcs.fit_diffusion_expansion, (params, None, False))]
        for function, args in calls:
            try:
                outcome = function(*args)
            except Exception as exc:   # an error is an outcome too
                outcome = exc
            # the cross sections and cumulants are tuples of numbers
            parts = outcome if isinstance(outcome, tuple) else (outcome,)
            digest.update("\n".join(token for part in parts
                                     for token in _flatten(part)).encode()
                          + b"\n\n")
    return digest.hexdigest()


def mc_digest() -> str:
    digest = hashlib.sha256()
    for config, seed, n, horizon in itertools.product(
            MC_CONFIGS, MC_SEEDS, MC_TRAJECTORIES, MC_HORIZONS):
        params = from_config(config)
        if horizon is not None:
            horizon *= adiabatic.reaction_time(params)
        mc = oracles.McConfig(n_trajectories=n, seed=seed, horizon=horizon)
        try:
            rate, stderr = oracles.telegraph_mc_diffusion(params, mc)
        except Exception as exc:   # an error is an outcome too
            digest.update("\n".join(_flatten(exc)).encode() + b"\n\n")
        else:
            digest.update(rate.tobytes() + stderr.tobytes())
    return digest.hexdigest()


def quad_digest() -> str:
    digest = hashlib.sha256()
    for (ra, rb), d in itertools.product(QUAD_RATE_PAIRS, QUAD_DETUNINGS_MHZ):
        params = from_config({"detuning_a_mhz": d, "rate_a_mhz": ra,
                              "rate_b_mhz": rb})
        s_plus, _, expansion = adiabatic.weak_field_expansion(params)
        rho = params.sample.density_rho_m
        rate_fns = (lambda j: adiabatic.adiabatic_rate(params, j,
                                                       method="weak_field"),
                    lambda j: expansion.D1 * j + 0.5 * expansion.D2 * j * j)
        depths = [propagation.z_optimal(params, s_plus) if lengths is None
                  else lengths / (rho * s_plus) for lengths in QUAD_DEPTHS]
        for rate_fn, z in itertools.product(rate_fns, depths):
            try:
                outcome = oracles.quadrature_covariance(params, rate_fn,
                                                        s_plus, z)
            except Exception as exc:   # an error is an outcome too
                outcome = exc
            digest.update("\n".join(_flatten(outcome)).encode() + b"\n\n")
    return digest.hexdigest()


def sweep_digest(base, axes, route) -> str:
    rows = cli.run_sweep(dict(default_config(), **base), axes, route)
    stream = io.StringIO()
    cli.write_csv(rows, stream)
    fields = [token for row in rows for token in _flatten(row)]
    return hashlib.sha256("\n".join([stream.getvalue()] + fields)
                          .encode()).hexdigest()


def main():
    warnings.simplefilter("ignore")   # physics warnings are not outcomes
    for route in pipeline.ROUTES:
        print(f"points {route} {point_digest(route)}")
    print(f"adiabatic {adiabatic_digest()}")
    for name, base, axes in SWEEPS:
        for route in ("full", "both"):
            print(f"sweep {name} {route} {sweep_digest(base, axes, route)}")
    print(f"fcs {fcs_digest()}")
    print(f"mc {mc_digest()}")
    print(f"quad {quad_digest()}")


if __name__ == "__main__":
    main()
