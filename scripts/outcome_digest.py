#!/usr/bin/env python3
"""Digests of the pipeline's outcomes, for checking that a change to the
evaluation leaves every number bit for bit as it was.

Prints one sha256 over the outcomes of 162 points (3 routes x 6 rate pairs
x 9 detunings, one stacked pass per route): the ``float.hex`` of every
number of a ``PointResult``, or the type and message of the error a point
ends in.  Then one sha256 per sweep, over its CSV and every field of its
rows (the route deviation of ``both`` too), for grids that mix results
with several kinds of failure, on the ``full`` and ``both`` routes.  Run
it on two versions of the code and compare the output; it takes a few
seconds.

    PYTHONPATH=src python scripts/outcome_digest.py
"""

import dataclasses
import hashlib
import io
import itertools
import warnings

import numpy as np

from spectrosens import cli, pipeline
from spectrosens.params import default_config, from_config

# (rate_a_mhz, rate_b_mhz)
RATE_PAIRS = ((1e-6, 3e-6), (1e-4, 1.5e-4), (2.0, 3.0), (1e-12, 1e-12),
              (0.05, 0.02), (3.0, 60.0))
DETUNINGS_MHZ = (-100.0, -60.0, -20.0, 0.0, 10.0, 25.0, 70.0, 500.0, 1000.0)

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


def point_digest() -> str:
    digest = hashlib.sha256()
    for route in pipeline.ROUTES:
        points = [from_config({"detuning_a_mhz": d, "rate_a_mhz": ra,
                               "rate_b_mhz": rb})
                  for (ra, rb), d in itertools.product(RATE_PAIRS,
                                                       DETUNINGS_MHZ)]
        for outcome in pipeline.evaluate_points(points, route):
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
    print(f"points {point_digest()}")
    for name, base, axes in SWEEPS:
        for route in ("full", "both"):
            print(f"sweep {name} {route} {sweep_digest(base, axes, route)}")


if __name__ == "__main__":
    main()
