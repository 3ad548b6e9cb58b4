#!/usr/bin/env python3
"""Monte-Carlo validation of the telegraph chemical-noise term.

Samples two-state occupancy-time trajectories and compares the resulting
detector-flux covariance rate against the analytic telegraph expression,
reporting pulls in units of the jackknife standard error.  Over a finite
horizon T the estimator's mean is the infinite-horizon term times
g(T) = 1 - (t_R/T)(1 - exp(-T/t_R)), so the expected rate carries g(T).
An invalid input ends with the command line's JSON error on stderr and exit
status 2.
"""

import argparse
import math
import sys

import numpy as np

from spectrosens import adiabatic, oracles
from spectrosens.cli import EXIT_USAGE, _error_json
from spectrosens.errors import ModelError
from spectrosens.params import from_config


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trajectories", type=int, default=10_000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--detuning", type=float, default=40.0)
    parser.add_argument("--rate", type=float, default=1e-4)
    args = parser.parse_args()

    try:
        params = from_config({"detuning_a_mhz": args.detuning,
                              "rate_a_mhz": args.rate,
                              "rate_b_mhz": args.rate})
        cfg = oracles.McConfig(n_trajectories=args.trajectories,
                               seed=args.seed)
        rate_mc, stderr = oracles.telegraph_mc_diffusion(params, cfg)
    except (ValueError, ModelError) as exc:
        print(_error_json(exc), file=sys.stderr)
        sys.exit(EXIT_USAGE)
    t_r = adiabatic.reaction_time(params)
    _, horizon = cfg.resolve(t_r)
    finite = 1.0 - t_r / horizon * (1.0 - math.exp(-horizon / t_r))
    analytic = finite * adiabatic.chemical_rate_term(
        params, params.derived.photon_flux_j0, method="weak_field")

    with np.errstate(divide="ignore", invalid="ignore"):
        pulls = np.where(stderr > 0, (rate_mc - analytic) / stderr, 0.0)
    print("MC rate (1/s):")
    print(rate_mc)
    print(f"finite-horizon factor g(T): {finite:.6f}")
    print("analytic rate times g(T) (1/s):")
    print(analytic)
    print("pulls (sigma):")
    print(pulls)


if __name__ == "__main__":
    main()
