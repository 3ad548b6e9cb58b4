"""Reference telegraph sampler: one trajectory at a time, one draw per jump.

The package samples trajectories in blocks of draws with cumulative sums;
this loop, on the same (seed, i)-keyed Philox streams, is the reference
those occupancy times must equal bit for bit.
"""

import numpy as np


def occupancy_time(rng, p_a, rate_a, rate_b, horizon):
    """Time spent in state A over [0, horizon] of one telegraph trajectory.

    Waiting times are exact exponentials; because the conditioned fluxes are
    constant within a chemical state, occupancy times integrate the flux
    between jumps exactly (no discretization step enters).
    """
    in_a = rng.random() < p_a
    t, time_a = 0.0, 0.0
    while t < horizon:
        # leaving A happens at rate r_B (transfer into B) and vice versa
        rate_out = rate_b if in_a else rate_a
        stay = rng.exponential(1.0 / rate_out) if rate_out > 0 else np.inf
        segment = min(stay, horizon - t)
        if in_a:
            time_a += segment
        t += segment
        in_a = not in_a
    return time_a


def occupancy_times(seed, n, p_a, rate_a, rate_b, horizon):
    """Occupancy times of trajectories 0 .. n-1, trajectory i drawing from a
    new Philox generator keyed by (seed, i)."""
    return np.array([
        occupancy_time(np.random.Generator(np.random.Philox(
            key=np.array([seed, i], dtype=np.uint64))),
            p_a, rate_a, rate_b, horizon)
        for i in range(n)])
