"""Reference telegraph sampler: one trajectory at a time, one draw per jump.

The package samples the trajectories of a chunk in blocks of draws taken
column by column; this loop, on the same PCG64 stream per chunk (the chunk
index's spawned child of the seed), is the reference those occupancy times
must equal bit for bit.
"""

import math

import numpy as np

from spectrosens.oracles import MC_CHUNK


class ScriptedRng:
    """Stands in for a generator: fixed uniform, scripted standard
    exponential draws taken in order."""

    def __init__(self, uniform, draws):
        self.uniform, self.draws = uniform, list(draws)

    def random(self):
        return self.uniform

    def exponential(self, scale):
        return scale * self.draws.pop(0)


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
    """Occupancy times of trajectories 0 .. n-1.  Chunk c of ``MC_CHUNK``
    trajectories draws from a new PCG64 generator seeded by the c-th child
    of ``SeedSequence(seed).spawn``:
    ``MC_CHUNK`` uniforms, then one deep block of exponentials whose column
    r holds trajectory c * MC_CHUNK + r's waiting times in order.  The
    block holds at least 8 times the expected jumps, and a trajectory that
    runs out of draws raises IndexError."""
    depth = 4 * math.ceil(horizon * (rate_a + rate_b)) + 64
    times = []
    for chunk in range(math.ceil(n / MC_CHUNK)):
        rng = np.random.Generator(np.random.PCG64(
            np.random.SeedSequence(int(seed)).spawn(chunk + 1)[chunk]))
        uniforms = rng.random(MC_CHUNK)
        block = rng.standard_exponential((depth, MC_CHUNK))
        for r in range(min(MC_CHUNK, n - chunk * MC_CHUNK)):
            row = ScriptedRng(uniforms[r], block[:, r].tolist())
            times.append(occupancy_time(row, p_a, rate_a, rate_b, horizon))
    return np.array(times)
