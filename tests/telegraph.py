"""Reference telegraph sampler: one scalar step per trajectory and column.

The package steps the working sets of a group of chunks column by column
on arrays; this loop steps one chunk's trajectories one at a time, on the
same PCG64 stream per chunk (the chunk index's spawned child of the seed),
and is the reference those occupancy times must equal bit for bit.
"""

import math

import numpy as np

from spectrosens.oracles import MC_CHECKPOINT, MC_CHUNK


class ScriptedRng:
    """Stands in for a generator: fixed uniform, scripted standard
    exponential draws taken in order, one at a time or a buffer at once."""

    def __init__(self, uniform, draws):
        self.uniform, self.draws = uniform, list(draws)

    def random(self):
        return self.uniform

    def exponential(self, scale):
        return scale * self.draws.pop(0)

    def standard_exponential(self, size=None, out=None):
        size = len(out) if out is not None else size
        taken, self.draws = self.draws[:size], self.draws[size:]
        if len(taken) < size:
            raise IndexError("the scripted draws ran out")
        if out is None:
            return np.array(taken)
        out[:] = taken
        return out


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


def chunk_occupancy_times(in_a, rng, rate_a, rate_b, horizon):
    """Occupancy times of one chunk's trajectories, given their initial
    states, drawing from ``rng`` its working set's exponentials column by
    column: every trajectory at first; after every ``MC_CHECKPOINT``-th
    column, only those short of the horizon if they are at most half of
    the set; and none once every trajectory has reached the horizon at a
    check.  A trajectory past the horizon takes its draw and no step."""
    clock, time_a = [0.0] * len(in_a), [0.0] * len(in_a)
    working, column = list(range(len(in_a))), 0
    while True:
        draws = rng.standard_exponential(len(working)).tolist()
        for r, draw in zip(working, draws):
            t = clock[r]
            if t < horizon:
                # the stay in A at even columns if r starts in A, at odd
                # ones if it starts in B; leaving A happens at rate r_B
                # (transfer into B) and vice versa
                here_a = in_a[r] == (column % 2 == 0)
                rate_out = rate_b if here_a else rate_a
                stay = draw * (1.0 / rate_out) if rate_out > 0 else math.inf
                segment = min(stay, horizon - t)
                clock[r] = t + segment
                if here_a:
                    time_a[r] += segment
        column += 1
        if column % MC_CHECKPOINT == 0:
            live = [r for r in working if clock[r] < horizon]
            if not live:
                return time_a
            if 2 * len(live) <= len(working):
                working = live


def occupancy_times(seed, n, p_a, rate_a, rate_b, horizon):
    """Occupancy times of trajectories 0 .. n-1.  Chunk c of ``MC_CHUNK``
    trajectories draws from a new PCG64 generator seeded by the c-th child
    of ``SeedSequence(seed).spawn``: ``MC_CHUNK`` uniforms, then its
    working set's exponentials (``chunk_occupancy_times``); a last,
    partial chunk steps all its ``MC_CHUNK`` trajectories too."""
    times = []
    for chunk in range(math.ceil(n / MC_CHUNK)):
        rng = np.random.Generator(np.random.PCG64(
            np.random.SeedSequence(int(seed)).spawn(chunk + 1)[chunk]))
        in_a = (rng.random(MC_CHUNK) < p_a).tolist()
        times += chunk_occupancy_times(in_a, rng, rate_a, rate_b, horizon)
    return np.array(times[:n])
