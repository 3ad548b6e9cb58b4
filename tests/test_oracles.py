import math
import os
import pathlib
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from finite_time import cgf_finite_time
from spectrosens import adiabatic, fcs, oracles, propagation
from spectrosens.errors import QuadratureNotConverged, StencilUnstable
from spectrosens.liouvillian import build_two_sided
from spectrosens.params import from_config
from telegraph import ScriptedRng, occupancy_time, occupancy_times


def test_quadrature_zero_diffusion(default_params):
    s_plus, z = 5e-17, 0.01
    result = oracles.quadrature_covariance(default_params,
                                           lambda j: np.zeros((2, 2)),
                                           s_plus, z)
    rho = default_params.sample.density_rho_m
    expected = default_params.derived.n_p0 * math.exp(-2 * rho * s_plus * z)
    assert np.allclose(result, expected * np.eye(2), rtol=1e-9)


def test_quadrature_non_finite_integrand_raises(default_params):
    """A failed integration is a typed error, not a NaN covariance: also
    for a rate that is NaN only below J0/2, which one attenuation length
    reaches (J falls to J0/e), at some nodes of a rule's flux array."""
    with pytest.raises(QuadratureNotConverged, match="non-finite"):
        oracles.quadrature_covariance(default_params,
                                      lambda j: np.full((2, 2), np.nan),
                                      5e-17, 0.01)
    j0 = default_params.derived.photon_flux_j0
    with pytest.raises(QuadratureNotConverged, match="non-finite"):
        oracles.quadrature_covariance(
            default_params,
            lambda j: np.where(j >= 0.5 * j0, 1.0, np.nan) * np.eye(2),
            5e-17, 1.0 / (default_params.sample.density_rho_m * 5e-17))


def test_quadrature_constant_diffusion(default_params):
    """Flux-independent per-molecule rate: analytic exponential integral."""
    s_plus = 5e-17
    rho = default_params.sample.density_rho_m
    z = 1.0 / (rho * s_plus)
    const = np.array([[3.0, 1.0], [1.0, 2.0]])  # 1/s per molecule
    result = oracles.quadrature_covariance(default_params,
                                           lambda j: const, s_plus, z)
    der, laser = default_params.derived, default_params.laser
    line = rho * der.beam_area * laser.measurement_time
    att2 = math.exp(-2 * rho * s_plus * z)
    expected = (der.n_p0 * att2 * np.eye(2)
                + line * const * (1 - att2) / (2 * rho * s_plus))
    assert np.allclose(result, expected, rtol=1e-8)


def test_quadrature_rejects_bad_depth(default_params):
    """A negative or non-finite depth is refused, as by the closed form."""
    for z in (-0.01, math.nan, math.inf):
        with pytest.raises(ValueError):
            oracles.quadrature_covariance(default_params,
                                          lambda j: np.eye(2), 5e-17, z)


def test_gk21_rule_exactness():
    """The Kronrod weights integrate x^k over [-1, 1] exactly to degree 31,
    the Gauss weights to degree 19, and neither rule to the next even
    degree: a wrong digit in a node or weight would show."""
    x = oracles.GK21_NODES
    assert np.all(np.diff(x) > 0) and np.array_equal(x, -x[::-1])
    assert np.count_nonzero(oracles.GK21_GAUSS_WEIGHTS) == 10
    for weights, degree in ((oracles.GK21_KRONROD_WEIGHTS, 31),
                            (oracles.GK21_GAUSS_WEIGHTS, 19)):
        for k in range(degree + 2):
            exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
            error = abs(weights @ x**k - exact)
            assert (error < 1e-15) == (k <= degree), (k, error)


def _scipy_quadrature(params, rate_fn, s_plus, z):
    """The same transport integral by scipy's quad_vec, to 1e-12."""
    scipy_integrate = pytest.importorskip("scipy.integrate")
    der, sample = params.derived, params.sample
    rho, n_p0, j0 = sample.density_rho_m, der.n_p0, der.photon_flux_j0
    line_density = rho * der.beam_area * params.laser.measurement_time

    def integrand(z_prime):
        return (np.exp(-2.0 * rho * s_plus * (z - z_prime)) * line_density
                * np.asarray(rate_fn(j0 * np.exp(-rho * s_plus * z_prime))))
    result, _ = scipy_integrate.quad_vec(integrand, 0.0, z, epsrel=1e-12,
                                         epsabs=np.finfo(float).tiny)
    return n_p0 * np.exp(-2.0 * rho * s_plus * z) * np.eye(2) + result


def _assert_matches_scipy(params, rate_fn, s_plus, z):
    result = oracles.quadrature_covariance(params, rate_fn, s_plus, z)
    reference = _scipy_quadrature(params, rate_fn, s_plus, z)
    assert np.max(np.abs(result - reference)) <= 1e-9 * np.max(
        np.abs(reference))


def test_quadrature_matches_scipy_on_fitted_expansions():
    """The acceptance-9 grid of fitted expansions at the optimal depth."""
    pytest.importorskip("scipy.integrate")
    for eps in np.linspace(0.0, 80.0, 5):
        for rate in np.geomspace(1e-5, 1e-1, 5):
            p = from_config({"detuning_a_mhz": float(eps),
                             "rate_a_mhz": float(rate),
                             "rate_b_mhz": float(rate)})
            exp = fcs.fit_diffusion_expansion(p)
            s_plus = sum(fcs.cross_sections(p))
            _assert_matches_scipy(
                p, lambda j: exp.D1 * j + 0.5 * exp.D2 * j * j, s_plus,
                propagation.z_optimal(p, s_plus))


def test_quadrature_matches_scipy_deep_and_kinked(default_params):
    """Ten attenuation lengths deep, and a rate with a kink in J that the
    rule must bisect towards; rate_fn sees one (21, 1, 1) flux array per
    rule."""
    p = default_params
    j0, rho = p.derived.photon_flux_j0, p.sample.density_rho_m
    s_plus, _ = adiabatic.effective_cross_sections(p)
    base = adiabatic.adiabatic_rate(p, j0, method="weak_field")
    calls = []

    def weak_field(j):
        calls.append(np.shape(j))
        return adiabatic.adiabatic_rate(p, j, method="weak_field")
    oracles.quadrature_covariance(p, weak_field, s_plus,
                                  propagation.z_optimal(p, s_plus))
    # one 21-point rule, one call, meets the tolerance on the smooth
    # integrand
    assert calls == [(21, 1, 1)]
    _assert_matches_scipy(p, weak_field, s_plus, 10.0 / (rho * s_plus))
    _assert_matches_scipy(p, lambda j: base * (1.0 + abs(j / j0 - 0.8)),
                          s_plus, 1.0 / (rho * s_plus))


def _gk21_per_node(integrand, a, b):
    """``oracles._gk21`` with the integrand called once per node, at a
    scalar: the reference for the rule's one call on all 21 nodes."""
    center, half = 0.5 * (a + b), 0.5 * (b - a)
    values = np.array([integrand(center + half * x)
                       for x in oracles.GK21_NODES.tolist()])
    kronrod = half * np.tensordot(oracles.GK21_KRONROD_WEIGHTS, values,
                                  axes=1)
    gauss = half * np.tensordot(oracles.GK21_GAUSS_WEIGHTS, values, axes=1)
    return kronrod, float(np.max(np.abs(kronrod - gauss)))


@pytest.mark.parametrize("config", [
    {},
    {"detuning_a_mhz": -80.0, "rate_a_mhz": 0.05},
    {"detuning_a_mhz": 40.0, "rate_a_mhz": 1e-5, "rate_b_mhz": 3e-4},
])
def test_quadrature_equals_per_node_reference(config, monkeypatch):
    """Each rule's one rate call on its 21 fluxes gives the bytes of 21
    scalar calls, with the weak-field composition and with its polynomial
    D1*J + D2*J^2/2 as the rate, at the optimal depth (one rule) and 30
    attenuation lengths deep (five rules)."""
    p = from_config(config)
    s_plus, _, expansion = adiabatic.weak_field_expansion(p)
    depths = (propagation.z_optimal(p, s_plus),
              30.0 / (p.sample.density_rho_m * s_plus))
    rate_fns = (lambda j: adiabatic.adiabatic_rate(p, j, method="weak_field"),
                lambda j: expansion.D1 * j + 0.5 * expansion.D2 * j * j)
    results, rules = [], []
    for gk21 in (oracles._gk21, _gk21_per_node):
        def counted(*args, gk21=gk21):
            rules.append(gk21)
            return gk21(*args)
        monkeypatch.setattr(oracles, "_gk21", counted)
        results.append([oracles.quadrature_covariance(p, rate_fn, s_plus,
                                                      z).tobytes()
                        for rate_fn in rate_fns for z in depths])
    assert results[0] == results[1]
    assert rules.count(_gk21_per_node) == 2 * (1 + 5)


def test_quadrature_spent_budget_raises(default_params):
    """A square wave in J with ~10^6 jumps, which no budget of subintervals
    resolves, is a typed error."""
    j0 = default_params.derived.photon_flux_j0
    with pytest.raises(QuadratureNotConverged, match="subintervals"):
        oracles.quadrature_covariance(
            default_params,
            lambda j: np.eye(2) * (np.floor(1e6 * j / j0) % 2),
            5e-17, 1.0 / (default_params.sample.density_rho_m * 5e-17))


def test_mc_determinism(default_params):
    cfg = oracles.McConfig(n_trajectories=1000, seed=7)
    r1, e1 = oracles.telegraph_mc_diffusion(default_params, cfg)
    r2, e2 = oracles.telegraph_mc_diffusion(default_params, cfg)
    assert np.array_equal(r1, r2)
    assert np.array_equal(e1, e2)
    r3, _ = oracles.telegraph_mc_diffusion(
        default_params, oracles.McConfig(n_trajectories=1000, seed=8))
    assert not np.array_equal(r1, r3)


def test_mc_matches_analytic_chemical_term(default_params):
    cfg = oracles.McConfig(n_trajectories=4000, seed=3)
    rate, stderr = oracles.telegraph_mc_diffusion(default_params, cfg)
    analytic = adiabatic.chemical_rate_term(
        default_params, default_params.derived.photon_flux_j0,
        method="weak_field")
    assert np.all(np.abs(rate - analytic) <= 3 * stderr)


def test_mc_single_state_no_chemical_noise():
    """All transfer into A: the molecule never leaves, covariance vanishes."""
    params = from_config({"rate_a_mhz": 1e-4, "rate_b_mhz": 0.0})
    cfg = oracles.McConfig(n_trajectories=1000, seed=5)
    rate, stderr = oracles.telegraph_mc_diffusion(params, cfg)
    assert np.allclose(rate, 0.0)
    assert np.allclose(stderr, 0.0)


def test_mc_single_state_b_no_chemical_noise():
    """All transfer into B: p_A = 0 and the molecule never leaves B."""
    params = from_config({"rate_a_mhz": 0.0, "rate_b_mhz": 1e-4})
    p_a, _ = adiabatic.stationary_probabilities(params)
    assert p_a == 0.0
    cfg = oracles.McConfig(n_trajectories=1000, seed=5)
    _, horizon = cfg.resolve(adiabatic.reaction_time(params))
    times = oracles._occupancy_times(cfg.seed, cfg.n_trajectories, p_a,
                                     params.molecule.rate_a,
                                     params.molecule.rate_b, horizon)
    assert np.all(times == 0.0)
    rate, stderr = oracles.telegraph_mc_diffusion(params, cfg)
    assert np.allclose(rate, 0.0)
    assert np.allclose(stderr, 0.0)


# equal rates, unequal ones, and a strongly unequal pair whose jump count
# has about twice the Poisson variance
RATE_PAIRS = [{}, {"rate_a_mhz": 3e-3, "rate_b_mhz": 1.5e-3},
              {"rate_a_mhz": 1e-4, "rate_b_mhz": 5e-3}]
GROUP_ROWS = oracles.MC_GROUP * oracles.MC_CHUNK
# (configuration, trajectories, horizon in t_R): the rate pairs over two
# chunks, the last partial; a group and one row; two groups, the last with
# a partial chunk; a long horizon; and a state A that is never left
LOOP_CASES = [(config, oracles.MC_CHUNK + 88, 50) for config in RATE_PAIRS] + [
    ({}, GROUP_ROWS + 1, 50),
    (RATE_PAIRS[1], GROUP_ROWS + oracles.MC_CHUNK + 88, 50),
    (RATE_PAIRS[1], oracles.MC_CHUNK + 88, 400),
    ({"rate_a_mhz": 1e-4, "rate_b_mhz": 0.0}, oracles.MC_CHUNK + 88, 50)]


@pytest.mark.parametrize("seed", [0, 4, 2**63 + 11, 2**64 - 1])
@pytest.mark.parametrize("config", LOOP_CASES)
def test_occupancy_times_match_loop_reference(seed, config):
    """Working sets stepped column by column for a group of chunks at once
    give the occupancy times of the one-step-per-row-and-column loop bit for
    bit, across chunks and groups."""
    config, n, horizon = config
    params = from_config(config)
    p_a, _ = adiabatic.stationary_probabilities(params)
    mol, t_r = params.molecule, adiabatic.reaction_time(params)
    args = (seed, n, p_a, mol.rate_a, mol.rate_b, horizon * t_r)
    assert np.array_equal(oracles._occupancy_times(*args),
                          occupancy_times(*args))


@pytest.mark.parametrize("chunk", [0, 4])
@pytest.mark.parametrize("seed", [0, 2**64 - 1])
def test_chunk_stream_is_spawned_pcg64(seed, chunk):
    """Chunk c's first block of uniforms and first column of exponentials
    are those of a PCG64 generator on ``SeedSequence(seed).spawn``'s c-th
    child, and another chunk or another seed draws other uniforms."""
    def first_draws(seed, chunk):
        stream = oracles._stream(seed, chunk)
        return (stream.random(oracles.MC_CHUNK),
                stream.standard_exponential(oracles.MC_CHUNK))
    uniforms, column = first_draws(seed, chunk)
    child = np.random.SeedSequence(seed).spawn(chunk + 1)[chunk]
    rng = np.random.Generator(np.random.PCG64(child))
    assert uniforms.tobytes() == rng.random(oracles.MC_CHUNK).tobytes()
    assert column.tobytes() == rng.standard_exponential(
        oracles.MC_CHUNK).tobytes()
    assert not np.array_equal(first_draws(seed, chunk + 1)[0], uniforms)
    assert not np.array_equal(first_draws(seed ^ 1, chunk)[0], uniforms)


@pytest.mark.parametrize("n", [oracles.MC_CHUNK + 88, GROUP_ROWS + 1,
                               GROUP_ROWS + oracles.MC_CHUNK + 88])
def test_trajectory_depends_on_seed_and_index_only(monkeypatch, n):
    """A trajectory's occupancy time is the same whatever the number of
    trajectories run beside it, in a full chunk or a partial one, and
    whichever rows share its group's column loop."""
    params = from_config(RATE_PAIRS[2])
    p_a, _ = adiabatic.stationary_probabilities(params)
    mol, chunk = params.molecule, oracles.MC_CHUNK
    horizon = 50 * adiabatic.reaction_time(params)

    def times(n):
        return oracles._occupancy_times(6, n, p_a, mol.rate_a, mol.rate_b,
                                        horizon)
    longer, full = times(n), times(math.ceil(n / chunk) * chunk)
    assert np.array_equal(longer[:1000], times(1000))
    assert np.array_equal(longer, full[:n])
    assert np.array_equal(times(n - 87), longer[:n - 87])
    monkeypatch.setattr(oracles, "MC_GROUP", 3)
    assert np.array_equal(times(n), longer)


def test_draw_ahead_under_contention():
    """Three calls at once, with the interpreter switching between their
    threads every microsecond: every call still equals the
    one-step-per-row-and-column loop bit for bit."""
    params = from_config(RATE_PAIRS[1])
    p_a, _ = adiabatic.stationary_probabilities(params)
    mol = params.molecule
    args = (11, 3 * oracles.MC_CHUNK + 7, p_a, mol.rate_a, mol.rate_b,
            50 * adiabatic.reaction_time(params))
    expected = occupancy_times(*args)
    results = []

    def call():
        for _ in range(2):
            results.append(oracles._occupancy_times(*args))
    callers = [threading.Thread(target=call) for _ in range(3)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(caller.is_alive() for caller in callers)
    assert len(results) == 6
    assert all(np.array_equal(times, expected) for times in results)


def test_no_call_starts_a_thread(monkeypatch, default_params):
    """A call of one chunk, of several and of more than one group steps its
    rows on the caller's thread."""
    def start(self):
        raise AssertionError("a thread was started")
    monkeypatch.setattr(threading.Thread, "start", start)
    for n in (1000, oracles.MC_CHUNK + 1, GROUP_ROWS + oracles.MC_CHUNK + 88):
        cfg = oracles.McConfig(n_trajectories=n, seed=8)
        oracles.telegraph_mc_diffusion(default_params, cfg)


def test_memory_does_not_grow_with_horizon(default_params):
    """A call holds one column of draws per row, not all of a row's waiting
    times: 1000 trajectories over 1e4 t_R, about 5000 jumps each, peak
    below 1 MiB of traced memory."""
    t_r = adiabatic.reaction_time(default_params)
    cfg = oracles.McConfig(n_trajectories=1000, seed=3, horizon=1e4 * t_r)
    # a process's first call sets up numpy's generators, ~1 MiB
    oracles.telegraph_mc_diffusion(
        default_params, oracles.McConfig(n_trajectories=1000, seed=3))
    tracemalloc.start()
    try:
        oracles.telegraph_mc_diffusion(default_params, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_block_occupancy_clock_rounding_short_of_horizon():
    """When t + (horizon - t) rounds below the horizon the row takes one
    more segment, here at the first check: the first row, starting in A,
    reaches ``first`` after three columns and rounds short of the horizon
    in the fourth, while the second, starting in B, reaches the horizon
    exactly in its second.  At the check after the fourth column the first
    row is live, one of the two rows of the working set, so the chunk drops
    the second row and steps the first alone; it takes the last segment in
    the fifth column, and the loop ends at the next check, after 4 * 2 +
    4 draws of the 14 scripted.  A loop that ended at the first check
    would miss that segment.  Each row equals the one-draw-per-jump loop
    on its own draws."""
    horizon = float.fromhex("0x1.1111111111111p-6")
    first = float.fromhex("0x1.b4c450b5b3640p-13")
    assert first + (horizon - first) < horizon
    assert horizon / 2 + (horizon - horizon / 2) == horizon
    assert oracles.MC_CHECKPOINT == 4
    rows = [[first / 2, first / 4, first / 4, 1.0, 1.0, 1.0, 1.0, 1.0],
            [horizon / 2, 1.0, 1.0, 1.0]]
    expected = [occupancy_time(ScriptedRng(uniform, row), 0.5, 1.0, 1.0,
                               horizon)
                for uniform, row in zip((0.0, 1.0), rows)]
    assert expected[0] > 0.75 * first and expected[1] == horizon / 2
    # row order within each column; the second row leaves at the check
    draws = [draw for column in zip(*rows) for draw in column]
    stream = ScriptedRng(None, draws + rows[0][4:] + [1.0, 1.0])
    time_a = oracles._block_occupancy(np.array([True, False]), [stream],
                                      1.0, 1.0, horizon)
    assert np.array_equal(time_a, expected)
    assert stream.draws == [1.0, 1.0]


def test_finished_rows_stop_drawing(monkeypatch, default_params):
    """A default-point call of 10 000 trajectories steps 5 chunks of 2 048
    rows, but draws at most 0.7 of an exponential per row and column: a
    chunk drops its finished rows once they are half its working set, and
    stops drawing when none is live."""
    streams = []

    class Counting(np.random.Generator):
        def __init__(self, bit_generator):
            super().__init__(bit_generator)
            self.columns, self.draws = 0, 0
            streams.append(self)

        def standard_exponential(self, size=None, dtype=np.float64,
                                 method="zig", out=None):
            self.columns += 1
            self.draws += np.size(out) if size is None else size
            return super().standard_exponential(size, dtype, method, out)

    monkeypatch.setattr(np.random, "Generator", Counting)
    oracles.telegraph_mc_diffusion(
        default_params, oracles.McConfig(n_trajectories=10_000, seed=1))
    assert len(streams) == 5
    columns = max(stream.columns for stream in streams)
    drawn = sum(stream.draws for stream in streams)
    assert columns % oracles.MC_CHECKPOINT == 0
    assert drawn <= 0.7 * columns * len(streams) * oracles.MC_CHUNK


def test_mc_horizon_stationarity(default_params):
    t_r = adiabatic.reaction_time(default_params)
    r1, e1 = oracles.telegraph_mc_diffusion(
        default_params,
        oracles.McConfig(n_trajectories=3000, seed=11, horizon=20 * t_r))
    r2, e2 = oracles.telegraph_mc_diffusion(
        default_params,
        oracles.McConfig(n_trajectories=3000, seed=11, horizon=40 * t_r))
    err = np.sqrt(e1**2 + e2**2)
    assert np.all(np.abs(r1 - r2) <= 4 * err)


def test_mc_config_validation(default_params):
    t_r = adiabatic.reaction_time(default_params)
    with pytest.raises(ValueError):
        oracles.McConfig(n_trajectories=10).resolve(t_r)
    with pytest.raises(ValueError):
        oracles.McConfig(dt=t_r).resolve(t_r)
    for horizon in (t_r, math.nan, math.inf):
        with pytest.raises(ValueError):
            oracles.McConfig(horizon=horizon).resolve(t_r)
    # a seed outside [0, 2**64) or not an integer would alias another
    # seed's streams or fail inside numpy; so would a fractional count
    for seed in (1.5, True, -1, 2**64, np.float64(2.0), "1"):
        with pytest.raises(ValueError):
            oracles.McConfig(seed=seed).resolve(t_r)
    for count in (1000.5, 2000.0, np.True_):
        with pytest.raises(ValueError):
            oracles.McConfig(n_trajectories=count).resolve(t_r)
    for seed in (0, 2**64 - 1, np.uint64(2**64 - 1), np.int32(3)):
        oracles.McConfig(n_trajectories=np.int64(1000),
                         seed=seed).resolve(t_r)


def test_fd_polynomial():
    value, err = oracles.fd_pipeline_derivative(lambda x: x**2, 3.0)
    assert value == pytest.approx(6.0, abs=1e-9)


def test_fd_constant():
    value, _ = oracles.fd_pipeline_derivative(lambda x: 42.0, 3.0)
    assert abs(value) < 1e-12


def test_fd_attenuated_signal(default_params):
    """Transmitted photon number at the optimal depth, as a function of the
    density with the depth re-optimized: d/d rho [n_p0/e * rho^0] = 0; at
    fixed depth the analytic slope is -n_p0/(e rho)."""
    rho = default_params.sample.density_rho_m
    n_p0 = default_params.derived.n_p0
    s_plus = 5e-17
    z = 1.0 / (rho * s_plus)

    def f(rho_val):
        return n_p0 * math.exp(-rho_val * s_plus * z)

    value, _ = oracles.fd_pipeline_derivative(f, rho)
    assert value == pytest.approx(-n_p0 / (math.e * rho), rel=1e-6)


def test_fd_unstable():
    rng_like = lambda x: math.sin(1e12 * x)  # effectively noise at the scale
    with pytest.raises(StencilUnstable):
        oracles.fd_pipeline_derivative(rng_like, 1.0)


def test_jackknife_matches_loop_reference(default_params):
    """The rate and its jackknife error are the flux difference's outer
    product times the variance of the occupancy time and its jackknife, bit
    for bit as a loop over the leave-one-out variances, one trajectory at a
    time, gives them on the same seeded trajectories: in one chunk and in
    three, stepped in one column loop.  The per-trajectory loop of
    2x2 flux covariances, whose sums cancel more, agrees within 1e-12
    relative for the rate and 1e-9 for its error."""
    mol, J = default_params.molecule, default_params.derived.photon_flux_j0
    p_a, _ = adiabatic.stationary_probabilities(default_params)
    fluxes = []
    for state in "AB":
        s_plus, s_minus = adiabatic.conditioned_cross_sections(
            default_params, state)
        fluxes.append(J * np.array([(s_plus + s_minus) / 2,
                                    (s_plus - s_minus) / 2]))
    delta = fluxes[0] - fluxes[1]
    outer = np.outer(delta, delta)
    for n in (1000, 2 * oracles.MC_CHUNK + 5):
        mc = oracles.McConfig(n_trajectories=n, seed=4)
        rate, stderr = oracles.telegraph_mc_diffusion(default_params, mc)
        _, horizon = mc.resolve(adiabatic.reaction_time(default_params))
        times = occupancy_times(mc.seed, n, p_a, mol.rate_a, mol.rate_b,
                                horizon)

        centered = times - times.mean()
        sum_sq, total = np.sum(centered ** 2), centered.sum()
        loo = np.empty(n)
        for i, x in enumerate(centered):
            mean_rest = (total - x) / (n - 1)
            loo[i] = (sum_sq - x * x
                      - (n - 1) * (mean_rest * mean_rest)) / (n - 2)
        jackknife = np.sqrt((n - 1) / n * np.sum((loo - loo.mean()) ** 2))
        assert np.array_equal(rate, outer * (sum_sq / (n - 1)) / horizon)
        assert np.array_equal(stderr, np.abs(outer) * jackknife / horizon)

        samples = np.empty((n, 2))
        for i, time_a in enumerate(times):
            samples[i] = fluxes[0] * time_a + fluxes[1] * (horizon - time_a)
        sum_x = samples.sum(axis=0)
        sum_xx = np.einsum("ni,nj->ij", samples, samples)
        loo = np.empty((n, 2, 2))
        for i in range(n):
            m = (sum_x - samples[i]) / (n - 1)
            loo[i] = (sum_xx - np.outer(samples[i], samples[i])
                      - (n - 1) * np.outer(m, m)) / (n - 2)
        loo /= horizon
        expected = np.sqrt((n - 1) / n * np.sum((loo - loo.mean(axis=0)) ** 2,
                                                axis=0))
        centered = samples - samples.mean(axis=0)
        np.testing.assert_allclose(
            rate, centered.T @ centered / (n - 1) / horizon, rtol=1e-12,
            atol=0)
        np.testing.assert_allclose(stderr, expected, rtol=1e-9, atol=0)


def test_mc_identical_states_no_chemical_noise():
    """Two chemical states that absorb alike give equal fluxes, so the rate
    and its error are exactly zero, not the roundoff of a covariance of
    equal samples."""
    params = from_config({"detuning_a_mhz": 40.0, "detuning_b_mhz": 40.0,
                          "dipole_a_debye": 1.0, "dipole_b_debye": 1.0})
    cfg = oracles.McConfig(n_trajectories=1000, seed=5)
    rate, stderr = oracles.telegraph_mc_diffusion(params, cfg)
    assert not rate.any() and not stderr.any()


def test_finite_time_cgf_matches_eigenvalue(default_params):
    """At times long against all relaxation scales the finite-time CGF per
    unit time converges to the dominant eigenvalue."""
    gamma = default_params.molecule.decay_gamma
    tau = 1e3 / gamma
    s = 1e-3
    chi = (-1j * s, 0.0)
    cgf = cgf_finite_time(default_params, chi, tau).real / tau
    liou = build_two_sided(default_params, chi)
    top, _ = fcs.dominant_eigenvalue(liou)
    # the chemical mode (~1e3 1/s) has not fully relaxed; modest tolerance
    assert cgf == pytest.approx(top.real, rel=2e-2)


# scipy made unimportable before the package loads: importing it then raises
# ModuleNotFoundError, an ImportError
_BLOCK_SCIPY = "import sys; sys.modules['scipy'] = None\n"
_ORACLES = """
import sys
import numpy as np
from spectrosens import oracles
from spectrosens.params import from_config

params = from_config({})
rate, stderr = oracles.telegraph_mc_diffusion(
    params, oracles.McConfig(n_trajectories=1000, seed=42))
print([float(x).hex() for x in np.concatenate([rate.ravel(), stderr.ravel()])])
print(float(oracles.fd_pipeline_derivative(lambda x: x**2, 3.0)[0]).hex())
print([float(x).hex() for x in oracles.quadrature_covariance(
    params, lambda j: 1e-20 * j * np.ones((2, 2)), 5e-17, 0.01).ravel()])
print(sorted(name for name, module in sys.modules.items()
             if name.split(".")[0] == "scipy" and module is not None))
"""


def test_oracles_without_scipy(default_params):
    """Without scipy the Monte-Carlo oracle and the quadrature give the same
    bits as here, the stencil and the Monte-Carlo script run, and with or
    without scipy installed running the oracles loads no scipy module."""
    root = pathlib.Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    outputs = []
    for script in (_BLOCK_SCIPY + _ORACLES, _ORACLES):
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout.splitlines())
    rate, stderr = oracles.telegraph_mc_diffusion(
        default_params, oracles.McConfig(n_trajectories=1000, seed=42))
    bits = [float(x).hex() for x in np.concatenate([rate.ravel(),
                                                    stderr.ravel()])]
    derivative = oracles.fd_pipeline_derivative(lambda x: x**2, 3.0)[0]
    quad = oracles.quadrature_covariance(
        default_params, lambda j: 1e-20 * j * np.ones((2, 2)), 5e-17, 0.01)
    expected = [str(bits), float(derivative).hex(),
                str([float(x).hex() for x in quad.ravel()]), "[]"]
    assert outputs == [expected, expected]

    script = _BLOCK_SCIPY + ("import runpy; sys.argv = sys.argv[1:]; "
                             "runpy.run_path(sys.argv[0], run_name='__main__')")
    proc = subprocess.run([sys.executable, "-c", script,
                           str(root / "scripts" / "mc_validation.py"),
                           "--trajectories", "1000", "--seed", "0"],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "pulls (sigma):" in proc.stdout
