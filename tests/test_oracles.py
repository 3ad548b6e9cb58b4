import math

import numpy as np
import pytest

from finite_time import cgf_finite_time
from spectrosens import adiabatic, fcs, oracles
from spectrosens.errors import QuadratureNotConverged, StencilUnstable
from spectrosens.liouvillian import build_two_sided
from spectrosens.params import from_config
from telegraph import occupancy_time, occupancy_times


def test_quadrature_zero_diffusion(default_params):
    s_plus, z = 5e-17, 0.01
    result = oracles.quadrature_covariance(default_params,
                                           lambda j: np.zeros((2, 2)),
                                           s_plus, z)
    rho = default_params.sample.density_rho_m
    expected = default_params.derived.n_p0 * math.exp(-2 * rho * s_plus * z)
    assert np.allclose(result, expected * np.eye(2), rtol=1e-9)


def test_quadrature_non_finite_integrand_raises(default_params):
    """A failed integration is a typed error, not a NaN covariance."""
    with pytest.raises(QuadratureNotConverged):
        oracles.quadrature_covariance(default_params,
                                      lambda j: np.full((2, 2), np.nan),
                                      5e-17, 0.01)


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


@pytest.mark.parametrize("seed", [0, 4, 2**63 + 11, 2**64 - 1])
@pytest.mark.parametrize("config", RATE_PAIRS)
def test_occupancy_times_match_loop_reference(seed, config):
    """Block draws summed column by column give the occupancy times of the
    one-draw-per-jump loop bit for bit, across more than one chunk."""
    params = from_config(config)
    p_a, _ = adiabatic.stationary_probabilities(params)
    mol, t_r = params.molecule, adiabatic.reaction_time(params)
    args = (seed, oracles.MC_CHUNK + 88, p_a, mol.rate_a, mol.rate_b,
            50 * t_r)
    assert np.array_equal(oracles._occupancy_times(*args),
                          occupancy_times(*args))


def test_occupancy_top_up_matches_loop_reference(monkeypatch):
    """Rows whose block ends before the horizon are drawn again, longer,
    from the same stream, and still equal the reference; at equal rates and
    at the strongly unequal pair, whose jump count varies most."""
    monkeypatch.setattr(oracles, "MC_BLOCK_MARGIN", 0)
    widths = []
    block_occupancy = oracles._block_occupancy

    def spy(in_a, draws, *args):
        widths.append(draws.shape[1])
        return block_occupancy(in_a, draws, *args)
    monkeypatch.setattr(oracles, "_block_occupancy", spy)
    for config in RATE_PAIRS[::2]:
        widths.clear()
        params = from_config(config)
        p_a, _ = adiabatic.stationary_probabilities(params)
        mol = params.molecule
        horizon = 50 * adiabatic.reaction_time(params)
        args = (9, 300, p_a, mol.rate_a, mol.rate_b, horizon)
        assert np.array_equal(oracles._occupancy_times(*args),
                              occupancy_times(*args))
        # one chunk, its first block too short for some rows, then doubled
        assert len(widths) >= 2
        assert widths[1:] == [2 * w for w in widths[:-1]]


class _ScriptedRng:
    """Stands in for a generator: fixed uniform, scripted exponentials."""

    def __init__(self, uniform, draws):
        self.uniform, self.draws = uniform, list(draws)

    def random(self):
        return self.uniform

    def exponential(self, scale):
        return scale * self.draws.pop(0)


def test_block_occupancy_clock_rounding_short_of_horizon():
    """When t + (horizon - t) rounds below the horizon the loop takes one
    more segment; the block sums take it too.  The second row, starting in
    B, reaches the horizon one column earlier and exactly, so the rounding
    column is the last live one: without it the first row is short, with
    it neither row is, and the trailing columns change nothing."""
    horizon = float.fromhex("0x1.1111111111111p-6")
    first = float.fromhex("0x1.b4c450b5b3640p-13")
    assert first + (horizon - first) < horizon
    assert horizon / 2 + (horizon - horizon / 2) == horizon
    in_a = np.array([True, False])
    draws = np.array([[first, 1.0, 1.0, 1.0, 1.0, 1.0],
                      [horizon / 2, 1.0, 1.0, 1.0, 1.0, 1.0]])
    time_a, short = oracles._block_occupancy(in_a, draws, 1.0, 1.0, horizon)
    expected = [occupancy_time(_ScriptedRng(uniform, row), 0.5, 1.0, 1.0,
                               horizon)
                for uniform, row in zip((0.0, 1.0), draws)]
    assert expected[0] > first and expected[1] == horizon / 2
    assert np.array_equal(time_a, expected) and not short.any()
    live, _ = oracles._block_occupancy(in_a, draws[:, :3], 1.0, 1.0, horizon)
    assert np.array_equal(live, expected)
    _, short = oracles._block_occupancy(in_a, draws[:, :2], 1.0, 1.0,
                                        horizon)
    assert short.tolist() == [True, False]


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
    """The broadcast leave-one-out covariances equal the per-trajectory
    loop they replaced, on the same seeded trajectories."""
    mc = oracles.McConfig(n_trajectories=1000, seed=4)
    rate, stderr = oracles.telegraph_mc_diffusion(default_params, mc)

    mol, J = default_params.molecule, default_params.derived.photon_flux_j0
    _, horizon = mc.resolve(adiabatic.reaction_time(default_params))
    p_a, _ = adiabatic.stationary_probabilities(default_params)
    fluxes = []
    for state in "AB":
        s_plus, s_minus = adiabatic.conditioned_cross_sections(default_params,
                                                               state)
        fluxes.append(J * np.array([(s_plus + s_minus) / 2,
                                    (s_plus - s_minus) / 2]))
    n = mc.n_trajectories
    samples = np.empty((n, 2))
    for i in range(n):
        rng = np.random.Generator(
            np.random.Philox(key=np.array([mc.seed, i], dtype=np.uint64)))
        time_a = occupancy_time(rng, p_a, mol.rate_a, mol.rate_b, horizon)
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
    assert np.array_equal(rate, centered.T @ centered / (n - 1) / horizon)
    assert np.array_equal(stderr, expected)


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

