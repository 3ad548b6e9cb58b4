import contextlib
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from finite_time import stationary_state
from spectrosens import liouvillian
from spectrosens.liouvillian import (BETWEEN, UNIT_DECAY, WITHIN,
                                     block_hamiltonian, build_two_sided,
                                     dissipator_sum, generator_derivatives,
                                     model_blocks, trace_vector)
from spectrosens.params import from_config, stack
from spectrosens.pipeline import evaluate_point

small_angle = st.floats(min_value=-0.09, max_value=0.09,
                        allow_nan=False, allow_infinity=False)


def test_trace_is_left_null_vector(default_params):
    liou = build_two_sided(default_params, (0.0, 0.0))
    residual = trace_vector() @ liou
    assert np.max(np.abs(residual)) < 1e-6 * np.max(np.abs(liou))


def test_stationary_state_properties():
    # default rates, and slow ones whose chemical mode nearly closes the gap
    for config in ({}, {"rate_a_mhz": 1e-6, "rate_b_mhz": 3e-6}):
        liou = build_two_sided(from_config(config), (0.0, 0.0))
        rho = stationary_state(liou).reshape(4, 4)
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(rho - rho.conj().T)) < 1e-12
        eigs = np.linalg.eigvalsh(rho)
        assert eigs.min() > -1e-12
        # stationary residual
        assert np.max(np.abs(liou @ rho.reshape(-1))) < 1e-6


def test_symmetric_rates_balance_populations():
    params = from_config({"rate_a_mhz": 1e-3, "rate_b_mhz": 1e-3,
                          "dipole_b_debye": 1.0, "detuning_b_mhz": 40.0})
    liou = build_two_sided(params, (0.0, 0.0))
    rho = stationary_state(liou).reshape(4, 4)
    pop_a = (rho[0, 0] + rho[1, 1]).real
    pop_b = (rho[2, 2] + rho[3, 3]).real
    assert pop_a == pytest.approx(pop_b, rel=1e-9)


def test_hamiltonian_hermitian_at_real_phases(default_params):
    h = block_hamiltonian(model_blocks(default_params, 1.0), (0.3, -0.7))
    assert np.max(np.abs(h - h.conj().T)) < 1e-15 * np.max(np.abs(h))


def test_flux_scale_scales_coupling(default_params):
    h1 = block_hamiltonian(model_blocks(default_params, 1.0), (0.0, 0.0))
    h2 = block_hamiltonian(model_blocks(default_params, np.sqrt(2.0)),
                           (0.0, 0.0))
    off = np.abs(h1[1, 0])
    assert np.abs(h2[1, 0]) == pytest.approx(np.sqrt(2.0) * off, rel=1e-12)
    # diagonal (detunings) untouched
    assert h2[1, 1] == h1[1, 1]


@settings(max_examples=25, deadline=None)
@given(chi1=small_angle, chi2=small_angle)
def test_conjugation_symmetry(chi1, chi2):
    """L at negated counting fields is the complex conjugate of L (real
    counting statistics: the CGF satisfies K(-chi) = K(chi)*)."""
    params = from_config({})
    plus = build_two_sided(params, (chi1, chi2))
    minus = build_two_sided(params, (-chi1, -chi2))
    scale = np.max(np.abs(plus))
    assert np.max(np.abs(minus.conj() - _swap_sides(plus))) \
        < 1e-12 * scale


def _swap_sides(matrix):
    """Complex conjugation exchanges left and right action: vec index (i,j)
    -> (j,i) on both rows and columns."""
    perm = np.arange(16).reshape(4, 4).T.reshape(-1)
    return matrix[np.ix_(perm, perm)]


@settings(max_examples=25, deadline=None)
@given(shift=st.floats(min_value=-3.0, max_value=3.0,
                       allow_nan=False, allow_infinity=False),
       chi1=small_angle, chi2=small_angle)
def test_gauge_invariance_of_spectrum(shift, chi1, chi2):
    """A common shift of both channel phases is a gauge transformation:
    the spectrum of the tilted generator is unchanged."""
    params = from_config({})
    base = build_two_sided(params, (chi1, chi2))
    shifted = _kron_generator(params, (chi1, chi2), (shift, shift), 1.0)
    ev_base = np.linalg.eigvals(base)
    ev_shift = np.linalg.eigvals(shifted)
    scale = np.max(np.abs(ev_base)) + 1.0
    # sorting complex eigenvalues is unstable for conjugate pairs, so match
    # each eigenvalue to its nearest counterpart instead
    dist = np.abs(ev_base[:, None] - ev_shift[None, :])
    assert np.max(np.min(dist, axis=1)) < 1e-8 * scale
    assert np.max(np.min(dist, axis=0)) < 1e-8 * scale


def _kron_dissipator(jumps, dim):
    """Sum of the (jump (i, j), rate) dissipators, accumulated jump by jump
    in the given order with np.kron."""
    eye = np.eye(dim)
    total = np.zeros((dim * dim, dim * dim))
    for (i, j), rate in jumps:
        jump = np.zeros((dim, dim))
        jump[i, j] = 1.0
        jdj = jump.conj().T @ jump
        total += rate * (np.kron(jump, jump.conj())
                         - 0.5 * (np.kron(jdj, eye) + np.kron(eye, jdj.T)))
    return total


def _model_jumps(params):
    mol = params.molecule
    return (((0, 1), mol.decay_gamma), ((2, 3), mol.decay_gamma),
            ((0, 2), mol.rate_a), ((1, 3), mol.rate_a),
            ((2, 0), mol.rate_b), ((3, 1), mol.rate_b))


def _kron_generator(params, chi, phases, flux_scale):
    """The tilted generator at left channel phases ``phases`` + chi/2 and
    right phases ``phases`` - chi/2, assembled term by term with np.kron."""
    eye = np.eye(4)
    blocks = model_blocks(params, flux_scale)
    h_left = block_hamiltonian(blocks, (phases[0] + chi[0] / 2.0,
                                        phases[1] + chi[1] / 2.0))
    h_right = block_hamiltonian(blocks, (phases[0] - chi[0] / 2.0,
                                         phases[1] - chi[1] / 2.0))
    matrix = -1j * (np.kron(h_left, eye) - np.kron(eye, h_right.T))
    return matrix + _kron_dissipator(_model_jumps(params), 4)


@pytest.mark.parametrize("chi,flux_scale", [
    ((0.0, 0.0), 1.0),
    ((-0.03j, 0.01j), np.sqrt(1e-3)),
    ((0.02 - 0.05j, -0.07 + 0.01j), 0.7),
    ((-0.09j, -0.09j), 3.0),
    ((1j * np.log(4.0), -0.4 + 0.2j), 1.3),
])
def test_generator_matches_kron_assembly(chi, flux_scale):
    params = from_config({"rate_a_mhz": 3e-3, "rate_b_mhz": 1e-3,
                          "dipole_b_debye": 0.6, "detuning_b_mhz": -15.0})
    built = build_two_sided(params, chi, flux_scale=flux_scale)
    assert built.tobytes() == _kron_generator(params, chi, (0.0, 0.0),
                                              flux_scale).tobytes()


def test_generator_matches_kron_assembly_at_zero_detunings_and_tilts():
    """Byte for byte, signed zeros included, at seeded points whose
    detunings are exactly zero and whose tilts are +0, -0 or seeded."""
    rng = np.random.default_rng(20261019)
    for _ in range(12):
        params = from_config({
            "detuning_a_mhz": 0.0, "detuning_b_mhz": float(rng.choice(
                [0.0, -0.0, rng.uniform(-50.0, 50.0)])),
            "dipole_b_debye": float(rng.uniform(0.0, 1.0)),
            "rate_a_mhz": float(10.0 ** rng.uniform(-6.0, 0.0)),
            "rate_b_mhz": float(10.0 ** rng.uniform(-6.0, 0.0))})
        zeros = [0.0, -0.0, 0j, complex(-0.0, 0.0), complex(0.0, -0.0)]
        chi = tuple(zeros[rng.integers(len(zeros))] if rng.random() < 0.7
                    else complex(*rng.uniform(-0.1, 0.1, 2))
                    for _ in range(2))
        flux_scale = float(rng.choice([0.0, 1.0, rng.uniform(0.0, 2.0)]))
        built = build_two_sided(params, chi, flux_scale=flux_scale)
        assert built.tobytes() == _kron_generator(
            params, chi, (0.0, 0.0), flux_scale).tobytes()
        stacked = build_two_sided(stack([params, params]), chi, flux_scale)
        assert stacked.tobytes() == np.stack([built[None]] * 2).tobytes()


def test_dissipators_match_kron_accumulation():
    """The unit-dissipator sums equal, bit for bit, the jump-by-jump kron
    accumulation, over seeded rates that include zero transfer rates."""
    rng = np.random.default_rng(20261018)
    for k in range(60):
        gamma, rate_a, rate_b = 10.0 ** rng.uniform(-7.0, 3.0, size=3)
        if k % 3 == 1:
            rate_a = 0.0
        elif k % 3 == 2:
            rate_b = 0.0
        params = from_config({"gamma_mhz": gamma, "rate_a_mhz": rate_a,
                              "rate_b_mhz": rate_b})
        assert (dissipator_sum(params).tobytes()
                == _kron_dissipator(_model_jumps(params), 4).tobytes())
        decay = params.molecule.decay_gamma
        assert ((decay * UNIT_DECAY).tobytes()
                == _kron_dissipator((((0, 1), decay),), 2).tobytes())


@pytest.mark.parametrize("rate_mhz", [1e-6, 1e-4, 3.0])
def test_point_tilts_stay_small(rate_mhz, monkeypatch):
    """Every counting field a point eigensolves the model generator at is a
    finite-difference tilt of at most 1e-4, where the max-real-part
    eigenvalue is the branch through lambda(0) = 0.  The reference build's
    members at s_k = +-ln 4 are differenced into dL/ds_k and never
    eigensolved; its step-choice and stencil tilts are.  On the default
    power every step is STEP_TILT, so the reference build is the point's
    only build."""
    tilts = []

    def recording(params, chi, flux_scale=1.0):
        size = np.abs(np.asarray(chi, dtype=complex))
        derivative = np.isclose(size, np.log(4.0)).any(axis=0)
        tilts.append(np.where(derivative, 0.0, size))
        return liouvillian.build_two_sided(params, chi, flux_scale)

    for name, module in list(sys.modules.items()):
        if (name.startswith("spectrosens.") and module is not liouvillian
                and hasattr(module, "build_two_sided")):
            monkeypatch.setattr(module, "build_two_sided", recording)
    params = from_config({"rate_a_mhz": rate_mhz, "rate_b_mhz": rate_mhz})
    # 3 MHz rates are beyond the adiabatic gate of the "both" route
    with (pytest.warns(UserWarning, match="adiabatic factorization")
          if rate_mhz > 1 else contextlib.nullcontext()):
        evaluate_point(params, "both")
    largest = [np.max(size) for size in tilts]
    assert len(largest) == 1 and 0.0 < max(largest) <= 1e-4


@pytest.mark.parametrize("flux_scale", [1.0, 0.7,
                                        np.array([0.0, 0.3, 1.0, 2.5])])
def test_stacked_generator_equals_scalar_builds(flux_scale):
    """Counting-field arrays, and an equal-shape flux-scale array, build the
    stack of the per-tilt generators.  No member mixes the within-state and
    the between-state sectors: their cross entries are exactly 0.0."""
    params = from_config({"rate_a_mhz": 3e-3, "rate_b_mhz": 1e-3,
                          "dipole_b_debye": 0.6, "detuning_b_mhz": -15.0})
    chi1 = np.array([0.0, -0.03j, 0.02 - 0.05j, -0.09j])
    chi2 = np.array([0.0, 0.01j, -0.07 + 0.01j, 0.0])
    stacked = build_two_sided(params, (chi1, chi2), flux_scale=flux_scale)
    assert stacked.shape == (4, 16, 16)
    singles = [build_two_sided(params, (a, b), flux_scale=f)
               for a, b, f in zip(chi1, chi2, np.broadcast_to(flux_scale, 4))]
    assert stacked.tobytes() == np.stack(singles).tobytes()
    assert not np.any(stacked[..., WITHIN[:, None], BETWEEN])
    assert not np.any(stacked[..., BETWEEN[:, None], WITHIN])


def test_stacked_points_build_each_points_generator():
    """Points stacked along a leading axis build, bit for bit, the stack of
    their own generators: untilted, at tilts shared by all points, at tilts
    of each point, and the flux-affine pair L, dL/ds_k."""
    points = [from_config(config) for config in (
        {}, {"rate_a_mhz": 3e-3, "rate_b_mhz": 1e-3, "dipole_b_debye": 0.6,
             "detuning_b_mhz": -15.0}, {"gamma_mhz": 3.0, "rate_b_mhz": 0.0})]
    batch = stack(points)
    shared = (np.array([0.0, -0.03j, 0.02 - 0.05j]),
              np.array([0.0, 0.01j, -0.07 + 0.01j]))
    own = (np.array([[0.0, -1e-4j], [-2e-4j, 0.0], [3e-4j, 1e-4j]]),
           np.array([[1e-4j, 0.0], [0.0, 5e-5j], [-1e-4j, 0.0]]))
    assert build_two_sided(batch, (0.0, 0.0)).tobytes() == np.stack(
        [build_two_sided(p, (0.0, 0.0))[None] for p in points]).tobytes()
    assert build_two_sided(batch, shared, 0.3).tobytes() == np.stack(
        [build_two_sided(p, shared, 0.3) for p in points]).tobytes()
    assert build_two_sided(batch, own, 0.3).tobytes() == np.stack(
        [build_two_sided(p, (a, b), 0.3)
         for p, a, b in zip(points, *own)]).tobytes()
    driven, first = generator_derivatives(model_blocks(batch, 1.0),
                                          dissipator_sum(batch))
    singles = [generator_derivatives(model_blocks(p, 1.0), dissipator_sum(p))
               for p in points]
    assert driven.shape == (3, 16, 16) and first.shape == (3, 2, 16, 16)
    assert driven.tobytes() == np.stack([l for l, _ in singles]).tobytes()
    assert first.tobytes() == np.stack([d for _, d in singles]).tobytes()
