"""Rotating-frame Hamiltonian with auxiliary phases/counting fields and the
vectorized two-sided superoperator.

Basis order is frozen package-wide: |g_A>, |e_A>, |g_B>, |e_B| mapped to
indices 0..3.  Vectorization is row-major, vec(rho)[4*i+j] = rho_ij, so that
vec(A rho B) = kron(A, B.T) @ vec(rho) and the trace functional is the
left vector vec(identity).
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import TrustRadiusExceeded
from .params import ModelParams

DIM = 4

# Fixed auxiliary-phase offsets of the two detector channels.
PHASE_OFFSETS = (np.pi / 4.0, -np.pi / 4.0)

# Largest counting-field magnitude for which the dominant branch is isolated.
TRUST_RADIUS = 0.1


def _coupling(amp, phi1, phi2, sign):
    """Raising (``sign`` = +1) or lowering (-1) operator amplitude for drive
    amplitude ``amp`` (= d E / hbar).  The lowering amplitude is the analytic
    continuation of the conjugate, so the superoperator stays analytic in
    complex counting fields."""
    return amp / (2.0 * np.sqrt(2.0)) * (
        np.exp(sign * 1j * (phi1 + PHASE_OFFSETS[0]))
        + np.exp(sign * 1j * (phi2 + PHASE_OFFSETS[1])))


def block_hamiltonian(blocks, phi=(0.0, 0.0)) -> np.ndarray:
    """Rotating-frame Hamiltonian of independent driven two-level blocks.

    ``blocks`` holds one (detuning, drive amplitude) pair per block; block k
    occupies ground index 2k and excited index 2k+1.  Phase arrays of shape
    (n,) give an (n, d, d) stack.
    """
    phi1, phi2 = phi
    h = np.zeros(np.shape(phi1) + (2 * len(blocks),) * 2, dtype=complex)
    for k, (detuning, amp) in enumerate(blocks):
        ground, excited = 2 * k, 2 * k + 1
        h[..., excited, excited] = detuning
        h[..., excited, ground] = _coupling(amp, phi1, phi2, 1)
        h[..., ground, excited] = _coupling(amp, phi1, phi2, -1)
    return h


def model_blocks(params: ModelParams, flux_scale: float):
    """(detuning, drive amplitude) blocks of states A and B, the drive
    rescaled by ``flux_scale`` = sqrt(J/J0) to photon-number intensity J."""
    mol, der = params.molecule, params.derived
    return ((mol.detuning_a, der.rabi_a * flux_scale),
            (mol.detuning_b, der.rabi_b * flux_scale))


def _outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """kron(a, b) over the last two axes of stacks, as the broadcast product
    np.kron itself computes, without its per-call shape handling."""
    product = a[..., :, None, :, None] * b[..., None, :, None, :]
    n = a.shape[-1] * b.shape[-1]
    return product.reshape(product.shape[:-4] + (n, n))


def commutator(h_left: np.ndarray, h_right: np.ndarray) -> np.ndarray:
    """Superoperator (stack) of rho -> -i (h_left rho - rho h_right)."""
    eye = np.eye(h_left.shape[-1])
    return -1j * (_outer(h_left, eye) - _outer(eye, h_right.swapaxes(-1, -2)))


def _dissipator(jump: np.ndarray, rate: float) -> np.ndarray:
    eye = np.eye(jump.shape[0])
    jd = jump.conj().T
    jdj = jd @ jump
    return rate * (np.kron(jump, jump.conj())
                   - 0.5 * (np.kron(jdj, eye) + np.kron(eye, jdj.T)))


def _proj(i, j, dim=DIM):
    op = np.zeros((dim, dim))
    op[i, j] = 1.0
    return op


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


# Dissipators depend on rates only; one entry serves every tilt, phase and
# flux scale of a parameter point.
DISSIPATOR_CACHE_SIZE = 64


@functools.lru_cache(maxsize=DISSIPATOR_CACHE_SIZE)
def decay_dissipator(decay_gamma: float) -> np.ndarray:
    """Read-only 4x4 superoperator of one two-level block decaying at
    ``decay_gamma``."""
    return _read_only(_dissipator(_proj(0, 1, dim=2), decay_gamma))


@functools.lru_cache(maxsize=DISSIPATOR_CACHE_SIZE)
def _dissipator_sum(decay_gamma: float, rate_a: float,
                    rate_b: float) -> np.ndarray:
    total = np.zeros((DIM * DIM, DIM * DIM), dtype=complex)
    total += _dissipator(_proj(0, 1), decay_gamma)   # |g_A><e_A|
    total += _dissipator(_proj(2, 3), decay_gamma)   # |g_B><e_B|
    # transfer into A at rate_a, into B at rate_b, for ground and excited levels
    total += _dissipator(_proj(0, 2), rate_a)
    total += _dissipator(_proj(1, 3), rate_a)
    total += _dissipator(_proj(2, 0), rate_b)
    total += _dissipator(_proj(3, 1), rate_b)
    return _read_only(total)


def dissipator_sum(params: ModelParams) -> np.ndarray:
    """Spontaneous decay within each state plus chemical transfer between
    them; read-only and shared by all points with the same rates."""
    mol = params.molecule
    return _dissipator_sum(mol.decay_gamma, mol.rate_a, mol.rate_b)


def _check_trust_radius(chi):
    size1, size2 = np.max(np.abs(chi[0])), np.max(np.abs(chi[1]))
    if size1 > TRUST_RADIUS or size2 > TRUST_RADIUS:
        raise TrustRadiusExceeded(
            f"|chi| = ({size1:.3g}, {size2:.3g}) "
            f"exceeds trust radius {TRUST_RADIUS}")


def two_sided(blocks, dissipator: np.ndarray, chi, phi) -> np.ndarray:
    """Superoperator (stack) of the driven ``blocks`` plus ``dissipator``:
    left phases phi + chi/2, right phases phi - chi/2, at any chi."""
    (phi1, phi2), (chi1, chi2) = phi, chi
    h_left = block_hamiltonian(blocks, (phi1 + chi1 / 2.0, phi2 + chi2 / 2.0))
    h_right = block_hamiltonian(blocks, (phi1 - chi1 / 2.0, phi2 - chi2 / 2.0))
    return commutator(h_left, h_right) + dissipator


def generator_derivatives(blocks, dissipator: np.ndarray):
    """L at s = 0 and the stack of dL/ds_k (counting order) from one build.
    L is affine in e^{+-s_k/2}, 2 and 1/2 at s_k = +-ln 4, so (L(ln 4) -
    L(-ln 4)) / 3 is dL/ds_k exactly.  Mixed second derivatives vanish and
    d2L/ds_k^2, a commutator, has a zero trace row: cumulants need neither."""
    t = 1j * np.log(4.0)   # chi = -i s
    chi = (np.array([0.0, -t, t, 0.0, 0.0]), np.array([0.0, 0.0, 0.0, -t, t]))
    stack = two_sided(blocks, dissipator, chi, (0.0, 0.0))
    return stack[0], (stack[1::2] - stack[2::2]) / 3.0


def build_two_sided(params: ModelParams, chi, phi=(0.0, 0.0),
                    flux_scale: float = 1.0) -> np.ndarray:
    """Two-sided 16x16 superoperator of the model: left phases phi + chi/2,
    right phases phi - chi/2.

    ``chi`` is the pair of counting fields, scalars or equal-shape (n,)
    arrays giving an (n, 16, 16) stack; complex values occur during
    differentiation.  A field beyond ``TRUST_RADIUS`` in magnitude raises
    ``TrustRadiusExceeded``.
    """
    _check_trust_radius(chi)
    return two_sided(model_blocks(params, flux_scale), dissipator_sum(params),
                     chi, phi)


def trace_vector() -> np.ndarray:
    """Left null vector of the chi=0 generator: vec(identity)."""
    return np.eye(DIM).reshape(-1)


def bordered(generator: np.ndarray) -> np.ndarray:
    """An n x n generator (n = d^2, any block size d) bordered by the trace
    row and column vec(identity) and a zero corner.  The bordered system is
    invertible when the stationary state is unique; it replaces the singular
    generator in every solve (Flindt, Novotny & Jauho, EPL 69, 475 (2005))."""
    n = generator.shape[-1]
    system = np.zeros((n + 1, n + 1), dtype=complex)
    system[:n, :n] = generator
    system[n, :n] = system[:n, n] = np.eye(int(np.sqrt(n))).reshape(-1)
    return system


def stationary_state(matrix: np.ndarray) -> np.ndarray:
    """Vectorized stationary density matrix of the chi=0 generator: the
    solution of L rho = 0 with unit trace, from the bordered system."""
    n = matrix.shape[-1]
    return np.linalg.solve(bordered(matrix), np.append(np.zeros(n), 1.0))[:n]
