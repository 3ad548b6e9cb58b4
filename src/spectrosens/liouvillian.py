"""Rotating-frame Hamiltonian at counting-field phases and the vectorized
two-sided superoperator.

The counting fields chi enter as channel phases: chi/2 on the left of the
density matrix and -chi/2 on the right.  Basis order is frozen package-wide:
|g_A>, |e_A>, |g_B>, |e_B> mapped to indices 0..3.  Vectorization is
row-major, vec(rho)[4*i+j] = rho_ij, so that vec(A rho B) = kron(A, B.T) @
vec(rho) and the trace functional is the left vector vec(identity).

The model's generator never mixes the two sectors of vec(rho): the matrix
elements within one chemical state (``WITHIN``, where the stationary state
and every dL/ds_k act) and those between the states (``BETWEEN``).  Its
entries between the sectors are exactly 0.0 at every chi and flux, so a
solve or an eigensolve may run on the 8x8 sector blocks instead.

Every builder broadcasts: parameters stacked by ``params.stack``, whose
fields are (n, 1) arrays, and counting fields of shape (k,) or (n, k) give
an (n, k, d, d) stack, one generator per point and tilt.
"""

from __future__ import annotations

import numpy as np

from .params import ModelParams

DIM = 4

# Fixed phase offsets of the two detector channels.
PHASE_OFFSETS = (np.pi / 4.0, -np.pi / 4.0)

_TWO_SQRT2 = 2.0 * np.sqrt(2.0)

_SIDES = np.array([2.0, -2.0])


def block_hamiltonian(blocks, phases) -> np.ndarray:
    """Rotating-frame Hamiltonian of independent driven two-level blocks at
    the channel ``phases``.

    ``blocks`` holds one (detuning, drive amplitude) pair per block; block k
    occupies ground index 2k and excited index 2k+1.  A block of drive
    amplitude amp (= d E / hbar) is raised by amp / (2 sqrt 2) times the sum
    over both channels of exp(i (phase + offset)) and lowered by the same sum
    at -i, the analytic continuation of the conjugate, so the superoperator
    stays analytic in complex counting fields.  Phase arrays of shape (n,)
    give an (n, d, d) stack.
    """
    raising, lowering = (np.exp(sign * 1j * (phases[0] + PHASE_OFFSETS[0]))
                         + np.exp(sign * 1j * (phases[1] + PHASE_OFFSETS[1]))
                         for sign in (1, -1))
    # a block's detuning has the shape of its drive amplitude
    shape = np.broadcast(raising, *(amp for _, amp in blocks)).shape
    h = np.zeros(shape + (2 * len(blocks),) * 2, dtype=complex)
    for k, (detuning, amp) in enumerate(blocks):
        coupling = amp / _TWO_SQRT2
        ground, excited = 2 * k, 2 * k + 1
        h[..., excited, excited] = detuning
        h[..., excited, ground] = coupling * raising
        h[..., ground, excited] = coupling * lowering
    return h


def model_blocks(params: ModelParams, flux_scale):
    """(detuning, drive amplitude) blocks of states A and B, the drive
    rescaled by ``flux_scale`` = sqrt(J/J0) to photon-number intensity J.
    A (k,) array of flux scales broadcasts against (k,) tilts."""
    mol, der = params.molecule, params.derived
    return ((mol.detuning_a, der.rabi_a * flux_scale),
            (mol.detuning_b, der.rabi_b * flux_scale))


def _dissipator(jump: np.ndarray) -> np.ndarray:
    """Real superoperator of ``jump`` acting at unit rate."""
    eye = np.eye(jump.shape[0])
    jd = jump.conj().T
    jdj = jd @ jump
    return (np.kron(jump, jump.conj())
            - 0.5 * (np.kron(jdj, eye) + np.kron(eye, jdj.T)))


def _proj(i, j, dim=DIM):
    op = np.zeros((dim, dim))
    op[i, j] = 1.0
    return op


# Unit-rate superoperators of the model's jumps, in the order of the rates
# gamma, gamma, r_A, r_A, r_B, r_B: decay |g_A><e_A| and |g_B><e_B|, then
# transfer into A and into B from the ground and the excited level.
UNIT_DISSIPATORS = np.array([_dissipator(_proj(i, j)) for i, j in (
    (0, 1), (2, 3), (0, 2), (1, 3), (2, 0), (3, 1))])

# Unit-rate decay of one two-level block.
UNIT_DECAY = _dissipator(_proj(0, 1, dim=2))


def dissipator_sum(params: ModelParams) -> np.ndarray:
    """Spontaneous decay within each state plus chemical transfer between
    them."""
    mol = params.molecule
    rates = np.array([mol.decay_gamma, mol.decay_gamma, mol.rate_a,
                      mol.rate_a, mol.rate_b, mol.rate_b])
    units = UNIT_DISSIPATORS.reshape((len(rates),) + (1,) * (rates.ndim - 1)
                                     + UNIT_DISSIPATORS.shape[1:])
    return (rates[..., None, None] * units).sum(axis=0)


def two_sided(blocks, dissipator: np.ndarray, chi) -> np.ndarray:
    """Superoperator (stack) of the driven ``blocks`` plus ``dissipator``:
    left phases chi/2, right phases -chi/2, at any chi.  The Hamiltonians
    of both sides come from one evaluation, and the commutator
    kron(-i h_left, 1) + kron(1, i h_right^T), whose terms share only the
    diagonal, is written into one output; +-i multiplies exactly, and the
    dissipator clears the signs of zeros, so the kron form's bits result."""
    # chi/2 and -chi/2 as chi divided by 2 and by -2, equal up to zero signs
    sides = [np.asarray(c)[..., None] / _SIDES for c in chi]
    h = block_hamiltonian([(np.asarray(detuning)[..., None],
                            np.asarray(amp)[..., None])
                           for detuning, amp in blocks], sides)
    left, right = -1j * h[..., 0, :, :], 1j * h[..., 1, :, :]
    shape, d = h.shape[:-3], h.shape[-1]
    out = np.zeros(shape + (d,) * 4, dtype=complex)  # [..., i, j, k, l]
    # writable views: out[i, j, k, j], out[i, j, i, l] and out[i, j, i, j]
    np.einsum("...ijkj->...jik", out)[...] = left[..., None, :, :]
    np.einsum("...ijil->...ijl", out)[...] = right.swapaxes(-1, -2)[
        ..., None, :, :]
    np.einsum("...ijij->...ij", out)[...] = (
        np.einsum("...ii->...i", left)[..., :, None]
        + np.einsum("...jj->...j", right)[..., None, :])
    out = out.reshape(shape + (d * d, d * d))
    out += dissipator
    return out


def generator_derivatives(blocks, dissipator: np.ndarray):
    """L at s = 0 and the stack of dL/ds_k (counting order) from one build.
    L is affine in e^{+-s_k/2}, 2 and 1/2 at s_k = +-ln 4, so (L(ln 4) -
    L(-ln 4)) / 3 is dL/ds_k exactly.  Mixed second derivatives vanish and
    d2L/ds_k^2, a commutator, has a zero trace row: cumulants need neither.
    The five tilts follow the axes of stacked points, as in every build."""
    t = 1j * np.log(4.0)   # chi = -i s
    stack = two_sided(blocks, dissipator,
                      (np.array([0.0, -t, t, 0.0, 0.0]),
                       np.array([0.0, 0.0, 0.0, -t, t])))
    return (stack[..., 0, :, :],
            (stack[..., 1::2, :, :] - stack[..., 2::2, :, :]) / 3.0)


def build_two_sided(params: ModelParams, chi, flux_scale=1.0) -> np.ndarray:
    """Two-sided 16x16 superoperator of the model: left phases chi/2, right
    phases -chi/2.

    ``chi`` is the pair of counting fields, scalars or equal-shape (n,)
    arrays giving an (n, 16, 16) stack, or (k,) arrays giving an
    (n, k, 16, 16) stack with parameters stacked by ``params.stack``;
    complex values occur during differentiation.  ``flux_scale`` is a
    scalar or, as in ``fcs.batch``'s reference build, one per tilt.
    """
    return two_sided(model_blocks(params, flux_scale), dissipator_sum(params),
                     chi)


def trace_vector(n: int = DIM * DIM) -> np.ndarray:
    """Left null vector of a chi=0 generator of size n = d^2 (default: the
    model's): vec(identity)."""
    return np.eye(int(np.sqrt(n))).reshape(-1)


# vec(rho) indices of the matrix elements within one chemical state and of
# those between the states (A holds basis indices 0, 1 and B holds 2, 3)
_SAME_STATE = np.equal.outer(np.arange(DIM) // 2, np.arange(DIM) // 2).ravel()
WITHIN, BETWEEN = np.flatnonzero(_SAME_STATE), np.flatnonzero(~_SAME_STATE)


def sector(matrix: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """The block of a model superoperator (stack) on one sector."""
    return matrix[..., indices[:, None], indices]


def bordered(generator: np.ndarray, trace: np.ndarray) -> np.ndarray:
    """An n x n generator, or a stack of them, bordered by the ``trace``
    row and column and a zero corner.  The bordered system is invertible
    when the stationary state is unique; it replaces the singular generator
    in every solve (Flindt, Novotny & Jauho, EPL 69, 475 (2005))."""
    n = generator.shape[-1]
    system = np.zeros(generator.shape[:-2] + (n + 1, n + 1), dtype=complex)
    system[..., :n, :n] = generator
    system[..., n, :n] = system[..., :n, n] = trace
    return system
