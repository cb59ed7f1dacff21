"""The block-sparse Fock unitaries against a dense reference.

The reference builds each generator from ``np.kron`` ladder operators over
the whole cutoff^2 basis of a mode pair, exponentiates it block by block
over its conserved label (the generator's block structure is checked in
``test_fock.py``) into a dense unitary, and applies that with one
``tensordot``.  The oracle's loss and monitor reads have dense references
too: loss as the splitter on the state zero-padded with a vacuum ancilla,
a monitor as the dense truncated quadrature applied to the state.
"""

import math
import tracemalloc

import numpy as np
import pytest

import qdmsim as q
from qdmsim import elements
from qdmsim.circuits import ELEMENT_KINDS
from qdmsim.fock import _apply_blocks, _apply_to_vacuum_ancilla, _quadrature_moments
from test_circuits import dsui_spec


def _destroy(d):
    return np.diag(np.sqrt(np.arange(1.0, d)), 1)


def _expm_antihermitian(generator):
    evals, evecs = np.linalg.eigh(-1j * generator)
    return (evecs * np.exp(1j * evals)) @ evecs.conj().T


def _expm_blocked(generator, labels):
    unitary = np.zeros(generator.shape, dtype=complex)
    for lab in np.unique(labels):
        idx = np.where(labels == lab)[0]
        unitary[np.ix_(idx, idx)] = _expm_antihermitian(generator[np.ix_(idx, idx)])
    return unitary


def _pair(d):
    a, eye = _destroy(d), np.eye(d)
    n0, n1 = np.divmod(np.arange(d * d), d)
    return np.kron(a, eye), np.kron(eye, a), n0, n1


def dense_splitter(T, d):
    mode0, mode1, n0, n1 = _pair(d)
    theta = math.atan2(math.sqrt(1.0 - T), math.sqrt(T))
    generator = theta * (mode0.conj().T @ mode1 - mode0 @ mode1.conj().T)
    return _expm_blocked(generator, n0 + n1)


def dense_two_mode_squeezer(G, pump_phase, d):
    mode0, mode1, n0, n1 = _pair(d)
    phase = np.exp(1j * pump_phase)
    generator = phase * mode0.conj().T @ mode1.conj().T - np.conj(phase) * mode0 @ mode1
    return _expm_blocked(math.acosh(G) * generator, n0 - n1)


def dense_single_mode_squeezer(G, theta, d):
    a = _destroy(d)
    phase = np.exp(1j * theta)
    generator = phase * (a.conj().T @ a.conj().T) - np.conj(phase) * a @ a
    return _expm_blocked((math.acosh(G) / 2.0) * generator, np.arange(d) % 2)


def dense_displacement(re, im, d):
    a = _destroy(d)
    alpha = complex(re, im)
    return _expm_antihermitian(alpha * a.conj().T - alpha.conjugate() * a)


def dense_phase(phi, d):
    return np.diag(np.exp(1j * phi * np.arange(d)))


def dense_apply(psi, unitary, modes, d):
    k = len(modes)
    reshaped = unitary.reshape((d,) * (2 * k))
    out = np.tensordot(reshaped, psi, axes=(tuple(range(k, 2 * k)), modes))
    return np.moveaxis(out, tuple(range(k)), modes)


def assemble(unitary, size):
    """The dense matrix a block unitary stands for (test side only)."""
    dense = np.zeros((size, size), dtype=complex)
    for indices, block in unitary.blocks:
        dense[np.ix_(indices, indices)] = block
    return dense


#: (element kind, dense reference, parameters, modes it acts on)
CASES = [
    ("beam_splitter", dense_splitter, (0.7,), 2),
    ("beam_splitter", dense_splitter, (0.01,), 2),
    ("loss_channel", dense_splitter, (math.exp(-0.02),), 2),
    ("two_mode_squeezer", dense_two_mode_squeezer, (1.25, 0.0), 2),
    ("two_mode_squeezer", dense_two_mode_squeezer, (1.25, math.pi), 2),
    ("two_mode_squeezer", dense_two_mode_squeezer, (1.6, 0.4), 2),
    ("two_mode_squeezer", dense_two_mode_squeezer, (1.1, -2.2), 2),
    ("single_mode_squeezer", dense_single_mode_squeezer, (1.25, 0.7), 1),
    ("single_mode_squeezer", dense_single_mode_squeezer, (1.6, math.pi), 1),
    ("phase_shifter", dense_phase, (0.9,), 1),
    ("displace", dense_displacement, (0.6, -0.8), 1),
]
CASE_IDS = [f"{name}{list(params)}" for name, _, params, _ in CASES]


@pytest.mark.parametrize("d", [7, 20, 40])
@pytest.mark.parametrize("name, dense, params, k", CASES, ids=CASE_IDS)
def test_blocked_unitary_matches_dense_reference(name, dense, params, k, d):
    unitary = ELEMENT_KINDS[name].unitary(*params, d)
    assert np.max(np.abs(assemble(unitary, d**k) - dense(*params, d))) <= 1e-13


@pytest.mark.parametrize("d", [7, 20])
@pytest.mark.parametrize("name, dense, params, k", CASES, ids=CASE_IDS)
def test_blocks_partition_the_basis_and_are_unitary(name, dense, params, k, d):
    unitary = ELEMENT_KINDS[name].unitary(*params, d)
    indices = np.concatenate([indices for indices, _ in unitary.blocks])
    assert np.array_equal(np.sort(indices), np.arange(d**k))
    for block_indices, block in unitary.blocks:
        assert block.shape == (len(block_indices),) * 2
        assert np.allclose(block.conj().T @ block, np.eye(len(block)), atol=1e-13, rtol=0.0)


@pytest.mark.parametrize("modes", [(0,), (2,), (0, 1), (1, 2), (2, 0), (1, 0)])
def test_blocked_application_matches_dense(modes):
    d = 9
    rng = np.random.default_rng(5)
    psi = rng.normal(size=(d, d, d)) + 1j * rng.normal(size=(d, d, d))
    if len(modes) == 2:
        params, blocked, dense = (1.3, 0.8), elements.two_mode_squeezer_unitary, dense_two_mode_squeezer
    else:
        params, blocked, dense = (0.6, -0.8), elements.displacement_unitary, dense_displacement
    got = _apply_blocks(psi, blocked(*params, d).blocks, modes)
    want = dense_apply(psi, dense(*params, d), modes, d)
    assert np.max(np.abs(got - want)) <= 1e-12


def dense_quadrature(angle, d):
    a = _destroy(d)
    return a * np.exp(-1j * angle) + a.conj().T * np.exp(1j * angle)


def padded_loss(psi, unitary, mode, d):
    """The splitter ``unitary`` on ``mode`` and a vacuum ancilla appended last."""
    extended = np.zeros(psi.shape + (d,), dtype=complex)
    extended[..., 0] = psi
    return dense_apply(extended, assemble(unitary, d * d), (mode, psi.ndim), d)


def random_states(d):
    """Normalised random 1-3 mode states, the 3-mode one with permuted axes."""
    rng = np.random.default_rng(d)
    for n, axes in ((1, (0,)), (2, (0, 1)), (3, (2, 0, 1))):
        psi = rng.normal(size=(d,) * n) + 1j * rng.normal(size=(d,) * n)
        yield (psi / np.linalg.norm(psi)).transpose(axes)


@pytest.mark.parametrize("d", [7, 20])
def test_loss_on_the_vacuum_column_matches_the_padded_splitter(d):
    unitary = ELEMENT_KINDS["loss_channel"].unitary(math.exp(-0.3), d)
    for psi in random_states(d):
        for mode in range(psi.ndim):
            got = _apply_to_vacuum_ancilla(psi, unitary.blocks, mode)
            assert np.max(np.abs(got - padded_loss(psi, unitary, mode, d))) <= 1e-12


@pytest.mark.parametrize("d", [7, 20])
@pytest.mark.parametrize("angle", [0.0, math.pi / 2, 0.7])
def test_monitor_read_matches_the_dense_quadrature(d, angle):
    for psi in random_states(d):
        for mode in range(psi.ndim):
            shifted = dense_apply(psi, dense_quadrature(angle, d), (mode,), d)
            mean, second = _quadrature_moments(psi, mode, angle)
            assert abs(mean - np.vdot(psi, shifted).real) <= 1e-12
            assert abs(second - np.vdot(shifted, shifted).real) <= 1e-12


def test_oracle_memory_stays_far_below_one_dense_unitary():
    # one dense two-mode unitary at cutoff 40 is 1600^2 complex entries, 41 MB
    spec = dsui_spec(
        G1=1.25, G2=1.25, theta1=math.pi, theta2=0.0, alpha=1.0, R=0.01,
        epsilon=0.01, modulation_mode=q.ModulationMode.EXACT,
    )
    circuit = q.build_circuit(spec)
    assert circuit.n_modes == 2
    tracemalloc.start()
    try:
        report = q.compare_with_gaussian(circuit, q.FockConfig(cutoff=40))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.passed
    assert peak < 16 * 2**20
