"""The block-sparse Fock unitaries against a dense reference.

The reference builds each generator from ``np.kron`` ladder operators over
the whole cutoff^2 basis of a mode pair, exponentiates it block by block
over its conserved label (the generator's block structure is checked in
``test_fock.py``) into a dense unitary, and applies that with one
``tensordot``.  The oracle's loss and monitor reads have dense references
too: loss as the splitter on the state zero-padded with a vacuum ancilla,
a monitor as the dense truncated quadrature applied to the state.
"""

import itertools
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import qdmsim as q
from qdmsim import elements
from qdmsim.circuits import ELEMENT_KINDS
from qdmsim.fock import (
    ANCILLA_TAIL,
    _apply_blocks,
    _apply_diagonal,
    _apply_to_vacuum_ancilla,
    _FockRun,
    _moments,
    _reduced_diagonals,
    _schedule,
    _Workspace,
)
from qdmsim.scenario import load_scenario
from test_circuits import dsui_spec
from test_fock import kept_levels


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


def test_exact_nested_circuit_matches_the_dense_path(monkeypatch):
    spec, _ = load_scenario(Path(__file__).resolve().parent.parent / "scenarios" / "nested_validate.json")
    circuit = q.build_circuit(spec)
    # the phase shifter at op 6 acts on mode 0, last touched by op 1: the
    # run applies it before the splitter, the modulator and the loss
    kinds = [op.kind.name for op in circuit.ops]
    assert (kinds[4], kinds[6], circuit.ops[6].modes) == ("loss_channel", "phase_shifter", (0,))
    order = _schedule(circuit.ops)
    assert order.index(6) == order.index(1) + 1 and order.index(6) < order.index(4)
    checked = []
    check_state = _FockRun._check_state

    def recording(run, modes=None):
        checked.append(modes)
        return check_state(run, modes)

    monkeypatch.setattr(_FockRun, "_check_state", recording)
    d = 10
    got = q.simulate_fock(circuit, q.FockConfig(cutoff=d))
    # a check after every op but the phase shifters, each of the op's modes
    # and the loss's ancilla only
    assert checked == [op.modes + (3,) * op.kind.ancilla for op in circuit.ops
                       if not op.kind.diagonal]
    want = dense_monitor_stats(circuit, d)
    assert got.keys() == want.keys()
    for label, (mean, var) in want.items():
        assert abs(got[label][0] - mean) <= 1e-12
        assert abs(got[label][1] - var) <= 1e-12


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
    got = _apply_blocks(psi, blocked(*params, d).blocks, modes, _Workspace(psi.size))
    want = dense_apply(psi, dense(*params, d), modes, d)
    assert np.max(np.abs(got - want)) <= 1e-12


def test_diagonal_application_matches_dense():
    # the phase shifter's 1x1 blocks through the general block path, here
    # on a state whose axes are not in memory order
    for psi in random_states(9):
        for mode in range(psi.ndim):
            got = _apply_blocks(psi, elements.phase_unitary(0.9, 9).blocks, (mode,), _Workspace(psi.size))
            assert np.max(np.abs(got - dense_apply(psi, dense_phase(0.9, 9), (mode,), 9))) <= 1e-12


def test_diagonal_path_matches_dense():
    # one multiply along the mode's axis, on states whose axes are not in memory order
    for psi in random_states(9):
        for mode in range(psi.ndim):
            kept = psi.copy()
            got = _apply_diagonal(psi, elements.phase_unitary(0.9, 9).blocks, mode, _Workspace(psi.size))
            assert np.max(np.abs(got - dense_apply(psi, dense_phase(0.9, 9), (mode,), 9))) <= 1e-12
            assert got.strides == psi.strides and np.array_equal(psi, kept)


LADDER_FAMILIES = [elements.photon_sum_family, elements.photon_difference_family,
                   elements.parity_family, elements.displacement_family]


@pytest.mark.parametrize("d", [4, 7, 20, 40])
@pytest.mark.parametrize("family", LADDER_FAMILIES, ids=lambda family: family.__name__)
def test_every_chain_gets_orthonormal_eigenpairs(family, d):
    # palindromic chains are solved as two half-size problems, or one for an even length
    basis = elements.LadderBasis(family, d)
    keys = {key for _, key in basis._layout}
    assert keys == set(basis._eigen)
    for key, (values, vectors) in basis._eigen.items():
        chain = np.diag(np.frombuffer(key), 1)
        chain += chain.T
        residual = np.linalg.norm(chain @ vectors - vectors * values, 2)
        assert residual <= 1e-13 * max(1.0, np.linalg.norm(chain, 2))
        assert np.linalg.norm(vectors.T @ vectors - np.eye(len(values)), 2) <= 1e-13


def test_photon_sum_basis_makes_one_half_size_eigh_call_per_size(monkeypatch):
    d = 40
    sizes = []
    eigh = np.linalg.eigh

    def counting(stack):
        sizes.append(stack.shape[-1])
        return eigh(stack)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    elements.LadderBasis(elements.photon_sum_family, d)
    # photon sums 0 ... 2d - 2 give chains of sizes 1 ... d: every one
    # palindromic, so each problem is at most half a chain's size
    assert len(sizes) == len(set(sizes))
    assert set(sizes) == set(range(1, d // 2 + 1))


def test_mirror_photon_difference_blocks_share_one_diagonalisation():
    # the 2d - 1 photon-difference labels have d distinct chains: +k and -k share one
    d = 12
    blocks = elements.two_mode_squeezer_unitary(1.3, 0.8, d).blocks
    assert len(blocks) == 2 * d - 1
    assert len({id(block) for _, block in blocks}) == d


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
            work = _Workspace(psi.size * d)
            got = _apply_to_vacuum_ancilla(psi, unitary.blocks, mode, work, ANCILLA_TAIL)
            assert np.max(np.abs(got - padded_loss(psi, unitary, mode, d))) <= 1e-12


@pytest.mark.parametrize("d", [7, 20])
@pytest.mark.parametrize("angle", [0.0, math.pi / 2, 0.7])
def test_monitor_read_matches_the_dense_quadrature(d, angle):
    for psi in random_states(d):
        for mode in range(psi.ndim):
            shifted = dense_apply(psi, dense_quadrature(angle, d), (mode,), d)
            mean, second = _moments(_reduced_diagonals(psi, mode, _Workspace(psi.size)), angle)
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


def test_oracle_peak_memory_is_about_its_two_work_buffers():
    # the nested SUI with its one loss ancilla: a 24^4 state, 5.3 MB, in
    # each of the run's two work buffers, and little else that large
    spec, _ = load_scenario(Path(__file__).resolve().parent.parent / "scenarios" / "nested_validate.json")
    circuit = q.build_circuit(spec)
    assert circuit.n_modes + sum(op.kind.ancilla for op in circuit.ops) == 4
    tracemalloc.start()
    try:
        report = q.compare_with_gaussian(spec, q.FockConfig(cutoff=24))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.passed
    assert peak <= 2.5 * 16 * 24**4


def in_work_buffer(psi, work, which):
    """A copy of ``psi`` in ``work``'s buffer ``which``, its axes in the same memory order."""
    order = np.argsort(psi.strides)[::-1]
    placed = work.buffers[which][: psi.size].reshape(np.take(psi.shape, order))
    placed = placed.transpose(np.argsort(order))
    placed[...] = psi
    return placed


def one_and_two_mode_cases(n, d):
    """(modes, block unitary, dense unitary) on every mode and ordered mode
    pair of an n-mode state: on the permuted 3-mode state of
    :func:`random_states` some lead in memory (read in place), some not."""
    for mode in range(n):
        yield (mode,), elements.displacement_unitary(0.6, -0.8, d), dense_displacement(0.6, -0.8, d)
        yield (mode,), elements.phase_unitary(0.9, d), dense_phase(0.9, d)
    for pair in itertools.permutations(range(n), 2):
        yield pair, elements.two_mode_squeezer_unitary(1.3, 0.8, d), dense_two_mode_squeezer(1.3, 0.8, d)


@pytest.mark.parametrize("which", [0, 1])
def test_ops_on_a_state_in_either_work_buffer_match_dense(which):
    d = 9
    loss = ELEMENT_KINDS["loss_channel"].unitary(math.exp(-0.3), d)
    for psi in random_states(d):
        for modes, unitary, dense in one_and_two_mode_cases(psi.ndim, d):
            work = _Workspace(psi.size)
            got = _apply_blocks(in_work_buffer(psi, work, which), unitary.blocks, modes, work)
            assert np.max(np.abs(got - dense_apply(psi, dense, modes, d))) <= 1e-12
        for mode in range(psi.ndim):
            work = _Workspace(psi.size * d)  # room for the ancilla
            got = _apply_to_vacuum_ancilla(in_work_buffer(psi, work, which), loss.blocks, mode, work,
                                           ANCILLA_TAIL)
            assert np.max(np.abs(got - padded_loss(psi, loss, mode, d))) <= 1e-12


def test_ops_only_read_an_array_they_do_not_own():
    d = 9
    loss = ELEMENT_KINDS["loss_channel"].unitary(math.exp(-0.3), d)
    for permuted in random_states(d):
        for psi in (permuted, np.ascontiguousarray(permuted)):
            kept = psi.copy()
            for modes, unitary, _ in one_and_two_mode_cases(psi.ndim, d):
                _apply_blocks(psi, unitary.blocks, modes, _Workspace(psi.size))
            for mode in range(psi.ndim):
                _apply_to_vacuum_ancilla(psi, loss.blocks, mode, _Workspace(psi.size * d), ANCILLA_TAIL)
                _moments(_reduced_diagonals(psi, mode, _Workspace(psi.size)), 0.7)
            assert np.array_equal(psi, kept)


def dense_monitor_stats(circuit, d):
    """(mean, variance) per monitor from each op's dense unitary on the
    whole state, loss on a zero-padded ancilla, and the dense quadrature."""
    psi = np.zeros((d,) * circuit.n_modes, dtype=complex)
    psi[(0,) * circuit.n_modes] = 1.0
    for op in circuit.ops:
        unitary = op.kind.unitary(*op.params, d)
        if op.kind.ancilla:
            psi = padded_loss(psi, unitary, op.modes[0], d)
        else:
            psi = dense_apply(psi, assemble(unitary, d ** len(op.modes)), op.modes, d)
    stats = {}
    for mon in circuit.monitors:
        shifted = dense_apply(psi, dense_quadrature(mon.angle, d), (mon.mode,), d)
        mean = np.vdot(psi, shifted).real
        stats[mon.label] = (mean, np.vdot(shifted, shifted).real - mean**2)
    return stats


def test_three_splitter_mzi_alternating_modes_matches_the_dense_path():
    splitters = tuple(q.SplitterSpec(T) for T in (0.7, 0.6, 0.4))
    spec = q.CircuitSpec(q.Topology.MZI, alpha=0.4, splitters=splitters, delta=0.05, epsilon=0.05,
                         detection_loss=0.9, modulation_mode=q.ModulationMode.EXACT)
    circuit = q.build_circuit(spec)
    # the state goes back and forth between the work buffers, with its
    # target modes leading in memory after one op and not after the next
    assert [op.modes for op in circuit.ops if len(op.modes) == 2] == [(0, 1), (1, 0), (1, 2)]
    assert sum(op.kind.ancilla for op in circuit.ops) == 3
    d = 8
    got = q.simulate_fock(circuit, q.FockConfig(cutoff=d))
    want = dense_monitor_stats(circuit, d)
    assert got.keys() == want.keys()
    for label, (mean, var) in want.items():
        assert abs(got[label][0] - mean) <= 1e-12
        assert abs(got[label][1] - var) <= 1e-12


def test_nested_circuit_with_a_short_ancilla_matches_the_dense_path(monkeypatch):
    spec, _ = load_scenario(Path(__file__).resolve().parent.parent / "scenarios" / "nested_validate.json")
    circuit = q.build_circuit(spec)
    kept = kept_levels(monkeypatch)
    d = 16
    got = q.simulate_fock(circuit, q.FockConfig(cutoff=d))
    # the loss's ancilla keeps only the levels that hold probability
    assert len(kept) == 1 and kept[0] < d
    want = dense_monitor_stats(circuit, d)
    assert got.keys() == want.keys()
    for label, (mean, var) in want.items():
        assert abs(got[label][0] - mean) <= 1e-12
        assert abs(got[label][1] - var) <= 1e-12


@pytest.mark.parametrize("which", [0, 1])
def test_ops_after_a_short_ancilla_match_dense(which):
    # mode 0 holds amplitudes of about 0.1^n: the loss on it leaves the
    # ancilla ~3e-16 in level 6 and ~1e-18 above, so it keeps 9 of 12 levels
    d = 12
    rng = np.random.default_rng(7)
    for permuted in random_states(d):
        if permuted.ndim < 2:
            continue
        decay = np.moveaxis(np.zeros(permuted.shape), 0, -1) + 0.1 ** np.arange(d)
        psi = permuted * np.moveaxis(decay, -1, 0) * np.exp(2j * np.pi * rng.random(permuted.shape))
        psi /= np.linalg.norm(psi)
        loss = ELEMENT_KINDS["loss_channel"].unitary(math.exp(-0.3), d)
        work = _Workspace(psi.size * d)
        lossy = _apply_to_vacuum_ancilla(in_work_buffer(psi, work, which), loss.blocks, 0, work,
                                         ANCILLA_TAIL)
        padded = padded_loss(psi, loss, 0, d)
        keep = lossy.shape[-1]
        assert keep == 9 and lossy.shape[:-1] == psi.shape
        assert np.max(np.abs(lossy - padded[..., :keep])) <= 1e-12
        assert np.vdot(padded[..., keep - 2 :], padded[..., keep - 2 :]).real <= ANCILLA_TAIL
        for modes, unitary, dense in one_and_two_mode_cases(psi.ndim, d):
            # an op may overwrite the buffer its input lies in: each gets a copy
            work = _Workspace(lossy.size)
            state = in_work_buffer(lossy, work, which)
            if all(block.shape == (1, 1) for _, block in unitary.blocks):  # the phase shifter
                got = _apply_diagonal(state, unitary.blocks, modes[0], work)
            else:
                got = _apply_blocks(state, unitary.blocks, modes, work)
            assert np.max(np.abs(got - dense_apply(padded, dense, modes, d)[..., :keep])) <= 1e-12
