import math

import numpy as np
import pytest

import qdmsim as q
from qdmsim.circuits import CircuitOp, CompiledCircuit, Monitor
from test_circuits import dsui_spec, mzi_spec

XY = (Monitor("x", 0, 0.0), Monitor("y", 0, math.pi / 2))


def tiny_circuit(ops, n_modes=1, monitors=XY):
    # spec field is only metadata for hand-built element circuits
    spec = mzi_spec(modulation_mode=q.ModulationMode.EXACT)
    return CompiledCircuit(spec, n_modes, tuple(ops), tuple(monitors))


def test_coherent_state_through_identity():
    circuit = tiny_circuit([CircuitOp("displace", (0,), (1.0, 0.0))])
    stats = q.simulate_fock(circuit, q.FockConfig(cutoff=20, modes=1))
    assert stats["x"][0] == pytest.approx(2.0, abs=1e-6)
    assert stats["x"][1] == pytest.approx(1.0, abs=1e-6)
    assert stats["y"][0] == pytest.approx(0.0, abs=1e-9)


@pytest.mark.parametrize("angle", [0.0, 0.7, math.pi / 3, 2.9])
def test_vacuum_variance_at_any_angle(angle):
    circuit = tiny_circuit([], monitors=(Monitor("q", 0, angle),))
    stats = q.simulate_fock(circuit, q.FockConfig(cutoff=8, modes=1))
    assert stats["q"][0] == pytest.approx(0.0, abs=1e-10)
    assert stats["q"][1] == pytest.approx(1.0, abs=1e-10)


def test_single_mode_squeezer_variances():
    circuit = tiny_circuit([CircuitOp("single_mode_squeezer", (0,), (1.25, 0.0))])
    stats = q.simulate_fock(circuit, q.FockConfig(cutoff=40, modes=1))
    assert stats["x"][1] == pytest.approx(4.0, abs=1e-4)
    assert stats["y"][1] == pytest.approx(0.25, abs=1e-4)


def test_two_mode_squeezer_variances():
    circuit = tiny_circuit(
        [CircuitOp("two_mode_squeezer", (0, 1), (1.25, 0.0))],
        n_modes=2,
        monitors=(Monitor("x0", 0, 0.0), Monitor("x1", 1, 0.0)),
    )
    stats = q.simulate_fock(circuit, q.FockConfig(cutoff=25, modes=2))
    assert stats["x0"][1] == pytest.approx(2.125, abs=1e-4)
    assert stats["x1"][1] == pytest.approx(2.125, abs=1e-4)


def test_loss_channel_on_squeezed_vacuum():
    circuit = tiny_circuit(
        [
            CircuitOp("single_mode_squeezer", (0,), (1.25, math.pi)),
            CircuitOp("loss_channel", (0,), (0.5,)),
        ]
    )
    stats = q.simulate_fock(circuit, q.FockConfig(cutoff=40, modes=1))
    assert stats["x"][1] == pytest.approx(0.625, abs=1e-4)
    assert stats["y"][1] == pytest.approx(2.5, abs=1e-4)


def test_phase_shifter_rotates_coherent_state():
    circuit = tiny_circuit(
        [
            CircuitOp("displace", (0,), (1.0, 0.0)),
            CircuitOp("phase_shifter", (0,), (math.pi / 2,)),
        ]
    )
    stats = q.simulate_fock(circuit, q.FockConfig(cutoff=20, modes=1))
    assert stats["x"][0] == pytest.approx(0.0, abs=1e-9)
    assert stats["y"][0] == pytest.approx(2.0, abs=1e-6)


def test_beam_splitter_signs_match_gaussian_engine():
    circuit = tiny_circuit(
        [
            CircuitOp("displace", (0,), (1.0, 0.0)),
            CircuitOp("beam_splitter", (0, 1), (0.5,)),
        ],
        n_modes=2,
        monitors=(Monitor("x0", 0, 0.0), Monitor("x1", 1, 0.0)),
    )
    stats = q.simulate_fock(circuit, q.FockConfig(cutoff=20, modes=2))
    assert stats["x0"][0] == pytest.approx(math.sqrt(2.0), abs=1e-6)
    assert stats["x1"][0] == pytest.approx(-math.sqrt(2.0), abs=1e-6)


def test_truncation_error_shrinks_with_cutoff():
    # doubling the cutoff gains at least a factor ten until the floor
    deviations = []
    for cutoff in (14, 28, 56):
        circuit = tiny_circuit([CircuitOp("single_mode_squeezer", (0,), (1.25, 0.0))])
        stats = q.simulate_fock(
            circuit, q.FockConfig(cutoff=cutoff, modes=1, tail_threshold=1e-3)
        )
        deviations.append(abs(stats["x"][1] - 4.0))
    for worse, better in zip(deviations, deviations[1:]):
        assert better < 1e-10 or worse / better >= 10.0


def test_tail_mass_abort():
    circuit = tiny_circuit([CircuitOp("single_mode_squeezer", (0,), (1.6, 0.0))])
    with pytest.raises(q.TruncationError) as err:
        q.simulate_fock(circuit, q.FockConfig(cutoff=6, modes=1))
    assert err.value.tail_mass > 0.0


def test_oracle_rejects_large_gain():
    circuit = tiny_circuit([CircuitOp("single_mode_squeezer", (0,), (1.7, 0.0))])
    with pytest.raises(q.ValidationError):
        q.simulate_fock(circuit, q.FockConfig(cutoff=20, modes=1))


def test_oracle_rejects_large_displacement():
    circuit = tiny_circuit([CircuitOp("displace", (0,), (3.0, 0.0))])
    with pytest.raises(q.ValidationError):
        q.simulate_fock(circuit, q.FockConfig(cutoff=20, modes=1))


def test_oracle_rejects_linearized_specs():
    with pytest.raises(q.ValidationError):
        q.simulate_fock(mzi_spec(alpha=1.0), q.FockConfig(cutoff=10, modes=2))


def test_dimension_guard():
    with pytest.raises(q.ValidationError):
        q.simulate_fock(
            tiny_circuit([], n_modes=3), q.FockConfig(cutoff=200, modes=3)
        )


def test_fock_config_bounds():
    with pytest.raises(q.ValidationError):
        q.FockConfig(cutoff=3)
    with pytest.raises(q.ValidationError):
        q.FockConfig(cutoff=10, modes=4)
    with pytest.raises(q.ValidationError):
        q.FockConfig(cutoff=10, tail_threshold=0.1)


def test_compare_identity_circuit():
    spec = mzi_spec(
        T=1.0, alpha=1.0, modulation_mode=q.ModulationMode.EXACT
    )
    report = q.compare_with_gaussian(spec, q.FockConfig(cutoff=20, modes=2))
    assert report.max_abs_deviation < 1e-12
    assert report.passed


def test_compare_mzi_with_phase_modulation():
    spec = mzi_spec(T=0.9, alpha=1.0, delta=0.01, modulation_mode=q.ModulationMode.EXACT)
    report = q.compare_with_gaussian(spec, q.FockConfig(cutoff=25, modes=2), tolerance=1e-5)
    assert report.passed, f"max deviation {report.max_abs_deviation:.3e}"


def test_compare_degenerate_interferometer():
    spec = dsui_spec(
        G1=1.25, G2=1.25, theta1=math.pi, theta2=0.0, alpha=1.0, R=0.01,
        epsilon=0.01, modulation_mode=q.ModulationMode.EXACT,
    )
    report = q.compare_with_gaussian(spec, q.FockConfig(cutoff=40, modes=2), tolerance=1e-4)
    assert report.passed, f"max deviation {report.max_abs_deviation:.3e}"


def test_generators_are_block_diagonal_over_labels():
    # the blocked exponentials rely on exact conservation laws
    from qdmsim.fock import _destroy

    d = 8
    a = _destroy(d)
    eye = np.eye(d)
    m0, m1 = np.kron(a, eye), np.kron(eye, a)
    grid = np.arange(d)
    bs_generator = m0.conj().T @ m1 - m0 @ m1.conj().T
    bs_labels = (grid[:, None] + grid[None, :]).ravel()
    tms_generator = m0.conj().T @ m1.conj().T - m0 @ m1
    tms_labels = (grid[:, None] - grid[None, :]).ravel()
    for generator, labels in ((bs_generator, bs_labels), (tms_generator, tms_labels)):
        off = generator[labels[:, None] != labels[None, :]]
        assert np.max(np.abs(off)) == 0.0


def test_no_unitary_outlives_its_run(monkeypatch):
    import gc
    import weakref

    from qdmsim import fock

    built = []

    def recording(builder):
        def build(*args):
            unitary = builder(*args)
            built.append(weakref.ref(unitary))
            return unitary

        return build

    for kind, builder in list(fock._UNITARIES.items()):
        monkeypatch.setitem(fock._UNITARIES, kind, recording(builder))
    for T, delta in ((0.9, 0.01), (0.8, 0.02)):  # fresh parameters per call
        spec = mzi_spec(T=T, alpha=1.0, delta=delta, modulation_mode=q.ModulationMode.EXACT)
        assert q.compare_with_gaussian(spec, q.FockConfig(cutoff=20, modes=2)).passed
    gc.collect()
    assert built
    assert all(ref() is None for ref in built)
    assert not any(hasattr(value, "cache_info") for value in vars(fock).values())


def test_identical_elements_share_one_unitary_within_a_run(monkeypatch):
    from qdmsim import fock

    builds = []
    original = fock._UNITARIES["beam_splitter"]

    def counting(*args):
        builds.append(args)
        return original(*args)

    monkeypatch.setitem(fock._UNITARIES, "beam_splitter", counting)
    # identical T1/T2 splitters: two beam-splitter ops, one unitary
    spec = mzi_spec(T=0.9, alpha=1.0, delta=0.01, modulation_mode=q.ModulationMode.EXACT)
    q.simulate_fock(spec, q.FockConfig(cutoff=20, modes=2))
    assert builds == [(0.9, 20)]
