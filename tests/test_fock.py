import math
from dataclasses import replace

import numpy as np
import pytest

import qdmsim as q
from qdmsim.circuits import ELEMENT_KINDS, CircuitOp, CompiledCircuit, Monitor
from test_circuits import dsui_spec, mzi_spec, nested_spec

XY = (Monitor("x", 0, 0.0), Monitor("y", 0, math.pi / 2))


def tiny_circuit(ops, n_modes=1, monitors=XY):
    return CompiledCircuit(n_modes, tuple(ops), tuple(monitors))


def test_coherent_state_through_identity():
    circuit = tiny_circuit([CircuitOp("displace", (0,), (1.0, 0.0))])
    stats = q.simulate_fock(circuit, q.FockConfig(cutoff=20))
    assert stats["x"][0] == pytest.approx(2.0, abs=1e-6)
    assert stats["x"][1] == pytest.approx(1.0, abs=1e-6)
    assert stats["y"][0] == pytest.approx(0.0, abs=1e-9)


@pytest.mark.parametrize("angle", [0.0, 0.7, math.pi / 3, 2.9])
def test_vacuum_variance_at_any_angle(angle):
    circuit = tiny_circuit([], monitors=(Monitor("q", 0, angle),))
    stats = q.simulate_fock(circuit, q.FockConfig(cutoff=8))
    assert stats["q"][0] == pytest.approx(0.0, abs=1e-10)
    assert stats["q"][1] == pytest.approx(1.0, abs=1e-10)


def test_single_mode_squeezer_variances():
    circuit = tiny_circuit([CircuitOp("single_mode_squeezer", (0,), (1.25, 0.0))])
    stats = q.simulate_fock(circuit, q.FockConfig(cutoff=40))
    assert stats["x"][1] == pytest.approx(4.0, abs=1e-4)
    assert stats["y"][1] == pytest.approx(0.25, abs=1e-4)


def test_two_mode_squeezer_variances():
    circuit = tiny_circuit(
        [CircuitOp("two_mode_squeezer", (0, 1), (1.25, 0.0))],
        n_modes=2,
        monitors=(Monitor("x0", 0, 0.0), Monitor("x1", 1, 0.0)),
    )
    stats = q.simulate_fock(circuit, q.FockConfig(cutoff=25))
    assert stats["x0"][1] == pytest.approx(2.125, abs=1e-4)
    assert stats["x1"][1] == pytest.approx(2.125, abs=1e-4)


def test_loss_channel_on_squeezed_vacuum():
    circuit = tiny_circuit(
        [
            CircuitOp("single_mode_squeezer", (0,), (1.25, math.pi)),
            CircuitOp("loss_channel", (0,), (0.5,)),
        ]
    )
    stats = q.simulate_fock(circuit, q.FockConfig(cutoff=40))
    assert stats["x"][1] == pytest.approx(0.625, abs=1e-4)
    assert stats["y"][1] == pytest.approx(2.5, abs=1e-4)


def test_phase_shifter_rotates_coherent_state():
    circuit = tiny_circuit(
        [
            CircuitOp("displace", (0,), (1.0, 0.0)),
            CircuitOp("phase_shifter", (0,), (math.pi / 2,)),
        ]
    )
    stats = q.simulate_fock(circuit, q.FockConfig(cutoff=20))
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
    stats = q.simulate_fock(circuit, q.FockConfig(cutoff=20))
    assert stats["x0"][0] == pytest.approx(math.sqrt(2.0), abs=1e-6)
    assert stats["x1"][0] == pytest.approx(-math.sqrt(2.0), abs=1e-6)


def test_truncation_error_shrinks_with_cutoff():
    # doubling the cutoff gains at least a factor ten until the floor
    deviations = []
    for cutoff in (14, 28, 56):
        circuit = tiny_circuit([CircuitOp("single_mode_squeezer", (0,), (1.25, 0.0))])
        stats = q.simulate_fock(
            circuit, q.FockConfig(cutoff=cutoff, tail_threshold=1e-3)
        )
        deviations.append(abs(stats["x"][1] - 4.0))
    for worse, better in zip(deviations, deviations[1:]):
        assert better < 1e-10 or worse / better >= 10.0


def test_tail_mass_abort():
    circuit = tiny_circuit([CircuitOp("single_mode_squeezer", (0,), (1.6, 0.0))])
    with pytest.raises(q.TruncationError) as err:
        q.simulate_fock(circuit, q.FockConfig(cutoff=6))
    assert err.value.tail_mass > 0.0


def test_oracle_rejects_large_gain():
    circuit = tiny_circuit([CircuitOp("single_mode_squeezer", (0,), (1.7, 0.0))])
    message = r"^oracle restricted to gains <= 1.6, got 1.7 at op 0 \(single_mode_squeezer\)$"
    with pytest.raises(q.ValidationError, match=message):
        q.simulate_fock(circuit, q.FockConfig(cutoff=20))


def test_oracle_rejects_large_displacement():
    circuit = tiny_circuit([CircuitOp("displace", (0,), (3.0, 0.0))])
    with pytest.raises(q.ValidationError, match=r"^oracle restricted to \|alpha\| <= 2.0 at op 0 \(displace\)$"):
        q.simulate_fock(circuit, q.FockConfig(cutoff=20))


@pytest.mark.parametrize(
    "kind, params",
    [("single_mode_squeezer", (math.nan, 0.0)), ("two_mode_squeezer", (math.nan, 0.0)),
     ("displace", (math.nan, 0.0)), ("displace", (0.0, math.nan))],
)
def test_oracle_envelope_refuses_nan(kind, params):
    modes = (0, 1) if kind == "two_mode_squeezer" else (0,)
    circuit = tiny_circuit([CircuitOp(kind, modes, params)], n_modes=len(modes))
    with pytest.raises(q.ValidationError, match=rf"^oracle restricted to .* at op 0 \({kind}\)$"):
        q.simulate_fock(circuit, q.FockConfig(cutoff=20))


def test_oracle_rejects_linearized_specs():
    with pytest.raises(q.ValidationError):
        q.simulate_fock(mzi_spec(alpha=1.0), q.FockConfig(cutoff=10))


def test_dimension_guard():
    with pytest.raises(q.ValidationError):
        q.simulate_fock(tiny_circuit([], n_modes=3), q.FockConfig(cutoff=200))


def test_fock_config_bounds():
    with pytest.raises(q.ValidationError):
        q.FockConfig(cutoff=3)
    with pytest.raises(q.ValidationError):
        q.FockConfig(cutoff=10, tail_threshold=0.1)


def test_compare_identity_circuit():
    spec = mzi_spec(
        T=1.0, alpha=1.0, modulation_mode=q.ModulationMode.EXACT
    )
    report = q.compare_with_gaussian(spec, q.FockConfig(cutoff=20))
    assert report.max_abs_deviation < 1e-12
    assert report.passed


def test_compare_mzi_with_phase_modulation():
    spec = mzi_spec(T=0.9, alpha=1.0, delta=0.01, modulation_mode=q.ModulationMode.EXACT)
    report = q.compare_with_gaussian(spec, q.FockConfig(cutoff=25), tolerance=1e-5)
    assert report.passed, f"max deviation {report.max_abs_deviation:.3e}"


def test_compare_degenerate_interferometer():
    spec = dsui_spec(
        G1=1.25, G2=1.25, theta1=math.pi, theta2=0.0, alpha=1.0, R=0.01,
        epsilon=0.01, modulation_mode=q.ModulationMode.EXACT,
    )
    report = q.compare_with_gaussian(spec, q.FockConfig(cutoff=40), tolerance=1e-4)
    assert report.passed, f"max deviation {report.max_abs_deviation:.3e}"


def test_generators_are_block_diagonal_over_labels():
    # the blocked exponentials rely on exact conservation laws
    d = 8
    a = np.diag(np.sqrt(np.arange(1.0, d)), 1)
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


def _patch_unitary(monkeypatch, name, wrap):
    """Replace the unitary builder of table entry ``name`` by ``wrap(builder)``."""
    kind = ELEMENT_KINDS[name]
    monkeypatch.setitem(ELEMENT_KINDS, name, replace(kind, unitary=wrap(kind.unitary)))


def _record_bases(monkeypatch, record):
    """Make every eigenbasis a run builds call ``record(basis, family)``."""
    from qdmsim import elements

    class RecordedBasis(elements.LadderBasis):
        def __init__(self, family, d):
            super().__init__(family, d)
            record(self, family)

    monkeypatch.setattr(elements, "LadderBasis", RecordedBasis)


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

    for name in list(ELEMENT_KINDS):
        _patch_unitary(monkeypatch, name, recording)
    bases = []
    _record_bases(monkeypatch, lambda basis, family: bases.append(weakref.ref(basis)))
    for T, delta in ((0.9, 0.01), (0.8, 0.02)):  # fresh parameters per call
        spec = mzi_spec(T=T, alpha=1.0, delta=delta, modulation_mode=q.ModulationMode.EXACT)
        assert q.compare_with_gaussian(spec, q.FockConfig(cutoff=20)).passed
    gc.collect()
    assert built and bases
    assert all(ref() is None for ref in built + bases)
    assert not any(hasattr(value, "cache_info") for value in vars(fock).values())


def test_each_ladder_family_is_diagonalised_once_per_run(monkeypatch):
    families = []
    _record_bases(monkeypatch, lambda basis, family: families.append(family.__name__))
    # a nested SUI with an amplitude modulator: two splitters and a loss
    # share the photon-sum family, its two different squeezers the
    # photon-difference one
    spec = nested_spec(G1=1.1, G2=1.15, R=0.01, alpha=0.5, delta=0.01, epsilon=0.05,
                       modulation_mode=q.ModulationMode.EXACT)
    circuit = q.build_circuit(spec)
    kinds = [op.kind.name for op in circuit.ops]
    assert (kinds.count("beam_splitter"), kinds.count("loss_channel")) == (2, 1)
    assert kinds.count("two_mode_squeezer") == 2
    for _ in range(2):  # each run diagonalises afresh
        families.clear()
        assert q.compare_with_gaussian(circuit, q.FockConfig(cutoff=20)).passed
        assert sorted(families) == [
            "displacement_family", "photon_difference_family", "photon_sum_family",
        ]


def test_identical_elements_share_one_unitary_within_a_run(monkeypatch):
    builds = []

    def counting(original):
        def build(*args):
            builds.append(args[:-1])  # parameters and cutoff; last the run's eigenbasis lookup
            return original(*args)

        return build

    _patch_unitary(monkeypatch, "beam_splitter", counting)
    # identical T1/T2 splitters: two beam-splitter ops, one unitary
    spec = mzi_spec(T=0.9, alpha=1.0, delta=0.01, modulation_mode=q.ModulationMode.EXACT)
    q.simulate_fock(spec, q.FockConfig(cutoff=20))
    assert builds == [(0.9, 20)]


#: One element per table entry: modes, parameters, and whether it needs
#: input light (a displacement in front of it) to show anything.
ONE_ELEMENT = {
    "beam_splitter": ((0, 1), (0.7,), True),
    "phase_shifter": ((0,), (0.7,), True),
    "loss_channel": ((0,), (0.6,), True),
    "two_mode_squeezer": ((0, 1), (1.1, 0.4), False),
    "single_mode_squeezer": ((0,), (1.1, 0.4), False),
    "displace": ((0,), (0.6, 0.8), False),
}


@pytest.mark.parametrize("name", sorted(ELEMENT_KINDS))
def test_every_element_kind_matches_the_oracle(name):
    modes, params, lit = ONE_ELEMENT[name]
    ops = [CircuitOp("displace", (0,), (1.0, 0.0))] if lit else []
    ops.append(CircuitOp(name, modes, params))
    monitors = [Monitor(f"{xy.label}{m}", m, xy.angle) for m in modes for xy in XY]
    circuit = tiny_circuit(ops, len(modes), monitors)
    report = q.compare_with_gaussian(circuit, q.FockConfig(cutoff=20))
    assert report.passed, f"{name}: max deviation {report.max_abs_deviation:.3e}"


def test_unknown_op_kind_rejected_at_construction():
    with pytest.raises(q.ValidationError, match="unknown circuit op kind 'mirror'"):
        CircuitOp("mirror", (0,), ())


def test_truncation_names_the_op_and_keeps_tail_mass():
    circuit = tiny_circuit([CircuitOp("displace", (0,), (1.9, 0.0))])
    with pytest.raises(q.TruncationError, match=r"raise the cutoff at op 0 \(displace\)$") as err:
        q.simulate_fock(circuit, q.FockConfig(cutoff=8))
    assert err.value.tail_mass > 1e-6
