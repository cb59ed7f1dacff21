import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qdmsim as q
from qdmsim import elements, fock
from qdmsim.circuits import ELEMENT_KINDS, CircuitOp, CompiledCircuit, Monitor
from qdmsim.exceptions import annotate
from qdmsim.fock import _FockRun, _moments, _reduced_diagonals
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


@pytest.mark.parametrize("params", [(3.0, 0.0), (1e200, 0.0), (1e308, -1e308)])
def test_oracle_rejects_large_displacement(params):
    # a finite check's sum of squares overflows at 1e200 without a warning
    circuit = tiny_circuit([CircuitOp("displace", (0,), params)])
    with pytest.raises(q.ValidationError, match=r"^oracle restricted to \|alpha\| <= 2.0 at op 0 \(displace\)$"):
        q.simulate_fock(circuit, q.FockConfig(cutoff=20))


@pytest.mark.parametrize(
    "kind, params, message",
    [("single_mode_squeezer", (math.nan, 0.0), "amplifier gain must be >= 1, got nan"),
     ("two_mode_squeezer", (math.nan, 0.0), "amplifier gain must be >= 1, got nan"),
     ("displace", (math.nan, 0.0), "displacement must be finite"),
     ("displace", (0.0, math.nan), "displacement must be finite")],
)
def test_the_oracle_refuses_nan_as_the_gaussian_map_does(kind, params, message):
    # the element's own check refuses it, in its words, before the envelope
    modes = (0, 1) if kind == "two_mode_squeezer" else (0,)
    circuit = tiny_circuit([CircuitOp(kind, modes, params)], n_modes=len(modes))
    with pytest.raises(q.ValidationError) as info:
        q.simulate_fock(circuit, q.FockConfig(cutoff=20))
    assert str(info.value) == f"{message} at op 0 ({kind})"


#: Inputs far outside an oracle envelope, each with that envelope's
#: constant, its cutoff, the monitored field (0 mean, 1 variance) and its
#: refusal: the truncated generator revives there, so a run passes the
#: tail and norm checks and returns a wrong number.
REVIVALS = {
    "displacement": (CircuitOp("displace", (0,), (8.757, 0.0)), "MAX_ORACLE_ALPHA", 20, 0,
                     "oracle restricted to |alpha| <= 2.0"),
    "squeezing": (CircuitOp("single_mode_squeezer", (0,), (273.45, 0.0)), "MAX_ORACLE_GAIN", 24, 1,
                  "oracle restricted to gains <= 1.6, got 273.45"),
}


@pytest.mark.parametrize("case", REVIVALS)
def test_an_envelope_refuses_what_the_tail_check_would_pass_wrongly(monkeypatch, case):
    op, envelope, cutoff, field, message = REVIVALS[case]
    circuit, config = tiny_circuit([op]), q.FockConfig(cutoff=cutoff)
    with pytest.raises(q.ValidationError) as info:
        q.simulate_fock(circuit, config)
    assert str(info.value) == f"{message} at op 0 ({op.kind.name})"
    exact = q.monitor_stats(circuit)["x"][field]  # <X> = 17.514, Var X = 3.0e5
    monkeypatch.setattr(elements, envelope, math.inf)
    # no refusal, and a number off by most of its size (<X> = -0.488, Var X = 2.2)
    got = q.simulate_fock(circuit, config)["x"][field]
    assert abs(got - exact) > 0.9 * abs(exact)


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


@pytest.mark.parametrize("cutoff", [24.0, 24.5, np.float64(24.0), "24", True, np.True_])
def test_fock_config_refuses_a_cutoff_that_is_not_an_integer(cutoff):
    with pytest.raises(q.ValidationError, match="^cutoff must be an integer, got "):
        q.FockConfig(cutoff=cutoff)


def test_fock_config_accepts_a_numpy_integer_cutoff():
    config = q.FockConfig(cutoff=np.int64(24))
    assert config == q.FockConfig(cutoff=24)
    assert type(config.cutoff) is int
    circuit = tiny_circuit([CircuitOp("displace", (0,), (1.0, 0.0))])
    assert q.simulate_fock(circuit, q.FockConfig(cutoff=np.int32(20)))["x"][0] == pytest.approx(2.0, abs=1e-6)


def laid_out(psi, order):
    """A copy of ``psi`` whose axes lie in memory in ``order``, major first."""
    return np.ascontiguousarray(psi.transpose(order)).transpose(np.argsort(order))


@pytest.mark.parametrize("order", list(itertools.permutations(range(3))))
def test_tail_check_names_the_mode_in_every_memory_layout(order):
    d, threshold = 8, 1e-6
    run = _FockRun(tiny_circuit([], n_modes=3), q.FockConfig(cutoff=d, tail_threshold=threshold))
    rng = np.random.default_rng(3)
    fast, slow = 0.05 ** np.arange(d), 0.5 ** np.arange(d)
    for mode in range(3):
        # every mode's top two levels hold ~1e-17 but ``mode``'s ~1e-4
        weights = [slow if m == mode else fast for m in range(3)]
        psi = rng.normal(size=(d,) * 3) + 1j * rng.normal(size=(d,) * 3)
        psi *= np.einsum("i,j,k->ijk", *weights)
        run.psi = laid_out(psi / np.linalg.norm(psi), order)
        assert run.psi.strides == tuple(16 * d ** (2 - int(p)) for p in np.argsort(order))
        top = np.moveaxis(run.psi, mode, 0)[-2:]
        want = np.vdot(top, top).real
        with pytest.raises(q.TruncationError, match=rf"in the top two levels of mode {mode} ") as err:
            run._check_state(range(run.psi.ndim))
        assert err.value.margins[1:] == (mode, threshold)
        assert err.value.tail_mass == pytest.approx(want, rel=1e-15, abs=0.0)
        assert want > threshold


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


#: Hand-built circuits the oracle refuses before it allocates its buffers,
#: and the refusal that names the op or the monitor.
MALFORMED = {
    "op mode out of range": (
        [CircuitOp("displace", (3,), (0.5, 0.0))], XY,
        r"^mode 3 out of range for 2 modes at op 0 \(displace\)$"),
    "repeated op mode": (
        [CircuitOp("beam_splitter", (0, 0), (0.5,))], XY,
        r"^mode indices must be distinct, got \(0, 0\) at op 0 \(beam_splitter\)$"),
    "two-mode kind on one mode": (
        [CircuitOp("displace", (0,), (0.5, 0.0)), CircuitOp("beam_splitter", (0,), (0.5,))], XY,
        r"^the element acts on 2 modes but 1 were selected at op 1 \(beam_splitter\)$"),
    "monitor mode out of range": (
        [CircuitOp("displace", (0,), (0.5, 0.0))], [Monitor("far", 2, 0.0)],
        r"^monitor 'far': mode 2 out of range for 2 modes$"),
    "no monitors": (
        [CircuitOp("displace", (0,), (0.5, 0.0))], [],
        r"^the circuit has no monitors$"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_circuit_is_refused_before_any_buffer(case, monkeypatch):
    ops, monitors, message = MALFORMED[case]
    circuit = tiny_circuit(ops, 2, monitors)

    def no_buffers(size):
        raise AssertionError("a work buffer was allocated")

    monkeypatch.setattr(fock, "_Workspace", no_buffers)
    with pytest.raises(q.ValidationError, match=message):
        q.simulate_fock(circuit, q.FockConfig(cutoff=8))
    # compare_with_gaussian refuses too: the Gaussian side first, in its own words, where it can
    with pytest.raises(q.ValidationError):
        q.compare_with_gaussian(circuit, q.FockConfig(cutoff=8))


def in_circuit_order(circuit, config):
    """The oracle without its schedule: every op in circuit order, each
    followed by a check of every axis; the monitors as a run reads them."""
    run = _FockRun(circuit, config)
    for index, op in enumerate(circuit.ops):
        try:
            run._apply_op(op)
            run._check_state(range(run.psi.ndim))
        except (q.ValidationError, q.NumericalError) as exc:
            raise annotate(exc, f"at op {index} ({op.kind.name})")
    stats = {}
    for mon in circuit.monitors:
        mean, second = _moments(_reduced_diagonals(run.psi, mon.mode, run.work), mon.angle)
        stats[mon.label] = (mean, second - mean * mean)
    return stats


def outcome(simulate, circuit, config):
    try:
        return simulate(circuit, config)
    except (q.NumericalError, q.ValidationError) as exc:
        return type(exc), str(exc)


#: Parameters inside each kind's oracle envelope; one phase in twenty is NaN.
PARAMS = {
    "beam_splitter": st.tuples(st.floats(0.0, 1.0)),
    "phase_shifter": st.tuples(st.integers(0, 19).flatmap(
        lambda k: st.floats(-4.0, 4.0) if k else st.just(math.nan))),
    "loss_channel": st.tuples(st.floats(0.05, 1.0)),
    "two_mode_squeezer": st.tuples(st.floats(1.0, 1.05), st.floats(-4.0, 4.0)),
    "single_mode_squeezer": st.tuples(st.floats(1.0, 1.05), st.floats(-4.0, 4.0)),
    "displace": st.tuples(st.floats(-0.7, 0.7), st.floats(-0.7, 0.7)),
}


def photon_roots(roots, op):
    """Bounds on sqrt(<n>) = |a psi| of each mode after ``op``, from
    ``roots``, those before it.  A displacement adds at most |alpha|, a
    splitter mixes two of them as a rotation does, and a squeezer of gain
    G = cosh r gives at most G |a psi| + sinh r |b† psi|, where b is the
    partner mode's operator (the mode's own for a single-mode squeezer)
    and |b† psi| = sqrt(<n_b> + 1).  A phase or a loss raises none."""
    roots, modes = list(roots), op.modes
    if op.kind.name == "displace":
        roots[modes[0]] += math.hypot(*op.params)
    elif op.kind.name == "beam_splitter":
        roots[modes[0]] = roots[modes[1]] = math.hypot(*(roots[m] for m in modes))
    elif op.kind.name.endswith("squeezer"):
        G, g = op.params[0], math.sqrt(op.params[0] ** 2 - 1.0)
        raised = [G * roots[m] + g * math.hypot(roots[b], 1.0) for m, b in zip(modes, modes[::-1])]
        for m, root in zip(modes, raised):
            roots[m] = root
    return roots


def poisson_cutoff(photons, threshold):
    """The fewest levels whose top two hold at most ``threshold`` of a
    Poisson distribution of mean ``photons``: a coherent state's cutoff."""
    levels, tail, term = 2, 1.0, math.exp(-photons)
    while tail > threshold:
        tail -= term
        term *= photons / (levels - 1)
        levels += 1
    return levels


@st.composite
def oracle_cases(draw):
    """(circuit, config): a random circuit in which no mode holds more than
    one photon on average, by the bound of :func:`photon_roots`; a tail
    threshold from 1e-6 to 1e-3; and the Poisson cutoff of the bound at
    that threshold, or one level more.  Most draws give statistics; a
    squeezed state's heavier tail and a NaN phase keep refusals drawn."""
    n_modes = draw(st.integers(2, 3))
    # light in the first modes, so that a phase applied out of turn shows
    ops = [CircuitOp("displace", (m,), draw(PARAMS["displace"]))
           for m in range(draw(st.integers(1, n_modes)))]
    roots = [math.hypot(*op.params) for op in ops] + [0.0] * (n_modes - len(ops))
    losses = 0
    for _ in range(draw(st.integers(1, 7))):
        # phase shifters weighted up: the schedule moves them
        name = draw(st.sampled_from(sorted(ELEMENT_KINDS) + ["phase_shifter"] * 3))
        kind = ELEMENT_KINDS[name]
        if kind.ancilla and losses == 2:
            continue
        modes = draw(st.permutations(range(n_modes)))[: kind.n_modes]
        op = CircuitOp(name, tuple(modes), draw(PARAMS[name]))
        raised = photon_roots(roots, op)
        if max(raised) > 1.0:
            continue
        losses += kind.ancilla
        roots = raised  # no op lowers a bound, so the last ones are the largest
        ops.append(op)
    angle = draw(st.floats(0.5, 2.5))
    monitors = [Monitor(f"{label}{m}", m, a) for m in range(n_modes)
                for label, a in (("x", 0.0), ("a", angle))]
    threshold = 10.0 ** draw(st.floats(-6.0, -3.0))
    need = max(5, poisson_cutoff(max(roots) ** 2, threshold))
    # a squeezed state's tail is heavier than a coherent one's: a level more per squeezer
    need += sum(op.kind.name.endswith("squeezer") for op in ops)
    config = q.FockConfig(cutoff=draw(st.integers(need, need + 1)), tail_threshold=threshold)
    return CompiledCircuit(n_modes, tuple(ops), tuple(monitors)), config


#: A splitter that sends two coherent fields into its second mode, the
#: higher-numbered one: the tail check must read both of an op's modes.
BRIGHT_SECOND_MODE = tiny_circuit(
    [CircuitOp("displace", (0,), (1.0, 0.0)), CircuitOp("displace", (1,), (1.0, 0.0)),
     CircuitOp("beam_splitter", (1, 0), (0.5,))], 2, XY)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(oracle_cases())
@example((BRIGHT_SECOND_MODE, q.FockConfig(cutoff=8, tail_threshold=1e-3)))
def test_schedule_and_narrow_checks_change_nothing_but_rounding(case):
    # phase shifters applied early and checks of only the changed modes
    # give the stats of the circuit-order run, or its refusal word for word
    circuit, config = case
    want = outcome(in_circuit_order, circuit, config)
    got = outcome(q.simulate_fock, circuit, config)
    if isinstance(want, tuple):
        assert got == want
        return
    assert isinstance(got, dict) and got.keys() == want.keys()
    for label, (mean, var) in want.items():
        assert abs(got[label][0] - mean) <= 1e-12
        assert abs(got[label][1] - var) <= 1e-12


#: A loss on a mode in vacuum, after ops that leave light in the other mode:
#: its ancilla holds no photon, so only levels 0-2 are kept.
LOSS_ON_VACUUM = tiny_circuit(
    [CircuitOp("displace", (0,), (0.6, 0.0)), CircuitOp("loss_channel", (1,), (0.5,)),
     CircuitOp("beam_splitter", (0, 1), (0.5,))], 2, XY)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(oracle_cases())
@example((LOSS_ON_VACUUM, q.FockConfig(cutoff=12, tail_threshold=1e-6)))
@example((BRIGHT_SECOND_MODE, q.FockConfig(cutoff=8, tail_threshold=1e-3)))
def test_dropped_ancilla_levels_change_nothing_but_rounding(case):
    # an ancilla bounded at zero keeps every level that holds any probability
    circuit, config = case
    got = outcome(q.simulate_fock, circuit, config)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fock, "ANCILLA_TAIL", 0.0)
        want = outcome(q.simulate_fock, circuit, config)
    if isinstance(want, tuple):
        assert got == want
        return
    assert isinstance(got, dict) and got.keys() == want.keys()
    for label, (mean, var) in want.items():
        assert abs(got[label][0] - mean) <= 1e-12
        assert abs(got[label][1] - var) <= 1e-12


def test_most_oracle_cases_give_statistics():
    # the two properties above compare numbers only where a run gives
    # statistics; a refusal they compare only word for word
    outcomes = []

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(oracle_cases())
    def run(case):
        outcomes.append(isinstance(outcome(q.simulate_fock, *case), dict))

    run()
    assert 3 * len(outcomes) <= 4 * sum(outcomes) < 4 * len(outcomes)


def kept_levels(monkeypatch):
    """The number of levels each loss's ancilla keeps, in run order."""
    kept, levels = [], fock._ancilla_levels

    def recording(*args):
        kept.append(levels(*args))
        return kept[-1]

    monkeypatch.setattr(fock, "_ancilla_levels", recording)
    return kept


def test_a_loss_on_vacuum_keeps_three_levels(monkeypatch):
    kept = kept_levels(monkeypatch)
    stats = q.simulate_fock(LOSS_ON_VACUUM, q.FockConfig(cutoff=12))
    # level 0 holds all the probability, and the top two kept levels must be empty
    assert kept == [3]
    assert stats["x"] == pytest.approx((0.6 * 2 * math.sqrt(0.5), 1.0), abs=1e-9)  # truncation at 12


@pytest.mark.parametrize("populations", [
    [math.nan] + [0.0] * 7, [1.0, math.nan] + [0.0] * 6, [1.0] + [0.0] * 6 + [math.inf]])
def test_mass_that_is_not_finite_keeps_every_level(populations):
    columns = [block[:, -1] for rows, block in elements.splitter_unitary(0.5, 8).blocks
               if rows[-1] % 8 == 0]
    assert fock._ancilla_levels(np.array(populations), columns, fock.ANCILLA_TAIL) == 8


def test_a_nan_loss_is_refused_before_any_ancilla_level_is_kept(monkeypatch):
    kept = kept_levels(monkeypatch)
    circuit = tiny_circuit([CircuitOp("displace", (0,), (0.5, 0.0)),
                            CircuitOp("loss_channel", (0,), (math.nan,))])
    with pytest.raises(q.ValidationError) as err:
        q.simulate_fock(circuit, q.FockConfig(cutoff=8))
    assert str(err.value) == "transmission must lie in (0, 1], got nan at op 1 (loss_channel)"
    assert kept == []
