"""Grid-spec (batched) evaluation against a per-point reference, and the
checks that name where a batched evaluation failed."""

import math
from dataclasses import replace
from itertools import product
from pathlib import Path

import numpy as np
import pytest

import qdmsim as q
from qdmsim.cli import main
from qdmsim.scenario import SWEEPABLE, SweepAxis, apply_axis_value, check_axes, load_scenario

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
J = np.array([[0.0, -1.0], [1.0, 0.0]])

# ---------------------------------------------------------------------------
# per-point reference: full-register embed-and-multiply over the public maps
# ---------------------------------------------------------------------------


def reference_map(op):
    p = op.params
    return {
        "beam_splitter": lambda: q.beam_splitter(q.SplitterSpec(p[0])),
        "phase_shifter": lambda: q.phase_shifter(p[0]),
        "loss_channel": lambda: q.loss_channel(p[0]),
        "two_mode_squeezer": lambda: q.two_mode_squeezer(q.PaGain(p[0], p[1])),
        "single_mode_squeezer": lambda: q.single_mode_squeezer(q.PaGain(p[0], p[1])),
        "displace": lambda: q.displacement_map(complex(p[0], p[1])),
    }[op.kind.name]()


def reference_readings(spec):
    """Mean, variance and (delta, epsilon) slopes of every monitor at zero
    modulation, one op at a time on the full register."""
    circuit = q.build_circuit(replace(spec, delta=0.0, epsilon=0.0))
    dim = 2 * circuit.n_modes
    mean, cov, tangent = np.zeros(dim), np.eye(dim), np.zeros((dim, 2))
    for op in circuit.ops:
        gmap = reference_map(op)
        idx = np.array([2 * m + k for m in op.modes for k in (0, 1)])
        linear = np.eye(dim)
        linear[np.ix_(idx, idx)] = gmap.linear
        noise = np.zeros((dim, dim))
        noise[np.ix_(idx, idx)] = gmap.noise
        disp = np.zeros(dim)
        disp[idx] = gmap.displacement
        mean = linear @ mean + disp
        cov = linear @ cov @ linear.T + noise
        tangent = linear @ tangent
        if op.carrier is not None:
            # the modulation e^{i delta - eps} on a field v adds (J v, -v)
            if op.carrier == q.circuits.OWN_FIELD:
                field = mean[idx]
            else:
                field = np.array([2 * op.carrier.real, 2 * op.carrier.imag])
            tangent[idx] += np.column_stack((J @ field, -field))
    readings = {}
    for mon in circuit.monitors:
        d = np.array([math.cos(mon.angle), math.sin(mon.angle)])
        sl = slice(2 * mon.mode, 2 * mon.mode + 2)
        slopes = d @ tangent[sl]
        readings[mon.label] = (d @ mean[sl], d @ cov[sl, sl] @ d, slopes[0], slopes[1])
    return readings


def assert_matches_reference(grid_spec, specs):
    got = q.operating_point(grid_spec)
    want = [reference_readings(spec) for spec in specs]
    for label in want[0]:
        for field in range(4):
            ref = np.array([w[label][field] for w in want])
            val = np.broadcast_to(got[label][field], ref.shape)
            # relative to the field's scale over the grid: slopes and means vanish at some points
            scale = max(np.max(np.abs(ref)), 1e-300)
            assert np.max(np.abs(val - ref)) <= 1e-12 * scale, (label, field)


def grid(spec, *axes):
    """The grid spec, one column per axis, and its per-point specs in row order."""
    values = list(product(*(axis.values() for axis in axes)))
    grid_spec = spec
    for k, axis in enumerate(axes):
        grid_spec = apply_axis_value(grid_spec, axis.name, np.array([v[k] for v in values]))
    points = []
    for point_values in values:
        point = spec
        for axis, value in zip(axes, point_values):
            point = apply_axis_value(point, axis.name, value)
        points.append(point)
    return grid_spec, points


BASES = {
    "DIRECT_HOMODYNE": lambda mode: q.CircuitSpec(
        q.Topology.DIRECT_HOMODYNE, alpha=complex(30.0, 4.0),
        splitters=(q.SplitterSpec(0.4),), modulation_mode=mode,
    ),
    "MZI": lambda mode: q.CircuitSpec(
        q.Topology.MZI, alpha=200.0, mzi_phi=0.2, modulation_mode=mode,
        splitters=(q.SplitterSpec(0.9), q.SplitterSpec(0.9), q.SplitterSpec(0.3)),
    ),
    "NESTED_SUI": lambda mode: q.CircuitSpec(
        q.Topology.NESTED_SUI, alpha=100.0, splitters=(q.SplitterSpec(0.99),) * 2,
        gains=(q.PaGain(1.4), q.PaGain(2.5)), phi=2.0, modulation_mode=mode,
    ),
    "DEGENERATE_SUI": lambda mode: q.CircuitSpec(
        q.Topology.DEGENERATE_SUI, alpha=100.0, splitters=(q.SplitterSpec(0.99),) * 2,
        gains=(q.PaGain(1.3, 1.0 + math.pi), q.PaGain(3.0, 1.0)), modulation_mode=mode,
    ),
}
#: two axes per topology that change the circuit's parameters, not its structure
AXES = {
    "DIRECT_HOMODYNE": (SweepAxis("T1", 0.1, 0.9, 4), SweepAxis("alpha_im", -5.0, 5.0, 3)),
    "MZI": (SweepAxis("mzi_phi", 0.0, 1.0, 4), SweepAxis("T3", 0.2, 0.8, 3)),
    "NESTED_SUI": (SweepAxis("phi", 0.0, 6.0, 5), SweepAxis("G2", 1.1, 20.0, 3)),
    "DEGENERATE_SUI": (SweepAxis("theta2_dark", 0.0, 3.0, 5), SweepAxis("G1", 1.1, 2.0, 3)),
}
MODES = [q.ModulationMode.LINEARIZED, q.ModulationMode.EXACT]


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("topology", sorted(BASES))
def test_two_axis_grid_matches_reference(topology, mode):
    assert_matches_reference(*grid(BASES[topology](mode), *AXES[topology]))


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("topology", sorted(BASES))
def test_mixed_structure_sweep_matches_reference(topology, mode):
    # detection_loss reaching 1.0: the grid keeps the loss ops, the reference drops them there
    grid_spec, specs = grid(
        BASES[topology](mode), SweepAxis("detection_loss", 0.5, 1.0, 3), AXES[topology][0]
    )
    assert not any(op.kind.name == "loss_channel" for op in q.build_circuit(specs[-1]).ops)
    assert_matches_reference(grid_spec, specs)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("topology", ["NESTED_SUI", "DEGENERATE_SUI"])
def test_amplifier_phase_axes_match_reference(topology, mode):
    axes = (SweepAxis("theta1", 0.5, 3.5, 4), SweepAxis("theta2", -1.0, 2.0, 3))
    assert_matches_reference(*grid(BASES[topology](mode), *axes))


@pytest.mark.parametrize("topology", ["NESTED_SUI", "DEGENERATE_SUI"])
def test_linearized_sui_grid_spec_takes_one_splitter_column(topology):
    # T1 = T2 as one array: the linearized encoding reads sqrt(R) per grid point
    base = BASES[topology](q.ModulationMode.LINEARIZED)
    T = np.array([0.9, 0.99, 0.999])
    grid_spec = replace(base, splitters=(q.SplitterSpec(T), q.SplitterSpec(T)))
    specs = [replace(base, splitters=(q.SplitterSpec(float(t)),) * 2) for t in T]
    assert_matches_reference(grid_spec, specs)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("topology", sorted(BASES))
def test_batched_carrier_matches_reference(topology, mode):
    # at dark fringe, with an array carrier: the linearized modulation
    # displacement is zero at every point, yet no identity
    base = replace(BASES[topology](mode), mzi_phi=0.0)
    assert_matches_reference(*grid(base, SweepAxis("alpha_re", -40.0, 90.0, 4)))


def _with_mzi_input(circuit, alpha):
    """``circuit`` with the elided Mach-Zehnder's coherent input displaced
    first, on one extra mode that no other op or monitor touches."""
    n = circuit.n_modes
    displace = q.circuits.CircuitOp("displace", (n,), (np.real(alpha), np.imag(alpha)))
    return replace(circuit, n_modes=n + 1, ops=(displace, *circuit.ops))


@pytest.mark.parametrize("shape", ["scalar", "grid"])
@pytest.mark.parametrize("topology, n_modes", [("NESTED_SUI", 2), ("DEGENERATE_SUI", 1)])
def test_linearized_amplifier_leaves_out_only_a_spectator_mode(topology, n_modes, shape):
    spec = replace(BASES[topology](q.ModulationMode.LINEARIZED), delta=1e-3, epsilon=2e-3)
    if shape == "grid":  # the spectator's displacement then varies over the grid too
        spec, _ = grid(spec, SweepAxis("alpha_re", 50.0, 150.0, 3), AXES[topology][0])
    circuit = q.build_circuit(spec)
    assert circuit.n_modes == n_modes
    got = q.monitor_stats(circuit)
    want = q.monitor_stats(_with_mzi_input(circuit, spec.alpha))
    for label, reading in want.items():
        for field, value in enumerate(reading):
            assert np.array_equal(got[label][field], value), (label, field)


def test_exact_amplifiers_keep_the_mzi_input_mode():
    nested = q.build_circuit(replace(BASES["NESTED_SUI"](q.ModulationMode.EXACT), epsilon=1e-3))
    assert nested.n_modes == 3
    assert [(op.kind.name, op.modes) for op in nested.ops] == [
        ("displace", (2,)), ("two_mode_squeezer", (0, 1)), ("beam_splitter", (2, 1)),
        ("phase_shifter", (1,)), ("loss_channel", (1,)), ("beam_splitter", (1, 2)),
        ("phase_shifter", (0,)), ("two_mode_squeezer", (0, 1)),
    ]
    degenerate = q.build_circuit(
        replace(BASES["DEGENERATE_SUI"](q.ModulationMode.EXACT), epsilon=1e-3))
    assert degenerate.n_modes == 2
    assert [(op.kind.name, op.modes) for op in degenerate.ops] == [
        ("displace", (1,)), ("single_mode_squeezer", (0,)), ("beam_splitter", (1, 0)),
        ("phase_shifter", (0,)), ("loss_channel", (0,)), ("beam_splitter", (0, 1)),
        ("single_mode_squeezer", (0,)),
    ]
    assert degenerate.stage_bounds == (
        ("input", 1), ("after_first_amplifier", 2), ("after_encoding", 6), ("output", 7))
    linearized = q.build_circuit(BASES["DEGENERATE_SUI"](q.ModulationMode.LINEARIZED))
    assert linearized.stage_bounds == (
        ("input", 0), ("after_first_amplifier", 1), ("after_encoding", 2), ("output", 3))


def apply_map_chain(circuit):
    """The evaluation as a chain of public ``apply_map`` calls from the
    vacuum, each state certified: an identity op as ``identity_map``, the
    modulation's (J v, -v) as the carrier's source."""
    dim = 2 * circuit.n_modes
    state = q.GaussianState(np.zeros(dim), np.eye(dim), np.zeros((dim, 2)))
    for op in circuit.ops:
        identity = op.kind.is_identity(op.params) and not isinstance(op.carrier, np.ndarray)
        gmap = q.identity_map(len(op.modes)) if identity else op.kind.gaussian_map(*op.params)
        source = None
        if op.carrier is not None:
            if isinstance(op.carrier, str):  # the mode's own mean after the op
                m = op.modes[0]
                field = q.apply_map(state, gmap, op.modes).mean[..., 2 * m : 2 * m + 2]
            else:
                carrier = np.asarray(op.carrier, dtype=complex)
                field = np.stack((2.0 * carrier.real, 2.0 * carrier.imag), axis=-1)
            source = np.stack((np.stack((-field[..., 1], field[..., 0]), axis=-1), -field), axis=-1)
        state = q.apply_map(state, gmap, op.modes, source)
    return state


def assert_same_bits_as_apply_map_chain(spec):
    # at the spec's depths and at the operating point, where the modulators are identities
    for point in (spec, replace(spec, delta=0.0, epsilon=0.0)):
        circuit = q.build_circuit(point)
        got, want = q.evaluate_circuit(circuit), apply_map_chain(circuit)
        for field in ("mean", "cov", "tangent"):
            assert np.array_equal(getattr(got, field), getattr(want, field)), field


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("topology", sorted(BASES))
def test_two_axis_grid_evaluates_as_an_apply_map_chain(topology, mode):
    assert_same_bits_as_apply_map_chain(grid(BASES[topology](mode), *AXES[topology])[0])


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", sorted(p.name for p in SCENARIOS.glob("*.json")))
def test_shipped_scenario_evaluates_as_an_apply_map_chain(name, mode):
    spec, options = load_scenario(SCENARIOS / name)
    spec = replace(spec, modulation_mode=mode)
    assert_same_bits_as_apply_map_chain(grid(spec, *options.axes)[0] if options.axes else spec)


@pytest.mark.parametrize("name", sorted(p.name for p in SCENARIOS.glob("*.json")))
def test_shipped_scenarios_match_reference(name):
    spec, options = load_scenario(SCENARIOS / name)
    assert_matches_reference(*(grid(spec, *options.axes) if options.axes else (spec, [spec])))


def test_grid_point_reads_as_its_own_operating_point():
    grid_spec, specs = grid(BASES["NESTED_SUI"](q.ModulationMode.EXACT), *AXES["NESTED_SUI"])
    readings = q.operating_point(grid_spec)
    for k, spec in enumerate(specs):
        assert {label: tuple(float(v[k]) for v in reading) for label, reading in readings.items()} \
            == {label: tuple(reading) for label, reading in q.operating_point(spec).items()}


@pytest.mark.parametrize("base, axis", [
    (BASES["NESTED_SUI"](q.ModulationMode.LINEARIZED), SweepAxis("phi", 0.0, 6.0, 5)),
    (BASES["DEGENERATE_SUI"](q.ModulationMode.EXACT), SweepAxis("theta2_dark", 0.0, 3.0, 5)),
])
def test_unit_transmission_is_an_exact_identity(base, axis):
    # the lossless points of a grid that keeps its loss ops read exactly as
    # circuits without them
    lossless, specs = grid(base, axis)
    lossy = replace(lossless, detection_loss=np.array([0.5] + [1.0] * 4))
    kinds = [[op.kind.name for op in q.build_circuit(s).ops] for s in (lossless, lossy)]
    assert "loss_channel" not in kinds[0] and "loss_channel" in kinds[1]
    want, got = q.operating_point(lossless), q.operating_point(lossy)
    for label in want:
        for field in range(4):
            assert np.array_equal(got[label][field][1:], want[label][field][1:])


def test_grid_circuit_shares_what_does_not_vary():
    grid_spec, _ = grid(BASES["NESTED_SUI"](q.ModulationMode.LINEARIZED), AXES["NESTED_SUI"][0])
    circuit = q.build_circuit(grid_spec)
    varying = [op.kind.name for op in circuit.ops if any(np.ndim(p) for p in op.params)]
    assert varying == ["phase_shifter"]
    assert q.evaluate_circuit(circuit).batch_shape == (5,)


# ---------------------------------------------------------------------------
# stacked checks name the failing slice
# ---------------------------------------------------------------------------


def test_stacked_map_names_its_bad_slice():
    linear = np.stack([q.phase_shifter(phi).linear for phi in np.linspace(0, 3, 5)])
    linear[3] *= 1.5  # lossless but not symplectic
    with pytest.raises(q.ValidationError) as info:
        q.GaussianMap(linear, np.zeros((2, 2)), np.zeros(2))
    # its validity matrix i (1 - 1.5^2) Omega has eigenvalues +-(1.5^2 - 1)
    assert str(info.value) == ("invalid Gaussian channel: min eig of validity matrix is "
                               f"{1 - 1.5**2:.3e} at batch index 3")
    assert info.value.batch_index == 3


def test_stacked_state_names_its_bad_slice():
    cov = np.stack([np.eye(2)] * 4)
    cov[2] *= 0.5  # below the vacuum: violates the uncertainty relation
    with pytest.raises(q.ConsistencyError, match="at batch index 2"):
        q.GaussianState(np.zeros((4, 2)), cov)


def test_stacked_state_matches_unstacked_application():
    rng = np.random.default_rng(5)
    phis = rng.uniform(0, 2 * math.pi, 6)
    base = q.apply_map(q.vacuum_state(2), q.two_mode_squeezer(q.PaGain(1.7, 0.4)), (0, 1))
    base = q.displace(base, 1, 2.0 - 1.0j)
    stacked = q.apply_map(base, q.phase_shifter(phis), (1,))
    assert stacked.batch_shape == (6,)
    for k, phi in enumerate(phis):
        single = q.apply_map(base, q.phase_shifter(phi), (1,))
        assert np.array_equal(stacked.mean[k], single.mean)
        assert np.array_equal(stacked.cov[k], single.cov)
        mean, var = q.quadrature_stats(stacked, 1, 0.3)
        assert (mean[k], var[k]) == q.quadrature_stats(single, 1, 0.3)


def test_evaluation_names_op_and_sweep_point(tmp_path, capsys, monkeypatch):
    # a corrupt phase shifter at one grid point: the failure must say which
    from qdmsim import circuits

    real = circuits.phase_shifter

    def corrupt(phi):
        gmap = real(phi)
        scale = np.where(np.asarray(phi) == 2.0, 1.5, 1.0)[..., None, None]
        return q.GaussianMap(scale * gmap.linear, gmap.noise, gmap.displacement)

    monkeypatch.setattr(circuits, "phase_shifter", corrupt)
    path = tmp_path / "nested.json"
    path.write_text(
        '{"topology": "NESTED_SUI", "alpha": 100.0, "splitters": [0.99, 0.99],'
        ' "gains": [{"G": 1.5}, {"G": 1.5}], "delta": 0.001}'
    )
    assert main(["sweep", str(path), "--axis", "phi=0:3:4"]) == 3
    err = capsys.readouterr().err
    assert "invalid Gaussian channel" in err
    assert "at batch index 2" in err
    assert "at op 2 (phase_shifter)" in err
    assert "(sweep point phi=2)" in err


@pytest.mark.parametrize("axis, message, point", [
    # an element check: the second amplifier's gain below 1
    ("G2=0.5:2:4", "amplifier gain must be >= 1, got 0.5 at batch index 0", "G2=0.5"),
    # a spec check: a LINEARIZED depth past the linear limit
    ("delta=0:0.2:5", "linearized mode requires |delta|, |epsilon| < 0.1, got delta=0.1", "delta=0.1"),
])
def test_failing_check_names_its_sweep_point(capsys, axis, message, point):
    scenario = str(SCENARIOS / "nested_sui_phase_sweep.json")
    assert main(["sweep", scenario, "--axis", axis, "--axis", "phi=0:1:2"]) == 3
    err = capsys.readouterr().err
    assert message in err
    assert f"(sweep point {point}, phi=0)" in err


def test_report_check_names_its_sweep_point(tmp_path, capsys):
    # an EXACT spec takes any depth; its report refuses one past the guard
    path = tmp_path / "dsui.json"
    path.write_text(
        '{"topology": "DEGENERATE_SUI", "alpha": 10.0, "splitters": [0.99, 0.99],'
        ' "gains": [{"G": 1.5, "phase": 3.141592653589793}, {"G": 1.5}],'
        ' "modulation_mode": "EXACT"}'
    )
    assert main(["sweep", str(path), "--axis", "epsilon=0:0.2:5"]) == 3
    err = capsys.readouterr().err
    assert "modulation epsilon = 0.1 outside the linear regime guard" in err
    assert "at batch index 2 (sweep point epsilon=0.1)" in err


# ---------------------------------------------------------------------------
# what each axis sets
# ---------------------------------------------------------------------------

#: a spec with every value an axis can set, each distinct from the axis value
FULL_SPEC = q.CircuitSpec(
    q.Topology.NESTED_SUI, alpha=complex(3.0, 4.0), phi=0.1, mzi_phi=0.2, delta=0.01,
    epsilon=0.02, detection_loss=0.9, modulation_mode=q.ModulationMode.EXACT,
    splitters=(q.SplitterSpec(0.1), q.SplitterSpec(0.2)),
    gains=(q.PaGain(1.1, 0.4), q.PaGain(1.2, 0.5)),
)
#: the one topology with a third splitter, for T3
FULL_MZI = replace(FULL_SPEC, topology=q.Topology.MZI, phi=math.pi, gains=(),
                   splitters=(q.SplitterSpec(0.1), q.SplitterSpec(0.2), q.SplitterSpec(0.3)))
_S, _G = q.SplitterSpec, q.PaGain
#: axis -> (value, the spec fields that value sets, written out by hand)
AXIS_SETS = {
    "phi": (0.07, {"phi": 0.07}),
    "mzi_phi": (0.07, {"mzi_phi": 0.07}),
    "delta": (0.07, {"delta": 0.07}),
    "epsilon": (0.07, {"epsilon": 0.07}),
    "detection_loss": (0.07, {"detection_loss": 0.07}),
    "alpha_re": (0.07, {"alpha": complex(0.07, 4.0)}),
    "alpha_im": (0.07, {"alpha": complex(3.0, 0.07)}),
    "T1": (0.07, {"splitters": (_S(0.07), _S(0.2))}),
    "T2": (0.07, {"splitters": (_S(0.1), _S(0.07))}),
    "T3": (0.07, {"splitters": (_S(0.1), _S(0.2), _S(0.07))}),
    "G1": (1.7, {"gains": (_G(1.7, 0.4), _G(1.2, 0.5))}),
    "G2": (1.7, {"gains": (_G(1.1, 0.4), _G(1.7, 0.5))}),
    "theta1": (0.07, {"gains": (_G(1.1, 0.07), _G(1.2, 0.5))}),
    "theta2": (0.07, {"gains": (_G(1.1, 0.4), _G(1.2, 0.07))}),
    "theta2_dark": (0.07, {"gains": (_G(1.1, 0.07 + math.pi), _G(1.2, 0.07))}),
}


def test_axis_table_covers_every_sweepable_name():
    assert tuple(AXIS_SETS) == SWEEPABLE


@pytest.mark.parametrize("name", AXIS_SETS)
def test_axis_sets_exactly_its_value(name):
    value, fields = AXIS_SETS[name]
    spec = FULL_MZI if name == "T3" else FULL_SPEC
    assert apply_axis_value(spec, name, value) == replace(spec, **fields)


# ---------------------------------------------------------------------------
# axes rejected at load time
# ---------------------------------------------------------------------------


def test_unknown_axis_rejected_by_the_library():
    with pytest.raises(q.ValidationError, match="^axis 'gamma' is not sweepable$"):
        apply_axis_value(BASES["MZI"](q.ModulationMode.LINEARIZED), "gamma", 1.0)


@pytest.mark.parametrize("axis", ["T1", "T2"])
def test_lone_splitter_axis_rejected_on_flag(axis, capsys):
    scenario = str(SCENARIOS / "nested_sui_phase_sweep.json")
    assert main(["sweep", scenario, "--axis", f"{axis}=0.99:0.999:3"]) == 3
    err = capsys.readouterr().err
    assert f"axis '{axis}'" in err
    assert "identical splitters" in err


@pytest.mark.parametrize("axis", ["T1", "T2"])
def test_lone_splitter_axis_rejected_in_scenario(axis, tmp_path, capsys):
    path = tmp_path / "dsui.json"
    path.write_text(
        '{"topology": "DEGENERATE_SUI", "alpha": 10.0, "splitters": [0.99, 0.99],'
        ' "gains": [{"G": 1.5, "phase": 3.141592653589793}, {"G": 1.5}],'
        f' "sweep": {{"axes": [{{"name": "{axis}", "start": 0.9, "stop": 0.99, "count": 3}}]}}}}'
    )
    with pytest.raises(q.ValidationError, match="identical splitters"):
        load_scenario(path)
    assert main(["sweep", str(path)]) == 3
    assert f"axis '{axis}'" in capsys.readouterr().err


def test_splitter_axis_still_sweeps_where_splitters_may_differ(capsys):
    # EXACT keeps the full interferometer, so T1 != T2 is a valid circuit there
    path = str(SCENARIOS / "dsui_validate.json")
    assert main(["sweep", path, "--axis", "T1=0.9:0.99:3"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 4


SUI_SCENARIOS = {
    "NESTED_SUI": '{"topology": "NESTED_SUI", "alpha": 10.0, "splitters": [0.99, 0.99],'
                  ' "gains": [{"G": 1.5}, {"G": 1.5}]',
    "DEGENERATE_SUI": '{"topology": "DEGENERATE_SUI", "alpha": 10.0, "splitters": [0.99, 0.99],'
                      ' "gains": [{"G": 1.5, "phase": 3.141592653589793}, {"G": 1.5}]',
}


@pytest.mark.parametrize("route", ["flag", "scenario"])
@pytest.mark.parametrize("topology", sorted(SUI_SCENARIOS))
def test_mzi_phi_axis_rejected_on_linearized_sui(tmp_path, capsys, topology, route):
    # the linearized encoding assumes the embedded interferometer at dark fringe
    axis = '{"name": "mzi_phi", "start": 0.0, "stop": 1.0, "count": 3}'
    sweep = f', "sweep": {{"axes": [{axis}]}}' if route == "scenario" else ""
    path = tmp_path / "sui.json"
    path.write_text(SUI_SCENARIOS[topology] + sweep + "}")
    argv = ["sweep", str(path)] + (["--axis", "mzi_phi=0:1:3"] if route == "flag" else [])
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert f"axis 'mzi_phi' cannot be swept on a LINEARIZED {topology}" in err
    assert "dark fringe" in err
    assert "sweep point" not in err


def test_mzi_phi_axis_still_sweeps_in_exact_mode(capsys):
    # EXACT keeps the full interferometer, whose phase may leave dark fringe
    path = str(SCENARIOS / "dsui_validate.json")
    assert main(["sweep", path, "--axis", "mzi_phi=0:1:3"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 4


@pytest.mark.parametrize("axis, values, message", [
    ("T1", [0.99, 0.999], "identical splitters, got T1=0.999, T2=0.99 at batch index 1"),
    ("mzi_phi", [0.0, 0.5], "dark fringe, got mzi_phi=0.5 at batch index 1"),
])
def test_linearized_sui_grid_spec_names_its_bad_point(axis, values, message):
    # the library route to what the sweep axes reject at load time
    spec = apply_axis_value(BASES["NESTED_SUI"](q.ModulationMode.LINEARIZED), axis, np.array(values))
    with pytest.raises(q.ValidationError, match=message) as info:
        q.operating_point(spec)
    assert info.value.batch_index == 1


# ---------------------------------------------------------------------------
# every accepted axis moves the report
# ---------------------------------------------------------------------------

#: two values per axis, valid on every base spec that has the axis
TWO_POINTS = {
    "phi": (1.0, 2.5), "mzi_phi": (0.1, 0.4), "delta": (0.001, 0.002),
    "epsilon": (0.001, 0.002), "detection_loss": (0.5, 0.9), "alpha_re": (50.0, 80.0),
    "alpha_im": (5.0, 20.0), "T1": (0.3, 0.6), "T2": (0.3, 0.6), "T3": (0.3, 0.6),
    "G1": (1.2, 1.8), "G2": (1.2, 1.8), "theta1": (0.3, 0.9), "theta2": (0.3, 0.9),
    "theta2_dark": (0.3, 0.9),
}


@pytest.mark.parametrize("name", SWEEPABLE)
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("topology", sorted(BASES))
def test_accepted_axis_moves_a_report_column(topology, mode, name):
    # a sweep whose rows are all equal swept a value its topology does not read
    spec = replace(BASES[topology](mode), delta=0.001, epsilon=0.001)
    column = np.array(TWO_POINTS[name])
    try:
        check_axes(spec, [SweepAxis(name, *TWO_POINTS[name], 2)])
    except q.ValidationError:
        # the library refuses it too: the setter, or the grid's own checks
        with pytest.raises(q.ValidationError):
            q.operating_point(apply_axis_value(spec, name, column))
        return
    grid_spec = apply_axis_value(spec, name, column)
    readings = q.operating_point(grid_spec)
    moved = []
    for label in readings:
        report = q.channel_report(grid_spec, label, readings)
        for value in (report.noise_var, report.snr, report.enhancement):
            first, second = np.broadcast_to(value, (2,))
            moved.append(first != second)
    assert any(moved), f"{name} moves no column of {topology} ({mode.value})"
