import json
import math
import re
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qdmsim as q
from conftest import embed_map
from qdmsim.circuits import ELEMENT_KINDS, OWN_FIELD, CircuitOp, Monitor
from qdmsim.cli import main
from qdmsim.scenario import load_scenario

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def mzi_spec(T=0.99, alpha=100.0, **kw):
    return q.CircuitSpec(
        q.Topology.MZI,
        alpha=alpha,
        splitters=(q.SplitterSpec(T), q.SplitterSpec(T)),
        **kw,
    )


def nested_spec(G1=5 / 3, G2=5 / 3, phi=math.pi, R=1e-4, alpha=1000.0, **kw):
    return q.CircuitSpec(
        q.Topology.NESTED_SUI,
        alpha=alpha,
        splitters=(q.SplitterSpec(1 - R), q.SplitterSpec(1 - R)),
        gains=(q.PaGain(G1), q.PaGain(G2)),
        phi=phi,
        **kw,
    )


def dsui_spec(G1=5 / 3, G2=5 / 4, theta1=math.pi, theta2=0.0, R=1e-4, alpha=1000.0, **kw):
    return q.CircuitSpec(
        q.Topology.DEGENERATE_SUI,
        alpha=alpha,
        splitters=(q.SplitterSpec(1 - R), q.SplitterSpec(1 - R)),
        gains=(q.PaGain(G1, theta1), q.PaGain(G2, theta2)),
        **kw,
    )


# ---------------------------------------------------------------------------
# Mach-Zehnder
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("T", [0.1, 0.3, 0.5, 0.9, 0.99])
@pytest.mark.parametrize("mode", [q.ModulationMode.LINEARIZED, q.ModulationMode.EXACT])
def test_mzi_is_identity_at_dark_fringe(T, mode):
    spec = mzi_spec(T=T, alpha=0.0, modulation_mode=mode)
    circuit = q.build_circuit(spec)
    total = q.identity_map(circuit.n_modes)
    for op in circuit.ops:
        total = q.compose(embed_map(op.kind.gaussian_map(*op.params), op.modes, circuit.n_modes), total)
    assert np.max(np.abs(total.linear - np.eye(2 * circuit.n_modes))) < 1e-10
    assert np.max(np.abs(total.displacement)) < 1e-10


def test_mzi_passthrough_of_coherent_input():
    spec = mzi_spec(T=0.5, alpha=2.0)
    state = q.evaluate_circuit(q.build_circuit(spec))
    assert np.allclose(state.mean, [4.0, 0.0, 0.0, 0.0], atol=1e-12)
    assert np.allclose(state.cov, np.eye(4), atol=1e-12)


def test_mzi_linearized_phase_signal():
    # dark-port mean under phase modulation: (0, -2 alpha delta sqrt(TR))
    spec = mzi_spec(delta=1e-3)
    stats = q.monitor_stats(q.build_circuit(spec))
    expected = 2 * 100.0 * 1e-3 * math.sqrt(0.99 * 0.01)
    assert stats["phase"][0] == pytest.approx(-expected, rel=1e-12)
    assert stats["amplitude"][0] == pytest.approx(0.0, abs=1e-12)
    assert stats["phase"][1] == pytest.approx(1.0, rel=1e-12)


def test_mzi_linearized_amplitude_signal():
    spec = mzi_spec(epsilon=1e-3)
    stats = q.monitor_stats(q.build_circuit(spec))
    expected = 2 * 100.0 * 1e-3 * math.sqrt(0.99 * 0.01)
    assert stats["amplitude"][0] == pytest.approx(expected, rel=1e-12)
    assert stats["phase"][0] == pytest.approx(0.0, abs=1e-12)


def test_mzi_exact_matches_linearization_at_small_depths():
    # relative agreement ~ O(depth) at depth 1e-4
    for field in ("delta", "epsilon"):
        lin = q.monitor_stats(q.build_circuit(mzi_spec(**{field: 1e-4})))
        ex = q.monitor_stats(
            q.build_circuit(mzi_spec(modulation_mode=q.ModulationMode.EXACT, **{field: 1e-4}))
        )
        label = "phase" if field == "delta" else "amplitude"
        assert ex[label][0] == pytest.approx(lin[label][0], rel=1e-3)


def test_mzi_missing_splitters_rejected():
    with pytest.raises(q.ValidationError):
        q.build_circuit(q.CircuitSpec(q.Topology.MZI, alpha=1.0))


def test_mzi_output_splitter_adds_third_monitor_mode():
    spec = q.CircuitSpec(
        q.Topology.MZI,
        alpha=100.0,
        splitters=(q.SplitterSpec(0.99), q.SplitterSpec(0.99), q.SplitterSpec(0.6)),
        delta=1e-3,
        epsilon=1e-3,
    )
    circuit = q.build_circuit(spec)
    assert circuit.n_modes == 3
    stats = q.monitor_stats(circuit)
    base = 2 * 100.0 * 1e-3 * math.sqrt(0.99 * 0.01)
    assert abs(stats["phase"][0]) == pytest.approx(base * math.sqrt(0.6), rel=1e-12)
    assert abs(stats["amplitude"][0]) == pytest.approx(base * math.sqrt(0.4), rel=1e-12)


# ---------------------------------------------------------------------------
# nested amplifier interferometer
# ---------------------------------------------------------------------------


def test_nested_noise_at_dark_fringe_equal_gains():
    stats = q.monitor_stats(q.build_circuit(nested_spec()))
    assert stats["phase"][1] == pytest.approx(1.0, rel=1e-12)
    assert stats["amplitude"][1] == pytest.approx(1.0, rel=1e-12)


def test_nested_noise_at_bright_fringe():
    stats = q.monitor_stats(q.build_circuit(nested_spec(phi=0.0)))
    assert stats["phase"][1] == pytest.approx(3281 / 81, rel=1e-12)
    assert stats["amplitude"][1] == pytest.approx(3281 / 81, rel=1e-12)


def test_nested_with_unit_gains_passes_dark_port_through():
    # identity amplifiers: mode 1 is the bare dark port, with the phase
    # signal in its Y quadrature and unit variance
    spec = nested_spec(G1=1.0, G2=1.0, delta=1e-3)
    stats = q.monitor_stats(q.build_circuit(spec))
    assert stats["phase"][1] == pytest.approx(1.0, rel=1e-12)
    assert stats["amplitude"][1] == pytest.approx(1.0, rel=1e-12)
    state = q.evaluate_circuit(q.build_circuit(spec))
    mean_y, var_y = q.quadrature_stats(state, 1, math.pi / 2)
    expected = 2 * 1000.0 * 1e-3 * math.sqrt(1e-4)
    assert abs(mean_y) == pytest.approx(expected, rel=1e-12)
    assert var_y == pytest.approx(1.0, rel=1e-12)


def test_nested_noise_minimum_at_pi():
    gains = np.linspace(1.0, 2.2, 10)
    phis = np.linspace(0, 2 * math.pi, 16, endpoint=False)
    for G1 in gains:
        for G2 in gains:
            noises = [
                q.monitor_stats(q.build_circuit(nested_spec(G1=G1, G2=G2, phi=p, alpha=0.0)))[
                    "phase"
                ][1]
                for p in phis
            ]
            assert noises[8] <= min(noises) + 1e-12  # phis[8] = pi


def test_nested_probe_independence():
    # amplifier-side variances do not depend on the probe amplitude
    reference = q.monitor_stats(q.build_circuit(nested_spec(alpha=0.0)))
    for alpha in (1.0, 100.0, 1e4):
        stats = q.monitor_stats(q.build_circuit(nested_spec(alpha=alpha)))
        for label in ("phase", "amplitude"):
            assert stats[label][1] == pytest.approx(reference[label][1], abs=1e-10)


def test_nested_missing_gains_rejected():
    with pytest.raises(q.ValidationError):
        q.build_circuit(
            q.CircuitSpec(
                q.Topology.NESTED_SUI,
                alpha=1.0,
                splitters=(q.SplitterSpec(0.9999), q.SplitterSpec(0.9999)),
            )
        )


def test_nested_linearized_requires_dark_fringe():
    with pytest.raises(q.ValidationError):
        q.build_circuit(nested_spec(mzi_phi=0.3))


# ---------------------------------------------------------------------------
# degenerate amplifier interferometer
# ---------------------------------------------------------------------------


def test_dsui_dark_fringe_variances():
    stats = q.monitor_stats(q.build_circuit(dsui_spec()))
    assert stats["mix_minus"][1] == pytest.approx(4 / 9, rel=1e-12)
    assert stats["mix_plus"][1] == pytest.approx(9 / 4, rel=1e-12)


def test_dsui_equal_gains_restore_vacuum_noise():
    stats = q.monitor_stats(q.build_circuit(dsui_spec(G1=5 / 3, G2=5 / 3)))
    assert stats["mix_minus"][1] == pytest.approx(1.0, rel=1e-12)
    assert stats["mix_plus"][1] == pytest.approx(1.0, rel=1e-12)


def test_dsui_unit_second_gain_leaves_squeezed_noise():
    stats = q.monitor_stats(q.build_circuit(dsui_spec(G2=1.0)))
    g1 = q.PaGain(5 / 3)
    assert stats["mix_minus"][1] == pytest.approx((g1.G - g1.g) ** 2, rel=1e-12)


@pytest.mark.parametrize("G1", [1.0, 1.25, 5 / 3, 2.5])
@pytest.mark.parametrize("G2", [1.0, 1.6, 4.0])
def test_dsui_dark_fringe_minimum_uncertainty(G1, G2):
    stats = q.monitor_stats(q.build_circuit(dsui_spec(G1=G1, G2=G2)))
    product = stats["mix_minus"][1] * stats["mix_plus"][1]
    assert product == pytest.approx(1.0, rel=1e-10)


def test_dsui_general_angles_match_closed_form():
    for theta1, theta2 in [(0.4, 2.0), (math.pi, math.pi / 3), (2.2, 5.1)]:
        spec = dsui_spec(theta1=theta1, theta2=theta2)
        stats = q.monitor_stats(q.build_circuit(spec))
        want_x, want_y = q.dsui_output_noise(spec.gains[0], spec.gains[1])
        assert stats["mix_minus"][1] == pytest.approx(want_x, rel=1e-12)
        assert stats["mix_plus"][1] == pytest.approx(want_y, rel=1e-12)


def test_dsui_exact_mode_matches_linearized_signals():
    lin = q.monitor_stats(q.build_circuit(dsui_spec(epsilon=1e-4)))
    ex = q.monitor_stats(
        q.build_circuit(dsui_spec(epsilon=1e-4, modulation_mode=q.ModulationMode.EXACT))
    )
    assert ex["mix_minus"][0] == pytest.approx(lin["mix_minus"][0], rel=1e-3)


# ---------------------------------------------------------------------------
# direct homodyne baseline
# ---------------------------------------------------------------------------


def direct_spec(T3=0.5, alpha=100.0, **kw):
    return q.CircuitSpec(
        q.Topology.DIRECT_HOMODYNE, alpha=alpha, splitters=(q.SplitterSpec(T3),), **kw
    )


def test_direct_homodyne_splits_the_probe_resource():
    # i_ps is the full probe here; the splitter shares it between channels
    spec = direct_spec(T3=0.25, delta=1e-3, epsilon=1e-3)
    i_ps = 100.0**2
    rep_d = q.channel_report(spec, "phase")
    rep_e = q.channel_report(spec, "amplitude")
    want_d, want_e = q.split_snr(0.25, i_ps, 1e-3, 1e-3)
    assert rep_d.snr == pytest.approx(want_d, rel=1e-9)
    assert rep_e.snr == pytest.approx(want_e, rel=1e-9)
    assert rep_d.i_ps == pytest.approx(i_ps)


def test_direct_homodyne_noise_is_vacuum():
    spec = direct_spec()
    readings = q.operating_point(spec)
    assert readings["phase"].var == pytest.approx(1.0, rel=1e-12)
    assert readings["amplitude"].var == pytest.approx(1.0, rel=1e-12)


def test_direct_homodyne_needs_one_splitter():
    with pytest.raises(q.ValidationError):
        q.build_circuit(q.CircuitSpec(q.Topology.DIRECT_HOMODYNE, alpha=1.0))


def test_unknown_monitor_label_rejected():
    circuit = q.build_circuit(direct_spec())
    with pytest.raises(q.ValidationError):
        circuit.monitor("bogus")


# ---------------------------------------------------------------------------
# stage snapshots
# ---------------------------------------------------------------------------


def test_snapshot_input_is_unit_circle():
    snap = q.stage_snapshots(dsui_spec())[0]
    assert snap.label == "input"
    assert snap.center == (0.0, 0.0)
    assert snap.major_variance == pytest.approx(1.0, rel=1e-12)
    assert snap.minor_variance == pytest.approx(1.0, rel=1e-12)


def test_snapshot_after_first_amplifier():
    snap = q.stage_snapshots(dsui_spec(G1=5 / 3, theta1=math.pi))[1]
    assert snap.label == "after_first_amplifier"
    assert snap.major_variance == pytest.approx(9.0, rel=1e-12)
    assert snap.minor_variance == pytest.approx(1 / 9, rel=1e-12)
    assert snap.orientation == pytest.approx(math.pi / 2, abs=1e-12)


def test_snapshot_encoding_displaces_center():
    spec = dsui_spec(delta=1e-3, epsilon=2e-3)
    snaps = q.stage_snapshots(spec)
    encoded = snaps[2]
    assert encoded.label == "after_encoding"
    root_r = math.sqrt(1e-4)
    assert encoded.center[0] == pytest.approx(2 * 1000.0 * root_r * 2e-3, rel=1e-12)
    assert encoded.center[1] == pytest.approx(-2 * 1000.0 * root_r * 1e-3, rel=1e-12)
    # covariance untouched by the encoding displacement
    assert encoded.major_variance == pytest.approx(snaps[1].major_variance, rel=1e-12)


def test_snapshot_output_equal_gains_is_displaced_circle():
    spec = dsui_spec(G1=5 / 3, G2=5 / 3, epsilon=1e-3)
    out = q.stage_snapshots(spec)[3]
    assert out.label == "output"
    assert out.major_variance == pytest.approx(1.0, rel=1e-10)
    assert out.minor_variance == pytest.approx(1.0, rel=1e-10)
    # second amplifier at theta2 = 0 amplifies X by (G + g) = 3
    encoded_x = 2 * 1000.0 * math.sqrt(1e-4) * 1e-3
    assert out.center[0] == pytest.approx(3.0 * encoded_x, rel=1e-10)


def test_snapshots_only_for_degenerate_topology():
    with pytest.raises(q.ValidationError):
        q.stage_snapshots(mzi_spec())


# ---------------------------------------------------------------------------
# spec validation
# ---------------------------------------------------------------------------


def test_linearized_modulation_limit_enforced():
    with pytest.raises(q.ValidationError):
        mzi_spec(delta=0.2)


def test_exact_mode_rejects_negative_epsilon():
    with pytest.raises(q.ValidationError):
        mzi_spec(epsilon=-0.01, modulation_mode=q.ModulationMode.EXACT)


@pytest.mark.parametrize("fields, message", [
    ({"topology": "FOO"},
     "unknown topology 'FOO'; one of ['DIRECT_HOMODYNE', 'MZI', 'NESTED_SUI', 'DEGENERATE_SUI']"),
    ({"topology": "MZI", "modulation_mode": "FAST"}, "unknown modulation_mode 'FAST'"),
], ids=["topology", "modulation_mode"])
def test_unknown_enum_value_is_a_validation_error(fields, message):
    # the library refuses it as the scenario loader does, with the same text
    with pytest.raises(q.ValidationError) as info:
        q.CircuitSpec(**fields)
    assert str(info.value) == message


def test_detection_loss_bounds():
    with pytest.raises(q.ValidationError):
        mzi_spec(detection_loss=0.0)
    with pytest.raises(q.ValidationError):
        mzi_spec(detection_loss=1.5)


@pytest.mark.parametrize("field, value, message", [
    ("splitters", (0.99, 0.99), "splitters must be SplitterSpec instances"),
    ("gains", (1.5, 1.5), "gains must be PaGain instances"),
])
def test_spec_parts_must_be_typed(field, value, message):
    with pytest.raises(q.ValidationError) as info:
        q.CircuitSpec(q.Topology.NESTED_SUI, **{field: value})
    assert str(info.value) == message


def test_detection_loss_attenuates_monitored_output():
    free = q.monitor_stats(q.build_circuit(nested_spec(phi=0.0)))
    lossy = q.monitor_stats(q.build_circuit(nested_spec(phi=0.0, detection_loss=0.5)))
    want = 0.5 * free["phase"][1] + 0.5
    assert lossy["phase"][1] == pytest.approx(want, rel=1e-12)


# ---------------------------------------------------------------------------
# identity ops
# ---------------------------------------------------------------------------

#: The element functions ``qdmsim.circuits`` calls to build a map.
ELEMENT_FUNCTIONS = ("beam_splitter", "phase_shifter", "loss_channel", "two_mode_squeezer",
                     "single_mode_squeezer", "displacement_map")


def count_built_maps(monkeypatch):
    """A list that records, in order, the element function of every map
    built through ``qdmsim.circuits``."""
    built = []
    for name in ELEMENT_FUNCTIONS:
        def counted(*args, _name=name, _function=getattr(q.circuits, name)):
            built.append(_name)
            return _function(*args)
        monkeypatch.setattr(q.circuits, name, counted)
    return built


SPECS = {
    "DIRECT_HOMODYNE": direct_spec,
    "MZI": mzi_spec,
    "NESTED_SUI": nested_spec,
    "DEGENERATE_SUI": dsui_spec,
}
#: The maps each topology builds at the operating point, in op order: all
#: but the modulators and the linearized Mach-Zehnder's phase at dark fringe.
NON_IDENTITY_MAPS = {
    ("DIRECT_HOMODYNE", "EXACT"): ["displacement_map", "beam_splitter"],
    ("DIRECT_HOMODYNE", "LINEARIZED"): ["displacement_map", "beam_splitter"],
    ("MZI", "EXACT"): ["displacement_map", "beam_splitter", "beam_splitter"],
    ("MZI", "LINEARIZED"): ["displacement_map", "beam_splitter", "beam_splitter"],
    ("NESTED_SUI", "EXACT"): ["displacement_map", "two_mode_squeezer", "beam_splitter",
                              "beam_splitter", "phase_shifter", "two_mode_squeezer"],
    ("NESTED_SUI", "LINEARIZED"): ["two_mode_squeezer", "phase_shifter", "two_mode_squeezer"],
    ("DEGENERATE_SUI", "EXACT"): ["displacement_map", "single_mode_squeezer", "beam_splitter",
                                  "beam_splitter", "single_mode_squeezer"],
    ("DEGENERATE_SUI", "LINEARIZED"): ["single_mode_squeezer", "single_mode_squeezer"],
}


@pytest.mark.parametrize("topology, mode", NON_IDENTITY_MAPS, ids=lambda v: str(v))
def test_operating_point_builds_only_its_non_identity_maps(monkeypatch, topology, mode):
    spec = SPECS[topology](delta=1e-3, epsilon=1e-3, modulation_mode=mode)
    built = count_built_maps(monkeypatch)
    readings = q.operating_point(spec)
    assert built == NON_IDENTITY_MAPS[topology, mode]
    # the skipped ops change no reading: building every map gives the same bits
    monkeypatch.setattr(q.circuits.ElementKind, "is_identity", lambda kind, params: False)
    assert q.operating_point(spec) == readings
    circuit = q.build_circuit(replace(spec, delta=0.0, epsilon=0.0))
    assert len(built) == len(NON_IDENTITY_MAPS[topology, mode]) + len(circuit.ops)


@pytest.mark.parametrize("mode", [q.ModulationMode.LINEARIZED, q.ModulationMode.EXACT])
def test_mzi_phase_off_dark_fringe_builds_its_map(monkeypatch, mode):
    built = count_built_maps(monkeypatch)
    q.operating_point(mzi_spec(mzi_phi=0.3, modulation_mode=mode))
    assert built.count("phase_shifter") == 1


@pytest.mark.parametrize("name, cutoff", [("dsui_validate", 40), ("nested_validate", 24)])
def test_validate_with_modulation_builds_every_map(monkeypatch, name, cutoff):
    spec, _ = load_scenario(SCENARIOS / f"{name}.json")
    spec = replace(spec, delta=0.01)
    built = count_built_maps(monkeypatch)
    assert q.compare_with_gaussian(spec, q.FockConfig(cutoff=cutoff)).passed
    assert len(built) == len(q.build_circuit(spec).ops)


@pytest.mark.parametrize("mode", [q.ModulationMode.LINEARIZED, q.ModulationMode.EXACT])
def test_snapshots_with_modulation_build_every_map(monkeypatch, mode):
    # one evaluation: every non-identity op builds its map once
    spec = dsui_spec(delta=1e-3, epsilon=1e-3, modulation_mode=mode)
    built = count_built_maps(monkeypatch)
    q.stage_snapshots(spec)
    ops = q.build_circuit(spec).ops
    assert len(built) == sum(not op.kind.is_identity(op.params) for op in ops)


def count_state_checks(monkeypatch):
    """A list that records every state the package certifies."""
    checked = []
    certify = q.GaussianState.__post_init__

    def counted(state):
        checked.append(state)
        certify(state)

    monkeypatch.setattr(q.GaussianState, "__post_init__", counted)
    return checked


@pytest.mark.parametrize("topology, mode", NON_IDENTITY_MAPS, ids=lambda v: str(v))
def test_an_evaluation_certifies_only_the_state_it_returns(monkeypatch, topology, mode):
    circuit = q.build_circuit(SPECS[topology](delta=1e-3, epsilon=1e-3, modulation_mode=mode))
    checked = count_state_checks(monkeypatch)
    state = q.evaluate_circuit(circuit)
    assert checked == [state]
    q.monitor_stats(circuit)
    assert len(checked) == 2


@pytest.mark.parametrize("mode", [q.ModulationMode.LINEARIZED, q.ModulationMode.EXACT])
def test_snapshots_certify_one_state_per_stage(monkeypatch, mode):
    spec = dsui_spec(delta=1e-3, epsilon=1e-3, modulation_mode=mode)
    checked = count_state_checks(monkeypatch)
    snapshots = q.stage_snapshots(spec)
    assert len(checked) == len(snapshots) == len(q.build_circuit(spec).stage_bounds)


def run_refusal(tmp_path, capsys, **fields):
    """Exit code, stdout and stderr of ``qdmsim run`` on the shipped nested
    scenario at one operating point with ``fields`` replaced."""
    payload = json.loads((SCENARIOS / "nested_sui_phase_sweep.json").read_text())
    del payload["sweep"], payload["format"]
    path = tmp_path / "dark_fringe.json"
    path.write_text(json.dumps({**payload, **fields}))
    code = main(["run", str(path)])
    out, err = capsys.readouterr()
    return code, out, err


UNCERTAINTY_REFUSAL = r"^error: uncertainty relation violated: min eig of cov \+ i\*Omega is -\d\.\d{3}e-0[78] "


@pytest.mark.parametrize("fields, where", [
    ({}, "at op 3 (two_mode_squeezer)"),
    ({"modulation_mode": "EXACT"}, "at op 6 (two_mode_squeezer)"),
    # the check reads the state after the detection loss, the last op
    ({"detection_loss": 0.5}, "at op 5 (loss_channel)"),
], ids=["linearized", "exact", "lossy"])
def test_balanced_dark_fringe_refusal_names_the_last_op(tmp_path, capsys, fields, where):
    # G1 = G2 = 100 at phi = pi: the op-by-op covariance loses about 8 digits
    code, out, err = run_refusal(tmp_path, capsys, gains=[{"G": 100.0}, {"G": 100.0}], **fields)
    assert (code, out) == (4, "")
    assert re.match(UNCERTAINTY_REFUSAL + re.escape(where) + "\n$", err), err


def test_balanced_dark_fringe_passes_behind_a_strong_detection_loss(tmp_path, capsys):
    code, out, err = run_refusal(tmp_path, capsys, gains=[{"G": 100.0}, {"G": 100.0}],
                                 detection_loss=0.01)
    assert (code, err) == (0, "")
    for report in json.loads(out)["reports"].values():
        assert abs(report["noise_var"] - 1.0) <= 1e-8


def test_identity_with_an_array_carrier_stacks_the_state():
    carrier = np.array([1.0, 2j, -3.0])
    circuit = q.CompiledCircuit(
        1, (CircuitOp("displace", (0,), (0.0, 0.0), carrier),), (Monitor("x", 0, 0.0),))
    tangent = q.evaluate_circuit(circuit).tangent
    field = np.stack((2 * carrier.real, 2 * carrier.imag), axis=-1)
    assert np.array_equal(tangent[:, :, 1], -field)


@pytest.mark.parametrize("modes, message", [
    ((0, 1), "the element acts on 1 modes but 2 were selected at op 0 (phase_shifter)"),
    ((2,), "mode 2 out of range for 2 modes at op 0 (phase_shifter)"),
])
def test_identity_carrier_on_wrong_modes_is_refused(modes, message):
    # an identity op builds no map, but check_wiring refuses its modes before any op runs
    circuit = q.CompiledCircuit(2, (CircuitOp("phase_shifter", modes, (0.0,), q.circuits.OWN_FIELD),),
                                (Monitor("x", 0, 0.0),))
    with pytest.raises(q.ValidationError) as info:
        q.evaluate_circuit(circuit)
    assert str(info.value) == message


@pytest.mark.parametrize("modes, params, message", [
    ((0,), 0.3, "params must be a sequence of real numbers or real grid arrays, got 0.3"),
    (0, (0.3,), "modes must be a sequence of ints, got 0"),
    ((0,), ("a",), "params must be a sequence of real numbers or real grid arrays, got ('a',)"),
], ids=["scalar params", "scalar modes", "string param"])
def test_op_refuses_modes_or_params_of_the_wrong_type(modes, params, message):
    with pytest.raises(q.ValidationError) as info:
        CircuitOp("phase_shifter", modes, params)
    assert str(info.value) == message


def test_op_accepts_numpy_scalars_and_grid_arrays():
    op = CircuitOp("displace", np.array([0]), [np.float64(0.5), np.int64(0)])
    assert op.modes == (0,) and type(op.modes[0]) is int
    assert op.params == (0.5, 0)
    grid = CircuitOp("phase_shifter", (np.int32(0),), (np.linspace(0.0, 1.0, 3),))
    circuit = q.CompiledCircuit(1, (op, grid), (Monitor("y", 0, math.pi / 2),))
    mean = q.evaluate_circuit(circuit).mean
    assert mean.shape == (3, 2)
    assert np.allclose(mean[:, 1], np.sin(np.linspace(0.0, 1.0, 3)), rtol=0.0, atol=1e-15)


def test_a_circuit_refuses_an_unknown_output_as_a_report_does():
    circuit = q.build_circuit(mzi_spec())
    with pytest.raises(q.ValidationError) as info:
        circuit.monitor("mix_minus")
    assert str(info.value) == "unknown output 'mix_minus'; circuit monitors: phase, amplitude"


def test_identity_rule_refuses_grid_parameters():
    kinds = q.circuits.ELEMENT_KINDS
    assert kinds["phase_shifter"].is_identity((0.0,))
    assert kinds["displace"].is_identity((0.0, -0.0))
    assert not kinds["phase_shifter"].is_identity((np.zeros(3),))
    assert not kinds["displace"].is_identity((np.zeros(3), 0.0))
    assert not kinds["displace"].is_identity((0.0, 1e-300))
    assert not kinds["beam_splitter"].is_identity((1.0,))


#: Hand-built circuits that the two engines used to refuse in different
#: words or with an untyped exception, each with the refusal both now give.
MISWIRED = {
    "mode out of range on a one-mode kind": (
        CircuitOp("phase_shifter", (0, 5), (0.3,)),
        "mode 5 out of range for 2 modes at op 0 (phase_shifter)"),
    "carrier on a beam splitter": (
        CircuitOp("beam_splitter", (0, 1), (0.5,), OWN_FIELD),
        "only an element on one mode may carry the modulation, this one acts on 2 "
        "at op 0 (beam_splitter)"),
    "parameter missing": (
        CircuitOp("displace", (0,), (0.5,)),
        "the element takes 2 parameters but 1 were given at op 0 (displace)"),
}


def miswired(case):
    return q.CompiledCircuit(2, (MISWIRED[case][0],), (Monitor("x", 0, 0.0),))


def refusal(run, circuit):
    """The text of the ValidationError ``run(circuit)`` raises, else None;
    any exception other than a QdmsimError propagates."""
    try:
        run(circuit)
    except q.ValidationError as exc:
        return str(exc)
    except q.exceptions.QdmsimError:
        pass
    return None


def fock_at_cutoff_5(circuit):
    return q.simulate_fock(circuit, q.FockConfig(cutoff=5))


@pytest.mark.parametrize("case", sorted(MISWIRED))
def test_both_engines_refuse_a_miswired_circuit_alike(case):
    message = MISWIRED[case][1]
    assert refusal(q.evaluate_circuit, miswired(case)) == message
    assert refusal(fock_at_cutoff_5, miswired(case)) == message


#: Non-finite element parameters given through the library, each with its refusal.
NON_FINITE = {
    "nan pump phase": (replace(nested_spec(), gains=(q.PaGain(1.5, math.nan), q.PaGain(1.5))),
                       "amplifier phase must be finite, got nan at op 0 (two_mode_squeezer)"),
    "inf phi": (nested_spec(phi=math.inf), "phase must be finite, got inf at op 2 (phase_shifter)"),
    "phi grid with a nan": (nested_spec(phi=np.array([0.0, math.nan, 1.0])),
                            "phase must be finite, got nan at batch index 1 at op 2 (phase_shifter)"),
}


@pytest.mark.parametrize("case", NON_FINITE)
def test_a_non_finite_element_parameter_is_refused_at_its_op(case):
    spec, message = NON_FINITE[case]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # refused before cos or sin could warn
        with pytest.raises(q.ValidationError) as info:
            q.monitor_stats(q.build_circuit(spec))
    assert str(info.value) == message


#: Parameters inside each kind's oracle envelope.
ENVELOPE_PARAMS = {
    "beam_splitter": st.tuples(st.floats(0.0, 1.0)),
    "phase_shifter": st.tuples(st.floats(-4.0, 4.0)),
    "loss_channel": st.tuples(st.floats(0.05, 1.0)),
    "two_mode_squeezer": st.tuples(st.floats(1.0, 1.3), st.floats(-4.0, 4.0)),
    "single_mode_squeezer": st.tuples(st.floats(1.0, 1.3), st.floats(-4.0, 4.0)),
    "displace": st.tuples(st.floats(-0.7, 0.7), st.floats(-0.7, 0.7)),
}


@st.composite
def hand_built_circuits(draw):
    """Circuits on 1-3 modes.  Half are wired by the rules; in the others an
    op may name repeated modes, modes out of range, one mode too few or too
    many and one parameter too few or too many, any op may carry the
    modulation, and 0-2 monitors may lie out of range.  Every parameter lies
    inside the oracle envelope."""
    n_modes, sloppy = draw(st.integers(1, 3)), draw(st.booleans())
    mode = st.integers(-1, n_modes) if sloppy else st.integers(0, n_modes - 1)
    off_by_one = st.sampled_from((0, 0, 0, -1, 1) if sloppy else (0,))
    ops = []
    for _ in range(draw(st.integers(0, 4))):
        name = draw(st.sampled_from(sorted(ELEMENT_KINDS)))
        n = ELEMENT_KINDS[name].n_modes
        if n > n_modes and not sloppy:
            continue
        arity = n + draw(off_by_one)
        modes = draw(st.lists(mode, min_size=arity, max_size=arity, unique=not sloppy))
        params = draw(ENVELOPE_PARAMS[name]) + (0.5,)
        params = params[: len(params) - 1 + draw(off_by_one)]
        carriers = (None, None, OWN_FIELD, 0.3 - 0.2j) if sloppy or n == 1 else (None,)
        ops.append(CircuitOp(name, tuple(modes), params, draw(st.sampled_from(carriers))))
    monitors = [Monitor(f"m{k}", draw(mode), draw(st.floats(0.0, 3.0)))
                for k in range(draw(st.integers(0 if sloppy else 1, 2)))]
    return q.CompiledCircuit(n_modes, tuple(ops), tuple(monitors))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(hand_built_circuits())
@example(miswired("mode out of range on a one-mode kind"))
@example(miswired("carrier on a beam splitter"))
@example(miswired("parameter missing"))
def test_both_engines_accept_the_same_hand_built_circuits(circuit):
    # nothing but a QdmsimError, and a refusal of the wiring in the same words
    assert refusal(q.evaluate_circuit, circuit) == refusal(fock_at_cutoff_5, circuit)
