"""Stacked (batched) evaluation against a per-point reference, and the
checks that name where a stacked evaluation failed."""

import math
from dataclasses import replace
from itertools import product
from pathlib import Path

import numpy as np
import pytest

import qdmsim as q
from qdmsim.cli import main
from qdmsim.scenario import SweepAxis, apply_axis_value, load_scenario

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


def assert_matches_reference(specs):
    got = q.operating_points(specs)
    want = [reference_readings(spec) for spec in specs]
    assert len(got) == len(specs)
    for label in want[0]:
        for field in range(4):
            ref = np.array([w[label][field] for w in want])
            val = np.array([g[label][field] for g in got])
            # relative to the field's scale over the grid: slopes and means vanish at some points
            scale = max(np.max(np.abs(ref)), 1e-300)
            assert np.max(np.abs(val - ref)) <= 1e-12 * scale, (label, field)


def grid(spec, *axes):
    points = []
    for values in product(*(axis.values() for axis in axes)):
        point = spec
        for axis, value in zip(axes, values):
            point = apply_axis_value(point, axis.name, value)
        points.append(point)
    return points


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
    assert_matches_reference(grid(BASES[topology](mode), *AXES[topology]))


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("topology", sorted(BASES))
def test_mixed_structure_sweep_matches_reference(topology, mode):
    # detection_loss reaching 1.0 drops the loss ops: two structures in one list
    specs = grid(BASES[topology](mode), SweepAxis("detection_loss", 0.5, 1.0, 3), AXES[topology][0])
    structures = {q.build_circuit(spec).structure for spec in specs}
    assert len(structures) == 2
    assert_matches_reference(specs)


@pytest.mark.parametrize("name", sorted(p.name for p in SCENARIOS.glob("*.json")))
def test_shipped_scenarios_match_reference(name):
    spec, options = load_scenario(SCENARIOS / name)
    specs = grid(spec, *options.axes) if options.axes else [spec]
    assert_matches_reference(specs)


def test_operating_point_is_the_batch_of_one():
    specs = grid(BASES["NESTED_SUI"](q.ModulationMode.EXACT), *AXES["NESTED_SUI"])
    assert q.operating_points(specs) == [q.operating_point(spec) for spec in specs]


def test_stacked_circuit_rejects_mixed_structures():
    lossy = q.build_circuit(BASES["MZI"](q.ModulationMode.LINEARIZED))
    loss = q.build_circuit(replace(BASES["MZI"](q.ModulationMode.LINEARIZED), detection_loss=0.5))
    with pytest.raises(q.ValidationError):
        q.stack_circuits([lossy, loss])


def test_stack_shares_what_does_not_vary():
    specs = grid(BASES["NESTED_SUI"](q.ModulationMode.LINEARIZED), AXES["NESTED_SUI"][0])
    stack = q.stack_circuits([q.build_circuit(spec) for spec in specs])
    assert stack.batch_shape == (5,)
    varying = [op.kind.name for op in stack.ops if any(np.ndim(p) for p in op.params)]
    assert varying == ["phase_shifter"]


# ---------------------------------------------------------------------------
# stacked checks name the failing slice
# ---------------------------------------------------------------------------


def test_stacked_map_names_its_bad_slice():
    linear = np.stack([q.phase_shifter(phi).linear for phi in np.linspace(0, 3, 5)])
    linear[3] *= 1.5  # lossless but not symplectic
    with pytest.raises(q.ValidationError) as info:
        q.GaussianMap(linear, np.zeros((2, 2)), np.zeros(2))
    message = str(info.value)
    assert message.startswith("lossless map is not symplectic: |S Omega S^T - Omega| = ")
    assert "at batch index 3" in message
    assert f"{1.5**2 - 1:.3e}" in message
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
    assert "lossless map is not symplectic" in err
    assert "at batch index 2" in err
    assert "at op 3 (phase_shifter)" in err
    assert "(sweep point phi=2)" in err


# ---------------------------------------------------------------------------
# axes rejected at load time
# ---------------------------------------------------------------------------


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
