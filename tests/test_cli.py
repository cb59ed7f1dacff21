import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qdmsim as q
from qdmsim.cli import main

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload) if isinstance(payload, dict) else payload)
    return str(path)


def mzi_payload(**overrides):
    payload = {
        "topology": "MZI",
        "alpha": 1000.0,
        "splitters": [0.99, 0.99],
        "delta": 0.001,
        "epsilon": 0.001,
    }
    payload.update(overrides)
    return payload


def dsui_payload(**overrides):
    payload = {
        "topology": "DEGENERATE_SUI",
        "alpha": 1000.0,
        "splitters": [0.9999, 0.9999],
        "gains": [
            {"G": 5 / 3, "phase": math.pi},
            {"G": 5 / 3, "phase": 0.0},
        ],
        "delta": 0.001,
        "epsilon": 0.001,
    }
    payload.update(overrides)
    return payload


def test_run_reports_su2_snr(tmp_path, capsys):
    path = write(tmp_path, "mzi.json", mzi_payload())
    assert main(["run", path]) == 0
    report = json.loads(capsys.readouterr().out)
    i_ps = 0.01 * 1000.0**2
    want = q.su2_snr(0.99, i_ps, 1e-3)
    assert report["reports"]["phase"]["snr"] == pytest.approx(want, rel=1e-9)
    assert report["reports"]["amplitude"]["snr"] == pytest.approx(want, rel=1e-9)
    assert report["analytic"]["phase_snr"] == pytest.approx(want, rel=1e-12)
    assert report["relative_error"]["phase_snr"] < 1e-9
    assert report["spec"]["splitters"] == [0.99, 0.99]


def test_run_writes_file(tmp_path):
    path = write(tmp_path, "mzi.json", mzi_payload())
    out = tmp_path / "report.json"
    assert main(["run", path, "--out", str(out)]) == 0
    assert json.loads(out.read_text())["spec"]["topology"] == "MZI"


def test_run_is_deterministic(tmp_path):
    path = write(tmp_path, "mzi.json", mzi_payload())
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    main(["run", path, "--out", str(out1)])
    main(["run", path, "--out", str(out2)])
    assert out1.read_bytes() == out2.read_bytes()


def _reject_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


def test_run_writes_strict_json(tmp_path, capsys):
    # T1 = 1 sends no light through the modulators: i_ps = 0 and the
    # enhancement is undefined, written as null rather than a bare NaN
    path = write(tmp_path, "mzi.json", mzi_payload(splitters=[1.0, 1.0]))
    assert main(["run", path]) == 0
    report = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    assert report["reports"]["phase"]["i_ps"] == 0.0
    assert report["reports"]["phase"]["enhancement"] is None
    assert report["reports"]["amplitude"]["enhancement"] is None


def _count_evaluations(monkeypatch):
    from qdmsim import circuits

    calls = []
    original = circuits.evaluate_circuit

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(circuits, "evaluate_circuit", counting)
    return calls


@pytest.mark.parametrize("payload", [mzi_payload(), dsui_payload(modulation_mode="EXACT")])
def test_one_evaluation_per_operating_point(tmp_path, capsys, monkeypatch, payload):
    path = write(tmp_path, "scenario.json", payload)
    calls = _count_evaluations(monkeypatch)
    assert main(["run", path]) == 0
    assert len(calls) == 1
    calls.clear()
    # all 15 points share one op structure: one stacked evaluation
    assert main(["sweep", path, "--axis", "delta=0:0.002:5", "--axis", "epsilon=0:0.002:3"]) == 0
    assert len(calls) == 1
    calls.clear()
    # detection_loss = 1.0 drops the loss ops: two structures, two evaluations
    assert main(["sweep", path, "--axis", "detection_loss=0.5:1.0:3", "--axis", "phi=0:1:4"]) == 0
    assert len(calls) == 2


def test_invalid_transmissivity_exits_3(tmp_path, capsys):
    path = write(tmp_path, "bad.json", mzi_payload(splitters=[1.2, 0.99]))
    assert main(["run", path]) == 3
    assert "transmissivity" in capsys.readouterr().err


def test_empty_file_exits_2(tmp_path, capsys):
    path = write(tmp_path, "empty.json", "")
    assert main(["run", path]) == 2
    assert "line" in capsys.readouterr().err


def test_unknown_key_exits_3(tmp_path, capsys):
    # seed was a scenario option that nothing read
    for key in ("gamma", "seed"):
        path = write(tmp_path, "extra.json", mzi_payload(**{key: 1}))
        assert main(["run", path]) == 3
        assert f"unknown scenario keys: ['{key}']" in capsys.readouterr().err


def test_missing_file_exits_2(tmp_path):
    assert main(["run", str(tmp_path / "nope.json")]) == 2


def _with_number(field, value):
    """An EXACT degenerate-SUI payload (valid for every command) with one
    number replaced; ``json.dumps`` writes NaN, Infinity and -Infinity."""
    payload = dsui_payload(modulation_mode="EXACT", alpha=1.0)
    if field == "T":
        payload["splitters"] = [value, 0.9999]
    elif field == "G":
        payload["gains"] = [{"G": value, "phase": math.pi}, payload["gains"][1]]
    else:
        payload[field] = value
    return payload


COMMANDS = {
    "run": ["run"],
    "sweep": ["sweep", "--axis", "delta=0:0.001:2"],
    "validate": ["validate", "--cutoff", "10"],
}


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize("field", ["alpha", "delta", "T", "G"])
@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_non_finite_token_exits_2(tmp_path, capsys, command, field, token):
    path = write(tmp_path, "bad.json", json.dumps(_with_number(field, float(token))))
    assert token in Path(path).read_text()
    argv = COMMANDS[command]
    assert main([argv[0], path, *argv[1:]]) == 2
    assert f"non-finite number {token};" in capsys.readouterr().err


@pytest.mark.parametrize("literal", ["1e400", "1" + "0" * 400])
@pytest.mark.parametrize("field", ["alpha", "delta", "T", "G"])
def test_overflowing_number_exits_3(tmp_path, capsys, field, literal):
    # a literal beyond the float range, with no non-standard token
    path = write(tmp_path, "bad.json", json.dumps(_with_number(field, 0.5)).replace("0.5", literal))
    assert main(["run", path]) == 3
    assert "must be a finite number, got inf" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["phi=nan:1:3", "G2=1:inf:3", "phi=-inf:0:3", "delta=0:nan:2"])
def test_non_finite_axis_flag_exits_3(capsys, flag):
    scenario = str(SCENARIOS / "nested_sui_phase_sweep.json")
    assert main(["sweep", scenario, "--axis", flag]) == 3
    name = flag.split("=")[0]
    assert f"axis '{name}' needs finite bounds" in capsys.readouterr().err


def test_non_finite_axis_in_scenario_exits_3(tmp_path, capsys):
    payload = mzi_payload(sweep={"axes": [{"name": "phi", "start": 0.0, "stop": 0.5, "count": 3}]})
    path = write(tmp_path, "bad.json", json.dumps(payload).replace("0.5", "1e400"))
    assert main(["sweep", path]) == 3
    assert "axis 'phi' stop must be a finite number" in capsys.readouterr().err


def test_sweep_phase_minimum_at_pi(tmp_path, capsys):
    assert main(["sweep", str(SCENARIOS / "nested_sui_phase_sweep.json")]) == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert len(rows) == 629
    noises = [float(row["noise_var[phase]"]) for row in rows]
    best = min(range(len(noises)), key=noises.__getitem__)
    assert float(rows[best]["phi"]) == pytest.approx(math.pi, rel=1e-9)
    assert noises[best] == pytest.approx(1.0, rel=1e-9)


def test_sweep_mixture_angle_tracks_gamma_minus(tmp_path, capsys):
    # theta2_dark keeps the amplifier pair at dark fringe while the readout
    # mixture rotates, so the SNR follows gamma_minus^2 exactly
    payload = dsui_payload()
    path = write(tmp_path, "dsui.json", payload)
    assert main(["sweep", path, "--axis", "theta2_dark=0:6.283185307179586:25"]) == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    gain = q.PaGain(5 / 3)
    i_ps = (1 - 0.9999) * 1000.0**2
    for row in rows:
        theta2 = float(row["theta2_dark"])
        mix = q.mixture_angles(theta2, 1e-3, 1e-3)
        want = 4 * i_ps * mix.gamma_minus**2 * (gain.G + gain.g) ** 2
        assert float(row["snr[mix_minus]"]) == pytest.approx(want, rel=1e-6, abs=1e-15)


def test_sweep_zero_length_axis_exits_3(tmp_path):
    path = write(tmp_path, "mzi.json", mzi_payload())
    assert main(["sweep", path, "--axis", "phi=0:1:0"]) == 3


def test_sweep_axis_budget_enforced(tmp_path):
    path = write(tmp_path, "mzi.json", mzi_payload())
    assert main(["sweep", path, "--axis", "delta=0:0.01:20000"]) == 3


def test_sweep_without_axes_exits_3(tmp_path):
    path = write(tmp_path, "mzi.json", mzi_payload())
    assert main(["sweep", path]) == 3


def test_sweep_two_axes_lexicographic(tmp_path, capsys):
    path = write(tmp_path, "mzi.json", mzi_payload())
    code = main(
        ["sweep", path, "--axis", "delta=0.001:0.002:2", "--axis", "epsilon=0.001:0.003:3"]
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert len(rows) == 6
    deltas = [float(r["delta"]) for r in rows]
    assert deltas == sorted(deltas)
    epsilons = [float(r["epsilon"]) for r in rows[:3]]
    assert epsilons == sorted(epsilons)


def test_sweep_workers_match_serial(tmp_path):
    path = write(tmp_path, "mzi.json", mzi_payload())
    serial, parallel = tmp_path / "serial.csv", tmp_path / "parallel.csv"
    main(["sweep", path, "--axis", "phi=0:3:7", "--out", str(serial)])
    main(["sweep", path, "--axis", "phi=0:3:7", "--out", str(parallel), "--workers", "2"])
    assert serial.read_bytes() == parallel.read_bytes()


def test_consecutive_commands_share_no_parsed_state(capsys):
    path = str(SCENARIOS / "nested_sui_phase_sweep.json")
    assert main(["sweep", path, "--axis", "G2=1.5:2:3"]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert rows[0].startswith("G2,") and len(rows) == 4
    # without --axis the scenario's own 629-point phi axis applies again
    assert main(["sweep", path]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert rows[0].startswith("phi,") and len(rows) == 630


def test_sweep_csv_uses_12_significant_digits(tmp_path, capsys):
    path = write(tmp_path, "mzi.json", mzi_payload())
    main(["sweep", path, "--axis", "delta=0.0012345678901234:0.002:1"])
    out = capsys.readouterr().out
    assert "0.00123456789012" in out


def test_export_states_equal_gains(tmp_path, capsys):
    path = write(tmp_path, "dsui.json", dsui_payload())
    assert main(["export-states", path]) == 0
    snapshots = json.loads(capsys.readouterr().out)
    assert [s["label"] for s in snapshots] == [
        "input", "after_first_amplifier", "after_encoding", "output",
    ]
    first = snapshots[0]
    assert first["center"] == [0.0, 0.0]
    assert first["major_variance"] == pytest.approx(1.0)
    last = snapshots[3]
    assert last["major_variance"] == pytest.approx(1.0, rel=1e-10)
    assert last["minor_variance"] == pytest.approx(1.0, rel=1e-10)


def test_export_states_wrong_topology_exits_3(tmp_path):
    path = write(tmp_path, "mzi.json", mzi_payload())
    assert main(["export-states", path]) == 3


def test_validate_small_circuit(tmp_path, capsys):
    assert main(["validate", str(SCENARIOS / "dsui_validate.json"), "--cutoff", "30"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_validate_rejects_linearized(tmp_path):
    path = write(tmp_path, "mzi.json", mzi_payload())
    assert main(["validate", path]) == 3


def test_validate_truncation_failure_exits_4(capsys):
    # cutoff far too small for G = 1.25 squeezing: the oracle aborts
    assert main(["validate", str(SCENARIOS / "dsui_validate.json"), "--cutoff", "8"]) == 4
    assert "tail" in capsys.readouterr().err


@pytest.mark.parametrize("tolerance", ["inf", "nan", "-1", "0"])
def test_validate_rejects_unusable_tolerance(capsys, tolerance, monkeypatch):
    from qdmsim import fock

    def no_fock_work(*args, **kwargs):
        raise AssertionError("the oracle ran")

    monkeypatch.setattr(fock, "_FockRun", no_fock_work)
    argv = ["validate", str(SCENARIOS / "dsui_validate.json"), f"--tolerance={tolerance}"]
    assert main(argv) == 3
    assert "tolerance must be finite and positive" in capsys.readouterr().err


def test_outputs_subset_respected(tmp_path, capsys):
    path = write(tmp_path, "mzi.json", mzi_payload(outputs=["phase"]))
    assert main(["run", path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert list(report["reports"]) == ["phase"]


def test_unknown_output_label_exits_3(tmp_path):
    path = write(tmp_path, "mzi.json", mzi_payload(outputs=["nope"]))
    assert main(["run", path]) == 3


def test_scenario_spec_round_trip(tmp_path):
    from qdmsim.scenario import load_scenario, spec_to_dict

    path = write(tmp_path, "dsui.json", dsui_payload())
    spec, _ = load_scenario(path)
    echoed = write(tmp_path, "echo.json", spec_to_dict(spec))
    again, _ = load_scenario(echoed)
    assert again == spec


def test_console_script_runs():
    # the child imports the same package as this process, installed or not
    package_root = str(Path(q.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "qdmsim.cli", "run", str(SCENARIOS / "mzi_basic.json")],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["spec"]["topology"] == "MZI"
