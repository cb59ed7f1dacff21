import csv
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import qdmsim as q
from qdmsim import cli
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
    # all 15 points are one grid spec: one evaluation
    assert main(["sweep", path, "--axis", "delta=0:0.002:5", "--axis", "epsilon=0:0.002:3"]) == 0
    assert len(calls) == 1
    calls.clear()
    # the grid keeps the loss ops where detection_loss reaches 1.0: still one
    assert main(["sweep", path, "--axis", "detection_loss=0.5:1.0:3", "--axis", "phi=0:1:4"]) == 0
    assert len(calls) == 1
    calls.clear()
    # one evaluation per --workers chunk, the chunks run here in turn
    monkeypatch.setattr(cli, "ProcessPoolExecutor", _InProcessPool)
    argv = ["sweep", path, "--axis", "detection_loss=0.5:1.0:3", "--axis", "phi=0:1:4"]
    assert main([*argv, "--workers", "3"]) == 0
    assert len(calls) == 3


class _InProcessPool:
    """Stands in for ``ProcessPoolExecutor``: maps in this process."""

    def __init__(self, max_workers):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


@pytest.mark.parametrize("depth", ["delta", "epsilon"])
def test_mixture_channels_guard_the_linear_regime(tmp_path, capsys, depth):
    # the mixture channels read both depths, so either one past the guard is
    # refused at report time, as the EXACT MZI refuses its phase channel
    payload = dsui_payload(modulation_mode="EXACT", **{depth: 0.2})
    path = write(tmp_path, "dsui.json", payload)
    assert main(["run", path]) == 3
    err = capsys.readouterr().err
    assert f"modulation {depth} = 0.2 outside the linear regime guard" in err
    mzi = write(tmp_path, "mzi.json", mzi_payload(modulation_mode="EXACT", delta=0.2))
    assert main(["run", mzi]) == 3
    assert "linear regime guard" in capsys.readouterr().err


def test_large_exact_depth_still_validates_and_exports(tmp_path, capsys):
    # the guard is a report-time rule: the oracle and the snapshots run any depth
    payload = json.loads((SCENARIOS / "dsui_validate.json").read_text())
    path = write(tmp_path, "dsui.json", {**payload, "delta": 0.2})
    assert main(["validate", path, "--cutoff", "30"]) == 0
    assert main(["export-states", path]) == 0


def test_sweep_through_zero_light_writes_nan_without_warnings(tmp_path):
    # alpha_re = 0 sends no light through the modulators: i_ps = 0 and the
    # enhancement is undefined, nan in CSV and null in JSON, as for one point
    path = write(tmp_path, "mzi.json", mzi_payload())
    argv = ["sweep", path, "--axis", "alpha_re=-1:1:3"]
    out_csv, out_json = tmp_path / "sweep.csv", tmp_path / "sweep.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([*argv, "--out", str(out_csv)]) == 0
        assert main([*argv, "--format", "json", "--out", str(out_json)]) == 0
    rows = list(csv.DictReader(io.StringIO(out_csv.read_text())))
    assert [row["enhancement[phase]"] for row in rows][1] == "nan"
    assert all(row["enhancement[phase]"] != "nan" for row in rows[::2])
    records = json.loads(out_json.read_text(), parse_constant=_reject_constant)
    assert [r["enhancement[amplitude]"] is None for r in records] == [False, True, False]


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


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_sweep_rejects_workers_below_one(capsys, workers):
    scenario = str(SCENARIOS / "nested_sui_phase_sweep.json")
    with pytest.raises(SystemExit) as info:
        main(["sweep", scenario, "--workers", workers])
    assert info.value.code == 2
    assert f"must be at least 1, got {workers}" in capsys.readouterr().err


def _sweep_bytes(tmp_path, monkeypatch, chunk_points, path, axes, fmt):
    """The file a sweep writes with ``CHUNK_POINTS`` set to ``chunk_points``."""
    monkeypatch.setattr(cli, "CHUNK_POINTS", chunk_points)
    out = tmp_path / f"sweep_{chunk_points}.{fmt}"
    argv = ["sweep", path, *(a for axis in axes for a in ("--axis", axis))]
    assert main([*argv, "--format", fmt, "--out", str(out)]) == 0
    return out.read_bytes()


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("payload, axes", [
    (mzi_payload(), ["phi=0:3:6"]),
    (mzi_payload(), ["phi=0:3:7"]),
    (mzi_payload(), ["phi=0:3:8"]),
    # chunks of 7 end mid-row of a 3 x 5 grid
    (mzi_payload(), ["delta=0.001:0.002:3", "epsilon=0.001:0.003:5"]),
    # the nan (JSON null) rows at alpha_re = 0 are grid points 6 to 8
    (mzi_payload(), ["alpha_re=-1:1:5", "phi=0:1:3"]),
    # the last chunk, at detection_loss = 1.0 only, compiles without loss ops
    (mzi_payload(), ["detection_loss=0.5:1.0:3", "phi=0:1:5"]),
    (dsui_payload(modulation_mode="EXACT"), ["detection_loss=0.5:1.0:3", "phi=0:1:5"]),
], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
def test_sweep_chunks_join_byte_identically(tmp_path, monkeypatch, payload, axes, fmt):
    path = write(tmp_path, "scenario.json", payload)
    whole = _sweep_bytes(tmp_path, monkeypatch, 10_000, path, axes, fmt)
    assert _sweep_bytes(tmp_path, monkeypatch, 7, path, axes, fmt) == whole


def test_failure_in_a_later_chunk_names_its_grid_point(tmp_path, monkeypatch, capsys):
    # delta = 0.1 is past the linear limit from grid point 16 on, in chunk 3
    scenario = str(SCENARIOS / "nested_sui_phase_sweep.json")
    argv = ["sweep", scenario, "--axis", "delta=0:0.1:3", "--axis", "phi=0:1:8"]
    assert main(argv) == 3
    whole = capsys.readouterr()
    assert whole.out == ""
    assert "at batch index 16 (sweep point delta=0.1, phi=0)" in whole.err

    monkeypatch.setattr(cli, "CHUNK_POINTS", 7)
    assert main(argv) == 3
    chunked = capsys.readouterr()
    assert chunked.err == whole.err
    # on stdout the rows of chunks 1 and 2 stay
    assert len(chunked.out.splitlines()) == 1 + 14

    out = tmp_path / "grid.csv"
    out.write_text("earlier output\n")
    out.chmod(0o640)
    assert main([*argv, "--out", str(out)]) == 3
    assert out.read_text() == "earlier output\n"
    assert os.listdir(tmp_path) == ["grid.csv"]
    # a successful sweep replaces the file and keeps its permissions
    assert main(["sweep", scenario, "--axis", "phi=0:1:8", "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 9
    assert out.stat().st_mode & 0o777 == 0o640
    assert os.listdir(tmp_path) == ["grid.csv"]


def test_sweep_writes_a_device_directly(capsys):
    # a path that is not a regular file is written, never replaced
    scenario = str(SCENARIOS / "nested_sui_phase_sweep.json")
    assert main(["sweep", scenario, "--axis", "phi=0:1:3", "--out", os.devnull]) == 0
    assert not os.path.isfile(os.devnull) and os.path.exists(os.devnull)


@pytest.mark.parametrize("command", ["run", "sweep", "export-states", "validate"])
def test_unwritable_output_exits_2(tmp_path, capsys, monkeypatch, command):
    calls = _count_evaluations(monkeypatch)
    out = tmp_path / "missing" / "x.json"
    argv = [command, str(SCENARIOS / "dsui_validate.json"), "--out", str(out)]
    if command == "sweep":
        argv += ["--axis", "phi=0:1:3"]
    assert main(argv) == 2
    assert f"error: cannot write output {out}: No such file or directory" in capsys.readouterr().err
    assert not out.parent.exists()
    # refused before any circuit is evaluated
    assert calls == []


@pytest.mark.parametrize("command", ["run", "export-states", "validate"])
@pytest.mark.parametrize("target, reason", [
    ("", "Is a directory"), ("afile/x.json", "Not a directory"),
])
def test_output_in_place_of_a_directory_exits_2(tmp_path, capsys, monkeypatch, command,
                                                target, reason):
    (tmp_path / "afile").write_text("kept\n")
    calls = _count_evaluations(monkeypatch)
    out = os.path.join(tmp_path, target)
    assert main([command, str(SCENARIOS / "dsui_validate.json"), "--out", out]) == 2
    assert capsys.readouterr().err == f"error: cannot write output {out}: {reason}\n"
    assert calls == []
    assert sorted(os.listdir(tmp_path)) == ["afile"]


def test_sweep_memory_does_not_grow_with_the_grid(tmp_path):
    import tracemalloc

    scenario = str(SCENARIOS / "nested_sui_phase_sweep.json")

    def traced_peak(n):
        argv = ["sweep", scenario, "--axis", f"phi=0:6.283185307179586:{n}",
                "--axis", f"G2=1:50:{n}", "--out", str(tmp_path / f"{n}.csv")]
        tracemalloc.start()
        try:
            assert main(argv) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small = traced_peak(50)
    assert traced_peak(200) <= 1.5 * small


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


def test_export_states_wrong_topology_exits_3(tmp_path, capsys):
    path = write(tmp_path, "mzi.json", mzi_payload())
    assert main(["export-states", path]) == 3
    assert capsys.readouterr().err == (
        "error: stage snapshots are defined for DEGENERATE_SUI only, got MZI\n"
    )


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


NESTED_SWEEP = str(SCENARIOS / "nested_sui_phase_sweep.json")
DSUI_VALIDATE = str(SCENARIOS / "dsui_validate.json")


def _nested_scenario(tmp_path, G2):
    """The shipped nested scenario without its sweep, at second gain ``G2``."""
    payload = json.loads(Path(NESTED_SWEEP).read_text())
    del payload["sweep"]
    payload["gains"][1]["G"] = G2
    return write(tmp_path, "nested.json", payload)


#: Failing commands with their CHUNK_POINTS (None for the default), exit
#: code and the one line they print to stderr, held byte for byte: scripts
#: match on these texts.  In argv, {nested_g1000} and {nan_token} stand for
#: scenarios the test writes.
FAILURES = {
    "symplectic residual at op 4": (["run", "{nested_g1000}"], None, 3,
        "lossless map is not symplectic: |S Omega S^T - Omega| = 1.164e-10 "
        "at op 4 (two_mode_squeezer)"),
    "gain below 1 on a sweep axis": (["sweep", NESTED_SWEEP, "--axis", "G2=0.5:2:4"], None, 3,
        "amplifier gain must be >= 1, got 0.5 at batch index 0 (sweep point G2=0.5)"),
    "gain below 1 on a sweep axis, two workers": (
        ["sweep", NESTED_SWEEP, "--axis", "G2=0.5:2:4", "--workers", "2"], None, 3,
        "amplifier gain must be >= 1, got 0.5 at batch index 0 (sweep point G2=0.5)"),
    "linear limit in chunk 3": (
        ["sweep", NESTED_SWEEP, "--axis", "delta=0:0.1:3", "--axis", "phi=0:1:8"], 7, 3,
        "linearized mode requires |delta|, |epsilon| < 0.1, got delta=0.1, epsilon=0.001 "
        "at batch index 16 (sweep point delta=0.1, phi=0)"),
    "tail mass at op 0": (["validate", DSUI_VALIDATE, "--cutoff", "6"], None, 4,
        "tail mass 1.878e-02 in the top two levels of mode 1 exceeds 1.0e-06; "
        "raise the cutoff at op 0 (displace)"),
    "infinite tolerance": (["validate", DSUI_VALIDATE, "--tolerance", "inf"], None, 3,
        "tolerance must be finite and positive, got inf"),
    "NaN token": (["run", "{nan_token}"], None, 2,
        "scenario holds the non-finite number NaN; numbers must be finite"),
    "unwritable output": (["run", str(SCENARIOS / "mzi_basic.json"), "--out", "/nonexistent/x.json"],
        None, 2, "cannot write output /nonexistent/x.json: No such file or directory"),
    "engines deviate": (["validate", DSUI_VALIDATE, "--tolerance", "1e-300"], None, 4,
        "engines deviate by 1.157e-06 > 1.0e-300"),
}


@pytest.mark.parametrize("case", FAILURES)
def test_failure_text_is_unchanged(tmp_path, monkeypatch, capsys, case):
    argv, chunk_points, code, message = FAILURES[case]
    files = {
        "nested_g1000": _nested_scenario(tmp_path, 1000.0),
        "nan_token": write(tmp_path, "nan.json", json.dumps(_with_number("delta", math.nan))),
    }
    if chunk_points is not None:
        monkeypatch.setattr(cli, "CHUNK_POINTS", chunk_points)
    assert main([arg.format(**files) for arg in argv]) == code
    assert capsys.readouterr().err == f"error: {message}\n"


_GAIN_OVERFLOW = "amplifier gain G must be <= 1.3408e+154 for a finite G^2, got "
_ALPHA_OVERFLOW = "alpha must have |alpha| <= 1.3408e+154 for a finite |alpha|^2, got alpha = "


@pytest.mark.parametrize("argv, message", [
    pytest.param(["run", "{nested}"], _GAIN_OVERFLOW + "1e+155", id="run G2"),
    pytest.param(["sweep", NESTED_SWEEP, "--axis", "G2=1:1e155:3"],
                 _GAIN_OVERFLOW + "5e+154 at batch index 1 (sweep point G2=5e+154)", id="sweep G2"),
    pytest.param(["sweep", NESTED_SWEEP, "--axis", "G2=1:1e155:3", "--workers", "2"],
                 _GAIN_OVERFLOW + "5e+154 at batch index 1 (sweep point G2=5e+154)",
                 id="sweep G2 two workers"),
    pytest.param(["run", "{dsui}"], _GAIN_OVERFLOW + "1e+155", id="run G1"),
    pytest.param(["export-states", "{dsui}"], _GAIN_OVERFLOW + "1e+155", id="export-states G1"),
    pytest.param(["run", "{mzi}"], _ALPHA_OVERFLOW + "(1e+300, 0.0)", id="run alpha"),
    # each part squares to a finite float, their sum does not
    pytest.param(["run", "{mzi_parts}"], _ALPHA_OVERFLOW + "(1e+154, 1e+154)", id="run alpha parts"),
    pytest.param(["sweep", str(SCENARIOS / "mzi_basic.json"), "--axis", "alpha_re=1:1e300:3"],
                 _ALPHA_OVERFLOW + "(5e+299, 0.0) at batch index 1 (sweep point alpha_re=5e+299)",
                 id="sweep alpha_re"),
])
def test_overflowing_square_is_refused(tmp_path, capsys, argv, message):
    # under the suite's error::RuntimeWarning filter: no warning may escape
    files = {
        "nested": _nested_scenario(tmp_path, 1e155),
        "dsui": write(tmp_path, "dsui.json", dsui_payload(
            gains=[{"G": 1e155, "phase": math.pi}, {"G": 5 / 3, "phase": 0.0}])),
        "mzi": write(tmp_path, "mzi.json", mzi_payload(alpha=1e300)),
        "mzi_parts": write(tmp_path, "parts.json", mzi_payload(alpha={"re": 1e154, "im": 1e154})),
    }
    assert main([arg.format(**files) for arg in argv]) == 3
    assert capsys.readouterr().err == f"error: {message}\n"
