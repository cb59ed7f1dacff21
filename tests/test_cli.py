import csv
import errno
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def _finite_or_null(value):
    """``value`` with every non-finite float, nested or not, replaced by
    None: the pre-pass that strict output once took before ``json.dumps``."""
    if isinstance(value, dict):
        return {key: _finite_or_null(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(item) for item in value]
    return None if isinstance(value, float) and not math.isfinite(value) else value


def _reference_json(value):
    return json.dumps(_finite_or_null(value), indent=2, sort_keys=True, allow_nan=False)


_EDGE_FLOATS = st.sampled_from([
    0.0, -0.0, 5e-324, -2.5e-308, 1e308, -1e308, math.nan, math.inf, -math.inf,
])
_FLOATS = st.one_of(_EDGE_FLOATS, st.floats(allow_nan=True, allow_infinity=True))
#: keys and strings with escapes, control characters and non-ASCII text
_TEXT = st.one_of(st.text(max_size=8), st.sampled_from(['"', "\\", "\n\t\x00", "é", "猫", "\U0001f600"]))
_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), _FLOATS, _FLOATS.map(np.float64), _TEXT,
)
_DOCUMENTS = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(_TEXT, inner, max_size=4),
    ),
    max_leaves=24,
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(document=_DOCUMENTS)
def test_json_writer_writes_the_bytes_of_json_dumps(document):
    assert cli._json_text(document) == _reference_json(document)


def test_json_writer_takes_empty_containers():
    document = [{"b": {}, "a": []}]
    assert cli._json_text(document) == _reference_json(document)


@pytest.mark.parametrize("key", [3, 1.5, True, None, math.nan])
def test_json_writer_refuses_keys_that_are_not_str(key):
    # every document the commands write has str keys only
    with pytest.raises(TypeError, match=f"^keys must be str, not {type(key).__name__}$"):
        cli._json_text({key: 0.0})


@pytest.mark.parametrize("document, error", [
    (np.zeros(2), TypeError),
    ({"a": [np.int64(3)]}, TypeError),
    ({(1, 2): 0.0}, TypeError),
    ({1: 0.0, "a": 1.0}, TypeError),
], ids=["ndarray", "numpy int", "tuple key", "mixed key types"])
def test_json_writer_refuses_what_json_dumps_refuses(document, error):
    with pytest.raises(error):
        _reference_json(document)
    with pytest.raises(error):
        cli._json_text(document)


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
    argv = ["sweep", path, "--axis", "detection_loss=0.5:1.0:3", "--axis", "mzi_phi=0:1:4"]
    assert main(argv) == 0
    assert len(calls) == 1
    calls.clear()
    # one evaluation per chunk
    monkeypatch.setattr(cli, "CHUNK_POINTS", 4)
    assert main(argv) == 0
    assert len(calls) == 3


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


@pytest.mark.parametrize("axes, rows", [((), 629), (("phi=0:6.283185307179586:50", "G2=1:50:50"), 2500)])
def test_sweep_csv_fields_are_written_at_12_significant_digits(capsys, axes, rows):
    # the shipped sweep (one chunk) and a grid of two chunks
    argv = ["sweep", str(SCENARIOS / "nested_sui_phase_sweep.json")]
    assert main(argv + [f"--axis={axis}" for axis in axes]) == 0
    header, *lines = capsys.readouterr().out.split("\n")
    labels = ("phase", "amplitude")
    names = [axis.split("=")[0] for axis in axes] or ["phi"]
    assert header.split(",") == names + [
        f"{column}[{label}]" for label in labels for column in ("noise_var", "snr", "enhancement")]
    assert lines[-1] == ""
    assert len(lines) == rows + 1
    for line in lines[:-1]:
        fields = line.split(",")
        assert fields == ["%.12g" % float(field) for field in fields]
        assert len(fields) == len(names) + 6


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


def _swept(*axes, **sweep):
    """An MZI payload whose scenario sweeps ``axes`` (phi from 0 to 1 in 3
    points, with each given field replaced); ``sweep`` replaces the block."""
    axis = {"name": "phi", "start": 0.0, "stop": 1.0, "count": 3}
    block = sweep or {"axes": [{**axis, **a} if isinstance(a, dict) else a for a in axes]}
    return mzi_payload(sweep=block)


#: Malformed scenario documents: (argv after the scenario path, document,
#: exit code, the one error line).  Each case reaches one refusal of the
#: scenario schema or of a sweep axis.
MALFORMED = {
    "not JSON": ([], "{", 2,
        "scenario is not valid JSON: Expecting property name enclosed in double quotes "
        "at line 1 column 2"),
    "not an object": ([], "[]", 3, "scenario must be a JSON object"),
    "no topology": ([], {"alpha": 1.0}, 3, "scenario is missing the topology"),
    "unknown topology": ([], mzi_payload(topology="SU3"), 3,
        "unknown topology 'SU3'; one of ['DIRECT_HOMODYNE', 'MZI', 'NESTED_SUI', 'DEGENERATE_SUI']"),
    "unknown mode": ([], mzi_payload(modulation_mode="FAST"), 3,
        "unknown modulation_mode 'FAST'"),
    "alpha a string": ([], mzi_payload(alpha="big"), 3,
        "alpha must be a number or {re, im} object"),
    "alpha an extra key": ([], mzi_payload(alpha={"re": 1.0, "abs": 1.0}), 3,
        "alpha must be a number or {re, im} object"),
    "alpha.re a string": ([], mzi_payload(alpha={"re": "1"}), 3,
        "alpha.re must be a number, got '1'"),
    "alpha.im a bool": ([], mzi_payload(alpha={"im": True}), 3,
        "alpha.im must be a number, got True"),
    "delta a bool": ([], mzi_payload(delta=True), 3, "delta must be a number, got True"),
    "phi a string": ([], mzi_payload(phi="pi"), 3, "phi must be a number, got 'pi'"),
    "splitters a number": ([], mzi_payload(splitters=0.99), 3,
        "splitters must be a list of transmissivities"),
    "splitter a string": ([], mzi_payload(splitters=["0.99", 0.99]), 3,
        "splitter T must be a number, got '0.99'"),
    "gains an object": ([], dsui_payload(gains={"G": 1.5}), 3,
        "gains must be a list of {G, phase} objects"),
    "gain a number": ([], dsui_payload(gains=[1.5, 1.5]), 3,
        "gain entries must be {G, phase} objects, got 1.5"),
    "gain an extra key": ([], dsui_payload(gains=[{"G": 1.5, "gain": 2}, {"G": 1.5}]), 3,
        "gain entries must be {G, phase} objects, got {'G': 1.5, 'gain': 2}"),
    "gain without G": ([], dsui_payload(gains=[{"phase": 0.0}]), 3, "gain entry is missing G"),
    "G a string": ([], dsui_payload(gains=[{"G": "1.5"}, {"G": 1.5}]), 3,
        "G must be a number, got '1.5'"),
    "phase null": ([], dsui_payload(gains=[{"G": 1.5, "phase": None}, {"G": 1.5}]), 3,
        "phase must be a number, got None"),
    "outputs a string": ([], mzi_payload(outputs="phase"), 3,
        "outputs must be a list of monitor labels"),
    "outputs a number": ([], mzi_payload(outputs=[1]), 3,
        "outputs must be a list of monitor labels"),
    "output twice": ([], mzi_payload(outputs=["phase", "amplitude", "phase"]), 3,
        "outputs must name each monitor once, got 'phase' twice"),
    "sweep a list": ([], mzi_payload(sweep=[]), 3, 'sweep must be an object {"axes": [...]}'),
    "sweep an extra key": ([], _swept(axes=[], step=1), 3,
        'sweep must be an object {"axes": [...]}'),
    "axes an object": ([], _swept(axes={}), 3, 'sweep must be an object {"axes": [...]}'),
    "no axes": ([], _swept(axes=[]), 3, "sweeps take 1 or 2 axes, got 0"),
    "three axes": ([], _swept({}, {"name": "delta"}, {"name": "epsilon"}), 3,
        "sweeps take 1 or 2 axes, got 3"),
    "axis a string": ([], _swept("phi"), 3,
        "sweep axis must be {name, start, stop, count}, got 'phi'"),
    "axis an extra key": ([], _swept({"step": 0.5}), 3,
        "sweep axis must be {name, start, stop, count}, got "
        "{'name': 'phi', 'start': 0.0, 'stop': 1.0, 'count': 3, 'step': 0.5}"),
    "axis without count": ([], _swept(axes=[{"name": "phi", "start": 0.0, "stop": 1.0}]), 3,
        "sweep axis is missing count"),
    "count a float": ([], _swept({"count": 3.0}), 3, "axis count must be an integer, got 3.0"),
    "count a bool": ([], _swept({"count": True}), 3, "axis count must be an integer, got True"),
    "start a string": ([], _swept({"start": "0"}), 3, "axis 'phi' start must be a number, got '0'"),
    "stop null": ([], _swept({"stop": None}), 3, "axis 'phi' stop must be a number, got None"),
    "axis not sweepable": ([], _swept({"name": "gamma"}), 3,
        "axis 'gamma' is not sweepable; choose from ('phi', 'mzi_phi', 'delta', 'epsilon', "
        "'detection_loss', 'alpha_re', 'alpha_im', 'T1', 'T2', 'T3', 'G1', 'G2', 'theta1', "
        "'theta2', 'theta2_dark')"),
    "no points": ([], _swept({"count": 0}), 3, "axis 'phi' needs 1..10000 points, got 0"),
    "too many points": ([], _swept({"count": 10001}), 3,
        "axis 'phi' needs 1..10000 points, got 10001"),
    "format xml": ([], mzi_payload(format="xml"), 3, "format must be json or csv, got 'xml'"),
    "axis flag without count": (["--axis", "phi=0:1"], mzi_payload(), 3,
        "--axis expects name=start:stop:count, got 'phi=0:1'"),
    "axis flag without range": (["--axis", "phi"], mzi_payload(), 3,
        "--axis expects name=start:stop:count, got 'phi'"),
    "axis flag count a word": (["--axis", "phi=0:1:x"], mzi_payload(), 3,
        "--axis expects name=start:stop:count, got 'phi=0:1:x'"),
    # axes the schema takes that the topology cannot: refused at load
    "T3 on two splitters": (["--axis", "T3=0.1:0.9:3"], mzi_payload(), 3,
        "T3 sweeps a splitter the topology does not have"),
    "G1 without gains": (["--axis", "G1=1:2:3"], mzi_payload(), 3,
        "G1 sweeps a gain the topology does not have"),
    "theta1 without gains": (["--axis", "theta1=0:1:3"], mzi_payload(), 3,
        "theta1 sweeps a gain phase the topology does not have"),
    "theta2_dark without gains": (["--axis", "theta2_dark=0:1:3"], mzi_payload(), 3,
        "theta2_dark sweeps a gain phase the topology does not have"),
}


def _shipped(name):
    return json.loads((SCENARIOS / name).read_text())


_DIRECT = {"topology": "DIRECT_HOMODYNE", "alpha": 100.0, "splitters": [0.5],
           "delta": 0.001, "epsilon": 0.001}
#: input the topology does not read: refused at load, like the cases above
UNREAD = {
    "phi on an MZI": (["--axis", "phi=0:3:3"], _shipped("mzi_basic.json"), 3,
        "phi sweeps a phase the topology does not read"),
    "phi on a degenerate SUI": (["--axis", "phi=0:3:3"], _shipped("dsui_grid_json.json"), 3,
        "phi sweeps a phase the topology does not read"),
    "mzi_phi on direct homodyne": (["--axis", "mzi_phi=0:1:3"], _DIRECT, 3,
        "mzi_phi sweeps a phase the topology does not read"),
    "gains on an MZI": (["--axis", "G2=1:100:3"], mzi_payload(gains=[{"G": 1.5}] * 3), 3,
        "gains must number 0 on MZI, got 3"),
    "phi set on a degenerate SUI": ([], dsui_payload(phi=1.0), 3,
        "DEGENERATE_SUI does not read phi, so it must stay 3.141592653589793, got 1.0"),
}
MALFORMED.update(UNREAD)


@pytest.mark.parametrize("case", MALFORMED)
def test_malformed_scenario_is_refused(tmp_path, capsys, case):
    extra, document, code, message = MALFORMED[case]
    path = write(tmp_path, "bad.json", document)
    assert main(["sweep" if extra else "run", path, *extra]) == code
    assert capsys.readouterr() == ("", f"error: {message}\n")


#: a sweep block axis the topology lacks -> the refusal, as for --axis above
MISSING_PART = {
    "phi": "phi sweeps a phase the topology does not read",
    "T3": "T3 sweeps a splitter the topology does not have",
    "G1": "G1 sweeps a gain the topology does not have",
    "G2": "G2 sweeps a gain the topology does not have",
    "theta1": "theta1 sweeps a gain phase the topology does not have",
    "theta2": "theta2 sweeps a gain phase the topology does not have",
    "theta2_dark": "theta2_dark sweeps a gain phase the topology does not have",
}


@pytest.mark.parametrize("axis", MISSING_PART)
def test_sweep_block_axis_the_topology_lacks_is_refused_at_load(tmp_path, capsys, axis):
    from qdmsim.scenario import load_scenario

    sweep = {"axes": [{"name": axis, "start": 0.1, "stop": 0.2, "count": 2}]}
    path = write(tmp_path, "mzi.json", mzi_payload(sweep=sweep))
    with pytest.raises(q.ValidationError, match=f"^{MISSING_PART[axis]}$"):
        load_scenario(path)
    # every command, before its output is checked
    unwritable = str(tmp_path / "missing" / "out")
    for argv in (["run", path], ["export-states", path], ["validate", path],
                 ["sweep", path, "--out", unwritable],
                 ["sweep", path, "--axis", f"{axis}=0.1:0.2:2", "--out", unwritable]):
        assert main(argv) == 3, argv
        assert capsys.readouterr() == ("", f"error: {MISSING_PART[axis]}\n")


@pytest.mark.parametrize("case", UNREAD)
def test_unread_input_is_refused_before_the_output(tmp_path, capsys, case):
    extra, document, code, message = UNREAD[case]
    path = write(tmp_path, "unread.json", document)
    unwritable = str(tmp_path / "missing" / "out")
    # a refused axis is a sweep's; a refused spec every command's
    commands = ["sweep"] if extra else ["run", "sweep", "export-states", "validate"]
    for command in commands:
        argv = [command, path, *extra, "--out", unwritable]
        assert main(argv) == code, argv
        assert capsys.readouterr() == ("", f"error: {message}\n")


def test_unread_phase_at_its_default_still_loads():
    # the shipped grid writes phi = pi, the default, on a topology that does not read it
    from qdmsim.scenario import load_scenario

    spec, options = load_scenario(SCENARIOS / "dsui_grid_json.json")
    assert spec.topology is q.Topology.DEGENERATE_SUI
    assert spec.phi == math.pi
    assert [axis.name for axis in options.axes] == ["theta2_dark", "G2"]


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


_TWICE = "; a sweep sets each value once"


@pytest.mark.parametrize("argv, document, message", [
    (["--axis", "phi=0:1:2", "--axis", "phi=3:3.14159:2"], mzi_payload(),
     "axes 'phi' and 'phi' both set phi" + _TWICE),
    (["--axis", "theta1=0:1:2", "--axis", "theta2_dark=0:1:2"], dsui_payload(),
     "axes 'theta1' and 'theta2_dark' both set theta1" + _TWICE),
    (["--axis", "theta2_dark=0:1:2", "--axis", "theta2=0:1:2"], dsui_payload(),
     "axes 'theta2_dark' and 'theta2' both set theta2" + _TWICE),
    ([], _swept({}, {"start": 3.0}), "axes 'phi' and 'phi' both set phi" + _TWICE),
    ([], dsui_payload(sweep={"axes": [
        {"name": "theta2_dark", "start": 0.0, "stop": 1.0, "count": 2},
        {"name": "theta1", "start": 0.0, "stop": 1.0, "count": 2},
    ]}), "axes 'theta2_dark' and 'theta1' both set theta1" + _TWICE),
], ids=["flags phi twice", "flags theta1 theta2_dark", "flags theta2_dark theta2",
        "scenario phi twice", "scenario theta2_dark theta1"])
def test_sweep_setting_one_value_twice_is_refused(tmp_path, monkeypatch, capsys,
                                                  argv, document, message):
    calls = _count_evaluations(monkeypatch)
    assert main(["sweep", write(tmp_path, "twice.json", document), *argv]) == 3
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert calls == []


@pytest.mark.parametrize("document, axes", [
    (mzi_payload(), ("alpha_re=1:10:2", "alpha_im=0:5:2")),
    (dsui_payload(), ("G1=1.2:2:2", "theta1=0:1:2")),
    (mzi_payload(splitters=[0.99, 0.99, 0.5]), ("T1=0.9:0.99:2", "T3=0.2:0.8:2")),
])
def test_sweep_axes_on_parts_of_one_field(tmp_path, capsys, document, axes):
    # two parts of one field are two values: each axis moves the rows
    path = write(tmp_path, "parts.json", document)
    assert main(["sweep", path, "--axis", axes[0], "--axis", axes[1]]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))[1:]
    assert len({tuple(row[2:]) for row in rows}) == 4


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_sweep_workers_one_writes_what_no_flag_writes(capsys, monkeypatch, fmt):
    # --workers 1 is still accepted, and changes nothing: a grid of 15
    # points in chunks of 4
    monkeypatch.setattr(cli, "CHUNK_POINTS", 4)
    argv = ["sweep", str(SCENARIOS / "mzi_basic.json"), "--axis", "delta=0.001:0.002:3",
            "--axis", "mzi_phi=0:1:5", "--format", fmt]
    assert main(argv) == 0
    plain = capsys.readouterr()
    assert main([*argv, "--workers", "1"]) == 0
    assert capsys.readouterr() == plain
    rows = json.loads(plain.out) if fmt == "json" else plain.out.splitlines()[1:]
    assert len(rows) == 15


@pytest.mark.parametrize("workers", ["0", "-3", "2", "x"])
def test_sweep_refuses_every_workers_value_but_one(capsys, workers):
    scenario = str(SCENARIOS / "nested_sui_phase_sweep.json")
    with pytest.raises(SystemExit) as info:
        main(["sweep", scenario, "--workers", workers])
    assert info.value.code == 2
    assert "--workers" in capsys.readouterr().err


def _sweep_bytes(tmp_path, monkeypatch, chunk_points, path, axes, fmt):
    """The file a sweep writes with ``CHUNK_POINTS`` set to ``chunk_points``."""
    monkeypatch.setattr(cli, "CHUNK_POINTS", chunk_points)
    out = tmp_path / f"sweep_{chunk_points}.{fmt}"
    argv = ["sweep", path, *(a for axis in axes for a in ("--axis", axis))]
    assert main([*argv, "--format", fmt, "--out", str(out)]) == 0
    return out.read_bytes()


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("payload, axes", [
    (mzi_payload(), ["mzi_phi=0:3:6"]),
    (mzi_payload(), ["mzi_phi=0:3:7"]),
    (mzi_payload(), ["mzi_phi=0:3:8"]),
    # chunks of 7 end mid-row of a 3 x 5 grid
    (mzi_payload(), ["delta=0.001:0.002:3", "epsilon=0.001:0.003:5"]),
    # the nan (JSON null) rows at alpha_re = 0 are grid points 6 to 8
    (mzi_payload(), ["alpha_re=-1:1:5", "mzi_phi=0:1:3"]),
    # the last chunk, at detection_loss = 1.0 only, compiles without loss ops
    (mzi_payload(), ["detection_loss=0.5:1.0:3", "mzi_phi=0:1:5"]),
    (dsui_payload(modulation_mode="EXACT"), ["detection_loss=0.5:1.0:3", "mzi_phi=0:1:5"]),
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
        argv += ["--axis", "G2=1.1:2:3"]
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


@pytest.mark.parametrize("command", ["run", "sweep", "export-states", "validate"])
def test_read_only_output_exits_2(tmp_path, capsys, monkeypatch, command):
    out = tmp_path / "kept.txt"
    out.write_text("kept\n")
    real_access = os.access

    def access(path, mode, **kwargs):
        # root writes through any file mode, so write access is denied here
        if os.fspath(path) == str(out) and mode & os.W_OK:
            return False
        return real_access(path, mode, **kwargs)

    monkeypatch.setattr(cli.os, "access", access)
    calls = _count_evaluations(monkeypatch)
    argv = [command, str(SCENARIOS / "dsui_validate.json"), "--out", str(out)]
    if command == "sweep":
        argv += ["--axis", "G2=1.1:2:3"]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: cannot write output {out}: Permission denied\n"
    assert out.read_text() == "kept\n"
    assert os.listdir(tmp_path) == ["kept.txt"]
    assert calls == []


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


def test_validate_with_every_loss_on_vacuum_exits_0(tmp_path, capsys):
    # alpha 0: each loss acts on vacuum, so its ancilla keeps levels 0-2 and
    # the top two, which its tail check reads, hold nothing
    payload = mzi_payload(alpha=0.0, splitters=[0.5, 0.5, 0.5], modulation_mode="EXACT",
                          detection_loss=0.8)
    assert main(["validate", write(tmp_path, "mzi.json", payload), "--cutoff", "8"]) == 0
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
    return write(tmp_path, f"nested_g{G2:g}.json", payload)


#: Failing commands with their CHUNK_POINTS (None for the default), exit
#: code and the one line they print to stderr, held byte for byte: scripts
#: match on these texts.  In argv, {nan_token} stands for a scenario the
#: test writes.
FAILURES = {
    "gain below 1 on a sweep axis": (["sweep", NESTED_SWEEP, "--axis", "G2=0.5:2:4"], None, 3,
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
    files = {"nan_token": write(tmp_path, "nan.json", json.dumps(_with_number("delta", math.nan)))}
    if chunk_points is not None:
        monkeypatch.setattr(cli, "CHUNK_POINTS", chunk_points)
    assert main([arg.format(**files) for arg in argv]) == code
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("mode", ["LINEARIZED", "EXACT"])
@pytest.mark.parametrize("G2", [300.0, 1000.0, 1e6])
def test_large_second_gain_matches_the_closed_forms(tmp_path, capsys, G2, mode):
    # the whole envelope up to MAX_GAIN runs; the EXACT circuit keeps the
    # full first splitter, which puts its SNR a factor T below the forms
    payload = json.loads(Path(_nested_scenario(tmp_path, G2)).read_text())
    assert main(["run", write(tmp_path, "large.json", {**payload, "modulation_mode": mode})]) == 0
    reports = json.loads(capsys.readouterr().out)["reports"]
    T, gains = 0.9999, (q.PaGain(5 / 3), q.PaGain(G2))
    i_ps, factor = (1 - T) * 1000.0**2, T if mode == "EXACT" else 1.0
    want = {"phase": q.sui_snr_phase(*gains, i_ps, 1e-3),
            "amplitude": q.sui_snr_amplitude(*gains, i_ps, 1e-3)}
    for label, snr in want.items():
        assert reports[label]["snr"] == pytest.approx(factor * snr, rel=1e-6)


def test_large_gain_sweep_reaches_the_optimum(capsys):
    # the last point, G2 = 1e5, sits at the large-second-gain limit
    assert main(["sweep", NESTED_SWEEP, "--axis", "G2=1:1e5:50"]) == 0
    last = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))[-1]
    want = q.sui_snr_optimum(q.PaGain(5 / 3), (1 - 0.9999) * 1000.0**2, 1e-3)
    assert float(last["G2"]) == 1e5
    assert float(last["snr[phase]"]) == pytest.approx(want, rel=1e-6)
    assert float(last["snr[amplitude]"]) == pytest.approx(want, rel=1e-6)


_GAIN_OVERFLOW = "amplifier gain G must be <= 1e+06, the engine's envelope, got "
_ALPHA_OVERFLOW = "alpha must have |alpha| <= 1e+08, the engine's envelope, got alpha = "


@pytest.mark.parametrize("argv, message", [
    pytest.param(["run", "{nested}"], _GAIN_OVERFLOW + "1e+155", id="run G2"),
    pytest.param(["sweep", NESTED_SWEEP, "--axis", "G2=1:1e155:3"],
                 _GAIN_OVERFLOW + "5e+154 at batch index 1 (sweep point G2=5e+154)", id="sweep G2"),
    pytest.param(["run", "{dsui}"], _GAIN_OVERFLOW + "1e+155", id="run G1"),
    pytest.param(["export-states", "{dsui}"], _GAIN_OVERFLOW + "1e+155", id="export-states G1"),
    pytest.param(["run", "{mzi}"], _ALPHA_OVERFLOW + "(1e+300, 0.0)", id="run alpha"),
    # each part squares to a finite float, their sum does not
    pytest.param(["run", "{mzi_parts}"], _ALPHA_OVERFLOW + "(1e+154, 1e+154)", id="run alpha parts"),
    pytest.param(["sweep", str(SCENARIOS / "mzi_basic.json"), "--axis", "alpha_re=1:1e300:3"],
                 _ALPHA_OVERFLOW + "(5e+299, 0.0) at batch index 1 (sweep point alpha_re=5e+299)",
                 id="sweep alpha_re"),
    # squares to a finite float, yet lies past what the engine computes
    pytest.param(["sweep", "{nested_alpha}", "--axis", "G2=1:100:3"],
                 _ALPHA_OVERFLOW + "(1.3e+154, 0.0)", id="sweep alpha 1.3e154"),
    pytest.param(["export-states", "{dsui_edge}"], _GAIN_OVERFLOW + "1.3e+154",
                 id="export-states G1 1.3e154"),
])
def test_overflowing_square_is_refused(tmp_path, capsys, argv, message):
    # under the suite's error::RuntimeWarning filter: no warning may escape
    files = {
        "nested": _nested_scenario(tmp_path, 1e155),
        "dsui": write(tmp_path, "dsui.json", dsui_payload(
            gains=[{"G": 1e155, "phase": math.pi}, {"G": 5 / 3, "phase": 0.0}])),
        "mzi": write(tmp_path, "mzi.json", mzi_payload(alpha=1e300)),
        "mzi_parts": write(tmp_path, "parts.json", mzi_payload(alpha={"re": 1e154, "im": 1e154})),
        "nested_alpha": write(tmp_path, "alpha.json",
                              {**json.loads(Path(NESTED_SWEEP).read_text()), "alpha": 1.3e154}),
        "dsui_edge": write(tmp_path, "edge.json", dsui_payload(
            gains=[{"G": 1.3e154, "phase": math.pi}, {"G": 5 / 3, "phase": 0.0}])),
    }
    assert main([arg.format(**files) for arg in argv]) == 3
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("field, value, message", [
    ("G", 1e6, None),
    ("G", math.nextafter(1e6, math.inf), _GAIN_OVERFLOW + "1000000.0000000001"),
    ("alpha", 1e8, None),
    ("alpha", math.nextafter(1e8, math.inf), _ALPHA_OVERFLOW + "(100000000.00000001, 0.0)"),
    ("alpha", {"im": -1e8}, None),
    ("alpha", {"im": math.nextafter(-1e8, -math.inf)},
     _ALPHA_OVERFLOW + "(0.0, -100000000.00000001)"),
], ids=["G at the edge", "G past it", "alpha at the edge", "alpha past it",
        "alpha.im at the edge", "alpha.im past it"])
def test_envelope_boundary_at_load(tmp_path, capsys, field, value, message):
    from qdmsim.scenario import parse_scenario

    document = json.dumps(_with_number(field, value))
    if message is None:
        parse_scenario(document)
        return
    assert main(["run", write(tmp_path, "edge.json", document)]) == 3
    assert capsys.readouterr() == ("", f"error: {message}\n")


def _document_argv(command):
    """``command`` on a shipped scenario it writes one document for."""
    return {
        "run": ["run", str(SCENARIOS / "mzi_basic.json")],
        "export-states": ["export-states", str(SCENARIOS / "degenerate_sui_states.json")],
        "validate": ["validate", DSUI_VALIDATE, "--cutoff", "30"],
    }[command]


def _fresh_document(tmp_path, command):
    """The bytes ``command`` writes to a new file."""
    fresh = tmp_path / "fresh" / "document"
    fresh.parent.mkdir()
    assert main([*_document_argv(command), "--out", str(fresh)]) == 0
    return fresh.read_bytes()


DOCUMENT_COMMANDS = ["run", "export-states", "validate"]


@pytest.mark.parametrize("command", DOCUMENT_COMMANDS)
@pytest.mark.parametrize("longer", [True, False], ids=["longer", "shorter"])
def test_rewritten_output_holds_the_bytes_of_a_fresh_write(tmp_path, command, longer):
    fresh = _fresh_document(tmp_path, command)
    earlier = b"x" * 65536 if longer else b"{}\n"
    assert (len(earlier) > len(fresh)) == longer
    out = tmp_path / "out"
    out.write_bytes(earlier)
    for _ in range(3):
        assert main([*_document_argv(command), "--out", str(out)]) == 0
        assert out.read_bytes() == fresh


@pytest.mark.parametrize("command", DOCUMENT_COMMANDS)
def test_rewritten_output_keeps_its_file_links_and_mode(tmp_path, command):
    fresh = _fresh_document(tmp_path, command)
    target, link, hard = tmp_path / "target", tmp_path / "link", tmp_path / "hard"
    target.write_bytes(b"x" * 65536)
    target.chmod(0o640)
    link.symlink_to(target)
    os.link(target, hard)
    inode = target.stat().st_ino
    assert main([*_document_argv(command), "--out", str(link)]) == 0
    assert link.is_symlink() and os.readlink(link) == str(target)
    # the file is written where it is: a hard link sees the new document
    assert target.read_bytes() == hard.read_bytes() == fresh
    assert target.stat().st_ino == inode
    assert target.stat().st_mode & 0o777 == 0o640


@pytest.mark.parametrize("command, payload", [
    ("run", dsui_payload(modulation_mode="EXACT", delta=0.2)),  # refused at report time
    ("export-states", mzi_payload()),
    ("validate", mzi_payload()),
])
def test_failed_command_leaves_an_existing_output_as_it_was(tmp_path, capsys, command, payload):
    scenario = write(tmp_path, "scenario.json", payload)
    out = tmp_path / "out"
    out.write_bytes(b"x" * 65536)
    assert main([command, scenario, "--out", str(out)]) == 3
    assert capsys.readouterr().out == ""
    assert out.read_bytes() == b"x" * 65536
    assert sorted(os.listdir(tmp_path)) == ["out", "scenario.json"]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("command", [*DOCUMENT_COMMANDS, "sweep"])
def test_full_device_output_exits_2(capsys, command):
    argv = ["sweep", NESTED_SWEEP] if command == "sweep" else _document_argv(command)
    assert main([*argv, "--out", "/dev/full"]) == 2
    assert capsys.readouterr() == ("", "error: cannot write output /dev/full: "
                                       "No space left on device\n")


class _FullDiskFile:
    """A text file whose writes fail as on a full disk."""

    def __init__(self, handle):
        self.handle = handle

    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.handle.close()


def test_failed_sweep_write_keeps_the_output_and_directory(tmp_path, capsys, monkeypatch):
    out = tmp_path / "sweep.csv"
    out.write_text("earlier output\n")
    monkeypatch.setattr(cli, "open", lambda *args: _FullDiskFile(open(*args)), raising=False)
    assert main(["sweep", NESTED_SWEEP, "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", f"error: cannot write output {out}: "
                                       "No space left on device\n")
    assert out.read_text() == "earlier output\n"
    assert os.listdir(tmp_path) == ["sweep.csv"]


def _command_process(argv, stdout, **popen):
    """``python -m qdmsim.cli *argv`` in a child that imports this package,
    with stdout block-buffered, so output can still be pending at exit."""
    package_root = str(Path(q.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    env.pop("PYTHONUNBUFFERED", None)
    return subprocess.Popen([sys.executable, "-m", "qdmsim.cli", *argv], stdout=stdout,
                            stderr=subprocess.PIPE, text=True, env=env, **popen)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("argv", [
    ["run", str(SCENARIOS / "mzi_basic.json")],
    ["sweep", NESTED_SWEEP],
], ids=["run", "sweep"])
def test_full_stdout_exits_2_with_one_error_line(argv):
    with open("/dev/full", "w") as full:
        proc = _command_process(argv, full)
        _, err = proc.communicate()
    # no traceback, and nothing left to fail at interpreter exit
    assert (proc.returncode, err) == (2, "error: cannot write output <stdout>: "
                                         "No space left on device\n")


def test_closed_stdout_pipe_exits_2_with_one_error_line():
    # 5000 rows in three chunks, far more than a pipe holds
    argv = ["sweep", NESTED_SWEEP, "--axis", "phi=0:6.283185307179586:100", "--axis", "G2=1:50:50"]
    proc = _command_process(argv, subprocess.PIPE)
    assert proc.stdout.readline().startswith("phi,G2,")
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(), err) == (2, "error: cannot write output <stdout>: Broken pipe\n")


@pytest.mark.parametrize("command", DOCUMENT_COMMANDS)
def test_failed_write_empties_an_existing_output(tmp_path, command):
    resource = pytest.importorskip("resource")
    fresh = _fresh_document(tmp_path, command)
    out = tmp_path / "out"
    out.write_bytes(b"x" * 65536)

    def refuse_the_second_half():
        # the kernel writes the first half of the document and refuses the
        # rest (EFBIG), as a full disk would
        _, hard = resource.getrlimit(resource.RLIMIT_FSIZE)
        resource.setrlimit(resource.RLIMIT_FSIZE, (len(fresh) // 2, hard))

    proc = _command_process([*_document_argv(command), "--out", str(out)], subprocess.PIPE,
                            preexec_fn=refuse_the_second_half)
    assert proc.communicate() == ("", f"error: cannot write output {out}: File too large\n")
    assert proc.returncode == 2
    # no new bytes in front of old ones
    assert out.read_bytes() == b""
    assert sorted(os.listdir(tmp_path)) == ["fresh", "out"]
