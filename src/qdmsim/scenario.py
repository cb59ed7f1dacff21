"""Scenario files: one JSON document describing a circuit plus run options.

Unknown keys, input the topology does not read (``circuits.TOPOLOGIES``)
and sweep axes the circuit cannot take are rejected, and every constraint
is re-validated on load, so a report is reproducible from its spec echo.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .circuits import TOPOLOGIES, CircuitSpec, ModulationMode, build_circuit
from .elements import PaGain, SplitterSpec
from .exceptions import ScenarioParseError, ValidationError

MAX_AXIS_POINTS = 10_000

#: The spec's float fields: each is read from, echoed to and swept as the
#: scenario key of its own name.
_FLOAT_FIELDS = ("phi", "mzi_phi", "delta", "epsilon", "detection_loss")
_SPEC_KEYS = {"topology", "alpha", "splitters", "gains", "modulation_mode", *_FLOAT_FIELDS}
_OPTION_KEYS = {"outputs", "sweep", "format"}


class _Axis(NamedTuple):
    """A spec ``field`` and, in a tuple field, the ``part`` of entry ``index``;
    ``sets`` names the values no other axis may set (default: the axis's own),
    and ``assumed`` what the LINEARIZED amplifier topologies assume of it."""

    field: str
    index: int | None = None
    part: str | None = None
    sets: tuple[str, ...] = ()
    assumed: str | None = None


#: Every sweepable axis, in the order errors list them (mzi_phi keeps its
#: place); theta2_dark moves theta2 at dark fringe, theta1 = theta2 + pi.
_AXES = {
    **{name: _Axis(name) for name in _FLOAT_FIELDS},
    "mzi_phi": _Axis("mzi_phi", assumed="the embedded interferometer at dark fringe, mzi_phi = 0"),
    "alpha_re": _Axis("alpha", part="re"),
    "alpha_im": _Axis("alpha", part="im"),
    "T1": _Axis("splitters", 0, "T", assumed="identical splitters T1 = T2"),
    "T2": _Axis("splitters", 1, "T", assumed="identical splitters T1 = T2"),
    "T3": _Axis("splitters", 2, "T"),
    "G1": _Axis("gains", 0, "G"),
    "G2": _Axis("gains", 1, "G"),
    "theta1": _Axis("gains", 0, "phase"),
    "theta2": _Axis("gains", 1, "phase"),
    "theta2_dark": _Axis("gains", 1, "phase", sets=("theta1", "theta2")),
}
SWEEPABLE = tuple(_AXES)
_PART_NOUNS = {"T": "a splitter", "G": "a gain", "phase": "a gain phase"}


@dataclass(frozen=True)
class SweepAxis:
    name: str
    start: float
    stop: float
    count: int

    def __post_init__(self):
        if self.name not in SWEEPABLE:
            raise ValidationError(
                f"axis {self.name!r} is not sweepable; choose from {SWEEPABLE}"
            )
        if not (math.isfinite(self.start) and math.isfinite(self.stop)):
            raise ValidationError(
                f"axis {self.name!r} needs finite bounds, got {self.start}:{self.stop}"
            )
        if not 1 <= self.count <= MAX_AXIS_POINTS:
            raise ValidationError(
                f"axis {self.name!r} needs 1..{MAX_AXIS_POINTS} points, got {self.count}"
            )

    def values(self) -> list[float]:
        if self.count == 1:
            return [float(self.start)]
        step = (self.stop - self.start) / (self.count - 1)
        return [self.start + i * step for i in range(self.count)]


@dataclass(frozen=True)
class RunOptions:
    #: monitor labels to report: the scenario's list, else every monitor
    outputs: tuple[str, ...]
    axes: tuple[SweepAxis, ...] = ()
    fmt: str | None = None


def _as_float(value, key: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{key} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer literal beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ValidationError(f"{key} must be a finite number, got {number}")
    return number


def _reject_constant(token: str):
    """``json.loads`` hook for the non-standard tokens NaN, Infinity and -Infinity."""
    raise ScenarioParseError(f"scenario holds the non-finite number {token}; numbers must be finite")


def _parse_alpha(value) -> complex:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return complex(_as_float(value, "alpha"))
    if isinstance(value, dict) and set(value) <= {"re", "im"}:
        return complex(_as_float(value.get("re", 0.0), "alpha.re"),
                       _as_float(value.get("im", 0.0), "alpha.im"))
    raise ValidationError("alpha must be a number or {re, im} object")


def _parse_gains(value) -> tuple[PaGain, ...]:
    if not isinstance(value, list):
        raise ValidationError("gains must be a list of {G, phase} objects")
    gains = []
    for entry in value:
        if not isinstance(entry, dict) or not set(entry) <= {"G", "phase"}:
            raise ValidationError(f"gain entries must be {{G, phase}} objects, got {entry!r}")
        if "G" not in entry:
            raise ValidationError("gain entry is missing G")
        gains.append(PaGain(_as_float(entry["G"], "G"), _as_float(entry.get("phase", 0.0), "phase")))
    return tuple(gains)


def _parse_splitters(value) -> tuple[SplitterSpec, ...]:
    if not isinstance(value, list):
        raise ValidationError("splitters must be a list of transmissivities")
    return tuple(SplitterSpec(_as_float(t, "splitter T")) for t in value)


def _parse_axis(entry) -> SweepAxis:
    if not isinstance(entry, dict) or not set(entry) <= {"name", "start", "stop", "count"}:
        raise ValidationError(f"sweep axis must be {{name, start, stop, count}}, got {entry!r}")
    try:
        name = entry["name"]
        start, stop, count = entry["start"], entry["stop"], entry["count"]
    except KeyError as exc:
        raise ValidationError(f"sweep axis is missing {exc.args[0]}") from None
    if not isinstance(count, int) or isinstance(count, bool):
        raise ValidationError(f"axis count must be an integer, got {count!r}")
    name = str(name)
    return SweepAxis(name, _as_float(start, f"axis {name!r} start"),
                     _as_float(stop, f"axis {name!r} stop"), count)


def parse_scenario(text: str) -> tuple[CircuitSpec, RunOptions]:
    try:
        doc = json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise ScenarioParseError(
            f"scenario is not valid JSON: {exc.msg} at line {exc.lineno} column {exc.colno}"
        ) from None
    if not isinstance(doc, dict):
        raise ValidationError("scenario must be a JSON object")
    unknown = set(doc) - _SPEC_KEYS - _OPTION_KEYS
    if unknown:
        raise ValidationError(f"unknown scenario keys: {sorted(unknown)}")
    if "topology" not in doc:
        raise ValidationError("scenario is missing the topology")
    spec = CircuitSpec(
        topology=doc["topology"],
        alpha=_parse_alpha(doc.get("alpha", 0.0)),
        splitters=_parse_splitters(doc.get("splitters", [])),
        gains=_parse_gains(doc.get("gains", [])),
        modulation_mode=doc.get("modulation_mode", ModulationMode.LINEARIZED),
        **{key: _as_float(doc[key], key) for key in _FLOAT_FIELDS if key in doc},
    )
    circuit = build_circuit(spec)  # the LINEARIZED assumptions, and the monitors

    outputs = doc.get("outputs")
    if outputs is None:
        outputs = [mon.label for mon in circuit.monitors]
    elif not isinstance(outputs, list) or not all(isinstance(o, str) for o in outputs):
        raise ValidationError("outputs must be a list of monitor labels")
    for label in outputs:
        circuit.monitor(label)
        if outputs.count(label) > 1:
            raise ValidationError(f"outputs must name each monitor once, got {label!r} twice")

    axes: tuple[SweepAxis, ...] = ()
    sweep = doc.get("sweep")
    if sweep is not None:
        if not isinstance(sweep, dict) or set(sweep) != {"axes"} or not isinstance(sweep["axes"], list):
            raise ValidationError('sweep must be an object {"axes": [...]}')
        axes = tuple(_parse_axis(entry) for entry in sweep["axes"])
        if not 1 <= len(axes) <= 2:
            raise ValidationError(f"sweeps take 1 or 2 axes, got {len(axes)}")
        check_axes(spec, axes)

    fmt = doc.get("format")
    if fmt is not None and fmt not in ("json", "csv"):
        raise ValidationError(f"format must be json or csv, got {fmt!r}")
    return spec, RunOptions(outputs=tuple(outputs), axes=axes, fmt=fmt)


def load_scenario(path) -> tuple[CircuitSpec, RunOptions]:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ScenarioParseError(f"cannot read scenario {path}: {exc}") from None
    return parse_scenario(text)


def check_axes(spec: CircuitSpec, axes) -> None:
    """Reject axes that no grid point of ``spec`` could take, and two axes
    that set one spec value, of which the later would undo the earlier."""
    setters = {}
    for axis in axes:
        for value in _AXES[axis.name].sets or (axis.name,):
            if value in setters:
                raise ValidationError(
                    f"axes {setters[value]!r} and {axis.name!r} both set {value}; "
                    "a sweep sets each value once"
                )
            setters[value] = axis.name
    if spec.modulation_mode is ModulationMode.LINEARIZED and TOPOLOGIES[spec.topology].gains:
        for axis in axes:
            if assumed := _AXES[axis.name].assumed:
                raise ValidationError(
                    f"axis {axis.name!r} cannot be swept on a LINEARIZED {spec.topology.value}: "
                    f"its linearized encoding assumes {assumed}"
                )
    for axis in axes:
        _check_entry(spec, axis.name)


def _check_entry(spec: CircuitSpec, name: str) -> None:
    """Refuse axis ``name`` where the spec lacks its entry or does not read its phase."""
    axis = _AXES[name]
    if axis.index is not None and axis.index >= len(getattr(spec, axis.field)):
        raise ValidationError(f"{name} sweeps {_PART_NOUNS[axis.part]} the topology does not have")
    if axis.field in ("phi", "mzi_phi") and axis.field not in TOPOLOGIES[spec.topology].reads:
        raise ValidationError(f"{name} sweeps a phase the topology does not read")


def _complex(re, im):
    """``complex(re, im)``, one per grid point where either part is a column."""
    alpha = np.empty(np.broadcast_shapes(np.shape(re), np.shape(im)), dtype=complex)
    alpha.real, alpha.imag = re, im
    return alpha if alpha.ndim else complex(alpha)


def apply_axis_value(spec: CircuitSpec, name: str, value) -> CircuitSpec:
    """Return a spec with one sweepable scalar replaced: by ``value``, or,
    given an array, by one value per grid point (a grid spec)."""
    if name not in _AXES:
        raise ValidationError(f"axis {name!r} is not sweepable")
    _check_entry(spec, name)
    if name == "theta2_dark":
        spec = apply_axis_value(spec, "theta1", value + math.pi)
    axis = _AXES[name]
    if axis.field == "alpha":
        value = _complex(**{"re": spec.alpha.real, "im": spec.alpha.imag, axis.part: value})
    elif axis.index is not None:  # SplitterSpec and PaGain re-run their own checks
        entries = list(getattr(spec, axis.field))
        entries[axis.index] = replace(entries[axis.index], **{axis.part: value})
        value = tuple(entries)
    return replace(spec, **{axis.field: value})


def spec_to_dict(spec: CircuitSpec) -> dict:
    """JSON-ready echo of a fully resolved spec."""
    return {
        "topology": spec.topology.value,
        "alpha": {"re": spec.alpha.real, "im": spec.alpha.imag},
        "splitters": [s.T for s in spec.splitters],
        "gains": [{"G": g.G, "phase": g.phase} for g in spec.gains],
        "modulation_mode": spec.modulation_mode.value,
        **{name: getattr(spec, name) for name in _FLOAT_FIELDS},
    }
