"""Scenario files: one JSON document describing a circuit plus run options.

Unknown keys are rejected and every physical constraint is re-validated on
load, so a report produced from a scenario is reproducible from its
embedded spec echo alone.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

from .circuits import CircuitSpec, ModulationMode, Topology, build_circuit
from .elements import PaGain, SplitterSpec
from .exceptions import ScenarioParseError, ValidationError

MAX_AXIS_POINTS = 10_000

_SPEC_KEYS = {
    "topology", "alpha", "splitters", "gains", "phi", "mzi_phi",
    "delta", "epsilon", "modulation_mode", "detection_loss",
}
_OPTION_KEYS = {"outputs", "sweep", "format"}

#: Scalar spec fields a sweep may vary, with how each value lands in the spec.
#: theta2_dark moves the readout angle theta2 while keeping the amplifier
#: pair at dark fringe (theta1 = theta2 + pi), the canonical mixture sweep.
SWEEPABLE = (
    "phi", "mzi_phi", "delta", "epsilon", "detection_loss",
    "alpha_re", "alpha_im", "T1", "T2", "T3", "G1", "G2",
    "theta1", "theta2", "theta2_dark",
)


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
    try:
        topology = Topology(doc["topology"])
    except ValueError:
        raise ValidationError(
            f"unknown topology {doc['topology']!r}; one of {[t.value for t in Topology]}"
        ) from None
    mode = doc.get("modulation_mode", "LINEARIZED")
    try:
        modulation = ModulationMode(mode)
    except ValueError:
        raise ValidationError(f"unknown modulation_mode {mode!r}") from None

    spec = CircuitSpec(
        topology=topology,
        alpha=_parse_alpha(doc.get("alpha", 0.0)),
        splitters=_parse_splitters(doc.get("splitters", [])),
        gains=_parse_gains(doc.get("gains", [])),
        phi=_as_float(doc.get("phi", math.pi), "phi"),
        mzi_phi=_as_float(doc.get("mzi_phi", 0.0), "mzi_phi"),
        delta=_as_float(doc.get("delta", 0.0), "delta"),
        epsilon=_as_float(doc.get("epsilon", 0.0), "epsilon"),
        modulation_mode=modulation,
        detection_loss=_as_float(doc.get("detection_loss", 1.0), "detection_loss"),
    )
    circuit = build_circuit(spec)  # re-validates topology requirements

    outputs = doc.get("outputs")
    if outputs is None:
        outputs = [mon.label for mon in circuit.monitors]
    elif not isinstance(outputs, list) or not all(isinstance(o, str) for o in outputs):
        raise ValidationError("outputs must be a list of monitor labels")
    for label in outputs:
        circuit.monitor(label)

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
    """Reject axes that no grid point of ``spec`` could take.

    The linearized encoding of the amplifier topologies assumes identical
    splitters, so sweeping T1 or T2 there would break that assumption at
    every point it moves.
    """
    amplified = (Topology.NESTED_SUI, Topology.DEGENERATE_SUI)
    if spec.modulation_mode is ModulationMode.LINEARIZED and spec.topology in amplified:
        for axis in axes:
            if axis.name in ("T1", "T2"):
                raise ValidationError(
                    f"axis {axis.name!r} cannot be swept on a LINEARIZED {spec.topology.value}: "
                    "its linearized encoding assumes identical splitters T1 = T2"
                )


def apply_axis_value(spec: CircuitSpec, name: str, value: float) -> CircuitSpec:
    """Return a spec with one sweepable scalar replaced."""
    from dataclasses import replace

    if name in ("phi", "mzi_phi", "delta", "epsilon", "detection_loss"):
        return replace(spec, **{name: value})
    if name == "alpha_re":
        return replace(spec, alpha=complex(value, spec.alpha.imag))
    if name == "alpha_im":
        return replace(spec, alpha=complex(spec.alpha.real, value))
    if name in ("T1", "T2", "T3"):
        index = int(name[1]) - 1
        if index >= len(spec.splitters):
            raise ValidationError(f"{name} sweeps a splitter the topology does not have")
        splitters = list(spec.splitters)
        splitters[index] = SplitterSpec(value)
        return replace(spec, splitters=tuple(splitters))
    if name in ("G1", "G2"):
        index = int(name[1]) - 1
        if index >= len(spec.gains):
            raise ValidationError(f"{name} sweeps a gain the topology does not have")
        gains = list(spec.gains)
        gains[index] = PaGain(value, gains[index].phase)
        return replace(spec, gains=tuple(gains))
    if name in ("theta1", "theta2"):
        index = int(name[5]) - 1
        if index >= len(spec.gains):
            raise ValidationError(f"{name} sweeps a gain phase the topology does not have")
        gains = list(spec.gains)
        gains[index] = PaGain(gains[index].G, value)
        return replace(spec, gains=tuple(gains))
    if name == "theta2_dark":
        if len(spec.gains) != 2:
            raise ValidationError("theta2_dark needs the two amplifier gains")
        gains = (
            PaGain(spec.gains[0].G, value + math.pi),
            PaGain(spec.gains[1].G, value),
        )
        return replace(spec, gains=gains)
    raise ValidationError(f"axis {name!r} is not sweepable")


def spec_to_dict(spec: CircuitSpec) -> dict:
    """JSON-ready echo of a fully resolved spec."""
    return {
        "topology": spec.topology.value,
        "alpha": {"re": spec.alpha.real, "im": spec.alpha.imag},
        "splitters": [s.T for s in spec.splitters],
        "gains": [{"G": g.G, "phase": g.phase} for g in spec.gains],
        "phi": spec.phi,
        "mzi_phi": spec.mzi_phi,
        "delta": spec.delta,
        "epsilon": spec.epsilon,
        "modulation_mode": spec.modulation_mode.value,
        "detection_loss": spec.detection_loss,
    }
