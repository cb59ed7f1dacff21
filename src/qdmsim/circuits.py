"""Interferometer topologies compiled to ordered element circuits.

Four topologies are supported:

* ``DIRECT_HOMODYNE`` -- modulated coherent beam split onto two homodyne
  detectors (the classical joint-measurement baseline).
* ``MZI`` -- Mach-Zehnder with the modulators in arm B, read out at the
  dark port, optionally split by a third splitter for joint measurement.
* ``NESTED_SUI`` -- Mach-Zehnder dark port feeding the internal arm of a
  non-degenerate parametric-amplifier interferometer; homodyne on both
  amplifier outputs.
* ``DEGENERATE_SUI`` -- same nesting with degenerate (phase-sensitive)
  amplifiers and a single output read at angles referenced to half the
  second amplifier's phase.

Modulation handling: in ``EXACT`` mode the compiled circuit contains the
physical modulators (a phase shifter for delta, a loss channel with
transmission e^{-2 eps} for epsilon) inside the full two-splitter
Mach-Zehnder, so finite-R corrections are observable.  In ``LINEARIZED``
mode the modulators become a pure mean-field displacement, first order in
(delta, eps) with the vacuum contribution dropped; for the two amplifier
topologies the displacement uses the dark-port coupling sqrt(R) of the
T ~ 1 limit, which is the regime the closed-form results describe.

Slopes: evaluation carries d mean/d(delta, eps) forward with the state,
seeded by the op that carries the modulation (``CircuitOp.carrier``), so
one evaluation gives every monitor's mean, variance and exact slopes.

Grids: a spec whose swept fields hold one value per grid point (arrays
along one leading axis, the batch axis of :mod:`qdmsim.gaussian`) compiles
to one circuit whose op parameters, carriers and monitor angles hold
those arrays where they vary; one evaluation evolves every grid point
together.  The op list depends on the values in one place only: the
detection-loss ops are kept when any point has ``detection_loss < 1``,
since a transmission of 1 is an exact identity for the others.

Sign note: with the sign conventions above, the Mach-Zehnder dark-port
mean under phase modulation is <Y> = -2 alpha delta sqrt(TR).  Published
treatments usually quote the magnitude 2 alpha delta sqrt(TR); only the
squared signal enters any SNR, so the overall sign is a convention and is
not corrected here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, NamedTuple

import numpy as np

from . import elements
from .elements import (
    PaGain,
    SplitterSpec,
    beam_splitter,
    loss_channel,
    phase_shifter,
    single_mode_squeezer,
    two_mode_squeezer,
)
from .exceptions import NumericalError, ValidationError, annotate
from .gaussian import (
    GaussianMap,
    GaussianState,
    _check,
    apply_map,
    displacement_map,
    quadrature_direction,
    quadrature_stats,
)

#: Small-modulation guard for the linearized treatment.
LINEAR_MOD_LIMIT = 0.1
#: ``CircuitOp.carrier`` of a physical modulator: it acts on the mode's own mean.
OWN_FIELD = "own_field"
#: Multiplication by i in quadrature space (the rotation generator).
_J = np.array([[0.0, -1.0], [1.0, 0.0]])


def _is_grid(value) -> bool:
    """Whether a spec value holds one entry per grid point."""
    return isinstance(value, np.ndarray)


class Topology(str, Enum):
    DIRECT_HOMODYNE = "DIRECT_HOMODYNE"
    MZI = "MZI"
    NESTED_SUI = "NESTED_SUI"
    DEGENERATE_SUI = "DEGENERATE_SUI"


class ModulationMode(str, Enum):
    EXACT = "EXACT"
    LINEARIZED = "LINEARIZED"


@dataclass(frozen=True)
class CircuitSpec:
    """All physical parameters of one interferometer run.

    ``splitters`` holds (T1, T2) and optionally T3 for the output splitter
    (MZI), or the single splitting ratio for direct homodyne.  ``gains``
    holds the two amplifier settings for the parametric topologies; the
    gain phases are the squeezing angles theta1/theta2 in the degenerate
    case and pump phases (kept at zero) otherwise.  ``phi`` is the internal
    phase of the amplifier interferometer and ``mzi_phi`` the internal
    Mach-Zehnder phase (0 = dark fringe).

    A grid spec holds an array with one entry per grid point in any of the
    scalar fields, splitter transmissivities and gain parameters; every
    check then runs elementwise and names the first failing point as its
    ``batch_index``.
    """

    topology: Topology
    alpha: complex = 0j
    splitters: tuple[SplitterSpec, ...] = ()
    gains: tuple[PaGain, ...] = ()
    phi: float = math.pi
    mzi_phi: float = 0.0
    delta: float = 0.0
    epsilon: float = 0.0
    modulation_mode: ModulationMode = ModulationMode.LINEARIZED
    detection_loss: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "topology", Topology(self.topology))
        object.__setattr__(self, "modulation_mode", ModulationMode(self.modulation_mode))
        alpha = self.alpha
        object.__setattr__(self, "alpha", alpha.astype(complex) if _is_grid(alpha) else complex(alpha))
        object.__setattr__(self, "splitters", tuple(self.splitters))
        object.__setattr__(self, "gains", tuple(self.gains))
        for s in self.splitters:
            if not isinstance(s, SplitterSpec):
                raise ValidationError("splitters must be SplitterSpec instances")
        for g in self.gains:
            if not isinstance(g, PaGain):
                raise ValidationError("gains must be PaGain instances")
        loss = self.detection_loss
        _check(np.logical_not((0.0 < loss) & (loss <= 1.0)), loss, ValidationError,
               "detection_loss must lie in (0, 1], got {}")
        if self.modulation_mode is ModulationMode.LINEARIZED:
            linear = (np.abs(self.delta) < LINEAR_MOD_LIMIT) & (np.abs(self.epsilon) < LINEAR_MOD_LIMIT)
            _check(np.logical_not(linear), (self.delta, self.epsilon), ValidationError,
                   f"linearized mode requires |delta|, |epsilon| < {LINEAR_MOD_LIMIT}, "
                   "got delta={}, epsilon={}")
        else:
            _check(self.epsilon < 0.0, self.epsilon, ValidationError,
                   "exact mode models amplitude modulation as loss, so epsilon >= 0")


@dataclass(frozen=True, eq=False)
class ElementKind:
    """One kind of circuit element: its Gaussian map, its Fock unitary
    (``unitary(*params, cutoff)``), the oracle's envelope check, all called
    with the op's parameters, and whether the oracle runs it on its mode
    and a fresh vacuum ancilla (loss)."""

    name: str
    gaussian_map: Callable[..., GaussianMap]
    unitary: Callable[..., elements.BlockUnitary]
    oracle_envelope: Callable[..., None] = lambda *params: None
    ancilla: bool = False


#: Every element kind by name.  The lambdas look the element functions up
#: in this module when called, where a caller may have wrapped them.
ELEMENT_KINDS = {kind.name: kind for kind in (
    ElementKind("beam_splitter", lambda T: beam_splitter(SplitterSpec(T)),
                elements.splitter_unitary),
    ElementKind("phase_shifter", lambda phi: phase_shifter(phi), elements.phase_unitary),
    ElementKind("loss_channel", lambda t: loss_channel(t), elements.splitter_unitary, ancilla=True),
    ElementKind("two_mode_squeezer", lambda G, phase: two_mode_squeezer(PaGain(G, phase)),
                elements.two_mode_squeezer_unitary, elements.gain_envelope),
    ElementKind("single_mode_squeezer", lambda G, theta: single_mode_squeezer(PaGain(G, theta)),
                elements.single_mode_squeezer_unitary, elements.gain_envelope),
    ElementKind("displace", lambda re, im: displacement_map(re + 1j * im),
                elements.displacement_unitary, elements.alpha_envelope),
)}


@dataclass(frozen=True)
class CircuitOp:
    """One placed element: kind, target modes and parameters.

    ``kind`` may be given as the name of an entry of :data:`ELEMENT_KINDS`.
    ``carrier`` marks the op that applies the modulation e^{i delta - eps}
    and names the field it multiplies: :data:`OWN_FIELD` for a physical
    modulator, the constant arm amplitude for a linearized displacement,
    ``None`` for every other op.  In a grid circuit a parameter or
    carrier amplitude may be an array with one entry per grid point.
    """

    kind: ElementKind
    modes: tuple[int, ...]
    params: tuple[float, ...]
    carrier: complex | str | None = None

    def __post_init__(self):
        if not isinstance(self.kind, ElementKind):
            if self.kind not in ELEMENT_KINDS:
                raise ValidationError(f"unknown circuit op kind {self.kind!r}")
            object.__setattr__(self, "kind", ELEMENT_KINDS[self.kind])


@dataclass(frozen=True)
class Monitor:
    """A homodyne tap: output label, mode index and quadrature angle."""

    label: str
    mode: int
    angle: float


@dataclass(frozen=True)
class CompiledCircuit:
    """Ops and monitors compiled from ``spec``."""

    spec: CircuitSpec
    n_modes: int
    ops: tuple[CircuitOp, ...]
    monitors: tuple[Monitor, ...]
    #: (stage label, number of leading ops making up that stage) pairs,
    #: populated for the degenerate topology only.
    stage_bounds: tuple[tuple[str, int], ...] = ()

    def monitor(self, label: str) -> Monitor:
        for mon in self.monitors:
            if mon.label == label:
                return mon
        known = ", ".join(m.label for m in self.monitors)
        raise ValidationError(f"unknown output {label!r}; circuit monitors: {known}")


def _tangent_source(op: CircuitOp, gmap: GaussianMap, state: GaussianState) -> np.ndarray | None:
    """d(output mean)/d(delta, eps) that ``op`` itself adds on its mode.

    The modulation multiplies a field v by e^{i delta - eps}, whose
    derivatives at zero are i v and -v, in quadratures J v and -v.  For a
    physical modulator v is the mode's mean after the op: the derivatives
    of the rotation and of the e^{-2 eps} loss at eps -> 0+.
    """
    if op.carrier is None:
        return None
    if isinstance(op.carrier, str):  # OWN_FIELD
        sl = slice(2 * op.modes[0], 2 * op.modes[0] + 2)
        field = (gmap.linear @ state.mean[..., sl, None])[..., 0] + gmap.displacement
    else:
        carrier = np.asarray(op.carrier, dtype=complex)
        field = np.stack((2.0 * carrier.real, 2.0 * carrier.imag), axis=-1)
    return np.stack(((_J @ field[..., None])[..., 0], -field), axis=-1)


def evaluate_circuit(circuit: CompiledCircuit, upto: int | None = None) -> GaussianState:
    """Run the compiled circuit on vacuum inputs; optionally only the first
    ``upto`` ops (used for stage snapshots).  The state's tangent holds
    d mean/d(delta, eps) at the circuit's modulation depths.  A grid
    circuit's state carries the batch axis from its first op with array
    parameters on.  A failing check names the op's index and kind."""
    dim = 2 * circuit.n_modes
    state = GaussianState(np.zeros(dim), np.eye(dim), np.zeros((dim, 2)))
    ops = circuit.ops if upto is None else circuit.ops[:upto]
    for index, op in enumerate(ops):
        try:
            gmap = op.kind.gaussian_map(*op.params)
            state = apply_map(state, gmap, op.modes, _tangent_source(op, gmap, state))
        except (ValidationError, NumericalError) as exc:
            raise annotate(exc, f"at op {index} ({op.kind.name})")
    return state


class MonitorReading(NamedTuple):
    """A monitored quadrature at the evaluated operating point: mean,
    variance and the slopes of the mean in delta and epsilon (arrays with
    one entry per grid point for a grid circuit)."""

    mean: float
    var: float
    slope_delta: float
    slope_epsilon: float


def monitor_stats(circuit: CompiledCircuit) -> dict[str, MonitorReading]:
    """Every monitored quadrature, read from one evaluation: floats for a
    single operating point, arrays over the grid for a grid circuit."""
    state = evaluate_circuit(circuit)
    batch = state.batch_shape
    readings = {}
    for mon in circuit.monitors:
        mean, var = quadrature_stats(state, mon.mode, mon.angle)
        direction = quadrature_direction(mon.angle)[..., None, :]
        slopes = (direction @ state.tangent[..., 2 * mon.mode : 2 * mon.mode + 2, :])[..., 0, :]
        values = (mean, var, slopes[..., 0], slopes[..., 1])
        readings[mon.label] = MonitorReading(
            *(np.broadcast_to(value, batch) if batch else float(value) for value in values)
        )
    return readings


def _modulation_op(spec: CircuitSpec, mode: int, arm_mean: complex) -> CircuitOp:
    """Linearized modulators: the displacement (i delta - eps) arm_mean, the
    first order of e^{i delta - eps} acting on the arm's mean field."""
    shift = (1j * spec.delta - spec.epsilon) * arm_mean
    return CircuitOp("displace", (mode,), (shift.real, shift.imag), arm_mean)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValidationError(message)


def _displace_op(mode: int, amplitude: complex) -> CircuitOp:
    return CircuitOp("displace", (mode,), (amplitude.real, amplitude.imag))


def _anywhere(condition) -> bool:
    """Whether ``condition`` holds at any grid point, or at the one point."""
    return bool(condition.any()) if _is_grid(condition) else bool(condition)


def _detection_loss_ops(spec: CircuitSpec, modes: tuple[int, ...]) -> list[CircuitOp]:
    if not _anywhere(spec.detection_loss < 1.0):
        return []
    return [CircuitOp("loss_channel", (m,), (spec.detection_loss,)) for m in modes]


def _exact_modulator_ops(spec: CircuitSpec, mode: int, phase) -> list[CircuitOp]:
    """Physical modulators: the rotation by ``phase`` (which includes delta)
    and, where epsilon is nonzero, the loss e^{-2 eps}."""
    ops = [CircuitOp("phase_shifter", (mode,), (phase,), OWN_FIELD)]
    eps = spec.epsilon
    if _anywhere(eps != 0.0):
        # math.exp for one depth: np.exp can differ from it in the last bit
        loss = np.exp(-2.0 * eps) if _is_grid(eps) else math.exp(-2.0 * eps)
        ops.append(CircuitOp("loss_channel", (mode,), (loss,)))
    return ops


def _mzi_block(
    spec: CircuitSpec,
    a_mode: int,
    b_mode: int,
    elide_linearized: bool = False,
) -> list[CircuitOp]:
    """Ops for the two-splitter Mach-Zehnder with modulators in arm B.

    ``elide_linearized`` makes the linearized encoding displacement-only:
    the modulators act on the arm-B mean field ``-sqrt(R) alpha`` and the
    splitters are elided (used for the amplifier topologies, where the
    closed forms take the very unbalanced limit).
    """
    if elide_linearized and spec.modulation_mode is ModulationMode.LINEARIZED:
        return [_modulation_op(spec, b_mode, -math.sqrt(spec.splitters[0].R) * spec.alpha)]

    t1, t2 = spec.splitters[0], spec.splitters[1]
    ops = [CircuitOp("beam_splitter", (a_mode, b_mode), (t1.T,))]
    if spec.modulation_mode is ModulationMode.EXACT:
        ops.extend(_exact_modulator_ops(spec, b_mode, spec.mzi_phi + spec.delta))
    else:
        ops.append(CircuitOp("phase_shifter", (b_mode,), (spec.mzi_phi,)))
        arm_mean = -np.sqrt(t1.R) * spec.alpha * np.exp(1j * spec.mzi_phi)
        ops.append(_modulation_op(spec, b_mode, arm_mean))
    # second splitter: same element with the mode roles swapped
    ops.append(CircuitOp("beam_splitter", (b_mode, a_mode), (t2.T,)))
    return ops


def _sui_common_checks(spec: CircuitSpec, name: str) -> None:
    _require(len(spec.gains) == 2, f"{name} needs two amplifier gains, got {len(spec.gains)}")
    _require(
        len(spec.splitters) == 2,
        f"{name} needs the two embedded splitter transmissivities, got {len(spec.splitters)}",
    )
    if spec.modulation_mode is ModulationMode.LINEARIZED:
        t1, t2 = spec.splitters[0].T, spec.splitters[1].T
        _check(t1 != t2, (t1, t2), ValidationError,
               f"{name} linearized encoding assumes identical splitters, got T1={{}}, T2={{}}")
        _check(spec.mzi_phi != 0.0, spec.mzi_phi, ValidationError,
               f"{name} linearized encoding assumes the embedded interferometer at dark "
               "fringe, got mzi_phi={}")


def build_direct_homodyne(spec: CircuitSpec) -> CompiledCircuit:
    """Modulators straight on the coherent beam, then a splitting BS onto
    two homodynes (phase channel transmitted, amplitude channel reflected)."""
    _require(spec.topology is Topology.DIRECT_HOMODYNE, "spec topology mismatch")
    _require(len(spec.splitters) == 1, "direct homodyne needs exactly the output splitter")
    t3 = spec.splitters[0]
    ops = [_displace_op(0, spec.alpha)]
    if spec.modulation_mode is ModulationMode.EXACT:
        ops.extend(_exact_modulator_ops(spec, 0, spec.delta))
    else:
        ops.append(_modulation_op(spec, 0, spec.alpha))
    ops.append(CircuitOp("beam_splitter", (0, 1), (t3.T,)))
    monitors = (Monitor("phase", 0, math.pi / 2), Monitor("amplitude", 1, 0.0))
    ops.extend(_detection_loss_ops(spec, (0, 1)))
    return CompiledCircuit(spec, 2, tuple(ops), monitors)


def build_mzi(spec: CircuitSpec) -> CompiledCircuit:
    """Mach-Zehnder: coherent input on mode 0, vacuum on mode 1; the dark
    port comes back out on mode 1.  An optional third splitter splits the
    dark port onto separate phase/amplitude detectors."""
    _require(spec.topology is Topology.MZI, "spec topology mismatch")
    _require(
        len(spec.splitters) in (2, 3),
        f"MZI needs splitters (T1, T2[, T3]), got {len(spec.splitters)}",
    )
    ops = [_displace_op(0, spec.alpha)]
    ops.extend(_mzi_block(spec, a_mode=0, b_mode=1))
    if len(spec.splitters) == 3:
        n_modes = 3
        ops.append(CircuitOp("beam_splitter", (1, 2), (spec.splitters[2].T,)))
        monitors = (Monitor("phase", 1, math.pi / 2), Monitor("amplitude", 2, 0.0))
        loss_modes: tuple[int, ...] = (1, 2)
    else:
        n_modes = 2
        monitors = (Monitor("phase", 1, math.pi / 2), Monitor("amplitude", 1, 0.0))
        loss_modes = (1,)
    ops.extend(_detection_loss_ops(spec, loss_modes))
    return CompiledCircuit(spec, n_modes, tuple(ops), monitors)


def build_nested_sui(spec: CircuitSpec) -> CompiledCircuit:
    """Non-degenerate amplifier interferometer with the Mach-Zehnder dark
    port on its internal arm.

    Modes: 0 = idler arm (first amplifier output C, then detector output
    d1), 1 = probe arm (b_in -> dark port -> d2), 2 = coherent input of the
    embedded Mach-Zehnder.
    """
    _require(spec.topology is Topology.NESTED_SUI, "spec topology mismatch")
    _sui_common_checks(spec, "nested amplifier interferometer")
    g1, g2 = spec.gains
    ops = [_displace_op(2, spec.alpha)]
    ops.append(CircuitOp("two_mode_squeezer", (0, 1), (g1.G, g1.phase)))
    ops.extend(_mzi_block(spec, a_mode=2, b_mode=1, elide_linearized=True))
    ops.append(CircuitOp("phase_shifter", (0,), (spec.phi,)))
    ops.append(CircuitOp("two_mode_squeezer", (0, 1), (g2.G, g2.phase)))
    monitors = (Monitor("phase", 0, math.pi / 2), Monitor("amplitude", 1, 0.0))
    ops.extend(_detection_loss_ops(spec, (0, 1)))
    return CompiledCircuit(spec, 3, tuple(ops), monitors)


def build_degenerate_sui(spec: CircuitSpec) -> CompiledCircuit:
    """Degenerate (phase-sensitive) amplifier interferometer.

    Modes: 0 = probe arm (squeezed, encoded, re-amplified), 1 = coherent
    input of the embedded Mach-Zehnder.  The two monitored quadratures sit
    at theta2/2 and theta2/2 + pi/2; they read the two orthogonal
    modulation mixtures gamma_minus (amplified) and gamma_plus
    (de-amplified).
    """
    _require(spec.topology is Topology.DEGENERATE_SUI, "spec topology mismatch")
    _sui_common_checks(spec, "degenerate amplifier interferometer")
    g1, g2 = spec.gains
    ops = [_displace_op(1, spec.alpha)]
    stage_bounds = [("input", 1)]
    ops.append(CircuitOp("single_mode_squeezer", (0,), (g1.G, g1.phase)))
    stage_bounds.append(("after_first_amplifier", 2))
    ops.extend(_mzi_block(spec, a_mode=1, b_mode=0, elide_linearized=True))
    stage_bounds.append(("after_encoding", len(ops)))
    ops.append(CircuitOp("single_mode_squeezer", (0,), (g2.G, g2.phase)))
    stage_bounds.append(("output", len(ops)))
    half = g2.phase / 2.0
    monitors = (
        Monitor("mix_minus", 0, half),
        Monitor("mix_plus", 0, half + math.pi / 2),
    )
    ops.extend(_detection_loss_ops(spec, (0,)))
    return CompiledCircuit(spec, 2, tuple(ops), monitors, tuple(stage_bounds))


_BUILDERS = {
    Topology.DIRECT_HOMODYNE: build_direct_homodyne,
    Topology.MZI: build_mzi,
    Topology.NESTED_SUI: build_nested_sui,
    Topology.DEGENERATE_SUI: build_degenerate_sui,
}


def build_circuit(spec: CircuitSpec) -> CompiledCircuit:
    return _BUILDERS[spec.topology](spec)


@dataclass(frozen=True)
class StageSnapshot:
    """Single-mode state of the probe arm at one circuit stage, with its
    covariance ellipse (variances along principal axes, major-axis angle)."""

    label: str
    state: GaussianState
    center_x: float
    center_y: float
    major_variance: float
    minor_variance: float
    orientation: float


def _ellipse(block: np.ndarray) -> tuple[float, float, float]:
    evals, evecs = np.linalg.eigh(block)
    minor, major = float(evals[0]), float(evals[1])
    vec = evecs[:, 1]
    orientation = math.atan2(vec[1], vec[0]) % math.pi
    return major, minor, orientation


def stage_snapshots(spec: CircuitSpec) -> list[StageSnapshot]:
    """Probe-mode phase-space snapshots of the degenerate topology:
    input vacuum, squeezed, encoded, re-amplified."""
    if Topology(spec.topology) is not Topology.DEGENERATE_SUI:
        raise ValidationError(
            f"stage snapshots are defined for DEGENERATE_SUI only, got {spec.topology}"
        )
    circuit = build_circuit(spec)
    snapshots = []
    for label, upto in circuit.stage_bounds:
        state = evaluate_circuit(circuit, upto=upto)
        probe = state.reduced(0)
        major, minor, orientation = _ellipse(probe.cov)
        snapshots.append(
            StageSnapshot(
                label=label,
                state=probe,
                center_x=float(probe.mean[0]),
                center_y=float(probe.mean[1]),
                major_variance=major,
                minor_variance=minor,
                orientation=orientation,
            )
        )
    return snapshots
