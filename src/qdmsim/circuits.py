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
T ~ 1 limit, which is the regime the closed-form results describe, and
stands for the whole embedded Mach-Zehnder, its input mode included.

Slopes: evaluation carries d mean/d(delta, eps) forward with the state,
seeded by the op that carries the modulation (``CircuitOp.carrier``), so
one evaluation gives every monitor's mean, variance and exact slopes.  At
the operating point, delta = eps = 0, the modulators' maps are exact
identities (``ElementKind.identity``): evaluation builds no map for them,
and the one that carries the modulation only adds its tangent columns.
Both engines refuse what :func:`check_wiring` refuses before they walk
the ops.  Each element map comes from a formula the tests certify over
the engine's envelope, and a non-finite parameter is refused at its op;
the ops run on bare arrays, and only the state the evaluation returns is
certified (in :func:`stage_snapshots`, the state at each stage), so a
failing state check names the last op, which formed that state.

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
from typing import Callable, Iterator, NamedTuple

import numpy as np

from . import elements
from .elements import (
    MAX_ALPHA,
    PaGain,
    SplitterSpec,
    beam_splitter,
    loss_channel,
    phase_shifter,
    single_mode_squeezer,
    two_mode_squeezer,
)
from .exceptions import NumericalError, ValidationError, annotate, check
from .gaussian import (
    GaussianMap,
    GaussianState,
    _apply_to_arrays,
    _check_finite,
    _selected_modes,
    displacement_map,
    quadrature_direction,
    quadrature_stats,
)

#: Small-modulation guard for the linearized treatment.
LINEAR_MOD_LIMIT = 0.1
#: ``CircuitOp.carrier`` of a physical modulator: it acts on the mode's own mean.
OWN_FIELD = "own_field"
_ALPHA_OVERFLOW = (f"alpha must have |alpha| <= {MAX_ALPHA:g}, the engine's envelope, "
                   "got alpha = ({}, {})")


def _is_grid(value) -> bool:
    """Whether a spec value holds one entry per grid point."""
    return isinstance(value, np.ndarray)


def _complex(re, im):
    """``complex(re, im)``, one per grid point where either part is an
    array; unlike ``re + 1j * im``, an infinite part meets no arithmetic."""
    value = np.empty(np.broadcast_shapes(np.shape(re), np.shape(im)), dtype=complex)
    value.real, value.imag = re, im
    return value if value.ndim else complex(value)


def _is_int(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_real(value) -> bool:
    """Whether ``value`` is a real number or a grid array of them."""
    if _is_grid(value):
        return value.dtype.kind in "iuf"
    return isinstance(value, (float, np.floating)) or _is_int(value)


def _sequence_of(values, accept) -> tuple | None:
    """``values`` as a tuple if it is a sequence whose items ``accept`` takes, else None."""
    try:
        items = tuple(values)
    except TypeError:
        return None
    return items if all(map(accept, items)) else None


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

    ``splitters``, ``gains`` and the internal phases ``phi`` (amplifier
    interferometer) and ``mzi_phi`` (Mach-Zehnder, 0 = dark fringe) are
    those :data:`TOPOLOGIES` says the topology takes; an unread phase keeps
    its default.  Gain phases are the squeezing angles theta1/theta2 in the
    degenerate case and pump phases (kept at zero) otherwise.  A LINEARIZED
    amplifier topology's encoding assumes T1 = T2 and ``mzi_phi = 0``, so
    its spec must hold both: every spec constructed compiles.

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
        try:
            object.__setattr__(self, "topology", Topology(self.topology))
        except ValueError:
            raise ValidationError(f"unknown topology {self.topology!r}; "
                                  f"one of {[t.value for t in Topology]}") from None
        try:
            object.__setattr__(self, "modulation_mode", ModulationMode(self.modulation_mode))
        except ValueError:
            raise ValidationError(f"unknown modulation_mode {self.modulation_mode!r}") from None
        alpha = self.alpha.astype(complex) if _is_grid(self.alpha) else complex(self.alpha)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "splitters", tuple(self.splitters))
        object.__setattr__(self, "gains", tuple(self.gains))
        for s in self.splitters:
            if not isinstance(s, SplitterSpec):
                raise ValidationError("splitters must be SplitterSpec instances")
        for g in self.gains:
            if not isinstance(g, PaGain):
                raise ValidationError("gains must be PaGain instances")
        # |alpha| <= MAX_ALPHA, scaled so that no intermediate overflows
        check(np.hypot(alpha.real / MAX_ALPHA, alpha.imag / MAX_ALPHA) <= 1.0,
              (alpha.real, alpha.imag), ValidationError, _ALPHA_OVERFLOW)
        loss = self.detection_loss
        check((0.0 < loss) & (loss <= 1.0), loss, ValidationError,
              "detection_loss must lie in (0, 1], got {}")
        if self.modulation_mode is ModulationMode.LINEARIZED:
            linear = (np.abs(self.delta) < LINEAR_MOD_LIMIT) & (np.abs(self.epsilon) < LINEAR_MOD_LIMIT)
            check(linear, (self.delta, self.epsilon), ValidationError,
                  f"linearized mode requires |delta|, |epsilon| < {LINEAR_MOD_LIMIT}, "
                  "got delta={}, epsilon={}")
        else:
            check(self.epsilon >= 0.0, self.epsilon, ValidationError,
                  "exact mode models amplitude modulation as loss, so epsilon >= 0")
        shape, name = TOPOLOGIES[self.topology], self.topology.value
        if len(self.splitters) not in shape.splitters:
            raise ValidationError(f"splitters must number {' or '.join(map(str, shape.splitters))} "
                                  f"on {name}, got {len(self.splitters)}")
        if len(self.gains) != shape.gains:
            raise ValidationError(f"gains must number {shape.gains} on {name}, got {len(self.gains)}")
        for field in ("phi", "mzi_phi"):
            if field not in shape.reads:
                value, default = getattr(self, field), self.__dataclass_fields__[field].default
                check(value == default, value, ValidationError,
                      f"{name} does not read {field}, so it must stay {default!r}, got {{}}")
        if self.modulation_mode is ModulationMode.LINEARIZED and shape.gains:
            t1, t2 = self.splitters[0].T, self.splitters[1].T
            check(t1 == t2, (t1, t2), ValidationError,
                  "linearized encoding assumes identical splitters, got T1={}, T2={}")
            check(self.mzi_phi == 0.0, self.mzi_phi, ValidationError,
                  "linearized encoding assumes the embedded interferometer at dark fringe, got mzi_phi={}")


@dataclass(frozen=True, eq=False)
class ElementKind:
    """One kind of circuit element: its Gaussian map, its Fock unitary
    (``unitary(*params, cutoff, basis)``, where ``basis(family, cutoff)``
    gives a :class:`qdmsim.elements.LadderBasis`), the checks its map runs
    on its parameters, which the oracle runs before its envelope check,
    all called with the op's parameters; the number of modes an op of the
    kind names, whether the oracle runs it on its mode and a fresh vacuum
    ancilla (loss), whether its unitary is diagonal in the number basis
    (the phase shifter), and the scalar parameters at which its map is
    exactly the identity (None if there are none worth naming)."""

    name: str
    gaussian_map: Callable[..., GaussianMap]
    unitary: Callable[..., elements.BlockUnitary]
    check_params: Callable[..., object]
    oracle_envelope: Callable[..., None] = lambda *params: None
    n_modes: int = 1
    ancilla: bool = False
    diagonal: bool = False
    identity: tuple[float, ...] | None = None

    def is_identity(self, params: tuple) -> bool:
        """Whether the map at ``params`` is exactly the identity; never for
        a grid parameter, which holds one value per grid point."""
        return (self.identity is not None and not any(map(_is_grid, params))
                and params == self.identity)


def _check_gain(G, phase) -> None:
    """The checks an amplifier's map runs: those of PaGain, and a finite phase."""
    elements._check_angle(PaGain(G, phase).phase, "amplifier phase")


def _check_displacement(re, im) -> None:
    """The check a displacement's map runs: a finite amplitude.  The sum of
    squares it starts from may overflow on a finite one, which the oracle's
    envelope then refuses."""
    with np.errstate(over="ignore"):
        _check_finite(np.array((re, im), dtype=float), 1, "displacement")


#: Every element kind by name.  The lambdas look the element functions up
#: in this module when called, where a caller may have wrapped them.
ELEMENT_KINDS = {kind.name: kind for kind in (
    ElementKind("beam_splitter", lambda T: beam_splitter(SplitterSpec(T)),
                elements.splitter_unitary, SplitterSpec, n_modes=2),
    ElementKind("phase_shifter", lambda phi: phase_shifter(phi), elements.phase_unitary,
                lambda phi: elements._check_angle(phi, "phase"), diagonal=True, identity=(0.0,)),
    ElementKind("loss_channel", lambda t: loss_channel(t), elements.splitter_unitary,
                elements._check_transmission, ancilla=True),
    ElementKind("two_mode_squeezer", lambda G, phase: two_mode_squeezer(PaGain(G, phase)),
                elements.two_mode_squeezer_unitary, _check_gain, elements.gain_envelope, n_modes=2),
    ElementKind("single_mode_squeezer", lambda G, theta: single_mode_squeezer(PaGain(G, theta)),
                elements.single_mode_squeezer_unitary, _check_gain, elements.gain_envelope),
    ElementKind("displace", lambda re, im: displacement_map(_complex(re, im)),
                elements.displacement_unitary, _check_displacement, elements.alpha_envelope,
                identity=(0.0, 0.0)),
)}


@dataclass(frozen=True)
class CircuitOp:
    """One placed element: kind, target modes and parameters.

    ``kind`` may be given as the name of an entry of :data:`ELEMENT_KINDS`.
    ``carrier`` marks the op that applies the modulation e^{i delta - eps}
    and names the field it multiplies: :data:`OWN_FIELD` for a physical
    modulator, the constant arm amplitude for a linearized displacement,
    ``None`` for every other op.  ``modes`` must be a sequence of ints and
    ``params`` one of real numbers; in a grid circuit a parameter or
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
        modes, params = _sequence_of(self.modes, _is_int), _sequence_of(self.params, _is_real)
        if modes is None:
            raise ValidationError(f"modes must be a sequence of ints, got {self.modes!r}")
        if params is None:
            raise ValidationError("params must be a sequence of real numbers or real grid arrays, "
                                  f"got {self.params!r}")
        object.__setattr__(self, "modes", tuple(map(int, modes)))
        object.__setattr__(self, "params", params)


@dataclass(frozen=True)
class Monitor:
    """A homodyne tap: output label, mode index and quadrature angle."""

    label: str
    mode: int
    angle: float


@dataclass(frozen=True)
class CompiledCircuit:
    """Ops and monitors compiled from a :class:`CircuitSpec`, or built by hand."""

    n_modes: int
    ops: tuple[CircuitOp, ...]
    monitors: tuple[Monitor, ...]
    #: (stage label, number of leading ops making up that stage) pairs,
    #: populated for the degenerate topology only.
    stage_bounds: tuple[tuple[str, int], ...] = ()


def unknown_output(label: str, labels) -> ValidationError:
    """The refusal of an output ``label`` that is not among a circuit's monitor ``labels``."""
    return ValidationError(f"unknown output {label!r}; circuit monitors: {', '.join(labels)}")


def check_wiring(circuit: CompiledCircuit) -> None:
    """Refuse what either engine would misread: an op on repeated modes, on
    a mode the circuit does not have or on a number of modes its kind does
    not act on; a carrier on an op of more than one mode; parameters that do
    not number those the kind's map takes; a monitor on a mode the circuit
    does not have, or none.  Both engines call it before they walk the ops."""
    n = circuit.n_modes
    for index, op in enumerate(circuit.ops):
        kind, count = op.kind, op.kind.gaussian_map.__code__.co_argcount
        try:
            _selected_modes(n, op.modes)
            if len(op.modes) != kind.n_modes:
                raise ValidationError(f"the element acts on {kind.n_modes} modes "
                                      f"but {len(op.modes)} were selected")
            if op.carrier is not None and kind.n_modes != 1:
                raise ValidationError("only an element on one mode may carry the modulation, "
                                      f"this one acts on {kind.n_modes}")
            if len(op.params) != count:
                raise ValidationError(f"the element takes {count} parameters "
                                      f"but {len(op.params)} were given")
        except ValidationError as exc:
            raise annotate(exc, f"at op {index} ({kind.name})")
    if not circuit.monitors:
        raise ValidationError("the circuit has no monitors")
    for mon in circuit.monitors:
        if not 0 <= mon.mode < n:
            raise ValidationError(f"monitor {mon.label!r}: mode {mon.mode} out of range for {n} modes")


def _tangent_source(op: CircuitOp, gmap: GaussianMap | None, mean: np.ndarray) -> np.ndarray:
    """d(output mean)/d(delta, eps) that ``op``, which carries the modulation,
    adds on its mode, given the ``mean`` before it; ``gmap`` is its map, None for an identity.

    The modulation multiplies a field v by e^{i delta - eps}, whose
    derivatives at zero are i v and -v, in quadratures J v and -v.  For a
    physical modulator v is the mode's mean after the op: the derivatives
    of the rotation and of the e^{-2 eps} loss at eps -> 0+.
    """
    if isinstance(op.carrier, str):  # OWN_FIELD
        field = mean[..., 2 * op.modes[0] : 2 * op.modes[0] + 2]
        if gmap is not None:
            field = (gmap.linear @ field[..., None])[..., 0] + gmap.displacement
    else:
        carrier = np.asarray(op.carrier, dtype=complex)
        field = np.stack((2.0 * carrier.real, 2.0 * carrier.imag), axis=-1)
    return np.stack(((elements._J @ field[..., None])[..., 0], -field), axis=-1)


def _states(circuit: CompiledCircuit) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The vacuum input's (mean, cov, tangent) arrays, then those after each
    op, as :func:`evaluate_circuit` computes them: no state checked."""
    check_wiring(circuit)
    dim = 2 * circuit.n_modes
    mean, cov, tangent = np.zeros(dim), np.eye(dim), np.zeros((dim, 2))
    yield mean, cov, tangent
    for index, op in enumerate(circuit.ops):
        try:
            # an array carrier stacks the state, which only the map's update does
            if op.kind.is_identity(op.params) and not _is_grid(op.carrier):
                if op.carrier is not None:  # on its one mode, as the identity map's update would
                    tangent = tangent.copy()
                    row = 2 * op.modes[0]
                    tangent[..., row : row + 2, :] += _tangent_source(op, None, mean)
            else:
                gmap = op.kind.gaussian_map(*op.params)
                source = None if op.carrier is None else _tangent_source(op, gmap, mean)
                mean, cov, tangent = _apply_to_arrays(mean, cov, tangent, gmap, op.modes, source)
        except (ValidationError, NumericalError) as exc:
            raise annotate(exc, f"at op {index} ({op.kind.name})")
        yield mean, cov, tangent


def _certified(circuit: CompiledCircuit, upto: int, arrays: tuple) -> GaussianState:
    """The state the first ``upto`` ops formed; a failing check names the last of them."""
    try:
        return GaussianState(*arrays)
    except (ValidationError, NumericalError) as exc:
        raise annotate(exc, f"at op {upto - 1} ({circuit.ops[upto - 1].kind.name})") if upto else exc


def evaluate_circuit(circuit: CompiledCircuit) -> GaussianState:
    """Run the compiled circuit on vacuum inputs.  The state's tangent holds
    d mean/d(delta, eps) at the circuit's modulation depths.  A grid
    circuit's state carries the batch axis from its first op with array
    parameters on.  An op whose map is exactly the identity builds none: it
    only adds its tangent columns if it carries the modulation.  A
    non-finite element parameter is refused at its op, and only the
    returned state is checked as a state; a failing check names the op's
    index and kind, the last op's for the state."""
    for arrays in _states(circuit):
        pass
    return _certified(circuit, len(circuit.ops), arrays)


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


def _displace_op(mode: int, amplitude: complex) -> CircuitOp:
    return CircuitOp("displace", (mode,), (amplitude.real, amplitude.imag))


def _anywhere(condition) -> bool:
    """Whether ``condition`` holds at any grid point, or at the one point."""
    return bool(condition.any()) if _is_grid(condition) else bool(condition)


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


def _mzi_block(spec: CircuitSpec, a_mode: int, b_mode: int) -> list[CircuitOp]:
    """Ops for the two-splitter Mach-Zehnder with modulators in arm B."""
    t1, t2 = spec.splitters[0], spec.splitters[1]
    ops = [CircuitOp("beam_splitter", (a_mode, b_mode), (t1.T,))]
    if spec.modulation_mode is ModulationMode.EXACT:
        ops.extend(_exact_modulator_ops(spec, b_mode, spec.mzi_phi + spec.delta))
    else:
        ops.append(CircuitOp("phase_shifter", (b_mode,), (spec.mzi_phi,)))
        # exp meets nan, not inf, where the phase is not finite: the phase shifter refuses it
        rotation = np.exp(1j * np.where(np.isfinite(spec.mzi_phi), spec.mzi_phi, np.nan))
        arm_mean = -np.sqrt(t1.R) * spec.alpha * rotation
        ops.append(_modulation_op(spec, b_mode, arm_mean))
    # second splitter: same element with the mode roles swapped
    ops.append(CircuitOp("beam_splitter", (b_mode, a_mode), (t2.T,)))
    return ops


def _embedded_mzi(spec: CircuitSpec, a_mode: int, b_mode: int) -> tuple[list, list]:
    """The embedded Mach-Zehnder's input ops and own ops; LINEARIZED mode
    elides both to one displacement of the arm-B mean field -sqrt(R) alpha."""
    if spec.modulation_mode is ModulationMode.LINEARIZED:
        return [], [_modulation_op(spec, b_mode, -np.sqrt(spec.splitters[0].R) * spec.alpha)]
    return [_displace_op(a_mode, spec.alpha)], _mzi_block(spec, a_mode, b_mode)


def _compiled(spec: CircuitSpec, ops: list[CircuitOp], taps: tuple[tuple[int, float], ...],
              stage_bounds=()) -> CompiledCircuit:
    """``ops``, then, if any point has ``detection_loss < 1``, that loss on
    each monitored mode: the circuit on modes 0 up to the highest it names.
    The (mode, angle) ``taps`` are the topology's outputs, in table order."""
    labels = TOPOLOGIES[spec.topology].outputs
    monitors = tuple(Monitor(label, *tap) for label, tap in zip(labels, taps, strict=True))
    if _anywhere(spec.detection_loss < 1.0):
        monitored = dict.fromkeys(mon.mode for mon in monitors)
        ops = ops + [CircuitOp("loss_channel", (m,), (spec.detection_loss,)) for m in monitored]
    n_modes = 1 + max([m for op in ops for m in op.modes] + [mon.mode for mon in monitors])
    return CompiledCircuit(n_modes, tuple(ops), monitors, tuple(stage_bounds))


def _build_direct_homodyne(spec: CircuitSpec) -> CompiledCircuit:
    """Modulators straight on the coherent beam, then a splitting BS onto
    two homodynes (phase channel transmitted, amplitude channel reflected)."""
    ops = [_displace_op(0, spec.alpha)]
    if spec.modulation_mode is ModulationMode.EXACT:
        ops.extend(_exact_modulator_ops(spec, 0, spec.delta))
    else:
        ops.append(_modulation_op(spec, 0, spec.alpha))
    ops.append(CircuitOp("beam_splitter", (0, 1), (spec.splitters[0].T,)))
    return _compiled(spec, ops, ((0, math.pi / 2), (1, 0.0)))


def _build_mzi(spec: CircuitSpec) -> CompiledCircuit:
    """Mach-Zehnder: coherent input on mode 0, vacuum on mode 1; the dark
    port comes back out on mode 1.  An optional third splitter splits the
    dark port onto separate phase/amplitude detectors."""
    ops = [_displace_op(0, spec.alpha)]
    ops.extend(_mzi_block(spec, a_mode=0, b_mode=1))
    if len(spec.splitters) == 3:
        ops.append(CircuitOp("beam_splitter", (1, 2), (spec.splitters[2].T,)))
    # phase on the dark port, mode 1; amplitude there too, or past the third splitter on mode 2
    return _compiled(spec, ops, ((1, math.pi / 2), (len(spec.splitters) - 1, 0.0)))


def _build_nested_sui(spec: CircuitSpec) -> CompiledCircuit:
    """Non-degenerate amplifier interferometer with the Mach-Zehnder dark
    port on its internal arm.

    Modes: 0 = idler arm (first amplifier output C, then detector output
    d1), 1 = probe arm (b_in -> dark port -> d2), 2 = coherent input of the
    embedded Mach-Zehnder, in EXACT mode only.
    """
    g1, g2 = spec.gains
    ops, mzi = _embedded_mzi(spec, a_mode=2, b_mode=1)
    ops.append(CircuitOp("two_mode_squeezer", (0, 1), (g1.G, g1.phase)))
    ops.extend(mzi)
    ops.append(CircuitOp("phase_shifter", (0,), (spec.phi,)))
    ops.append(CircuitOp("two_mode_squeezer", (0, 1), (g2.G, g2.phase)))
    return _compiled(spec, ops, ((0, math.pi / 2), (1, 0.0)))


def _build_degenerate_sui(spec: CircuitSpec) -> CompiledCircuit:
    """Degenerate (phase-sensitive) amplifier interferometer.

    Modes: 0 = probe arm (squeezed, encoded, re-amplified), 1 = coherent
    input of the embedded Mach-Zehnder, in EXACT mode only.  The two
    monitored quadratures sit at theta2/2 and theta2/2 + pi/2; they read
    the two orthogonal modulation mixtures gamma_minus (amplified) and
    gamma_plus (de-amplified).
    """
    g1, g2 = spec.gains
    ops, mzi = _embedded_mzi(spec, a_mode=1, b_mode=0)
    stage_bounds = [("input", len(ops))]
    ops.append(CircuitOp("single_mode_squeezer", (0,), (g1.G, g1.phase)))
    stage_bounds.append(("after_first_amplifier", len(ops)))
    ops.extend(mzi)
    stage_bounds.append(("after_encoding", len(ops)))
    ops.append(CircuitOp("single_mode_squeezer", (0,), (g2.G, g2.phase)))
    stage_bounds.append(("output", len(ops)))
    half = g2.phase / 2.0
    return _compiled(spec, ops, ((0, half), (0, half + math.pi / 2)), stage_bounds)


class _Shape(NamedTuple):
    """A topology's builder, splitter counts, gain count, phases it reads and output labels."""

    build: Callable[[CircuitSpec], CompiledCircuit]
    splitters: tuple[int, ...]
    gains: int
    reads: tuple[str, ...]
    outputs: tuple[str, ...]


#: Every topology's shape, the one place that says what a topology reads and monitors.
TOPOLOGIES = {
    Topology.DIRECT_HOMODYNE: _Shape(_build_direct_homodyne, (1,), 0, (), ("phase", "amplitude")),
    Topology.MZI: _Shape(_build_mzi, (2, 3), 0, ("mzi_phi",), ("phase", "amplitude")),
    Topology.NESTED_SUI: _Shape(_build_nested_sui, (2,), 2, ("phi", "mzi_phi"), ("phase", "amplitude")),
    Topology.DEGENERATE_SUI: _Shape(_build_degenerate_sui, (2,), 2, ("mzi_phi",), ("mix_minus", "mix_plus")),
}


def build_circuit(spec: CircuitSpec) -> CompiledCircuit:
    return TOPOLOGIES[spec.topology].build(spec)


@dataclass(frozen=True)
class StageSnapshot:
    """The probe arm's mean (x, y) at one circuit stage, with its covariance
    ellipse (variances along principal axes, major-axis angle)."""

    label: str
    center: tuple[float, float]
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
    circuit = build_circuit(spec)
    if not circuit.stage_bounds:
        raise ValidationError("stage snapshots are defined for DEGENERATE_SUI only, "
                              f"got {spec.topology.value}")
    states = list(_states(circuit))
    staged = [(label, _certified(circuit, upto, states[upto])) for label, upto in circuit.stage_bounds]
    return [StageSnapshot(label, tuple(s.mean[..., :2].tolist()), *_ellipse(s.cov[..., :2, :2]))
            for label, s in staged]
