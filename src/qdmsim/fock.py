"""Brute-force truncated Fock-space simulator used to cross-check the
Gaussian engine on small instances.

Each op's kind (:class:`qdmsim.circuits.ElementKind`) supplies its unitary
and the oracle's check of its parameters.  Unitaries are block-sparse
(:class:`qdmsim.elements.BlockUnitary`) and are applied block by block to
the state's target-mode entries, so no operator over the whole two-mode
basis is formed.  A run keeps the unitaries it builds for its own repeated
elements, and the eigenbasis of each ladder family it uses
(:class:`qdmsim.elements.LadderBasis`), so splitters and loss share one
diagonalisation and so do the two-mode squeezers; nothing outlives the run.

A run also owns two flat complex work buffers, each sized for its largest
possible state (``cutoff ** (modes + ancillas)``, bounded by
:data:`DIMENSION_GUARD`), an upper bound since an ancilla may keep fewer
levels.  Each op reads the state from one buffer and writes it into the
other: the reordered copy that brings the target modes to the front
(skipped when they already lead in memory), the op's output, and a
monitor's gathered mode all go into the buffer the state does not occupy,
so no op allocates a state-sized array.  The buffers live as long as the
run.

A kind that needs an ancilla (loss) couples the mode to a fresh vacuum
mode through a beam splitter.  Only the splitter's columns with the
ancilla in vacuum meet a nonzero amplitude, so just those are applied,
and the ancilla is then kept in the (pure) joint state to the end.  It
keeps only its levels 0..K-1: K is the fewest levels, at least 2, whose
top two and the dropped ones above hold at most
b = min(:data:`ANCILLA_TAIL`, tail threshold) of probability, found from
the mode's level populations before anything is written.  No later op
acts on an ancilla, so a dropped level would only have added its own
probability to the reduced states, and since b is at most the tail
threshold, the ancilla's tail check refuses exactly when a full-cutoff
axis would.  Mass that is not finite keeps every level.  A monitor reads
the three diagonals of its mode's reduced density matrix that the
tridiagonal truncated quadrature and its square touch, which traces the
ancillas and every other mode out.

A kind that is diagonal in the number basis (``ElementKind.diagonal``,
the phase shifter) is applied as one multiply along its mode's axis, and
a run applies it right after the last earlier op on its mode, or first
if there is none: e^{i phi n} on one mode commutes with every op on the
others, in the truncated space too, so it meets the smallest state, not
one that later ancillas have grown.  After every other op a check reads
the norm and the tail mass of the op's own modes and of the ancilla it
adds; the reduced state of every other mode is unchanged, so its tail was
checked before.  A diagonal op changes no modulus, so no check follows
it.

Before any buffer is allocated, a run refuses what
:func:`qdmsim.circuits.check_wiring` refuses, a grid parameter, and what
an op's check refuses: the checks its Gaussian map runs, in their words,
then the oracle's envelope.  So no parameter that is not finite reaches
the run, and a failure names the op's index and kind in the circuit.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import elements
from .circuits import (
    CircuitSpec,
    CompiledCircuit,
    ModulationMode,
    _is_grid,
    _is_int,
    build_circuit,
    check_wiring,
    monitor_stats,
)
from .exceptions import NumericalError, TruncationError, ValidationError, annotate, check

#: Hard cap on the truncated Hilbert-space dimension, ancillas included.
DIMENSION_GUARD = 2_000_000
NORM_TOL = 1e-9
#: Probability a loss's ancilla may hold in its top two kept levels and
#: the dropped ones above, capped by the tail threshold: 2^-53, half the
#: spacing of doubles at 1.
ANCILLA_TAIL = 2.0**-53


@dataclass(frozen=True)
class FockConfig:
    """Truncation settings: levels kept per mode and the tail-mass abort
    threshold for the top two levels.  The mode count is the circuit's own,
    bounded through :data:`DIMENSION_GUARD`."""

    cutoff: int
    tail_threshold: float = 1e-6

    def __post_init__(self):
        check(_is_int(self.cutoff), self.cutoff, ValidationError, "cutoff must be an integer, got {!r}")
        object.__setattr__(self, "cutoff", int(self.cutoff))  # no fixed-width overflow in cutoff**modes
        check(self.cutoff >= 4, self.cutoff, ValidationError, "cutoff must be >= 4, got {}")
        check(0.0 < self.tail_threshold <= 1e-3, self.tail_threshold, ValidationError,
              "tail_threshold must lie in (0, 1e-3], got {}")


class _Workspace:
    """Two flat complex buffers of ``size`` entries: each op reads the state
    from one and writes into the other."""

    def __init__(self, size: int):
        self.buffers = (np.empty(size, dtype=complex), np.empty(size, dtype=complex))

    def spare(self, array: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
        """A C-contiguous array of ``shape`` in the buffer that ``array`` does
        not lie in, so an array that is not the run's own is only read."""
        buffer = next(b for b in self.buffers if not np.may_share_memory(b, array))
        return buffer[: math.prod(shape)].reshape(shape)


def _to_front(psi: np.ndarray, modes: tuple[int, ...], work: _Workspace) -> np.ndarray:
    """``psi`` with ``modes`` moved to the front, as a C-contiguous matrix
    whose rows are the flat basis of ``modes`` (mode 0 the major axis): a
    view when they already lead in memory, else a copy in a spare buffer."""
    front = np.moveaxis(psi, modes, range(len(modes)))
    if not front.flags.c_contiguous:
        moved, front = front, work.spare(psi, front.shape)
        np.copyto(front, moved)
    return front.reshape(-1, math.prod(front.shape[len(modes) :]))


def _apply_diagonal(psi: np.ndarray, blocks, mode: int, work: _Workspace) -> np.ndarray:
    """Apply 1x1 blocks, one per level of ``mode`` (a unitary diagonal in the
    number basis), as one multiply along its axis with no reordered copy.
    The result lies in a spare buffer of ``work``, laid out like ``psi``."""
    diagonal = np.empty(psi.shape[mode], dtype=complex)
    for rows, block in blocks:
        diagonal[rows.start] = block[0, 0]
    # a spare buffer laid out like psi: its memory order of axes is psi's
    order = np.argsort(psi.strides)[::-1]
    out = work.spare(psi, tuple(np.take(psi.shape, order))).transpose(np.argsort(order))
    return np.multiply(psi, diagonal.reshape((-1,) + (1,) * (psi.ndim - 1 - mode)), out=out)


def _apply_blocks(psi: np.ndarray, blocks, modes: tuple[int, ...], work: _Workspace) -> np.ndarray:
    """Apply block-diagonal ``(rows, block)`` pairs over the flattened basis
    of ``modes`` (see :class:`qdmsim.elements.BlockUnitary`), each block's
    rows as one strided slice.  The axes of ``modes`` have the cutoff's
    length, and an ancilla's, which may be shorter, come after them, so
    moving ``modes`` to the front keeps the state's shape.  The result lies
    in a spare buffer of ``work``."""
    flat = _to_front(psi, modes, work)
    out = work.spare(flat, flat.shape)
    for rows, block in blocks:
        rows = slice(rows.start, rows.stop, rows.step)
        source, target = flat[rows], out[rows]
        if block.dtype.kind == "f":  # a real block maps real and imaginary parts alike
            source, target = source.view(float), target.view(float)
        np.matmul(block, source, out=target)
    return np.moveaxis(out.reshape(psi.shape), range(len(modes)), modes)


def _ancilla_levels(populations: np.ndarray, columns, bound: float) -> int:
    """How many levels of a loss's ancilla to keep: the fewest, at least 2,
    such that levels K - 2 and above hold at most ``bound``, or all of them.

    Level n of the lossy mode, of probability ``populations[n]``, leaves
    |c_n[n - k]|^2 of it in ancilla level k, for c_n its block's column in
    ``columns``.  Mass that is not finite keeps every level."""
    weights = np.zeros((len(columns), len(columns)))
    for n, column in enumerate(columns):
        weights[n, : n + 1] = np.abs(column[::-1]) ** 2
    tail = np.cumsum((populations @ weights)[::-1])[::-1]  # tail[k]: levels k and above
    if not math.isfinite(tail[0]):
        return len(columns)
    above = np.flatnonzero(tail > bound)
    return min(len(columns), int(above[-1]) + 3) if above.size else 2


def _apply_to_vacuum_ancilla(psi: np.ndarray, blocks, mode: int, work: _Workspace,
                             bound: float) -> np.ndarray:
    """Apply photon-sum blocks (see :func:`qdmsim.elements.photon_sum_family`)
    to ``mode`` and a fresh vacuum ancilla appended as the last axis.

    The only input states are |n, 0>, each the last state of block n, so
    each block contributes its last column times the amplitudes of level n
    of ``mode``; every other entry of the extended state, which lies in a
    spare buffer of ``work``, is zero.  The ancilla keeps only the levels
    that :func:`_ancilla_levels` asks for at ``bound``."""
    d = psi.shape[mode]
    front = _to_front(psi, (mode,), work)
    columns = [block[:, -1] for rows, block in blocks if rows[-1] % d == 0]  # block n, n < d
    parts = front.view(float)
    keep = _ancilla_levels(np.einsum("ij,ij->i", parts, parts), columns, bound)
    out = work.spare(front, (d * keep, front.shape[1]))
    out.fill(0.0)
    for n, column in enumerate(columns):
        # |n, 0> -> |j, n - j>, flat index j keep + n - j, for ancilla levels n - j < keep
        lo = max(0, n - keep + 1)
        rows = slice(lo * (keep - 1) + n, n * (keep - 1) + n + 1, keep - 1)
        np.multiply(column[lo:, None], front[n], out=out[rows])
    shape = (d, keep) + psi.shape[:mode] + psi.shape[mode + 1 :]
    return np.moveaxis(out.reshape(shape), (0, 1), (mode, psi.ndim))


def _reduced_diagonals(psi: np.ndarray, mode: int, work: _Workspace) -> tuple[np.ndarray, ...]:
    """The diagonals rho[n + k, n] = sum over the other modes of psi_{n + k}
    conj(psi_n), k = 0, 1, 2, of ``mode``'s reduced density matrix: those
    the tridiagonal truncated quadrature and its pentadiagonal square touch."""
    front = _to_front(psi, (mode,), work)
    return tuple(np.array([np.vdot(front[n], front[n + k]) for n in range(len(front) - k)])
                 for k in range(3))


def _moments(diagonals: tuple[np.ndarray, ...], angle: float) -> tuple[float, float]:
    """<X> and <X^2> of the truncated quadrature X = a e^{-i angle} + a† e^{i angle}
    from its mode's :func:`_reduced_diagonals`."""
    levels = np.arange(len(diagonals[0]) - 1.0)
    # <a> = sum_n sqrt(n + 1) rho[n + 1, n]; <a^2> = sum_n sqrt((n + 1)(n + 2)) rho[n + 2, n]
    mean = 2.0 * (np.exp(-1j * angle) * (np.sqrt(levels + 1.0) @ diagonals[1])).real
    # X^2 = a a† + a† a + (e^{-2i angle} a^2 + h.c.); truncated, a a† + a† a = 2n + 1
    # below the top level and n at it
    number = np.append(2.0 * levels + 1.0, len(levels))
    pairs = np.sqrt(levels[:-1] + 1.0) * np.sqrt(levels[:-1] + 2.0)
    second = number @ diagonals[0].real + 2.0 * (np.exp(-2j * angle) * (pairs @ diagonals[2])).real
    return float(mean), float(second)


def _schedule(ops) -> list[int]:
    """The order in which a run applies ``ops``: an op diagonal in the
    number basis, which commutes with every op on other modes, right after
    the last earlier op on its mode, or first if there is none, so it acts
    on the smallest state; every other op in circuit order."""
    anchor = {}  # mode -> index of the last op on it that stays in place
    keys = []
    for index, op in enumerate(ops):
        if op.kind.diagonal:
            keys.append((anchor.get(op.modes[0], -1), 1, index))
        else:
            anchor.update(dict.fromkeys(op.modes, index))
            keys.append((index, 0, index))
    return [index for *_, index in sorted(keys)]


class _FockRun:
    def __init__(self, circuit: CompiledCircuit, config: FockConfig):
        check_wiring(circuit)  # first: the checks need the parameter counts it checks
        for index, op in enumerate(circuit.ops):
            try:
                if any(map(_is_grid, op.params)):
                    raise ValidationError("the oracle runs one operating point, got a grid parameter")
                op.kind.check_params(*op.params)
                op.kind.oracle_envelope(*op.params)
            except ValidationError as exc:
                raise annotate(exc, f"at op {index} ({op.kind.name})")
        total_modes = circuit.n_modes + sum(op.kind.ancilla for op in circuit.ops)
        check(config.cutoff**total_modes <= DIMENSION_GUARD, (config.cutoff, total_modes),
              ValidationError,
              f"cutoff^modes = {{}}^{{}} exceeds the dimension guard {DIMENSION_GUARD}")
        self.circuit = circuit
        self.config = config
        d = config.cutoff
        self.work = _Workspace(d**total_modes)  # room for the state with every ancilla
        self.psi = self.work.buffers[0][: d**circuit.n_modes].reshape((d,) * circuit.n_modes)
        self.psi.fill(0.0)
        self.psi[(0,) * circuit.n_modes] = 1.0
        basis = functools.cache(elements.LadderBasis)
        self._unitary = functools.cache(lambda make, params: make(*params, d, basis))

    def _check_state(self, modes) -> None:
        """Refuse a norm off 1 and a tail mass above the threshold in the top
        two levels of each of ``modes``."""
        psi = self.psi
        # the state is a view of one contiguous array with its axes permuted;
        # read in that memory order, the norm is one contiguous dot product
        order = np.argsort(psi.strides)[::-1]
        contiguous = psi.transpose(order)
        norm = float(np.vdot(contiguous, contiguous).real)
        check(abs(norm - 1.0) <= NORM_TOL, norm, NumericalError, "state norm drifted to {!r}")
        threshold = self.config.tail_threshold
        axes = list(range(psi.ndim))
        position = np.argsort(order)
        for mode in sorted(modes):
            # the mode's top two levels as a strided float view: summed, not copied
            top = contiguous[(slice(None),) * position[mode] + (slice(-2, None),)].view(float)
            tail = float(np.einsum(top, axes, top, axes, []))
            check(tail <= threshold, (tail, mode, threshold), TruncationError,
                  "tail mass {:.3e} in the top two levels of mode {} exceeds {:.1e}; "
                  "raise the cutoff")

    def _apply_op(self, op) -> None:
        blocks = self._unitary(op.kind.unitary, op.params).blocks
        if op.kind.ancilla:
            bound = min(ANCILLA_TAIL, self.config.tail_threshold)
            self.psi = _apply_to_vacuum_ancilla(self.psi, blocks, op.modes[0], self.work, bound)
        elif op.kind.diagonal:
            self.psi = _apply_diagonal(self.psi, blocks, op.modes[0], self.work)
        else:
            self.psi = _apply_blocks(self.psi, blocks, op.modes, self.work)

    def run(self) -> dict[str, tuple[float, float]]:
        ops = self.circuit.ops
        for index in _schedule(ops):
            op = ops[index]
            try:
                self._apply_op(op)
                if not op.kind.diagonal:  # a diagonal op changes no norm or tail mass
                    # an op changes only its own modes' reduced states and adds its ancilla
                    self._check_state(op.modes + ((self.psi.ndim - 1,) if op.kind.ancilla else ()))
            except (ValidationError, NumericalError) as exc:
                raise annotate(exc, f"at op {index} ({op.kind.name})")
        results = {}
        diagonals = functools.cache(lambda mode: _reduced_diagonals(self.psi, mode, self.work))
        for mon in self.circuit.monitors:  # monitors on one mode share its diagonals
            mean, second = _moments(diagonals(mon.mode), mon.angle)
            results[mon.label] = (mean, second - mean * mean)
        return results


def _as_circuit(circuit_or_spec) -> CompiledCircuit:
    """Specs must use exact modulation; the linearized displacement
    encoding is a Gaussian-engine construct."""
    if not isinstance(circuit_or_spec, CircuitSpec):
        return circuit_or_spec
    if circuit_or_spec.modulation_mode is not ModulationMode.EXACT:
        raise ValidationError("the oracle validates exact-modulation circuits only")
    return build_circuit(circuit_or_spec)


def simulate_fock(circuit_or_spec, config: FockConfig) -> dict[str, tuple[float, float]]:
    """Evolve the circuit in truncated Fock space and return (mean, variance)
    per monitored quadrature."""
    return _FockRun(_as_circuit(circuit_or_spec), config).run()


@dataclass(frozen=True)
class MonitorDeviation:
    label: str
    gaussian_mean: float
    fock_mean: float
    gaussian_var: float
    fock_var: float

    @property
    def max_abs(self) -> float:
        return max(
            abs(self.gaussian_mean - self.fock_mean),
            abs(self.gaussian_var - self.fock_var),
        )


@dataclass(frozen=True)
class ComparisonReport:
    deviations: tuple[MonitorDeviation, ...]
    max_abs_deviation: float
    tolerance: float
    passed: bool


def compare_with_gaussian(
    circuit_or_spec, config: FockConfig, tolerance: float = 1e-4
) -> ComparisonReport:
    """Run both engines on the same circuit and report the worst absolute
    deviation over all monitored means and variances; the run passes when
    that deviation is below the finite, positive ``tolerance``."""
    check(0.0 < tolerance < math.inf, tolerance, ValidationError,
          "tolerance must be finite and positive, got {}")
    circuit = _as_circuit(circuit_or_spec)
    gaussian = monitor_stats(circuit)
    fock = _FockRun(circuit, config).run()
    rows = tuple(
        MonitorDeviation(
            label=mon.label,
            gaussian_mean=gaussian[mon.label][0],
            fock_mean=fock[mon.label][0],
            gaussian_var=gaussian[mon.label][1],
            fock_var=fock[mon.label][1],
        )
        for mon in circuit.monitors
    )
    worst = max(row.max_abs for row in rows)
    return ComparisonReport(rows, worst, tolerance, worst < tolerance)
