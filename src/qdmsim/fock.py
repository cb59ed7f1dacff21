"""Brute-force truncated Fock-space simulator used to cross-check the
Gaussian engine on small instances.

Each op's kind (:class:`qdmsim.circuits.ElementKind`) supplies its unitary
and its oracle envelope.  Unitaries are block-sparse
(:class:`qdmsim.elements.BlockUnitary`) and are applied block by block to
the state's target-mode entries, so no operator over the whole two-mode
basis is formed.  A run keeps the unitaries it builds for its own repeated
elements, and the eigenbasis of each ladder family it uses
(:class:`qdmsim.elements.LadderBasis`), so splitters and loss share one
diagonalisation and so do the two-mode squeezers; nothing outlives the run.

A kind that needs an ancilla (loss) couples the mode to a fresh vacuum
mode through a beam splitter.  Only the splitter's columns with the
ancilla in vacuum meet a nonzero amplitude, so just those are applied,
and the ancilla is then kept in the (pure) joint state to the end.  A
monitor reads the three diagonals of its mode's reduced density matrix
that the tridiagonal truncated quadrature and its square touch, which
traces the ancillas and every other mode out.  A failure while the
circuit is checked or run names the op's index and kind.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import elements
from .circuits import (
    CircuitSpec,
    CompiledCircuit,
    ModulationMode,
    build_circuit,
    monitor_stats,
)
from .exceptions import NumericalError, TruncationError, ValidationError, annotate, check

#: Hard cap on the truncated Hilbert-space dimension, ancillas included.
DIMENSION_GUARD = 2_000_000
NORM_TOL = 1e-9


@dataclass(frozen=True)
class FockConfig:
    """Truncation settings: levels kept per mode and the tail-mass abort
    threshold for the top two levels.  The mode count is the circuit's own,
    bounded through :data:`DIMENSION_GUARD`."""

    cutoff: int
    tail_threshold: float = 1e-6

    def __post_init__(self):
        check(self.cutoff >= 4, self.cutoff, ValidationError, "cutoff must be >= 4, got {}")
        check(0.0 < self.tail_threshold <= 1e-3, self.tail_threshold, ValidationError,
              "tail_threshold must lie in (0, 1e-3], got {}")


def _to_front(psi: np.ndarray, modes: tuple[int, ...]) -> np.ndarray:
    """``psi`` with ``modes`` moved to the front, as a C-contiguous matrix
    whose rows are the flat basis of ``modes`` (mode 0 the major axis)."""
    front = np.ascontiguousarray(np.moveaxis(psi, modes, range(len(modes))))
    return front.reshape(-1, math.prod(front.shape[len(modes) :]))


def _apply_blocks(psi: np.ndarray, blocks, modes: tuple[int, ...]) -> np.ndarray:
    """Apply block-diagonal ``(rows, block)`` pairs over the flattened
    basis of ``modes`` (see :class:`qdmsim.elements.BlockUnitary`); each
    block reads and writes its rows as one strided slice.  Every axis of
    a state has the cutoff's length."""
    flat = _to_front(psi, modes)
    out = np.empty_like(flat)
    for rows, block in blocks:
        rows = slice(rows.start, rows.stop, rows.step)
        source, target = flat[rows], out[rows]
        if block.dtype.kind == "f":  # a real block maps real and imaginary parts alike
            source, target = source.view(float), target.view(float)
        np.matmul(block, source, out=target)
    return np.moveaxis(out.reshape(psi.shape), range(len(modes)), modes)


def _apply_to_vacuum_ancilla(psi: np.ndarray, blocks, mode: int) -> np.ndarray:
    """Apply photon-sum blocks (see :func:`qdmsim.elements.photon_sum_family`)
    to ``mode`` and a fresh vacuum ancilla appended as the last axis.

    The only input states are |n, 0>, each the last state of block n, so
    each block contributes its last column times the amplitudes of level n
    of ``mode``; every other entry of the extended state is zero."""
    d = psi.shape[mode]
    front = _to_front(psi, (mode,))
    out = np.zeros((d * d, front.shape[1]), dtype=complex)
    for rows, block in blocks:
        level, ancilla = divmod(rows[-1], d)
        if ancilla == 0:
            rows = slice(rows.start, rows.stop, rows.step)
            np.multiply(block[:, -1:], front[level], out=out[rows])
    return np.moveaxis(out.reshape((d,) * (psi.ndim + 1)), (0, 1), (mode, psi.ndim))


def _quadrature_moments(psi: np.ndarray, mode: int, angle: float) -> tuple[float, float]:
    """<X> and <X^2> of the truncated quadrature X = a e^{-i angle} + a† e^{i angle}
    on ``mode``, from the three diagonals of the mode's reduced density
    matrix that the tridiagonal X and the pentadiagonal X^2 touch."""
    d = psi.shape[mode]
    front = _to_front(psi, (mode,))
    levels = np.arange(d - 1.0)

    def diagonal(offset: int) -> np.ndarray:
        # rho[n + offset, n] = sum over the other modes of psi_{n + offset} conj(psi_n)
        return np.array([np.vdot(front[n], front[n + offset]) for n in range(d - offset)])

    # <a> = sum_n sqrt(n + 1) rho[n + 1, n]; <a^2> = sum_n sqrt((n + 1)(n + 2)) rho[n + 2, n]
    mean = 2.0 * (np.exp(-1j * angle) * (np.sqrt(levels + 1.0) @ diagonal(1))).real
    # X^2 = a a† + a† a + (e^{-2i angle} a^2 + h.c.); truncated, a a† + a† a = 2n + 1
    # below the top level and n at it
    number = np.append(2.0 * levels + 1.0, d - 1.0)
    pairs = np.sqrt(levels[:-1] + 1.0) * np.sqrt(levels[:-1] + 2.0)
    second = number @ diagonal(0).real + 2.0 * (np.exp(-2j * angle) * (pairs @ diagonal(2))).real
    return float(mean), float(second)


class _FockRun:
    def __init__(self, circuit: CompiledCircuit, config: FockConfig):
        for index, op in enumerate(circuit.ops):
            try:
                op.kind.oracle_envelope(*op.params)
            except ValidationError as exc:
                raise annotate(exc, f"at op {index} ({op.kind.name})")
        total_modes = circuit.n_modes + sum(op.kind.ancilla for op in circuit.ops)
        check(config.cutoff**total_modes <= DIMENSION_GUARD, (config.cutoff, total_modes),
              ValidationError,
              f"cutoff^modes = {{}}^{{}} exceeds the dimension guard {DIMENSION_GUARD}")
        self.circuit = circuit
        self.config = config
        self.d = config.cutoff
        psi = np.zeros((self.d,) * circuit.n_modes, dtype=complex)
        psi[(0,) * circuit.n_modes] = 1.0
        self.psi = psi
        self._unitaries: dict[tuple, elements.BlockUnitary] = {}
        self._bases: dict[tuple, elements.LadderBasis] = {}

    def _basis(self, family, d: int) -> elements.LadderBasis:
        """The run's eigenbasis of ``family``: diagonalised on first use."""
        key = (family, d)
        if key not in self._bases:
            self._bases[key] = elements.LadderBasis(family, d)
        return self._bases[key]

    def _check_state(self) -> None:
        psi = self.psi
        # the state is a view of one contiguous array with its axes permuted;
        # read in that memory order, the norm is one contiguous dot product
        contiguous = psi.transpose(np.argsort(psi.strides)[::-1])
        norm = float(np.vdot(contiguous, contiguous).real)
        check(abs(norm - 1.0) <= NORM_TOL, norm, NumericalError, "state norm drifted to {!r}")
        threshold = self.config.tail_threshold
        for mode in range(psi.ndim):
            top = np.moveaxis(psi, mode, 0)[-2:]
            tail = float(np.vdot(top, top).real)
            check(tail <= threshold, (tail, mode, threshold), TruncationError,
                  "tail mass {:.3e} in the top two levels of mode {} exceeds {:.1e}; "
                  "raise the cutoff")

    def _apply_op(self, op) -> None:
        key = (op.kind.unitary, op.params)
        if key not in self._unitaries:
            self._unitaries[key] = op.kind.unitary(*op.params, self.d, self._basis)
        blocks = self._unitaries[key].blocks
        if op.kind.ancilla:
            self.psi = _apply_to_vacuum_ancilla(self.psi, blocks, op.modes[0])
        else:
            self.psi = _apply_blocks(self.psi, blocks, op.modes)

    def run(self) -> dict[str, tuple[float, float]]:
        for index, op in enumerate(self.circuit.ops):
            try:
                self._apply_op(op)
                self._check_state()
            except (ValidationError, NumericalError) as exc:
                raise annotate(exc, f"at op {index} ({op.kind.name})")
        results = {}
        for mon in self.circuit.monitors:
            mean, second = _quadrature_moments(self.psi, mon.mode, mon.angle)
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
