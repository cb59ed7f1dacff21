"""Brute-force truncated Fock-space simulator used to cross-check the
Gaussian engine on small instances.

Each op's kind (:class:`qdmsim.circuits.ElementKind`) supplies its unitary
and its oracle envelope.  A kind that needs an ancilla (loss) couples the
mode to a fresh vacuum mode through a beam splitter; the ancilla is simply
kept in the (pure) joint state, so tracing out happens implicitly when
monitored-mode moments are evaluated.  Unitaries are block-sparse
(:class:`qdmsim.elements.BlockUnitary`) and are applied block by block to
the state's target-mode entries, so no operator over the whole two-mode
basis is formed.  A run keeps the unitaries it builds for its own repeated
elements only.  A failure while the circuit is checked or run names the
op's index and kind.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuits import (
    CircuitSpec,
    CompiledCircuit,
    ModulationMode,
    build_circuit,
    monitor_stats,
)
from .elements import BlockUnitary, _destroy
from .exceptions import NumericalError, TruncationError, ValidationError, annotate

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
        if self.cutoff < 4:
            raise ValidationError(f"cutoff must be >= 4, got {self.cutoff}")
        if not 0.0 < self.tail_threshold <= 1e-3:
            raise ValidationError(
                f"tail_threshold must lie in (0, 1e-3], got {self.tail_threshold}"
            )


def _apply_blocks(psi: np.ndarray, blocks, modes: tuple[int, ...]) -> np.ndarray:
    """Apply block-diagonal ``(indices, block)`` pairs over the flattened
    basis of ``modes`` (see :class:`qdmsim.elements.BlockUnitary`)."""
    k = len(modes)
    front = np.moveaxis(psi, modes, tuple(range(k)))
    flat = front.reshape(math.prod(front.shape[:k]), -1)
    out = np.empty_like(flat)
    for indices, block in blocks:
        out[indices] = block @ flat[indices]
    return np.moveaxis(out.reshape(front.shape), tuple(range(k)), modes)


def _quadrature_operator(angle: float, d: int) -> np.ndarray:
    a = _destroy(d)
    return a * np.exp(-1j * angle) + a.conj().T * np.exp(1j * angle)


class _FockRun:
    def __init__(self, circuit: CompiledCircuit, config: FockConfig):
        for index, op in enumerate(circuit.ops):
            try:
                op.kind.oracle_envelope(*op.params)
            except ValidationError as exc:
                raise annotate(exc, f"at op {index} ({op.kind.name})")
        total_modes = circuit.n_modes + sum(op.kind.ancilla for op in circuit.ops)
        if config.cutoff**total_modes > DIMENSION_GUARD:
            raise ValidationError(
                f"cutoff^modes = {config.cutoff}^{total_modes} exceeds the "
                f"dimension guard {DIMENSION_GUARD}"
            )
        self.circuit = circuit
        self.config = config
        self.d = config.cutoff
        psi = np.zeros((self.d,) * circuit.n_modes, dtype=complex)
        psi[(0,) * circuit.n_modes] = 1.0
        self.psi = psi
        self._unitaries: dict[tuple, BlockUnitary] = {}

    def _check_state(self, where: str) -> None:
        prob = np.abs(self.psi) ** 2
        norm = float(prob.sum())
        if abs(norm - 1.0) > NORM_TOL:
            raise NumericalError(f"state norm drifted to {norm!r} {where}")
        for mode in range(prob.ndim):
            tail = float(np.moveaxis(prob, mode, 0)[-2:].sum())
            if tail > self.config.tail_threshold:
                raise TruncationError(
                    f"tail mass {tail:.3e} in the top two levels of mode {mode} "
                    f"exceeds {self.config.tail_threshold:.1e}; raise the cutoff {where}",
                    tail_mass=tail,
                )

    def _apply_op(self, op) -> None:
        d = self.d
        key = (op.kind.unitary, op.params)
        if key not in self._unitaries:
            self._unitaries[key] = op.kind.unitary(*op.params, d)
        modes = op.modes
        if op.kind.ancilla:
            extended = np.zeros(self.psi.shape + (d,), dtype=complex)
            extended[..., 0] = self.psi
            self.psi = extended
            modes = (op.modes[0], self.psi.ndim - 1)
        self.psi = _apply_blocks(self.psi, self._unitaries[key].blocks, modes)

    def run(self) -> dict[str, tuple[float, float]]:
        for index, op in enumerate(self.circuit.ops):
            self._apply_op(op)
            self._check_state(f"at op {index} ({op.kind.name})")
        results = {}
        for mon in self.circuit.monitors:
            operator = _quadrature_operator(mon.angle, self.d)
            shifted = _apply_blocks(self.psi, ((np.arange(self.d), operator),), (mon.mode,))
            mean = float(np.vdot(self.psi, shifted).real)
            second = float(np.vdot(shifted, shifted).real)
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
    if not 0.0 < tolerance < math.inf:
        raise ValidationError(f"tolerance must be finite and positive, got {tolerance}")
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
