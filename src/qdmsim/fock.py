"""Brute-force truncated Fock-space simulator used to cross-check the
Gaussian engine on small instances.

Each op's kind (:class:`qdmsim.circuits.ElementKind`) supplies its unitary
and its oracle envelope.  A kind that needs an ancilla (loss) couples the
mode to a fresh vacuum mode through a beam splitter; the ancilla is simply
kept in the (pure) joint state, so tracing out happens implicitly when
monitored-mode moments are evaluated.  A run keeps the unitaries it builds
(41 MB each for two modes at cutoff 40) for its own repeated elements only.
A failure while the circuit is checked or run names the op's index and
kind.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuits import (
    CircuitSpec,
    CompiledCircuit,
    ModulationMode,
    build_circuit,
    monitor_stats,
)
from .elements import _destroy
from .exceptions import NumericalError, TruncationError, ValidationError, annotate

#: Hard cap on the truncated Hilbert-space dimension, ancillas included.
DIMENSION_GUARD = 2_000_000
NORM_TOL = 1e-9


@dataclass(frozen=True)
class FockConfig:
    """Truncation settings: levels kept per mode, admissible physical mode
    count, and the tail-mass abort threshold for the top two levels."""

    cutoff: int
    modes: int = 3
    tail_threshold: float = 1e-6

    def __post_init__(self):
        if self.cutoff < 4:
            raise ValidationError(f"cutoff must be >= 4, got {self.cutoff}")
        if not 1 <= self.modes <= 3:
            raise ValidationError(f"modes must lie in 1..3, got {self.modes}")
        if not 0.0 < self.tail_threshold <= 1e-3:
            raise ValidationError(
                f"tail_threshold must lie in (0, 1e-3], got {self.tail_threshold}"
            )


def _apply_unitary(psi: np.ndarray, unitary: np.ndarray, modes: tuple[int, ...], d: int):
    k = len(modes)
    reshaped = unitary.reshape((d,) * (2 * k))
    out = np.tensordot(reshaped, psi, axes=(tuple(range(k, 2 * k)), modes))
    return np.moveaxis(out, tuple(range(k)), modes)


def _mode_marginal(psi: np.ndarray, mode: int) -> np.ndarray:
    axes = tuple(ax for ax in range(psi.ndim) if ax != mode)
    return np.sum(np.abs(psi) ** 2, axis=axes)


def _quadrature_operator(angle: float, d: int) -> np.ndarray:
    a = _destroy(d)
    return a * np.exp(-1j * angle) + a.conj().T * np.exp(1j * angle)


class _FockRun:
    def __init__(self, circuit: CompiledCircuit, config: FockConfig):
        if circuit.n_modes > config.modes:
            raise ValidationError(
                f"circuit has {circuit.n_modes} modes, config admits {config.modes}"
            )
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
        self._unitaries: dict[tuple, np.ndarray] = {}

    def _check_state(self, where: str) -> None:
        norm = float(np.vdot(self.psi, self.psi).real)
        if abs(norm - 1.0) > NORM_TOL:
            raise NumericalError(f"state norm drifted to {norm!r} {where}")
        for mode in range(self.psi.ndim):
            marginal = _mode_marginal(self.psi, mode)
            tail = float(marginal[-1] + marginal[-2])
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
        self.psi = _apply_unitary(self.psi, self._unitaries[key], modes, d)

    def run(self) -> dict[str, tuple[float, float]]:
        for index, op in enumerate(self.circuit.ops):
            self._apply_op(op)
            self._check_state(f"at op {index} ({op.kind.name})")
        results = {}
        for mon in self.circuit.monitors:
            operator = _quadrature_operator(mon.angle, self.d)
            shifted = _apply_unitary(self.psi, operator, (mon.mode,), self.d)
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
    deviation over all monitored means and variances."""
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
