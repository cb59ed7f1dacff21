"""Brute-force truncated Fock-space simulator used to cross-check the
Gaussian engine on small instances.

Every element unitary is built by dense eigendecomposition of its
anti-Hermitian generator at the given cutoff; two-mode generators are
exponentiated block-wise over their conserved quantum number (photon sum
for splitters, photon difference for non-degenerate amplifiers), which is
exact and keeps the work per block tiny.  Loss couples the mode to a fresh
vacuum ancilla through a beam splitter; the ancilla is simply kept in the
(pure) joint state, so tracing out happens implicitly when monitored-mode
moments are evaluated.  A run keeps the unitaries it builds (41 MB each for
two modes at cutoff 40) for its own repeated elements only.
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
from .exceptions import NumericalError, TruncationError, ValidationError

#: Hard cap on the truncated Hilbert-space dimension, ancillas included.
DIMENSION_GUARD = 2_000_000
#: Oracle operating envelope: beyond this, truncation artifacts dominate.
MAX_ORACLE_GAIN = 1.6
MAX_ORACLE_ALPHA = 2.0
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


def _destroy(d: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1.0, d)), 1)


def _expm_antihermitian(generator: np.ndarray) -> np.ndarray:
    hermitian = -1j * generator
    evals, evecs = np.linalg.eigh(hermitian)
    return (evecs * np.exp(1j * evals)) @ evecs.conj().T


def _expm_blocked(generator: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Exponentiate a generator that is block diagonal over integer labels."""
    unitary = np.zeros(generator.shape, dtype=complex)
    for lab in np.unique(labels):
        idx = np.where(labels == lab)[0]
        block = generator[np.ix_(idx, idx)]
        unitary[np.ix_(idx, idx)] = _expm_antihermitian(block)
    return unitary


def _displacement_unitary(re: float, im: float, d: int) -> np.ndarray:
    a = _destroy(d)
    alpha = complex(re, im)
    return _expm_antihermitian(alpha * a.conj().T - alpha.conjugate() * a)


def _phase_unitary(phi: float, d: int) -> np.ndarray:
    return np.diag(np.exp(1j * phi * np.arange(d)))


def _bs_unitary(T: float, d: int) -> np.ndarray:
    a = _destroy(d)
    eye = np.eye(d)
    mode0 = np.kron(a, eye)
    mode1 = np.kron(eye, a)
    theta = math.atan2(math.sqrt(1.0 - T), math.sqrt(T))
    generator = theta * (mode0.conj().T @ mode1 - mode0 @ mode1.conj().T)
    grid = np.arange(d)
    labels = (grid[:, None] + grid[None, :]).ravel()  # photon number conserved
    return _expm_blocked(generator, labels)


def _tms_unitary(G: float, pump_phase: float, d: int) -> np.ndarray:
    a = _destroy(d)
    eye = np.eye(d)
    mode0 = np.kron(a, eye)
    mode1 = np.kron(eye, a)
    r = math.acosh(G)
    phase = np.exp(1j * pump_phase)
    generator = r * (
        phase * mode0.conj().T @ mode1.conj().T - np.conj(phase) * mode0 @ mode1
    )
    grid = np.arange(d)
    labels = (grid[:, None] - grid[None, :]).ravel()  # photon difference conserved
    return _expm_blocked(generator, labels)


def _sms_unitary(G: float, theta: float, d: int) -> np.ndarray:
    a = _destroy(d)
    r = math.acosh(G)
    phase = np.exp(1j * theta)
    adag2 = a.conj().T @ a.conj().T
    generator = (r / 2.0) * (phase * adag2 - np.conj(phase) * a @ a)
    labels = np.arange(d) % 2  # parity conserved
    return _expm_blocked(generator, labels)


#: Unitary builder per op kind, called as builder(*op.params, cutoff).  Loss
#: is a beam splitter onto a vacuum ancilla.
_UNITARIES = {
    "displace": _displacement_unitary,
    "phase_shifter": _phase_unitary,
    "beam_splitter": _bs_unitary,
    "loss_channel": _bs_unitary,
    "two_mode_squeezer": _tms_unitary,
    "single_mode_squeezer": _sms_unitary,
}


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


def _count_loss_ops(circuit: CompiledCircuit) -> int:
    return sum(1 for op in circuit.ops if op.kind == "loss_channel")


def _validate_oracle_regime(circuit: CompiledCircuit) -> None:
    for op in circuit.ops:
        if op.kind in ("two_mode_squeezer", "single_mode_squeezer"):
            if op.params[0] > MAX_ORACLE_GAIN:
                raise ValidationError(
                    f"oracle restricted to gains <= {MAX_ORACLE_GAIN}, got {op.params[0]}"
                )
        if op.kind == "displace":
            if abs(complex(op.params[0], op.params[1])) > MAX_ORACLE_ALPHA:
                raise ValidationError(
                    f"oracle restricted to |alpha| <= {MAX_ORACLE_ALPHA}"
                )


class _FockRun:
    def __init__(self, circuit: CompiledCircuit, config: FockConfig):
        if circuit.n_modes > config.modes:
            raise ValidationError(
                f"circuit has {circuit.n_modes} modes, config admits {config.modes}"
            )
        _validate_oracle_regime(circuit)
        total_modes = circuit.n_modes + _count_loss_ops(circuit)
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

    def _check_state(self) -> None:
        norm = float(np.vdot(self.psi, self.psi).real)
        if abs(norm - 1.0) > NORM_TOL:
            raise NumericalError(f"state norm drifted to {norm!r}")
        for mode in range(self.psi.ndim):
            marginal = _mode_marginal(self.psi, mode)
            tail = float(marginal[-1] + marginal[-2])
            if tail > self.config.tail_threshold:
                raise TruncationError(
                    f"tail mass {tail:.3e} in the top two levels of mode {mode} "
                    f"exceeds {self.config.tail_threshold:.1e}; raise the cutoff",
                    tail_mass=tail,
                )

    def _apply_op(self, op) -> None:
        d = self.d
        builder = _UNITARIES.get(op.kind)
        if builder is None:
            raise ValidationError(f"oracle cannot execute op kind {op.kind!r}")
        key = (builder, op.params)
        if key not in self._unitaries:
            self._unitaries[key] = builder(*op.params, d)
        modes = op.modes
        if op.kind == "loss_channel":
            extended = np.zeros(self.psi.shape + (d,), dtype=complex)
            extended[..., 0] = self.psi
            self.psi = extended
            modes = (op.modes[0], self.psi.ndim - 1)
        self.psi = _apply_unitary(self.psi, self._unitaries[key], modes, d)

    def run(self) -> dict[str, tuple[float, float]]:
        for op in self.circuit.ops:
            self._apply_op(op)
            self._check_state()
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
