"""The optical elements of the interferometer circuits: Gaussian maps, and
the truncated Fock-space unitaries the oracle checks them with.

Sign conventions for the beam splitter follow the first-splitter row used
throughout the circuit assembly: A = sqrt(T) a + sqrt(R) b and
B = sqrt(T) b - sqrt(R) a.  The second splitter of a Mach-Zehnder is the
same element applied with its two modes swapped.

Every element is one formula over its parameters.  A parameter may be a
scalar or an array with one entry per batch slice; the map then carries
the matching batch axis (see :mod:`qdmsim.gaussian`), so a stack of
elements is built and checked as one map.

A unitary is the exponential of the element's generator at the cutoff,
taken block-wise over a conserved quantum number where there is one
(photon sum for splitters, photon difference and parity for amplifiers),
which is exact and keeps the work per block tiny.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import ValidationError
from .gaussian import GaussianMap

_EYE2 = np.eye(2)
_EYE4 = np.eye(4)
#: Multiplication by i in quadrature space (the rotation generator).
_J = np.array([[0.0, -1.0], [1.0, 0.0]])
#: Coupling of a splitter's two modes: +b into a, -a into b.
_SPLIT = np.kron(np.array([[0.0, 1.0], [-1.0, 0.0]]), _EYE2)
#: Quadrature images of a -> a† and a -> i a† (reflections), on one mode
#: and from each mode of a non-degenerate pair to its partner.
_CONJ = np.array([[1.0, 0.0], [0.0, -1.0]])
_CONJ_I = np.array([[0.0, 1.0], [1.0, 0.0]])
_PAIR_CONJ = np.kron(_CONJ_I, _CONJ)
_PAIR_CONJ_I = np.kron(_CONJ_I, _CONJ_I)
#: Oracle operating envelope: beyond this, truncation artifacts dominate.
MAX_ORACLE_GAIN = 1.6
MAX_ORACLE_ALPHA = 2.0


def _scale(value, matrix: np.ndarray) -> np.ndarray:
    """``value * matrix`` with a batch axis in front when ``value`` has one."""
    if isinstance(value, np.ndarray):
        value = value[..., None, None]
    return value * matrix


def _holds(condition) -> bool:
    """Whether a comparison holds, for every entry if it is elementwise."""
    return condition if isinstance(condition, bool) else bool(np.all(condition))


@dataclass(frozen=True)
class SplitterSpec:
    """Beam-splitter transmissivity; reflectivity is derived as 1 - T."""

    T: float

    def __post_init__(self):
        if not _holds((0.0 <= self.T) & (self.T <= 1.0)):
            raise ValidationError(f"transmissivity must lie in [0, 1], got {self.T}")

    @property
    def R(self) -> float:
        return 1.0 - self.T


@dataclass(frozen=True)
class PaGain:
    """Parametric amplifier gain G >= 1 with g = sqrt(G^2 - 1).

    ``phase`` is the pump phase for the non-degenerate amplifier and the
    squeezing angle theta for the degenerate one.
    """

    G: float
    phase: float = 0.0

    def __post_init__(self):
        if not _holds(self.G >= 1.0):
            raise ValidationError(f"amplifier gain must be >= 1, got {self.G}")

    @property
    def g(self) -> float:
        return np.sqrt(self.G * self.G - 1.0)


def _lossless(linear: np.ndarray) -> GaussianMap:
    size = linear.shape[-1]
    return GaussianMap(linear, np.zeros((size, size)), np.zeros(size))


def beam_splitter(spec: SplitterSpec) -> GaussianMap:
    """Two-mode splitter: out0 = sqrt(T) in0 + sqrt(R) in1, out1 = sqrt(T) in1 - sqrt(R) in0."""
    return _lossless(_scale(np.sqrt(spec.T), _EYE4) + _scale(np.sqrt(spec.R), _SPLIT))


def phase_shifter(phi: float) -> GaussianMap:
    """Single-mode rotation a -> a e^{i phi}."""
    return _lossless(_scale(np.cos(phi), _EYE2) + _scale(np.sin(phi), _J))


def loss_channel(transmission: float) -> GaussianMap:
    """Single-mode loss: mean -> sqrt(t) mean, cov -> t cov + (1 - t) I.

    Serves both for detection loss and for exact amplitude modulation with
    transmission e^{-2 eps}, where the replaced noise is the vacuum entering
    through the unused splitter port.
    """
    t = transmission
    if not _holds((0.0 < t) & (t <= 1.0)):
        raise ValidationError(f"transmission must lie in (0, 1], got {transmission}")
    return GaussianMap(_scale(np.sqrt(t), _EYE2), _scale(1.0 - t, _EYE2), np.zeros(2))


def _amplifier(gain: PaGain, identity, conj, conj_i) -> GaussianMap:
    """G identity + g (cos(phase) conj + sin(phase) conj_i): each output gets
    G times its input plus g e^{i phase} times the conjugate that ``conj``
    and ``conj_i`` route to it."""
    coupling = _scale(np.cos(gain.phase), conj) + _scale(np.sin(gain.phase), conj_i)
    return _lossless(_scale(gain.G, identity) + _scale(gain.g, coupling))


def two_mode_squeezer(gain: PaGain) -> GaussianMap:
    """Non-degenerate amplifier: out_i = G in_i + g e^{i phase} in_j† (j != i)."""
    return _amplifier(gain, _EYE4, _PAIR_CONJ, _PAIR_CONJ_I)


def single_mode_squeezer(gain: PaGain) -> GaussianMap:
    """Degenerate amplifier: out = G in + g e^{i theta} in†.

    Amplifies the quadrature along theta/2 by (G + g) and de-amplifies the
    orthogonal one by (G - g).
    """
    return _amplifier(gain, _EYE2, _CONJ, _CONJ_I)


def gain_envelope(G: float, phase: float) -> None:
    """Reject an amplifier gain the oracle cannot truncate faithfully."""
    if G > MAX_ORACLE_GAIN:
        raise ValidationError(f"oracle restricted to gains <= {MAX_ORACLE_GAIN}, got {G}")


def alpha_envelope(re: float, im: float) -> None:
    """Reject a displacement the oracle cannot truncate faithfully."""
    if abs(complex(re, im)) > MAX_ORACLE_ALPHA:
        raise ValidationError(f"oracle restricted to |alpha| <= {MAX_ORACLE_ALPHA}")


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


def displacement_unitary(re: float, im: float, d: int) -> np.ndarray:
    a = _destroy(d)
    alpha = complex(re, im)
    return _expm_antihermitian(alpha * a.conj().T - alpha.conjugate() * a)


def phase_unitary(phi: float, d: int) -> np.ndarray:
    return np.diag(np.exp(1j * phi * np.arange(d)))


def _pair(d: int):
    """Both annihilators of a mode pair, and each basis state's photon numbers."""
    a, eye = _destroy(d), np.eye(d)
    n0, n1 = np.divmod(np.arange(d * d), d)
    return np.kron(a, eye), np.kron(eye, a), n0, n1


def splitter_unitary(T: float, d: int) -> np.ndarray:
    mode0, mode1, n0, n1 = _pair(d)
    theta = math.atan2(math.sqrt(1.0 - T), math.sqrt(T))
    generator = theta * (mode0.conj().T @ mode1 - mode0 @ mode1.conj().T)
    return _expm_blocked(generator, n0 + n1)  # photon number conserved


def two_mode_squeezer_unitary(G: float, pump_phase: float, d: int) -> np.ndarray:
    mode0, mode1, n0, n1 = _pair(d)
    phase = np.exp(1j * pump_phase)
    generator = phase * mode0.conj().T @ mode1.conj().T - np.conj(phase) * mode0 @ mode1
    return _expm_blocked(math.acosh(G) * generator, n0 - n1)  # photon difference conserved


def single_mode_squeezer_unitary(G: float, theta: float, d: int) -> np.ndarray:
    a = _destroy(d)
    phase = np.exp(1j * theta)
    generator = phase * (a.conj().T @ a.conj().T) - np.conj(phase) * a @ a
    return _expm_blocked((math.acosh(G) / 2.0) * generator, np.arange(d) % 2)  # parity conserved
