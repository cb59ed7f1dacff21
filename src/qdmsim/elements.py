"""The optical elements of the interferometer circuits: Gaussian maps, and
the truncated Fock-space unitaries the oracle checks them with.

Sign conventions for the beam splitter follow the first-splitter row used
throughout the circuit assembly: A = sqrt(T) a + sqrt(R) b and
B = sqrt(T) b - sqrt(R) a.  The second splitter of a Mach-Zehnder is the
same element applied with its two modes swapped.

Every element is one formula over its parameters.  A parameter may be a
scalar or an array with one entry per batch slice; the map then carries
the matching batch axis (see :mod:`qdmsim.gaussian`), so the element of
a whole sweep grid is built and checked as one map.  A parameter check
names the first failing slice, as the map checks do.

A unitary is the exponential of the element's generator at the cutoff,
kept as a :class:`BlockUnitary`: one block per value of a conserved
quantum number where there is one (photon sum for splitters and loss,
photon difference for the two-mode squeezer, parity for the single-mode
squeezer, photon number for the phase shifter), one block over the whole
basis for the displacement.  Each block's generator is written down from
the ladder-operator matrix elements between the basis states of that
block below the cutoff, which is the truncation, so the generator and the
unitary over the whole cutoff^2 basis of two modes are never formed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import ValidationError
from .gaussian import GaussianMap, _check

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


@dataclass(frozen=True)
class SplitterSpec:
    """Beam-splitter transmissivity; reflectivity is derived as 1 - T."""

    T: float

    def __post_init__(self):
        _check(np.logical_not((0.0 <= self.T) & (self.T <= 1.0)), self.T, ValidationError,
               "transmissivity must lie in [0, 1], got {}")

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
        _check(np.logical_not(self.G >= 1.0), self.G, ValidationError,
               "amplifier gain must be >= 1, got {}")

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
    _check(np.logical_not((0.0 < t) & (t <= 1.0)), t, ValidationError,
           "transmission must lie in (0, 1], got {}")
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
    """Reject an amplifier gain the oracle cannot truncate faithfully (or NaN)."""
    if not G <= MAX_ORACLE_GAIN:
        raise ValidationError(f"oracle restricted to gains <= {MAX_ORACLE_GAIN}, got {G}")


def alpha_envelope(re: float, im: float) -> None:
    """Reject a displacement the oracle cannot truncate faithfully (or NaN)."""
    if not abs(complex(re, im)) <= MAX_ORACLE_ALPHA:
        raise ValidationError(f"oracle restricted to |alpha| <= {MAX_ORACLE_ALPHA}")


def _destroy(d: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1.0, d)), 1)


@dataclass(frozen=True, eq=False)
class BlockUnitary:
    """A unitary on the flattened basis of its target modes (mode 0 the
    major axis), kept as the blocks of a conserved label.

    ``blocks`` holds ``(indices, block)`` pairs whose flat basis indices
    partition the basis exactly once; the unitary maps the entries
    ``indices`` of a state to ``block @ state[indices]``.
    """

    blocks: tuple[tuple[np.ndarray, np.ndarray], ...]


def _expm_antihermitian(generator: np.ndarray) -> np.ndarray:
    hermitian = -1j * generator
    evals, evecs = np.linalg.eigh(hermitian)
    return (evecs * np.exp(1j * evals)) @ evecs.conj().T


def _ladder_block(raising: np.ndarray) -> np.ndarray:
    """Exponential of the antihermitian generator that takes the i-th basis
    state of a block to the next with amplitude ``raising[i]`` (and back
    with ``-conj(raising[i])``)."""
    size = len(raising) + 1
    generator = np.zeros((size, size), dtype=complex)
    step = np.arange(size - 1)
    generator[step + 1, step] = raising
    generator[step, step + 1] = -np.conj(raising)
    return _expm_antihermitian(generator)


def displacement_unitary(re: float, im: float, d: int) -> BlockUnitary:
    a = _destroy(d)
    alpha = complex(re, im)
    block = _expm_antihermitian(alpha * a.conj().T - alpha.conjugate() * a)
    return BlockUnitary(((np.arange(d), block),))


def phase_unitary(phi: float, d: int) -> BlockUnitary:
    """e^{i phi n} conserves the photon number n: one 1x1 block per level."""
    levels = np.arange(d)
    phases = np.exp(1j * phi * levels)
    return BlockUnitary(tuple((levels[n : n + 1], phases[n : n + 1, None]) for n in levels))


def splitter_unitary(T: float, d: int) -> BlockUnitary:
    """theta (a0† a1 - a0 a1†) conserves the photon number n0 + n1; inside a
    block, a0† a1 |n0, n1> = sqrt(n0 + 1) sqrt(n1) |n0 + 1, n1 - 1>."""
    theta = math.atan2(math.sqrt(1.0 - T), math.sqrt(T))
    blocks = []
    for total in range(2 * d - 1):
        n0 = np.arange(max(0, total - d + 1), min(total, d - 1) + 1)
        n1 = total - n0
        raising = np.sqrt(n0[:-1] + 1.0) * np.sqrt(n1[:-1])
        blocks.append((n0 * d + n1, _ladder_block(theta * raising)))
    return BlockUnitary(tuple(blocks))


def two_mode_squeezer_unitary(G: float, pump_phase: float, d: int) -> BlockUnitary:
    """r (e^{i phase} a0† a1† - h.c.) conserves the photon difference n0 - n1;
    inside a block, a0† a1† |n0, n1> = sqrt(n0 + 1) sqrt(n1 + 1) |n0 + 1, n1 + 1>."""
    weight = math.acosh(G) * np.exp(1j * pump_phase)
    blocks = []
    for diff in range(1 - d, d):
        n0 = np.arange(max(0, diff), d + min(0, diff))
        n1 = n0 - diff
        raising = np.sqrt(n0[:-1] + 1.0) * np.sqrt(n1[:-1] + 1.0)
        blocks.append((n0 * d + n1, _ladder_block(weight * raising)))
    return BlockUnitary(tuple(blocks))


def single_mode_squeezer_unitary(G: float, theta: float, d: int) -> BlockUnitary:
    """(r / 2) (e^{i theta} a†² - h.c.) conserves the photon-number parity;
    inside a block, a†² |n> = sqrt(n + 1) sqrt(n + 2) |n + 2>."""
    weight = (math.acosh(G) / 2.0) * np.exp(1j * theta)
    blocks = []
    for parity in (0, 1):
        n = np.arange(parity, d, 2)
        raising = np.sqrt(n[:-1] + 1.0) * np.sqrt(n[:-1] + 2.0)
        blocks.append((n, _ladder_block(weight * raising)))
    return BlockUnitary(tuple(blocks))
