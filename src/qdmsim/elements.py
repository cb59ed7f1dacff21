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
Except for the phase shifter, every generator is a complex weight times
the real chain of such matrix elements, the same chain for every element
of one ladder family: a :class:`LadderBasis` diagonalises a family's
chains once, and each element then only exponentiates their eigenvalues.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .exceptions import ValidationError, check
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
#: The largest magnitude whose square is a finite float.
MAX_SQUARABLE = math.sqrt(sys.float_info.max)
_GAIN_OVERFLOW = f"amplifier gain G must be <= {MAX_SQUARABLE:.4e} for a finite G^2, got {{}}"


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
        check((0.0 <= self.T) & (self.T <= 1.0), self.T, ValidationError,
              "transmissivity must lie in [0, 1], got {}")

    @property
    def R(self) -> float:
        return 1.0 - self.T


@dataclass(frozen=True)
class PaGain:
    """Parametric amplifier gain G >= 1, with G^2 finite, and g = sqrt(G^2 - 1).

    ``phase`` is the pump phase for the non-degenerate amplifier and the
    squeezing angle theta for the degenerate one.
    """

    G: float
    phase: float = 0.0

    def __post_init__(self):
        check(self.G >= 1.0, self.G, ValidationError, "amplifier gain must be >= 1, got {}")
        check(self.G <= MAX_SQUARABLE, self.G, ValidationError, _GAIN_OVERFLOW)

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
    check((0.0 < t) & (t <= 1.0), t, ValidationError,
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
    check(G <= MAX_ORACLE_GAIN, G, ValidationError,
          f"oracle restricted to gains <= {MAX_ORACLE_GAIN}, got {{}}")


def alpha_envelope(re: float, im: float) -> None:
    """Reject a displacement the oracle cannot truncate faithfully (or NaN)."""
    check(abs(complex(re, im)) <= MAX_ORACLE_ALPHA, (), ValidationError,
          f"oracle restricted to |alpha| <= {MAX_ORACLE_ALPHA}")


@dataclass(frozen=True, eq=False)
class BlockUnitary:
    """A unitary on the flattened basis of its target modes (mode 0 the
    major axis), kept as the blocks of a conserved label.

    ``blocks`` holds ``(rows, block)`` pairs whose flat basis indices
    partition the basis exactly once; the unitary maps the entries
    ``rows`` of a state to ``block @ state[rows]``.  The basis states of
    one label are evenly spaced in the flat index, so ``rows`` is a
    ``range``.  A block is a real array where the unitary is real.
    """

    blocks: tuple[tuple[range, np.ndarray], ...]


class LadderBasis:
    """The eigenbasis of one ladder family at one cutoff.

    A ladder family lists, per block of its conserved label, the block's
    rows and the real, positive ``raising`` amplitudes of the step from
    each basis state of the block to the next.  An element of the family
    with weight w = |w| e^{i phi} has the block generator G with
    G[k + 1, k] = w raising[k] and G[k, k + 1] = -conj(w) raising[k], that
    is G = D (|w| A) D* with the real antisymmetric chain A of ``raising``
    and D = diag(e^{i k phi}); for a real w of either sign, G = w A.

    With the real symmetric chain C = V diag(lam) V^T of the same
    amplitudes, A = Q (-i C) Q* for Q = diag(i^k), so
    exp(s A) = Q V diag(e^{-i s lam}) V^T Q*.  That is real: cos(s C) has
    entries at even offsets k - l only and sin(s C) at odd ones, so
    exp(s A) = (V diag(cas(s lam)) V^T) * S entrywise, with cas = cos + sin
    and S[k, l] = Re i^(k - l) + Im i^(k - l), which is 1, 1, -1, -1 for
    k - l = 0, 1, 2, 3 mod 4.  The chains are diagonalised once here, and
    :meth:`unitary` only exponentiates the eigenvalues.
    """

    def __init__(self, family, d: int):
        blocks = []
        for rows, raising in family(d):
            chain = np.diag(raising, 1)
            blocks.append((rows, *np.linalg.eigh(chain + chain.T)))
        self.blocks = tuple(blocks)
        self._sizes = np.cumsum([0] + [len(values) for _, values, _ in blocks])
        self._values = np.concatenate([values for _, values, _ in blocks])
        steps = np.arange(max(np.diff(self._sizes)))
        self._offsets = steps[:, None] - steps
        self._signs = np.array([1.0, 1.0, -1.0, -1.0])[self._offsets % 4]

    def unitary(self, weight: complex) -> BlockUnitary:
        """exp of ``weight`` times the family's generator, block by block;
        the blocks are real when ``weight`` is."""
        weight = complex(weight)
        if weight.imag == 0.0:
            scale, pattern = weight.real, self._signs
        else:
            scale, pattern = abs(weight), self._signs * np.exp(1j * np.angle(weight) * self._offsets)
        cas = np.cos(scale * self._values) + np.sin(scale * self._values)
        blocks = []
        for (rows, values, vectors), lo, hi in zip(self.blocks, self._sizes, self._sizes[1:]):
            m = len(values)
            blocks.append((rows, ((vectors * cas[lo:hi]) @ vectors.T) * pattern[:m, :m]))
        return BlockUnitary(tuple(blocks))


def photon_sum_family(d: int):
    """Splitters and loss, theta (a0† a1 - a0 a1†): blocks of n0 + n1, each
    listed by ascending n0 (so a block's state with n1 = 0, if it holds
    one, is its last); a0† a1 |n0, n1> = sqrt(n0 + 1) sqrt(n1) |n0 + 1, n1 - 1>."""
    for total in range(2 * d - 1):
        lo, hi = max(0, total - d + 1), min(total, d - 1)
        n0 = np.arange(lo, hi)
        rows = range(lo * d + total - lo, hi * d + total - hi + 1, d - 1)
        yield rows, np.sqrt(n0 + 1.0) * np.sqrt(total - n0)


def photon_difference_family(d: int):
    """Two-mode squeezers, r (e^{i phase} a0† a1† - h.c.): blocks of n0 - n1;
    a0† a1† |n0, n1> = sqrt(n0 + 1) sqrt(n1 + 1) |n0 + 1, n1 + 1>."""
    for diff in range(1 - d, d):
        lo, hi = max(0, diff), d - 1 + min(0, diff)
        n0 = np.arange(lo, hi)
        rows = range(lo * (d + 1) - diff, hi * (d + 1) - diff + 1, d + 1)
        yield rows, np.sqrt(n0 + 1.0) * np.sqrt(n0 - diff + 1.0)


def parity_family(d: int):
    """Single-mode squeezers, (r / 2) (e^{i theta} a†² - h.c.): blocks of the
    photon-number parity; a†² |n> = sqrt(n + 1) sqrt(n + 2) |n + 2>."""
    for parity in (0, 1):
        n = np.arange(parity, d - 2, 2)
        yield range(parity, d, 2), np.sqrt(n + 1.0) * np.sqrt(n + 2.0)


def displacement_family(d: int):
    """Displacements, alpha a† - conj(alpha) a: one block over the whole
    basis; a† |n> = sqrt(n + 1) |n + 1>."""
    yield range(d), np.sqrt(np.arange(1.0, d))


def displacement_unitary(re: float, im: float, d: int, basis=LadderBasis) -> BlockUnitary:
    """``basis(family, d)`` gives the family's :class:`LadderBasis`; a run
    passes one that diagonalises each family once."""
    return basis(displacement_family, d).unitary(complex(re, im))


def phase_unitary(phi: float, d: int, basis=LadderBasis) -> BlockUnitary:
    """e^{i phi n} conserves the photon number n: one 1x1 block per level,
    diagonal already, so no ladder family (``basis`` is not used)."""
    phases = np.exp(1j * phi * np.arange(d))
    return BlockUnitary(tuple((range(n, n + 1), phases[n : n + 1, None]) for n in range(d)))


def splitter_unitary(T: float, d: int, basis=LadderBasis) -> BlockUnitary:
    """The splitter of transmissivity ``T``: photon-sum weight
    theta = atan(sqrt(R / T))."""
    theta = math.atan2(math.sqrt(1.0 - T), math.sqrt(T))
    return basis(photon_sum_family, d).unitary(theta)


def two_mode_squeezer_unitary(G: float, pump_phase: float, d: int, basis=LadderBasis) -> BlockUnitary:
    """Photon-difference weight acosh(G) e^{i pump_phase}."""
    return basis(photon_difference_family, d).unitary(math.acosh(G) * np.exp(1j * pump_phase))


def single_mode_squeezer_unitary(G: float, theta: float, d: int, basis=LadderBasis) -> BlockUnitary:
    """Parity weight (acosh(G) / 2) e^{i theta}."""
    return basis(parity_family, d).unitary((math.acosh(G) / 2.0) * np.exp(1j * theta))
