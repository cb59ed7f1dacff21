"""The optical elements of the interferometer circuits: Gaussian maps, and
the truncated Fock-space unitaries the oracle checks them with.

Sign conventions for the beam splitter follow the first-splitter row used
throughout the circuit assembly: A = sqrt(T) a + sqrt(R) b and
B = sqrt(T) b - sqrt(R) a.  The second splitter of a Mach-Zehnder is the
same element applied with its two modes swapped.

Every element is one formula over its parameters.  A parameter may be a
scalar or an array with one entry per batch slice; the map then carries
the matching batch axis (see :mod:`qdmsim.gaussian`), so the element of
a whole sweep grid is built as one map.  Its parameters are checked
first, a non-finite angle included, and a check names the first failing
slice.  The map is built by :meth:`GaussianMap._from_formula`, without
the validity checks that ``GaussianMap(...)`` runs on any other map:
the tests certify each formula once over the engine's envelope
(``MAX_GAIN``, ``MAX_ALPHA``), where its rounding stays far below the
checks' tolerance (Higham, Accuracy and Stability of Numerical
Algorithms, 2nd ed., ch. 3).

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
A palindromic chain, as every photon-sum chain is, splits by its reversal
symmetry into two half-size problems (one for an even length), and the
chains of one size are solved together, one stacked call per part.
"""

from __future__ import annotations

import math
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
#: The engine's envelope, refused at load: the largest entry the engine
#: forms is a covariance entry of order |alpha|^2 G1^2 G2^2 <= 1e40, far
#: inside the float range.
MAX_GAIN = 1e6
MAX_ALPHA = 1e8
_GAIN_OVERFLOW = f"amplifier gain G must be <= {MAX_GAIN:g}, the engine's envelope, got {{}}"


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
    """Parametric amplifier gain 1 <= G <= MAX_GAIN, and g = sqrt(G^2 - 1).

    ``phase`` is the pump phase for the non-degenerate amplifier and the
    squeezing angle theta for the degenerate one.
    """

    G: float
    phase: float = 0.0

    def __post_init__(self):
        check(self.G >= 1.0, self.G, ValidationError, "amplifier gain must be >= 1, got {}")
        check(self.G <= MAX_GAIN, self.G, ValidationError, _GAIN_OVERFLOW)

    @property
    def g(self) -> float:
        return np.sqrt(self.G * self.G - 1.0)


def _check_angle(angle, name: str) -> None:
    """Refuse a non-finite angle before cos and sin warn about it."""
    check(np.isfinite(angle), angle, ValidationError, f"{name} must be finite, got {{}}")


def _check_transmission(t) -> None:
    check((0.0 < t) & (t <= 1.0), t, ValidationError, "transmission must lie in (0, 1], got {}")


def _lossless(linear: np.ndarray) -> GaussianMap:
    size = linear.shape[-1]
    return GaussianMap._from_formula(linear, np.zeros((size, size)), np.zeros(size))


def beam_splitter(spec: SplitterSpec) -> GaussianMap:
    """Two-mode splitter: out0 = sqrt(T) in0 + sqrt(R) in1, out1 = sqrt(T) in1 - sqrt(R) in0."""
    return _lossless(_scale(np.sqrt(spec.T), _EYE4) + _scale(np.sqrt(spec.R), _SPLIT))


def phase_shifter(phi: float) -> GaussianMap:
    """Single-mode rotation a -> a e^{i phi}."""
    _check_angle(phi, "phase")
    return _lossless(_scale(np.cos(phi), _EYE2) + _scale(np.sin(phi), _J))


def loss_channel(transmission: float) -> GaussianMap:
    """Single-mode loss: mean -> sqrt(t) mean, cov -> t cov + (1 - t) I.

    Serves both for detection loss and for exact amplitude modulation with
    transmission e^{-2 eps}, where the replaced noise is the vacuum entering
    through the unused splitter port.
    """
    t = transmission
    _check_transmission(t)
    return GaussianMap._from_formula(_scale(np.sqrt(t), _EYE2), _scale(1.0 - t, _EYE2), np.zeros(2))


def _amplifier(gain: PaGain, identity, conj, conj_i) -> GaussianMap:
    """G identity + g (cos(phase) conj + sin(phase) conj_i): each output gets
    G times its input plus g e^{i phase} times the conjugate that ``conj``
    and ``conj_i`` route to it."""
    _check_angle(gain.phase, "amplifier phase")
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
    ``range``.  A block is a real array where the unitary is real; labels
    may share one, so blocks are only read.
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
    k - l = 0, 1, 2, 3 mod 4.  The chains are diagonalised once here (see
    :func:`_eigenpairs`), and :meth:`unitary` only exponentiates the
    eigenvalues, once per distinct chain (those of photon difference +k
    and -k are equal bit for bit).
    """

    def __init__(self, family, d: int):
        chains = {}  # chain bytes -> raising amplitudes
        self._layout = []  # (rows, chain bytes) per block
        for rows, raising in family(d):
            key = raising.tobytes()
            chains.setdefault(key, raising)
            self._layout.append((rows, key))
        self._eigen = _eigenpairs(chains)  # chain bytes -> (eigenvalues, eigenvectors)
        self._sizes = np.cumsum([0] + [len(values) for values, _ in self._eigen.values()])
        self._values = np.concatenate([values for values, _ in self._eigen.values()])
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
        distinct = {}
        for (key, (values, vectors)), lo, hi in zip(self._eigen.items(), self._sizes, self._sizes[1:]):
            m = len(values)
            distinct[key] = ((vectors * cas[lo:hi]) @ vectors.T) * pattern[:m, :m]
        return BlockUnitary(tuple((rows, distinct[key]) for rows, key in self._layout))


def _chains(steps: np.ndarray) -> np.ndarray:
    """The stack of real symmetric chains, zero on the diagonal, with
    (k, s - 1) ``steps`` on the first off-diagonals."""
    k, s = len(steps), steps.shape[1] + 1
    stack = np.zeros((k, s, s))
    flat = stack.reshape(k, s * s)
    flat[:, 1 :: s + 1] = flat[:, s :: s + 1] = steps
    return stack


def _halves(raising: np.ndarray) -> tuple[np.ndarray, ...]:
    """The half-size problems of a stack of palindromic chains C of
    (k, m - 1) ``raising`` amplitudes, of size m = 2h or 2h + 1 >= 2.

    C commutes with the reversal, so it is block diagonal in the basis
    (e_j + e_{m-1-j}) / sqrt(2), j < h (and e_h for odd m), of symmetric
    vectors and (e_j - e_{m-1-j}) / sqrt(2) of antisymmetric ones.  Both
    blocks are the chain of raising[:h - 1], plus the middle step: for even
    m, +-raising[h - 1] on the last diagonal entry; for odd m, a step of
    sqrt(2) raising[h - 1] to one more state in the symmetric block and
    nothing in the antisymmetric one.  For even m only the symmetric block
    is returned (see :func:`_unfold`)."""
    h = (raising.shape[1] + 1) // 2
    steps = raising[:, : h - 1]
    if raising.shape[1] % 2:  # even m
        symmetric = _chains(steps)
        symmetric[:, -1, -1] = raising[:, h - 1]
        return (symmetric,)
    middle = math.sqrt(2.0) * raising[:, h - 1 : h]
    return _chains(np.concatenate((steps, middle), axis=1)), _chains(steps)


def _unfold(m: int, symmetric, antisymmetric=None) -> tuple[np.ndarray, np.ndarray]:
    """The eigenpairs of a stack of palindromic chains of size ``m`` from
    those of their :func:`_halves`, symmetric vectors first.  For even m
    the antisymmetric block is -S (symmetric block) S with S = diag((-1)^j),
    since the chain's diagonal is zero: its eigenpairs are the symmetric
    block's with the values and the vectors' odd rows negated."""
    h = m // 2
    values, halves = symmetric
    k = values.shape[1]
    vectors = np.empty((len(values), m, m))
    vectors[:, :h, :k] = halves[:, :h]
    if antisymmetric is None:
        opposite = -values
        vectors[:, :h, k:] = halves
        vectors[:, 1:h:2, k:] *= -1.0
    else:
        opposite, antihalves = antisymmetric
        vectors[:, :h, k:] = antihalves
    vectors[:, :h] /= math.sqrt(2.0)
    vectors[:, m - h :] = vectors[:, h - 1 :: -1]
    vectors[:, m - h :, k:] *= -1.0
    if m % 2:
        vectors[:, h, :k] = halves[:, h]
        vectors[:, h, k:] = 0.0
    return np.concatenate((values, opposite), axis=1), vectors


def _eigenpairs(chains: dict) -> dict:
    """(eigenvalues, eigenvectors) of the real symmetric chain of each of
    ``chains``' raising amplitudes, by key.  The chains of one size are
    stacked: solved as their :func:`_halves` if all of them are
    palindromic, else whole, with one stacked ``eigh`` call per part."""
    by_size = {}
    for key, raising in chains.items():
        by_size.setdefault(len(raising) + 1, []).append(key)
    eigen = {}
    for m, keys in by_size.items():
        raising = np.array([chains[key] for key in keys]).reshape(len(keys), m - 1)
        if m > 1 and all(key == chains[key][::-1].tobytes() for key in keys):
            values, vectors = _unfold(m, *map(np.linalg.eigh, _halves(raising)))
        else:
            values, vectors = np.linalg.eigh(_chains(raising))
        eigen.update(zip(keys, zip(values, vectors)))
    return eigen


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
