"""Multimode Gaussian states and affine Gaussian channels.

Conventions, fixed package-wide: quadratures are X = a + a† and
Y = (a - a†)/i, so the vacuum has unit variance in every quadrature and a
coherent amplitude alpha has mean (2 Re alpha, 2 Im alpha).  Quadratures
are interleaved per mode as (X1, Y1, X2, Y2, ...), which keeps each mode's
2x2 covariance block contiguous.

States and maps are immutable values, and every operation returns a new
state.  A state, and a map built by ``GaussianMap(...)``, is certified as
it is built (see below).  An element's map (:mod:`qdmsim.elements`) is
built by :meth:`GaussianMap._from_formula`, which only refuses a
non-finite entry: each element formula is certified once, by the tests,
over the engine's whole envelope.  A state may carry a
tangent d mean/d(parameters), which :func:`apply_map` carries forward with
it (forward-mode differentiation).  A circuit evaluation
(:mod:`qdmsim.circuits`) runs its ops on bare arrays and certifies only the
state it returns.

Batch axis: every array of a state or map may carry one leading batch
axis of length B, which stacks B independent objects of the same shape:
a state's mean (B, 2n), cov (B, 2n, 2n) and tangent (B, 2n, p), a map's
linear (B, 2n, 2n), noise (B, 2n, 2n) and displacement (B, 2n).  Every
map is square: it acts in place on its own n modes.  An object without
the axis broadcasts against a stacked one, as a single object shared by
every slice.  Each invariant check runs once per object over the whole
stack through :func:`qdmsim.exceptions.check`.  A check states what must
hold, so a NaN margin fails it.  A failure names the first failing batch
index and its margin, and records that index as the exception's
``batch_index`` (None for an unstacked object).

Both positivity checks, cov + i*Omega >= 0 for a state and the validity
noise + i*(Omega - S Omega S^T) >= 0 for a map, accept a smallest
eigenvalue down to -UNCERTAINTY_TOL * scale, the size of the entries the
matrix is summed from (max|cov|; max|S|^2 + max|noise|; at least 1), as
backward error analysis asks (Higham, Accuracy and Stability of Numerical
Algorithms, 2nd ed., ch. 1-3).  Certificates come first, each one pass
over the whole stack, and per-slice work runs only where one fails.
Symmetry: the stack's largest |A - A^T| within the absolute
SYMMETRY_TOL.  Lossless maps: no noise entry in the stack and its largest
|S Omega S^T - Omega| <= UNCERTAINTY_TOL / dim.  Positivity, for every
other stack: one batched Cholesky factorisation with ``UNCERTAINTY_TOL /
2`` added to the diagonal.  Else one ``eigvalsh`` call decides and
reports the smallest eigenvalue; a slice with a non-finite entry, on
which it might not converge, has a NaN margin instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .exceptions import ConsistencyError, ValidationError, check

#: Absolute tolerance for covariance symmetry.
SYMMETRY_TOL = 1e-12
#: Relative tolerance of both positivity checks: a smallest eigenvalue
#: down to -UNCERTAINTY_TOL * scale passes (see the module docstring).
UNCERTAINTY_TOL = 1e-9


def symplectic_form(n_modes: int) -> np.ndarray:
    """Return the 2n x 2n symplectic form matching the interleaved ordering."""
    omega = np.zeros((2 * n_modes, 2 * n_modes))
    for k in range(n_modes):
        omega[2 * k, 2 * k + 1] = 1.0
        omega[2 * k + 1, 2 * k] = -1.0
    return omega


@lru_cache(maxsize=None)
def _omega(n_modes: int) -> np.ndarray:
    return _as_locked_array(symplectic_form(n_modes))


@lru_cache(maxsize=None)
def _i_omega(n_modes: int) -> np.ndarray:
    i_omega = 1j * _omega(n_modes)
    i_omega.setflags(write=False)
    return i_omega


@lru_cache(maxsize=None)
def _certificate_shift(dim: int) -> np.ndarray:
    return _as_locked_array(UNCERTAINTY_TOL / 2 * np.eye(dim))


def _check_positive(real: np.ndarray, imaginary: np.ndarray, error: type, message: str,
                    linear: np.ndarray | None = None) -> None:
    """Raise ``error`` unless every slice of the Hermitian matrix ``real +
    imaginary`` has its smallest eigenvalue >= -UNCERTAINTY_TOL * scale, a
    slice's scale being max|real|, plus max|linear|^2 for a map, at least 1.

    A Cholesky factor of the matrix plus ``shift`` (half the tolerance on
    the diagonal) certifies every eigenvalue above about -tol/2, a subset
    of what the eigenvalue test accepts (Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed., ch. 10).  A NaN or infinite slice can
    factor without raising, so the factor must also have a finite
    diagonal (which is real).  Only without a certificate are the scale and
    eigenvalues computed, and a failure reports the first failing slice's.
    """
    # built in complex dtype, then the constants' sum added in place: the
    # same matrix as real + (shift + imaginary), without a mixed-dtype add
    matrix = real.astype(complex)
    matrix += _certificate_shift(real.shape[-1]) + imaginary
    try:
        factor = np.linalg.cholesky(matrix)
    except np.linalg.LinAlgError:
        pass
    else:
        if math.isfinite(factor.diagonal(axis1=-2, axis2=-1).real.sum()):
            return
    # LAPACK may not converge on a slice with a non-finite entry: it gets
    # zeros in the call and a NaN margin
    matrix = real + imaginary
    finite = np.isfinite(matrix).all(axis=(-2, -1))
    eig_min = np.linalg.eigvalsh(np.where(finite[..., None, None], matrix, 0.0))[..., 0]
    eig_min = np.where(finite, eig_min, np.nan)
    scale = np.abs(real).max(axis=(-2, -1))
    scale += 0.0 if linear is None else np.abs(linear).max(axis=(-2, -1)) ** 2
    check(eig_min >= -UNCERTAINTY_TOL * np.maximum(scale, 1.0), eig_min, error, message)


def _check_finite(arr: np.ndarray, core: int, name: str) -> None:
    """Raise a ValidationError unless every entry of ``arr`` is finite; its
    last ``core`` axes make up one slice.  A finite sum of squares (one BLAS
    call) certifies the whole stack; only a failed one looks for the slice."""
    flat = arr.reshape(-1)
    if not math.isfinite(flat.dot(flat)):
        check(np.isfinite(arr).all(axis=tuple(range(-core, 0))), (), ValidationError,
              f"{name} must be finite")


def _check_symmetric(matrix: np.ndarray, message: str) -> None:
    """Raise a ValidationError unless every slice of ``matrix`` is
    symmetric within SYMMETRY_TOL.  The tolerance is absolute, so one
    whole-stack maximum certifies every slice (a NaN fails it); only a
    failed one computes the per-slice maxima that name the slice."""
    skew = np.abs(matrix - _transpose(matrix))
    if not skew.max() <= SYMMETRY_TOL:
        skew = skew.max(axis=(-2, -1))
        check(skew <= SYMMETRY_TOL, skew, ValidationError, message)


def _as_locked_array(values, shape: tuple[int, ...] | None = None) -> np.ndarray:
    """A read-only float copy of ``values``, broadcast to ``shape`` if given."""
    arr = np.array(values, dtype=float)
    if shape is not None and arr.shape != shape:
        arr = _broadcast_copy(arr, shape)
    arr.setflags(write=False)
    return arr


def _transpose(arr: np.ndarray) -> np.ndarray:
    return arr.swapaxes(-1, -2)


def _batch_shape(*shapes: tuple[int, ...]) -> tuple[int, ...]:
    """The one batch shape that ``shapes`` share; () stands for any."""
    batch = ()
    for shape in shapes:
        if shape and shape != batch:
            if batch or len(shape) > 1:
                raise ValidationError(f"batch shapes {shapes} do not match one batch axis")
            batch = shape
    return batch


def _map_arrays(linear, noise, displacement) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A map's three arrays as read-only floats on their one batch shape,
    refused unless they fit one square map."""
    linear = np.asarray(linear, dtype=float)
    noise = np.asarray(noise, dtype=float)
    disp = np.asarray(displacement, dtype=float)
    dim = linear.shape[-1] if linear.ndim in (2, 3) else 0
    if not dim or dim % 2 or linear.shape[-2] != dim:
        raise ValidationError(f"linear part must be 2n x 2n, got {linear.shape}")
    if noise.shape[-2:] != (dim, dim):
        raise ValidationError(f"noise shape {noise.shape} does not match map size {dim}")
    if disp.shape[-1:] != (dim,):
        raise ValidationError(f"displacement shape {disp.shape} does not match map size {dim}")
    batch = _batch_shape(linear.shape[:-2], noise.shape[:-2], disp.shape[:-1])
    return (_as_locked_array(linear, batch + (dim, dim)), _as_locked_array(noise, batch + (dim, dim)),
            _as_locked_array(disp, batch + (dim,)))


_ASYMMETRIC_COV = f"cov is asymmetric by {{:.3e}} (tol {SYMMETRY_TOL})"
_INVALID_CHANNEL = "invalid Gaussian channel: min eig of validity matrix is {:.3e}"


@dataclass(frozen=True)
class GaussianState:
    """Mean quadrature vector plus covariance matrix over n optical modes,
    optionally stacked along a leading batch axis.

    Construction validates the covariance symmetry and the uncertainty
    relation; an uncertainty violation raises :class:`ConsistencyError`,
    since it is never the user input's fault.  ``tangent``,
    when present, is d mean/d(parameters), shaped (2n, parameters).
    """

    mean: np.ndarray
    cov: np.ndarray
    tangent: np.ndarray | None = None

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float)
        cov = np.asarray(self.cov, dtype=float)
        if mean.ndim not in (1, 2) or mean.shape[-1] == 0 or mean.shape[-1] % 2 != 0:
            raise ValidationError(
                f"mean must be a non-empty vector of even length, got shape {mean.shape}"
            )
        dim = mean.shape[-1]
        if cov.shape != mean.shape + (dim,):
            raise ValidationError(f"cov shape {cov.shape} does not match mean length {dim}")
        tangent = None if self.tangent is None else np.asarray(self.tangent, dtype=float)
        if tangent is not None and tangent.shape != mean.shape + tangent.shape[-1:]:
            raise ValidationError(f"tangent shape {tangent.shape} does not match mean length {dim}")
        # a non-finite entry fails a check, with no numpy warning on the way:
        # a vector's its own, a matrix's the check its NaN margin fails
        with np.errstate(invalid="ignore", over="ignore"):
            _check_finite(mean, 1, "mean")
            if tangent is not None:
                _check_finite(tangent, 2, "tangent")
            _check_symmetric(cov, _ASYMMETRIC_COV)
            cov = (cov + _transpose(cov)) / 2.0
        cov.setflags(write=False)
        # outside the errstate: LAPACK keeps its own, and nesting one costs
        _check_positive(cov, _i_omega(dim // 2), ConsistencyError,
                        "uncertainty relation violated: min eig of cov + i*Omega is {:.3e}")
        if tangent is not None:
            object.__setattr__(self, "tangent", _as_locked_array(tangent))
        object.__setattr__(self, "mean", _as_locked_array(mean))
        object.__setattr__(self, "cov", cov)

    @property
    def n_modes(self) -> int:
        return self.mean.shape[-1] // 2

    @property
    def batch_shape(self) -> tuple[int, ...]:
        return self.mean.shape[:-1]


@dataclass(frozen=True)
class GaussianMap:
    """Affine Gaussian channel: mean -> linear@mean + displacement,
    cov -> linear@cov@linear^T + noise, optionally stacked along a leading
    batch axis (arrays without it are shared by every slice).

    The linear part is square, (2n, 2n) on n modes.  Every map must satisfy
    the Gaussian-channel validity inequality noise + i*Omega - i*linear
    Omega linear^T >= 0; a lossless one (zero noise) is then symplectic.
    The constructor checks it; :meth:`_from_formula`, for the elements'
    certified formulas, does not.
    """

    linear: np.ndarray
    noise: np.ndarray
    displacement: np.ndarray

    def __post_init__(self):
        linear, noise, disp = _map_arrays(self.linear, self.noise, self.displacement)
        dim = linear.shape[-1]
        with np.errstate(invalid="ignore", over="ignore"):  # as in GaussianState
            lossy = noise.any()  # an all-zero stack is symmetric; a NaN is truthy, so it is checked
            if lossy:
                _check_symmetric(noise, "noise matrix must be symmetric; asymmetric by {:.3e}")
            omega = _omega(dim // 2)
            residual = omega - linear @ omega @ _transpose(linear)
            # lossless: validity matrix i * residual, |eigenvalues| <= dim * max|residual|;
            # one test for the whole stack: where a single slice fails it, the
            # positivity check runs on every slice anyway
            if lossy or not dim * np.abs(residual).max() <= UNCERTAINTY_TOL:
                _check_positive(noise, 1j * residual, ValidationError, _INVALID_CHANNEL, linear)
            _check_finite(disp, 1, "displacement")
        object.__setattr__(self, "linear", linear)
        object.__setattr__(self, "noise", noise)
        object.__setattr__(self, "displacement", disp)

    @classmethod
    def _from_formula(cls, linear, noise, displacement) -> GaussianMap:
        """The map of an element formula (see :mod:`qdmsim.elements`): its
        arrays converted, broadcast and locked as the constructor does, and
        refused if an entry is not finite, but not checked for validity,
        which the tests certify for each formula over the envelope."""
        linear, noise, disp = _map_arrays(linear, noise, displacement)
        _check_finite(linear, 2, "linear part")
        _check_finite(noise, 2, "noise")
        _check_finite(disp, 1, "displacement")
        gmap = object.__new__(cls)
        object.__setattr__(gmap, "linear", linear)
        object.__setattr__(gmap, "noise", noise)
        object.__setattr__(gmap, "displacement", disp)
        return gmap

    @property
    def n_in(self) -> int:
        """The number of modes the map acts on."""
        return self.linear.shape[-1] // 2

    @property
    def batch_shape(self) -> tuple[int, ...]:
        return self.linear.shape[:-2]


def identity_map(n_modes: int) -> GaussianMap:
    dim = 2 * n_modes
    return GaussianMap(np.eye(dim), np.zeros((dim, dim)), np.zeros(dim))


def displacement_map(alpha) -> GaussianMap:
    """Single-mode map adding the coherent amplitude ``alpha`` (a complex
    number or an array of them, one per batch slice) to the mean."""
    # a complex viewed as two floats is (Re, Im)
    disp = 2.0 * np.asarray(alpha, dtype=complex)[..., None].view(float)
    return GaussianMap._from_formula(np.eye(2), np.zeros((2, 2)), disp)


def compose(second: GaussianMap, first: GaussianMap) -> GaussianMap:
    """Map equivalent to applying ``first`` then ``second``."""
    if first.n_in != second.n_in:
        raise ValidationError(f"cannot compose maps on {first.n_in} and {second.n_in} modes")
    linear = second.linear @ first.linear
    noise = second.linear @ first.noise @ _transpose(second.linear) + second.noise
    noise = (noise + _transpose(noise)) / 2.0
    disp = _matvec(second.linear, first.displacement) + second.displacement
    return GaussianMap(linear, noise, disp)


def vacuum_state(n_modes: int) -> GaussianState:
    """All modes in vacuum: zero mean, identity covariance."""
    if n_modes < 1:
        raise ValidationError(f"n_modes must be >= 1, got {n_modes}")
    return GaussianState(np.zeros(2 * n_modes), np.eye(2 * n_modes))


def _selected_modes(n_modes: int, modes: Sequence[int]) -> tuple[int, ...]:
    """``modes`` as a tuple of ints, refused unless distinct and in range(n_modes)."""
    modes = tuple(map(int, modes))
    if len(set(modes)) != len(modes):
        raise ValidationError(f"mode indices must be distinct, got {modes}")
    for m in modes:
        if not 0 <= m < n_modes:
            raise ValidationError(f"mode {m} out of range for {n_modes} modes")
    return modes


def _matvec(matrix: np.ndarray, vector: np.ndarray) -> np.ndarray:
    return (matrix @ vector[..., None])[..., 0]


def _broadcast_copy(arr: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    if arr.shape == shape:
        return arr.copy()
    out = np.empty(shape)
    out[...] = arr
    return out


@lru_cache(maxsize=None)
def _register_rows(modes: tuple[int, ...]) -> tuple:
    """Index of the quadrature rows of ``modes`` in ascending register
    order (a slice where they are contiguous), the index of their block of
    a covariance, and the permutation that puts a map's rows in that order
    (None if they are in it already).

    Updating the rows in ascending order makes each entry sum the same
    products in the same order as a product with the full-register matrix.
    """
    rows = np.array([2 * m + q for m in modes for q in (0, 1)])
    order = None
    if list(modes) != sorted(modes):
        order = np.argsort(rows)
        order.setflags(write=False)  # the cached result is shared by every caller
        rows = rows[order]
    if rows[-1] - rows[0] == rows.size - 1:
        rows = slice(int(rows[0]), int(rows[-1]) + 1)
        return rows, (Ellipsis, rows, rows), order
    rows.setflags(write=False)
    return rows, (Ellipsis, rows[:, None], rows), order


def displace(state: GaussianState, mode: int, alpha: complex) -> GaussianState:
    """Shift one mode's mean by the coherent amplitude ``alpha``; cov unchanged."""
    return apply_map(state, displacement_map(alpha), (mode,))


def apply_map(
    state: GaussianState,
    gmap: GaussianMap,
    modes: Sequence[int],
    source: np.ndarray | None = None,
) -> GaussianState:
    """Apply ``gmap`` to the selected modes, leaving the others untouched.

    The map's k-th mode is wired to global mode ``modes[k]``,
    so mode order in ``modes`` carries the same meaning as the map's own
    mode order.  Only the selected modes' quadrature rows and columns are
    updated.  A state's tangent is mapped by the linear part; for such a
    state, ``source`` (2 len(modes) x parameters) is the derivative the
    element itself adds to the selected modes' output mean.  A stacked
    state, map or source makes the result stacked.
    """
    modes = _selected_modes(state.n_modes, modes)
    if gmap.n_in != len(modes):
        raise ValidationError(f"map acts on {gmap.n_in} modes but {len(modes)} were selected")
    if source is not None:
        if state.tangent is None:
            raise ValidationError("a tangent source needs a state that carries a tangent")
        source, want = np.asarray(source), (2 * len(modes), state.tangent.shape[-1])
        if source.shape[-2:] != want:
            raise ValidationError(f"tangent source shape {source.shape} does not end in {want}")
    return GaussianState(*_apply_to_arrays(state.mean, state.cov, state.tangent, gmap, modes, source))


def _apply_to_arrays(mean: np.ndarray, cov: np.ndarray, tangent: np.ndarray | None, gmap: GaussianMap,
                     modes: tuple[int, ...], source: np.ndarray | None = None) -> tuple:
    """:func:`apply_map` on the bare arrays of a state, its arguments
    already checked: new (mean, cov, tangent) arrays, not checked as a state."""
    rows, block, order = _register_rows(modes)
    linear, noise, disp = gmap.linear, gmap.noise, gmap.displacement
    if order is not None:
        linear = linear[..., order[:, None], order]
        noise = noise[..., order[:, None], order]
        disp = disp[..., order]
        source = None if source is None else source[..., order, :]
    batch = _batch_shape(
        mean.shape[:-1], gmap.batch_shape, () if source is None else source.shape[:-2]
    )
    dim = mean.shape[-1]
    mean = _broadcast_copy(mean, batch + (dim,))
    cov = _broadcast_copy(cov, batch + (dim, dim))
    mean[..., rows] = _matvec(linear, mean[..., rows]) + disp
    cov[..., rows, :] = linear @ cov[..., rows, :]
    cov[..., :, rows] = cov[..., :, rows] @ _transpose(linear)
    cov[block] += noise
    # the product is symmetric analytically; enforce it against rounding
    cov = (cov + _transpose(cov)) / 2.0
    if tangent is not None:
        tangent = _broadcast_copy(tangent, batch + tangent.shape[-2:])
        tangent[..., rows, :] = linear @ tangent[..., rows, :]
        if source is not None:
            tangent[..., rows, :] += source
    return mean, cov, tangent


def quadrature_direction(angle) -> np.ndarray:
    """Unit vector (cos angle, sin angle) of the quadrature X_angle; an
    array of angles gives one row per angle."""
    return np.array([np.cos(angle), np.sin(angle)]).T


def quadrature_stats(state: GaussianState, mode: int, angle) -> tuple:
    """Mean and variance of X_theta = a e^{-i theta} + a† e^{i theta} on one
    mode: floats for an unstacked state and angle, else one per slice."""
    _selected_modes(state.n_modes, (mode,))
    direction = quadrature_direction(angle)[..., None, :]
    sl = slice(2 * mode, 2 * mode + 2)
    mean = (direction @ state.mean[..., sl, None])[..., 0, 0]
    var = (direction @ state.cov[..., sl, sl] @ _transpose(direction))[..., 0, 0]
    if mean.ndim == 0:
        return float(mean), float(var)
    return mean, var
