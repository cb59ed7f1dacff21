"""Multimode Gaussian states and affine Gaussian channels.

Conventions, fixed package-wide: quadratures are X = a + a† and
Y = (a - a†)/i, so the vacuum has unit variance in every quadrature and a
coherent amplitude alpha has mean (2 Re alpha, 2 Im alpha).  Quadratures
are interleaved per mode as (X1, Y1, X2, Y2, ...), which keeps each mode's
2x2 covariance block contiguous.

States and maps are immutable values; every operation returns a new state.
A state may carry a tangent d mean/d(parameters), which :func:`apply_map`
carries forward with it (forward-mode differentiation).

Batch axis: every array of a state or map may carry one leading batch
axis of length B, which stacks B independent objects of the same shape:
a state's mean (B, 2n), cov (B, 2n, 2n) and tangent (B, 2n, p), a map's
linear (B, 2n_out, 2n_in), noise (B, 2n_out, 2n_out) and displacement
(B, 2n_out).  An object without the axis broadcasts against a stacked
one, as a single object shared by every slice.  Each invariant check runs
once per object over the whole stack through
:func:`qdmsim.exceptions.check`.  A check states what must hold, so a NaN
margin fails it.  A failure names the first failing batch index and its
margin, and records that index as the exception's ``batch_index`` (None
for an unstacked object).

The two positivity checks (the uncertainty relation of a state, the
channel validity of a lossy map) first try a certificate: one batched
Cholesky factorisation of the matrix with ``UNCERTAINTY_TOL / 2`` added to
its diagonal.  A factor with a finite diagonal proves every slice passes,
with no eigendecomposition.  Otherwise one ``eigvalsh`` call over the
stack decides, and a failure still reports the smallest eigenvalue as its
margin.
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
#: Minimum-eigenvalue tolerance for the uncertainty check cov + i*Omega >= 0.
UNCERTAINTY_TOL = 1e-9
#: Absolute tolerance on S Omega S^T - Omega for lossless maps.
SYMPLECTIC_TOL = 1e-12


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


def _check_positive(real: np.ndarray, imaginary: np.ndarray, error: type, message: str) -> None:
    """Raise ``error`` unless every slice of the Hermitian matrix
    ``real + imaginary`` has its smallest eigenvalue >= -UNCERTAINTY_TOL.

    A Cholesky factor of the matrix plus ``shift`` (half the tolerance on
    the diagonal) certifies every eigenvalue above about -tol/2, a subset
    of what the eigenvalue test accepts (Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed., ch. 10).  A NaN or infinite slice can
    factor without raising, so the factor must also have a finite
    diagonal (which is real).  Without a certificate the eigenvalues
    decide, and a failure reports the first failing slice's smallest one.
    """
    shift = _certificate_shift(real.shape[-1])
    try:
        factor = np.linalg.cholesky(real + shift + imaginary)
    except np.linalg.LinAlgError:
        pass
    else:
        if math.isfinite(factor.diagonal(axis1=-2, axis2=-1).real.sum()):
            return
    eig_min = np.linalg.eigvalsh(real + imaginary)[..., 0]
    check(eig_min >= -UNCERTAINTY_TOL, eig_min, error, message)


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


_ASYMMETRIC_COV = f"cov is asymmetric by {{:.3e}} (tol {SYMMETRY_TOL})"


@dataclass(frozen=True)
class GaussianState:
    """Mean quadrature vector plus covariance matrix over n optical modes,
    optionally stacked along a leading batch axis.

    Construction validates the covariance symmetry and the uncertainty
    relation; an uncertainty violation raises :class:`ConsistencyError`
    because only a buggy map construction can produce one.  ``tangent``,
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
        skew = np.abs(cov - _transpose(cov)).max(axis=(-2, -1))
        check(skew <= SYMMETRY_TOL, skew, ValidationError, _ASYMMETRIC_COV)
        cov = (cov + _transpose(cov)) / 2.0
        cov.setflags(write=False)
        _check_positive(cov, _i_omega(dim // 2), ConsistencyError,
                        "uncertainty relation violated: min eig of cov + i*Omega is {:.3e}")
        if self.tangent is not None:
            tangent = np.asarray(self.tangent, dtype=float)
            if tangent.ndim != mean.ndim + 1 or tangent.shape[:-1] != mean.shape:
                raise ValidationError(
                    f"tangent shape {tangent.shape} does not match mean length {dim}"
                )
            object.__setattr__(self, "tangent", _as_locked_array(tangent))
        object.__setattr__(self, "mean", _as_locked_array(mean))
        object.__setattr__(self, "cov", cov)

    @property
    def n_modes(self) -> int:
        return self.mean.shape[-1] // 2

    @property
    def batch_shape(self) -> tuple[int, ...]:
        return self.mean.shape[:-1]

    def reduced(self, mode: int) -> "GaussianState":
        """Single-mode marginal state."""
        _check_mode(self, mode)
        sl = slice(2 * mode, 2 * mode + 2)
        return GaussianState(self.mean[..., sl].copy(), self.cov[..., sl, sl].copy())


@dataclass(frozen=True)
class GaussianMap:
    """Affine Gaussian channel: mean -> linear@mean + displacement,
    cov -> linear@cov@linear^T + noise, optionally stacked along a leading
    batch axis (arrays without it are shared by every slice).

    Lossless maps (zero noise) must be symplectic; every map must satisfy
    the Gaussian-channel validity inequality
    noise + i*Omega_out - i*linear Omega_in linear^T >= 0.
    """

    linear: np.ndarray
    noise: np.ndarray
    displacement: np.ndarray

    def __post_init__(self):
        linear = np.asarray(self.linear, dtype=float)
        noise = np.asarray(self.noise, dtype=float)
        disp = np.asarray(self.displacement, dtype=float)
        if linear.ndim not in (2, 3) or any(s == 0 or s % 2 for s in linear.shape[-2:]):
            raise ValidationError(f"linear part must be 2n_out x 2n_in, got {linear.shape}")
        rows, cols = linear.shape[-2:]
        if noise.shape[-2:] != (rows, rows):
            raise ValidationError(f"noise shape {noise.shape} does not match output size {rows}")
        if disp.shape[-1:] != (rows,):
            raise ValidationError(f"displacement shape {disp.shape} does not match output size {rows}")
        batch = _batch_shape(linear.shape[:-2], noise.shape[:-2], disp.shape[:-1])
        linear = _as_locked_array(linear, batch + (rows, cols))
        noise = _as_locked_array(noise, batch + (rows, rows))
        disp = _as_locked_array(disp, batch + (rows,))
        skew = np.abs(noise - _transpose(noise)).max(axis=(-2, -1))
        check(skew <= SYMMETRY_TOL, skew, ValidationError,
              "noise matrix must be symmetric; asymmetric by {:.3e}")
        omega_out = _omega(rows // 2)
        transported = linear @ _omega(cols // 2) @ _transpose(linear)
        lossless = False
        if rows == cols:
            lossless = np.abs(noise).max(axis=(-2, -1)) == 0.0
            dev = np.abs(transported - omega_out).max(axis=(-2, -1))
            check(~lossless | (dev <= SYMPLECTIC_TOL), dev, ValidationError,
                  "lossless map is not symplectic: |S Omega S^T - Omega| = {:.3e}")
        # a lossless slice's validity matrix is i (Omega - S Omega S^T), whose
        # smallest eigenvalue, minus its spectral norm, is at least
        # -rows * SYMPLECTIC_TOL once the check above passed; while that
        # bound clears -UNCERTAINTY_TOL, only a lossy slice can fail below
        if not (np.all(lossless) and rows * SYMPLECTIC_TOL <= UNCERTAINTY_TOL):
            _check_positive(noise, 1j * (omega_out - transported), ValidationError,
                            "invalid Gaussian channel: min eig of validity matrix is {:.3e}")
        object.__setattr__(self, "linear", linear)
        object.__setattr__(self, "noise", noise)
        object.__setattr__(self, "displacement", disp)

    @property
    def n_in(self) -> int:
        return self.linear.shape[-1] // 2

    @property
    def n_out(self) -> int:
        return self.linear.shape[-2] // 2

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
    return GaussianMap(np.eye(2), np.zeros((2, 2)), disp)


def compose(second: GaussianMap, first: GaussianMap) -> GaussianMap:
    """Map equivalent to applying ``first`` then ``second``."""
    if first.n_out != second.n_in:
        raise ValidationError(
            f"cannot compose: first outputs {first.n_out} modes, second expects {second.n_in}"
        )
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


def _check_mode(state: GaussianState, mode: int) -> None:
    if not 0 <= mode < state.n_modes:
        raise ValidationError(f"mode {mode} out of range for {state.n_modes} modes")


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
    _check_mode(state, mode)
    mean = state.mean.copy()
    mean[..., 2 * mode] += 2.0 * complex(alpha).real
    mean[..., 2 * mode + 1] += 2.0 * complex(alpha).imag
    return GaussianState(mean, state.cov, state.tangent)


def apply_map(
    state: GaussianState,
    gmap: GaussianMap,
    modes: Sequence[int],
    source: np.ndarray | None = None,
) -> GaussianState:
    """Apply ``gmap`` to the selected modes, leaving the others untouched.

    The map's k-th input/output mode is wired to global mode ``modes[k]``,
    so mode order in ``modes`` carries the same meaning as the map's own
    mode order.  Only the selected modes' quadrature rows and columns are
    updated.  A state's tangent is mapped by the linear part; for such a
    state, ``source`` (2 len(modes) x parameters) is the derivative the
    element itself adds to the selected modes' output mean.  A stacked
    state, map or source makes the result stacked.
    """
    modes = tuple(int(m) for m in modes)
    if len(set(modes)) != len(modes):
        raise ValidationError(f"mode indices must be distinct, got {modes}")
    for m in modes:
        _check_mode(state, m)
    if gmap.n_in != gmap.n_out:
        raise ValidationError("in-place application requires a square map")
    if gmap.n_in != len(modes):
        raise ValidationError(f"map acts on {gmap.n_in} modes but {len(modes)} were selected")
    if source is not None and state.tangent is None:
        raise ValidationError("a tangent source needs a state that carries a tangent")
    rows, block, order = _register_rows(modes)
    linear, noise, disp = gmap.linear, gmap.noise, gmap.displacement
    if order is not None:
        linear = linear[..., order[:, None], order]
        noise = noise[..., order[:, None], order]
        disp = disp[..., order]
        source = None if source is None else source[..., order, :]
    batch = _batch_shape(
        state.batch_shape, gmap.batch_shape, () if source is None else source.shape[:-2]
    )
    dim = 2 * state.n_modes
    mean = _broadcast_copy(state.mean, batch + (dim,))
    cov = _broadcast_copy(state.cov, batch + (dim, dim))
    mean[..., rows] = _matvec(linear, mean[..., rows]) + disp
    cov[..., rows, :] = linear @ cov[..., rows, :]
    cov[..., :, rows] = cov[..., :, rows] @ _transpose(linear)
    cov[block] += noise
    # the product is symmetric analytically; enforce it against rounding
    cov = (cov + _transpose(cov)) / 2.0
    tangent = None
    if state.tangent is not None:
        tangent = _broadcast_copy(state.tangent, batch + state.tangent.shape[-2:])
        tangent[..., rows, :] = linear @ tangent[..., rows, :]
        if source is not None:
            tangent[..., rows, :] += source
    return GaussianState(mean, cov, tangent)


def quadrature_direction(angle) -> np.ndarray:
    """Unit vector (cos angle, sin angle) of the quadrature X_angle; an
    array of angles gives one row per angle."""
    return np.array([np.cos(angle), np.sin(angle)]).T


def quadrature_stats(state: GaussianState, mode: int, angle) -> tuple:
    """Mean and variance of X_theta = a e^{-i theta} + a† e^{i theta} on one
    mode: floats for an unstacked state and angle, else one per slice."""
    _check_mode(state, mode)
    direction = quadrature_direction(angle)[..., None, :]
    sl = slice(2 * mode, 2 * mode + 2)
    mean = (direction @ state.mean[..., sl, None])[..., 0, 0]
    var = (direction @ state.cov[..., sl, sl] @ _transpose(direction))[..., 0, 0]
    if mean.ndim == 0:
        return float(mean), float(var)
    return mean, var
