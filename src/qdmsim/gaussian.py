"""Multimode Gaussian states and affine Gaussian channels.

Conventions, fixed package-wide: quadratures are X = a + a† and
Y = (a - a†)/i, so the vacuum has unit variance in every quadrature and a
coherent amplitude alpha has mean (2 Re alpha, 2 Im alpha).  Quadratures
are interleaved per mode as (X1, Y1, X2, Y2, ...), which keeps each mode's
2x2 covariance block contiguous.

States and maps are immutable values; every operation returns a new state.
A state may carry a tangent d mean/d(parameters), which :func:`apply_map`
carries forward with it (forward-mode differentiation).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .exceptions import ConsistencyError, ValidationError

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


def _as_locked_array(values, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class GaussianState:
    """Mean quadrature vector plus covariance matrix over n optical modes.

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
        if mean.ndim != 1 or mean.size == 0 or mean.size % 2 != 0:
            raise ValidationError(
                f"mean must be a non-empty vector of even length, got shape {mean.shape}"
            )
        if cov.shape != (mean.size, mean.size):
            raise ValidationError(
                f"cov shape {cov.shape} does not match mean length {mean.size}"
            )
        skew = float(np.max(np.abs(cov - cov.T)))
        if skew > SYMMETRY_TOL:
            raise ValidationError(f"cov is asymmetric by {skew:.3e} (tol {SYMMETRY_TOL})")
        cov = (cov + cov.T) / 2.0
        omega = symplectic_form(mean.size // 2)
        eig_min = float(np.linalg.eigvalsh(cov + 1j * omega)[0])
        if eig_min < -UNCERTAINTY_TOL:
            raise ConsistencyError(
                f"uncertainty relation violated: min eig of cov + i*Omega is {eig_min:.3e}"
            )
        if self.tangent is not None:
            tangent = np.asarray(self.tangent, dtype=float)
            if tangent.ndim != 2 or tangent.shape[0] != mean.size:
                raise ValidationError(
                    f"tangent shape {tangent.shape} does not match mean length {mean.size}"
                )
            object.__setattr__(self, "tangent", _as_locked_array(tangent))
        object.__setattr__(self, "mean", _as_locked_array(mean))
        object.__setattr__(self, "cov", _as_locked_array(cov))

    @property
    def n_modes(self) -> int:
        return self.mean.size // 2

    def mode_block(self, mode: int) -> tuple[np.ndarray, np.ndarray]:
        """Return (mean, cov) restricted to one mode."""
        _check_mode(self, mode)
        sl = slice(2 * mode, 2 * mode + 2)
        return self.mean[sl].copy(), self.cov[sl, sl].copy()

    def reduced(self, mode: int) -> "GaussianState":
        """Single-mode marginal state."""
        mean, cov = self.mode_block(mode)
        return GaussianState(mean, cov)


@dataclass(frozen=True)
class GaussianMap:
    """Affine Gaussian channel: mean -> linear@mean + displacement,
    cov -> linear@cov@linear^T + noise.

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
        if linear.ndim != 2 or any(s == 0 or s % 2 for s in linear.shape):
            raise ValidationError(f"linear part must be 2n_out x 2n_in, got {linear.shape}")
        rows, cols = linear.shape
        if noise.shape != (rows, rows):
            raise ValidationError(f"noise shape {noise.shape} does not match output size {rows}")
        if disp.shape != (rows,):
            raise ValidationError(f"displacement shape {disp.shape} does not match output size {rows}")
        if np.max(np.abs(noise - noise.T)) > SYMMETRY_TOL:
            raise ValidationError("noise matrix must be symmetric")
        omega_in = symplectic_form(cols // 2)
        omega_out = symplectic_form(rows // 2)
        transported = linear @ omega_in @ linear.T
        if rows == cols and np.max(np.abs(noise)) == 0.0:
            dev = float(np.max(np.abs(transported - omega_out)))
            if dev > SYMPLECTIC_TOL:
                raise ValidationError(
                    f"lossless map is not symplectic: |S Omega S^T - Omega| = {dev:.3e}"
                )
        validity = noise + 1j * (omega_out - transported)
        eig_min = float(np.linalg.eigvalsh(validity)[0])
        if eig_min < -UNCERTAINTY_TOL:
            raise ValidationError(
                f"invalid Gaussian channel: min eig of validity matrix is {eig_min:.3e}"
            )
        object.__setattr__(self, "linear", _as_locked_array(linear))
        object.__setattr__(self, "noise", _as_locked_array(noise))
        object.__setattr__(self, "displacement", _as_locked_array(disp))

    @property
    def n_in(self) -> int:
        return self.linear.shape[1] // 2

    @property
    def n_out(self) -> int:
        return self.linear.shape[0] // 2


def identity_map(n_modes: int) -> GaussianMap:
    dim = 2 * n_modes
    return GaussianMap(np.eye(dim), np.zeros((dim, dim)), np.zeros(dim))


def displacement_map(alpha: complex) -> GaussianMap:
    """Single-mode map adding the coherent amplitude ``alpha`` to the mean."""
    disp = np.array([2.0 * alpha.real, 2.0 * alpha.imag])
    return GaussianMap(np.eye(2), np.zeros((2, 2)), disp)


def compose(second: GaussianMap, first: GaussianMap) -> GaussianMap:
    """Map equivalent to applying ``first`` then ``second``."""
    if first.n_out != second.n_in:
        raise ValidationError(
            f"cannot compose: first outputs {first.n_out} modes, second expects {second.n_in}"
        )
    linear = second.linear @ first.linear
    noise = second.linear @ first.noise @ second.linear.T + second.noise
    noise = (noise + noise.T) / 2.0
    disp = second.linear @ first.displacement + second.displacement
    return GaussianMap(linear, noise, disp)


def vacuum_state(n_modes: int) -> GaussianState:
    """All modes in vacuum: zero mean, identity covariance."""
    if n_modes < 1:
        raise ValidationError(f"n_modes must be >= 1, got {n_modes}")
    return GaussianState(np.zeros(2 * n_modes), np.eye(2 * n_modes))


def _check_mode(state: GaussianState, mode: int) -> None:
    if not 0 <= mode < state.n_modes:
        raise ValidationError(f"mode {mode} out of range for {state.n_modes} modes")


def displace(state: GaussianState, mode: int, alpha: complex) -> GaussianState:
    """Shift one mode's mean by the coherent amplitude ``alpha``; cov unchanged."""
    _check_mode(state, mode)
    mean = state.mean.copy()
    mean[2 * mode] += 2.0 * complex(alpha).real
    mean[2 * mode + 1] += 2.0 * complex(alpha).imag
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
    mode order.  A state's tangent is mapped by the linear part; for such a
    state, ``source`` (2 len(modes) x parameters) is the derivative the
    element itself adds to the selected modes' output mean.
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
    idx = np.array([2 * m + q for m in modes for q in (0, 1)])
    dim = 2 * state.n_modes
    big_linear = np.eye(dim)
    big_linear[np.ix_(idx, idx)] = gmap.linear
    big_noise = np.zeros((dim, dim))
    big_noise[np.ix_(idx, idx)] = gmap.noise
    big_disp = np.zeros(dim)
    big_disp[idx] = gmap.displacement
    mean = big_linear @ state.mean + big_disp
    cov = big_linear @ state.cov @ big_linear.T + big_noise
    # the product is symmetric analytically; enforce it against rounding
    cov = (cov + cov.T) / 2.0
    tangent = None if state.tangent is None else big_linear @ state.tangent
    if source is not None:
        tangent[idx] += source
    return GaussianState(mean, cov, tangent)


def quadrature_stats(state: GaussianState, mode: int, angle: float) -> tuple[float, float]:
    """Mean and variance of X_theta = a e^{-i theta} + a† e^{i theta} on one mode."""
    _check_mode(state, mode)
    direction = np.array([np.cos(angle), np.sin(angle)])
    sl = slice(2 * mode, 2 * mode + 2)
    mean = float(direction @ state.mean[sl])
    var = float(direction @ state.cov[sl, sl] @ direction)
    return mean, var
