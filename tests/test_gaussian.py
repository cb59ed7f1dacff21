import math
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import qdmsim as q
from conftest import embed_map, random_element, random_state


def test_vacuum_single_mode():
    state = q.vacuum_state(1)
    assert np.array_equal(state.mean, np.zeros(2))
    assert np.array_equal(state.cov, np.eye(2))


def test_vacuum_three_modes():
    state = q.vacuum_state(3)
    assert state.mean.shape == (6,)
    assert np.array_equal(state.cov, np.eye(6))


@pytest.mark.parametrize("angle", [0.0, 0.3, math.pi / 2, 2.0, -1.1])
def test_vacuum_isotropic(angle):
    mean, var = q.quadrature_stats(q.vacuum_state(2), 1, angle)
    assert mean == pytest.approx(0.0, abs=1e-15)
    assert var == pytest.approx(1.0, abs=1e-15)


def test_vacuum_zero_modes_rejected():
    with pytest.raises(q.ValidationError):
        q.vacuum_state(0)


def test_displace_real_amplitude():
    state = q.displace(q.vacuum_state(1), 0, 3.0)
    assert np.allclose(state.mean, [6.0, 0.0])
    assert np.array_equal(state.cov, np.eye(2))


def test_displace_zero_is_identity():
    state = q.displace(q.vacuum_state(1), 0, 0.0)
    assert np.array_equal(state.mean, np.zeros(2))


def test_displace_imaginary_on_second_mode():
    state = q.displace(q.vacuum_state(2), 1, 1j)
    assert np.allclose(state.mean, [0.0, 0.0, 0.0, 2.0])


def test_displace_mode_out_of_range():
    with pytest.raises(q.ValidationError):
        q.displace(q.vacuum_state(1), 1, 1.0)


def test_apply_identity_map():
    rng = np.random.default_rng(7)
    state = random_state(rng, 2)
    out = q.apply_map(state, q.identity_map(2), (0, 1))
    assert np.allclose(out.mean, state.mean, atol=1e-14)
    assert np.allclose(out.cov, state.cov, atol=1e-14)


def test_balanced_splitter_preserves_vacuum():
    out = q.apply_map(q.vacuum_state(2), q.beam_splitter(q.SplitterSpec(0.5)), (0, 1))
    assert np.allclose(out.mean, np.zeros(4), atol=1e-15)
    assert np.allclose(out.cov, np.eye(4), atol=1e-14)


def test_loss_on_coherent_state():
    # sigma -> eta sigma + (1 - eta) I keeps a coherent state coherent;
    # mean scales by sqrt(eta).  Cross-checked against the Fock oracle in
    # test_fock.py.
    state = q.displace(q.vacuum_state(1), 0, 2.0)
    out = q.apply_map(state, q.loss_channel(0.75), (0,))
    assert out.mean[0] == pytest.approx(2.0 * math.sqrt(3.0), rel=1e-14)
    assert out.mean[1] == 0.0
    assert np.allclose(out.cov, np.eye(2), atol=1e-14)


def test_apply_map_dimension_mismatch():
    with pytest.raises(q.ValidationError):
        q.apply_map(q.vacuum_state(2), q.beam_splitter(q.SplitterSpec(0.5)), (0,))


def test_apply_map_repeated_modes_rejected():
    with pytest.raises(q.ValidationError):
        q.apply_map(q.vacuum_state(2), q.beam_splitter(q.SplitterSpec(0.5)), (1, 1))


@pytest.mark.parametrize("shape", [(2, 4), (4, 2), (0, 0), (3, 3), (2,), (1, 1, 2, 2)])
def test_map_linear_part_must_be_square(shape):
    with pytest.raises(q.ValidationError, match=r"^linear part must be 2n x 2n, got \("):
        q.GaussianMap(np.ones(shape), np.zeros((2, 2)), np.zeros(2))


def test_compose_refuses_maps_on_different_modes():
    with pytest.raises(q.ValidationError, match="^cannot compose maps on 1 and 2 modes$"):
        q.compose(q.beam_splitter(q.SplitterSpec(0.5)), q.phase_shifter(0.3))


def test_displace_shifts_the_mean_only():
    rng = np.random.default_rng(11)
    base = random_state(rng, 2)
    state = q.GaussianState(base.mean, base.cov, rng.normal(size=(4, 2)))
    out = q.displace(state, 1, 0.5 - 2.0j)
    assert np.array_equal(out.mean, state.mean + [0.0, 0.0, 1.0, -4.0])
    assert np.array_equal(out.cov, state.cov)
    assert np.array_equal(out.tangent, state.tangent)


def test_tangent_follows_the_linear_part_plus_source():
    rng = np.random.default_rng(3)
    base = random_state(rng, 2)
    tangent = rng.normal(size=(4, 2))
    state = q.GaussianState(base.mean, base.cov, tangent)
    gmap = q.two_mode_squeezer(q.PaGain(1.5, 0.4))
    source = rng.normal(size=(2, 2))
    out = q.apply_map(state, q.phase_shifter(0.3), (1,), source)
    want = tangent.copy()
    want[2:4] = q.phase_shifter(0.3).linear @ tangent[2:4] + source
    assert np.allclose(out.tangent, want, atol=1e-14)
    out = q.apply_map(state, gmap, (1, 0))
    order = [2, 3, 0, 1]
    assert np.allclose(out.tangent[order], gmap.linear @ tangent[order], atol=1e-13)
    assert q.apply_map(base, gmap, (0, 1)).tangent is None


def test_tangent_shape_must_match_mean():
    with pytest.raises(q.ValidationError):
        q.GaussianState(np.zeros(2), np.eye(2), np.zeros((4, 2)))


def test_uncertainty_violation_is_internal_error():
    with pytest.raises(q.ConsistencyError):
        q.GaussianState(np.zeros(2), 0.5 * np.eye(2))


TOL = q.gaussian.UNCERTAINTY_TOL
SQUEEZERS = [q.two_mode_squeezer, q.single_mode_squeezer]


def _scale(real, linear=None):
    """What the positivity checks measure a slice's eigenvalues against:
    the size of the entries its matrix is summed from, at least 1."""
    scale = np.abs(real).max()
    if linear is not None:
        scale += np.abs(linear).max() ** 2
    return max(scale, 1.0)


def _validity_i_part(linear):
    omega = q.symplectic_form(linear.shape[-1] // 2)
    return 1j * (omega - linear @ omega @ linear.T)


def _shift_lowest_eigenvalue(real, i_part, target):
    """``real`` plus a multiple of the identity that moves the smallest
    eigenvalue of ``real + i_part`` to ``target``."""
    lowest = np.linalg.eigvalsh(real + i_part)[0]
    return real + (target - lowest) * np.eye(real.shape[-1])


def _accepts(build, error) -> bool:
    try:
        build()
    except error:
        return False
    return True


#: Gains log-uniform over the whole envelope [1, MAX_GAIN], and any phase.
_GAINS = st.floats(0.0, math.log10(q.elements.MAX_GAIN)).map(lambda e: 10.0**e)
_ANGLES = st.floats(-10.0, 10.0)
_AMPLITUDES = st.floats(-q.elements.MAX_ALPHA / 2, q.elements.MAX_ALPHA / 2)


def _certified(gmap):
    """``gmap``'s arrays through the checked constructor.  An element
    builds its map without the checks, so this is where its formula is
    certified."""
    return q.GaussianMap(gmap.linear, gmap.noise, gmap.displacement)


def _certify_elements(G, phase, T, t, phi, re, im):
    """Certify the map of every element kind at one point of the envelope."""
    params = {"beam_splitter": (T,), "phase_shifter": (phi,), "loss_channel": (t,),
              "two_mode_squeezer": (G, phase), "single_mode_squeezer": (G, phase),
              "displace": (re, im)}
    kinds = q.circuits.ELEMENT_KINDS
    assert set(params) == set(kinds)
    for name, kind in kinds.items():
        _certified(kind.gaussian_map(*params[name]))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(G=_GAINS, phase=_ANGLES, T=st.floats(0.0, 1.0), t=st.floats(0.0, 1.0, exclude_min=True),
       phi=_ANGLES, re=_AMPLITUDES, im=_AMPLITUDES)
def test_every_element_map_is_accepted_over_the_envelope(G, phase, T, t, phi, re, im):
    _certify_elements(G, phase, T, t, phi, re, im)


@pytest.mark.parametrize("element", SQUEEZERS)
def test_stacked_squeezers_are_accepted_over_the_envelope(element):
    # a sweep builds one map over its whole gain axis
    gains = np.logspace(0.0, math.log10(q.elements.MAX_GAIN), 601)
    for phase in (0.0, 0.3, 2.0):
        assert _certified(element(q.PaGain(gains, phase))).batch_shape == (601,)


def _flipped_split():
    split = q.elements._SPLIT.copy()
    split[2, 0] = -split[2, 0]
    return split


_AMPLIFIER = q.elements._amplifier


def _amplifier_with_g_for_G(gain, *rest):
    return _AMPLIFIER(SimpleNamespace(G=gain.g, g=gain.G, phase=gain.phase), *rest)


def _loss_with_noise_t(t):
    return q.GaussianMap._from_formula(math.sqrt(t) * np.eye(2), t * np.eye(2), np.zeros(2))


#: Broken element formulas: (module, attribute, replacement).
_MUTATIONS = {
    "splitter coupling not antisymmetric": (q.elements, "_SPLIT", _flipped_split()),
    "G and g swapped": (q.elements, "_amplifier", _amplifier_with_g_for_G),
    "loss noise t for 1 - t": (q.circuits, "loss_channel", _loss_with_noise_t),
}


#: Envelope points where every mutation breaks validity far past the
#: tolerance: T inside (0, 1), a gain below 1e4 (the swapped amplifier's
#: validity matrix has eigenvalue -2, while the tolerance grows as G^2) and
#: t < 1/2 (noise t falls short of 1 - t).
@pytest.mark.parametrize("point", [(1.5, 0.3, 0.3, 0.3, 0.7, 1.0, -2.0),
                                   (50.0, 2.0, 0.99, 0.05, -3.0, 0.0, 1e7)])
@pytest.mark.parametrize("mutation", _MUTATIONS)
def test_a_broken_element_formula_fails_the_envelope_certification(monkeypatch, mutation, point):
    _certify_elements(*point)
    monkeypatch.setattr(*_MUTATIONS[mutation])
    with pytest.raises(q.ValidationError, match="^invalid Gaussian channel: min eig of validity"):
        _certify_elements(*point)


#: A fixed perturbation direction, entries in [-1, 1].
_DIRECTION = np.random.default_rng(11).uniform(-1.0, 1.0, (4, 4))
_MUTATED_AT = pytest.mark.parametrize("G, theta", [
    (G, theta) for G in (1.05, 50.0, 1e3, 1e6) for theta in (0.0, 0.3)])


@_MUTATED_AT
@pytest.mark.parametrize("element", SQUEEZERS)
def test_perturbed_lossless_map_is_refused(element, G, theta):
    # off by 1e-6 relative: far outside rounding, at every gain
    valid = element(q.PaGain(G, theta))
    dim = valid.linear.shape[-1]
    linear = valid.linear + 1e-6 * np.abs(valid.linear).max() * _DIRECTION[:dim, :dim]
    with pytest.raises(q.ValidationError, match="^invalid Gaussian channel: min eig of validity"):
        q.GaussianMap(linear, valid.noise, valid.displacement)


#: Channels that make a squeezer lossy: loss (its linear part stops being
#: symplectic) and classical noise (it stays symplectic).
_NOISES = {"loss": q.loss_channel(0.5),
           "noise": q.GaussianMap(np.eye(2), 0.1 * np.eye(2), np.zeros(2))}


@_MUTATED_AT
@pytest.mark.parametrize("noise", _NOISES)
@pytest.mark.parametrize("element", SQUEEZERS)
def test_lossy_map_below_validity_is_refused(element, noise, G, theta):
    squeezer = element(q.PaGain(G, theta))
    n_modes = squeezer.n_in
    lossy = q.compose(embed_map(_NOISES[noise], (0,), n_modes), squeezer)
    scale = _scale(lossy.noise, lossy.linear)
    shifted = _shift_lowest_eigenvalue(lossy.noise, _validity_i_part(lossy.linear), -1e-6 * scale)
    with pytest.raises(q.ValidationError, match="^invalid Gaussian channel") as info:
        q.GaussianMap(lossy.linear, shifted, lossy.displacement)
    assert info.value.margins[0] == pytest.approx(-1e-6 * scale, rel=1e-3)


@pytest.mark.parametrize("element", SQUEEZERS)
def test_large_gain_residual_is_rounding(element):
    # the float matrix's S Omega S^T - Omega, exact at 50 digits: the
    # element rounds its entries and the check rounds its product, each at
    # a few units of rounding relative to max|S|^2, far below the tolerance
    eps = np.finfo(float).eps
    with mpmath.workdps(50):
        for G in (1.05, 69.0, 1e3, 1e4, 1e5, 1e6):
            for theta in (0.0, 0.3, 2.0):
                linear = element(q.PaGain(G, theta)).linear
                omega = q.symplectic_form(linear.shape[-1] // 2)
                size = np.abs(linear).max() ** 2
                exact_s, exact_omega = mpmath.matrix(linear.tolist()), mpmath.matrix(omega.tolist())
                exact = exact_s * exact_omega * exact_s.T - exact_omega
                assert float(max(abs(x) for x in exact)) <= 4 * eps * size
                assert np.abs(linear @ omega @ linear.T - omega).max() <= 4 * eps * size


def test_lossless_residual_certificate_counts_the_dimension():
    # S = I + c E with E Omega + Omega E^T = L, L having entries +-1 and
    # singular values sqrt(3): the residual's largest entry is below the
    # tolerance, its spectral norm above it, so the eigenvalues refuse it
    L = np.array([[0, 1, 1, 1], [-1, 0, -1, 1], [-1, 1, 0, -1], [-1, -1, 1, 0]], dtype=float)
    omega = q.symplectic_form(2)
    c = 0.8 * TOL
    linear = np.eye(4) - c / 2 * L @ omega
    residual = omega - linear @ omega @ linear.T
    assert np.abs(residual).max() < TOL < np.linalg.norm(residual, 2)
    with pytest.raises(q.ValidationError, match="^invalid Gaussian channel") as info:
        q.GaussianMap(linear, np.zeros((4, 4)), np.zeros(4))
    assert info.value.margins[0] == pytest.approx(-math.sqrt(3) * c, rel=1e-3)


def _count_calls(monkeypatch, name):
    """Shapes of the matrices each later ``np.linalg.<name>`` call receives."""
    calls = []
    original = getattr(np.linalg, name)

    def counting(matrix):
        calls.append(matrix.shape)
        return original(matrix)

    monkeypatch.setattr(np.linalg, name, counting)
    return calls


def test_validity_certificates_run_for_lossy_maps_only(monkeypatch):
    factorisations = _count_calls(monkeypatch, "cholesky")
    eigenvalues = _count_calls(monkeypatch, "eigvalsh")
    _certified(q.beam_splitter(q.SplitterSpec(0.3)))
    _certified(q.two_mode_squeezer(q.PaGain(1.5, 0.2)))
    assert factorisations == []
    t = 0.5
    q.GaussianMap(math.sqrt(t) * np.eye(2), (1.0 - t) * np.eye(2), np.zeros(2))
    assert factorisations == [(2, 2)]
    assert eigenvalues == []
    # a lossy map with too little noise has no certificate: its
    # eigenvalues refuse it
    with pytest.raises(q.ValidationError, match="invalid Gaussian channel"):
        q.GaussianMap(math.sqrt(t) * np.eye(2), 0.5 * (1.0 - t) * np.eye(2), np.zeros(2))
    assert eigenvalues == [(2, 2)]


# the lowest eigenvalue lands within a few tolerances of zero, in units of
# UNCERTAINTY_TOL * scale: on both sides of the threshold -1 and of the
# certificates' -1/(2 scale)
_TARGETS = st.floats(-4.0, 4.0)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n_modes=st.integers(2, 3),
       gain=_GAINS.filter(lambda G: G <= 1e3), target=_TARGETS)
def test_uncertainty_check_decides_as_eigenvalues_do(seed, n_modes, gain, target):
    rng = np.random.default_rng(seed)
    state = random_state(rng, n_modes, depth=4)
    state = q.apply_map(state, q.single_mode_squeezer(q.PaGain(gain, rng.uniform(0, 6.3))), (0,))
    i_omega = 1j * q.symplectic_form(n_modes)
    cov = _shift_lowest_eigenvalue(state.cov, i_omega, target * TOL * _scale(state.cov))
    lowest = np.linalg.eigvalsh(cov + i_omega)[0]
    threshold = -TOL * _scale(cov)
    assume(abs(lowest - threshold) > 1e-3 * TOL * _scale(cov))
    accepted = _accepts(lambda: q.GaussianState(state.mean, cov), q.ConsistencyError)
    assert accepted == (lowest >= threshold)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), gain=st.floats(1.0, 50.0),
       eta=st.floats(0.01, 0.99), lossless=st.booleans(), target=_TARGETS)
def test_validity_check_decides_as_eigenvalues_do(seed, gain, eta, lossless, target):
    rng = np.random.default_rng(seed)
    squeezer = embed_map(q.two_mode_squeezer(q.PaGain(gain, rng.uniform(0, 6.3))), (0, 1), 2)
    if lossless:
        # a splitter after the squeezer, perturbed in a random direction:
        # to first order the residual grows linearly with the step, and a
        # lossless validity matrix's lowest eigenvalue is minus its norm
        gmap = q.compose(q.beam_splitter(q.SplitterSpec(rng.uniform(0, 1))), squeezer)
        direction = rng.uniform(-1.0, 1.0, (4, 4))
        omega = q.symplectic_form(2)
        first = direction @ omega @ gmap.linear.T + gmap.linear @ omega @ direction.T
        step = abs(target) * TOL * _scale(gmap.noise, gmap.linear) / np.linalg.norm(first, 2)
        linear, noise = gmap.linear + step * direction, gmap.noise
    else:
        lossy = q.compose(embed_map(q.loss_channel(eta), (int(rng.integers(0, 2)),), 2), squeezer)
        element, modes = random_element(rng, 2)
        gmap = q.compose(embed_map(element, modes, 2), lossy)
        assume(np.abs(gmap.noise).max() <= 1e4)
        linear, scale = gmap.linear, _scale(gmap.noise, gmap.linear)
        noise = _shift_lowest_eigenvalue(gmap.noise, _validity_i_part(linear), target * TOL * scale)
        assume(np.abs(noise).max() > 0.0)
    lowest = np.linalg.eigvalsh(noise + _validity_i_part(linear))[0]
    threshold = -TOL * _scale(noise, linear)
    assume(abs(lowest - threshold) > 1e-3 * TOL * _scale(noise, linear))
    accepted = _accepts(lambda: q.GaussianMap(linear, noise, gmap.displacement), q.ValidationError)
    assert accepted == (lowest >= threshold)


_CHANNEL = "invalid Gaussian channel: min eig of validity matrix is nan"
_ASYMMETRIC_NOISE = "noise matrix must be symmetric; asymmetric by nan"


def _loss_stack(slices=8):
    eta = np.linspace(0.05, 0.95, slices)
    return np.sqrt(eta)[:, None, None] * np.eye(2), (1.0 - eta)[:, None, None] * np.eye(2)


def _non_finite_maps():
    linear, noise = 0.5 * np.eye(2), 0.75 * np.eye(2)
    stack_linear, stack_noise = _loss_stack()
    for value in (math.nan, math.inf):
        bad_linear, bad_noise, bad_stack = linear.copy(), noise.copy(), stack_linear.copy()
        bad_linear[0, 0] = bad_noise[0, 0] = bad_stack[5, 0, 0] = value
        yield pytest.param(bad_linear, noise, _CHANNEL, None, id=f"linear {value}")
        yield pytest.param(linear, bad_noise, _ASYMMETRIC_NOISE, None, id=f"noise {value}")
        yield pytest.param(bad_stack, stack_noise, _CHANNEL, 5, id=f"stack linear {value}")
    bad_offdiagonal = linear.copy()
    bad_offdiagonal[0, 1] = math.nan
    yield pytest.param(bad_offdiagonal, noise, _CHANNEL, None, id="linear off-diagonal nan")
    bad_stack_noise = stack_noise.copy()
    bad_stack_noise[5, 0, 0] = math.nan
    yield pytest.param(stack_linear, bad_stack_noise, _ASYMMETRIC_NOISE, 5, id="stack noise nan")
    # 4 x 4: the two-mode squeezer's formula at a non-finite phase
    for phase, index, name in ((math.nan, None, "nan"), (math.inf, None, "inf"),
                               (np.array([0.0, math.nan, 1.0]), 1, "stack nan")):
        for square_noise, kind in ((np.zeros((4, 4)), "lossless"), (0.1 * np.eye(4), "noisy")):
            yield pytest.param(_squeezer_linear(phase), square_noise, _CHANNEL, index,
                               id=f"squeezer phase {name} {kind}")


def _squeezer_linear(phase):
    """The two-mode squeezer's linear part at G = 1.5 by its formula, at a
    phase the element itself refuses."""
    phase = np.asarray(phase)[..., None, None]
    with np.errstate(invalid="ignore"):
        coupling = np.cos(phase) * q.elements._PAIR_CONJ + np.sin(phase) * q.elements._PAIR_CONJ_I
    return 1.5 * np.eye(4) + math.sqrt(1.25) * coupling


@pytest.mark.parametrize("linear, noise, message, index", _non_finite_maps())
def test_non_finite_lossy_map_is_refused(linear, noise, message, index):
    # a NaN can pass through a Cholesky factorisation without raising; the
    # finite-diagonal guard sends it to the eigenvalues, which refuse it,
    # and a slice they might not converge on gets a NaN margin
    with pytest.raises(q.ValidationError) as info:
        q.GaussianMap(linear, noise, np.zeros(linear.shape[-1]))
    want = message if index is None else f"{message} at batch index {index}"
    assert str(info.value) == want
    assert info.value.batch_index == index
    assert math.isnan(info.value.margins[0])


def _stacked_tangent(bad_slice):
    tangent = np.zeros((3, 2, 2))
    tangent[bad_slice, 1, 0] = math.inf
    return tangent


#: Objects each refused with one exact message: malformed shapes, and
#: non-finite entries that no other check would see.
REFUSED = {
    "batch shapes": (lambda: q.GaussianMap(np.eye(2), np.zeros((4, 2, 2)), np.zeros((3, 2))),
                     "batch shapes ((), (4,), (3,)) do not match one batch axis"),
    "mean of odd length": (lambda: q.GaussianState(np.zeros(3), np.eye(3)),
                           "mean must be a non-empty vector of even length, got shape (3,)"),
    "cov shape": (lambda: q.GaussianState(np.zeros(2), np.eye(4)),
                  "cov shape (4, 4) does not match mean length 2"),
    "noise shape": (lambda: q.GaussianMap(np.eye(2), np.zeros((4, 4)), np.zeros(2)),
                    "noise shape (4, 4) does not match map size 2"),
    "displacement shape": (lambda: q.GaussianMap(np.eye(2), np.zeros((2, 2)), np.zeros(4)),
                           "displacement shape (4,) does not match map size 2"),
    "source without tangent": (
        lambda: q.apply_map(q.vacuum_state(1), q.phase_shifter(0.3), (0,), np.zeros((2, 2))),
        "a tangent source needs a state that carries a tangent"),
    "source of the wrong shape": (
        lambda: q.apply_map(q.GaussianState(np.zeros(4), np.eye(4), np.zeros((4, 2))),
                            q.phase_shifter(0.3), (1,), np.zeros((3, 2))),
        "tangent source shape (3, 2) does not end in (2, 2)"),
    "displacement nan": (lambda: q.GaussianMap(np.eye(2), np.zeros((2, 2)), [math.nan, 0.0]),
                         "displacement must be finite"),
    "stacked displacement inf": (
        lambda: q.GaussianMap(np.eye(2), np.zeros((2, 2)), [[0.0, 0.0], [0.0, 0.0], [0, -math.inf]]),
        "displacement must be finite at batch index 2"),
    "mean nan": (lambda: q.GaussianState([math.nan, 0.0], np.eye(2)), "mean must be finite"),
    "stacked mean inf": (
        lambda: q.GaussianState([[0.0, 0.0], [math.inf, 0.0]], np.eye(2)[None].repeat(2, 0)),
        "mean must be finite at batch index 1"),
    "tangent nan": (lambda: q.GaussianState(np.zeros(2), np.eye(2), [[0.0, math.nan], [0.0, 0.0]]),
                    "tangent must be finite"),
    "stacked tangent inf": (
        lambda: q.GaussianState(np.zeros((3, 2)), np.eye(2)[None].repeat(3, 0), _stacked_tangent(1)),
        "tangent must be finite at batch index 1"),
    # the symmetry check refuses it, with no warning from inf - inf first
    "cov inf": (lambda: q.GaussianState(np.zeros(2), [[math.inf, 0.0], [0.0, 1.0]]),
                "cov is asymmetric by nan (tol 1e-12)"),
}


@pytest.mark.parametrize("case", REFUSED)
def test_malformed_object_is_refused(case):
    # under the suite's error::RuntimeWarning filter: no warning may escape
    build, message = REFUSED[case]
    with pytest.raises(q.ValidationError) as info:
        build()
    assert str(info.value) == message


def _two_mode_squeezed_stack(slices=2048):
    gains = q.PaGain(np.linspace(1.0, 50.0, slices), 0.0)
    return q.apply_map(q.vacuum_state(2), q.two_mode_squeezer(gains), (0, 1))


def test_stacked_refusal_names_the_one_violating_slice():
    # the message, margin and index the eigenvalue-only check gave
    state = _two_mode_squeezed_stack()
    cov = state.cov.copy()
    cov[1337] -= 0.01 * np.eye(4)
    with pytest.raises(q.ConsistencyError) as info:
        q.GaussianState(state.mean, cov)
    assert str(info.value) == (
        "uncertainty relation violated: min eig of cov + i*Omega is -1.000e-02 at batch index 1337"
    )
    assert info.value.margins == pytest.approx((-0.010000000000218279,), rel=1e-9)
    assert info.value.batch_index == 1337

    linear, noise = _loss_stack(2048)
    noise[1337] *= 0.5
    with pytest.raises(q.ValidationError) as info:
        q.GaussianMap(linear, noise, np.zeros(2))
    assert str(info.value) == (
        "invalid Gaussian channel: min eig of validity matrix is -1.811e-01 at batch index 1337"
    )
    assert info.value.margins == pytest.approx((-0.18108207132388865,), rel=1e-9)
    assert info.value.batch_index == 1337


def test_stacked_symmetry_refusals_name_their_slice():
    # a failed whole-stack certificate falls back to the per-slice maxima:
    # the message, finite margin and index the per-slice check always gave
    state = _two_mode_squeezed_stack()
    cov = state.cov.copy()
    cov[1337, 0, 2] += 1e-9  # an entry of about 2 G g, so the skew is rounded
    with pytest.raises(q.ValidationError) as info:
        q.GaussianState(state.mean, cov)
    assert str(info.value) == "cov is asymmetric by 1.000e-09 (tol 1e-12) at batch index 1337"
    assert info.value.margins == (abs(cov[1337, 0, 2] - cov[1337, 2, 0]),)
    assert info.value.batch_index == 1337

    linear, noise = _loss_stack(2048)
    noise[1337, 0, 1] += 1e-9
    with pytest.raises(q.ValidationError) as info:
        q.GaussianMap(linear, noise, np.zeros(2))
    assert str(info.value) == (
        "noise matrix must be symmetric; asymmetric by 1.000e-09 at batch index 1337"
    )
    assert info.value.margins == (abs(noise[1337, 0, 1] - noise[1337, 1, 0]),)
    assert info.value.batch_index == 1337


def test_lossless_stack_certificate_and_its_fallback(monkeypatch):
    factorisations = _count_calls(monkeypatch, "cholesky")
    eigenvalues = _count_calls(monkeypatch, "eigvalsh")
    squeezer = q.two_mode_squeezer(q.PaGain(np.linspace(1.0, 50.0, 2048), 0.3))
    assert squeezer.batch_shape == (2048,)
    assert factorisations == eigenvalues == []

    # one slice off by 1e-6 relative fails the whole-stack certificate: the
    # stack goes to the positivity check, whose eigenvalues name that slice
    linear = squeezer.linear.copy()
    linear[1337] += 1e-6 * np.abs(linear[1337]).max() * _DIRECTION
    with pytest.raises(q.ValidationError, match="^invalid Gaussian channel: min eig of validity") as info:
        q.GaussianMap(linear, squeezer.noise, squeezer.displacement)
    assert str(info.value).endswith(" at batch index 1337")
    assert info.value.batch_index == 1337
    assert eigenvalues == [(2048, 4, 4)]

    # lossless and lossy slices in one stack: the positivity check decides
    factorisations.clear()
    eigenvalues.clear()
    noise = np.zeros((2048, 4, 4))
    noise[7] = 0.1 * np.eye(4)
    assert q.GaussianMap(squeezer.linear, noise, squeezer.displacement).batch_shape == (2048,)
    assert factorisations == [(2048, 4, 4)]
    assert eigenvalues == []


def test_pure_states_pass_without_eigenvalues(monkeypatch):
    # a pure state's cov + i*Omega is singular: it sits on the boundary
    states = [
        lambda: q.vacuum_state(3),
        lambda: q.apply_map(q.vacuum_state(1), q.single_mode_squeezer(q.PaGain(50.0)), (0,)),
        _two_mode_squeezed_stack,
    ]
    eigenvalues = _count_calls(monkeypatch, "eigvalsh")
    factorisations = _count_calls(monkeypatch, "cholesky")
    for build in states:
        build()
    assert eigenvalues == []
    assert (2048, 4, 4) in factorisations


def test_asymmetric_covariance_rejected():
    cov = np.eye(2)
    cov[0, 1] = 1e-6
    with pytest.raises(q.ValidationError):
        q.GaussianState(np.zeros(2), cov)


def test_quadrature_stats_coherent():
    state = q.displace(q.vacuum_state(1), 0, 2.0)
    assert q.quadrature_stats(state, 0, 0.0) == pytest.approx((4.0, 1.0))


def test_quadrature_stats_squeezed():
    # amplified quadrature of a squeezed vacuum: variance (G + g)^2 = 4
    state = q.apply_map(q.vacuum_state(1), q.single_mode_squeezer(q.PaGain(1.25)), (0,))
    mean, var = q.quadrature_stats(state, 0, 0.0)
    assert mean == pytest.approx(0.0, abs=1e-15)
    assert var == pytest.approx(4.0, rel=1e-12)


def test_quadrature_rotation_covariance():
    # variance at angle theta equals the rotated state's variance at angle 0
    rng = np.random.default_rng(11)
    for _ in range(25):
        state = random_state(rng, 2)
        theta = rng.uniform(0, 2 * math.pi)
        mode = int(rng.integers(0, 2))
        _, var_direct = q.quadrature_stats(state, mode, theta)
        rotated = q.apply_map(state, q.phase_shifter(-theta), (mode,))
        _, var_rotated = q.quadrature_stats(rotated, mode, 0.0)
        assert var_direct == pytest.approx(var_rotated, rel=1e-12)


def test_map_composition_matches_sequential_application():
    rng = np.random.default_rng(23)
    for _ in range(30):
        state = random_state(rng, 3, depth=3)
        m1, modes1 = random_element(rng, 3)
        m2, modes2 = random_element(rng, 3)
        sequential = q.apply_map(q.apply_map(state, m1, modes1), m2, modes2)
        fused = q.compose(embed_map(m2, modes2, 3), embed_map(m1, modes1, 3))
        combined = q.apply_map(state, fused, (0, 1, 2))
        assert np.allclose(sequential.mean, combined.mean, atol=1e-10)
        assert np.allclose(sequential.cov, combined.cov, atol=1e-10)


def test_random_circuits_preserve_uncertainty():
    # GaussianState construction re-checks cov + i Omega >= 0 on every step
    rng = np.random.default_rng(42)
    for _ in range(200):
        random_state(rng, 3, depth=8)


def test_states_are_immutable():
    state = q.vacuum_state(1)
    with pytest.raises(ValueError):
        state.mean[0] = 1.0
    with pytest.raises(ValueError):
        state.cov[0, 0] = 2.0
