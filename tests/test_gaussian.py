import math

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


@pytest.mark.parametrize("G", [1.05, 50.0])
@pytest.mark.parametrize("element", [q.two_mode_squeezer, q.single_mode_squeezer])
def test_perturbed_lossless_map_is_still_rejected(element, G):
    # lossless maps skip the validity eigenvalue check; the symplectic
    # check alone must still refuse a map that is off by 1e-6 relative
    valid = element(q.PaGain(G, 0.3))
    rng = np.random.default_rng(11)
    linear = valid.linear * (1.0 + 1e-6 * rng.uniform(-1.0, 1.0, valid.linear.shape))
    with pytest.raises(q.ValidationError, match="lossless map is not symplectic"):
        q.GaussianMap(linear, valid.noise, valid.displacement)


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
    q.beam_splitter(q.SplitterSpec(0.3))
    q.two_mode_squeezer(q.PaGain(1.5, 0.2))
    assert factorisations == []
    q.loss_channel(0.5)
    assert factorisations == [(2, 2)]
    assert eigenvalues == []
    # a lossy map with too little noise has no certificate: its
    # eigenvalues refuse it
    t = 0.5
    with pytest.raises(q.ValidationError, match="invalid Gaussian channel"):
        q.GaussianMap(math.sqrt(t) * np.eye(2), 0.5 * (1.0 - t) * np.eye(2), np.zeros(2))
    assert eigenvalues == [(2, 2)]


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


# the lowest eigenvalue lands within a few tolerances of zero, on both
# sides of the threshold -UNCERTAINTY_TOL and of the certificate's -tol/2
_TARGETS = st.floats(-4.0, 4.0).map(lambda k: k * q.gaussian.UNCERTAINTY_TOL)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n_modes=st.integers(2, 3),
       gain=st.floats(1.0, 50.0), target=_TARGETS)
def test_uncertainty_check_decides_as_eigenvalues_do(seed, n_modes, gain, target):
    rng = np.random.default_rng(seed)
    state = random_state(rng, n_modes, depth=4)
    state = q.apply_map(state, q.single_mode_squeezer(q.PaGain(gain, rng.uniform(0, 6.3))), (0,))
    assume(np.abs(state.cov).max() <= 1e4)
    i_omega = 1j * q.symplectic_form(n_modes)
    cov = _shift_lowest_eigenvalue(state.cov, i_omega, target)
    lowest = np.linalg.eigvalsh(cov + i_omega)[0]
    assume(abs(lowest + q.gaussian.UNCERTAINTY_TOL) > 1e-12)
    accepted = _accepts(lambda: q.GaussianState(state.mean, cov), q.ConsistencyError)
    assert accepted == (lowest >= -q.gaussian.UNCERTAINTY_TOL)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), gain=st.floats(1.0, 50.0),
       eta=st.floats(0.01, 0.99), target=_TARGETS)
def test_validity_check_decides_as_eigenvalues_do(seed, gain, eta, target):
    rng = np.random.default_rng(seed)
    squeezer = embed_map(q.two_mode_squeezer(q.PaGain(gain, rng.uniform(0, 6.3))), (0, 1), 2)
    lossy = q.compose(embed_map(q.loss_channel(eta), (int(rng.integers(0, 2)),), 2), squeezer)
    element, modes = random_element(rng, 2)
    gmap = q.compose(embed_map(element, modes, 2), lossy)
    assume(np.abs(gmap.noise).max() <= 1e4)
    omega = q.symplectic_form(2)
    i_part = 1j * (omega - gmap.linear @ omega @ gmap.linear.T)
    noise = _shift_lowest_eigenvalue(gmap.noise, i_part, target)
    assume(np.abs(noise).max() > 0.0)
    lowest = np.linalg.eigvalsh(noise + i_part)[0]
    assume(abs(lowest + q.gaussian.UNCERTAINTY_TOL) > 1e-12)
    accepted = _accepts(lambda: q.GaussianMap(gmap.linear, noise, gmap.displacement),
                       q.ValidationError)
    assert accepted == (lowest >= -q.gaussian.UNCERTAINTY_TOL)


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


@pytest.mark.parametrize("linear, noise, message, index", _non_finite_maps())
def test_non_finite_lossy_map_is_refused(linear, noise, message, index):
    # a NaN can pass through a Cholesky factorisation without raising; the
    # finite-diagonal guard sends it to the eigenvalues, which refuse it
    with np.errstate(invalid="ignore"), pytest.raises(q.ValidationError) as info:
        q.GaussianMap(linear, noise, np.zeros(2))
    want = message if index is None else f"{message} at batch index {index}"
    assert str(info.value) == want
    assert info.value.batch_index == index
    assert math.isnan(info.value.margins[0])


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
