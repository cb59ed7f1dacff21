import math

import numpy as np
import pytest

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


def test_validity_eigenvalues_run_for_lossy_maps_only(monkeypatch):
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counting(matrix):
        calls.append(matrix.shape)
        return eigvalsh(matrix)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    q.beam_splitter(q.SplitterSpec(0.3))
    q.two_mode_squeezer(q.PaGain(1.5, 0.2))
    assert calls == []
    q.loss_channel(0.5)
    assert calls == [(2, 2)]
    # and it still refuses a lossy map with too little noise
    t = 0.5
    with pytest.raises(q.ValidationError, match="invalid Gaussian channel"):
        q.GaussianMap(math.sqrt(t) * np.eye(2), 0.5 * (1.0 - t) * np.eye(2), np.zeros(2))


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
