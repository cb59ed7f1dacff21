import math

import numpy as np
import pytest

import qdmsim as q
from qdmsim.gaussian import symplectic_form


def _symplectic_deviation(gmap):
    omega = symplectic_form(gmap.n_in)
    return np.max(np.abs(gmap.linear @ omega @ gmap.linear.T - omega))


def _all_lossless_elements():
    elements = []
    for T in (0.0, 0.1, 0.5, 0.77, 1.0):
        elements.append(q.beam_splitter(q.SplitterSpec(T)))
    for phi in (0.0, 0.3, math.pi / 2, math.pi, 5.0):
        elements.append(q.phase_shifter(phi))
    for G in (1.0, 1.25, 5 / 3, 3.0):
        for phase in (0.0, 0.9, math.pi):
            elements.append(q.two_mode_squeezer(q.PaGain(G, phase)))
            elements.append(q.single_mode_squeezer(q.PaGain(G, phase)))
    return elements


def test_lossless_elements_are_symplectic():
    for gmap in _all_lossless_elements():
        assert _symplectic_deviation(gmap) < 1e-12


def test_pa_gain_relation():
    gain = q.PaGain(5 / 3)
    assert gain.G**2 - gain.g**2 == pytest.approx(1.0, abs=1e-12)
    assert q.PaGain(1.0).g == 0.0


def test_pa_gain_below_one_rejected():
    with pytest.raises(q.ValidationError):
        q.PaGain(0.99)


def test_splitter_spec_bounds():
    assert q.SplitterSpec(0.3).R == pytest.approx(0.7)
    with pytest.raises(q.ValidationError):
        q.SplitterSpec(1.2)
    with pytest.raises(q.ValidationError):
        q.SplitterSpec(-0.1)


def test_full_transmission_splitter_is_identity():
    gmap = q.beam_splitter(q.SplitterSpec(1.0))
    assert np.allclose(gmap.linear, np.eye(4), atol=1e-15)


def test_balanced_splitter_mean():
    state = q.displace(q.vacuum_state(2), 0, 1.0)
    out = q.apply_map(state, q.beam_splitter(q.SplitterSpec(0.5)), (0, 1))
    assert out.mean[0] == pytest.approx(math.sqrt(2.0), rel=1e-14)
    # reflected port picks up -sqrt(R) of the input
    assert out.mean[2] == pytest.approx(-math.sqrt(2.0), rel=1e-14)


def test_splitter_keeps_vacuum():
    out = q.apply_map(q.vacuum_state(2), q.beam_splitter(q.SplitterSpec(0.3)), (0, 1))
    assert np.allclose(out.cov, np.eye(4), atol=1e-14)
    assert np.allclose(out.mean, 0.0)


def test_phase_shifter_zero_identity():
    assert np.allclose(q.phase_shifter(0.0).linear, np.eye(2))


def test_phase_shifter_quarter_turn():
    state = q.displace(q.vacuum_state(1), 0, 1.0)
    out = q.apply_map(state, q.phase_shifter(math.pi / 2), (0,))
    assert np.allclose(out.mean, [0.0, 2.0], atol=1e-15)


def test_phase_shifter_half_turn_negates_mean():
    state = q.displace(q.vacuum_state(1), 0, 1.3 + 0.4j)
    out = q.apply_map(state, q.phase_shifter(math.pi), (0,))
    assert np.allclose(out.mean, -state.mean, atol=1e-14)


def test_loss_identity_at_full_transmission():
    gmap = q.loss_channel(1.0)
    assert np.allclose(gmap.linear, np.eye(2))
    assert np.allclose(gmap.noise, 0.0)


@pytest.mark.parametrize("transmission", [0.1, 0.5, 0.9])
def test_loss_keeps_vacuum(transmission):
    out = q.apply_map(q.vacuum_state(1), q.loss_channel(transmission), (0,))
    assert np.allclose(out.cov, np.eye(2), atol=1e-14)


def test_loss_on_squeezed_vacuum():
    # var (1/4, 4) -> (eta/4 + 1 - eta, 4 eta + 1 - eta) at eta = 0.5;
    # Fock cross-check in test_fock.py
    squeezed = q.apply_map(
        q.vacuum_state(1), q.single_mode_squeezer(q.PaGain(1.25, math.pi)), (0,)
    )
    out = q.apply_map(squeezed, q.loss_channel(0.5), (0,))
    assert out.cov[0, 0] == pytest.approx(0.625, rel=1e-12)
    assert out.cov[1, 1] == pytest.approx(2.5, rel=1e-12)


@pytest.mark.parametrize("transmission", [0.0, -0.2, 1.0001])
def test_loss_rejects_bad_transmission(transmission):
    with pytest.raises(q.ValidationError):
        q.loss_channel(transmission)


def test_loss_channels_compose_multiplicatively():
    fused = q.compose(q.loss_channel(0.6), q.loss_channel(0.7))
    direct = q.loss_channel(0.6 * 0.7)
    assert np.allclose(fused.linear, direct.linear, atol=1e-12)
    assert np.allclose(fused.noise, direct.noise, atol=1e-12)


def test_two_mode_squeezer_identity_at_unit_gain():
    assert np.allclose(q.two_mode_squeezer(q.PaGain(1.0)).linear, np.eye(4))


def test_two_mode_squeezer_vacuum_moments():
    # each output quadrature G^2 + g^2, X-X cross covariance 2 G g
    gain = q.PaGain(5 / 3)
    out = q.apply_map(q.vacuum_state(2), q.two_mode_squeezer(gain), (0, 1))
    for k in range(4):
        assert out.cov[k, k] == pytest.approx(41 / 9, rel=1e-12)
    assert out.cov[0, 2] == pytest.approx(40 / 9, rel=1e-12)
    assert out.cov[1, 3] == pytest.approx(-40 / 9, rel=1e-12)


def test_single_mode_squeezer_variances():
    gain = q.PaGain(1.25, 0.0)
    out = q.apply_map(q.vacuum_state(1), q.single_mode_squeezer(gain), (0,))
    assert out.cov[0, 0] == pytest.approx(4.0, rel=1e-12)
    assert out.cov[1, 1] == pytest.approx(0.25, rel=1e-12)


def test_single_mode_squeezer_phase_rotates_ellipse():
    out = q.apply_map(
        q.vacuum_state(1), q.single_mode_squeezer(q.PaGain(1.25, math.pi)), (0,)
    )
    assert out.cov[0, 0] == pytest.approx(0.25, rel=1e-12)
    assert out.cov[1, 1] == pytest.approx(4.0, rel=1e-12)


def test_squeeze_then_unsqueeze_is_identity():
    for G in (1.1, 1.25, 2.0):
        for theta in (0.0, 0.7, math.pi / 2):
            fused = q.compose(
                q.single_mode_squeezer(q.PaGain(G, theta + math.pi)),
                q.single_mode_squeezer(q.PaGain(G, theta)),
            )
            assert np.max(np.abs(fused.linear - np.eye(2))) < 1e-10


def test_one_mode_symplectic_maps_preserve_ellipse_area():
    rng = np.random.default_rng(3)
    state = q.apply_map(
        q.vacuum_state(1), q.single_mode_squeezer(q.PaGain(1.4, 0.3)), (0,)
    )
    area = np.linalg.det(state.cov)
    for _ in range(20):
        if rng.random() < 0.5:
            gmap = q.phase_shifter(rng.uniform(0, 2 * math.pi))
        else:
            gmap = q.single_mode_squeezer(
                q.PaGain(rng.uniform(1, 2), rng.uniform(0, 2 * math.pi))
            )
        new = q.apply_map(state, gmap, (0,))
        assert np.linalg.det(new.cov) == pytest.approx(area, rel=1e-10)


def test_loss_channel_satisfies_validity_inequality():
    # the formula satisfies noise + i(Omega - S Omega S^T) >= 0
    gmap = q.loss_channel(0.4)
    omega = symplectic_form(1)
    validity = gmap.noise + 1j * (omega - gmap.linear @ omega @ gmap.linear.T)
    assert np.linalg.eigvalsh(validity)[0] > -1e-12


def test_invalid_channel_rejected():
    # pure attenuation without replacement noise is not a Gaussian channel
    with pytest.raises(q.ValidationError):
        q.GaussianMap(0.5 * np.eye(2), np.zeros((2, 2)), np.zeros(2))
