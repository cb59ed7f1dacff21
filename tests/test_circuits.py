import math

import numpy as np
import pytest

import qdmsim as q
from conftest import embed_map


def mzi_spec(T=0.99, alpha=100.0, **kw):
    return q.CircuitSpec(
        q.Topology.MZI,
        alpha=alpha,
        splitters=(q.SplitterSpec(T), q.SplitterSpec(T)),
        **kw,
    )


def nested_spec(G1=5 / 3, G2=5 / 3, phi=math.pi, R=1e-4, alpha=1000.0, **kw):
    return q.CircuitSpec(
        q.Topology.NESTED_SUI,
        alpha=alpha,
        splitters=(q.SplitterSpec(1 - R), q.SplitterSpec(1 - R)),
        gains=(q.PaGain(G1), q.PaGain(G2)),
        phi=phi,
        **kw,
    )


def dsui_spec(G1=5 / 3, G2=5 / 4, theta1=math.pi, theta2=0.0, R=1e-4, alpha=1000.0, **kw):
    return q.CircuitSpec(
        q.Topology.DEGENERATE_SUI,
        alpha=alpha,
        splitters=(q.SplitterSpec(1 - R), q.SplitterSpec(1 - R)),
        gains=(q.PaGain(G1, theta1), q.PaGain(G2, theta2)),
        **kw,
    )


# ---------------------------------------------------------------------------
# Mach-Zehnder
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("T", [0.1, 0.3, 0.5, 0.9, 0.99])
@pytest.mark.parametrize("mode", [q.ModulationMode.LINEARIZED, q.ModulationMode.EXACT])
def test_mzi_is_identity_at_dark_fringe(T, mode):
    spec = mzi_spec(T=T, alpha=0.0, modulation_mode=mode)
    circuit = q.build_circuit(spec)
    total = q.identity_map(circuit.n_modes)
    for op in circuit.ops:
        total = q.compose(embed_map(op.kind.gaussian_map(*op.params), op.modes, circuit.n_modes), total)
    assert np.max(np.abs(total.linear - np.eye(2 * circuit.n_modes))) < 1e-10
    assert np.max(np.abs(total.displacement)) < 1e-10


def test_mzi_passthrough_of_coherent_input():
    spec = mzi_spec(T=0.5, alpha=2.0)
    state = q.evaluate_circuit(q.build_circuit(spec))
    assert np.allclose(state.mean, [4.0, 0.0, 0.0, 0.0], atol=1e-12)
    assert np.allclose(state.cov, np.eye(4), atol=1e-12)


def test_mzi_linearized_phase_signal():
    # dark-port mean under phase modulation: (0, -2 alpha delta sqrt(TR))
    spec = mzi_spec(delta=1e-3)
    stats = q.monitor_stats(q.build_circuit(spec))
    expected = 2 * 100.0 * 1e-3 * math.sqrt(0.99 * 0.01)
    assert stats["phase"][0] == pytest.approx(-expected, rel=1e-12)
    assert stats["amplitude"][0] == pytest.approx(0.0, abs=1e-12)
    assert stats["phase"][1] == pytest.approx(1.0, rel=1e-12)


def test_mzi_linearized_amplitude_signal():
    spec = mzi_spec(epsilon=1e-3)
    stats = q.monitor_stats(q.build_circuit(spec))
    expected = 2 * 100.0 * 1e-3 * math.sqrt(0.99 * 0.01)
    assert stats["amplitude"][0] == pytest.approx(expected, rel=1e-12)
    assert stats["phase"][0] == pytest.approx(0.0, abs=1e-12)


def test_mzi_exact_matches_linearization_at_small_depths():
    # relative agreement ~ O(depth) at depth 1e-4
    for field in ("delta", "epsilon"):
        lin = q.monitor_stats(q.build_circuit(mzi_spec(**{field: 1e-4})))
        ex = q.monitor_stats(
            q.build_circuit(mzi_spec(modulation_mode=q.ModulationMode.EXACT, **{field: 1e-4}))
        )
        label = "phase" if field == "delta" else "amplitude"
        assert ex[label][0] == pytest.approx(lin[label][0], rel=1e-3)


def test_mzi_missing_splitters_rejected():
    with pytest.raises(q.ValidationError):
        q.build_circuit(q.CircuitSpec(q.Topology.MZI, alpha=1.0))


def test_mzi_output_splitter_adds_third_monitor_mode():
    spec = q.CircuitSpec(
        q.Topology.MZI,
        alpha=100.0,
        splitters=(q.SplitterSpec(0.99), q.SplitterSpec(0.99), q.SplitterSpec(0.6)),
        delta=1e-3,
        epsilon=1e-3,
    )
    circuit = q.build_circuit(spec)
    assert circuit.n_modes == 3
    stats = q.monitor_stats(circuit)
    base = 2 * 100.0 * 1e-3 * math.sqrt(0.99 * 0.01)
    assert abs(stats["phase"][0]) == pytest.approx(base * math.sqrt(0.6), rel=1e-12)
    assert abs(stats["amplitude"][0]) == pytest.approx(base * math.sqrt(0.4), rel=1e-12)


# ---------------------------------------------------------------------------
# nested amplifier interferometer
# ---------------------------------------------------------------------------


def test_nested_noise_at_dark_fringe_equal_gains():
    stats = q.monitor_stats(q.build_circuit(nested_spec()))
    assert stats["phase"][1] == pytest.approx(1.0, rel=1e-12)
    assert stats["amplitude"][1] == pytest.approx(1.0, rel=1e-12)


def test_nested_noise_at_bright_fringe():
    stats = q.monitor_stats(q.build_circuit(nested_spec(phi=0.0)))
    assert stats["phase"][1] == pytest.approx(3281 / 81, rel=1e-12)
    assert stats["amplitude"][1] == pytest.approx(3281 / 81, rel=1e-12)


def test_nested_with_unit_gains_passes_dark_port_through():
    # identity amplifiers: mode 1 is the bare dark port, with the phase
    # signal in its Y quadrature and unit variance
    spec = nested_spec(G1=1.0, G2=1.0, delta=1e-3)
    stats = q.monitor_stats(q.build_circuit(spec))
    assert stats["phase"][1] == pytest.approx(1.0, rel=1e-12)
    assert stats["amplitude"][1] == pytest.approx(1.0, rel=1e-12)
    state = q.evaluate_circuit(q.build_circuit(spec))
    mean_y, var_y = q.quadrature_stats(state, 1, math.pi / 2)
    expected = 2 * 1000.0 * 1e-3 * math.sqrt(1e-4)
    assert abs(mean_y) == pytest.approx(expected, rel=1e-12)
    assert var_y == pytest.approx(1.0, rel=1e-12)


def test_nested_noise_minimum_at_pi():
    gains = np.linspace(1.0, 2.2, 10)
    phis = np.linspace(0, 2 * math.pi, 16, endpoint=False)
    for G1 in gains:
        for G2 in gains:
            noises = [
                q.monitor_stats(q.build_circuit(nested_spec(G1=G1, G2=G2, phi=p, alpha=0.0)))[
                    "phase"
                ][1]
                for p in phis
            ]
            assert noises[8] <= min(noises) + 1e-12  # phis[8] = pi


def test_nested_probe_independence():
    # amplifier-side variances do not depend on the probe amplitude
    reference = q.monitor_stats(q.build_circuit(nested_spec(alpha=0.0)))
    for alpha in (1.0, 100.0, 1e4):
        stats = q.monitor_stats(q.build_circuit(nested_spec(alpha=alpha)))
        for label in ("phase", "amplitude"):
            assert stats[label][1] == pytest.approx(reference[label][1], abs=1e-10)


def test_nested_missing_gains_rejected():
    with pytest.raises(q.ValidationError):
        q.build_circuit(
            q.CircuitSpec(
                q.Topology.NESTED_SUI,
                alpha=1.0,
                splitters=(q.SplitterSpec(0.9999), q.SplitterSpec(0.9999)),
            )
        )


def test_nested_linearized_requires_dark_fringe():
    with pytest.raises(q.ValidationError):
        q.build_circuit(nested_spec(mzi_phi=0.3))


# ---------------------------------------------------------------------------
# degenerate amplifier interferometer
# ---------------------------------------------------------------------------


def test_dsui_dark_fringe_variances():
    stats = q.monitor_stats(q.build_circuit(dsui_spec()))
    assert stats["mix_minus"][1] == pytest.approx(4 / 9, rel=1e-12)
    assert stats["mix_plus"][1] == pytest.approx(9 / 4, rel=1e-12)


def test_dsui_equal_gains_restore_vacuum_noise():
    stats = q.monitor_stats(q.build_circuit(dsui_spec(G1=5 / 3, G2=5 / 3)))
    assert stats["mix_minus"][1] == pytest.approx(1.0, rel=1e-12)
    assert stats["mix_plus"][1] == pytest.approx(1.0, rel=1e-12)


def test_dsui_unit_second_gain_leaves_squeezed_noise():
    stats = q.monitor_stats(q.build_circuit(dsui_spec(G2=1.0)))
    g1 = q.PaGain(5 / 3)
    assert stats["mix_minus"][1] == pytest.approx((g1.G - g1.g) ** 2, rel=1e-12)


@pytest.mark.parametrize("G1", [1.0, 1.25, 5 / 3, 2.5])
@pytest.mark.parametrize("G2", [1.0, 1.6, 4.0])
def test_dsui_dark_fringe_minimum_uncertainty(G1, G2):
    stats = q.monitor_stats(q.build_circuit(dsui_spec(G1=G1, G2=G2)))
    product = stats["mix_minus"][1] * stats["mix_plus"][1]
    assert product == pytest.approx(1.0, rel=1e-10)


def test_dsui_general_angles_match_closed_form():
    for theta1, theta2 in [(0.4, 2.0), (math.pi, math.pi / 3), (2.2, 5.1)]:
        spec = dsui_spec(theta1=theta1, theta2=theta2)
        stats = q.monitor_stats(q.build_circuit(spec))
        want_x, want_y = q.dsui_output_noise(spec.gains[0], spec.gains[1])
        assert stats["mix_minus"][1] == pytest.approx(want_x, rel=1e-12)
        assert stats["mix_plus"][1] == pytest.approx(want_y, rel=1e-12)


def test_dsui_exact_mode_matches_linearized_signals():
    lin = q.monitor_stats(q.build_circuit(dsui_spec(epsilon=1e-4)))
    ex = q.monitor_stats(
        q.build_circuit(dsui_spec(epsilon=1e-4, modulation_mode=q.ModulationMode.EXACT))
    )
    assert ex["mix_minus"][0] == pytest.approx(lin["mix_minus"][0], rel=1e-3)


# ---------------------------------------------------------------------------
# direct homodyne baseline
# ---------------------------------------------------------------------------


def direct_spec(T3=0.5, alpha=100.0, **kw):
    return q.CircuitSpec(
        q.Topology.DIRECT_HOMODYNE, alpha=alpha, splitters=(q.SplitterSpec(T3),), **kw
    )


def test_direct_homodyne_splits_the_probe_resource():
    # i_ps is the full probe here; the splitter shares it between channels
    spec = direct_spec(T3=0.25, delta=1e-3, epsilon=1e-3)
    i_ps = 100.0**2
    rep_d = q.channel_report(spec, "phase")
    rep_e = q.channel_report(spec, "amplitude")
    want_d, want_e = q.split_snr(0.25, i_ps, 1e-3, 1e-3)
    assert rep_d.snr == pytest.approx(want_d, rel=1e-9)
    assert rep_e.snr == pytest.approx(want_e, rel=1e-9)
    assert rep_d.i_ps == pytest.approx(i_ps)


def test_direct_homodyne_noise_is_vacuum():
    spec = direct_spec()
    readings = q.operating_point(spec)
    assert readings["phase"].var == pytest.approx(1.0, rel=1e-12)
    assert readings["amplitude"].var == pytest.approx(1.0, rel=1e-12)


def test_direct_homodyne_needs_one_splitter():
    with pytest.raises(q.ValidationError):
        q.build_circuit(q.CircuitSpec(q.Topology.DIRECT_HOMODYNE, alpha=1.0))


def test_unknown_monitor_label_rejected():
    circuit = q.build_circuit(direct_spec())
    with pytest.raises(q.ValidationError):
        circuit.monitor("bogus")


# ---------------------------------------------------------------------------
# stage snapshots
# ---------------------------------------------------------------------------


def test_snapshot_input_is_unit_circle():
    snap = q.stage_snapshots(dsui_spec())[0]
    assert snap.label == "input"
    assert (snap.center_x, snap.center_y) == (0.0, 0.0)
    assert snap.major_variance == pytest.approx(1.0, rel=1e-12)
    assert snap.minor_variance == pytest.approx(1.0, rel=1e-12)


def test_snapshot_after_first_amplifier():
    snap = q.stage_snapshots(dsui_spec(G1=5 / 3, theta1=math.pi))[1]
    assert snap.label == "after_first_amplifier"
    assert snap.major_variance == pytest.approx(9.0, rel=1e-12)
    assert snap.minor_variance == pytest.approx(1 / 9, rel=1e-12)
    assert snap.orientation == pytest.approx(math.pi / 2, abs=1e-12)


def test_snapshot_encoding_displaces_center():
    spec = dsui_spec(delta=1e-3, epsilon=2e-3)
    snaps = q.stage_snapshots(spec)
    encoded = snaps[2]
    assert encoded.label == "after_encoding"
    root_r = math.sqrt(1e-4)
    assert encoded.center_x == pytest.approx(2 * 1000.0 * root_r * 2e-3, rel=1e-12)
    assert encoded.center_y == pytest.approx(-2 * 1000.0 * root_r * 1e-3, rel=1e-12)
    # covariance untouched by the encoding displacement
    assert encoded.major_variance == pytest.approx(snaps[1].major_variance, rel=1e-12)


def test_snapshot_output_equal_gains_is_displaced_circle():
    spec = dsui_spec(G1=5 / 3, G2=5 / 3, epsilon=1e-3)
    out = q.stage_snapshots(spec)[3]
    assert out.label == "output"
    assert out.major_variance == pytest.approx(1.0, rel=1e-10)
    assert out.minor_variance == pytest.approx(1.0, rel=1e-10)
    # second amplifier at theta2 = 0 amplifies X by (G + g) = 3
    encoded_x = 2 * 1000.0 * math.sqrt(1e-4) * 1e-3
    assert out.center_x == pytest.approx(3.0 * encoded_x, rel=1e-10)


def test_snapshots_only_for_degenerate_topology():
    with pytest.raises(q.ValidationError):
        q.stage_snapshots(mzi_spec())


# ---------------------------------------------------------------------------
# spec validation
# ---------------------------------------------------------------------------


def test_linearized_modulation_limit_enforced():
    with pytest.raises(q.ValidationError):
        mzi_spec(delta=0.2)


def test_exact_mode_rejects_negative_epsilon():
    with pytest.raises(q.ValidationError):
        mzi_spec(epsilon=-0.01, modulation_mode=q.ModulationMode.EXACT)


def test_detection_loss_bounds():
    with pytest.raises(q.ValidationError):
        mzi_spec(detection_loss=0.0)
    with pytest.raises(q.ValidationError):
        mzi_spec(detection_loss=1.5)


def test_detection_loss_attenuates_monitored_output():
    free = q.monitor_stats(q.build_circuit(nested_spec(phi=0.0)))
    lossy = q.monitor_stats(q.build_circuit(nested_spec(phi=0.0, detection_loss=0.5)))
    want = 0.5 * free["phase"][1] + 0.5
    assert lossy["phase"][1] == pytest.approx(want, rel=1e-12)
