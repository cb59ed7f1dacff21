import math
from dataclasses import replace

import numpy as np
import pytest

import qdmsim as q
from test_circuits import direct_spec, dsui_spec, mzi_spec, nested_spec


# ---------------------------------------------------------------------------
# slopes
# ---------------------------------------------------------------------------


def test_nested_phase_slope():
    # d<Y_d1>/d delta = 2 g2 sqrt(i_ps); i_ps = R alpha^2 = 100
    slope = q.signal_slope(nested_spec(), "delta", "phase")
    assert slope == pytest.approx(2 * (4 / 3) * 10.0, rel=1e-6)


def test_nested_amplitude_slope():
    slope = q.signal_slope(nested_spec(), "epsilon", "amplitude")
    assert slope == pytest.approx(2 * (5 / 3) * 10.0, rel=1e-6)


def test_nested_cross_slopes_vanish():
    assert q.signal_slope(nested_spec(), "delta", "amplitude") == pytest.approx(0.0, abs=1e-10)
    assert q.signal_slope(nested_spec(), "epsilon", "phase") == pytest.approx(0.0, abs=1e-10)


def test_mzi_dark_port_phase_only_in_y():
    assert q.signal_slope(mzi_spec(), "delta", "amplitude") == pytest.approx(0.0, abs=1e-10)


def test_exact_mode_slopes_carry_the_splitter_factor():
    # the physical circuit keeps the full interferometer, so the dark-port
    # coupling is sqrt(T R) and the slope sits a factor sqrt(T) below the
    # unbalanced-limit closed form
    spec = nested_spec(modulation_mode=q.ModulationMode.EXACT)
    slope = q.signal_slope(spec, "delta", "phase")
    want = 2 * (4 / 3) * 10.0 * math.sqrt(1 - 1e-4)
    assert slope == pytest.approx(want, rel=1e-8)


def test_exact_mode_epsilon_slope_one_sided():
    spec = mzi_spec(modulation_mode=q.ModulationMode.EXACT)
    slope = q.signal_slope(spec, "epsilon", "amplitude")
    assert slope == pytest.approx(2 * 100.0 * math.sqrt(0.99 * 0.01), rel=1e-7)


def finite_difference_slopes(spec, h):
    """Test-side slopes of every monitor mean at zero modulation: central
    difference in delta, one-sided Richardson difference in epsilon (EXACT
    mode models epsilon as loss, so it cannot go negative)."""

    def means(delta, epsilon):
        circuit = q.build_circuit(replace(spec, delta=delta, epsilon=epsilon))
        return {label: reading.mean for label, reading in q.monitor_stats(circuit).items()}

    base, up, down = means(0.0, 0.0), means(h, 0.0), means(-h, 0.0)
    half, full = means(0.0, h / 2), means(0.0, h)
    return {
        label: (
            (up[label] - down[label]) / (2 * h),
            2 * (half[label] - base[label]) / (h / 2) - (full[label] - base[label]) / h,
        )
        for label in base
    }


TANGENT_CASES = {
    "direct": lambda **kw: direct_spec(T3=0.3, alpha=complex(40.0, 7.0), **kw),
    "mzi": lambda **kw: mzi_spec(T=0.9, alpha=300.0, mzi_phi=0.3, **kw),
    "mzi split lossy": lambda **kw: q.CircuitSpec(
        q.Topology.MZI, alpha=200.0, detection_loss=0.7,
        splitters=(q.SplitterSpec(0.95), q.SplitterSpec(0.8), q.SplitterSpec(0.4)), **kw,
    ),
    "nested": lambda **kw: nested_spec(G1=1.4, G2=2.5, phi=2.0, R=0.01, alpha=100.0, **kw),
    "degenerate": lambda **kw: dsui_spec(
        G1=1.3, G2=3.0, theta1=1.0 + math.pi, theta2=1.0, R=0.01, alpha=100.0, **kw
    ),
}


@pytest.mark.parametrize("case", sorted(TANGENT_CASES))
@pytest.mark.parametrize(
    "mode, h, rtol",
    [(q.ModulationMode.EXACT, 1e-4, 1e-6), (q.ModulationMode.LINEARIZED, 1e-2, 1e-9)],
)
def test_tangent_slopes_match_finite_differences(case, mode, h, rtol):
    spec = TANGENT_CASES[case](modulation_mode=mode)
    readings = q.operating_point(spec)
    oracle = finite_difference_slopes(spec, h)
    assert set(readings) == set(oracle)
    # cross slopes can vanish, so errors are relative to the circuit's scale
    scale = max(abs(s) for slopes in oracle.values() for s in slopes)
    assert scale > 0.0
    for label, (fd_delta, fd_epsilon) in oracle.items():
        assert abs(readings[label].slope_delta - fd_delta) <= rtol * scale
        assert abs(readings[label].slope_epsilon - fd_epsilon) <= rtol * scale
        assert q.signal_slope(spec, "delta", label) == readings[label].slope_delta
        assert q.signal_slope(spec, "epsilon", label) == readings[label].slope_epsilon


def test_slope_rejects_bad_parameter():
    with pytest.raises(q.ValidationError):
        q.signal_slope(mzi_spec(), "phi", "phase")


# ---------------------------------------------------------------------------
# noise
# ---------------------------------------------------------------------------


def test_mzi_dark_port_noise_is_vacuum():
    assert q.output_noise(mzi_spec(delta=1e-3), "phase") == pytest.approx(1.0, rel=1e-12)


def test_nested_noise_values():
    assert q.output_noise(nested_spec(phi=0.0), "phase") == pytest.approx(3281 / 81, rel=1e-12)
    assert q.output_noise(nested_spec(), "phase") == pytest.approx(1.0, rel=1e-12)


def test_dsui_noise_value():
    assert q.output_noise(dsui_spec(), "mix_minus") == pytest.approx(4 / 9, rel=1e-12)


# ---------------------------------------------------------------------------
# numeric SNR
# ---------------------------------------------------------------------------


def test_mzi_snr_matches_closed_form():
    spec = mzi_spec(alpha=1000.0, delta=1e-3)  # i_ps = 0.01 * 1e6 = 1e4
    report = q.snr_numeric(spec, "delta", "phase", 1e-3)
    assert report.i_ps == pytest.approx(1e4, rel=1e-12)
    assert report.snr == pytest.approx(q.su2_snr(0.99, 1e4, 1e-3), rel=1e-9)
    assert report.snr == pytest.approx(report.signal**2 / report.noise_var, rel=1e-12)


def test_snr_zero_at_zero_depth():
    report = q.snr_numeric(mzi_spec(), "delta", "phase", 0.0)
    assert report.snr == 0.0


def test_snr_guards_linear_regime():
    with pytest.raises(q.ValidationError):
        q.snr_numeric(mzi_spec(), "delta", "phase", 0.5)


def test_nested_snr_approaches_optimum_at_large_second_gain():
    spec = nested_spec(G2=100.0, alpha=1e4)  # i_ps = 1e4
    report = q.snr_numeric(spec, "delta", "phase", 1e-3)
    optimum = q.sui_snr_optimum(q.PaGain(5 / 3), 1e4, 1e-3)
    assert optimum == pytest.approx(0.18, rel=1e-12)
    assert report.snr == pytest.approx(optimum, rel=1e-3)
    assert report.snr < optimum


def test_monotone_approach_to_optimum():
    previous = 0.0
    optimum = q.sui_snr_optimum(q.PaGain(5 / 3), 100.0, 1e-3)
    for G2, tol in [(2.0, None), (5.0, None), (10.0, 1e-2), (100.0, 1e-3)]:
        report = q.snr_numeric(nested_spec(G2=G2), "delta", "phase", 1e-3)
        assert report.snr > previous
        assert report.snr < optimum
        if tol is not None:
            assert report.snr == pytest.approx(optimum, rel=tol)
        previous = report.snr


def test_numeric_matches_closed_form_on_gain_grid():
    for G1 in np.linspace(1.0, 2.4, 5):
        for G2 in np.linspace(1.0, 2.4, 5):
            for phi in (0.0, math.pi / 2, math.pi, 4.5):
                spec = nested_spec(G1=G1, G2=G2, phi=phi, delta=1e-3, epsilon=1e-3)
                num_d = q.snr_numeric(spec, "delta", "phase", 1e-3).snr
                num_e = q.snr_numeric(spec, "epsilon", "amplitude", 1e-3).snr
                g1, g2 = spec.gains
                assert num_d == pytest.approx(
                    q.sui_snr_phase(g1, g2, 100.0, 1e-3, phi), rel=1e-6
                )
                assert num_e == pytest.approx(
                    q.sui_snr_amplitude(g1, g2, 100.0, 1e-3, phi), rel=1e-6
                )


def test_exact_and_linearized_snr_agree_to_first_order():
    for depth in (1e-3, 1e-4):
        lin = q.snr_numeric(nested_spec(), "delta", "phase", depth).snr
        ex = q.snr_numeric(
            nested_spec(modulation_mode=q.ModulationMode.EXACT), "delta", "phase", depth
        ).snr
        assert abs(ex - lin) / lin < 10 * depth + 1e-3  # finite-R floor ~ R


# ---------------------------------------------------------------------------
# degenerate channels
# ---------------------------------------------------------------------------


def test_dsui_channel_report_matches_closed_form():
    for theta2 in (0.0, math.pi / 3, math.pi / 2, math.pi):
        spec = dsui_spec(theta1=theta2 + math.pi, theta2=theta2, delta=1e-3, epsilon=1e-3)
        report = q.channel_report(spec, "mix_minus")
        want_x, _ = q.dsui_snr(spec.gains[0], 100.0, 1e-3, 1e-3, theta2)
        assert report.snr == pytest.approx(want_x, rel=1e-6)


def test_dsui_snr_independent_of_second_gain():
    values = []
    for G2 in (1.0, 1.25, 5.0, 100.0):
        spec = dsui_spec(G2=G2, delta=1e-3, epsilon=1e-3)
        report = q.channel_report(spec, "mix_minus")
        values.append(report.snr / report.value**2)
    spread = (max(values) - min(values)) / max(values)
    assert spread < 1e-9


def test_dsui_pure_channels_at_special_angles():
    # theta2 = 0 reads amplitude only, theta2 = pi phase only
    spec0 = dsui_spec(theta1=math.pi, theta2=0.0)
    assert q.signal_slope(spec0, "delta", "mix_minus") == pytest.approx(0.0, abs=1e-10)
    spec_pi = dsui_spec(theta1=2 * math.pi, theta2=math.pi)
    assert q.signal_slope(spec_pi, "epsilon", "mix_minus") == pytest.approx(0.0, abs=1e-10)
    g1 = spec_pi.gains[0]
    snr = q.channel_report(replace(spec_pi, delta=1e-2), "mix_minus").snr
    assert snr == pytest.approx(4 * 100.0 * 1e-4 * (g1.G + g1.g) ** 2, rel=1e-6)
    assert snr == pytest.approx(0.36, rel=1e-6)


def test_mixture_identity():
    rng = np.random.default_rng(5)
    for _ in range(50):
        theta2 = rng.uniform(0, 2 * math.pi)
        delta, epsilon = rng.normal(size=2) * 0.01
        mix = q.mixture_angles(theta2, delta, epsilon)
        assert mix.gamma_minus**2 + mix.gamma_plus**2 == pytest.approx(
            delta**2 + epsilon**2, rel=1e-12, abs=1e-15
        )


def test_mixture_completeness_of_channel_snrs():
    delta, epsilon = 1e-3, 2e-3
    for theta2 in np.linspace(0, 2 * math.pi, 7):
        spec = dsui_spec(theta1=theta2 + math.pi, theta2=theta2, delta=delta, epsilon=epsilon)
        g1 = spec.gains[0]
        snr_x = q.channel_report(spec, "mix_minus").snr
        snr_y = q.channel_report(spec, "mix_plus").snr
        total = snr_x / (4 * 100.0 * (g1.G + g1.g) ** 2) + snr_y / (
            4 * 100.0 * (g1.G - g1.g) ** 2
        )
        assert total == pytest.approx(delta**2 + epsilon**2, rel=1e-10)


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


def test_sui_snr_at_equal_gains():
    gain = q.PaGain(5 / 3)
    assert q.sui_snr_phase(gain, gain, 100.0, 0.01) == pytest.approx(
        4 * (16 / 9) * 100.0 * 1e-4, rel=1e-12
    )


def test_sui_optimum_without_entanglement():
    assert q.sui_snr_optimum(q.PaGain(1.0), 100.0, 0.01) == pytest.approx(
        2 * 100.0 * 1e-4, rel=1e-12
    )


def test_split_snr_shares_resource():
    snr_d, snr_e = q.split_snr(0.25, 100.0, 0.01, 0.01)
    assert snr_d == pytest.approx(4 * 0.25 * 100.0 * 1e-4)
    assert snr_e == pytest.approx(4 * 0.75 * 100.0 * 1e-4)


def test_closed_form_dispatcher():
    gain = q.PaGain(5 / 3)
    value = q.closed_form("sui_noise", gain1=gain, gain2=gain, phi=math.pi)
    assert value == pytest.approx(1.0, rel=1e-12)
    with pytest.raises(q.ValidationError):
        q.closed_form("nope")
    with pytest.raises(q.ValidationError):
        q.closed_form("sui_noise", gain1=gain)


# ---------------------------------------------------------------------------
# enhancement, resource sharing, loss tolerance
# ---------------------------------------------------------------------------


def test_qdm_enhancement_and_resource_sharing_at_optimum():
    spec = nested_spec(G2=100.0, delta=1e-3, epsilon=1e-3)
    rep_d = q.snr_numeric(spec, "delta", "phase", 1e-3)
    rep_e = q.snr_numeric(spec, "epsilon", "amplitude", 1e-3)
    summary = q.enhancement_and_resources(rep_d, rep_e, spec.gains[0])
    assert summary.enhancement_delta == pytest.approx(4.5, rel=1e-3)
    assert summary.enhancement_epsilon == pytest.approx(4.5, rel=1e-3)
    assert summary.resource_bound == pytest.approx(4 * 100.0 * 9.0, rel=1e-12)
    assert summary.resource_total == pytest.approx(summary.resource_bound, rel=1e-3)


def test_no_entanglement_means_pure_splitting_loss():
    spec = nested_spec(G1=1.0, G2=100.0, delta=1e-3, epsilon=1e-3)
    rep_d = q.snr_numeric(spec, "delta", "phase", 1e-3)
    rep_e = q.snr_numeric(spec, "epsilon", "amplitude", 1e-3)
    summary = q.enhancement_and_resources(rep_d, rep_e, spec.gains[0])
    assert summary.enhancement_delta == pytest.approx(0.5, rel=1e-3)
    assert summary.enhancement_epsilon == pytest.approx(0.5, rel=1e-3)


def test_qdm_criterion_threshold():
    # both channels beat the classical bound iff (G1 + g1)^2 / 2 > 1
    for G1, beats in [(1.0, False), (1.02, False), (1.2, True), (5 / 3, True)]:
        spec = nested_spec(G1=G1, G2=100.0, delta=1e-3, epsilon=1e-3)
        rep_d = q.snr_numeric(spec, "delta", "phase", 1e-3)
        rep_e = q.snr_numeric(spec, "epsilon", "amplitude", 1e-3)
        gain = q.PaGain(G1)
        expect = (gain.G + gain.g) ** 2 / 2 > 1.0
        assert expect == beats
        # finite-G2 SNR sits slightly below the optimum, so compare against
        # a threshold with 1% headroom
        both_beat = rep_d.enhancement > 0.99 and rep_e.enhancement > 0.99
        assert both_beat == beats or (rep_d.enhancement > 1 and rep_e.enhancement > 1) == beats


def test_resource_accounting_rejects_zero_depth():
    spec = nested_spec(delta=1e-3, epsilon=1e-3)
    rep_d = q.snr_numeric(spec, "delta", "phase", 1e-3)
    rep_zero = q.snr_numeric(spec, "epsilon", "amplitude", 0.0)
    with pytest.raises(q.ValidationError):
        q.enhancement_and_resources(rep_d, rep_zero, spec.gains[0])


def test_loss_tolerance_unit_efficiency():
    points = q.loss_tolerance_scan(dsui_spec(), 1.0, [1.0, 2.0, 10.0])
    for point in points:
        assert point.retention_numeric == pytest.approx(1.0, rel=1e-12)
        assert point.retention_formula == pytest.approx(1.0, rel=1e-12)


def test_loss_tolerance_amplified_output():
    # (G2 + g2)^2 = 81 -> lossless noise 9 -> retention 0.9 at eta = 0.5
    g2 = (9.0 + 1.0 / 9.0) / 2.0
    [point] = q.loss_tolerance_scan(dsui_spec(), 0.5, [g2])
    assert point.lossless_noise == pytest.approx(9.0, rel=1e-10)
    assert point.retention_numeric == pytest.approx(0.9, rel=1e-9)
    assert point.retention_formula == pytest.approx(0.9, rel=1e-12)


def test_loss_tolerance_without_second_amplifier():
    [point] = q.loss_tolerance_scan(dsui_spec(), 0.5, [1.0])
    assert point.lossless_noise == pytest.approx(1 / 9, rel=1e-10)
    assert point.retention_numeric == pytest.approx(0.1, rel=1e-9)


def test_loss_tolerance_rejects_bad_eta():
    with pytest.raises(q.ValidationError):
        q.loss_tolerance_scan(dsui_spec(), 0.0, [1.0])
