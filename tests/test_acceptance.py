"""Acceptance gate: every criterion at its stated tolerance, one printed
pass/fail line per criterion (run with -s to see them on success)."""

import math

import numpy as np
import pytest

import qdmsim as q
from qdmsim.circuits import CircuitOp, CompiledCircuit, Monitor
from conftest import embed_map, random_state
from test_circuits import dsui_spec, mzi_spec, nested_spec


def _verdict(number: int, description: str, ok: bool) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {description}")
    assert ok, f"criterion {number} failed: {description}"


def _rel(value: float, want: float) -> float:
    return abs(value - want) / abs(want)


def test_criterion_1_su2_snr():
    worst_lin, worst_exact = 0.0, 0.0
    for T in (0.5, 0.9, 0.99):
        for alpha in (10.0, 1000.0):
            i_ps = (1 - T) * alpha**2
            want = q.su2_snr(T, i_ps, 1e-3)
            spec = q.CircuitSpec(
                q.Topology.MZI, alpha=alpha,
                splitters=(q.SplitterSpec(T), q.SplitterSpec(T)),
                delta=1e-3, epsilon=1e-3,
            )
            for output in ("phase", "amplitude"):
                got = q.channel_report(spec, output).snr
                worst_lin = max(worst_lin, _rel(got, want))
            exact = q.CircuitSpec(
                q.Topology.MZI, alpha=alpha,
                splitters=(q.SplitterSpec(T), q.SplitterSpec(T)),
                delta=1e-3, epsilon=1e-3,
                modulation_mode=q.ModulationMode.EXACT,
            )
            for output in ("phase", "amplitude"):
                got = q.channel_report(exact, output).snr
                worst_exact = max(worst_exact, _rel(got, want))
    ok = worst_lin < 1e-9 and worst_exact < 1e-2
    _verdict(1, f"SU(2) SNR = 4 T i_ps depth^2 (linearized {worst_lin:.1e} < 1e-9, "
                f"exact {worst_exact:.1e} < 1e-2)", ok)


def test_criterion_2_sui_noise_surface():
    gains = np.linspace(1.0, 3.0, 5)
    phis = np.linspace(0.0, 2 * math.pi, 8, endpoint=False)
    worst = 0.0
    minima_ok = True
    for G1 in gains:
        for G2 in gains:
            noises = []
            for phi in phis:
                got = q.operating_point(nested_spec(G1=G1, G2=G2, phi=phi))["phase"].var
                want = q.sui_output_noise(q.PaGain(G1), q.PaGain(G2), phi)
                worst = max(worst, _rel(got, want))
                noises.append(got)
            minima_ok &= noises[4] <= min(noises) + 1e-12  # phis[4] = pi
    ok = worst < 1e-9 and minima_ok
    _verdict(2, f"amplifier-pair output noise matches closed form on a 5x5x8 grid "
                f"({worst:.1e} < 1e-9) with the pi minimum", ok)


def test_criterion_3_sui_signal_slopes():
    spec = nested_spec(G1=5 / 3, G2=5 / 3, R=1e-4, alpha=1000.0)  # i_ps = 100
    readings = q.operating_point(spec)
    slope_d = readings["phase"].slope_delta
    slope_e = readings["amplitude"].slope_epsilon
    g2 = spec.gains[1]
    err_d = _rel(slope_d, 2 * g2.g * 10.0)
    err_e = _rel(slope_e, 2 * g2.G * 10.0)
    ok = err_d < 1e-6 and err_e < 1e-6
    _verdict(3, f"amplifier-pair slopes 2 g2 sqrt(i_ps), 2 G2 sqrt(i_ps) at R=1e-4 "
                f"(errors {err_d:.1e}, {err_e:.1e} < 1e-6)", ok)


def test_criterion_4_qdm_optimum_and_resource_sharing():
    spec = nested_spec(G1=5 / 3, G2=100.0, delta=1e-3, epsilon=1e-3)  # i_ps = 100
    rep_d = q.channel_report(spec, "phase")
    rep_e = q.channel_report(spec, "amplitude")
    optimum = q.sui_snr_optimum(spec.gains[0], 100.0, 1e-3)
    summary = q.enhancement_and_resources(rep_d, rep_e, spec.gains[0])
    checks = [
        _rel(rep_d.snr, optimum) < 1e-3,
        _rel(rep_e.snr, optimum) < 1e-3,
        _rel(summary.enhancement_delta, 4.5) < 1e-3,
        _rel(summary.enhancement_epsilon, 4.5) < 1e-3,
        _rel(summary.resource_total, summary.resource_bound) < 1e-3,
        summary.resource_bound == pytest.approx(4 * 100.0 * 9.0, rel=1e-12),
    ]
    _verdict(4, "joint-measurement optimum at G2=100: both SNRs, both 4.5x "
                "enhancements and the shared resource total within 0.1%", all(checks))


def test_criterion_5_degenerate_outputs():
    checks = []
    # dark-fringe variances and their product
    for G1 in (1.25, 5 / 3, 2.0):
        for G2 in (1.0, 5 / 4, 3.0):
            spec = dsui_spec(G1=G1, G2=G2)
            readings = q.operating_point(spec)
            got_x = readings["mix_minus"].var
            got_y = readings["mix_plus"].var
            a1, a2 = q.PaGain(G1), q.PaGain(G2)
            checks.append(_rel(got_x, (a2.G + a2.g) ** 2 * (a1.G - a1.g) ** 2) < 1e-9)
            checks.append(_rel(got_y, (a2.G - a2.g) ** 2 * (a1.G + a1.g) ** 2) < 1e-9)
            checks.append(_rel(got_x * got_y, 1.0) < 1e-9)
    # mixture SNR across readout angles at i_ps = 100
    for theta2 in (0.0, math.pi / 3, math.pi / 2, math.pi):
        spec = dsui_spec(
            G1=5 / 3, G2=5 / 4, theta1=theta2 + math.pi, theta2=theta2,
            delta=1e-3, epsilon=1e-3,
        )
        report = q.channel_report(spec, "mix_minus")
        want_x, _ = q.dsui_snr(spec.gains[0], 100.0, 1e-3, 1e-3, theta2)
        checks.append(_rel(report.snr, want_x) < 1e-6)
    # pure channels: theta2 = 0 reads amplitude only, theta2 = pi phase only
    spec0 = dsui_spec(theta1=math.pi, theta2=0.0)
    checks.append(abs(q.operating_point(spec0)["mix_minus"].slope_delta) < 1e-10)
    spec_pi = dsui_spec(theta1=2 * math.pi, theta2=math.pi)
    checks.append(abs(q.operating_point(spec_pi)["mix_minus"].slope_epsilon) < 1e-10)
    _verdict(5, "degenerate outputs: dark-fringe variances, unit uncertainty "
                "product, mixture SNRs and pure-channel selection", all(checks))


def test_criterion_6_degenerate_optimum_gain_independent():
    ratios = []
    for G2 in (1.0, 1.25, 5.0, 100.0):
        spec = dsui_spec(G1=5 / 3, G2=G2, delta=1e-3, epsilon=1e-3)
        report = q.channel_report(spec, "mix_minus")
        ratios.append(report.snr / report.value**2)
    spread = (max(ratios) - min(ratios)) / max(ratios)
    _verdict(6, f"mixture SNR per gamma^2 independent of the second gain "
                f"(spread {spread:.1e} < 1e-9)", spread < 1e-9)


def test_criterion_7_detection_loss_tolerance():
    g1 = q.PaGain(5 / 3)
    threshold_g2 = (9.0 + 1.0 / 9.0) / 2.0  # (G2 + g2)^2 = 9 (G1 + g1)^2
    points = q.loss_tolerance_scan(
        dsui_spec(G1=5 / 3), 0.5, [1.0, 2.0, threshold_g2, 6.0, 20.0]
    )
    checks = [abs(p.retention_numeric - p.retention_formula) < 1e-9 for p in points]
    by_g2 = {p.g2: p for p in points}
    checks.append(by_g2[threshold_g2].retention_numeric >= 0.9 - 1e-9)
    checks.append(by_g2[6.0].retention_numeric > 0.9)
    checks.append(by_g2[20.0].retention_numeric > 0.9)
    checks.append(by_g2[1.0].retention_numeric < 0.15)
    _verdict(7, "eta=0.5 SNR retention matches eta V/(eta V + 1 - eta), exceeds "
                "0.9 once (G2+g2)^2 >= 9 (G1+g1)^2, collapses without the "
                "second amplifier", all(checks))


def _element_circuits():
    xy = (Monitor("x", 0, 0.0), Monitor("y", 0, math.pi / 2))
    both = (Monitor("x0", 0, 0.0), Monitor("y0", 0, math.pi / 2),
            Monitor("x1", 1, 0.0), Monitor("y1", 1, math.pi / 2))
    yield "displacement", CompiledCircuit(
        1, (CircuitOp("displace", (0,), (0.6, 0.8)),), xy)
    yield "phase shifter", CompiledCircuit(
        1,
        (CircuitOp("displace", (0,), (1.0, 0.0)), CircuitOp("phase_shifter", (0,), (0.7,))),
        xy)
    yield "beam splitter", CompiledCircuit(
        2,
        (CircuitOp("displace", (0,), (1.0, 0.0)), CircuitOp("beam_splitter", (0, 1), (0.7,))),
        both)
    yield "loss channel", CompiledCircuit(
        1,
        (CircuitOp("single_mode_squeezer", (0,), (1.25, math.pi)),
         CircuitOp("loss_channel", (0,), (0.5,))),
        xy)
    yield "degenerate amplifier", CompiledCircuit(
        1, (CircuitOp("single_mode_squeezer", (0,), (1.25, 0.0)),), xy)
    yield "non-degenerate amplifier", CompiledCircuit(
        2, (CircuitOp("two_mode_squeezer", (0, 1), (1.25, 0.0)),), both)


def test_criterion_8_fock_oracle_equivalence():
    worst = 0.0
    config = q.FockConfig(cutoff=40)
    for _, circuit in _element_circuits():
        report = q.compare_with_gaussian(circuit, config, tolerance=1e-4)
        worst = max(worst, report.max_abs_deviation)
    full = dsui_spec(
        G1=1.25, G2=1.25, theta1=math.pi, theta2=0.0, alpha=1.0, R=0.01,
        epsilon=0.01, modulation_mode=q.ModulationMode.EXACT,
    )
    report = q.compare_with_gaussian(full, config, tolerance=1e-4)
    worst = max(worst, report.max_abs_deviation)
    _verdict(8, f"Gaussian engine vs Fock oracle on all elements and the full "
                f"degenerate interferometer (worst {worst:.1e} < 1e-4)", worst < 1e-4)


def test_criterion_9_property_suites():
    from qdmsim.gaussian import symplectic_form

    checks = []
    # symplectic identity over all lossless elements
    worst_symplectic = 0.0
    maps = [q.beam_splitter(q.SplitterSpec(T)) for T in (0.0, 0.25, 0.5, 0.77, 1.0)]
    maps += [q.phase_shifter(p) for p in (0.0, 1.0, math.pi)]
    for G in (1.0, 1.25, 2.0):
        for phase in (0.0, 1.1, math.pi):
            maps.append(q.two_mode_squeezer(q.PaGain(G, phase)))
            maps.append(q.single_mode_squeezer(q.PaGain(G, phase)))
    for gmap in maps:
        omega = symplectic_form(gmap.n_in)
        dev = np.max(np.abs(gmap.linear @ omega @ gmap.linear.T - omega))
        worst_symplectic = max(worst_symplectic, dev)
    checks.append(worst_symplectic < 1e-12)

    # uncertainty preservation across 1000 random circuits (validated on
    # construction of every intermediate state)
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        random_state(rng, 3, depth=6)
    checks.append(True)

    # interferometer identity at dark fringe
    worst_identity = 0.0
    for T in (0.2, 0.5, 0.9, 0.99):
        circuit = q.build_circuit(mzi_spec(T=T, alpha=0.0))
        total = q.identity_map(circuit.n_modes)
        for op in circuit.ops:
            total = q.compose(embed_map(op.kind.gaussian_map(*op.params), op.modes, circuit.n_modes), total)
        worst_identity = max(
            worst_identity, np.max(np.abs(total.linear - np.eye(2 * circuit.n_modes)))
        )
    checks.append(worst_identity < 1e-10)

    # mixture completeness identity
    rng = np.random.default_rng(7)
    worst_mixture = 0.0
    for _ in range(200):
        theta2 = rng.uniform(0, 2 * math.pi)
        delta, epsilon = rng.normal(size=2) * 0.03
        mix = q.mixture_angles(theta2, delta, epsilon)
        worst_mixture = max(
            worst_mixture,
            abs(mix.gamma_minus**2 + mix.gamma_plus**2 - (delta**2 + epsilon**2)),
        )
    checks.append(worst_mixture < 1e-10)

    # squeeze then unsqueeze
    worst_inverse = 0.0
    for G in (1.1, 1.25, 5 / 3, 2.2):
        for theta in (0.0, 0.9, math.pi / 2, 4.0):
            fused = q.compose(
                q.single_mode_squeezer(q.PaGain(G, theta + math.pi)),
                q.single_mode_squeezer(q.PaGain(G, theta)),
            )
            worst_inverse = max(worst_inverse, np.max(np.abs(fused.linear - np.eye(2))))
    checks.append(worst_inverse < 1e-10)

    _verdict(9, "property suites: symplectic identity, uncertainty preservation "
                "(1000 circuits), dark-fringe identity, mixture completeness, "
                "squeeze/unsqueeze inverse", all(checks))
