"""Signal, noise, SNR and resource accounting for compiled circuits.

Numeric quantities are measured on the compiled circuit in one pass per
operating point (:func:`operating_point`): the circuit is evaluated once at
zero modulation, and the evaluation carries the derivative of the mean
with respect to (delta, epsilon) forward with the state (forward-mode
differentiation).  A grid spec, whose swept fields hold one value per
grid point, is one such pass for the whole grid, and its reports hold one
value per grid point in each field.  A monitor's noise is its quadrature
variance there and its signal slope the exact derivative of its mean; in
EXACT mode the epsilon slope is the one-sided derivative at
epsilon -> 0+, since negative epsilon would be gain, not loss.  Every
report of one operating point reads that same pass.
The closed forms the measurements are checked against live in the
``*_snr`` / ``*_noise`` functions below, each in a form where no
difference of large terms cancels.  They share no code with the
measurement, so the two routes stay independent; :func:`closed_forms`
picks those of a spec's topology.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .circuits import (
    LINEAR_MOD_LIMIT,
    CircuitSpec,
    MonitorReading,
    Topology,
    _is_grid,
    build_circuit,
    monitor_stats,
    unknown_output,
)
from .elements import PaGain
from .exceptions import NumericalError, ValidationError, check
from .scenario import apply_axis_value


@dataclass(frozen=True)
class SnrReport:
    """Signal and noise budget for one monitored quadrature.

    ``signal_slope`` is d<quadrature>/d(parameter) at the operating point,
    ``signal`` the slope times the parameter value, ``snr`` their squared
    ratio to the noise variance, ``i_ps`` the phase-sensing photon number
    R |alpha|^2 and ``enhancement`` the SNR relative to the ideal classical
    single-channel bound 4 i_ps value^2.
    """

    quadrature: str
    parameter: str
    value: float
    signal_slope: float
    signal: float
    noise_var: float
    snr: float
    i_ps: float
    enhancement: float


@dataclass(frozen=True)
class MixtureAngle:
    """Orthogonal modulation mixtures selected by the readout angle theta2."""

    gamma_minus: float
    gamma_plus: float


def mixture_angles(theta2: float, delta: float, epsilon: float) -> MixtureAngle:
    half = theta2 / 2.0
    cos, sin = np.cos(half), np.sin(half)
    gamma_minus = -epsilon * cos + delta * sin
    gamma_plus = epsilon * sin + delta * cos
    return MixtureAngle(gamma_minus, gamma_plus)


def probe_photon_number(spec: CircuitSpec) -> float:
    """Photon number actually probing the modulators (R |alpha|^2, or
    |alpha|^2 when the full beam is modulated)."""
    alpha = spec.alpha
    # numpy's complex abs can differ from Python's in the last bit; its hypot does not
    photons = np.hypot(alpha.real, alpha.imag) ** 2 if _is_grid(alpha) else abs(alpha) ** 2
    if spec.topology is Topology.DIRECT_HOMODYNE:
        return photons
    return spec.splitters[0].R * photons


def operating_point(spec: CircuitSpec) -> dict[str, MonitorReading]:
    """Every monitor of ``spec`` read from one evaluation at zero
    modulation: noise variance and exact slopes in delta and epsilon,
    arrays over the grid for a grid spec."""
    return monitor_stats(build_circuit(replace(spec, delta=0.0, epsilon=0.0)))


def _reading(readings: dict[str, MonitorReading], output: str) -> MonitorReading:
    try:
        return readings[output]
    except KeyError:
        raise unknown_output(output, readings) from None


def _classical_bound(i_ps: float, noise_var: float, slope: float) -> float:
    # enhancement = snr / (4 i_ps value^2); the value cancels against signal^2.
    # It is nan where no light reaches the modulators (i_ps = 0).
    if _is_grid(i_ps):
        return np.divide(slope * slope, 4.0 * i_ps * noise_var,
                         out=np.full(i_ps.shape, math.nan), where=i_ps != 0.0)
    return math.nan if i_ps == 0.0 else slope * slope / (4.0 * i_ps * noise_var)


def _mixture(parameter: str):
    """Projection of a (delta, epsilon) pair onto the mixture ``parameter``
    selected by the spec's readout angle theta2."""
    return lambda spec, d, e: getattr(mixture_angles(spec.gains[1].phase, d, e), parameter)


#: Each canonical channel: the parameter it reports, the modulation depths
#: it reads, and its projection of a (delta, epsilon) pair onto that
#: parameter.  Phase and amplitude are the two axis-aligned mixtures.
_CHANNELS = {
    "phase": ("delta", ("delta",), lambda spec, d, e: d),
    "amplitude": ("epsilon", ("epsilon",), lambda spec, d, e: e),
    "mix_minus": ("gamma_minus", ("delta", "epsilon"), _mixture("gamma_minus")),
    "mix_plus": ("gamma_plus", ("delta", "epsilon"), _mixture("gamma_plus")),
}


def channel_report(
    spec: CircuitSpec, output: str, readings: dict[str, MonitorReading] | None = None
) -> SnrReport:
    """SNR report for a monitor's canonical channel at the spec's modulation.

    ``phase`` reads delta and ``amplitude`` reads epsilon.  The degenerate
    topology's two outputs read the mixtures gamma_minus / gamma_plus of
    both.  A channel's value is its projection of the modulation depths and
    its slope the same projection of the delta and epsilon slopes, the
    response per unit of the channel's parameter.  Every depth a channel
    reads must lie within the linear-regime guard.  ``readings`` is the
    spec's :func:`operating_point`, evaluated here when not given, so that
    the reports of one operating point can share one evaluation.  For a
    grid spec every field holds one value per grid point.
    """
    if output not in _CHANNELS:
        raise ValidationError(f"no canonical channel for output {output!r}")
    parameter, depths, project = _CHANNELS[output]
    for depth in depths:
        value = getattr(spec, depth)
        check(np.abs(value) < LINEAR_MOD_LIMIT, value, ValidationError,
              f"modulation {depth} = {{}} outside the linear regime guard "
              f"|{depth}| < {LINEAR_MOD_LIMIT}")
    if readings is None:
        readings = operating_point(spec)
    reading = _reading(readings, output)
    slope = project(spec, reading.slope_delta, reading.slope_epsilon)
    value = project(spec, spec.delta, spec.epsilon)
    check(np.isfinite(slope), slope, NumericalError,
          f"non-finite slope for {parameter} on {output}")
    signal = slope * value
    i_ps = probe_photon_number(spec)
    return SnrReport(
        quadrature=output,
        parameter=parameter,
        value=value,
        signal_slope=slope,
        signal=signal,
        noise_var=reading.var,
        snr=signal * signal / reading.var,
        i_ps=i_ps,
        enhancement=_classical_bound(i_ps, reading.var, slope),
    )


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


def su2_snr(T: float, i_ps: float, depth: float) -> float:
    """Linear-interferometer SNR 4 T i_ps depth^2 (same form for both
    modulations)."""
    return 4.0 * T * i_ps * depth * depth


def split_snr(T3: float, i_ps: float, delta: float, epsilon: float) -> tuple[float, float]:
    """Joint classical measurement through an output splitter: the two
    channels share the probe resource."""
    return (4.0 * T3 * i_ps * delta * delta, 4.0 * (1.0 - T3) * i_ps * epsilon * epsilon)


def sui_output_noise(gain1: PaGain, gain2: PaGain, phi: float) -> float:
    """Output quadrature variance of the non-degenerate amplifier pair,
    (G1^2 + g1^2)(G2^2 + g2^2) + 4 G1 G2 g1 g2 cos(phi), minimal at phi = pi.

    Written as a^2 + b^2 + 8 G1 G2 g1 g2 cos^2(phi/2), with a = G1 G2 - g1 g2
    and b = G1 g2 - g1 G2 each taken as a quotient that does not cancel."""
    G1, g1, G2, g2 = gain1.G, gain1.g, gain2.G, gain2.g
    a = (G1 * G1 + G2 * G2 - 1.0) / (G1 * G2 + g1 * g2)
    cross = G1 * g2 + g1 * G2
    b = (G2 - G1) * (G2 + G1) / cross if cross else 0.0  # 0/0 only at G1 = G2 = 1
    half = math.cos(phi / 2.0)
    return a * a + b * b + 8.0 * G1 * G2 * g1 * g2 * half * half


def sui_snr_phase(
    gain1: PaGain, gain2: PaGain, i_ps: float, delta: float, phi: float = math.pi
) -> float:
    """Phase channel of the nested amplifier interferometer: signal slope
    2 g2 sqrt(i_ps) over the amplifier-pair noise."""
    g2 = gain2.g
    return 4.0 * g2 * g2 * i_ps * delta * delta / sui_output_noise(gain1, gain2, phi)


def sui_snr_amplitude(
    gain1: PaGain, gain2: PaGain, i_ps: float, epsilon: float, phi: float = math.pi
) -> float:
    """Amplitude channel: slope 2 G2 sqrt(i_ps) over the same noise."""
    G2 = gain2.G
    return 4.0 * G2 * G2 * i_ps * epsilon * epsilon / sui_output_noise(gain1, gain2, phi)


def sui_snr_optimum(gain1: PaGain, i_ps: float, depth: float) -> float:
    """Large-second-gain limit of both channels: 2 i_ps depth^2 (G1 + g1)^2."""
    amp = gain1.G + gain1.g
    return 2.0 * i_ps * depth * depth * amp * amp


def dsui_output_noise(gain1: PaGain, gain2: PaGain) -> tuple[float, float]:
    """Variances of the two monitored quadratures of the degenerate pair,
    general in the amplifier phases (difference Delta = theta1 - theta2)."""
    G1, g1, G2, g2 = gain1.G, gain1.g, gain2.G, gain2.g
    half = (gain1.phase - gain2.phase) / 2.0
    # |G1 +- g1 e^{-i Delta}|^2 = (G1 - g1)^2 + 4 G1 g1 (cos or sin)^2(Delta/2),
    # and G - g = 1/(G + g) does not cancel
    floor = 1.0 / (G1 + g1) ** 2
    plus = floor + 4.0 * G1 * g1 * math.cos(half) ** 2
    minus = floor + 4.0 * G1 * g1 * math.sin(half) ** 2
    return ((G2 + g2) ** 2 * plus, minus / (G2 + g2) ** 2)


def dsui_snr(
    gain1: PaGain, i_ps: float, delta: float, epsilon: float, theta2: float
) -> tuple[float, float]:
    """Degenerate-pair SNRs at dark fringe: the amplified mixture gains
    (G1 + g1)^2, the de-amplified one loses (G1 - g1)^2; independent of the
    second gain."""
    mix = mixture_angles(theta2, delta, epsilon)
    up = (gain1.G + gain1.g) ** 2
    down = 1.0 / (gain1.G + gain1.g) ** 2  # (G1 - g1)^2 without cancellation
    return (
        4.0 * i_ps * mix.gamma_minus**2 * up,
        4.0 * i_ps * mix.gamma_plus**2 * down,
    )


def closed_forms(spec: CircuitSpec) -> dict[str, float]:
    """The closed forms of the spec's topology at its operating point:
    ``<output>_snr`` per canonical channel, the matching output noise, and
    the probe photon number ``i_ps``."""
    i_ps = probe_photon_number(spec)
    if spec.topology is Topology.DIRECT_HOMODYNE:
        snr_d, snr_e = split_snr(spec.splitters[0].T, i_ps, spec.delta, spec.epsilon)
        out = {"phase_snr": snr_d, "amplitude_snr": snr_e, "noise": 1.0}
    elif spec.topology is Topology.MZI:
        T = spec.splitters[0].T
        snr_d = su2_snr(T, i_ps, spec.delta)
        snr_e = su2_snr(T, i_ps, spec.epsilon)
        if len(spec.splitters) == 3:
            t3 = spec.splitters[2].T
            snr_d, snr_e = snr_d * t3, snr_e * (1.0 - t3)
        out = {"phase_snr": snr_d, "amplitude_snr": snr_e, "noise": 1.0}
    elif spec.topology is Topology.NESTED_SUI:
        g1, g2 = spec.gains
        out = {
            "phase_snr": sui_snr_phase(g1, g2, i_ps, spec.delta, spec.phi),
            "amplitude_snr": sui_snr_amplitude(g1, g2, i_ps, spec.epsilon, spec.phi),
            "noise": sui_output_noise(g1, g2, spec.phi),
        }
    else:
        g1, g2 = spec.gains
        snr_x, snr_y = dsui_snr(g1, i_ps, spec.delta, spec.epsilon, g2.phase)
        noise_x, noise_y = dsui_output_noise(g1, g2)
        out = {
            "mix_minus_snr": snr_x,
            "mix_plus_snr": snr_y,
            "mix_minus_noise": noise_x,
            "mix_plus_noise": noise_y,
        }
    out["i_ps"] = i_ps
    return out


# ---------------------------------------------------------------------------
# resource accounting and loss tolerance
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ResourceSummary:
    """Joint-measurement enhancement and quantum-resource bookkeeping."""

    enhancement_delta: float
    enhancement_epsilon: float
    resource_total: float
    resource_bound: float


def enhancement_and_resources(
    report_delta: SnrReport, report_epsilon: SnrReport, gain1: PaGain
) -> ResourceSummary:
    """Per-channel enhancement over the classical bound plus the shared
    resource total SNR_d/d^2 + SNR_e/e^2, to compare against
    4 i_ps (G1 + g1)^2."""
    check((report_delta.value != 0.0) & (report_epsilon.value != 0.0), (), ValidationError,
          "resource accounting needs nonzero modulation depths")
    i_ps = report_delta.i_ps
    total = (
        report_delta.snr / report_delta.value**2
        + report_epsilon.snr / report_epsilon.value**2
    )
    amp = gain1.G + gain1.g
    return ResourceSummary(
        enhancement_delta=report_delta.enhancement,
        enhancement_epsilon=report_epsilon.enhancement,
        resource_total=total,
        resource_bound=4.0 * i_ps * amp * amp,
    )


@dataclass(frozen=True)
class LossTolerancePoint:
    g2: float
    lossless_noise: float
    retention_numeric: float
    retention_formula: float


def loss_tolerance_scan(
    spec: CircuitSpec, eta: float, g2_values, output: str | None = None
) -> list[LossTolerancePoint]:
    """SNR retention under detection loss eta for a range of second-amplifier
    gains: retention = eta V / (eta V + 1 - eta) with V the lossless output
    noise, approaching 1 once the amplified noise dwarfs the injected vacuum.
    ``output`` defaults to the circuit's first monitor."""
    check(0.0 < eta <= 1.0, eta, ValidationError, "detection efficiency must lie in (0, 1], got {}")
    g2 = np.array(list(g2_values), dtype=float)
    lossless = replace(apply_axis_value(spec, "G2", g2), detection_loss=1.0)
    lossy = replace(lossless, detection_loss=eta)
    free_readings, lossy_readings = operating_point(lossless), operating_point(lossy)
    label = output or next(iter(free_readings))
    rep_free = channel_report(lossless, label, free_readings)
    rep_loss = channel_report(lossy, label, lossy_readings)
    numeric = (
        (rep_loss.signal_slope**2 / rep_loss.noise_var)
        / (rep_free.signal_slope**2 / rep_free.noise_var)
    )
    noise = rep_free.noise_var
    formula = eta * noise / (eta * noise + 1.0 - eta)
    columns = (g2, noise, numeric, formula)
    return [LossTolerancePoint(*row) for row in zip(*(column.tolist() for column in columns))]
