"""Closed forms and output checks, coded independently of ``qdmsim``.

Nothing here imports the package under test.  The formulas are the
paper's: the linear-interferometer SNR ``4 T i_ps depth^2``, the joint
split measurement, the nested amplifier interferometer's noise and
phase/amplitude SNRs, and the degenerate pair's noise and mixture SNRs.
Conventions follow the package README: ``X = a + a^dagger`` (vacuum
variance 1), a coherent amplitude ``alpha`` has mean ``2 alpha``, and the
splitter rows are ``A = sqrt(T) a + sqrt(R) b``, ``B = sqrt(T) b - sqrt(R) a``.

Every check raises :class:`CheckFailed` with a message naming the value
that disagreed.
"""

from __future__ import annotations

import cmath
import csv
import io
import json
import math
import re

#: Relative agreement for quantities the program computes in closed form
#: or by an exact linear response (LINEARIZED mode, noise variances).
LINEAR_RTOL = 1e-8
#: Relative agreement for EXACT-mode SNRs, whose slopes come from
#: Richardson-refined finite differences.  Far below the finite-splitter
#: factor R, so a missing or doubled factor T is caught.
EXACT_RTOL = 1e-6
#: CSV cells carry 12 significant digits.
CSV_RTOL = 1e-10


class CheckFailed(AssertionError):
    """A program output disagrees with the closed forms or properties."""


def _g(G: float) -> float:
    return math.sqrt(G * G - 1.0)


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


def su2_snr(T: float, i_ps: float, depth: float) -> float:
    return 4.0 * T * i_ps * depth * depth


def split_snr(T3: float, i_ps: float, delta: float, epsilon: float) -> tuple[float, float]:
    return 4.0 * T3 * i_ps * delta * delta, 4.0 * (1.0 - T3) * i_ps * epsilon * epsilon


def sui_noise(G1: float, G2: float, phi: float) -> float:
    g1, g2 = _g(G1), _g(G2)
    return (G1 * G1 + g1 * g1) * (G2 * G2 + g2 * g2) + 4.0 * G1 * G2 * g1 * g2 * math.cos(phi)


def sui_noise_scale(G1: float, G2: float) -> float:
    """Largest term of :func:`sui_noise`; near phi = pi the terms cancel, so
    absolute rounding in the program scales with this, not the result."""
    g1, g2 = _g(G1), _g(G2)
    return (G1 * G1 + g1 * g1) * (G2 * G2 + g2 * g2) + 4.0 * G1 * G2 * g1 * g2


def sui_snr(G1: float, G2: float, i_ps: float, delta: float, epsilon: float, phi: float):
    """(phase SNR, amplitude SNR): slopes 2 g2 sqrt(i_ps) and 2 G2 sqrt(i_ps)."""
    noise = sui_noise(G1, G2, phi)
    g2 = _g(G2)
    return (
        4.0 * g2 * g2 * i_ps * delta * delta / noise,
        4.0 * G2 * G2 * i_ps * epsilon * epsilon / noise,
    )


def mixtures(theta2: float, delta: float, epsilon: float) -> tuple[float, float]:
    half = theta2 / 2.0
    return (
        -epsilon * math.cos(half) + delta * math.sin(half),
        epsilon * math.sin(half) + delta * math.cos(half),
    )


def dsui_noise(G1: float, theta1: float, G2: float, theta2: float) -> tuple[float, float]:
    g1, g2 = _g(G1), _g(G2)
    turn = cmath.exp(-1j * (theta1 - theta2))
    return (
        (G2 + g2) ** 2 * abs(G1 + g1 * turn) ** 2,
        (G2 - g2) ** 2 * abs(G1 - g1 * turn) ** 2,
    )


def dsui_snr(G1: float, i_ps: float, delta: float, epsilon: float, theta2: float):
    """(mix_minus SNR, mix_plus SNR) at dark fringe; no dependence on G2."""
    g1 = _g(G1)
    minus, plus = mixtures(theta2, delta, epsilon)
    return (
        4.0 * i_ps * minus * minus * (G1 + g1) ** 2,
        4.0 * i_ps * plus * plus * (G1 - g1) ** 2,
    )


def expected_channels(p: dict) -> dict[str, dict]:
    """Closed-form SNR, noise, modulation value and i_ps per monitored output.

    ``p`` holds the generated scenario parameters: topology, mode, alpha,
    splitters, gains as (G, phase) pairs, phi, delta, epsilon.  EXACT mode
    on the two amplifier topologies puts the full two-splitter
    Mach-Zehnder in front of the amplifiers, whose dark-port coupling is
    sqrt(T R) rather than the closed forms' sqrt(R): the SNR carries one
    extra factor T.
    """
    topo, alpha = p["topology"], abs(p["alpha"])
    delta, epsilon = p["delta"], p["epsilon"]
    splitters = p["splitters"]
    if topo == "DIRECT_HOMODYNE":
        i_ps = alpha * alpha
        snr_d, snr_e = split_snr(splitters[0], i_ps, delta, epsilon)
        return {
            "phase": dict(snr=snr_d, noise=1.0, value=delta, i_ps=i_ps),
            "amplitude": dict(snr=snr_e, noise=1.0, value=epsilon, i_ps=i_ps),
        }
    T = splitters[0]
    i_ps = (1.0 - T) * alpha * alpha
    if topo == "MZI":
        snr_d, snr_e = su2_snr(T, i_ps, delta), su2_snr(T, i_ps, epsilon)
        if len(splitters) == 3:
            snr_d, snr_e = snr_d * splitters[2], snr_e * (1.0 - splitters[2])
        return {
            "phase": dict(snr=snr_d, noise=1.0, value=delta, i_ps=i_ps),
            "amplitude": dict(snr=snr_e, noise=1.0, value=epsilon, i_ps=i_ps),
        }
    factor = T if p["mode"] == "EXACT" else 1.0
    (G1, theta1), (G2, theta2) = p["gains"]
    if topo == "NESTED_SUI":
        snr_d, snr_e = sui_snr(G1, G2, i_ps, delta, epsilon, p["phi"])
        noise = sui_noise(G1, G2, p["phi"])
        scale = sui_noise_scale(G1, G2)
        return {
            "phase": dict(snr=factor * snr_d, noise=noise, noise_scale=scale, value=delta, i_ps=i_ps),
            "amplitude": dict(snr=factor * snr_e, noise=noise, noise_scale=scale, value=epsilon, i_ps=i_ps),
        }
    if topo == "DEGENERATE_SUI":
        snr_m, snr_p = dsui_snr(G1, i_ps, delta, epsilon, theta2)
        noise_m, noise_p = dsui_noise(G1, theta1, G2, theta2)
        minus, plus = mixtures(theta2, delta, epsilon)
        return {
            "mix_minus": dict(snr=factor * snr_m, noise=noise_m, value=minus, i_ps=i_ps),
            "mix_plus": dict(snr=factor * snr_p, noise=noise_p, value=plus, i_ps=i_ps),
        }
    raise ValueError(f"unknown topology {topo!r}")


#: Output pairs read on the same mode at orthogonal angles, per topology
#: and splitter count (the MZI with an output splitter reads them apart).
CONJUGATE_PAIRS = {
    ("MZI", 2): ("phase", "amplitude"),
    ("DEGENERATE_SUI", 2): ("mix_minus", "mix_plus"),
}


# ---------------------------------------------------------------------------
# comparisons
# ---------------------------------------------------------------------------


def close(what: str, got: float, want: float, rtol: float, scale: float | None = None) -> None:
    """Raise unless |got - want| <= rtol * max(|want|, scale)."""
    ref = max(abs(want), abs(scale) if scale is not None else 0.0)
    if not (math.isfinite(got) and abs(got - want) <= rtol * ref):
        raise CheckFailed(f"{what}: got {got!r}, closed form {want!r} (rtol {rtol:g})")


def uncertainty(what: str, var_x: float, var_y: float, slack: float = 1e-9) -> None:
    """Conjugate quadratures on one mode: var_X * var_Y >= 1 (vacuum units)."""
    if var_x * var_y < 1.0 - slack:
        raise CheckFailed(f"{what}: var_X * var_Y = {var_x * var_y!r} < 1")


def _reject_constant(name: str):
    raise CheckFailed(f"output is not strict JSON: bare {name}")


def strict_json(text: str):
    """Parse JSON, refusing the non-standard NaN / Infinity tokens."""
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"output is not JSON: {exc}") from None


# ---------------------------------------------------------------------------
# per-command checks
# ---------------------------------------------------------------------------


def check_run(text: str, p: dict) -> None:
    """``qdmsim run`` report: strict JSON, echo of the inputs, method
    properties and closed forms for every monitored output."""
    doc = strict_json(text)
    expected = expected_channels(p)
    rtol = EXACT_RTOL if p["mode"] == "EXACT" else LINEAR_RTOL
    amplified = p["topology"] in ("NESTED_SUI", "DEGENERATE_SUI")
    factor = p["splitters"][0] if p["mode"] == "EXACT" and amplified else 1.0
    if doc["outputs"] != list(expected):
        raise CheckFailed(f"outputs {doc['outputs']} != {list(expected)}")
    spec = doc["spec"]
    if (
        spec["topology"] != p["topology"]
        or spec["modulation_mode"] != p["mode"]
        or spec["splitters"] != list(p["splitters"])
        or spec["alpha"] != {"re": p["alpha"], "im": 0.0}
    ):
        raise CheckFailed(f"spec echo {spec} does not match the scenario")
    for label, want in expected.items():
        rep = doc["reports"][label]
        where = f"{p['topology']}/{p['mode']} {label}"
        close(f"{where} signal = slope * value", rep["signal"], rep["signal_slope"] * rep["value"], 1e-12)
        close(f"{where} snr = signal^2 / noise_var", rep["snr"], rep["signal"] ** 2 / rep["noise_var"], 1e-12)
        close(f"{where} modulation value", rep["value"], want["value"], 1e-12)
        close(f"{where} i_ps", rep["i_ps"], want["i_ps"], 1e-12)
        close(f"{where} noise_var", rep["noise_var"], want["noise"], LINEAR_RTOL, want.get("noise_scale"))
        close(f"{where} snr", rep["snr"], want["snr"], rtol)
        close(
            f"{where} enhancement",
            rep["enhancement"],
            rep["snr"] / (4.0 * rep["i_ps"] * rep["value"] ** 2),
            1e-12,
        )
        # the report's analytic block holds the closed form without the
        # finite-splitter factor, and relative_error compares against it
        unscaled = doc["analytic"][f"{label}_snr"]
        close(f"{where} analytic snr", unscaled * factor, want["snr"], LINEAR_RTOL)
        noise_key = "noise" if "noise" in doc["analytic"] else f"{label}_noise"
        close(f"{where} analytic noise", doc["analytic"][noise_key], want["noise"], LINEAR_RTOL)
        close(
            f"{where} relative_error",
            doc["relative_error"][f"{label}_snr"],
            abs(rep["snr"] - unscaled) / abs(unscaled),
            1e-9,
            1e-12,
        )
    pair = CONJUGATE_PAIRS.get((p["topology"], len(p["splitters"])))
    if pair:
        uncertainty(
            f"{p['topology']} {pair}",
            doc["reports"][pair[0]]["noise_var"],
            doc["reports"][pair[1]]["noise_var"],
        )


def _csv_rows(text: str, header: list[str]) -> list[list[float]]:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != header:
        raise CheckFailed(f"sweep header {rows[:1]} != {header}")
    return [[float(cell) for cell in row] for row in rows[1:]]


def _sweep_header(axes: list[str], labels: list[str]) -> list[str]:
    header = list(axes)
    for label in labels:
        header += [f"noise_var[{label}]", f"snr[{label}]", f"enhancement[{label}]"]
    return header


def axis_values(start: float, stop: float, count: int) -> list[float]:
    step = (stop - start) / (count - 1)
    return [start + i * step for i in range(count)]


def _check_sweep_cells(where: str, cells: list[float], want: dict, rtol: float) -> None:
    noise, snr, enhancement = cells
    close(f"{where} noise_var", noise, want["noise"], LINEAR_RTOL, want.get("noise_scale"))
    close(f"{where} snr", snr, want["snr"], rtol)
    close(f"{where} enhancement", enhancement, snr / (4.0 * want["i_ps"] * want["value"] ** 2), CSV_RTOL * 10)


def check_phi_sweep(text: str, p: dict, phis: list[float]) -> None:
    """Nested amplifier interferometer swept over phi (LINEARIZED): every
    row against the SUI closed forms at that phi."""
    rows = _csv_rows(text, _sweep_header(["phi"], ["phase", "amplitude"]))
    if len(rows) != len(phis):
        raise CheckFailed(f"phi sweep has {len(rows)} rows, expected {len(phis)}")
    for row, phi in zip(rows, phis):
        close("phi axis", row[0], phi, CSV_RTOL, 1.0)
        want = expected_channels(dict(p, phi=phi))
        _check_sweep_cells(f"phi={phi:.6g} phase", row[1:4], want["phase"], LINEAR_RTOL)
        _check_sweep_cells(f"phi={phi:.6g} amplitude", row[4:7], want["amplitude"], LINEAR_RTOL)


def check_dsui_grid(text: str, p: dict, thetas: list[float], gains2: list[float]) -> None:
    """Degenerate pair over theta2_dark x G2 (EXACT): closed forms with the
    finite-splitter factor T, the SNR's independence of G2, and the
    uncertainty product of the two conjugate readouts."""
    rows = _csv_rows(text, _sweep_header(["theta2_dark", "G2"], ["mix_minus", "mix_plus"]))
    if len(rows) != len(thetas) * len(gains2):
        raise CheckFailed(f"grid has {len(rows)} rows, expected {len(thetas) * len(gains2)}")
    G1 = p["gains"][0][0]
    it = iter(rows)
    for theta in thetas:
        snrs = []
        for G2 in gains2:
            row = next(it)
            close("theta2_dark axis", row[0], theta, CSV_RTOL, 1.0)
            close("G2 axis", row[1], G2, CSV_RTOL)
            point = dict(p, gains=((G1, theta + math.pi), (G2, theta)))
            want = expected_channels(point)
            where = f"theta2={theta:.6g} G2={G2:.6g}"
            _check_sweep_cells(f"{where} mix_minus", row[2:5], want["mix_minus"], EXACT_RTOL)
            _check_sweep_cells(f"{where} mix_plus", row[5:8], want["mix_plus"], EXACT_RTOL)
            uncertainty(f"{where} mix_minus/mix_plus", row[2], row[5])
            snrs.append((row[3], row[6]))
        for k, label in enumerate(("mix_minus", "mix_plus")):
            values = [pair[k] for pair in snrs]
            if max(values) - min(values) > 2 * EXACT_RTOL * max(values):
                raise CheckFailed(f"theta2={theta:.6g} {label} SNR depends on G2: {values}")


_DEVIATION = re.compile(r"^(\w+): mean (\S+) vs (\S+), var (\S+) vs (\S+)$")
_VERDICT = re.compile(r"^(PASS|FAIL): max deviation (\S+) \(tolerance (\S+)\)$")


def coherent_outputs(p: dict) -> dict[str, tuple[float, float]]:
    """Exact (mean, variance) of every monitor of the two linear topologies
    in EXACT mode: coherent light stays coherent through splitters, phase
    e^{i delta} and loss e^{-2 eps}, so every variance is 1."""
    alpha, splitters = p["alpha"], p["splitters"]
    arm = cmath.exp(1j * p["delta"] - p["epsilon"])
    if p["topology"] == "DIRECT_HOMODYNE":
        T3 = splitters[0]
        beam = alpha * arm
        return {
            "phase": (2.0 * (math.sqrt(T3) * beam).imag, 1.0),
            "amplitude": (2.0 * (-math.sqrt(1.0 - T3) * beam).real, 1.0),
        }
    T = splitters[0]
    dark = math.sqrt(T * (1.0 - T)) * alpha * (1.0 - arm)
    if len(splitters) == 3:
        T3 = splitters[2]
        return {
            "phase": (2.0 * (math.sqrt(T3) * dark).imag, 1.0),
            "amplitude": (2.0 * (-math.sqrt(1.0 - T3) * dark).real, 1.0),
        }
    return {"phase": (2.0 * dark.imag, 1.0), "amplitude": (2.0 * dark.real, 1.0)}


def check_validate(text: str, p: dict, labels: list[str], tolerance: float) -> None:
    """``qdmsim validate`` report: a PASS verdict, Gaussian and Fock moments
    within the tolerance as printed, closed-form coherent moments for the
    linear topologies, and the uncertainty product for conjugate readouts."""
    lines = text.strip().splitlines()
    verdict = _VERDICT.match(lines[-1]) if lines else None
    if not verdict or verdict.group(1) != "PASS":
        raise CheckFailed(f"validate verdict is not PASS: {lines[-1:]}")
    rows = {}
    for line in lines[:-1]:
        m = _DEVIATION.match(line)
        if not m:
            raise CheckFailed(f"unparsable validate line {line!r}")
        rows[m.group(1)] = [float(v) for v in m.groups()[1:]]
    if list(rows) != labels:
        raise CheckFailed(f"validate monitors {list(rows)} != {labels}")
    printed = 1e-8  # 9 significant digits
    for label, (g_mean, f_mean, g_var, f_var) in rows.items():
        for what, a, b in (("mean", g_mean, f_mean), ("var", g_var, f_var)):
            if abs(a - b) > tolerance + printed * max(abs(a), abs(b), 1.0):
                raise CheckFailed(f"{label} {what}: Gaussian {a!r} vs Fock {b!r} beyond {tolerance:g}")
    if p["topology"] in ("DIRECT_HOMODYNE", "MZI"):
        for label, (mean, var) in coherent_outputs(p).items():
            g_mean, f_mean, g_var, f_var = rows[label]
            close(f"{label} Gaussian mean", g_mean, mean, printed, 1.0)
            close(f"{label} Gaussian var", g_var, var, printed)
            close(f"{label} Fock mean", f_mean, mean, tolerance, 1.0)
            close(f"{label} Fock var", f_var, var, tolerance)
    pair = CONJUGATE_PAIRS.get((p["topology"], len(p["splitters"])))
    if pair:
        uncertainty(f"Gaussian {pair}", rows[pair[0]][2], rows[pair[1]][2])
        slack = tolerance * (rows[pair[0]][3] + rows[pair[1]][3])
        uncertainty(f"Fock {pair}", rows[pair[0]][3], rows[pair[1]][3], slack)
