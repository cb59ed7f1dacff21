"""Command-line interface: run scenarios, sweep parameters, export
phase-space snapshots, and validate against the Fock oracle.

Exit codes: 0 success, 2 scenario parse error, 3 validation/physics error,
4 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict
from itertools import product

from .circuits import stage_snapshots
from .exceptions import NumericalError, ScenarioParseError, ValidationError, annotate
from .fock import FockConfig, compare_with_gaussian
from .metrology import channel_report, closed_forms, operating_point, operating_points
from .scenario import (
    SweepAxis,
    apply_axis_value,
    check_axes,
    load_scenario,
    spec_to_dict,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_NUMERICAL = 4


def _relative_error(numeric: float, analytic: float) -> float:
    if analytic == 0.0:
        return 0.0 if numeric == 0.0 else math.inf
    return abs(numeric - analytic) / abs(analytic)


def _cmd_run(args) -> int:
    spec, options = load_scenario(args.scenario)
    readings = operating_point(spec)
    reports = {label: channel_report(spec, label, readings) for label in options.outputs}
    analytic = closed_forms(spec)
    rel = {}
    for label, rep in reports.items():
        key = f"{label}_snr"
        if key in analytic:
            rel[key] = _relative_error(rep.snr, analytic[key])
    document = {
        "spec": spec_to_dict(spec),
        "outputs": list(options.outputs),
        "reports": {label: asdict(rep) for label, rep in reports.items()},
        "analytic": analytic,
        "relative_error": rel,
    }
    _write_json(args.out, document)
    return EXIT_OK


def _parse_axis_flag(flag: str) -> SweepAxis:
    try:
        name, rng = flag.split("=", 1)
        raw_start, raw_stop, raw_count = rng.split(":")
        start, stop, count = float(raw_start), float(raw_stop), int(raw_count)
    except ValueError:
        raise ValidationError(
            f"--axis expects name=start:stop:count, got {flag!r}"
        ) from None
    return SweepAxis(name, start, stop, count)


def _sweep_rows(payload) -> list[list[float]]:
    """Rows of a contiguous run of grid points, evaluated as one batch."""
    specs, axis_names, points, labels = payload
    try:
        readings = operating_points(specs)
    except (ValidationError, NumericalError) as exc:
        point = getattr(exc, "point", None)
        if point is not None:
            values = ", ".join(f"{n}={v:.12g}" for n, v in zip(axis_names, points[point]))
            annotate(exc, f"(sweep point {values})")
        raise
    rows = []
    for spec, values, point_readings in zip(specs, points, readings):
        row = list(values)
        for label in labels:
            rep = channel_report(spec, label, point_readings)
            row.extend([rep.noise_var, rep.snr, rep.enhancement])
        rows.append(row)
    return rows


def _cmd_sweep(args) -> int:
    spec, options = load_scenario(args.scenario)
    axes = tuple(_parse_axis_flag(flag) for flag in args.axis) if args.axis else options.axes
    if not 1 <= len(axes) <= 2:
        raise ValidationError("sweep needs 1 or 2 axes (scenario 'sweep' block or --axis)")
    check_axes(spec, axes)
    labels = options.outputs
    axis_names = [ax.name for ax in axes]
    points = list(product(*(ax.values() for ax in axes)))
    specs = []
    for values in points:
        point_spec = spec
        for name, value in zip(axis_names, values):
            point_spec = apply_axis_value(point_spec, name, value)
        specs.append(point_spec)

    # one batch per worker: contiguous chunks keep the rows in grid order
    size = -(-len(points) // max(args.workers, 1))
    payloads = [
        (specs[i : i + size], axis_names, points[i : i + size], labels)
        for i in range(0, len(points), size)
    ]
    if len(payloads) > 1:
        with ProcessPoolExecutor(max_workers=len(payloads)) as pool:
            chunks = list(pool.map(_sweep_rows, payloads))
    else:
        chunks = [_sweep_rows(payload) for payload in payloads]
    rows = [row for chunk in chunks for row in chunk]

    header = list(axis_names)
    for label in labels:
        header.extend([f"noise_var[{label}]", f"snr[{label}]", f"enhancement[{label}]"])
    fmt = args.format or options.fmt or "csv"
    if fmt == "json":
        records = [dict(zip(header, row)) for row in rows]
        _write_json(args.out, records)
    else:
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([f"{v:.12g}" for v in row])
        _write_output(args.out, buffer.getvalue())
    return EXIT_OK


def _cmd_export_states(args) -> int:
    spec, _ = load_scenario(args.scenario)
    snapshots = stage_snapshots(spec)
    document = [
        {
            "label": snap.label,
            "center": [snap.center_x, snap.center_y],
            "major_variance": snap.major_variance,
            "minor_variance": snap.minor_variance,
            "orientation": snap.orientation,
        }
        for snap in snapshots
    ]
    _write_json(args.out, document)
    return EXIT_OK


def _cmd_validate(args) -> int:
    spec, _ = load_scenario(args.scenario)
    report = compare_with_gaussian(spec, FockConfig(cutoff=args.cutoff), tolerance=args.tolerance)
    lines = []
    for row in report.deviations:
        lines.append(
            f"{row.label}: mean {row.gaussian_mean:.9g} vs {row.fock_mean:.9g}, "
            f"var {row.gaussian_var:.9g} vs {row.fock_var:.9g}"
        )
    verdict = "PASS" if report.passed else "FAIL"
    lines.append(
        f"{verdict}: max deviation {report.max_abs_deviation:.3e} "
        f"(tolerance {report.tolerance:.1e})"
    )
    _write_output(args.out, "\n".join(lines) + "\n")
    if not report.passed:
        raise NumericalError(
            f"engines deviate by {report.max_abs_deviation:.3e} > {report.tolerance:.1e}"
        )
    return EXIT_OK


def _finite_or_null(value):
    """``value`` with every non-finite float, nested or not, replaced by None."""
    if isinstance(value, dict):
        return {key: _finite_or_null(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_finite_or_null(item) for item in value]
    return None if isinstance(value, float) and not math.isfinite(value) else value


def _write_json(path, document) -> None:
    """Write strict JSON: NaN and infinities become null, never bare tokens."""
    text = json.dumps(_finite_or_null(document), indent=2, sort_keys=True, allow_nan=False)
    _write_output(path, text + "\n")


def _write_output(path, text: str) -> None:
    if path:
        with open(path, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


@functools.lru_cache(maxsize=None)  # built once; parsing keeps no state in it
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qdmsim",
        description="Gaussian interferometer simulator: homodyne signal/noise/SNR",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="evaluate one scenario and write a JSON report")
    run.add_argument("scenario")
    run.add_argument("--out", default=None)

    sweep = sub.add_parser("sweep", help="sweep 1-2 scalar parameters, stream CSV")
    sweep.add_argument("scenario")
    sweep.add_argument("--axis", action="append", metavar="name=start:stop:count")
    sweep.add_argument("--out", default=None)
    sweep.add_argument("--format", choices=("json", "csv"), default=None)
    sweep.add_argument("--workers", type=int, default=1)

    export = sub.add_parser("export-states", help="stage-by-stage phase-space snapshots")
    export.add_argument("scenario")
    export.add_argument("--out", default=None)

    validate = sub.add_parser("validate", help="cross-check against the Fock oracle")
    validate.add_argument("scenario")
    validate.add_argument("--cutoff", type=int, default=30)
    validate.add_argument("--tolerance", type=float, default=1e-4)
    validate.add_argument("--out", default=None)
    return parser


_COMMANDS = {
    "run": _cmd_run,
    "sweep": _cmd_sweep,
    "export-states": _cmd_export_states,
    "validate": _cmd_validate,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ScenarioParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
