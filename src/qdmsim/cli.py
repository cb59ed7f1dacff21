"""Command-line interface: run scenarios, sweep parameters, export
phase-space snapshots, and validate against the Fock oracle.

Exit codes: 0 success, else the ``exit_code`` of the error (see
:mod:`qdmsim.exceptions`): 2 unreadable or unparsable scenario or
unwritable output, 3 validation/physics error, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import errno
import functools
import itertools
import json
import math
import os
import stat
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict

import numpy as np

from .circuits import stage_snapshots
from .exceptions import NumericalError, OutputError, QdmsimError, ValidationError, annotate, check
from .fock import FockConfig, compare_with_gaussian
from .metrology import channel_report, closed_forms, operating_point
from .scenario import (
    SweepAxis,
    apply_axis_value,
    check_axes,
    load_scenario,
    spec_to_dict,
)

#: Grid points per sweep evaluation: a sweep holds one chunk's arrays and
#: rows at a time, so its memory does not grow with the grid.
CHUNK_POINTS = 2048


def _relative_error(numeric: float, analytic: float) -> float:
    if analytic == 0.0:
        return 0.0 if numeric == 0.0 else math.inf
    return abs(numeric - analytic) / abs(analytic)


def _cmd_run(args) -> int:
    spec, options = load_scenario(args.scenario)
    _refuse_unwritable(args.out)
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
    return 0


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


def _sweep_columns(payload) -> list[np.ndarray]:
    """Row columns of a contiguous run of grid points from grid index
    ``start`` on, evaluated as one grid spec: the axis values, then noise,
    SNR and enhancement per label."""
    spec, start, axis_columns, labels = payload
    try:
        for name, column in axis_columns:
            spec = apply_axis_value(spec, name, column)
        readings = operating_point(spec)
        reports = [channel_report(spec, label, readings) for label in labels]
    except QdmsimError as exc:
        if hasattr(exc, "batch_index"):  # a failed check, not a structural error
            # a check on a value every point shares fails at every point
            point = exc.batch_index or 0
            if exc.batch_index is not None:
                exc.batch_index = start + point  # the point's index in the whole grid
            values = ", ".join(f"{name}={column[point]:.12g}" for name, column in axis_columns)
            annotate(exc, f"(sweep point {values})")
        raise
    size = len(axis_columns[0][1])
    return [column for _, column in axis_columns] + [
        np.broadcast_to(value, (size,))
        for rep in reports
        for value in (rep.noise_var, rep.snr, rep.enhancement)
    ]


def _evaluate_chunks(payloads, workers: int):
    """``_sweep_columns`` of each payload, in order; with ``workers`` > 1
    in a process pool, with at most ``workers`` chunks in flight."""
    if workers == 1:
        yield from map(_sweep_columns, payloads)
        return
    with ProcessPoolExecutor(max_workers=workers) as pool:
        while group := list(itertools.islice(payloads, workers)):
            yield from pool.map(_sweep_columns, group)


def _cmd_sweep(args) -> int:
    spec, options = load_scenario(args.scenario)
    axes = tuple(_parse_axis_flag(flag) for flag in args.axis) if args.axis else options.axes
    if not 1 <= len(axes) <= 2:
        raise ValidationError("sweep needs 1 or 2 axes (scenario 'sweep' block or --axis)")
    check_axes(spec, axes)
    labels = options.outputs
    header = [ax.name for ax in axes]
    for label in labels:
        header.extend([f"noise_var[{label}]", f"snr[{label}]", f"enhancement[{label}]"])

    # the flattened product grid, last axis fastest, in contiguous chunks:
    # one grid spec and one evaluation each, written in grid order
    values = [np.array(ax.values()) for ax in axes]
    shape = tuple(len(v) for v in values)
    points = math.prod(shape)
    size = min(CHUNK_POINTS, -(-points // args.workers))

    def chunk(start):
        indices = np.unravel_index(np.arange(start, min(start + size, points)), shape)
        return spec, start, [(ax.name, v[i]) for ax, v, i in zip(axes, values, indices)], labels

    payloads = map(chunk, range(0, points, size))
    with _streamed_output(args.out) as out:
        chunks = _evaluate_chunks(payloads, args.workers if points > size else 1)
        # write nothing before the first chunk is done: a sweep that fails
        # there prints nothing, as a sweep of one chunk always did
        if (args.format or options.fmt or "csv") == "json":
            # the text of json.dumps(records, indent=2), one chunk at a time
            for number, columns in enumerate(chunks):
                records = [dict(zip(header, row)) for row in zip(*(c.tolist() for c in columns))]
                text = json.dumps(_finite_or_null(records), indent=2, sort_keys=True, allow_nan=False)
                out.write((",\n" if number else "[\n") + text[2:-2])
            out.write("\n]\n")
        else:
            # '%.12g' % v is f"{v:.12g}", and no such field needs CSV quoting
            template = ",".join(["%.12g"] * len(header)) + "\n"
            for number, columns in enumerate(chunks):
                if not number:
                    csv.writer(out, lineterminator="\n").writerow(header)
                out.write("".join(map(template.__mod__, zip(*(c.tolist() for c in columns)))))
    return 0


def _cmd_export_states(args) -> int:
    spec, _ = load_scenario(args.scenario)
    _refuse_unwritable(args.out)
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
    return 0


def _cmd_validate(args) -> int:
    spec, _ = load_scenario(args.scenario)
    _refuse_unwritable(args.out)
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
    check(report.passed, (report.max_abs_deviation, report.tolerance), NumericalError,
          "engines deviate by {:.3e} > {:.1e}")
    return 0


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
    """Write a whole document, once complete: a command that fails before
    it has one never opens ``path``."""
    if path:
        with _open_output(path, "w", path) as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _refuse_unwritable(path) -> None:
    """Refuse an output ``path`` that cannot be written before a command
    does its work, creating nothing: a directory, an existing file without
    write permission, or a new file whose parent is missing or is not a
    writable directory.  Opening it afterwards stays the authority."""
    if not path:
        return
    target = path
    try:
        code = errno.EISDIR if stat.S_ISDIR(os.stat(path).st_mode) else None
    except OSError:  # a new file: its directory must take it
        target = os.path.dirname(path) or os.curdir
        try:
            code = None if stat.S_ISDIR(os.stat(target).st_mode) else errno.ENOTDIR
        except OSError as exc:
            code = exc.errno
    if code is None and not os.access(target, os.W_OK):
        code = errno.EACCES
    if code is not None:
        raise OutputError(f"cannot write output {path}: {os.strerror(code)}")


def _open_output(target, mode: str, path):
    """``open(target, mode)`` on the way to writing the output ``path``."""
    try:
        return open(target, mode)
    except OSError as exc:
        raise OutputError(f"cannot write output {path}: {exc.strerror}") from None


@contextlib.contextmanager
def _streamed_output(path):
    """A text sink for output written piece by piece while the command can
    still fail: stdout without ``path``, else a temporary sibling of
    ``path`` that replaces it once everything is written, so a failing
    command leaves ``path`` as it was and no partial file.  An existing
    ``path`` that is not a regular file (a device or pipe such as
    /dev/stdout) is written directly."""
    if not path:
        yield sys.stdout
        return
    try:
        mode = os.stat(path).st_mode
    except OSError:  # no such file: opening it below says why
        mode = None
    if mode is not None and not stat.S_ISREG(mode):
        with _open_output(path, "w", path) as handle:
            yield handle
        return
    real = os.path.realpath(path) if os.path.islink(path) else path  # replace the link's target
    directory, name = os.path.split(real)
    temporary = os.path.join(directory, f".{name}.{os.getpid()}.tmp")
    handle = _open_output(temporary, "x", path)
    try:
        with handle:
            if mode is not None:
                os.chmod(temporary, stat.S_IMODE(mode))
            yield handle
        os.replace(temporary, real)
    except BaseException:
        os.remove(temporary)
        raise


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


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
    sweep.add_argument("--workers", type=_positive_int, default=1)

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
    except QdmsimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
