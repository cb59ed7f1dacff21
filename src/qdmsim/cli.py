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
import math
import os
import stat
import sys
from json.encoder import encode_basestring_ascii as _json_string

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
    document = {
        "spec": spec_to_dict(spec),
        "outputs": list(options.outputs),
        "reports": {label: vars(rep) for label, rep in reports.items()},
        "analytic": analytic,
        "relative_error": {f"{label}_snr": _relative_error(rep.snr, analytic[f"{label}_snr"])
                           for label, rep in reports.items()},
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


def _sweep_columns(spec, start: int, axis_columns, labels) -> list[np.ndarray]:
    """Row columns of a contiguous run of grid points from grid index
    ``start`` on, evaluated as one grid spec: the axis values, then noise,
    SNR and enhancement per label."""
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


def _cmd_sweep(args) -> int:
    spec, options = load_scenario(args.scenario)
    axes = tuple(_parse_axis_flag(flag) for flag in args.axis) if args.axis else options.axes
    if not 1 <= len(axes) <= 2:
        raise ValidationError("sweep needs 1 or 2 axes (scenario 'sweep' block or --axis)")
    if args.axis:  # a scenario's own axes are checked at load
        check_axes(spec, axes)
    _refuse_unwritable(args.out)
    labels = options.outputs
    header = [ax.name for ax in axes]
    for label in labels:
        header.extend([f"noise_var[{label}]", f"snr[{label}]", f"enhancement[{label}]"])

    # the flattened product grid, last axis fastest, in contiguous chunks:
    # one grid spec and one evaluation each, written in grid order
    values = [np.array(ax.values()) for ax in axes]
    shape = tuple(len(v) for v in values)
    points = math.prod(shape)

    def chunk(start):
        indices = np.unravel_index(np.arange(start, min(start + CHUNK_POINTS, points)), shape)
        axis_columns = [(ax.name, v[i]) for ax, v, i in zip(axes, values, indices)]
        return _sweep_columns(spec, start, axis_columns, labels)

    with _streamed_output(args.out) as out:
        chunks = map(chunk, range(0, points, CHUNK_POINTS))
        # write nothing before the first chunk is done: a sweep that fails
        # there prints nothing, as a sweep of one chunk always did
        if (args.format or options.fmt or "csv") == "json":
            # the text of json.dumps(records, indent=2), one chunk at a time
            for number, columns in enumerate(chunks):
                records = [dict(zip(header, row)) for row in zip(*(c.tolist() for c in columns))]
                out.write((",\n" if number else "[\n") + _json_text(records)[2:-2])
            out.write("\n]\n")
        else:
            # '%.12g' % v is f"{v:.12g}", and no such field needs CSV quoting;
            # a chunk is one format call: the row template once per row
            template = ",".join(["%.12g"] * len(header)) + "\n"
            for number, columns in enumerate(chunks):
                if not number:
                    csv.writer(out, lineterminator="\n").writerow(header)
                rows = np.stack(columns, axis=-1)
                out.write(template * len(rows) % tuple(rows.ravel().tolist()))
    return 0


def _cmd_export_states(args) -> int:
    spec, _ = load_scenario(args.scenario)
    _refuse_unwritable(args.out)
    _write_json(args.out, [vars(snap) for snap in stage_snapshots(spec)])
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


def _json_text(value) -> str:
    """The text of ``json.dumps(value, indent=2, sort_keys=True)`` with every
    non-finite float written as null, built in one pass over ``value``.
    A value of a type ``json.dumps`` does not take, or a key that is not a
    str, raises TypeError."""
    parts = []
    _encode_json(value, parts, "\n")
    return "".join(parts)


def _encode_json(value, parts: list, newline: str) -> None:
    """Append the JSON text of ``value`` to ``parts``; ``newline`` starts
    each of its lines, and its items' lines start two spaces deeper."""
    if isinstance(value, float):
        parts.append(float.__repr__(value) if math.isfinite(value) else "null")
    elif isinstance(value, str):
        parts.append(_json_string(value))
    elif value is None or value is True or value is False:
        parts.append("null" if value is None else "true" if value else "false")
    elif isinstance(value, int):
        parts.append(int.__repr__(value))
    elif isinstance(value, (list, tuple, dict)):
        if not value:
            parts.append("{}" if isinstance(value, dict) else "[]")
            return
        inner = newline + "  "
        if isinstance(value, dict):
            separator = "{" + inner
            for key, item in sorted(value.items()):
                if not isinstance(key, str):
                    raise TypeError(f"keys must be str, not {type(key).__name__}")
                parts.append(f"{separator}{_json_string(key)}: ")
                _encode_json(item, parts, inner)
                separator = "," + inner
            parts.append(newline + "}")
        else:
            separator = "[" + inner
            for item in value:
                parts.append(separator)
                _encode_json(item, parts, inner)
                separator = "," + inner
            parts.append(newline + "]")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _write_json(path, document) -> None:
    """Write strict JSON: NaN and infinities become null, never bare tokens."""
    _write_output(path, _json_text(document) + "\n")


def _write_output(path, text: str) -> None:
    """Write a whole document, once complete: a command that fails before
    it has one never opens ``path``.  An existing ``path`` is overwritten in
    place and then, if it is a longer regular file, cut to the document's
    length, so its inode, links and permission bits stay.  This skips the
    truncation of ``open(path, "w")``, which costs more than the write when
    a file is rewritten: ext4, for one, starts writeback at close of a file
    it sees replaced by truncation (``auto_da_alloc``), and the speed comes
    from skipping that writeback.  A write, flush or close that fails with an
    error cuts a regular file to 0 bytes.  A kill or a crash during the
    rewrite gets no such cut: it can leave new bytes in front of the old
    tail, and after a crash the file can hold old data at the new length.
    Only a sweep, which writes while it can still fail, replaces its output
    whole through a temporary sibling (:func:`_streamed_output`)."""
    if not path:
        with _stdout() as out:
            out.write(text)
        return
    with _output_errors(path):
        fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)  # open(path, "w") without O_TRUNC
        try:
            earlier = os.fstat(fd)
            # the text handle is closed before the fd, so no byte it still
            # buffers can be written after the cut to 0 below
            with open(fd, "w", closefd=False) as handle:
                handle.write(text)
                # only a longer regular file has a tail to cut; a device or
                # pipe is never cut
                if stat.S_ISREG(earlier.st_mode) and earlier.st_size > handle.tell():
                    handle.truncate()
        except BaseException:
            with contextlib.suppress(OSError):  # EINVAL: not a regular file
                os.ftruncate(fd, 0)
            raise
        finally:
            os.close(fd)


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


@contextlib.contextmanager
def _output_errors(path):
    """Raise an OSError from opening, writing, flushing or closing the
    output ``path`` as an OutputError."""
    try:
        yield
    except OSError as exc:
        raise OutputError(f"cannot write output {path}: {exc.strerror}") from None


@contextlib.contextmanager
def _stdout():
    """``sys.stdout``, flushed once the command has written to it."""
    with _output_errors("<stdout>"):
        try:
            yield sys.stdout
            sys.stdout.flush()
        except OSError:
            # the interpreter flushes what is left at exit and would fail
            # again: send it to devnull, as the signal module's docs do on
            # a broken pipe
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            raise


@contextlib.contextmanager
def _streamed_output(path):
    """A text sink for output written piece by piece while the command can
    still fail: stdout without ``path``, else a temporary sibling of
    ``path`` that replaces it once everything is written, so a failing
    command leaves ``path`` as it was and no partial file.  An existing
    ``path`` that is not a regular file (a device or pipe such as
    /dev/stdout) is written directly."""
    if not path:
        with _stdout() as out:
            yield out
        return
    try:
        mode = os.stat(path).st_mode
    except OSError:  # no such file: opening it below says why
        mode = None
    with _output_errors(path):
        if mode is not None and not stat.S_ISREG(mode):
            with open(path, "w") as handle:
                yield handle
            return
        real = os.path.realpath(path) if os.path.islink(path) else path  # replace the link's target
        directory, name = os.path.split(real)
        temporary = os.path.join(directory, f".{name}.{os.getpid()}.tmp")
        handle = open(temporary, "x")
        try:
            with handle:
                if mode is not None:
                    os.chmod(temporary, stat.S_IMODE(mode))
                yield handle
            os.replace(temporary, real)
        except BaseException:
            os.remove(temporary)
            raise


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
    # accepted only because bench/workloads.py passes --workers 1; the
    # benchmark change that drops that argument deletes this line
    sweep.add_argument("--workers", type=int, choices=(1,), help=argparse.SUPPRESS)

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
