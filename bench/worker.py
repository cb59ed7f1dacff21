"""One workload in one process: import the package from ``src/``, generate
the seeded inputs, drive ``qdmsim.cli.main(argv)`` for whole rounds until
the run time is spent, check every output, and print one JSON line.

Started by ``run.py``; not meant to be run by hand.  Prints ``READY`` once
set-up (interpreter start, ``import qdmsim``, round-0 inputs written) is
done, so the parent can time set-up from outside.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import hostspeed  # noqa: E402
import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

#: The known fault's message (see README, "Known fault kept visible").
KNOWN_FAULT_MESSAGE = "lossless map is not symplectic"


def _import_package():
    import qdmsim
    import qdmsim.cli
    import qdmsim.fock

    where = Path(qdmsim.__file__).resolve()
    if ROOT / "src" not in where.parents:
        raise SystemExit(f"qdmsim imported from {where}, not from {ROOT / 'src'}")
    return qdmsim.cli, qdmsim.fock


def _clear_caches(module) -> None:
    """Empty every functools cache of ``module``, as a fresh process has.

    The Fock unitaries are cached per parameter set; each validate command
    draws fresh parameters, so kept entries are never reused and would only
    pile up (about 41 MB each at cutoff 40)."""
    for value in vars(module).values():
        if hasattr(value, "cache_clear"):
            value.cache_clear()


class Runner:
    def __init__(self, cli, fock, tracer: tracing.Tracer | None, clock: hostspeed.HostClock):
        self.cli, self.fock, self.tracer, self.clock = cli, fock, tracer, clock
        self.main = cli.main
        self.attempted = 0
        self.failed = 0
        self.bad_checks: list[str] = []
        # times are as ``clock`` corrects them (see hostspeed.py)
        self.latencies: list[float] = []  # seconds, commands that exited 0
        self.round_busy: list[float] = []  # seconds inside cli.main, all commands
        self.wall_busy = 0.0  # uncorrected seconds inside cli.main
        self.round_points: list[int] = []  # grid points of commands that exited 0
        self.amplitudes = 0

    def trace_on(self) -> None:
        self.tracer.install()
        self.main = self.tracer.span("cli.main", self.cli.main)

    def run_round(self, ops: list[workloads.Op]) -> None:
        busy = 0.0
        points = 0
        for op in ops:
            self.attempted += 1
            if self.tracer is not None:
                self.tracer.op = self.attempted
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                mark = self.clock.mark()
                code = self.main(op.argv)
                wall, elapsed = self.clock.elapsed(mark)
            _clear_caches(self.fock)
            busy += elapsed
            self.wall_busy += wall
            self.amplitudes += op.amplitudes
            if code != 0:
                self.failed += 1
                if not (op.known_fault and code == 3 and KNOWN_FAULT_MESSAGE in err.getvalue()):
                    print(f"{op.label}: exit {code}: {err.getvalue().strip()}", file=sys.stderr)
                continue
            self.latencies.append(elapsed)
            points += op.points
            try:
                op.check(op.out.read_text())
            except (reference.CheckFailed, KeyError, ValueError) as exc:
                self.bad_checks.append(f"{op.label}: {type(exc).__name__}: {exc}")
        self.round_busy.append(busy)
        self.round_points.append(points)


def _run_rounds(runner: Runner, workload, first_round: list, start_index: int, seconds: float) -> int:
    """Run whole rounds until ``seconds`` have passed; return rounds run."""
    deadline = time.perf_counter() + seconds
    r, ops = start_index, first_round
    done = 0
    while True:
        runner.run_round(ops)
        done += 1
        r += 1
        if time.perf_counter() >= deadline:
            return done
        ops = workload.round(r)


def _percentile(values: list[float], q: float) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] if len(values) > 1 else values[0]


def end_to_end(runner: Runner) -> dict:
    lat = runner.latencies
    if not lat:
        raise SystemExit("no command completed; nothing to measure")
    return {
        # a ratio of totals over the whole run, in host-corrected time
        "throughput_per_s": sum(runner.round_points) / sum(runner.round_busy),
        "cmd_ms_p50": 1e3 * statistics.median(lat),
        "cmd_ms_p90": 1e3 * _percentile(lat, 90),
    }


def per_layer(runner: Runner, totals: dict, rounds: int, untraced: list[float]) -> dict:
    def get(name, key):
        return totals.get(name, {}).get(key, 0) / rounds

    out = {}
    for name, keys in (
        ("gaussian.apply_map", ("calls", "self_s")),
        ("gaussian.map_checks", ("calls", "s")),
        ("gaussian.state_checks", ("calls", "s")),
        ("elements.maps_built", ("calls", "self_s")),
        ("circuits.evaluate_circuit", ("calls", "self_s")),
        ("circuits.build_circuit", ("calls", "s")),
        ("metrology.channel_report", ("calls", "self_s")),
        ("scenario.load_scenario", ("calls", "s")),
        ("scenario.apply_axis_value", ("calls", "s")),
        ("cli.main", ("calls", "self_s")),
        ("fock.compare_with_gaussian", ("calls", "self_s")),
    ):
        for key in keys:
            out[f"{name}.{key}"] = get(name, key)
    evals = get("circuits.evaluate_circuit", "calls")
    reports = get("metrology.channel_report", "calls")
    out["circuits.maps_per_eval"] = get("elements.maps_built", "calls") / evals if evals else 0.0
    out["metrology.evals_per_report"] = evals / reports if reports else 0.0
    out["fock.amplitudes"] = runner.amplitudes / rounds
    traced = statistics.median(runner.round_busy)
    out["trace.overhead_pct"] = 100.0 * (traced / statistics.median(untraced) - 1.0)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    cli, fock = _import_package()
    workload = workloads.make(args.workload, ROOT, args.workdir, args.seed, args.smoke)
    first = workload.round(0)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    clock = hostspeed.HostClock()
    clock.start()
    try:
        if not args.trace:
            runner = Runner(cli, fock, None, clock)
            _run_rounds(runner, workload, first, 0, args.seconds)
            runners = [runner]
        else:
            # a third of the time untraced, as the reference for the overhead
            reference_runner = Runner(cli, fock, None, clock)
            n0 = _run_rounds(reference_runner, workload, first, 0, args.seconds / 3.0)
            tracer = tracing.Tracer()
            runner = Runner(cli, fock, tracer, clock)
            runner.trace_on()
            try:
                rounds = _run_rounds(runner, workload, workload.round(n0), n0, args.seconds * 2.0 / 3.0)
            finally:
                tracer.uninstall()
            runners = [reference_runner, runner]
    finally:
        clock.stop()

    if not args.trace:
        metrics = end_to_end(runner)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        tracer.write(args.workdir.parent / f"spans-{args.workload}.csv")
        metrics = per_layer(runner, tracer.totals(), rounds, reference_runner.round_busy)
    wall = sum(r.wall_busy for r in runners) / sum(r.attempted for r in runners)
    print(f"uncorrected: {1e3 * wall:.2f} ms per command; host speed {clock.mean_ratio():.3f} "
          f"of the reference; {len(clock.ratios)} calibration samples, {clock.spent:.2f} s", file=sys.stderr)

    bad_checks = [line for r in runners for line in r.bad_checks]
    for line in bad_checks[:20]:
        print(f"check failed: {line}", file=sys.stderr)
    result = {
        "correct": not bad_checks,
        "attempted": sum(r.attempted for r in runners),
        "failed": sum(r.failed for r in runners),
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
