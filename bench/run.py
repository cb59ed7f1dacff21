"""qdmsim benchmark: end-to-end and per-layer metrics for sweep, run and
Fock validate.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The package is imported from
``src/``; nothing needs to be installed.  One worker process runs the
whole workload through ``qdmsim.cli.main(argv)``; a few more processes
only time set-up.  The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json,
with ``--trace 1`` the per-layer ones.  See README.md for what each
workload and metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKER = BENCH_DIR / "worker.py"
sys.path.insert(0, str(BENCH_DIR))

from workloads import WORKLOADS  # noqa: E402

#: The program's source, the shipped scenario the nested sweep starts from,
#: and the metric declarations (names and units).
REQUIRED = (
    "src/qdmsim/__init__.py",
    "src/qdmsim/cli.py",
    "scenarios/nested_sui_phase_sweep.json",
    "BENCHMARK.json",
)
#: Set-up is timed this many times per run (the worker's own start included)
#: and reported as the median.
SETUP_SAMPLES = 9
#: Hard limit on one worker, well inside the 180 s a run may take.
WORKER_TIMEOUT_S = 150.0


def _environment() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    # one BLAS thread: the program is single-threaded numpy on small
    # matrices, and on a 2-CPU machine extra threads only add noise
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    # the same string hashes in every run, so dict and set layouts, and
    # the cost of walking them, do not change from process to process
    env["PYTHONHASHSEED"] = "0"
    return env


class WorkerError(RuntimeError):
    pass


def _start(argv: list[str], env: dict) -> tuple[subprocess.Popen, float]:
    """Start a worker and return it with the seconds until it printed READY."""
    begin = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), *argv], stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True
    )
    line = proc.stdout.readline()
    ready = time.perf_counter() - begin
    if line.strip() != "READY":
        proc.kill()
        proc.wait()
        raise WorkerError(f"worker did not start: {line!r}")
    return proc, ready


def _finish(proc: subprocess.Popen, timeout: float) -> str:
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise WorkerError(f"worker exceeded {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise WorkerError(f"worker exited {proc.returncode}")
    return out


def run(args) -> dict:
    work_root = ROOT / ".bench_work"
    workdir = work_root / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    env = _environment()
    common = ["--workload", args.workload, "--seed", str(args.seed), "--workdir", str(workdir)]
    if args.smoke:
        common.append("--smoke")
    try:
        setups = []
        for _ in range(0 if args.trace else SETUP_SAMPLES - 1):
            proc, ready = _start([*common, "--seconds", "0", "--setup-only"], env)
            _finish(proc, WORKER_TIMEOUT_S)
            setups.append(ready)
        proc, ready = _start([*common, "--seconds", str(args.seconds), "--trace", str(args.trace)], env)
        setups.append(ready)
        lines = _finish(proc, WORKER_TIMEOUT_S).strip().splitlines()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = json.loads(lines[-1])
    raw = result["metrics"]
    if not args.trace:
        raw["setup_s"] = statistics.median(setups)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]
    if set(raw) != {m["name"] for m in declared}:
        raise WorkerError(f"worker metrics {sorted(raw)} differ from BENCHMARK.json")
    result["metrics"] = {m["name"]: {"value": raw[m["name"]], "unit": m["unit"]} for m in declared}
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny rounds, for the benchmark's own smoke test")
    args = parser.parse_args()

    missing = [rel for rel in REQUIRED if not (ROOT / rel).is_file()]
    if missing:
        print(f"error: not a qdmsim checkout, missing {missing}", file=sys.stderr)
        return 2
    try:
        result = run(args)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
