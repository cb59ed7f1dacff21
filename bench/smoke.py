"""Smoke test of the benchmark itself, kept out of the tier-1 suite.

    python3 bench/smoke.py

Runs every workload at smoke size (a few grid points, one command per
class) with the same output checks as a full run, untraced and traced on
two seeds, and checks that

* every run exits 0 with ``correct`` true and every metric of
  BENCHMARK.json present with its unit;
* only run-mixed has failed commands, at most its known faults per round;
* per-layer counts of the two traced runs are identical;
* in a directory holding only BENCHMARK.json and ``bench/`` the benchmark
  exits non-zero without printing a result.

Takes about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNT_UNITS = ("count/round", "maps/eval", "evals/report")


def bench(cwd: Path, workload: str, seed: int, trace: int) -> subprocess.CompletedProcess:
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=180)


def result_of(proc: subprocess.CompletedProcess, what: str) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"{what}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"{what}: keys {sorted(result)}")
    if not result["correct"] or result["attempted"] < 1:
        raise AssertionError(f"{what}: {result}\n{proc.stderr}")
    return result


def check_metrics(result: dict, declared: list[dict], what: str) -> None:
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    if got != want:
        raise AssertionError(f"{what}: metrics {got} != declared {want}")


def main() -> int:
    fault_share = len(workloads.KNOWN_FAULT_G2) / (len(workloads.RUN_CLASSES) + len(workloads.KNOWN_FAULT_G2))
    for workload in workloads.WORKLOADS:
        plain = result_of(bench(ROOT, workload, 7, 0), f"{workload} untraced")
        check_metrics(plain, SPEC["end_to_end"], workload)
        allowed = fault_share if workload == "run-mixed" else 0.0
        if plain["failed"] > allowed * plain["attempted"]:
            raise AssertionError(f"{workload}: {plain['failed']} of {plain['attempted']} failed")
        counts = []
        for seed in (7, 8):
            traced = result_of(bench(ROOT, workload, seed, 1), f"{workload} traced")
            check_metrics(traced, SPEC["per_layer"], workload)
            counts.append({name: m["value"] for name, m in traced["metrics"].items() if m["unit"] in COUNT_UNITS})
        if counts[0] != counts[1]:
            raise AssertionError(f"{workload}: per-layer counts differ between seeds: {counts}")
        print(f"ok {workload}: {plain['attempted']} commands, {plain['failed']} failed")

    scratch = ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH_DIR, Path(bare) / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench(Path(bare), "run-mixed", 7, 0)
        if proc.returncode == 0 or proc.stdout.strip():
            raise AssertionError(f"benchmark without the program: exit {proc.returncode}, {proc.stdout!r}")
    print("ok bare directory: exits", proc.returncode)
    return 0


if __name__ == "__main__":
    sys.exit(main())
