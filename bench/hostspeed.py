"""Host-speed correction of command times.

On a shared VM the speed of a core can change by up to 1.8x within
seconds: on the reference host (2 vCPUs, see README) the same fixed loop
took 1.6 ms in one second and 2.8 ms in the next, on either core, in wall
time and CPU time alike.  A wall-clock median over a run then measures
how long the host spent in each state more than it measures the program.

``HostClock`` corrects for that.  While commands run, a ``SIGALRM`` timer
runs a fixed calibration kernel (small validated dataclasses, 6x6 numpy
products, dicts and JSON text: the program's mix of work, but none of its
code) every ``INTERVAL_S`` seconds and records how long it took.  A
command's time is its wall time, less the time the kernel itself took,
scaled by the mean of ``REFERENCE_KERNEL_S / kernel_time`` over the
samples taken while it ran: the time the command would have taken on a
host whose kernel time is ``REFERENCE_KERNEL_S``.  The handler runs
between Python bytecodes of the program, so samples spread over long
commands; a command too short to hold ``MIN_SAMPLES`` samples uses the
latest ones before its end.

In a traced run the samples fall inside spans too, adding the sampler's
cost (about 1.5 %) to the span times.
"""

from __future__ import annotations

import bisect
import dataclasses
import json
import signal
import time

import numpy as np

#: Seconds between calibration samples; the kernel takes about 0.5 ms, so
#: the sampler costs about 1.5 % of a run.
INTERVAL_S = 0.04
#: A fixed scale: corrected times are wall times on a host where the kernel
#: takes this long (the reference host took 0.48-0.71 ms, 5th to 95th
#: percentile; see README).
REFERENCE_KERNEL_S = 500e-6
MIN_SAMPLES = 5

_RNG = np.random.default_rng(1)
_COV = _RNG.standard_normal((6, 6))
_OMEGA = np.kron(np.eye(3), np.array([[0.0, 1.0], [-1.0, 0.0]]))


@dataclasses.dataclass(frozen=True)
class _Map:
    """A 3-mode symplectic map with a validating constructor, as the program
    builds thousands of per sweep (but the benchmark's own, not qdmsim's)."""

    S: np.ndarray
    d: np.ndarray

    def __post_init__(self) -> None:
        if not np.all(np.isfinite(self.S)):
            raise ValueError("non-finite map")
        residual = float(np.max(np.abs(self.S @ _OMEGA @ self.S.T - _OMEGA)))
        object.__setattr__(self, "residual", residual)


def kernel() -> str:
    """A fixed amount of the program's kind of work: small validated
    dataclasses, 6x6 numpy products, Python dicts and JSON text."""
    rows = []
    for i in range(8):
        c, s = np.cos(0.1 * i), np.sin(0.1 * i)
        S = np.eye(6)
        S[0, 0], S[0, 2], S[2, 0], S[2, 2] = c, s, -s, c
        m = _Map(S, np.zeros(6))
        v = m.S @ _COV @ m.S.T + np.diag(np.full(6, 0.5))
        v = 0.5 * (v + v.T)
        rows.append({"i": i, "residual": m.residual, "trace": float(np.trace(v)),
                     "det": float(np.linalg.det(v[:2, :2]))})
    return json.dumps(rows) + f"{rows[0]} {rows[-1]!r}"


class HostClock:
    def __init__(self) -> None:
        self.times: list[float] = []  # start of each sample
        self.ratios: list[float] = []  # REFERENCE_KERNEL_S / kernel time
        self.spent = 0.0  # seconds inside the handler
        self._previous = None

    def _sample(self, signum=None, frame=None) -> None:
        begin = time.perf_counter()
        kernel()
        took = time.perf_counter() - begin
        self.times.append(begin)
        self.ratios.append(REFERENCE_KERNEL_S / took)
        self.spent += time.perf_counter() - begin

    def start(self) -> None:
        for _ in range(MIN_SAMPLES):
            self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self) -> tuple[float, float]:
        return time.perf_counter(), self.spent

    def elapsed(self, mark: tuple[float, float]) -> tuple[float, float]:
        """Return (wall seconds less the sampler's, corrected seconds) since ``mark``."""
        end = time.perf_counter()
        spent = self.spent
        begin, spent_before = mark
        wall = end - begin - (spent - spent_before)
        last = bisect.bisect_right(self.times, end)
        first = min(bisect.bisect_left(self.times, begin), last - MIN_SAMPLES)
        ratios = self.ratios[max(first, 0):last]
        return wall, wall * sum(ratios) / len(ratios)

    def mean_ratio(self) -> float:
        return sum(self.ratios) / len(self.ratios)
