"""Spans around the calls into each ``qdmsim`` layer, recorded from outside.

A wrapper goes on each public function where the calling module looks it
up (``qdmsim.circuits.apply_map``, not ``qdmsim.gaussian.apply_map``), so
the span boundary is the layer boundary.  The invariant checks are timed
as the ``__post_init__`` of ``GaussianMap`` and ``GaussianState``.  An
attribute a module no longer has is skipped: its counts then read 0.

Spans live in flat arrays while the run lasts and are written out once at
the end.  A span's self time is its duration minus the durations of its
direct children; calls are synchronous, so children never overlap.
"""

from __future__ import annotations

import functools
import time
from array import array
from pathlib import Path

#: (span name, module, attribute) for every wrapped lookup.
FUNCTION_SPANS = (
    ("scenario.load_scenario", "qdmsim.cli", "load_scenario"),
    ("scenario.apply_axis_value", "qdmsim.cli", "apply_axis_value"),
    ("metrology.channel_report", "qdmsim.cli", "channel_report"),
    ("fock.compare_with_gaussian", "qdmsim.cli", "compare_with_gaussian"),
    ("circuits.build_circuit", "qdmsim.cli", "build_circuit"),
    ("circuits.build_circuit", "qdmsim.scenario", "build_circuit"),
    ("circuits.build_circuit", "qdmsim.metrology", "build_circuit"),
    ("circuits.build_circuit", "qdmsim.fock", "build_circuit"),
    ("circuits.monitor_stats", "qdmsim.metrology", "monitor_stats"),
    ("circuits.monitor_stats", "qdmsim.fock", "monitor_stats"),
    ("circuits.evaluate_circuit", "qdmsim.circuits", "evaluate_circuit"),
    ("gaussian.apply_map", "qdmsim.circuits", "apply_map"),
    ("elements.maps_built", "qdmsim.circuits", "beam_splitter"),
    ("elements.maps_built", "qdmsim.circuits", "phase_shifter"),
    ("elements.maps_built", "qdmsim.circuits", "loss_channel"),
    ("elements.maps_built", "qdmsim.circuits", "two_mode_squeezer"),
    ("elements.maps_built", "qdmsim.circuits", "single_mode_squeezer"),
    ("elements.maps_built", "qdmsim.circuits", "displacement_map"),
)
#: (span name, class, method): invariant checks run at construction.
METHOD_SPANS = (
    ("gaussian.map_checks", "GaussianMap", "__post_init__"),
    ("gaussian.state_checks", "GaussianState", "__post_init__"),
)


class Tracer:
    """In-memory span recorder.  ``op`` is the id of the current command."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.op_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.op = 0
        self._undo: list[tuple[object, str, object]] = []

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def span(self, name: str, fn):
        """Return ``fn`` wrapped so that every call records one span."""
        nid = self._intern(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.op_id.append(self.op)
            self.start.append(0.0)
            self.end.append(0.0)
            self._stack.append(idx)
            begin = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                self.start[idx] = begin
                self._stack.pop()

        return traced

    def install(self) -> None:
        """Wrap every layer boundary of the imported package."""
        import importlib

        for name, module_name, attr in FUNCTION_SPANS:
            module = importlib.import_module(module_name)
            if hasattr(module, attr):
                self._patch(module, attr, self.span(name, getattr(module, attr)))
        gaussian = importlib.import_module("qdmsim.gaussian")
        for name, cls_name, method in METHOD_SPANS:
            cls = getattr(gaussian, cls_name, None)
            if cls is not None and method in vars(cls):
                self._patch(cls, method, self.span(name, vars(cls)[method]))

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in self.names}
        for i in range(n):
            entry = out[self.names[self.name_id[i]]]
            duration = self.end[i] - self.start[i]
            entry["calls"] += 1
            entry["s"] += duration
            entry["self_s"] += duration - child[i]
        return out

    def write(self, path: Path) -> None:
        """Write every span as CSV: op, span, name, parent, start, end."""
        with open(path, "w") as handle:
            handle.write("op,span,name,parent,start_s,end_s\n")
            for i in range(len(self.start)):
                handle.write(
                    f"{self.op_id[i]},{i},{self.names[self.name_id[i]]},{self.parent[i]},"
                    f"{self.start[i]:.9f},{self.end[i]:.9f}\n"
                )
