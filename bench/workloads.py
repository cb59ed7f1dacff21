"""Seeded inputs for the four workloads.

A workload is a sequence of identical rounds.  Round ``r`` of seed ``s``
draws its parameters from ``random.Random(f"{name}/{s}/{r}")``, so the same
seed gives the same inputs, and every round holds the same commands in
the same order: only continuous values (alpha, T, G, phases, modulation
depths) are drawn, never the structure of a circuit.  Per-round counts of
calls into the program therefore repeat exactly across rounds and seeds.

Each command is a ``qdmsim`` argv with its scenario written to its own
file and its output sent to its own file, plus the check that its output
must pass (see ``reference.py``).
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import reference as ref

SHIPPED_SWEEP = "scenarios/nested_sui_phase_sweep.json"


@dataclass
class Op:
    """One CLI command of a round."""

    label: str
    argv: list[str]
    out: Path
    check: Callable[[str], None]
    #: Grid points computed by the command (1 for run and validate).
    points: int = 1
    #: Known fault: the command exited 3 when this benchmark was written (see README).
    known_fault: bool = False
    #: Computed Fock amplitudes, cutoff^(modes + loss ancillas).
    amplitudes: int = 0


def _loguniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _signed(rng: random.Random, lo: float, hi: float) -> float:
    return rng.choice((-1.0, 1.0)) * _loguniform(rng, lo, hi)


def scenario_doc(p: dict) -> dict:
    doc = {
        "topology": p["topology"],
        "alpha": p["alpha"],
        "splitters": list(p["splitters"]),
        "delta": p["delta"],
        "epsilon": p["epsilon"],
        "modulation_mode": p["mode"],
    }
    if p.get("gains"):
        doc["gains"] = [{"G": G, "phase": phase} for G, phase in p["gains"]]
        doc["phi"] = p["phi"]
    return doc


def _write(path: Path, doc: dict) -> str:
    path.write_text(json.dumps(doc))
    return str(path)


def draw_params(rng: random.Random, topology: str, mode: str, n_splitters: int, envelope: dict) -> dict:
    """One scenario of the given structure with values drawn inside ``envelope``."""
    T = rng.uniform(*envelope["T"])
    if topology == "DIRECT_HOMODYNE":
        splitters = (rng.uniform(0.2, 0.8),)
    elif n_splitters == 3:
        splitters = (T, T, rng.uniform(0.2, 0.8))
    else:
        splitters = (T, T)
    p = dict(
        topology=topology,
        mode=mode,
        alpha=_loguniform(rng, *envelope["alpha"]),
        splitters=splitters,
        delta=_signed(rng, *envelope["depth"]),
        epsilon=_loguniform(rng, *envelope["depth"]),
        phi=math.pi,
        gains=(),
    )
    G1, G2 = rng.uniform(*envelope["G"]), rng.uniform(*envelope["G"])
    if topology == "NESTED_SUI":
        p["gains"] = ((G1, 0.0), (G2, 0.0))
        p["phi"] = rng.uniform(*envelope.get("phi", (0.0, 2.0 * math.pi)))
    elif topology == "DEGENERATE_SUI":
        theta2 = rng.uniform(0.0, 2.0 * math.pi)
        p["gains"] = ((G1, theta2 + math.pi), (G2, theta2))
    return p


LABELS = {
    "DIRECT_HOMODYNE": ["phase", "amplitude"],
    "MZI": ["phase", "amplitude"],
    "NESTED_SUI": ["phase", "amplitude"],
    "DEGENERATE_SUI": ["mix_minus", "mix_plus"],
}


@dataclass
class Workload:
    name: str
    root: Path
    workdir: Path
    seed: int
    smoke: bool = False

    def rng(self, r: int) -> random.Random:
        return random.Random(f"{self.name}/{self.seed}/{r}")

    def path(self, stem: str) -> Path:
        return self.workdir / stem

    def round(self, r: int) -> list[Op]:
        raise NotImplementedError


class NestedPhiSweep(Workload):
    """The shipped 629-point phi sweep with seeded alpha, G1, G2 and T."""

    def round(self, r: int) -> list[Op]:
        rng = self.rng(r)
        doc = json.loads((self.root / SHIPPED_SWEEP).read_text())
        T = 1.0 - _loguniform(rng, 1e-5, 1e-2)
        doc["alpha"] = _loguniform(rng, 100.0, 1e4)
        doc["splitters"] = [T, T]
        doc["gains"] = [{"G": rng.uniform(1.2, 5.0)}, {"G": rng.uniform(1.2, 5.0)}]
        axis = doc["sweep"]["axes"][0]
        if self.smoke:
            axis["count"] = 21
        p = dict(
            topology=doc["topology"], mode=doc["modulation_mode"], alpha=doc["alpha"],
            splitters=doc["splitters"], gains=[(g["G"], 0.0) for g in doc["gains"]],
            phi=doc["phi"], delta=doc["delta"], epsilon=doc["epsilon"],
        )
        phis = ref.axis_values(axis["start"], axis["stop"], axis["count"])
        out = self.path("sweep.csv")
        argv = ["sweep", _write(self.path("sweep.json"), doc), "--workers", "1", "--out", str(out)]
        return [Op("sweep/NESTED_SUI/LINEARIZED", argv, out,
                   partial(ref.check_phi_sweep, p=p, phis=phis), points=len(phis))]


class DegenerateExactSweep(Workload):
    """DEGENERATE_SUI in EXACT mode over theta2_dark x G2, alpha 1000,
    T 0.9999, nonzero epsilon so the circuit carries a loss channel.  An
    8 x 6 grid keeps a command near a second, so a run times enough of them
    for a median and a 90th percentile."""

    def round(self, r: int) -> list[Op]:
        rng = self.rng(r)
        n_theta, n_gain = (3, 2) if self.smoke else (8, 6)
        theta0 = rng.uniform(0.05, 0.5)
        thetas = (theta0, theta0 + rng.uniform(2.4, 2.9), n_theta)
        gains2 = (1.1, rng.uniform(5.0, 20.0), n_gain)
        p = dict(
            topology="DEGENERATE_SUI", mode="EXACT", alpha=1000.0, splitters=(0.9999, 0.9999),
            gains=((rng.uniform(1.2, 3.0), math.pi), (1.5, 0.0)), phi=math.pi,
            delta=_signed(rng, 3e-4, 3e-3), epsilon=_loguniform(rng, 3e-4, 3e-3),
        )
        doc = scenario_doc(p)
        doc["sweep"] = {"axes": [
            {"name": "theta2_dark", "start": thetas[0], "stop": thetas[1], "count": thetas[2]},
            {"name": "G2", "start": gains2[0], "stop": gains2[1], "count": gains2[2]},
        ]}
        out = self.path("grid.csv")
        argv = ["sweep", _write(self.path("grid.json"), doc), "--workers", "1", "--out", str(out)]
        check = partial(ref.check_dsui_grid, p=p, thetas=ref.axis_values(*thetas),
                        gains2=ref.axis_values(*gains2))
        return [Op("sweep/DEGENERATE_SUI/EXACT", argv, out, check, points=n_theta * n_gain)]


#: run-mixed round: (topology, mode, splitters, commands per round).  The
#: counts place the median inside the LINEARIZED NESTED_SUI band and the
#: 90th percentile inside the EXACT DEGENERATE_SUI band, away from the
#: edges between classes of different cost, so both percentiles are steady.
RUN_CLASSES = (
    ("DIRECT_HOMODYNE", "LINEARIZED", 1, 6),
    ("MZI", "LINEARIZED", 2, 9),
    ("NESTED_SUI", "LINEARIZED", 2, 20),
    ("MZI", "LINEARIZED", 3, 3),
    ("DIRECT_HOMODYNE", "EXACT", 1, 3),
    ("DEGENERATE_SUI", "LINEARIZED", 2, 3),
    ("MZI", "EXACT", 2, 3),
    ("MZI", "EXACT", 3, 2),
    ("NESTED_SUI", "EXACT", 2, 2),
    ("DEGENERATE_SUI", "EXACT", 2, 9),
)
RUN_ENVELOPE = dict(alpha=(10.0, 1e4), T=(0.6, 0.9999), G=(1.05, 10.0), depth=(1e-4, 1e-2))
#: Second-amplifier gains at which the absolute symplectic tolerance
#: rejected the LINEARIZED nested interferometer when this benchmark was
#: written.  The inputs are fixed, not seeded, so the same commands fail in
#: every round.
KNOWN_FAULT_G2 = (300.0, 500.0, 1000.0, 2000.0)


class RunMixed(Workload):
    """Single ``run`` commands across all topologies and both modes."""

    def round(self, r: int) -> list[Op]:
        rng = self.rng(r)
        specs = []
        for topology, mode, n_split, count in RUN_CLASSES:
            for _ in range(1 if self.smoke else count):
                specs.append((draw_params(rng, topology, mode, n_split, RUN_ENVELOPE), False))
        for G2 in KNOWN_FAULT_G2:
            p = dict(topology="NESTED_SUI", mode="LINEARIZED", alpha=1000.0,
                     splitters=(0.9999, 0.9999), gains=((5.0 / 3.0, 0.0), (G2, 0.0)),
                     phi=math.pi, delta=1e-3, epsilon=1e-3)
            specs.append((p, True))
        ops = []
        for k, (p, fault) in enumerate(specs):
            out = self.path(f"run-{k}.json.out")
            argv = ["run", _write(self.path(f"run-{k}.json"), scenario_doc(p)), "--out", str(out)]
            label = f"run/{p['topology']}/{p['mode']}/{len(p['splitters'])}"
            ops.append(Op(label, argv, out, partial(ref.check_run, p=p), known_fault=fault))
        return ops


#: validate-oracle round: (topology, splitters, cutoff, modes, commands per
#: round).  Every scenario has epsilon > 0, i.e. one loss channel and so one
#: ancilla.  Four NESTED_SUI commands put the median inside their band and
#: the 90th percentile inside the band of the three cutoff-40 circuits.
VALIDATE_CLASSES = (
    ("MZI", 3, 24, 3, 1),
    ("NESTED_SUI", 2, 24, 3, 4),
    ("DIRECT_HOMODYNE", 1, 40, 2, 1),
    ("MZI", 2, 40, 2, 1),
    ("DEGENERATE_SUI", 2, 40, 2, 1),
)
#: Inside the oracle envelope (G <= 1.6, |alpha| <= 2) and small enough
#: that the tail mass stays under the abort threshold at these cutoffs.
VALIDATE_ENVELOPE = {
    "DIRECT_HOMODYNE": dict(alpha=(0.3, 2.0), T=(0.2, 0.8), G=(1.0, 1.0), depth=(0.01, 0.1)),
    "MZI": dict(alpha=(0.3, 2.0), T=(0.2, 0.8), G=(1.0, 1.0), depth=(0.01, 0.1)),
    "NESTED_SUI": dict(alpha=(0.2, 1.0), T=(0.2, 0.8), G=(1.05, 1.25), depth=(0.01, 0.1),
                       phi=(math.pi - 0.5, math.pi + 0.5)),
    "DEGENERATE_SUI": dict(alpha=(0.2, 1.2), T=(0.2, 0.8), G=(1.05, 1.3), depth=(0.01, 0.1)),
}
VALIDATE_TOLERANCE = 1e-4


class ValidateOracle(Workload):
    """EXACT ``validate`` commands on all four topologies, fresh parameters
    per command so no Fock unitary is reused across commands."""

    def round(self, r: int) -> list[Op]:
        rng = self.rng(r)
        ops = []
        for topology, n_split, cutoff, modes, count in VALIDATE_CLASSES:
            for _ in range(1 if self.smoke else count):
                k = len(ops)
                p = draw_params(rng, topology, "EXACT", n_split, VALIDATE_ENVELOPE[topology])
                out = self.path(f"validate-{k}.out")
                argv = ["validate", _write(self.path(f"validate-{k}.json"), scenario_doc(p)),
                        "--cutoff", str(cutoff), "--tolerance", str(VALIDATE_TOLERANCE), "--out", str(out)]
                check = partial(ref.check_validate, p=p, labels=LABELS[topology], tolerance=VALIDATE_TOLERANCE)
                ops.append(Op(f"validate/{topology}/{n_split}", argv, out, check,
                              amplitudes=cutoff ** (modes + 1)))
        return ops


WORKLOADS = {
    "sweep-nested-phi": NestedPhiSweep,
    "sweep-degenerate-exact": DegenerateExactSweep,
    "run-mixed": RunMixed,
    "validate-oracle": ValidateOracle,
}


def make(name: str, root: Path, workdir: Path, seed: int, smoke: bool = False) -> Workload:
    return WORKLOADS[name](name, root, workdir, seed, smoke)
