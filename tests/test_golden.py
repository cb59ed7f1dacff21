"""Shipped scenarios through ``cli.main``: each (command, scenario) pair
must reproduce its recorded output under ``tests/golden/``.

Text outside numbers must match exactly; numbers must agree to rel 1e-9
and abs 1e-12, so last-digit differences between BLAS builds pass.
"""

import re
from pathlib import Path

import pytest

from qdmsim.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"

#: (command, scenario stem, golden file suffix) for every shipped pair that exits 0
PAIRS = [
    ("run", "mzi_basic", "json"),
    ("run", "nested_sui_phase_sweep", "json"),
    ("run", "degenerate_sui_states", "json"),
    ("run", "dsui_validate", "json"),
    ("sweep", "nested_sui_phase_sweep", "csv"),
    ("sweep", "dsui_grid_json", "json"),
    ("export-states", "degenerate_sui_states", "json"),
    ("export-states", "dsui_validate", "json"),
    ("validate", "dsui_validate", "txt"),
    ("validate", "nested_validate", "txt"),
]

NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def _split(text):
    """The text with every number replaced by a marker, and the numbers."""
    return NUMBER.sub("#", text), [float(n) for n in NUMBER.findall(text)]


@pytest.mark.parametrize("command, stem, suffix", PAIRS, ids=lambda v: str(v))
def test_shipped_scenario_matches_golden(capsys, command, stem, suffix):
    assert main([command, str(ROOT / "scenarios" / f"{stem}.json")]) == 0
    got_text, got_numbers = _split(capsys.readouterr().out)
    want_text, want_numbers = _split((GOLDEN / f"{command}_{stem}.{suffix}").read_text())
    assert got_text == want_text
    assert got_numbers == pytest.approx(want_numbers, rel=1e-9, abs=1e-12)
