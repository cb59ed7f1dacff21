"""The line count of ``tools/loc.py``: each line removed at most once."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "loc.py"
_SPEC = importlib.util.spec_from_file_location("loc", _PATH)
loc = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(loc)

SOURCE = '''"""A module docstring
over two lines."""

# a comment-only line
import math  # a trailing comment keeps its line

TEXT = """a string that is
no docstring"""


class Shape:
    """A class docstring."""

    def area(self):

        """A function docstring after a blank line."""
        return math.pi
'''


def test_code_lines_leave_out_docstrings_comments_and_blanks_once():
    # code: import, the two lines of TEXT, class, def, return
    assert loc.code_lines(SOURCE) == 6
    assert loc.docstring_lines(SOURCE) == {1, 2, 12, 16}


def test_the_package_counts_add_up(capsys):
    assert loc.main([]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[1:]]
    total = rows.pop()
    assert total[0] == "total"
    assert int(total[1]) == sum(int(row[1]) for row in rows)
    assert int(total[2]) == sum(int(row[2]) for row in rows)
    assert all(int(row[2]) < int(row[1]) for row in rows)
