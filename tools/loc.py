"""Count the lines of each module of the ``qdmsim`` package.

For each module, and for the package, this prints the physical lines (as
``wc -l`` counts them) and the code lines counted once: the physical lines
less every line of a docstring (found with :mod:`ast`), every comment-only
line and every blank line (found with :mod:`tokenize`), each line removed
once even if it is more than one of these.  A line of code with a trailing
comment stays.

Usage, from the repository root::

    python tools/loc.py [package directory, default src/qdmsim]
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

#: Tokens that do not make a line one of code.
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER}


def docstring_lines(source: str) -> set[int]:
    """The line numbers of the docstrings of the module and of every class
    and function in it."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The lines that hold a token other than a comment or layout, less the
    docstring lines: blank and comment-only lines hold no such token."""
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    code = set()
    for token in tokens:
        if token.type not in _LAYOUT:
            code.update(range(token.start[0], token.end[0] + 1))
    return len(code - docstring_lines(source))


def main(argv: list[str]) -> int:
    package = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src" / "qdmsim"
    rows = []
    for path in sorted(package.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        rows.append((path.name, source.count("\n"), code_lines(source)))
    rows.append(("total", sum(row[1] for row in rows), sum(row[2] for row in rows)))
    print(f"{'module':<16}{'wc -l':>8}{'code':>8}")
    for name, physical, code in rows:
        print(f"{name:<16}{physical:>8}{code:>8}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
