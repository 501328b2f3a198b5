"""Count the code lines of ``src/ratioshift``: non-blank lines that are
neither comments nor docstrings.

Run it with ``python tests/code_lines.py``; it finds the package from its
own path, and prints one line per module and then the total. A docstring is the string
that opens a module, class or function body, found with ``ast``; a comment
line is one whose first non-blank character is ``#``. A line that holds
code and a trailing comment counts. The script uses the standard library
only, and pytest does not collect it (its name does not start with
``test_``).
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ratioshift"


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    text = path.read_text(encoding="utf-8")
    docstrings = _docstring_lines(ast.parse(text))
    return sum(1 for number, line in enumerate(text.splitlines(), start=1)
               if line.strip() and not line.lstrip().startswith("#")
               and number not in docstrings)


def main() -> int:
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{count:6,}  {path.name}")
    print(f"{total:6,}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
