"""Count the lines of the package sources: physical lines and code lines.

Code lines exclude docstrings, comments and blank lines.  A docstring is
the string that opens a module, class or function body; a comment line is
one whose first non-blank character is ``#``.  Lines inside any other
string literal always count as code.  Run from anywhere:

    python3 tools/src_lines.py

It prints one line per file of ``src/sltl/*.py``, a total, and the
subtotal of the trust base: ``syntax.py`` plus ``semantics.py``, the
modules that the witness checker is made of.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRUST_BASE = ("syntax.py", "semantics.py")
_BODIES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def count(source: str) -> tuple[int, int]:
    """(physical lines, code lines) of a Python source text."""
    lines = source.splitlines()
    tree = ast.parse(source)
    docstrings: set[int] = set()
    in_strings: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, _BODIES) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            docstrings.update(range(doc.lineno, doc.end_lineno + 1))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            in_strings.update(range(node.lineno + 1, node.end_lineno + 1))
    code = 0
    for number, text in enumerate(lines, start=1):
        if number in docstrings:
            continue
        stripped = text.strip()
        if number in in_strings or stripped and not stripped.startswith("#"):
            code += 1
    return len(lines), code


def main() -> None:
    counts = {
        path.name: count(path.read_text(encoding="utf-8"))
        for path in sorted((ROOT / "src" / "sltl").glob("*.py"))
    }
    for name, (physical, code) in counts.items():
        print(f"{physical:6d} {code:6d}  {name}")
    physical, code = (sum(c[i] for c in counts.values()) for i in (0, 1))
    print(f"{physical:6d} {code:6d}  total (physical, code)")
    physical, code = (sum(counts[name][i] for name in TRUST_BASE) for i in (0, 1))
    print(f"{physical:6d} {code:6d}  {' + '.join(TRUST_BASE)}, the trust base")


if __name__ == "__main__":
    main()
