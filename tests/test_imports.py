"""Import hygiene of the package, checked on the source with ``ast`` and in
a fresh interpreter."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "sltl"


def _unused_imports(path: Path) -> list[str]:
    """Names a module imports but never reads; the package root may list
    them in ``__all__`` instead, as its re-exports."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    imported: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    for node in tree.body if path.name == "__init__.py" else ():
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted(imported - used)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_used_or_exported(path):
    assert _unused_imports(path) == []


def test_semantics_imports_only_syntax_from_the_package():
    # the trust base: a witness check reads no module but these two, so an
    # engine fault cannot hide in the checker
    tree = ast.parse((SRC / "semantics.py").read_text(encoding="utf-8"))
    package = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names = [node.module] if node.module else [a.name for a in node.names]
            dots = "." * node.level
            package.update(dots + n for n in names if dots or n.split(".")[0] == "sltl")
        elif isinstance(node, ast.Import):
            package.update(a.name for a in node.names if a.name.split(".")[0] == "sltl")
    assert package == {".syntax"}


def test_import_loads_neither_dataclasses_nor_typing():
    # every CLI call pays the package's import time, and these modules cost
    # more of it than the package itself; -S keeps ``site`` from importing
    # them first
    probe = (
        "import sys; sys.path.insert(0, sys.argv[1]); import sltl; "
        "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))"
    )
    done = subprocess.run(
        [sys.executable, "-S", "-c", probe, str(SRC.parent)],
        capture_output=True, text=True, timeout=60, check=True,
    )
    assert done.stdout.strip() == "[]"
