"""Run the mutation ledger: each mutant of ``tools/mutants.json`` against
the tests that must kill it.  Run from anywhere:

    python3 tools/mutants.py

A ledger entry names the mutant (``name``), the ``file`` it changes
(relative to the repository root), an ``old`` text that must occur in that
file exactly once, the ``new`` text that replaces it, the ``tests`` to run
(pytest node ids), the ``expect``ed outcome and ``why``.  The expected
outcome is ``killed``, or ``equivalent`` for a mutant that no test can
tell from the program, whose ``why`` then says why.

Each mutant is applied to a fresh copy of ``src/``, ``tests/`` and
``pyproject.toml`` in a temporary directory, and its tests run there with
``pytest -x``, importing the package from that copy.  The mutant is
``killed`` when a test fails and ``survived`` when all pass; ``missing``
means its old text does not occur exactly once, and ``error`` that pytest
could not run the tests (a node id not found, for example).  Before any
mutant, the ledger's tests run once on an unchanged copy, since a test
that fails there would kill every mutant.

It prints one JSON line per mutant: its name, the outcome, the expected
outcome, the first failing test with its error (a crash shows as its
exception) and the seconds taken.  It exits 1 when the unchanged copy
fails, or a mutant's outcome is not the expected one: a survivor, a
killed "equivalent" mutant, a missing old text or an error.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LEDGER = ROOT / "tools" / "mutants.json"
_OUTCOMES = {0: "survived", 1: "killed"}  # pytest's exit code; any other is an error


def copy_tree(dest: Path) -> None:
    """Copy what the tests need of the repository into ``dest``."""
    ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", dest)


def run_tests(tree: Path, tests: list[str]) -> tuple[str, str]:
    """Run ``tests`` in ``tree`` under ``pytest -x``: the outcome, and the
    summary line of the first failure or error, or ''."""
    env = {
        **os.environ,
        "PYTHONPATH": str(tree / "src"),
        "PYTHONDONTWRITEBYTECODE": "1",
        "COLUMNS": "300",  # wide enough that pytest keeps the error in the summary line
    }
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-rfE", "-p", "no:cacheprovider", *tests],
        cwd=tree, env=env, capture_output=True, text=True,
    )
    lines = (run.stdout + run.stderr).splitlines()
    failures = [line for line in lines if line.startswith(("FAILED ", "ERROR"))]
    return _OUTCOMES.get(run.returncode, "error"), failures[0] if failures else ""


def run_mutant(mutant: dict, tree: Path) -> dict:
    """Apply ``mutant`` to a fresh copy at ``tree`` and run its tests."""
    start = time.perf_counter()
    copy_tree(tree)
    path = tree / mutant["file"]
    text = path.read_text(encoding="utf-8")
    outcome, first = "missing", ""
    if text.count(mutant["old"]) == 1:
        path.write_text(text.replace(mutant["old"], mutant["new"]), encoding="utf-8")
        outcome, first = run_tests(tree, mutant["tests"])
    return {
        "name": mutant["name"],
        "outcome": outcome,
        "expect": mutant["expect"],
        "first_failure": first,
        "seconds": round(time.perf_counter() - start, 2),
    }


def main() -> int:
    mutants = json.loads(LEDGER.read_text(encoding="utf-8"))
    with tempfile.TemporaryDirectory(prefix="sltl-mutants-") as scratch:
        clean = Path(scratch, "unchanged")
        copy_tree(clean)
        outcome, first = run_tests(clean, sorted({t for m in mutants for t in m["tests"]}))
        if outcome != "survived":
            print(json.dumps({"name": "unchanged copy", "outcome": outcome, "first_failure": first}))
            return 1
        wrong = 0
        for i, mutant in enumerate(mutants):
            row = run_mutant(mutant, Path(scratch, f"mutant{i}"))
            print(json.dumps(row), flush=True)
            wrong += row["outcome"] != {"killed": "killed", "equivalent": "survived"}[row["expect"]]
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
