"""Merge the verdict records of finished runs into ``expected.txt``.

    python3 perfbench/make_expected.py

Reads ``perfbench/out/verdicts-*.jsonl`` (written by every run), takes the
definite verdicts (sat, unsat) of the first PER_RUN formulas of each run, and
adds them to ``expected.txt``.  Two runs that disagree on a formula abort
the merge.  Run it only on a commit whose verdicts are trusted: the record
is what later runs are compared against.
"""

from __future__ import annotations

import glob
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED = os.path.join(HERE, "expected.txt")
HEADER = "# formula-text key (sha1, 16 hex digits) and the verdict recorded for it\n"
PER_RUN = 500  # keeps the record small; later formulas are checked without it


def main() -> int:
    expected: dict[str, str] = {}
    if os.path.exists(EXPECTED):
        with open(EXPECTED) as fh:
            for line in fh:
                if line.strip() and not line.startswith("#"):
                    key, status = line.split()
                    expected[key] = status
    conflicts = 0
    for path in sorted(glob.glob(os.path.join(HERE, "out", "verdicts-*.jsonl"))):
        with open(path) as fh:
            rows = [json.loads(line) for line in fh][:PER_RUN]
        for row in rows:
            if row["status"] not in ("sat", "unsat"):
                continue
            old = expected.setdefault(row["key"], row["status"])
            if old != row["status"]:
                print(f"{path}: {row['key']} is {row['status']}, recorded {old}", file=sys.stderr)
                conflicts += 1
    if conflicts:
        return 1
    with open(EXPECTED, "w") as fh:
        fh.write(HEADER)
        for key in sorted(expected):
            fh.write(f"{key} {expected[key]}\n")
    print(f"{len(expected)} verdicts in {EXPECTED}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
