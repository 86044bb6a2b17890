"""Summarise finished runs into ``baseline.json``.

    python3 perfbench/baseline.py "<commit and host>"

Reads the result lines every run leaves in ``perfbench/out/`` and writes,
per workload and metric, the median and quartiles over the runs found, with
the seeds they came from.  Run it after measuring a commit on every workload
with ``--trace 0`` (ten seeds) and ``--trace 1``.
"""

from __future__ import annotations

import glob
import json
import os
import re
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RESULT = re.compile(r"result-(?P<workload>\w+)-(?P<seed>\d+)-trace(?P<trace>[01])\.json$")


def main(about: str) -> int:
    runs: dict[tuple[str, int], dict[int, dict]] = {}
    for path in glob.glob(os.path.join(HERE, "out", "result-*.json")):
        m = RESULT.search(path)
        with open(path) as fh:
            result = json.loads(fh.read())
        if not result["correct"]:
            sys.exit(f"{path}: the run failed its correctness gate")
        runs.setdefault((m["workload"], int(m["trace"])), {})[int(m["seed"])] = result
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        order = [w["name"] for w in json.load(fh)["workloads"]]
    out = {"about": about, "seeds": {}, "workloads": {}}
    for (workload, trace), by_seed in sorted(runs.items(), key=lambda kv: (order.index(kv[0][0]), kv[0][1])):
        results = [by_seed[s] for s in sorted(by_seed)]
        out["seeds"][f"{workload}/trace{trace}"] = sorted(by_seed)
        row = out["workloads"].setdefault(workload, {})
        row[f"attempted_trace{trace}"] = statistics.median(r["attempted"] for r in results)
        for name, first in results[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            row[name] = {"median": statistics.median(values), "q1": q1, "q3": q3, "unit": first["unit"]}
    with open(os.path.join(HERE, "baseline.json"), "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1]))
