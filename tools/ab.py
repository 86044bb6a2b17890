"""Compare two ``sltl`` source trees in one process: verdicts, then speed.

    python3 tools/ab.py BASE_SRC CHANGE_SRC --workload W --seed N --specs K

BASE_SRC and CHANGE_SRC are directories that hold an ``sltl`` package (the
``src/`` of two checkouts, or one checkout twice).  Both are imported, under
distinct package names, into this one process.  The corpus is the one the
benchmark harness builds (``perfbench/gen.py`` through ``run.py``'s
formula stream, both only read): the workload's fixed families, then the
first K seeded random specs of its fragment.  Every formula goes through
``parse`` -> ``solve`` with each tree, at the harness's bounds.

It prints how many ``verdict_to_json`` results differ (a raised error is
its type and message) and exits 1 if any do.  The solves run in chunks of
100 formulas (the last chunk takes the rest), each chunk with both trees
in turn, the first tree alternating from chunk to chunk; it prints the
median over chunks of the ratio base time / change time (above 1: the
change is faster), with its quartiles.  Both trees of a chunk share the host's drift, which separate
harness runs do not, so the ratio is steadier than a comparison of runs.
Each formula's ``parse`` -> ``solve`` is timed on its own, as the harness
times it, and each tree's per-formula p50 and p95 in milliseconds are
printed beside the ratio, so a latency claim can be checked in one
process.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import itertools
import json
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CHUNK = 100

sys.dont_write_bytecode = True  # leave no cache files beside the harness
sys.path.insert(0, str(ROOT / "perfbench"))
import gen  # noqa: E402
import run  # noqa: E402


def load(src: str, name: str):
    """The ``sltl`` package under ``src``, imported as package ``name``."""
    init = Path(src, "sltl", "__init__.py")
    if not init.is_file():
        sys.exit(f"ab: no sltl package at {init}")
    spec = importlib.util.spec_from_file_location(name, init, submodule_search_locations=[str(init.parent)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def solve(sltl, text: str, bounds):
    """``parse`` -> ``solve`` as the harness's loop runs it; a raised error
    is returned."""
    try:
        f = sltl.parse(text)
        opts = None
        if bounds is not None:
            opts = sltl.SolveOptions(bounds=sltl.SearchBounds.for_formula(f, *bounds))
        return sltl.solve(f, opts)
    except Exception as exc:  # the error is the outcome compared
        return exc


def outcome(sltl, result) -> str:
    if isinstance(result, Exception):
        return f"{type(result).__name__}: {result}"
    return json.dumps(sltl.verdict_to_json(result), sort_keys=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("base_src")
    ap.add_argument("change_src")
    ap.add_argument("--workload", required=True, choices=sorted(run.FRAGMENTS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--specs", type=int, required=True)
    args = ap.parse_args(argv)
    trees = [load(args.base_src, "sltl_base"), load(args.change_src, "sltl_change")]
    count = len(gen.FIXED[args.workload]) + args.specs
    texts = list(itertools.islice(run._stream(trees[0], args.workload, args.seed), count))
    bounds = run.SOLVE_BOUNDS.get(args.workload)

    results: list[list] = [[], []]
    latencies: list[list[float]] = [[], []]  # seconds per formula, by tree
    ratios = []
    n_chunks = max(1, len(texts) // CHUNK)  # the last one takes the rest
    for c in range(n_chunks):
        chunk = texts[c * CHUNK:None if c == n_chunks - 1 else (c + 1) * CHUNK]
        seconds = [0.0, 0.0]
        for side in (0, 1) if c % 2 == 0 else (1, 0):
            gc.collect()
            for text in chunk:
                t = time.perf_counter()
                results[side].append(solve(trees[side], text, bounds))
                latencies[side].append(time.perf_counter() - t)
            seconds[side] = sum(latencies[side][-len(chunk):])
        ratios.append(seconds[0] / seconds[1])

    differing = [
        text for text, a, b in zip(texts, *results)
        if outcome(trees[0], a) != outcome(trees[1], b)
    ]
    print(f"workload={args.workload} seed={args.seed} formulas={len(texts)} differing={len(differing)}")
    for text in differing[:5]:
        print(f"  differs: {text}")
    q1, median, q3 = statistics.quantiles(ratios, n=4) if len(ratios) > 1 else ratios * 3
    print(f"chunks={len(ratios)} base/change time ratio: median={median:.3f} q1={q1:.3f} q3={q3:.3f}")
    for name, times in zip(("base", "change"), latencies):
        ms = [1000 * t for t in times]  # the harness's quantiles
        p95 = statistics.quantiles(ms, n=20)[-1] if len(ms) > 1 else ms[0]
        print(f"{name} per-formula latency: p50={statistics.median(ms):.4f} ms p95={p95:.4f} ms")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
