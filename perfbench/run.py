"""Solve benchmark: seeded formula corpora through ``parse`` -> ``solve``.

    python3 perfbench/run.py --workload psl --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the solver is imported from
``src/``.  One run, in its own process:

1. generates the workload's seeded corpus as formula text (``gen.py``),
   keeping only formulas of the workload's fragment; its size is set by
   ``--seconds`` alone, so a seed always gives the same formulas;
2. feeds the texts through ``parse`` -> ``solve`` in a closed loop with one
   client, under a per-formula deadline set by a SIGALRM interval timer (a
   timeout counts as the deadline).  The solves take about ``--seconds`` in
   all.  Each fixed-family formula is solved FIXED_REPEATS times, spread over
   the run, and must give the same verdict digest each time; its latency is
   the median of its solves;
3. scales every solve time by the host's speed around it, from a probe loop
   timed between formulas (see ``hostspeed.py``): the shared host this runs
   on drifts by up to 1.7x within a run.  Untraced, it also times ``import
   sltl`` in fresh interpreters before, amid and after the solves, scaled
   the same way (``setup_s``, the median);
4. outside the timed region, re-checks every sat witness, compares every
   definite verdict with ``expected.txt`` (a new unsat verdict is instead
   cross-checked by a small bounded search, within a time budget), and
   solves the formulas again in a child interpreter with another
   PYTHONHASHSEED and the other trace mode, within a time budget: verdict
   digests must agree on every formula answered in both;
5. prints one JSON line: the end-to-end metrics with ``--trace 0``, the
   per-layer metrics with ``--trace 1`` (see ``spans.py``).

Per-formula verdict records, the result line, host-speed probes, and spans
in traced runs, are written under ``perfbench/out/``.  Exit status 1 with a
result line means a wrong or non-deterministic verdict; without one, that
the run could not start (for example, the solver sources are missing).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
import time

import gen
import hostspeed
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

DEADLINE_S = 30.0  # per formula; the slowest formula (ring k=4) takes ~4 s
# Bounded-search bounds (traces, prefix, period) passed to solve; None keeps
# the default (3, 2, 3), at which one unknown verdict takes 0.3-5 s.  At
# (2, 1, 2) a run solves half as many formulas as at (2, 1, 1), and which
# unknown verdicts a seed draws moves its throughput by 8% (one standard
# deviation), against 5%.
SOLVE_BOUNDS = {"full_sltl": (2, 1, 1)}
# Bounds (traces, prefix, period) of the cross-check of a new unsat verdict;
# a propositional formula only reads position 0.
CROSS_CHECK_BOUNDS = {"psl": (2, 0, 1), "ltl_psl": (2, 1, 2), "pure_ltl": (1, 1, 2)}
CROSS_CHECK_DEADLINE_S = 2.0
CROSS_CHECK_SHARE = 0.05  # cross-check budget as a share of --seconds
# Solves of each fixed-family formula; its latency is their median.  A ring
# takes seconds, over which the host's speed is seen only from outside, so
# one scaled solve of it can be off by a third.
FIXED_REPEATS = 3
# Corpus size: random formulas solved per second, and seconds taken by one
# solve of all the fixed families, on the 2-vCPU host the benchmark was
# tuned on while that host ran slowly; with them a run's solves take about
# --seconds there, and less when it runs fast.
RANDOM_PER_S = {"psl": 770, "ltl_psl": 175, "pure_ltl": 135, "full_sltl": 260}
FIXED_S = {"psl": 3.5, "ltl_psl": 0.0, "pure_ltl": 0.65, "full_sltl": 0.0}
SETUP_SPAWNS = 3  # ``import sltl`` timings at each call of ``between``
BETWEEN_PROBES = 20  # host-speed probes at each call of ``between``
REPLAY_SHARE = 0.1  # replay budget as a share of --seconds
REPLAY_SKIP_S = 1.0

FRAGMENTS = {"psl": "PSL", "ltl_psl": "LtlPsl", "pure_ltl": "PureLTL", "full_sltl": "FullSLTL"}


class Deadline(BaseException):
    """Raised by the alarm handler; not an Exception, so no handler in the
    solver can swallow it."""


class Alarm:
    """Per-call deadlines from a SIGALRM interval timer (main thread only).

    The handler raises only while a call is armed, so a timer that fires
    just as the call returns cannot raise outside it.
    """

    def __init__(self, on_fire=None):
        self.armed = False
        self.on_fire = on_fire  # runs in the handler, before unwinding
        signal.signal(signal.SIGALRM, self._handler)

    def _handler(self, signum, frame):
        if self.armed:
            self.armed = False
            if self.on_fire is not None:
                self.on_fire()
            raise Deadline()

    def call(self, seconds: float, fn, *args):
        self.armed = True
        signal.setitimer(signal.ITIMER_REAL, seconds)
        try:
            return fn(*args)
        finally:
            self.armed = False
            signal.setitimer(signal.ITIMER_REAL, 0)


def load_solver():
    """Import ``sltl`` from this checkout's sources, never from elsewhere."""
    init = os.path.join(SRC, "sltl", "__init__.py")
    if not os.path.isfile(init):
        sys.exit(f"perfbench: no solver sources at {init}; run from a source checkout")
    sys.path.insert(0, SRC)
    import sltl

    if os.path.realpath(sltl.__file__) != os.path.realpath(init):
        sys.exit(f"perfbench: imported sltl from {sltl.__file__}, not from {SRC}")
    return sltl


def text_key(text: str) -> str:
    return hashlib.sha1(text.encode()).hexdigest()[:16]


def measure_setup(spawns: int) -> list[float]:
    """Times of ``import sltl`` in ``spawns`` fresh interpreters, each
    scaled by the median of five probes the child runs just before it."""
    code = "import time\n" + hostspeed.PROBE_SRC + (
        "p = sorted(probe() for _ in range(5))[2]\n"
        "t = time.perf_counter()\nimport sltl\nprint(time.perf_counter() - t, p)\n"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    times = []
    for _ in range(spawns):
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, cwd=ROOT,
            capture_output=True, text=True, timeout=60, check=True,
        )
        import_s, probe_s = map(float, out.stdout.split())
        times.append(import_s * hostspeed.REF_S / probe_s)
    return times


def corpus(sltl, workload: str, seed: int, seconds: float) -> list[str]:
    """The workload's formula texts: its fixed families, then seeded random
    specs of its fragment (rejection-sampled on ``classify``), enough to
    fill ``seconds`` of solving."""
    stream = _stream(sltl, workload, seed)
    random_s = seconds - FIXED_REPEATS * FIXED_S[workload]
    count = len(gen.FIXED[workload]) + max(2, round(RANDOM_PER_S[workload] * random_s))
    return [next(stream) for _ in range(count)]


def _stream(sltl, workload: str, seed: int):
    # the syntax module's own names: tracing wraps ``sltl.parse``
    parse, classify = sltl.syntax.parse, sltl.syntax.classify
    fragment = sltl.Fragment(FRAGMENTS[workload])
    for text in gen.FIXED[workload]:
        if classify(parse(text)) is not fragment:
            raise RuntimeError(f"fixed {workload} formula outside its fragment: {text}")
        yield text
    rng = random.Random(seed)
    while True:
        text = gen.random_spec(rng, workload)
        if classify(parse(text)) is fragment:
            yield text


class Loop:
    """The closed loop: one client, next formula after the previous verdict."""

    def __init__(self, sltl, workload: str, host, tracer=None, check: bool = True):
        self.sltl = sltl
        self.host = host
        self.bounds = SOLVE_BOUNDS.get(workload)
        self.tracer = tracer
        self.check = check
        self.records: list[dict] = []
        self.loop_s = 0.0
        self.cache_problems: list[str] = []
        self.repeat_problems: list[str] = []
        self._alarm_info: dict = {}
        self.alarm = Alarm(self._on_deadline)

    def _on_deadline(self):
        self._alarm_info["cache_len"] = len(getattr(self.sltl.psl, "_consistency_cache", ()))
        if self.tracer is not None:
            self._alarm_info["span"] = self.tracer.innermost()

    def _parse_solve(self, text: str):
        sltl = self.sltl
        f = sltl.parse(text)
        opts = None
        if self.bounds is not None:
            opts = sltl.SolveOptions(bounds=sltl.SearchBounds.for_formula(f, *self.bounds))
        return sltl.solve(f, opts)

    def solve_one(self, text: str) -> dict:
        """First solve of a new formula; its record is appended."""
        rec = {"key": text_key(text), "text": text, "latencies": [], "starts": []}
        self.records.append(rec)
        self.solve(len(self.records) - 1)
        return rec

    def solve(self, fid: int) -> None:
        """Time ``parse`` -> ``solve`` on formula ``fid``; then, untimed and
        with tracing paused, digest the verdict and, on its first solve,
        re-check a sat witness.  A later solve of an answered formula must
        give the first solve's digest; one that times out is left out."""
        sltl, tracer, rec = self.sltl, self.tracer, self.records[fid]
        text, first = rec["text"], not rec["latencies"]
        if tracer is not None:
            tracer.start_formula(fid)
        self._alarm_info.clear()
        verdict, error = None, None
        t0 = time.perf_counter()
        try:
            verdict = self.alarm.call(DEADLINE_S, self._parse_solve, text)
            status = verdict.status
        except Deadline:
            status = "timeout"
        except Exception as exc:  # a solver failure is counted, not fatal
            status = "error"
            error = f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - t0
        self.loop_s += latency
        if tracer is not None:
            tracer.end_formula()
            tracer.paused = True
        digest = None
        if status == "timeout":
            if tracer is not None:
                layer = self._alarm_info.get("span", "solver.solve").split(".")[0]
                tracer.deadline_hits[layer] += 1
            cache = getattr(sltl.psl, "_consistency_cache", ())
            if len(cache) != self._alarm_info.get("cache_len", len(cache)):
                self.cache_problems.append(f"interrupted query left a cache entry: {text}")
        elif status != "error":
            doc = sltl.verdict_to_json(verdict)
            digest = hashlib.sha1(json.dumps(doc, sort_keys=True).encode()).hexdigest()
            witness = doc["witness"]
            if first and witness is not None and self.check:
                model, designated = sltl.model_from_json(witness)
                rec["witness_ok"] = sltl.check_witness(sltl.parse(text), model, designated)
                rec["cells"] = len(witness["traces"]) * (witness["prefix_len"] + witness["period_len"])
        if tracer is not None:
            tracer.paused = False
        self.host.after_solve(latency)
        if first:
            rec["status"] = status
            if error is not None:
                rec["error"] = error
            if digest is not None:
                rec["digest"] = digest
        elif status == "timeout":
            return  # the host ran slowly; the earlier solves stand
        elif digest != rec["digest"]:
            self.repeat_problems.append(f"{status} on a repeated solve, digest differs: {text}")
        rec["latencies"].append(latency)
        rec["starts"].append(t0)
        rec["latency_s"] = statistics.median(rec["latencies"])

    def scale_latencies(self) -> None:
        """Scale each timed solve by the host speed around it (see
        ``hostspeed``); a formula's latency is the median scaled one."""
        for rec in self.records:
            rec["latency_s"] = statistics.median(
                lat * self.host.scale(t, t + lat) for t, lat in zip(rec["starts"], rec["latencies"])
            )

    def run(self, texts: list[str], fixed: int, between=None) -> None:
        """Solve the texts in order; the first ``fixed`` of them (the fixed
        families) are solved FIXED_REPEATS times, before, amid and after the
        others, each time after clearing the consistency cache.  ``between``
        is called before each round of the fixed families and at the end."""
        rest = texts[fixed:]
        cuts = [len(rest) * i // (FIXED_REPEATS - 1) for i in range(FIXED_REPEATS)]
        for i in range(FIXED_REPEATS):
            if between is not None:
                between()
            getattr(self.sltl.psl, "clear_consistency_cache", lambda: None)()
            for fid in range(fixed):
                if i == 0:
                    self.solve_one(texts[fid])
                elif "digest" in self.records[fid]:
                    self.solve(fid)
            for text in rest[cuts[i]:cuts[i + 1]] if i + 1 < FIXED_REPEATS else ():
                self.solve_one(text)
        if between is not None:
            between()


# ---------------------------------------------------------------------------
# Correctness gate

def load_expected() -> dict[str, str]:
    expected = {}
    with open(os.path.join(HERE, "expected.txt")) as fh:
        for line in fh:
            if line.strip() and not line.startswith("#"):
                key, status = line.split()
                expected[key] = status
    return expected


def cross_check_unsat(sltl, workload: str, f) -> str | None:
    """A new unsat verdict must have no model at small bounds.  Returns a
    problem, or None; a cross-check that runs out of time is skipped."""
    bounds = sltl.SearchBounds.for_formula(f, *CROSS_CHECK_BOUNDS[workload])
    try:
        found = Alarm().call(CROSS_CHECK_DEADLINE_S, sltl.bounded_search, f, bounds)
    except Deadline:
        return None
    return "unsat, but the bounded search found a model" if found is not None else None


def gate(sltl, workload: str, records: list[dict], seed: int, budget_s: float) -> tuple[list[str], dict]:
    """Check every answered verdict; returns the problems and tallies.

    Unsat verdicts with no recorded verdict are cross-checked in a seeded
    random order until ``budget_s`` is spent; the rest are counted as
    skipped.
    """
    expected = load_expected()
    decidable = workload != "full_sltl"
    problems = []
    unrecorded_unsat = []
    tally = {"witness_checks": 0, "recorded": 0, "cross_checked": 0, "cross_skipped": 0}
    for rec in records:
        status, text = rec["status"], rec["text"]
        if status in ("timeout", "error"):
            continue
        want = expected.get(rec["key"])
        problem = None
        if want is not None and status in ("sat", "unsat"):
            tally["recorded"] += 1
            if status != want:
                problem = f"{status}, recorded as {want}"
        if status == "sat":
            tally["witness_checks"] += 1
            if not rec.get("witness_ok"):
                problem = "sat witness fails the evaluator"
        elif status == "unsat":
            if not decidable:
                problem = "unsat claimed outside the decidable fragments"
            elif want is None:
                unrecorded_unsat.append(text)
        elif status != "unknown" or decidable:
            problem = f"unexpected status {status}"
        if problem:
            problems.append(f"{problem}: {text}")
    random.Random(seed).shuffle(unrecorded_unsat)
    t0 = time.perf_counter()
    for text in unrecorded_unsat:
        if time.perf_counter() - t0 >= budget_s:
            tally["cross_skipped"] += 1
            continue
        tally["cross_checked"] += 1
        problem = cross_check_unsat(sltl, workload, sltl.parse(text))
        if problem:
            problems.append(f"{problem}: {text}")
    return problems, tally


def replay(workload: str, texts: list[str], trace: int, seconds: float, hash_seed: int) -> list[dict]:
    """Solve the texts again, in order, in a child interpreter."""
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--replay", "--trace", str(trace),
         "--seconds", repr(seconds), "--workload", workload, "--seed", "0"],
        input=json.dumps(texts), env=env, cwd=ROOT, capture_output=True, text=True,
        timeout=seconds + 2 * DEADLINE_S + 60,
    )
    if out.returncode != 0:
        raise RuntimeError(f"replay child failed:\n{out.stderr}")
    return json.loads(out.stdout.splitlines()[-1])


def compare_digests(records: list[dict], replayed: list[dict]) -> tuple[list[str], int]:
    problems, compared = [], 0
    for rec, other in zip(records, replayed):
        if "digest" in rec and "digest" in other:
            compared += 1
            if rec["digest"] != other["digest"]:
                problems.append(f"verdict differs between runs: {rec['text']}")
    return problems, compared


# ---------------------------------------------------------------------------
# Metrics

def end_to_end(records: list[dict], solve_s: float, setup_s: float) -> dict[str, float]:
    n = len(records)
    answered = [r for r in records if r["status"] not in ("timeout", "error")]
    lat_ms = [
        DEADLINE_S * 1000 if r["status"] in ("timeout", "error") else r["latency_s"] * 1000
        for r in records
    ]
    cells = [r["cells"] for r in records if "cells" in r]
    return {
        "verdicts_per_s": len(answered) / solve_s,
        "latency_p50_ms": statistics.median(lat_ms),
        "latency_p95_ms": statistics.quantiles(lat_ms, n=20)[-1],
        "answered_ratio": len(answered) / n,
        "decided_ratio": sum(r["status"] in ("sat", "unsat") for r in records) / n,
        "witness_cells_mean": statistics.fmean(cells) if cells else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": setup_s,
    }


def write_records(workload: str, seed: int, trace: int, records: list[dict]) -> None:
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"verdicts-{workload}-{seed}-trace{trace}.jsonl")
    with open(path, "w") as fh:
        for r in records:
            row = {k: r.get(k) for k in ("key", "status", "digest", "latency_s", "latencies", "starts")}
            fh.write(json.dumps(row) + "\n")


def contract_metrics() -> dict[str, list[tuple[str, str]]]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {
        key: [(m["name"], m["unit"]) for m in spec[key]] for key in ("end_to_end", "per_layer")
    }


def make_tracer(trace: int):
    if not trace:
        return None
    tracer = spans.Tracer()
    tracer.install()
    return tracer


def main_replay(args) -> int:
    sltl = load_solver()
    loop = Loop(sltl, args.workload, hostspeed.HostSpeed(), make_tracer(args.trace), check=False)
    texts = json.loads(sys.stdin.read())
    t0 = time.perf_counter()
    for text in texts:
        if time.perf_counter() - t0 >= args.seconds:
            break
        loop.solve_one(text)
    loop.scale_latencies()
    print(json.dumps([
        {k: r[k] for k in ("digest", "latency_s") if k in r} for r in loop.records
    ]))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--replay", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.workload not in FRAGMENTS:
        ap.error(f"unknown workload {args.workload!r}; choose from {sorted(FRAGMENTS)}")
    if args.replay:
        return main_replay(args)
    sltl = load_solver()
    wanted = contract_metrics()
    phases = {}
    setup_times: list[float] = []
    if not args.trace:
        measure_setup(1)  # warm-up: bytecode compilation is not counted

    host = hostspeed.HostSpeed()

    def between():
        t = time.perf_counter()
        setup_times.extend(measure_setup(SETUP_SPAWNS))
        phases["setup"] = phases.get("setup", 0.0) + time.perf_counter() - t
        host.sample(BETWEEN_PROBES)

    tracer = make_tracer(args.trace)
    loop = Loop(sltl, args.workload, host, tracer)
    t = time.perf_counter()
    try:
        loop.run(
            corpus(sltl, args.workload, args.seed, args.seconds),
            len(gen.FIXED[args.workload]), None if args.trace else between,
        )
    finally:
        if tracer is not None:
            tracer.uninstall()
    records = loop.records
    raw_s = sum(r["latency_s"] for r in records)
    loop.scale_latencies()
    solve_s = sum(r["latency_s"] for r in records)  # median scaled latency of each
    note = f"; solve time {raw_s:.2f} s raw, {solve_s:.2f} s scaled"
    if args.trace:
        cache_entries = len(getattr(sltl.psl, "_consistency_cache", ()))
        metrics = spans.layer_metrics(tracer, cache_entries)
    else:
        metrics = end_to_end(records, solve_s, statistics.median(setup_times))

    phases["loop"] = time.perf_counter() - t - phases.get("setup", 0.0)
    t = time.perf_counter()
    problems, tally = gate(sltl, args.workload, records, args.seed, args.seconds * CROSS_CHECK_SHARE)
    phases["gate"] = time.perf_counter() - t
    t = time.perf_counter()
    problems += loop.cache_problems + loop.repeat_problems
    # Formulas slower than REPLAY_SKIP_S (the fixed families) are left out of
    # the replay; their verdicts are in expected.txt.
    sample = [r for r in records if r["latency_s"] <= REPLAY_SKIP_S]
    replayed = replay(
        args.workload, [r["text"] for r in sample], 1 - args.trace,
        args.seconds * REPLAY_SHARE, args.seed % 9973 + 1,
    )
    digest_problems, compared = compare_digests(sample, replayed)
    phases["replay"] = time.perf_counter() - t
    problems += digest_problems
    if args.trace:
        common = [
            (r["latency_s"], o["latency_s"]) for r, o in zip(sample, replayed)
            if "digest" in r and "digest" in o
        ]
        metrics["trace.overhead_ratio"] = (
            sum(a for a, _ in common) / sum(b for _, b in common) - 1 if common else 0.0
        )
        os.makedirs(OUT, exist_ok=True)
        tracer.write(os.path.join(OUT, f"spans-{args.workload}-{args.seed}.jsonl"))
    write_records(args.workload, args.seed, args.trace, records)
    with open(os.path.join(OUT, f"probes-{args.workload}-{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump({"at": host.at, "took": host.took}, fh)

    failed = sum(r["status"] in ("timeout", "error") for r in records)
    counts = {s: sum(r["status"] == s for r in records) for s in ("sat", "unsat", "unknown", "timeout", "error")}
    print(
        f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
        f"{len(records)} formulas in {loop.loop_s:.2f} s {counts}; "
        f"checked {tally}; digests compared {compared}; "
        + " ".join(f"{k} {v:.1f} s" for k, v in phases.items()) + note,
        file=sys.stderr,
    )
    for r in records:
        if r["status"] == "error":
            print(f"  error: {r['error']}: {r['text']}", file=sys.stderr)
    if args.trace:
        print(spans.self_time_table(tracer), file=sys.stderr)
    for p in problems:
        print(f"  WRONG: {p}", file=sys.stderr)

    names = wanted["per_layer" if args.trace else "end_to_end"]
    missing = [name for name, _ in names if name not in metrics]
    if missing:
        raise RuntimeError(f"metrics missing from the run: {missing}")
    result = {
        "correct": not problems,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in names},
    }
    line = json.dumps(result)
    with open(os.path.join(OUT, f"result-{args.workload}-{args.seed}-trace{args.trace}.json"), "w") as fh:
        fh.write(line + "\n")
    print(line)
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
