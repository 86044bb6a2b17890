"""Outside-in span tracing of the solver's layers.

The tracer replaces, for the duration of a traced run, the names each
caller looks up with wrappers that record a span per call: ``solver.py``
imports engine functions by name, so ``sltl.solver.find_accepting_lasso``
is wrapped rather than ``sltl.automaton.find_accepting_lasso``.  A name that
no longer exists is recorded as absent instead of failing the run.

A span is ``[id, name, formula id, parent id, start, end]``.  Spans live in
memory and are written out when the run ends.  A layer's self time is its
spans' durations minus the time covered by their direct children.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict

# (span name, module, attribute).  A span name is ``<layer>.<function>``.
WRAPS = [
    ("solver.solve", "sltl", "solve"),
    ("syntax.parse", "sltl", "parse"),
    ("syntax.classify", "sltl.solver", "classify"),
    ("syntax.simplify", "sltl.solver", "simplify"),
    ("syntax.closure", "sltl.solver", "closure"),
    ("translate.apply_partition", "sltl.solver", "apply_partition"),
    ("psl.sat", "sltl.psl", "sat"),
    ("psl.sat_normal_form", "sltl.psl", "sat_normal_form"),
    ("psl.standpoint_consistent", "sltl.psl", "standpoint_consistent"),
    ("psl.grid_model_for", "sltl.psl", "grid_model_for"),
    ("psl.evaluate", "sltl.psl", "evaluate"),
    ("automaton.find_accepting_lasso", "sltl.solver", "find_accepting_lasso"),
    ("solver.witness_from_lasso", "sltl.solver", "witness_from_lasso"),
    ("solver.check_witness", "sltl.solver", "check_witness"),
    ("semantics.bounded_search", "sltl.solver", "bounded_search"),
    ("semantics.evaluate", "sltl.solver", "evaluate"),
    ("semantics.evaluate", "sltl.semantics", "evaluate"),
]
LAYERS = ("syntax", "translate", "psl", "automaton", "solver", "semantics")

_ID, _NAME, _FID, _PARENT, _START, _END = range(6)


class Tracer:
    """Spans and counters of one traced run; ``install`` wraps the layers,
    ``uninstall`` restores them."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[list] = []
        self.formula = -1
        self.paused = False
        self.counts: dict[str, float] = defaultdict(float)
        self.lasso_lens: list[int] = []
        self.deadline_hits: dict[str, int] = defaultdict(int)
        self.absent: list[str] = []
        self._saved: list[tuple[object, str, object]] = []
        self._spaces: dict[int, object] = {}
        self._first = 0

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            rec = [len(spans), name, self.formula, stack[-1][_ID] if stack else -1, clock(), None]
            spans.append(rec)
            stack.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[_END] = clock()
                if stack and stack[-1] is rec:
                    stack.pop()
            self._observe(name, out)
            return out

        return wrapper

    def _observe(self, name: str, out) -> None:
        if name == "syntax.closure":
            self.counts["syntax.closure_size"] += len(out)
        elif name == "automaton.find_accepting_lasso" and out is not None:
            self.lasso_lens.append(len(out.stem) + len(out.cycle))

    def install(self) -> None:
        for name, mod_name, attr in WRAPS:
            mod = importlib.import_module(mod_name)
            fn = getattr(mod, attr, None)
            if fn is None:
                self.absent.append(f"{mod_name}.{attr}")
                continue
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(name, fn))
        automaton = importlib.import_module("sltl.automaton")
        space_cls = getattr(automaton, "StateSpace", None)
        enumerate_fn = getattr(space_cls, "enumerate", None)
        if enumerate_fn is None:
            self.absent.append("sltl.automaton.StateSpace.enumerate")
            return
        tracer = self

        def enumerate(space, *args, **kwargs):
            tracer._spaces[id(space)] = space
            for state in enumerate_fn(space, *args, **kwargs):
                tracer.counts["automaton.states_consistent"] += 1
                yield state

        self._saved.append((space_cls, "enumerate", enumerate_fn))
        space_cls.enumerate = enumerate

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    # -- per formula ----------------------------------------------------------

    def start_formula(self, fid: int) -> None:
        self.formula = fid
        self._first = len(self.spans)

    def innermost(self) -> str:
        """Name of the innermost open span; read inside the alarm handler,
        before unwinding pops the stack."""
        return self.stack[-1][_NAME] if self.stack else "solver.solve"

    def end_formula(self) -> None:
        end = time.perf_counter()
        for rec in self.spans[self._first:]:  # spans cut short by the deadline
            if rec[_END] is None:
                rec[_END] = end
        self.stack.clear()
        self.counts["automaton.states_emitted"] += sum(
            getattr(s, "generated", 0) for s in self._spaces.values()
        )
        self._spaces.clear()

    # -- results --------------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds, self seconds, and the
        calls and seconds of ``psl.sat`` made from a consistency query."""
        child = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[_PARENT] >= 0:
                child[rec[_PARENT]] += rec[_END] - rec[_START]
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for rec in self.spans:
            dur = rec[_END] - rec[_START]
            name = rec[_NAME]
            parent = self.spans[rec[_PARENT]][_NAME] if rec[_PARENT] >= 0 else None
            if name == "psl.sat" and parent == "psl.standpoint_consistent":
                name = "psl.sat@consistency"
            row = out[name]
            row["calls"] += 1
            row["s"] += dur
            row["self_s"] += dur - child[rec[_ID]]
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name in self.absent:
                fh.write(json.dumps({"absent": name}) + "\n")
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def layer_metrics(tracer: Tracer, cache_entries: int) -> dict[str, float]:
    """The per-layer metrics of a traced run, by their BENCHMARK.json names."""
    rows = tracer.summary()

    def row(name: str) -> dict[str, float]:
        return rows.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0})

    counts = tracer.counts
    queries = row("psl.standpoint_consistent")["calls"]
    emitted = counts["automaton.states_emitted"]
    out = {
        "syntax.parse_s": row("syntax.parse")["s"],
        "syntax.classify_s": row("syntax.classify")["s"],
        "syntax.simplify_s": row("syntax.simplify")["s"],
        "syntax.closure_s": row("syntax.closure")["s"],
        "syntax.closure_size": counts["syntax.closure_size"],
        "translate.partitions": row("translate.apply_partition")["calls"],
        "translate.apply_partition_s": row("translate.apply_partition")["s"],
        "psl.sat_calls": row("psl.sat")["calls"],
        "psl.sat_s": row("psl.sat")["s"],
        "psl.sat_normal_form_calls": row("psl.sat_normal_form")["calls"],
        "psl.sat_normal_form_s": row("psl.sat_normal_form")["s"],
        "psl.sat_normal_form_self_s": row("psl.sat_normal_form")["self_s"],
        "psl.consistency_queries": queries,
        "psl.consistency_s": row("psl.standpoint_consistent")["s"],
        "psl.consistency_hit_ratio": (
            1 - row("psl.sat@consistency")["calls"] / queries if queries else 0.0
        ),
        "psl.consistency_cache_entries": cache_entries,
        "psl.grid_model_for_calls": row("psl.grid_model_for")["calls"],
        "psl.grid_model_for_s": row("psl.grid_model_for")["s"],
        "psl.evaluate_calls": row("psl.evaluate")["calls"],
        "psl.evaluate_s": row("psl.evaluate")["s"],
        "automaton.find_accepting_lasso_s": row("automaton.find_accepting_lasso")["self_s"],
        "automaton.states_emitted": emitted,
        "automaton.states_consistent": counts["automaton.states_consistent"],
        "automaton.states_consistent_ratio": (
            counts["automaton.states_consistent"] / emitted if emitted else 0.0
        ),
        "automaton.lasso_len": (
            sum(tracer.lasso_lens) / len(tracer.lasso_lens) if tracer.lasso_lens else 0.0
        ),
        "solver.solve_self_s": row("solver.solve")["self_s"],
        "solver.witness_from_lasso_s": row("solver.witness_from_lasso")["self_s"],
        "solver.check_witness_calls": row("solver.check_witness")["calls"],
        "solver.check_witness_s": row("solver.check_witness")["s"],
        "semantics.bounded_search_calls": row("semantics.bounded_search")["calls"],
        "semantics.bounded_search_s": row("semantics.bounded_search")["s"],
        "semantics.bounded_search_self_s": row("semantics.bounded_search")["self_s"],
        "semantics.evaluate_calls": row("semantics.evaluate")["calls"],
        "semantics.evaluate_s": row("semantics.evaluate")["s"],
        "trace.absent_names": len(tracer.absent),
    }
    layer_self: dict[str, float] = defaultdict(float)
    for name, r in rows.items():
        layer_self[name.split(".")[0]] += r["self_s"]
    for layer in LAYERS:
        out[f"{layer}.self_s"] = layer_self[layer]
        out[f"{layer}.deadline_hits"] = tracer.deadline_hits[layer]
    return out


def self_time_table(tracer: Tracer) -> str:
    """Span names by self time, largest first, with their share."""
    rows = sorted(tracer.summary().items(), key=lambda kv: -kv[1]["self_s"])
    total = sum(r["self_s"] for _, r in rows) or 1.0
    return "\n".join(
        f"  {name:34s} {r['calls']:8d} calls {r['self_s']:9.3f} s self ({r['self_s'] / total:6.1%})"
        for name, r in rows
    )
