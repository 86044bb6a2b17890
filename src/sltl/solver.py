"""Top-level decision pipeline.

Classifies the input, routes it to the right engine (one automaton run on
the simplified input for every fragment without standpoint-scoped
temporal operators, propositional inputs included; bounded search
otherwise) and packages a checkable witness with every satisfiable
verdict.  The automaton guesses no sharpening atoms: it carries them as
rigid state bits, and the witness's standpoint extents nest as the true
ones say.
"""

from __future__ import annotations

from collections.abc import Iterable

from . import psl
from .automaton import (
    DEFAULT_STATE_LIMIT,
    Lasso,
    find_accepting_lasso,
)
from .search import DEFAULT_NODE_LIMIT, SearchBounds, bounded_search
from .semantics import SLTLModel, UPTrace, evaluate, model_to_json
from .syntax import (
    UNIVERSAL,
    Formula,
    Fragment,
    Standpoint,
    _Record,
    classify,
    closure,
    simplify,
    vocab,
)


class SolveOptions(_Record):
    __slots__ = ("bounds", "fragment_strict", "node_limit", "state_limit")

    def __init__(
        self, bounds: SearchBounds | None = None, fragment_strict: bool = False,
        node_limit: int = DEFAULT_NODE_LIMIT, state_limit: int = DEFAULT_STATE_LIMIT,
    ):
        self.bounds = bounds
        self.fragment_strict = fragment_strict
        self.node_limit = node_limit
        self.state_limit = state_limit


class Verdict(_Record):
    """Outcome of ``solve``; satisfiable verdicts carry a checked witness."""

    __slots__ = (
        "status", "fragment", "engine", "model", "designated", "bounds", "psl_model",
    )

    def __init__(
        self,
        status: str,  # sat | unsat | unknown | out_of_fragment
        fragment: Fragment,
        engine: str | None = None,  # automaton | oracle
        model: SLTLModel | None = None, designated: str | None = None,
        bounds: SearchBounds | None = None,
        psl_model: psl.PSLModel | None = None,  # the grid model of a PSL input
    ):
        self.status = status
        self.fragment = fragment
        self.engine = engine
        self.model = model
        self.designated = designated
        self.bounds = bounds
        self.psl_model = psl_model

    @property
    def is_sat(self) -> bool:
        return self.status == "sat"


def check_witness(f: Formula, model: SLTLModel, trace_id: str) -> bool:
    """Does the model satisfy the formula at the designated trace, time 0?"""
    return evaluate(model, trace_id, 0, f)


# ---------------------------------------------------------------------------
# Witness construction from an accepting run

def witness_from_lasso(lasso: Lasso, standpoints: Iterable[Standpoint]) -> tuple[SLTLModel, str]:
    """Build a model from an accepting run and the input's standpoints.

    Every run position reads the grid model its state was read off, which
    the lasso carries.  The run shares one label family, as every run
    does: sharpening atoms keep their truth value along a run, and the
    family is that of the true ones.  The witness is as wide as the widest
    model of the run; a narrower model repeats the first cell of each
    column in the cells it lacks, which changes no column's set of
    valuations and so no modal truth.  The trace of a cell reads that
    cell's valuation across positions, and each standpoint's extent is the
    traces of the columns it labels, so a sharpening atom holds in the
    model iff it held along the run.  A standpoint that labels no column,
    one that simplification folded away, covers every trace.  The
    designated trace is the first cell of the universal column.  ``solve``
    checks the model once, on its own input formula.
    """
    models = lasso.models
    family, width = models[0].family, max(m.n for m in models)

    prefix_len, period_len = len(lasso.stem), len(lasso.cycle)
    cells = [(i, j) for i in range(len(family)) for j in range(1, width + 1)]
    traces: dict[str, UPTrace] = {}
    for idx, (i, j) in enumerate(cells):
        column = [m.valuation[(i, j if j <= m.n else 1)] for m in models]
        traces[f"t{idx}"] = UPTrace(tuple(column[:prefix_len]), tuple(column[prefix_len:]))
    ids = list(traces)  # column by column, ``width`` cells each
    columns = [ids[i * width:(i + 1) * width] for i in range(len(family))]
    lam: dict[Standpoint, frozenset[str]] = {}
    for sp in {UNIVERSAL, *standpoints}:
        labelled = [t for labels, cells in zip(family, columns) if sp in labels for t in cells]
        lam[sp] = frozenset(labelled or ids)
    model = SLTLModel(traces, lam, prefix_len, period_len)
    designated = "t0"
    return model, designated


# ---------------------------------------------------------------------------
# The pipeline

def solve(f: Formula, opts: SolveOptions | None = None) -> Verdict:
    """Decide satisfiability where the fragment permits.

    Inputs without standpoint-scoped temporal operators (PSL, PureLTL and
    LtlPsl) are decided by one automaton run on ``simplify(f)``, complete
    in both directions; a propositional input's run is one state, whose
    grid model is also returned as ``psl_model``.  Everything else goes to
    the bounded search, which can say sat or unknown but never unsat.
    Every sat verdict's witness, from either engine, is checked once on
    ``f``, here.
    """
    opts = opts or SolveOptions()
    frag = classify(f)
    if frag is Fragment.FULL_SLTL:
        # Full language: bounded search only, never an unsat claim.
        if opts.fragment_strict:
            return Verdict("out_of_fragment", frag)
        bounds = opts.bounds or SearchBounds.for_formula(f, 3, 2, 3)
        found = bounded_search(f, bounds, node_limit=opts.node_limit)
        if found is None:
            return Verdict("unknown", frag, engine="oracle", bounds=bounds)
        model, designated = found
        verdict = Verdict(
            "sat", frag, engine="oracle", model=model, designated=designated,
            bounds=bounds,
        )
    else:
        # Constant folding can shrink the closure dramatically (dead Until
        # branches in particular); the folded formula is equivalent.
        phi = simplify(f)
        budget = [opts.node_limit, opts.node_limit]
        lasso = find_accepting_lasso(closure(phi), opts.state_limit, budget)
        if lasso is None:
            return Verdict("unsat", frag, engine="automaton")
        model, designated = witness_from_lasso(lasso, vocab(f).standpoints)
        verdict = Verdict("sat", frag, engine="automaton", model=model, designated=designated)
        if frag is Fragment.PSL:
            # the run is one state, whose model the witness read
            (verdict.psl_model,) = lasso.models
    if not check_witness(f, model, designated):
        raise AssertionError(f"{verdict.engine} witness fails the evaluator on the input")
    return verdict


# ---------------------------------------------------------------------------
# Verdict serialization

def verdict_to_json(v: Verdict) -> dict:
    out: dict = {
        "status": v.status,
        "engine": v.engine,
        "fragment": v.fragment.value,
        "witness": model_to_json(v.model, v.designated) if v.model else None,
    }
    if v.bounds is not None:
        out["bounds"] = {
            "max_traces": v.bounds.max_traces,
            "max_prefix": v.bounds.max_prefix,
            "max_period": v.bounds.max_period,
            "props": list(v.bounds.props),
        }
    if v.psl_model is not None:
        out["psl_witness"] = psl.psl_model_to_json(v.psl_model, (0, 1))
    return out
