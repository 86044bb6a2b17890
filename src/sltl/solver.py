"""Top-level decision pipeline.

Classifies the input, tries its one-cell model by truth table
(``search.one_cell_model``), and only when there is none simplifies it and
routes it to the right engine (one automaton run for every fragment
without standpoint-scoped temporal operators, propositional inputs
included; bounded search otherwise), runs that engine on the simplified
input and packages a checkable witness with every satisfiable verdict.  The
automaton guesses no sharpening atoms: it carries them as rigid state
bits, and the witness's standpoint extents nest as the true ones say.  A
verdict carries one model, the witness: an automaton PSL witness is its
grid model itself, one trace of one position per cell, and ``lambda``
gives each trace its column's label set.
"""

from __future__ import annotations

from collections.abc import Iterable

from .automaton import (
    DEFAULT_STATE_LIMIT,
    Lasso,
    find_accepting_lasso,
)
from .search import DEFAULT_NODE_LIMIT, SearchBounds, bounded_search, one_cell_model
from .semantics import SLTLModel, UPTrace, evaluate, model_to_json
from .syntax import (
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
        "status", "fragment", "engine", "model", "designated", "bounds",
    )

    def __init__(
        self,
        status: str,  # sat | unsat | unknown | out_of_fragment
        fragment: Fragment,
        engine: str | None = None,  # automaton | oracle
        model: SLTLModel | None = None, designated: str | None = None,
        bounds: SearchBounds | None = None,
    ):
        self.status = status
        self.fragment = fragment
        self.engine = engine
        self.model = model
        self.designated = designated
        self.bounds = bounds

    @property
    def is_sat(self) -> bool:
        return self.status == "sat"


def check_witness(f: Formula, model: SLTLModel, trace_id: str) -> bool:
    """Does the model satisfy the formula at the designated trace, time 0?"""
    return evaluate(model, trace_id, 0, f)


def assign_folded(model: SLTLModel, standpoints: Iterable[Standpoint]) -> SLTLModel:
    """``model`` with every trace as the extent of each standpoint of
    ``standpoints`` that it leaves unassigned.

    Both engines run on ``simplify(f)``, so a standpoint of ``f`` that
    simplification folded away is one that no engine assigns.  No clause of
    the simplified formula reads it, so any non-empty extent keeps the
    model a model of ``f``; this is the one both witnesses take.
    """
    missing = [sp for sp in standpoints if sp not in model.lam]
    if not missing:
        return model
    lam = {**model.lam, **dict.fromkeys(missing, frozenset(model.traces))}
    return SLTLModel(model.traces, lam, model.prefix_len, model.period_len)


# ---------------------------------------------------------------------------
# Witness construction from an accepting run

def witness_from_lasso(lasso: Lasso, standpoints: Iterable[Standpoint]) -> tuple[SLTLModel, str]:
    """Build a model from an accepting run and the input's standpoints.

    Every run position reads the grid model its state was read off, which
    the lasso carries as ``(family, columns)``.  The run shares one label
    family, as every run does: sharpening atoms keep their truth value
    along a run, and the family is that of the true ones.  The witness is
    as wide as the widest column of the run; every column is padded to
    that width once, repeating its first valuation, which changes no
    column's set of valuations and so no modal truth.  Cell ``j`` of
    column ``i`` is trace ``t{i * width + j}``, which reads that cell's
    valuation across positions, and each standpoint's extent is the traces
    of the columns it labels, so a sharpening atom holds in the model iff
    it held along the run.  Every standpoint of the automaton's
    input labels a column; the others of ``standpoints``, those that
    simplification folded away, go to ``assign_folded``.  The designated
    trace is the first cell of the universal column.  ``solve`` checks the
    model once, on its own input formula.
    """
    family = lasso.models[0][0]
    width = max(len(col) for _, columns in lasso.models for col in columns)
    padded = [[col + col[:1] * (width - len(col)) for col in columns] for _, columns in lasso.models]
    ids = [[f"t{i * width + j}" for j in range(width)] for i in range(len(family))]
    prefix_len = len(lasso.stem)
    traces: dict[str, UPTrace] = {}
    for i, cells in enumerate(ids):
        for j, tid in enumerate(cells):
            row = tuple(position[i][j] for position in padded)
            traces[tid] = UPTrace(row[:prefix_len], row[prefix_len:])
    lam = {
        sp: frozenset(t for labels, cells in zip(family, ids) if sp in labels for t in cells)
        for sp in frozenset().union(*family)
    }
    model = SLTLModel(traces, lam, prefix_len, len(lasso.cycle))
    return assign_folded(model, standpoints), "t0"


# ---------------------------------------------------------------------------
# The pipeline

def solve(f: Formula, opts: SolveOptions | None = None) -> Verdict:
    """Decide satisfiability where the fragment permits.

    Every input first tries its one-cell model (``one_cell_model`` on
    ``f`` itself, whose ``vocab`` ``classify`` has just memoised): one
    trace, one position, read by truth table.  A hit is a sat verdict of
    engine ``oracle``, the name of the bounded search, whose first stratum
    it is: a FullSLTL hit keeps the bounds that search would have had, the
    other fragments get the bounds (1, 0, 1).  It is the model that the
    check on ``simplify(f)`` would find: folding keeps truth in every
    model, so both have one truth table; the least valuation that
    satisfies it keeps the propositions that folding drops false; and the
    standpoints that folding drops get ``{t0}``, as ``assign_folded``
    would give them.  ``classify``, the check and the witness check of its
    model share one walk of ``f``, memoised on it (``syntax.program``).  Only a
    miss simplifies the input and routes it (``_route``); a miss that
    folds to ``false`` costs no engine and no node there.  A standpoint
    that simplification folded away gets every trace as its extent
    (``assign_folded``).  Every sat verdict's witness, from any engine, is
    checked once on ``f``, here.
    """
    opts = opts or SolveOptions()
    frag = classify(f)
    if frag is Fragment.FULL_SLTL and opts.fragment_strict:
        return Verdict("out_of_fragment", frag)
    found = one_cell_model(f)
    if found is None:
        # Constant folding can shrink the input dramatically (dead Until
        # branches in particular); the folded formula is equivalent.
        verdict = _route(f, simplify(f), frag, opts)
    elif frag is Fragment.FULL_SLTL:
        verdict = _oracle_sat(f, frag, found, opts.bounds or SearchBounds.for_formula(f, 3, 2, 3))
    else:
        verdict = _oracle_sat(f, frag, found, SearchBounds.for_formula(f, 1, 0, 1))
    if verdict.is_sat and not check_witness(f, verdict.model, verdict.designated):
        raise AssertionError(f"{verdict.engine} witness fails the evaluator on the input")
    return verdict


def _oracle_sat(
    f: Formula, frag: Fragment, found: tuple[SLTLModel, str], bounds: SearchBounds
) -> Verdict:
    """The sat verdict of a bounded-search model: the one-cell model of
    ``f``, or the search's model of ``simplify(f)``."""
    model, designated = found
    model = assign_folded(model, vocab(f).standpoints)
    return Verdict("sat", frag, engine="oracle", model=model, designated=designated, bounds=bounds)


def _route(f: Formula, phi: Formula, frag: Fragment, opts: SolveOptions) -> Verdict:
    """The verdict of the engine for ``frag`` on ``phi``, the simplified
    ``f``, with its witness unchecked.

    Inputs without standpoint-scoped temporal operators (PSL, PureLTL and
    LtlPsl) are decided by one automaton run, complete in both directions;
    a propositional input's run is one state, so its witness is that
    state's grid model, one trace per cell.  Everything else goes to the bounded search,
    within bounds built from ``f``, which can say sat or unknown but never
    unsat.  A ``phi`` that is ``false`` is answered by each engine at its
    entry, with no state space, no compiled engine and no node spent:
    unsat by the automaton, unknown within the same bounds by the search.
    ``solve`` calls it only after the one-cell check on ``f`` missed, so
    the search starts at the stratum (1, 0, 1) that the check has just
    refuted (or skipped at its cap), and walks it again: skipping it would
    change the search's node counts, and it is the cheapest stratum.
    """
    if frag is Fragment.FULL_SLTL:
        # Full language: bounded search only, never an unsat claim.
        bounds = opts.bounds or SearchBounds.for_formula(f, 3, 2, 3)
        found = bounded_search(phi, bounds, node_limit=opts.node_limit)
        if found is None:
            return Verdict("unknown", frag, engine="oracle", bounds=bounds)
        return _oracle_sat(f, frag, found, bounds)
    budget = [opts.node_limit, opts.node_limit]
    lasso = find_accepting_lasso(closure(phi), opts.state_limit, budget)
    if lasso is None:
        return Verdict("unsat", frag, engine="automaton")
    model, designated = witness_from_lasso(lasso, vocab(f).standpoints)
    return Verdict("sat", frag, engine="automaton", model=model, designated=designated)


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
    return out
