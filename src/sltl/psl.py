"""Propositional standpoint logic: grid models and complete satisfiability.

Satisfiability goes through the normalized small-model property: a
satisfiable conjunction of sharpening atoms and a body in negation normal
form has a model on the grid of sharpening-closed label sets times a small
index range.  On that grid a sharpening atom holds iff the closure of the
conjoined atoms relates its standpoints, so atoms inside the body are
constants of the grid.  The grid search here is therefore complete for the
fragment, and ``sat`` extends it to arbitrary propositional standpoint
formulas by guessing which atoms hold.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .syntax import (
    And,
    BoxS,
    DiamondS,
    Formula,
    Prop,
    Sharper,
    Standpoint,
    TOP,
    UNIVERSAL,
    _has_temporal,
    conj,
    nodes,
    to_nnf,
    vocab,
)
from .semantics import DEFAULT_NODE_LIMIT, SearchLimitError, _IntervalEngine
from .translate import iter_partitions


class TemporalOperatorError(ValueError):
    """A temporal operator reached a propositional-only code path."""


def _require_propositional(f: Formula) -> None:
    if _has_temporal(f):
        raise TemporalOperatorError(f"temporal operator in a propositional context: {f}")


# ---------------------------------------------------------------------------
# Sharpening closure and the label-set family

@dataclass(frozen=True)
class SharpeningClosure:
    """Reflexive-transitive closure of the sharpening atoms, with every
    standpoint linked to the universal one."""

    universe: frozenset[Standpoint]
    relation: frozenset[tuple[Standpoint, Standpoint]]

    def of(self, sp: Standpoint) -> frozenset[Standpoint]:
        return frozenset(b for (a, b) in self.relation if a == sp)

    def entails(self, pair: tuple[Standpoint, Standpoint]) -> bool:
        return pair in self.relation


def sharpening_closure(
    atoms: Iterable[tuple[Standpoint, Standpoint]], universe: Iterable[Standpoint]
) -> SharpeningClosure:
    univ = set(universe)
    univ.add(UNIVERSAL)
    rel = {(a, b) for a, b in atoms}
    for a, b in list(rel):
        univ.add(a)
        univ.add(b)
    for sp in univ:
        rel.add((sp, UNIVERSAL))
        rel.add((sp, sp))
    members = sorted(univ, key=lambda s: s.name)
    changed = True
    while changed:
        changed = False
        for a, b in list(rel):
            for c in members:
                if (b, c) in rel and (a, c) not in rel:
                    rel.add((a, c))
                    changed = True
    return SharpeningClosure(frozenset(univ), frozenset(rel))


@dataclass(frozen=True)
class SFamily:
    """The distinct label sets of the grid; the universal one comes first."""

    sets: tuple[frozenset[Standpoint], ...]

    @property
    def s_star(self) -> frozenset[Standpoint]:
        return self.sets[0]

    def __len__(self) -> int:
        return len(self.sets)


def family_for(closure_rel: SharpeningClosure) -> SFamily:
    star = closure_rel.of(UNIVERSAL)
    rest = {closure_rel.of(sp) for sp in closure_rel.universe}
    rest.discard(star)
    ordered = [star] + sorted(rest, key=lambda s: (len(s), sorted(x.name for x in s)))
    return SFamily(tuple(ordered))


# ---------------------------------------------------------------------------
# Grid models

@dataclass
class PSLModel:
    """Precisifications are the cells of ``family x {1..n}``; the standpoint
    labels of a cell are exactly its family set."""

    family: SFamily
    n: int
    valuation: dict[tuple[int, int], frozenset[str]]

    def __post_init__(self):
        expected = set(self.cells())
        if set(self.valuation) != expected:
            raise ValueError("valuation must cover exactly the grid cells")

    def cells(self) -> list[tuple[int, int]]:
        return [(i, j) for i in range(len(self.family)) for j in range(1, self.n + 1)]

    def labels(self, cell: tuple[int, int]) -> frozenset[Standpoint]:
        return self.family.sets[cell[0]]

    def extent(self, sp: Standpoint) -> list[tuple[int, int]]:
        if sp.is_universal:
            return self.cells()
        return [c for c in self.cells() if sp in self.labels(c)]


@dataclass
class SatResult:
    model: Optional[PSLModel]
    designated: Optional[tuple[int, int]]

    @property
    def is_sat(self) -> bool:
        return self.model is not None

    @staticmethod
    def unsat() -> "SatResult":
        return SatResult(None, None)


# ---------------------------------------------------------------------------
# Normal form for the grid solver

def _conjuncts(f: Formula) -> list[Formula]:
    """The leaves of the And tree at the top of ``f``, left to right."""
    parts: list[Formula] = []
    stack = [f]
    while stack:
        g = stack.pop()
        if isinstance(g, And):
            stack.append(g.right)
            stack.append(g.left)
        else:
            parts.append(g)
    return parts


def split_for_grid(f: Formula) -> tuple[list[Sharper], Formula]:
    """Split into the top-level sharpening atoms and an NNF body.

    The reflexive universal atom is always added so the universal standpoint
    is mentioned.  Atoms nested in the body stay there: on the grid of the
    top-level atoms they hold iff those atoms entail them.
    """
    _require_propositional(f)
    atoms: list[Sharper] = []
    rest: list[Formula] = []
    for part in _conjuncts(f):
        if isinstance(part, Sharper):
            atoms.append(part)
        else:
            rest.append(part)
    body = to_nnf(conj(rest))
    star = Sharper(UNIVERSAL, UNIVERSAL)
    if star not in atoms:
        atoms.append(star)
    return atoms, body


def _count_diamonds(f: Formula) -> int:
    return sum(isinstance(g, DiamondS) for g in nodes(f))


# ---------------------------------------------------------------------------
# Grid search

class CompiledGrid:
    """A label family's grid tables and one interval engine compiled over
    ``formulas``, for every search of a conjunction of them at any width.

    The types are the (column, valuation) pairs over the sorted
    propositions, column by column.  The engine runs on a one-position
    lasso whose traces are the types: propositions are constant masks, and
    ``bind`` folds a sharpening atom to whether the left extent lies inside
    the right one, which on the family of a sharpening closure holds iff
    the closure relates them (``of(a)`` is a column).  A grid with more
    types than ``budget`` has nodes left (see ``grid_model_for``) is
    refused with SearchLimitError before any table is built.
    """

    def __init__(
        self, family: SFamily, props: Iterable[str], formulas: Sequence[Formula], budget: list[int]
    ):
        self.family = family
        self.props = tuple(sorted(props))
        self.v_count = v_count = 1 << len(self.props)
        n_types = len(family) * v_count
        if n_types > budget[0]:
            # the tables below grow with the type count
            raise SearchLimitError(budget[1], "grid search")
        self.full = (1 << n_types) - 1
        self.col_masks = [((1 << v_count) - 1) << (c * v_count) for c in range(len(family))]
        extents = {UNIVERSAL: tuple(range(n_types))}
        for sp in frozenset().union(*family.sets):
            extents[sp] = tuple(t for t in range(n_types) if sp in family.sets[t // v_count])
        self.ext_masks = {sp: sum(1 << t for t in ts) for sp, ts in extents.items()}
        self.true_masks = [
            sum(1 << t for t in range(n_types) if t % v_count >> i & 1)
            for i in range(len(self.props))
        ]
        self.false_masks = [self.full ^ m for m in self.true_masks]
        self.val_sets = [
            frozenset(p for i, p in enumerate(self.props) if v >> i & 1) for v in range(v_count)
        ]
        leaves = {Prop(p): i for i, p in enumerate(self.props)}
        try:
            # the engine's first formula is its root, which no search reads
            self.engine = _IntervalEngine([TOP, *formulas], n_types, 0, 1, extents, leaves)
        except KeyError as exc:
            raise ValueError(f"standpoint {exc.args[0]} is outside the grid universe") from None


def grid_model_for(
    grid: CompiledGrid, conjuncts: Sequence[Formula], n: int, budget: list[int]
) -> Optional[PSLModel]:
    """A model of the conjunction at the designated cell (0, 1) of the
    ``family x {1..n}`` grid, or None; ``grid`` was compiled over the
    conjuncts.

    Backtracks over which valuations each column carries (its present
    types) rather than over individual cells: modal truth only reads the
    per-column valuation sets, so the search is complete as long as a
    column never needs more distinct valuations than it has cells, and a
    found presence assignment expands to the full grid by padding columns
    with copies.  Three-valued truth comes from the grid's engine: the
    presence bits decide which types the modalities quantify over, and the
    conjunction's lower and upper masks are the AND of its conjuncts'.  The
    designated cell's valuation is chosen first; presence bits are tried
    absent before present, so the result is deterministic.

    Each node propagates the modal conjuncts, which must hold wherever the
    conjunction does, until nothing changes:

    - for a box ``[@x] g``, every type of ``x``'s extent at which ``g`` is
      false in every completion (its upper mask is clear) becomes absent;
    - for a diamond ``<@x> g``, the candidates are the types of ``x``'s
      extent, not absent, where ``g`` may hold: none fails the node, and a
      single one becomes present.

    A type both absent and present fails the node, and so does the
    designated type turning absent; the search skips types that
    propagation has decided.  Witnesses are those of the search without
    propagation.  A valid presence assignment is one under which the
    conjunction holds at the designated type and every column carries
    between one and ``min(n, 2^props)`` types.  Propagation and the other
    prunings remove only subtrees without a valid assignment, and at a leaf
    the bounds are exact, so the search returns the least valid assignment
    in its order (the designated valuation, then the types of ``order``
    absent before present).  A node whose lower bound already holds returns
    its present types, which is the least completion beneath it (every open
    type absent) and valid, so again that least assignment; ``expand``
    reads only the present types.  The assignment depends on the family,
    the propositions, ``n`` and the conjunction's masks alone, so it is the
    one a grid compiled for the conjunction alone would give.

    ``budget`` is ``[remaining, limit]``, shared by every grid search of
    one ``solve``; each node takes one, and SearchLimitError is raised once
    more than ``limit`` nodes were visited.
    """
    sweep, slot = grid.engine.sweep, grid.engine.slot
    roots = [slot[g] for g in conjuncts]
    # the modal conjuncts as (extent mask, operand slot)
    boxes, diamonds = [], []
    for g in conjuncts:
        if isinstance(g, (BoxS, DiamondS)):
            rule = (grid.ext_masks[g.standpoint], slot[g.operand])
            (boxes if isinstance(g, BoxS) else diamonds).append(rule)
    v_count, col_masks, full = grid.v_count, grid.col_masks, grid.full
    true_masks, false_masks = grid.true_masks, grid.false_masks
    cap = min(n, v_count)

    def expand(present: int, dv: int) -> PSLModel:
        valuation = {}
        for c in range(len(col_masks)):
            chosen = [v for v in range(v_count) if present >> (c * v_count + v) & 1]
            if c == 0:
                chosen = [dv] + [v for v in chosen if v != dv]
            rows = (chosen + [chosen[0]] * n)[:n]
            for j, v in enumerate(rows, start=1):
                valuation[(c, j)] = grid.val_sets[v]
        return PSLModel(grid.family, n, valuation)

    def propagate(present: int, absent: int, d_bit: int):
        """The node's presence and absence bits grown to the propagation
        fixpoint, with its lower masks, or None when the node fails."""
        while True:
            for col in col_masks:
                if col & ~absent == 0:
                    return None  # every type of the column ruled out
                if (col & present).bit_count() > cap:
                    return None  # more distinct valuations than cells
            lo, hi = sweep(true_masks, false_masks, present, full ^ absent)
            if any(not hi[r] & d_bit for r in roots):
                return None
            grown_absent = absent
            for ext, g in boxes:
                grown_absent |= ext & ~hi[g]
            grown_present = present
            for ext, g in diamonds:
                candidates = ext & hi[g] & ~grown_absent
                if not candidates:
                    return None
                if not candidates & (candidates - 1):
                    grown_present |= candidates
            if grown_present == present and grown_absent == absent:
                return present, absent, lo
            if grown_present & grown_absent or grown_absent & d_bit:
                return None
            present, absent = grown_present, grown_absent

    # with nothing present and every type possible the upper masks are
    # the highest any node reaches: a valuation clear in one of them fails
    # at its root, so it is skipped without spending a node
    _, top = sweep(true_masks, false_masks, 0, full)
    for dv in range(v_count):
        d_bit = 1 << dv  # designated type sits in column 0
        if any(not top[r] & d_bit for r in roots):
            continue
        order = [t for t in range(len(col_masks) * v_count) if t != dv]
        stack = [(0, d_bit, 0)]  # (index into order, present, absent)
        while stack:
            idx, present, absent = stack.pop()
            budget[0] -= 1
            if budget[0] < 0:
                raise SearchLimitError(budget[1], "grid search")
            node = propagate(present, absent, d_bit)
            if node is None:
                continue
            present, absent, lo = node
            if all(lo[r] & d_bit for r in roots) and all(col & present for col in col_masks):
                return expand(present, dv)
            decided = present | absent
            while idx < len(order) and decided >> order[idx] & 1:
                idx += 1
            if idx < len(order):
                t_bit = 1 << order[idx]
                # pushed last, the absent branch is searched first
                stack.append((idx + 1, present | t_bit, absent))
                stack.append((idx + 1, present, absent | t_bit))
    return None


# ---------------------------------------------------------------------------
# Satisfiability

def sat_normal_form(
    atoms: list[Sharper],
    body: Formula,
    n_override: Optional[int] = None,
    budget: Optional[list[int]] = None,
) -> SatResult:
    """Complete satisfiability for ``(and of atoms) and body``.

    The grid width defaults to the least value the small-model property
    permits: one more than the number of standpoint symbols plus the number
    of diamond occurrences in the body.  The grid is compiled over the
    body's conjuncts; ``budget`` is the grid search's node budget (see
    ``grid_model_for``).
    """
    if budget is None:
        budget = [DEFAULT_NODE_LIMIT, DEFAULT_NODE_LIMIT]
    star = Sharper(UNIVERSAL, UNIVERSAL)
    if star not in atoms:
        atoms = list(atoms) + [star]
    universe = vocab(conj(list(atoms) + [body])).standpoints
    closure_rel = sharpening_closure([(a.left, a.right) for a in atoms], universe)
    n = n_override if n_override is not None else len(universe) + _count_diamonds(body) + 1
    parts = _conjuncts(body)
    grid = CompiledGrid(family_for(closure_rel), vocab(body).props, parts, budget)
    model = grid_model_for(grid, parts, n, budget)
    return SatResult.unsat() if model is None else SatResult(model, (0, 1))


def sat(f: Formula, node_limit: int = DEFAULT_NODE_LIMIT) -> SatResult:
    """Complete satisfiability for any propositional standpoint formula.

    Sharpening atoms are decided by trying every partition into true and
    false atoms: the true ones become grid structure, and on their grid an
    atom of the formula holds iff their closure entails it.  A partition
    whose true atoms entail one of its false atoms is skipped; the others
    have pairwise distinct label families, as ``of(a)`` is the least label
    set containing ``a``, and a false atom is witnessed by that column.
    The grid searches of all partitions share one budget of ``node_limit``
    nodes; SearchLimitError is raised when it runs out.
    """
    _require_propositional(f)
    budget = [node_limit, node_limit]
    body = to_nnf(f)
    universe = vocab(f).standpoints
    for part in iter_partitions(vocab(f).sharpenings):
        if any(sharpening_closure(part.i_plus, universe).entails(p) for p in part.i_minus):
            continue
        atoms = [Sharper(a, b) for a, b in part.i_plus]
        result = sat_normal_form(atoms, body, budget=budget)
        if result.is_sat:
            return result
    return SatResult.unsat()


# ---------------------------------------------------------------------------
# Witness serialization

def psl_model_to_json(model: PSLModel, designated: tuple[int, int]) -> dict:
    return {
        "s_family": [sorted(str(sp) for sp in s) for s in model.family.sets],
        "n": model.n,
        "valuation": {f"{i},{j}": sorted(v) for (i, j), v in sorted(model.valuation.items())},
        "designated": f"{designated[0]},{designated[1]}",
    }
