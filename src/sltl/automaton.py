"""Generalized Büchi automaton over s-elementary sets, explored on the fly.

It decides every input of the fragments PSL, PureLTL and LtlPsl; a
propositional input is the special case without next-step members.
States are maximally consistent, standpoint-consistent subsets of the
closure set, which stops at modal formulas: a modal member is a leaf that
a state's grid decides whole.  A state is standpoint-consistent when its
propositional members have a grid model on the label family of its own
true sharpening atoms.  The grid is compiled once per label family and
searched once per state literal set, within one node budget; the state
space keeps each model, and the solver builds the witness of a run from
the models of its states.  A state is determined by its assignment to the
base members (propositions, sharpening atoms, next-step and modal
formulas); Boolean and Until members are forced by the consistency
equations, so enumeration backtracks over base assignments only.  It
prunes with the interval engine of ``semantics`` on a single cell whose
leaves are the base members: each Until member unfolds to
``b | (a & X(a U b))`` over its next-step companion, and once every base
member is assigned the engine's lower bounds are the state's mask.
Letters never appear: a transition only exists for the letter matching
the source state's propositions.

Emptiness is decided on the fly by Couvreur's SCC search for generalized
Büchi acceptance, with one acceptance set per Until member; the accepting
run is cut from the states it visited as a short lasso.  Without next-step
members every state is its own successor, so one state holding the input
is the lasso; it is read off a grid search of the input whole, one per
assignment of the sharpening atoms, instead of enumerated.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Container, Iterator, Optional, TextIO

from . import psl
from .semantics import DEFAULT_NODE_LIMIT, _IntervalEngine
from .syntax import (
    UNIVERSAL,
    And,
    BoxS,
    ClosureSet,
    DiamondS,
    Formula,
    Next,
    Not,
    Or,
    Prop,
    Sharper,
    Until,
    neg,
    nodes,
    vocab,
)

DEFAULT_STATE_LIMIT = 200_000


class AutomatonLimitError(RuntimeError):
    """State generation exceeded the configured limit."""

    def __init__(self, limit: int):
        super().__init__(f"automaton search exceeded the state limit of {limit}")
        self.limit = limit


@dataclass(frozen=True)
class SElementarySet:
    """One automaton state: a bitmask over the closure index."""

    mask: int
    space: "StateSpace" = field(compare=False, repr=False, hash=False)

    def __contains__(self, f: Formula) -> bool:
        pos = self.space.closure.index.get(f)
        return pos is not None and bool(self.mask >> pos & 1)

    def members(self) -> list[Formula]:
        return [g for i, g in enumerate(self.space.closure.formulas) if self.mask >> i & 1]

    def props(self) -> frozenset[str]:
        return frozenset(
            g.name
            for i, g in enumerate(self.space.closure.formulas)
            if self.mask >> i & 1 and isinstance(g, Prop)
        )


@dataclass(frozen=True)
class Lasso:
    """Accepting run presented as a stem plus a repeating cycle."""

    stem: tuple[SElementarySet, ...]
    cycle: tuple[SElementarySet, ...]

    def state_at(self, k: int) -> SElementarySet:
        if k < len(self.stem):
            return self.stem[k]
        return self.cycle[(k - len(self.stem)) % len(self.cycle)]


class StateSpace:
    """Shared machinery for enumerating s-elementary sets of one closure.

    A candidate state is kept when it is standpoint-consistent: its
    propositional literals have a grid model on the label family of its
    true sharpening atoms.  The literals are the true propositions,
    sharpening atoms and modal members and the negations of the false
    ones, a negated modal member as its dual over the negated operand, so
    that the grid search propagates it (its strong Kleene bounds are those
    of the negation); the state's other propositional members are Boolean
    combinations of the literals, so the literals entail them and give the
    grid search the same three-valued bounds.  Each label family's grid
    is compiled once, over every literal of the closure and, without
    next-step members, the seed's conjuncts (see ``first_state``); on it a
    sharpening atom holds iff the true atoms entail it, beneath a modality
    too.  The search decides which types are present, with no cap on how
    many a column holds, so a state has a grid model iff its literals have
    any model on the family.  Grid models are memoised per set of
    literals, so a state runs at most one search; ``grid_solves`` counts
    the searches run, which share ``budget`` (see ``psl.grid_model_for``),
    by default DEFAULT_NODE_LIMIT nodes.
    """

    def __init__(
        self, cl: ClosureSet, state_limit: int = DEFAULT_STATE_LIMIT,
        budget: Optional[list[int]] = None,
    ):
        self.closure = cl
        self.base: list[Formula] = [
            g for g in cl.formulas if isinstance(g, (Prop, Sharper, Next, DiamondS, BoxS))
        ]
        self.base_index = {g: i for i, g in enumerate(self.base)}
        self.state_limit = state_limit
        self.budget = budget or [DEFAULT_NODE_LIMIT, DEFAULT_NODE_LIMIT]
        self.generated = 0
        self.grid_solves = 0
        voc = vocab(cl.seed)
        self.universe = set(voc.standpoints) | {UNIVERSAL}
        self.props = voc.props
        literal = (Prop, Sharper, DiamondS, BoxS)
        self._literals = {
            i: _dual(g)
            for i, g in enumerate(cl.formulas)
            if isinstance(g, literal) or isinstance(g, Not) and isinstance(g.operand, literal)
        }
        self._literal_bits = sum(1 << i for i in self._literals)
        self._sharpenings = [
            (i, (g.left, g.right)) for i, g in enumerate(cl.formulas) if isinstance(g, Sharper)
        ]
        self._sharpening_bits = sum(1 << i for i, _ in self._sharpenings)
        self._models: dict[int, Optional[psl.PSLModel]] = {}  # by literal bits
        self._grids: dict[int, psl.CompiledGrid] = {}  # by true sharpening atoms
        # without next-step members a run is one state, read off a grid
        # search of the seed whole (see ``first_state``)
        self._seed_parts = [] if cl.next_members else _conjuncts(cl.seed)
        # the members a source fixes in each of its targets: the operands of
        # its next-step members, and its sharpening atoms, which are rigid
        self._step_bits = self._sharpening_bits | sum(1 << cl.index[g] for g in cl.next_members)
        self._successors: dict[int, list[SElementarySet]] = {}
        # one trace of one position: base member i is true/false when bit 0
        # of tm[i]/fm[i] is set
        self._engine = _IntervalEngine(cl.formulas, 1, 0, 1, {}, self.base_index)
        self._slots = [self._engine.slot[g] for g in cl.formulas]

    def enumerate(
        self, constraints: list[tuple[Formula, bool]]
    ) -> Iterator[SElementarySet]:
        """All s-elementary sets meeting the constraints, in the order of
        base assignments: closure index order, sharpening atoms and modal
        members true before false, propositions and next-step members false
        before true.  A modal member the constraints leave open is more
        often needed true than false: tried false first, its state more
        often failed the grid search."""
        sweep = self._engine.sweep
        checks = [(self._engine.slot[f], req) for f, req in constraints]
        tm = [0] * len(self.base)
        fm = [0] * len(self.base)
        # local, not shared: ``successors`` enumerates again while this
        # generator is suspended
        true_first = (Sharper, DiamondS, BoxS)
        order = [(tm, fm) if isinstance(g, true_first) else (fm, tm) for g in self.base]

        def dfs(i: int) -> Iterator[SElementarySet]:
            lo, hi = sweep(tm, fm, 1, 1)
            # a constraint fails once neither bound can reach its value
            if any(lo[s] != req and hi[s] != req for s, req in checks):
                return
            if i == len(self.base):
                self.generated += 1
                if self.generated > self.state_limit:
                    raise AutomatonLimitError(self.state_limit)
                mask = sum(lo[s] << k for k, s in enumerate(self._slots))
                if self.grid_model(mask) is not None:
                    yield SElementarySet(mask, self)
                return
            for cells in order[i]:
                cells[i] = 1
                yield from dfs(i + 1)
                cells[i] = 0

        yield from dfs(0)

    def grid_model(self, mask: int) -> Optional[psl.PSLModel]:
        """Grid model of the state's propositional literals, or None."""
        key = mask & self._literal_bits
        if key not in self._models:
            self.grid_solves += 1
            members = [g for i, g in self._literals.items() if key >> i & 1]
            self._models[key] = psl.grid_model_for(self.grid(mask), members, self.budget)
        return self._models[key]

    def grid(self, mask: int) -> psl.CompiledGrid:
        """The compiled grid of the label family of the state's true
        sharpening atoms; states with the same family share one."""
        key = mask & self._sharpening_bits
        if key not in self._grids:
            true = [pair for i, pair in self._sharpenings if key >> i & 1]
            family = psl.family_for(psl.sharpening_closure(true, self.universe))
            shared = next((g for g in self._grids.values() if g.family == family), None)
            self._grids[key] = shared or psl.CompiledGrid(
                family, self.props, [*self._literals.values(), *self._seed_parts], self.budget
            )
        return self._grids[key]

    def first_state(self) -> Optional[SElementarySet]:
        """The first state containing the seed of a closure without
        next-step members, or None.

        Only the sharpening atoms are assigned, true first and pruned by
        the interval engine: enumerating the modal members too would give
        each Boolean-consistent assignment of them its own grid search.
        Each assignment runs one grid search of the seed's conjuncts and
        its atom literals; the state is the truth of every base member at
        the designated cell of the model found, which it keeps for the
        witness.  Once the first assignment fails, the conjuncts without
        atoms are searched on the family of no true atoms: a model on any
        family copies there column by column and keeps the truth of every
        formula without atoms, so when they fail no assignment has a model.
        Each assignment searched counts as a generated state."""
        sweep = self._engine.sweep
        seed = self._engine.slot[self.closure.seed]
        atoms = [(i, self.base_index[self.closure.formulas[i]]) for i, _ in self._sharpenings]
        tm = [0] * len(self.base)
        fm = [0] * len(self.base)

        def assignments(k: int) -> Iterator[None]:
            _, hi = sweep(tm, fm, 1, 1)
            if not hi[seed]:
                return
            if k == len(atoms):
                yield
                return
            for cells in (tm, fm):
                cells[atoms[k][1]] = 1
                yield from assignments(k + 1)
                cells[atoms[k][1]] = 0

        for tried, _ in enumerate(assignments(0)):
            if tried == 1:
                free = [
                    g for g in self._seed_parts if not any(isinstance(h, Sharper) for h in nodes(g))
                ]
                self.grid_solves += 1
                if psl.grid_model_for(self.grid(0), free, self.budget) is None:
                    return None
            self.generated += 1
            if self.generated > self.state_limit:
                raise AutomatonLimitError(self.state_limit)
            grid = self.grid(sum(1 << i for i, b in atoms if tm[b]))
            parts = self._seed_parts + [
                self.closure.formulas[i] if tm[b] else neg(self.closure.formulas[i])
                for i, b in atoms
            ]
            self.grid_solves += 1
            model = psl.grid_model_for(grid, parts, self.budget)
            if model is not None:
                return self._state_of(grid, model)
        return None

    def _state_of(self, grid: psl.CompiledGrid, model: psl.PSLModel) -> SElementarySet:
        """The state of the designated cell of a grid model of the seed,
        which keeps the model as its own."""
        types = {vals: v for v, vals in enumerate(grid.val_sets)}
        cells = {c * grid.v_count + types[vals] for (c, _), vals in model.valuation.items()}
        present = sum(1 << t for t in cells)
        lo, _ = grid.engine.sweep(grid.true_masks, grid.false_masks, present, present)
        d = types[model.valuation[(0, 1)]]  # the designated type, in column 0
        tm = [lo[grid.engine.slot[g]] >> d & 1 for g in self.base]
        lo, _ = self._engine.sweep(tm, [1 - t for t in tm], 1, 1)
        mask = sum(lo[s] << k for k, s in enumerate(self._slots))
        self._models[mask & self._literal_bits] = model
        return SElementarySet(mask, self)

    def successors(self, b: SElementarySet) -> list[SElementarySet]:
        """Transition targets, memoised: the next-step members of the
        source fix the truth of their operands in every target, and a
        sharpening atom keeps its truth value along a run, so sources that
        agree on those members and atoms share their targets."""
        key = b.mask & self._step_bits
        targets = self._successors.get(key)
        if targets is None:
            constraints = [(g.operand, g in b) for g in self.closure.next_members]
            constraints += [
                (self.closure.formulas[i], bool(b.mask >> i & 1)) for i, _ in self._sharpenings
            ]
            targets = list(self.enumerate(constraints))
            self._successors[key] = targets
        return targets


def _dual(g: Formula) -> Formula:
    """A negated modal member as its dual over the negated operand, the
    form the grid search propagates; any other literal as it stands."""
    if isinstance(g, Not) and isinstance(g.operand, (DiamondS, BoxS)):
        dual = BoxS if isinstance(g.operand, DiamondS) else DiamondS
        return dual(g.operand.standpoint, neg(g.operand.operand))
    return g


def _conjuncts(f: Formula) -> list[Formula]:
    """The conjuncts of ``f`` for a grid search: the leaves of its top And
    tree, a negated Or read as the And of the negations, and a negated
    modal leaf as its dual (see ``_dual``), so that the search propagates
    it; left to right."""
    parts: list[Formula] = []
    stack = [f]
    while stack:
        g = stack.pop()
        if isinstance(g, And):
            stack += [g.right, g.left]
        elif isinstance(g, Not) and isinstance(g.operand, Or):
            stack += [neg(g.operand.right), neg(g.operand.left)]
        else:
            parts.append(_dual(g))
    return parts


def initial_states(cl: ClosureSet, phi_d: Formula, space: Optional[StateSpace] = None) -> Iterator[SElementarySet]:
    """Lazy stream of the s-elementary sets containing the formula."""
    if phi_d not in cl:
        raise ValueError("the closure set does not belong to this formula")
    if space is None:
        space = StateSpace(cl)
    return space.enumerate([(phi_d, True)])


@dataclass(frozen=True)
class AcceptancePredicate:
    """Accepting-set membership test for one Until member of the closure."""

    until: Until

    def __call__(self, b: SElementarySet) -> bool:
        return (self.until not in b) or (self.until.right in b)


def acceptance_family(cl: ClosureSet) -> list[AcceptancePredicate]:
    return [AcceptancePredicate(g) for g in cl.until_members]


def find_accepting_lasso(
    cl: ClosureSet, phi_d: Formula, state_limit: int = DEFAULT_STATE_LIMIT,
    budget: Optional[list[int]] = None,
) -> Optional[Lasso]:
    """Couvreur's on-the-fly SCC emptiness check, with lasso extraction.

    An iterative depth-first search from the initial states numbers each
    state it visits and keeps a stack of the roots of the SCCs still open,
    each with the union of its members' acceptance bits (bit ``i``: the
    state satisfies predicate ``i`` of the acceptance family).  An edge to
    an open state closes a cycle and merges every root above that state
    into one; the search stops once the merged root covers every
    acceptance set.  The generalized condition needs no counter, so each
    state is visited once.  A state's successors are tried in the most
    acceptance sets first, ties in ``successors`` order, so a state in
    every set is entered before the search closes a cycle through states
    that each lack one: ``G F p & G F q`` gets period 1, not 3.  With no
    Until member any cycle accepts.  A closure without next-step members
    has no Until member either, and its states constrain their successors
    by their sharpening atoms alone, so every state is its own successor:
    the lasso is ``first_state``, with an empty stem and a one-state
    cycle.  ``phi_d`` is the closure's seed.

    The lasso is built from the visited states: the stem is a shortest
    path from the initial states enumerated so far to the SCC, and the
    cycle leaves the state the stem enters, goes by shortest paths inside
    the SCC to the nearest state of each acceptance set it has not yet
    met, and returns to that state.  Searches follow ``enumerate`` and
    ``successors`` order and that ranking, so the returned lasso is
    deterministic.  The states' grid searches share ``budget`` (see
    ``StateSpace``).
    """
    if phi_d != cl.seed:
        raise ValueError("the closure set does not belong to this formula")
    space = StateSpace(cl, state_limit, budget)
    if not cl.next_members:
        first = space.first_state()
        return None if first is None else Lasso((), (first,))
    preds = acceptance_family(cl)
    full = (1 << len(preds)) - 1
    accept: dict[int, int] = {}  # acceptance bits of every visited state, by mask
    number: dict[int, int] = {}  # DFS number by mask, -1 once the state's SCC is closed
    open_states: list[SElementarySet] = []  # members of the open SCCs, in DFS order
    roots: list[list[int]] = []  # [DFS number, acceptance bits] per open SCC
    todo: list[tuple[SElementarySet, Iterator[SElementarySet]]] = []
    initial: list[SElementarySet] = []

    def bits(b: SElementarySet) -> int:
        return sum(1 << i for i, p in enumerate(preds) if p(b))

    def visit(b: SElementarySet) -> None:
        accept[b.mask] = bits(b)
        number[b.mask] = len(number)
        open_states.append(b)
        roots.append([number[b.mask], accept[b.mask]])
        ranked = sorted(space.successors(b), key=lambda t: -bits(t).bit_count())
        todo.append((b, iter(ranked)))

    for b0 in space.enumerate([(phi_d, True)]):
        initial.append(b0)
        if b0.mask in number:
            continue
        visit(b0)
        while todo:
            b, it = todo[-1]
            nxt = next(it, None)
            if nxt is None:
                todo.pop()
                if roots[-1][0] == number[b.mask]:
                    top = roots.pop()[0]
                    while open_states and number[open_states[-1].mask] >= top:
                        number[open_states.pop().mask] = -1
                continue
            k = number.get(nxt.mask)
            if k is None:
                visit(nxt)
            elif k >= 0:
                while roots[-1][0] > k:
                    roots[-2][1] |= roots.pop()[1]
                if roots[-1][1] == full:
                    scc = {s.mask for s in open_states if number[s.mask] >= roots[-1][0]}
                    return _lasso(space, initial, number, scc, accept, full)
    return None


def _lasso(
    space: StateSpace,
    initial: list[SElementarySet],
    visited: dict[int, int],
    scc: set[int],
    accept: dict[int, int],
    full: int,
) -> Lasso:
    """The lasso through an accepting SCC (masks ``scc``) that
    ``find_accepting_lasso`` stopped at."""
    entry = next((b for b in initial if b.mask in scc), None)
    stem: list[SElementarySet] = []
    if entry is None:
        stem = _path(space, initial, scc, visited)
        entry = stem.pop()
    cycle = [entry]
    missing = full & ~accept[entry.mask]
    while missing:
        targets = {m for m in scc if accept[m] & missing}
        step = _path(space, [cycle[-1]], targets, scc)[1:]
        cycle += step
        for b in step:
            missing &= ~accept[b.mask]
    cycle += _path(space, [cycle[-1]], {entry.mask}, scc)[1:-1]
    return Lasso(tuple(stem), tuple(cycle))


def _path(
    space: StateSpace,
    sources: list[SElementarySet],
    targets: Container[int],
    allowed: Container[int],
) -> list[SElementarySet]:
    """A shortest path of at least one step from a source to a target
    state, through allowed states (targets and allowed states by mask),
    found breadth-first in ``successors`` order; it starts at its source
    and ends at its target.  The caller knows that one exists."""
    parent: dict[int, Optional[SElementarySet]] = {b.mask: None for b in sources}
    queue = deque(sources)
    while True:
        b = queue.popleft()
        for b2 in space.successors(b):
            if b2.mask not in allowed:
                continue
            if b2.mask in targets:
                path = [b2, b]
                while parent[path[-1].mask] is not None:
                    path.append(parent[path[-1].mask])
                path.reverse()
                return path
            if b2.mask not in parent:
                parent[b2.mask] = b
                queue.append(b2)


def dump_state_graph(
    cl: ClosureSet, phi_d: Formula, out: TextIO, state_limit: int = DEFAULT_STATE_LIMIT,
    node_limit: int = DEFAULT_NODE_LIMIT,
) -> None:
    """Line-oriented dump of the reachable state graph, for inspection only;
    its grid searches share one budget of ``node_limit`` nodes."""
    space = StateSpace(cl, state_limit, [node_limit, node_limit])
    preds = acceptance_family(cl)
    seen: dict[int, SElementarySet] = {}
    order: list[int] = []
    initial_masks = set()
    for b in space.enumerate([(phi_d, True)]):
        initial_masks.add(b.mask)
        if b.mask not in seen:
            seen[b.mask] = b
            order.append(b.mask)
    edges: list[tuple[int, int]] = []
    i = 0
    while i < len(order):
        b = seen[order[i]]
        i += 1
        for b2 in space.successors(b):
            edges.append((b.mask, b2.mask))
            if b2.mask not in seen:
                seen[b2.mask] = b2
                order.append(b2.mask)
    for mask in order:
        b = seen[mask]
        flags = "".join("1" if p(b) else "0" for p in preds)
        init = "i" if mask in initial_masks else "."
        props = ",".join(sorted(b.props()))
        out.write(f"state {mask:#x} {init} acc={flags or '-'} props={{{props}}}\n")
    for src, dst in edges:
        out.write(f"edge {src:#x} -> {dst:#x}\n")
