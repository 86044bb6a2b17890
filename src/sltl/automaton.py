"""Generalized Büchi automaton over s-elementary sets, explored on the fly.

It decides every input of the fragments PSL, PureLTL and LtlPsl.  States
are maximally consistent, standpoint-consistent subsets of the closure
set, which stops at modal formulas: a modal member is a leaf that a
state's grid decides whole.  A state is determined by its assignment to
the base members (propositions, sharpening atoms, next-step and modal
formulas); Boolean and Until members are forced by the consistency
equations.  Enumeration branches on the base members that fix successors
and acceptance sets and reads the others off a grid model, which the state
keeps for the witness (see ``StateSpace``).  It prunes with the interval
engine of ``semantics`` on a single cell whose leaves are the base
members: each Until member unfolds to ``b | (a & X(a U b))`` over its
next-step companion, and once every base member is assigned the engine's
lower bounds are the state's mask.  Letters never appear: a transition
only exists for the letter matching the source state's propositions.

Emptiness is decided on the fly by Couvreur's SCC search for generalized
Büchi acceptance, with one acceptance set per Until member; the accepting
run is cut from the states it visited as a short lasso.  Every state comes
from ``StateSpace.enumerate``; without next-step members every state is
its own successor, so the first initial state is the lasso.
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

    A state is standpoint-consistent when its propositional literals have a
    grid model on the label family of its true sharpening atoms.  The
    literals are the true propositions, sharpening atoms and modal members
    and the negations of the false ones, a negated modal member as its dual
    over the negated operand, so that the grid search propagates it (its
    strong Kleene bounds are those of the negation); they entail the
    state's other propositional members.

    Enumeration branches only on the members that fix a state's successors
    or acceptance sets (``branch``): the sharpening atoms, the next-step
    members and every base member of a conjunct of the seed with a
    next-step or Until subformula.  The other propositions and modal
    members occur only in the seed's temporal-free conjuncts, so states
    that differ in them alone have the same successors and acceptance sets,
    and one state per branch assignment keeps emptiness.  That state reads
    its grid-decided members off the designated cell of the grid model that
    shows the assignment consistent, and keeps the model for the witness.

    Each label family's grid is compiled once, over every literal of the
    closure and the seed's temporal-free conjuncts; on it a sharpening atom
    holds iff the true atoms entail it, beneath a modality too.  The search
    decides which types are present, with no cap on how many a column
    holds, so a conjunction has a grid model iff it has any model on the
    family.  Searches are memoised by the conjuncts they search;
    ``grid_solves`` counts those run, which share ``budget`` (see
    ``psl.grid_model_for``), by default DEFAULT_NODE_LIMIT nodes.
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
        # one trace of one position: base member i is true/false when bit 0
        # of tm[i]/fm[i] is set
        self._engine = _IntervalEngine(cl.formulas, 1, 0, 1, {}, self.base_index)
        self._slots = [self._engine.slot[g] for g in cl.formulas]
        # the seed's temporal-free conjuncts as (slot, grid form), and the
        # subformulas of the others; without next-step members no conjunct
        # has a temporal operator, and without temporal-free conjuncts
        # every base member branches
        self._parts: list[tuple[int, Formula]] = []
        temporal_parts = []
        for c in _conjuncts(cl.seed):
            if cl.next_members and any(isinstance(h, (Next, Until)) for h in nodes(c)):
                temporal_parts.append(c)
            else:
                self._parts.append((self._engine.slot[c], _dual(c)))
        temporal = set([h for c in temporal_parts for h in nodes(c)] if self._parts else self.base)
        # the branch members as (base position, tried true first), and the
        # grid-decided members as (base position, member)
        self.branch: list[Formula] = []
        self._order: list[tuple[int, bool]] = []
        self._decided: list[tuple[int, Formula]] = []
        self._branch_bits = 0
        for b, g in enumerate(self.base):
            if isinstance(g, (Sharper, Next)) or g in temporal:
                self.branch.append(g)
                self._order.append((b, not isinstance(g, (Prop, Next))))
                self._branch_bits |= 1 << cl.index[g]
            else:
                self._decided.append((b, g))
        # the members a source fixes in each of its targets: the operands of
        # its next-step members, and its sharpening atoms, which are rigid
        self._step_bits = self._sharpening_bits | sum(1 << cl.index[g] for g in cl.next_members)
        self._searches: dict[tuple, Optional[tuple[psl.PSLModel, list[int]]]] = {}
        self._models: dict[int, psl.PSLModel] = {}  # by state mask
        self._grids: dict[int, psl.CompiledGrid] = {}  # by true sharpening atoms
        self._successors: dict[int, list[SElementarySet]] = {}

    def enumerate(self, constraints: list[tuple[Formula, bool]]) -> Iterator[SElementarySet]:
        """One s-elementary set per branch assignment meeting the
        constraints, which are on the seed or on branch members alone.
        Assignments follow closure index order, sharpening atoms and modal
        members true before false, propositions and next-step members false
        before true.  A modal member the constraints leave open is more
        often needed true than false: tried false first, its state more
        often failed the grid search.

        Each assignment runs one grid search of its branch literals and,
        when the seed is required, of the seed's temporal-free conjuncts it
        leaves open.  Once the first assignment of a required seed fails,
        those conjuncts without atoms are searched on the family of no true
        atoms: a model on any family copies there column by column and
        keeps the truth of every formula without atoms, so when they fail
        no assignment has a model.  Each assignment counts as a generated
        state."""
        sweep = self._engine.sweep
        checks = [(self._engine.slot[f], req) for f, req in constraints]
        seeded = (self._engine.slot[self.closure.seed], True) in checks
        tm = [0] * len(self.base)
        fm = [0] * len(self.base)
        # local, not shared: ``successors`` enumerates again while this
        # generator is suspended
        order = [(b, (tm, fm) if first else (fm, tm)) for b, first in self._order]

        def leaves(k: int) -> Iterator[list[int]]:
            lo, hi = sweep(tm, fm, 1, 1)
            # a constraint fails once neither bound can reach its value
            if any(lo[s] != req and hi[s] != req for s, req in checks):
                return
            if k == len(order):
                yield lo
                return
            b, choices = order[k]
            for cells in choices:
                cells[b] = 1
                yield from leaves(k + 1)
                cells[b] = 0

        first_failed = False
        for n, lo in enumerate(leaves(0)):
            self.generated += 1
            if self.generated > self.state_limit:
                raise AutomatonLimitError(self.state_limit)
            if n == 1 and first_failed:
                free = [g for _, g in self._parts if Sharper not in map(type, nodes(g))]
                if self._search((0, *free), 0) is None:
                    return
            mask = sum(lo[s] << k for k, s in enumerate(self._slots))
            opened = [g for s, g in self._parts if not lo[s]] if seeded else []
            found = self._search((mask & self._literal_bits, *opened), mask)
            if found is None:
                first_failed = n == 0 and seeded
                continue
            model, truth = found
            if truth:
                full_tm, full_fm = tm[:], fm[:]
                for (b, _), t in zip(self._decided, truth):
                    full_tm[b], full_fm[b] = t, 1 - t
                lo, _ = sweep(full_tm, full_fm, 1, 1)
                mask = sum(lo[s] << k for k, s in enumerate(self._slots))
            self._models.setdefault(mask, model)
            yield SElementarySet(mask, self)

    def _search(self, key: tuple, mask: int) -> Optional[tuple[psl.PSLModel, list[int]]]:
        """A grid model of the conjunction ``key`` on the family of the
        true atoms of ``mask``, with the truth of each grid-decided member
        at its designated cell, or None.  The conjunction is the literals
        whose closure bits ``key[0]`` sets and the formulas after them."""
        if key not in self._searches:
            self.grid_solves += 1
            grid = self.grid(mask)
            conjuncts = [g for i, g in self._literals.items() if key[0] >> i & 1] + list(key[1:])
            model = psl.grid_model_for(grid, conjuncts, self.budget)
            self._searches[key] = None if model is None else (model, self._read(grid, model))
        return self._searches[key]

    def _read(self, grid: psl.CompiledGrid, model: psl.PSLModel) -> list[int]:
        """The truth of each grid-decided member at the designated cell."""
        if not self._decided:
            return []
        types = {vals: v for v, vals in enumerate(grid.val_sets)}
        cells = {c * grid.v_count + types[vals] for (c, _), vals in model.valuation.items()}
        present = sum(1 << t for t in cells)
        lo, _ = grid.engine.sweep(grid.true_masks, grid.false_masks, present, present)
        d = types[model.valuation[(0, 1)]]  # the designated type, in column 0
        return [lo[grid.engine.slot[g]] >> d & 1 for _, g in self._decided]

    def grid_model(self, mask: int) -> Optional[psl.PSLModel]:
        """The grid model a state was read off, or None for a mask that no
        enumeration yielded."""
        return self._models.get(mask)

    def grid(self, mask: int) -> psl.CompiledGrid:
        """The compiled grid of the label family of the state's true
        sharpening atoms; states with the same family share one."""
        key = mask & self._sharpening_bits
        if key not in self._grids:
            true = [pair for i, pair in self._sharpenings if key >> i & 1]
            family = psl.family_for(psl.sharpening_closure(true, self.universe))
            shared = next((g for g in self._grids.values() if g.family == family), None)
            formulas = [*self._literals.values(), *(g for _, g in self._parts)]
            self._grids[key] = shared or psl.CompiledGrid(family, self.props, formulas, self.budget)
        return self._grids[key]

    def successors(self, b: SElementarySet) -> list[SElementarySet]:
        """Transition targets, memoised: the next-step members of the
        source fix the truth of their operands in every target, and a
        sharpening atom keeps its truth value along a run, so sources that
        agree on those members and atoms share their targets.  The target
        with the source's branch assignment is the source itself, so a
        state is its own successor whenever its branch assignment allows."""
        key = b.mask & self._step_bits
        targets = self._successors.get(key)
        if targets is None:
            constraints = [(g.operand, g in b) for g in self.closure.next_members]
            constraints += [
                (self.closure.formulas[i], bool(b.mask >> i & 1)) for i, _ in self._sharpenings
            ]
            targets = list(self.enumerate(constraints))
            self._successors[key] = targets
        if not self._decided:
            return targets
        return [b if (t.mask ^ b.mask) & self._branch_bits == 0 else t for t in targets]


def _dual(g: Formula) -> Formula:
    """A negated modal member as its dual over the negated operand, the
    form the grid search propagates; any other literal as it stands."""
    if isinstance(g, Not) and isinstance(g.operand, (DiamondS, BoxS)):
        dual = BoxS if isinstance(g.operand, DiamondS) else DiamondS
        return dual(g.operand.standpoint, neg(g.operand.operand))
    return g


def _conjuncts(f: Formula) -> list[Formula]:
    """The conjuncts of ``f``: the leaves of its top And tree, a negated Or
    read as the And of the negations, left to right.  Each is a member of
    the closure of ``f``."""
    parts: list[Formula] = []
    stack = [f]
    while stack:
        g = stack.pop()
        if isinstance(g, And):
            stack += [g.right, g.left]
        elif isinstance(g, Not) and isinstance(g.operand, Or):
            stack += [neg(g.operand.right), neg(g.operand.left)]
        else:
            parts.append(g)
    return parts


def initial_states(cl: ClosureSet, phi_d: Formula) -> Iterator[SElementarySet]:
    """Lazy stream of the s-elementary sets containing the closure's seed
    ``phi_d``, one per branch assignment (see ``StateSpace``)."""
    if phi_d != cl.seed:
        raise ValueError("the closure set does not belong to this formula")
    return StateSpace(cl).enumerate([(phi_d, True)])


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
    by their sharpening atoms alone, so every state is its own successor
    and the lasso is the first initial state, with an empty stem and a
    one-state cycle.  ``phi_d`` is the closure's seed.

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
        first = next(space.enumerate([(phi_d, True)]), None)
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
    seen = {b.mask: b for b in space.enumerate([(phi_d, True)])}
    order = list(seen)
    initial_masks = set(seen)
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
