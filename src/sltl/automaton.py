"""Generalized Büchi automaton over s-elementary sets, explored on the fly.

It decides every input of the fragments PSL, PureLTL and LtlPsl.  States
are maximally consistent, standpoint-consistent subsets of the closure
set (``ClosureSet``, read off the seed's memoised program; no witness
check reads it), which stops at modal formulas: a modal member is a leaf
that a state's grid decides whole.  A state is fixed by its assignment to the
base members (propositions, sharpening atoms, next-step and modal
formulas), because the consistency equations force its Boolean and Until
members; so a state is an ``int`` whose bit ``b`` is set when
``StateSpace.base[b]`` is true.  Enumeration branches on the base members
that fix successors and acceptance sets and reads the others off a grid
model, which it keeps for the witness (see ``StateSpace``): the pair of
the grid's label family and the valuations each column carries.  Without
modal members and sharpening atoms a state whose temporal-free conjuncts
are decided at its cell needs no grid: its model is the one cell of its
propositions, every grid-decided one false.  It prunes
with the interval engine of ``search``, whose leaves are the base
members: each Until member unfolds to ``b | (a & X(a U b))`` over its
next-step companion, and one sweep evaluates up to 1,024 assignments of
the last branch members, one per cell.  Letters never appear: a
transition only exists for the letter matching the source state's
propositions.

Emptiness is decided on the fly by Couvreur's SCC search for generalized
Büchi acceptance, with one acceptance set per Until member; the accepting
run is cut from the states it visited as a short lasso.  Every state comes
from ``StateSpace.enumerate``; without next-step members every state is
its own successor, so the first initial state is the lasso.
"""

from __future__ import annotations

import functools
import io
from collections import deque
from collections.abc import Container, Iterator
from operator import itemgetter

from . import psl
from .search import DEFAULT_NODE_LIMIT, IntervalEngine, SearchLimitError, cells_with_bit
from .syntax import (
    UNIVERSAL,
    And,
    Bottom,
    BoxS,
    DiamondS,
    Formula,
    Next,
    Not,
    Or,
    Prop,
    Sharper,
    Standpoint,
    Until,
    _FrozenRecord,
    neg,
    program,
    vocab,
)

DEFAULT_STATE_LIMIT = 200_000
# label families by (true atoms, universe), shared by the inputs of a
# process: the same few recur, and a family is an immutable tuple
_family = functools.lru_cache(maxsize=256)(psl.label_family)
# the most branch members that enumeration assigns bit-parallel, one cell
# per assignment: 1,024 cells per sweep
_TAIL_WIDTH = 10

# a grid model: the label family, and the valuations each column carries
GridModel = tuple[tuple[frozenset[Standpoint], ...], tuple[tuple[frozenset[str], ...], ...]]


class ClosureSet:
    """The formulas an automaton state assigns, ordered by size and then by
    the position of their last occurrence in ``syntax.nodes(seed)``; an Until's
    next-step companion that does not occur there takes the Until's
    position.  The key prints nothing, and children come before their
    parents.

    The members are the seed's subformulas outside modal operands, every
    sharpening atom of the seed wherever it occurs, and the next-step
    companions of the Until members.  A false member is a clear state bit,
    so no negation is added.  A modal formula is a leaf: on the automaton's
    fragments its operand is temporal-free, and a state decides it whole on
    its grid.  Sharpening atoms beneath a modality are members all the
    same, because atoms are rigid state bits and the true ones choose the
    grid's label family.

    Both are read off the seed's memoised ``program`` in one top-down pass
    over its list, parents before children, so the time is linear in the
    distinct subformulas however often a shared one occurs.  A child's
    last occurrence is a longest path: one past its parent's last
    occurrence, plus the size of its left sibling, the latest over its
    parents.  A child lies outside every modal operand when some parent
    that is not a modality does.
    """

    def __init__(self, seed: Formula):
        subs, left, right = program(seed)
        # the root's only occurrence is the first, outside every modal operand
        last, outside = [0] * len(subs), [False] * (len(subs) - 1) + [True]
        for i in range(len(subs) - 1, -1, -1):
            free = outside[i] and not isinstance(subs[i], (DiamondS, BoxS))
            at = last[i] + 1  # where the child occurs in this one's last occurrence
            for c in (left[i], right[i]):
                if c >= 0:
                    last[c] = max(last[c], at)
                    outside[c] |= free
                    at += subs[c]._size
        # each member's key: its size and last occurrence; an Until's
        # companion takes the Until's occurrence where it has none
        nexts = {a: j for j, (g, a) in enumerate(zip(subs, left)) if type(g) is Next}
        keyed = [(g._size, last[i], g) for i, g in enumerate(subs) if outside[i] or type(g) is Sharper]
        for i, g in enumerate(subs):
            j = nexts.get(i)
            if outside[i] and type(g) is Until and (j is None or not outside[j]):
                keyed.append((g._size + 1, last[i if j is None else j], Next(g)))
        self.seed = seed
        self.formulas: tuple[Formula, ...] = tuple(g for _, _, g in sorted(keyed, key=itemgetter(0, 1)))
        self.index: dict[Formula, int] = {g: i for i, g in enumerate(self.formulas)}
        self.until_members: tuple[Until, ...] = tuple(
            g for g in self.formulas if isinstance(g, Until)
        )
        self.next_members: tuple[Next, ...] = tuple(
            g for g in self.formulas if isinstance(g, Next)
        )

    def __len__(self) -> int:
        return len(self.formulas)

    def __contains__(self, f: Formula) -> bool:
        return f in self.index

    def __iter__(self) -> Iterator[Formula]:
        return iter(self.formulas)


def closure(f: Formula) -> ClosureSet:
    """The closure set of ``f``: its members stop at modal formulas, which
    are leaves, but keep every sharpening atom (see ``ClosureSet``)."""
    return ClosureSet(f)


class Lasso(_FrozenRecord):
    """Accepting run presented as a stem plus a repeating cycle of states,
    with the grid model each run position's state was read off, stem
    first: plain tuples, so a lasso hashes by value."""

    __slots__ = ("stem", "cycle", "models")

    def __init__(
        self, stem: tuple[int, ...], cycle: tuple[int, ...], models: tuple[GridModel, ...]
    ):
        object.__setattr__(self, "stem", stem)
        object.__setattr__(self, "cycle", cycle)
        object.__setattr__(self, "models", models)


class StateSpace:
    """Shared machinery for enumerating s-elementary sets of one closure.

    A state is an ``int`` over ``base``: bit ``b`` is set when ``base[b]``
    is true.  It is standpoint-consistent when its propositional literals
    have a grid model on the label family of its true sharpening atoms.
    The literals are the true propositions, sharpening atoms and modal
    members and the negations of the false ones, which the grid search
    takes as written (see ``psl.grid_model_for``); they entail the state's
    other propositional members.

    Enumeration branches only on the members that fix a state's successors
    or acceptance sets (``branch``): the sharpening atoms, the next-step
    members and every base member of a conjunct of the seed with a
    next-step or Until subformula.  The other propositions and modal
    members occur only in the seed's temporal-free conjuncts, so states
    that differ in them alone have the same successors and acceptance sets,
    and one state per branch assignment keeps emptiness.  That state reads
    its grid-decided members off the designated cell of the grid model that
    shows the assignment consistent, and keeps the model for the witness.
    Its acceptance bits (``accepting``; bit ``i``: Until member ``i`` is
    false or its right operand true) are read at the branch assignment,
    where the engine's bounds of each Until member and its right operand
    are exact: every base member beneath them branches.

    A space whose base has no modal member and no sharpening atom (a
    PureLTL closure, or a PSL one without standpoints) has a grid of one
    column, and a state's branch literals are propositions.  Where its
    temporal-free conjuncts are all decided at its cell (every
    ``successors`` target, and every seeded state that leaves none open)
    the grid search would return its designated valuation: the branch
    propositions as their literals and every grid-decided member false.
    Such a state runs no search, and its grid model is that one cell
    (``grid_model``).  The first of them still checks the grid's size
    (``psl.grid_types``), which is where a search would have compiled it.

    The enumeration's interval engine runs on ``2^w`` one-position cells,
    one per assignment of the last ``w`` branch members (the tail), where
    ``w`` is at most ``_TAIL_WIDTH``; the depth-first walk assigns the
    other branch members (the head) at every cell at once.  No instruction
    of its program reads another cell, since the modal members and
    sharpening atoms are leaves.

    Each label family's grid is compiled once, over the branch literals in
    both polarities, the grid-decided members and the seed's temporal-free
    conjuncts; on it a sharpening atom holds iff the true atoms entail it,
    beneath a modality too.  A grid within ``search.ONE_CELL_BITS`` is
    compiled to truth tables over its presence sets, one walk of those
    formulas, and each search of it is one node; a larger one gets an
    interval engine, on which each search walks one stratum of slot
    traces (see ``psl.CompiledGrid``).  ``_read`` reads the grid-decided
    members off the same tables or engine.  A table search decides which
    types are present, with no cap on how many a column holds, and a slot
    search gives each column as many slots as a model needs (see
    ``psl._slots``), so a conjunction has a grid model iff it has any
    model on the family.  Searches are memoised by
    the conjuncts they search; ``grid_solves`` counts those run, which
    share ``budget`` (see ``psl.grid_model_for``), by default
    DEFAULT_NODE_LIMIT nodes.  Grids are compiled lazily, at the first
    search on their family, and label families are memoised across inputs
    (``_family``).
    """

    def __init__(
        self, cl: ClosureSet, state_limit: int = DEFAULT_STATE_LIMIT,
        budget: list[int] | None = None,
    ):
        self.closure = cl
        self.base: list[Formula] = [
            g for g in cl.formulas if isinstance(g, (Prop, Sharper, Next, DiamondS, BoxS))
        ]
        self.base_index = {g: b for b, g in enumerate(self.base)}
        self.state_limit = state_limit
        self.budget = budget or [DEFAULT_NODE_LIMIT, DEFAULT_NODE_LIMIT]
        self.generated = 0
        self.grid_solves = 0
        voc = vocab(cl.seed)
        self.universe = voc.standpoints | {UNIVERSAL}
        self.props = voc.props
        # no modal member and no sharpening atom: states that leave no
        # conjunct open need no grid; the first of them checks its size
        self._gridless = not any(isinstance(g, (Sharper, DiamondS, BoxS)) for g in self.base)
        self._unsized = self._gridless
        # the seed's temporal-free conjuncts, and the subformulas of the
        # others, read off the seed's memoised program; without next-step
        # members no conjunct has a temporal operator, and without
        # temporal-free conjuncts every base member branches
        seed = program(cl.seed)
        conjuncts = _conjuncts(*seed)
        parts, temporal_at = [], []  # (conjunct, its position), and positions
        for c, i in conjuncts:
            if cl.next_members and any(type(g) in (Next, Until) for g in _beneath(seed, [i])):
                temporal_at.append(i)
            else:
                parts.append((c, i))
        temporal = set(_beneath(seed, temporal_at) if parts else self.base)
        # the branch members as (base position, tried true first), the
        # grid-decided members as (base position, member), and the branch
        # literals as (base position, member, its negation)
        self.branch: list[Formula] = []
        order: list[tuple[int, bool]] = []
        self._decided: list[tuple[int, Formula]] = []
        self._literals: list[tuple[int, Formula, Formula]] = []
        self._branch_bits = 0
        for b, g in enumerate(self.base):
            if isinstance(g, (Sharper, Next)) or g in temporal:
                self.branch.append(g)
                order.append((b, not isinstance(g, (Prop, Next))))
                self._branch_bits |= 1 << b
                if not isinstance(g, Next):
                    self._literals.append((b, g, neg(g)))
            else:
                self._decided.append((b, g))
        # one position per cell, one cell per assignment of the last
        # ``width`` branch members (the tail): base member b is true/false
        # at the cells set in tm[b]/fm[b]
        width = min(_TAIL_WIDTH, len(self.branch))
        self._engine = IntervalEngine(
            [*cl.formulas, *(c for c, _ in conjuncts)], 1 << width, 0, 1, {}, self.base_index
        )
        slot = self._engine.slot
        self._untils = [(slot[g], slot[g.right]) for g in cl.until_members]
        self._parts = [(slot[c], c, i) for c, i in parts]  # i: its position in the seed's program
        # a tail member takes its first value at the cells whose bit p is
        # clear, and the earliest member the highest bit, so that cells in
        # ascending order visit the tail assignments in branch order
        full = self._engine.full
        self._tail_tm = [0] * len(self.base)
        self._tail_fm = [0] * len(self.base)
        for p, (b, first) in enumerate(reversed(order[len(order) - width:])):
            second = cells_with_bit(1 << width, p)
            t, f = (full ^ second, second) if first else (second, full ^ second)
            self._tail_tm[b], self._tail_fm[b] = t, f
        self._head = order[: len(order) - width]
        self._literal_bits = sum(1 << b for b, _, _ in self._literals)
        self._sharpening_bits = sum(
            1 << b for b, g in enumerate(self.base) if isinstance(g, Sharper)
        )
        # the members a source fixes in each of its targets: the operands of
        # its next-step members, and its sharpening atoms, which are rigid
        self._step_bits = self._sharpening_bits | sum(
            1 << self.base_index[g] for g in cl.next_members
        )
        # a search's present types, designated valuation and decided bits;
        # a state's present types and designated valuation, on its grid
        self._searches: dict[tuple, tuple[int, int, int] | None] = {}
        self._models: dict[int, tuple[int, int]] = {}
        self.accepting: dict[int, int] = {}  # acceptance bits by state
        self._grids: dict[int, psl.CompiledGrid] = {}  # by true sharpening atoms
        self._successors: dict[int, list[int]] = {}

    def enumerate(self, constraints: list[tuple[Formula, bool]]) -> Iterator[int]:
        """One state per branch assignment meeting the constraints, which
        are on the seed or on branch members alone.  Assignments follow
        closure index order, sharpening atoms and modal members true before
        false, propositions and next-step members false before true.  A
        modal member the constraints leave open is more often needed true
        than false: tried false first, its state more often failed the grid
        search.  The depth-first walk over the head members is a loop that
        backtracks over their assigned prefix, not a recursion, so any
        number of branch members fits.  Each node sweeps every tail
        assignment at once, and is pruned when a constraint fails at every
        cell; at a leaf, the cells meeting the constraints are its tail
        assignments in branch order, ascending.  By the monotonicity of the
        three-valued bounds, a cell meets them iff every prefix of its
        assignment does, so the assignments and their order are those of
        the walk over every branch member.

        Each assignment runs one grid search of its branch literals and,
        when the seed is required, of the seed's temporal-free conjuncts it
        leaves open, except where the space has no standpoints and it
        leaves none open (see the class docstring); its state is the
        assignment with the grid-decided members the model shows true, and
        ``accepting`` records its acceptance bits.  Once the first
        assignment of a required seed fails, those conjuncts without atoms
        are searched once, unmemoised, on the family of no true atoms: a
        model on any family copies there column by column and keeps the
        truth of every formula without atoms, so when they fail no
        assignment has a model.  Each assignment counts as a generated
        state."""
        sweep, full = self._engine.sweep, self._engine.full
        checks = [(self._engine.slot[f], req) for f, req in constraints]
        seeded = (self._engine.slot[self.closure.seed], True) in checks
        # local, not shared: ``successors`` enumerates again while this
        # generator is suspended
        tm = self._tail_tm.copy()
        fm = self._tail_fm.copy()
        head = [(b, (tm, fm) if first else (fm, tm)) for b, first in self._head]

        def leaves() -> Iterator[tuple[list[int], int]]:
            # the members head[:k] are assigned at every cell; a cell fails
            # once neither bound of a constraint can reach its value there
            k = 0
            while k >= 0:
                lo, hi = sweep(tm, fm)
                ok = full
                for s, req in checks:
                    ok &= hi[s] if req else ~lo[s]
                if ok:
                    if k < len(head):
                        b, (first, _) = head[k]
                        first[b] = full
                        k += 1
                        continue
                    while ok:
                        yield lo, (ok & -ok).bit_length() - 1
                        ok &= ok - 1
                # back to the deepest member still on its first value
                k -= 1
                while k >= 0:
                    b, (first, second) = head[k]
                    if first[b]:
                        first[b], second[b] = 0, full
                        k += 1
                        break
                    second[b] = 0
                    k -= 1

        first_failed = False
        for n, (lo, c) in enumerate(leaves()):
            self.generated += 1
            if self.generated > self.state_limit:
                raise SearchLimitError(self.state_limit, "automaton", (
                    f"automaton exceeded the state limit of {self.state_limit}"
                ))
            if n == 1 and first_failed:
                self.grid_solves += 1
                seed = program(self.closure.seed)
                free = [g for _, g, i in self._parts if Sharper not in map(type, _beneath(seed, [i]))]
                if psl.grid_model_for(self.grid(0), free, self.budget) is None:
                    return
            state = sum((t >> c & 1) << b for b, t in enumerate(tm))
            opened = [g for s, g, _ in self._parts if not lo[s] >> c & 1] if seeded else []
            if self._gridless and not opened:
                if self._unsized:
                    psl.grid_types(1, len(self.props), self.budget)
                    self._unsized = False
            else:
                found = self._search((state & self._literal_bits, *opened))
                if found is None:
                    first_failed = n == 0 and seeded
                    continue
                present, dv, decided = found
                state |= decided
                self._models.setdefault(state, (present, dv))
            self.accepting[state] = sum(
                1 << i for i, (u, r) in enumerate(self._untils)
                if not lo[u] >> c & 1 or lo[r] >> c & 1
            )
            yield state

    def _search(self, key: tuple) -> tuple[int, int, int] | None:
        """The present types and the designated valuation of a grid model
        of the conjunction ``key`` on the grid of its true atoms, with the
        grid-decided members true at the designated type as state bits, or
        None.  The conjunction is the branch literals, true where the state
        bits ``key[0]`` are set and negated elsewhere, and the formulas
        after them.  ``key[0]`` holds every sharpening atom's bit, so its
        grid is that of each state the search yields."""
        if key not in self._searches:
            self.grid_solves += 1
            grid = self.grid(key[0])
            conjuncts = [g if key[0] >> b & 1 else ng for b, g, ng in self._literals]
            found = psl.grid_model_for(grid, conjuncts + list(key[1:]), self.budget)
            self._searches[key] = None if found is None else (*found, self._read(grid, *found))
        return self._searches[key]

    def _read(self, grid: psl.CompiledGrid, present: int, dv: int) -> int:
        """The grid-decided members true at the designated type ``dv`` when
        the types ``present`` are, as state bits, read off the grid's
        tables or its engine (``psl.CompiledGrid.truths``)."""
        if not self._decided:
            return 0
        truths = grid.truths([g for _, g in self._decided], present, dv)
        return sum(bit << b for bit, (b, _) in zip(truths, self._decided))

    def grid_model(self, state: int) -> GridModel:
        """The grid model a state was read off, as the pair of its label
        family and its columns (``psl.expand``); the state is one that an
        enumeration yielded, as every state of a run is.  Without
        standpoints it is the one cell of the state's propositions, as
        ``expand`` would list it from any search (see the class
        docstring)."""
        if self._gridless:
            return (frozenset({UNIVERSAL}),), ((self.true_props(state),),)
        grid = self.grid(state)
        return grid.family, psl.expand(grid, *self._models[state])

    def true_props(self, state: int) -> frozenset[str]:
        """The propositions true in a state."""
        return frozenset(
            g.name for b, g in enumerate(self.base) if state >> b & 1 and isinstance(g, Prop)
        )

    def grid(self, state: int) -> psl.CompiledGrid:
        """The compiled grid of the label family of the state's true
        sharpening atoms; states with the same family share one."""
        key = state & self._sharpening_bits
        if key not in self._grids:
            true = tuple((g.left, g.right) for b, g in enumerate(self.base) if key >> b & 1)
            family = _family(true, self.universe)
            shared = next((g for g in self._grids.values() if g.family == family), None)
            formulas = [
                *(f for _, g, ng in self._literals for f in (g, ng)),
                *(g for _, g in self._decided),
                *(g for _, g, _ in self._parts),
            ]
            self._grids[key] = shared or psl.CompiledGrid(family, self.props, formulas, self.budget)
        return self._grids[key]

    def successors(self, state: int) -> list[int]:
        """Transition targets, memoised: the next-step members of the
        source fix the truth of their operands in every target, and a
        sharpening atom keeps its truth value along a run, so sources that
        agree on those members and atoms share their targets.  The target
        with the source's branch assignment is the source itself, so a
        state is its own successor whenever its branch assignment allows."""
        key = state & self._step_bits
        targets = self._successors.get(key)
        if targets is None:
            constraints = [
                (g.operand if isinstance(g, Next) else g, bool(key >> b & 1))
                for b, g in enumerate(self.base)
                if self._step_bits >> b & 1
            ]
            targets = list(self.enumerate(constraints))
            self._successors[key] = targets
        if not self._decided:
            return targets
        return [state if (t ^ state) & self._branch_bits == 0 else t for t in targets]


def _conjuncts(subs: list[Formula], left: list[int], right: list[int]) -> list[tuple[Formula, int]]:
    """The conjuncts of the formula whose ``program`` is given: the leaves
    of its top And tree, a negated Or read as the And of the negations,
    left to right.  Each is a member of the closure of the formula or the
    negation of one, and comes with the list position of that member."""
    parts: list[tuple[Formula, int]] = []
    stack = [(len(subs) - 1, False)]  # (position, negated)
    while stack:
        i, negated = stack.pop()
        g = subs[i]
        if type(g) is (Or if negated else And):
            stack += [(right[i], negated), (left[i], negated)]
        elif type(g) is Not and (negated or type(subs[left[i]]) is Or):
            stack.append((left[i], not negated))
        else:
            parts.append((neg(g) if negated else g, i))
    return parts


def _beneath(seed: tuple[list[Formula], list[int], list[int]], tops: list[int]) -> Iterator[Formula]:
    """The subformulas of those at positions ``tops`` of the program
    ``seed``, each once, the tops first: a caller that looks for one kind
    stops at the first it meets."""
    subs, left, right = seed
    seen, stack = set(tops), list(tops)
    while stack:
        i = stack.pop()
        yield subs[i]
        for c in (left[i], right[i]):
            if c >= 0 and c not in seen:
                seen.add(c)
                stack.append(c)


def find_accepting_lasso(
    cl: ClosureSet, state_limit: int = DEFAULT_STATE_LIMIT, budget: list[int] | None = None,
) -> Lasso | None:
    """Couvreur's on-the-fly SCC emptiness check from the states holding
    the closure's seed, with lasso extraction.

    An iterative depth-first search from the initial states numbers each
    state it visits and keeps a stack of the roots of the SCCs still open,
    each with the union of its members' acceptance bits (see
    ``StateSpace.accepting``).  An edge to an open state closes a cycle
    and merges every root above that state into one; the search stops once
    the merged root covers every acceptance set.  The generalized condition
    needs no counter, so each state is visited once.  A state's successors
    are tried in the most acceptance sets first, ties in ``successors``
    order, so a state in every set is entered before the search closes a
    cycle through states that each lack one: ``G F p & G F q`` gets period
    1, not 3.  With no Until member any cycle accepts.  A closure without
    next-step members has no Until member either, and its states constrain
    their successors by their sharpening atoms alone, so every state is its
    own successor and the lasso is the first initial state, with an empty
    stem and a one-state cycle.

    The lasso is built from the visited states: the stem is a shortest
    path from the initial states enumerated so far to the SCC, and the
    cycle leaves the state the stem enters, goes by shortest paths inside
    the SCC to the nearest state of each acceptance set it has not yet
    met, and returns to that state.  Searches follow ``enumerate`` and
    ``successors`` order and that ranking, so the returned lasso is
    deterministic; it carries each position's grid model.  The states'
    grid searches share ``budget`` (see ``StateSpace``).  A seed ``false``,
    what constant folding leaves of an input with no model, has no initial
    state: it answers None at once, with no ``StateSpace`` built and no
    state or node spent.
    """
    if type(cl.seed) is Bottom:
        return None
    space = StateSpace(cl, state_limit, budget)
    seeded = space.enumerate([(cl.seed, True)])
    if not cl.next_members:
        first = next(seeded, None)
        return None if first is None else Lasso((), (first,), (space.grid_model(first),))
    full = (1 << len(cl.until_members)) - 1
    accept = space.accepting
    number: dict[int, int] = {}  # DFS number by state, -1 once the state's SCC is closed
    open_states: list[int] = []  # members of the open SCCs, in DFS order
    roots: list[list[int]] = []  # [DFS number, acceptance bits] per open SCC
    todo: list[tuple[int, Iterator[int]]] = []
    initial: list[int] = []

    def visit(b: int) -> None:
        number[b] = len(number)
        open_states.append(b)
        roots.append([number[b], accept[b]])
        ranked = sorted(space.successors(b), key=lambda t: -accept[t].bit_count())
        todo.append((b, iter(ranked)))

    for b0 in seeded:
        initial.append(b0)
        if b0 in number:
            continue
        visit(b0)
        while todo:
            b, it = todo[-1]
            nxt = next(it, None)
            if nxt is None:
                todo.pop()
                if roots[-1][0] == number[b]:
                    top = roots.pop()[0]
                    while open_states and number[open_states[-1]] >= top:
                        number[open_states.pop()] = -1
                continue
            k = number.get(nxt)
            if k is None:
                visit(nxt)
            elif k >= 0:
                while roots[-1][0] > k:
                    roots[-2][1] |= roots.pop()[1]
                if roots[-1][1] == full:
                    scc = {s for s in open_states if number[s] >= roots[-1][0]}
                    return _lasso(space, initial, number, scc, full)
    return None


def _lasso(
    space: StateSpace, initial: list[int], visited: dict[int, int], scc: set[int], full: int,
) -> Lasso:
    """The lasso through an accepting SCC (states ``scc``) that
    ``find_accepting_lasso`` stopped at."""
    accept = space.accepting
    entry = next((b for b in initial if b in scc), None)
    stem: list[int] = []
    if entry is None:
        stem = _path(space, initial, scc, visited)
        entry = stem.pop()
    cycle = [entry]
    missing = full & ~accept[entry]
    while missing:
        targets = {m for m in scc if accept[m] & missing}
        step = _path(space, [cycle[-1]], targets, scc)[1:]
        cycle += step
        for b in step:
            missing &= ~accept[b]
    cycle += _path(space, [cycle[-1]], {entry}, scc)[1:-1]
    return Lasso(tuple(stem), tuple(cycle), tuple(map(space.grid_model, stem + cycle)))


def _path(
    space: StateSpace, sources: list[int], targets: Container[int], allowed: Container[int],
) -> list[int]:
    """A shortest path of at least one step from a source to a target
    state, through allowed states, found breadth-first in ``successors``
    order; it starts at its source and ends at its target.  The caller
    knows that one exists."""
    parent: dict[int, int | None] = {b: None for b in sources}
    queue = deque(sources)
    while True:
        b = queue.popleft()
        for b2 in space.successors(b):
            if b2 not in allowed:
                continue
            if b2 in targets:
                path = [b2, b]
                while parent[path[-1]] is not None:
                    path.append(parent[path[-1]])
                path.reverse()
                return path
            if b2 not in parent:
                parent[b2] = b
                queue.append(b2)


def dump_state_graph(
    cl: ClosureSet, out: io.TextIOBase, state_limit: int = DEFAULT_STATE_LIMIT,
    node_limit: int = DEFAULT_NODE_LIMIT,
) -> None:
    """Line-oriented dump of the state graph reachable from the states
    holding the closure's seed, for inspection only; a state's id is its
    base assignment in hex.  Its grid searches share one budget of
    ``node_limit`` nodes."""
    space = StateSpace(cl, state_limit, [node_limit, node_limit])
    order = list(dict.fromkeys(space.enumerate([(cl.seed, True)])))
    initial = set(order)
    seen = set(order)
    edges: list[tuple[int, int]] = []
    for b in order:  # grows as new targets are met
        for b2 in space.successors(b):
            edges.append((b, b2))
            if b2 not in seen:
                seen.add(b2)
                order.append(b2)
    for b in order:
        flags = "".join(str(space.accepting[b] >> i & 1) for i in range(len(cl.until_members)))
        init = "i" if b in initial else "."
        props = ",".join(sorted(space.true_props(b)))
        out.write(f"state {b:#x} {init} acc={flags or '-'} props={{{props}}}\n")
    for src, dst in edges:
        out.write(f"edge {src:#x} -> {dst:#x}\n")
