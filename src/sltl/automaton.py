"""Generalized Büchi automaton over s-elementary sets, explored on the fly.

States are maximally consistent, standpoint-consistent subsets of the
closure set.  A state is standpoint-consistent when its propositional
members have a grid model on the label family of its own true sharpening
atoms, at the small-model width ``n`` or, failing that, ``n_safe``; the
state space keeps that model, and the solver builds the witness of a run
from the models of its states.  A state is determined by its assignment to
the base members (propositions, sharpening atoms, next-step and modal
formulas); Boolean and Until members are forced by the consistency
equations, so enumeration backtracks over base assignments only.  It
prunes with the interval engine of ``semantics`` on a single cell whose
leaves are the base members: each Until member unfolds to
``b | (a & X(a U b))`` over its next-step companion, and once every base
member is assigned the engine's lower bounds are the state's mask.  Letters never appear: a transition only
exists for the letter matching the source state's propositions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional, TextIO

from . import psl
from .semantics import _IntervalEngine
from .syntax import (
    BOTTOM,
    TOP,
    UNIVERSAL,
    BoxS,
    ClosureSet,
    DiamondS,
    Formula,
    Next,
    Not,
    Prop,
    Sharper,
    Until,
    vocab,
)
from .translate import substitute_sharpenings

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
    propositional literals, with every sharpening atom of the closure
    replaced by its truth on the label family of the state's true atoms,
    have a grid model on that family.  The literals are the true
    propositions, sharpening atoms and modal members and the negations of
    the false ones; the state's other propositional members are Boolean
    combinations of them, so the literals entail them and give the grid
    search the same three-valued bounds.  The width is ``n`` (standpoints of
    the seed plus diamond members plus one: the literals mention no other
    standpoint and demand at most one witness per diamond member) or, when
    that has no model, ``n_safe``, which also counts the box members
    because negated boxes surface as diamonds in normal form.  A model at width ``n`` pads to one
    at ``n_safe``.  Grid models are memoised per set of literals and
    width; ``grid_solves`` counts the searches run.
    """

    def __init__(self, cl: ClosureSet, state_limit: int = DEFAULT_STATE_LIMIT):
        self.closure = cl
        self.base: list[Formula] = [
            g for g in cl.formulas if isinstance(g, (Prop, Sharper, Next, DiamondS, BoxS))
        ]
        self.base_index = {g: i for i, g in enumerate(self.base)}
        self.state_limit = state_limit
        self.generated = 0
        self.grid_solves = 0
        self.universe = set(vocab(cl.seed).standpoints) | {UNIVERSAL}
        n_dia = sum(1 for g in cl.formulas if isinstance(g, DiamondS))
        n_box = sum(1 for g in cl.formulas if isinstance(g, BoxS))
        self.n = len(self.universe) + n_dia + 1
        self.n_safe = self.n + n_box
        literal = (Prop, Sharper, DiamondS, BoxS)
        self._literal_bits = sum(
            1 << i
            for i, g in enumerate(cl.formulas)
            if isinstance(g, literal) or isinstance(g, Not) and isinstance(g.operand, literal)
        )
        self._sharpenings = [
            (i, (g.left, g.right)) for i, g in enumerate(cl.formulas) if isinstance(g, Sharper)
        ]
        self._models: dict[tuple[int, int], Optional[psl.PSLModel]] = {}
        # the members a source fixes in each of its targets: the operands of
        # its next-step members, and its sharpening atoms, which are rigid
        self._step_bits = sum(1 << cl.index[g] for g in cl.next_members)
        self._step_bits |= sum(1 << i for i, _ in self._sharpenings)
        self._successors: dict[int, list[SElementarySet]] = {}
        # one trace of one position: base member i is true/false when bit 0
        # of tm[i]/fm[i] is set
        self._engine = _IntervalEngine(cl.formulas, 1, 0, 1, {}, self.base_index)
        self._slots = [self._engine.slot[g] for g in cl.formulas]

    def enumerate(
        self, constraints: list[tuple[Formula, bool]]
    ) -> Iterator[SElementarySet]:
        """All s-elementary sets meeting the constraints, in the order of
        base assignments (closure index order, false before true)."""
        sweep = self._engine.sweep
        checks = [(self._engine.slot[f], req) for f, req in constraints]
        tm = [0] * len(self.base)
        fm = [0] * len(self.base)

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
                if (
                    self.grid_model(mask, self.n) is not None
                    or self.grid_model(mask, self.n_safe) is not None
                ):
                    yield SElementarySet(mask, self)
                return
            for cells in (fm, tm):
                cells[i] = 1
                yield from dfs(i + 1)
                cells[i] = 0

        yield from dfs(0)

    def grid_model(self, mask: int, width: int) -> Optional[psl.PSLModel]:
        """Grid model of the state's propositional literals at this width,
        or None; the label family comes from the state's true sharpening
        atoms, so the search never meets a negated atom."""
        key = (mask & self._literal_bits, width)
        if key not in self._models:
            self.grid_solves += 1
            rel = psl.sharpening_closure(
                [pair for i, pair in self._sharpenings if mask >> i & 1], self.universe
            )
            truth = {pair: TOP if rel.entails(pair) else BOTTOM for _, pair in self._sharpenings}
            members = [
                substitute_sharpenings(g, truth)
                for i, g in enumerate(self.closure.formulas)
                if key[0] >> i & 1
            ]
            self._models[key] = psl.grid_model_for(members, psl.family_for(rel), width)
        return self._models[key]

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
    cl: ClosureSet, phi_d: Formula, state_limit: int = DEFAULT_STATE_LIMIT
) -> Optional[Lasso]:
    """Nested depth-first emptiness check with lasso extraction.

    The generalized acceptance family is degeneralized with an index
    counter appended to the state; the counter advances whenever the
    current predicate holds, and a product state is accepting when the
    counter sits at zero on a state satisfying the first predicate.
    Exploration order is deterministic, so the returned lasso is too.
    """
    if phi_d not in cl:
        raise ValueError("the closure set does not belong to this formula")
    space = StateSpace(cl, state_limit)
    preds = acceptance_family(cl)
    k = max(1, len(preds))

    def holds(b: SElementarySet, i: int) -> bool:
        return preds[i](b) if preds else True

    def prod_succ(node: tuple[SElementarySet, int]) -> list[tuple[SElementarySet, int]]:
        b, i = node
        j = (i + 1) % k if holds(b, i) else i
        return [(b2, j) for b2 in space.successors(b)]

    def accepting(node: tuple[SElementarySet, int]) -> bool:
        return node[1] == 0 and holds(node[0], 0)

    blue: set[tuple[SElementarySet, int]] = set()
    red: set[tuple[SElementarySet, int]] = set()

    def red_search(seed: tuple[SElementarySet, int]) -> Optional[list[tuple[SElementarySet, int]]]:
        parent: dict[tuple[SElementarySet, int], Optional[tuple[SElementarySet, int]]] = {seed: None}
        red.add(seed)
        stack = [(seed, iter(prod_succ(seed)))]
        while stack:
            node, it = stack[-1]
            pushed = False
            for nxt in it:
                if nxt == seed:
                    path = [node]
                    while path[-1] != seed:
                        path.append(parent[path[-1]])
                    path.reverse()
                    return path
                if nxt not in red:
                    red.add(nxt)
                    parent[nxt] = node
                    stack.append((nxt, iter(prod_succ(nxt))))
                    pushed = True
                    break
            if not pushed:
                stack.pop()
        return None

    for b0 in space.enumerate([(phi_d, True)]):
        start = (b0, 0)
        if start in blue:
            continue
        blue.add(start)
        stack = [(start, iter(prod_succ(start)))]
        path = [start]
        while stack:
            node, it = stack[-1]
            pushed = False
            for nxt in it:
                if nxt not in blue:
                    blue.add(nxt)
                    stack.append((nxt, iter(prod_succ(nxt))))
                    path.append(nxt)
                    pushed = True
                    break
            if pushed:
                continue
            if accepting(node) and node not in red:
                cycle_nodes = red_search(node)
                if cycle_nodes is not None:
                    stem = tuple(b for b, _ in path[:-1])
                    cycle = tuple(b for b, _ in cycle_nodes)
                    return Lasso(stem, cycle)
            stack.pop()
            path.pop()
    return None


def dump_state_graph(cl: ClosureSet, phi_d: Formula, out: TextIO, state_limit: int = DEFAULT_STATE_LIMIT) -> None:
    """Line-oriented dump of the reachable state graph, for inspection only."""
    space = StateSpace(cl, state_limit)
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
