"""Generalized Büchi automaton over s-elementary sets, explored on the fly.

States are maximally consistent, standpoint-consistent subsets of the
closure set.  A state is determined by its assignment to the base members
(propositions, sharpening atoms, next-step and modal formulas); Boolean and
Until members are forced by the consistency equations, so enumeration
backtracks over base assignments only.  Letters never appear: a transition
only exists for the letter matching the source state's propositions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional, TextIO

from . import psl
from .syntax import (
    And,
    Bottom,
    BoxS,
    ClosureSet,
    DiamondS,
    Formula,
    Next,
    Not,
    Or,
    Prop,
    Sharper,
    Top,
    Until,
    _has_temporal,
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

    def psl_members(self) -> list[Formula]:
        return [
            g
            for i, g in enumerate(self.space.closure.formulas)
            if self.mask >> i & 1 and self.space.psl_flags[i]
        ]

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
    """Shared machinery for enumerating s-elementary sets of one closure."""

    def __init__(self, cl: ClosureSet, state_limit: int = DEFAULT_STATE_LIMIT):
        self.closure = cl
        self.base: list[Formula] = [
            g for g in cl.formulas if isinstance(g, (Prop, Sharper, Next, DiamondS, BoxS))
        ]
        self.base_index = {g: i for i, g in enumerate(self.base)}
        # base index of each Until member's next-step companion
        self._until_next = {g: self.base_index[Next(g)] for g in cl.until_members}
        self.psl_flags = [not _has_temporal(g) for g in cl.formulas]
        self.state_limit = state_limit
        self.generated = 0
        self._next_bits = sum(1 << cl.index[g] for g in cl.next_members)
        self._successors: dict[int, list[SElementarySet]] = {}

    # three-valued truth of a closure formula under a partial base assignment
    def value(self, f: Formula, assign: list[Optional[bool]]) -> Optional[bool]:
        idx = self.base_index.get(f)
        if idx is not None:
            return assign[idx]
        if isinstance(f, Top):
            return True
        if isinstance(f, Bottom):
            return False
        if isinstance(f, Not):
            v = self.value(f.operand, assign)
            return None if v is None else not v
        if isinstance(f, And):
            a = self.value(f.left, assign)
            if a is False:
                return False
            b = self.value(f.right, assign)
            if b is False:
                return False
            return True if (a is True and b is True) else None
        if isinstance(f, Or):
            a = self.value(f.left, assign)
            if a is True:
                return True
            b = self.value(f.right, assign)
            if b is True:
                return True
            return False if (a is False and b is False) else None
        if isinstance(f, Until):
            b = self.value(f.right, assign)
            if b is True:
                return True
            a = self.value(f.left, assign)
            x = assign[self._until_next[f]]
            cont = False if (a is False or x is False) else (True if (a is True and x is True) else None)
            if b is False:
                return cont
            return True if cont is True else None
        raise TypeError(f"unexpected closure member: {f!r}")

    def enumerate(
        self, constraints: list[tuple[Formula, bool]]
    ) -> Iterator[SElementarySet]:
        """All s-elementary sets meeting the constraints, in the order of
        base assignments (closure index order, false before true)."""
        assign: list[Optional[bool]] = [None] * len(self.base)

        def consistent_so_far() -> bool:
            for f, req in constraints:
                v = self.value(f, assign)
                if v is not None and v != req:
                    return False
            return True

        def emit() -> Optional[SElementarySet]:
            self.generated += 1
            if self.generated > self.state_limit:
                raise AutomatonLimitError(self.state_limit)
            mask = 0
            for i, g in enumerate(self.closure.formulas):
                v = self.value(g, assign)
                assert v is not None
                if v:
                    mask |= 1 << i
            state = SElementarySet(mask, self)
            if __debug__:
                self._assert_maximally_consistent(state)
            if psl.standpoint_consistent(state.psl_members()):
                return state
            return None

        def dfs(i: int) -> Iterator[SElementarySet]:
            if not consistent_so_far():
                return
            if i == len(self.base):
                state = emit()
                if state is not None:
                    yield state
                return
            for v in (False, True):
                assign[i] = v
                yield from dfs(i + 1)
            assign[i] = None

        yield from dfs(0)

    def successors(self, b: SElementarySet) -> list[SElementarySet]:
        """Transition targets, memoised: the next-step members of the
        source fix the truth of their operands in every target, so sources
        that agree on those members share their targets."""
        key = b.mask & self._next_bits
        targets = self._successors.get(key)
        if targets is None:
            constraints = [(g.operand, g in b) for g in self.closure.next_members]
            targets = list(self.enumerate(constraints))
            self._successors[key] = targets
        return targets

    def _assert_maximally_consistent(self, b: SElementarySet) -> None:
        cl = self.closure
        assert Top() in b and Bottom() not in b
        for g in cl.formulas:
            if isinstance(g, Not):
                assert (g in b) != (g.operand in b)
            elif isinstance(g, And):
                assert (g in b) == ((g.left in b) and (g.right in b))
            elif isinstance(g, Or):
                assert (g in b) == ((g.left in b) or (g.right in b))
            elif isinstance(g, Until):
                unfold = (g.right in b) or ((g.left in b) and (Next(g) in b))
                assert (g in b) == unfold


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
