"""Propositional standpoint logic: label families, compiled grids and grid
models.

A model of a propositional standpoint formula lives on a grid whose
columns are the label sets of its true sharpening atoms (``label_family``).
On that grid a sharpening atom holds iff the reflexive-transitive closure
of the true atoms relates its standpoints, so atoms are constants of the
grid, and modal truth reads only which valuations each column carries: its
present types.  The search answers with those presence sets, and
``expand`` lists each column's valuations.  A grid model is the pair
``(family, columns)``, plain tuples, where ``columns[i]`` holds the
distinct valuations that column ``i`` carries; the witness builder pads
the columns to one width (``solver.witness_from_lasso``).  The automaton
decides PSL inputs too, one grid search per state literal set (see
``automaton.StateSpace``): this module supplies the families, the compiled
grids, their size check (``grid_types``), the search and the columns.  A
small grid is compiled to truth tables over its presence sets, and a
search of it is one AND of its conjuncts' tables; a grid whose tables
would exceed ``ONE_CELL_BITS`` is compiled to an interval engine and
searched by a walk over its presence bits.  A
state of an input without standpoints that leaves no conjunct open runs
no search: its model is the one cell of its propositions, and only the
size check runs, once.
"""

from __future__ import annotations

import functools
import operator
from collections.abc import Iterable, Sequence

from .syntax import (
    BoxS,
    DiamondS,
    Formula,
    Not,
    Prop,
    Standpoint,
    UNIVERSAL,
    programs,
    size,
)
from .search import (
    DEFAULT_NODE_LIMIT,
    ONE_CELL_BITS,
    IntervalEngine,
    SearchLimitError,
    _root_table,
    _table_masks,
    cells_with_bit,
)


# ---------------------------------------------------------------------------
# Label families

def label_family(
    atoms: Iterable[tuple[Standpoint, Standpoint]], universe: Iterable[Standpoint]
) -> tuple[frozenset[Standpoint], ...]:
    """The grid's columns: the distinct label sets of the standpoints of
    ``universe``, the atoms and the universal one.  The label set of ``x``
    is every standpoint that the reflexive-transitive closure of the
    atoms, with every standpoint sharpening the universal one, relates
    ``x`` to.  The universal standpoint's set comes first, the others
    follow by size and then by their sorted names."""
    above: dict[Standpoint, set[Standpoint]] = {sp: set() for sp in (UNIVERSAL, *universe)}
    for a, b in atoms:
        above.setdefault(a, set()).add(b)
        above.setdefault(b, set())

    def labels(sp: Standpoint) -> frozenset[Standpoint]:
        seen = {sp, UNIVERSAL}
        stack = list(seen)
        while stack:
            new = above[stack.pop()] - seen
            seen |= new
            stack += new
        return frozenset(seen)

    star = labels(UNIVERSAL)
    rest = {labels(sp) for sp in above} - {star}
    return (star, *sorted(rest, key=lambda s: (len(s), sorted(x.name for x in s))))


# ---------------------------------------------------------------------------
# Grid search

class CompiledGrid:
    """A label family's grid, compiled over ``formulas`` for every search
    of a conjunction of them: truth tables when they are small, else one
    interval engine.

    The types are the (column, valuation) pairs over the sorted
    propositions, column by column: type ``t`` is valuation ``t % 2^props``
    of column ``t // 2^props``, whose bit ``i`` says whether proposition
    ``i`` holds.  The type masks (``col_masks``, ``extents``,
    ``true_masks``, ``false_masks``) are built column by column and bit by
    bit, never type by type, and shared by the small grids of one family
    and proposition count (``_type_masks``).  A sharpening atom is whether the
    left extent lies inside the right one, which on a ``label_family``
    holds iff the closure of its atoms relates them (the label set of
    ``a`` is a column).

    A grid whose tables fit ``ONE_CELL_BITS``, ``size`` summed over the
    formulas times ``types x 2^types`` bits, gets one table per formula,
    with ``engine`` None: ``tables`` maps each formula, or its operand
    when it is a negation, to its table.  A row is a set of present types,
    type 0 its most significant bit, and a table has one block of
    ``rows = 2^types`` bits per type: bit ``S`` of block ``t`` is the
    formula's truth at type ``t`` when the present types are row ``S``,
    the layout of ``search._table_masks(1, types)``.  One walk of the
    formulas (``syntax.programs``) and one ``search._root_table`` pass
    over it give every table; a modality reads its operand at each type of
    its extent only in the rows that hold that type (``_presence``).  Every
    other grid gets an ``IntervalEngine`` (``tables`` None) on a
    one-position lasso whose traces are the types: propositions are
    constant masks, and ``bind`` folds the sharpening atoms.  A grid with
    more types than ``budget``'s node limit, or than DEFAULT_NODE_LIMIT
    where that is larger (see ``grid_model_for``), is refused with
    SearchLimitError before any mask is built (``grid_types``): the masks
    stay as small as at the default limit, and the node count still bounds
    the search.
    """

    def __init__(
        self, family: tuple[frozenset[Standpoint], ...], props: Iterable[str],
        formulas: Sequence[Formula], budget: list[int],
    ):
        self.family = family
        self.props = tuple(sorted(props))
        self.v_count = 1 << len(self.props)
        self.n_types = n_types = grid_types(len(family), len(self.props), budget)
        self.full = (1 << n_types) - 1
        # a grid that may take tables has at most 20 types, whose masks are
        # small enough to keep between searches
        small = n_types < ONE_CELL_BITS.bit_length()
        self.col_masks, self.extents, self.true_masks, self.false_masks = (
            _small_type_masks if small else _type_masks
        )(family, len(self.props))
        self.tables: dict[Formula, int] | None = None
        self.engine: IntervalEngine | None = None
        try:
            # ``small`` first: the shift by the type count may be vast
            if small and sum(map(size, formulas)) * n_types << n_types <= ONE_CELL_BITS:
                self.rows = 1 << n_types
                reads, self.start, masks = _presence(family, len(self.props))
                roots = [f.operand if type(f) is Not else f for f in formulas]
                subs, left, right, at = programs(roots)
                tables = _root_table(
                    (subs, left, right), dict(zip(self.props, masks)), self.rows,
                    n_types * self.rows, reads, self.extents,
                )
                self.tables = {g: tables[i] for g, i in zip(roots, at)}
            else:
                leaves = {Prop(p): i for i, p in enumerate(self.props)}
                self.engine = IntervalEngine(formulas, n_types, 0, 1, self.extents, leaves)
        except KeyError as exc:
            raise ValueError(f"standpoint {exc.args[0]} is outside the grid universe") from None

    def truths(self, formulas: Sequence[Formula], present: int, dv: int) -> list[int]:
        """Each formula's truth, 1 or 0, at type ``dv`` when the types
        ``present`` are; the formulas are compiled ones, not negations."""
        if self.tables is not None:
            at = dv * self.rows + _flip(present, self.n_types)
            return [self.tables[g] >> at & 1 for g in formulas]
        lo, _ = self.engine.sweep(self.true_masks, self.false_masks, present, present)
        return [lo[self.engine.slot[g]] >> dv & 1 for g in formulas]


def _type_masks(
    family: tuple[frozenset[Standpoint], ...], n_props: int
) -> tuple[list[int], dict[Standpoint, int], list[int], list[int]]:
    """The type masks of a grid: each column's, each standpoint's extent
    (the columns whose label set holds it), and the types where each
    proposition is true and false.  Shared between the grids of small
    families (``_small_type_masks``), so no caller may change them."""
    v_count = 1 << n_props
    n_types = len(family) << n_props
    col_masks = [((1 << v_count) - 1) << (c * v_count) for c in range(len(family))]
    # every label set holds the universal standpoint
    extents = {
        sp: sum(col for col, labels in zip(col_masks, family) if sp in labels)
        for sp in frozenset().union(*family)
    }
    true_masks = [cells_with_bit(n_types, i) for i in range(n_props)]
    return col_masks, extents, true_masks, [((1 << n_types) - 1) ^ m for m in true_masks]


_small_type_masks = functools.lru_cache(maxsize=64)(_type_masks)


@functools.lru_cache(maxsize=16)
def _presence(
    family: tuple[frozenset[Standpoint], ...], n_props: int
) -> tuple[dict[Standpoint, list[tuple[int, int]]], int, list[int]]:
    """What a table grid's tables are built from: each standpoint's blocks
    as ``_root_table`` reads them, (bit offset, the rows that hold the
    type), each proposition's table, true in every row of the types whose
    valuation has it, and the search's start mask, whose block of each
    type of column 0 holds the rows that hold that type and a type of
    every column.  Built by doubling (``_table_masks``, ``cells_with_bit``),
    not row by row, and shared, so no caller may change them."""
    v_count = 1 << n_props
    n_types = len(family) << n_props
    rows = 1 << n_types
    block = (1 << rows) - 1
    presence = _table_masks(1, n_types)[0]
    holds = [presence >> t * rows & block for t in range(n_types)]
    valid = block  # the rows with a type of every column
    for c in range(0, n_types, v_count):
        valid &= functools.reduce(operator.or_, holds[c:c + v_count])
    start = sum((valid & holds[t]) << t * rows for t in range(v_count))
    _, extents, _, _ = _small_type_masks(family, n_props)
    reads = {
        sp: [(t * rows, h) for t, h in enumerate(holds) if ext >> t & 1]
        for sp, ext in extents.items()
    }
    # bit i of a type's valuation is bit n_types + i of a bit index in its block
    masks = [cells_with_bit(n_types * rows, n_types + i) for i in range(n_props)]
    return reads, start, masks


def _flip(mask: int, n_types: int) -> int:
    """A presence mask as a row, or a row as a presence mask: bit ``t`` of
    the one is bit ``n_types - 1 - t`` of the other."""
    return int(f"{mask:0{n_types}b}"[::-1], 2)


def grid_types(columns: int, n_props: int, budget: list[int]) -> int:
    """The type count ``columns x 2^n_props`` of a grid, or SearchLimitError
    when it exceeds ``budget``'s node limit and DEFAULT_NODE_LIMIT both:
    a grid's tables grow with its type count, so no larger grid is built."""
    n_types = columns << n_props
    limit = max(budget[1], DEFAULT_NODE_LIMIT)
    if n_types > limit:
        # printed as a power: 2^props may have more digits than str() allows
        raise SearchLimitError(limit, "grid search", (
            f"grid search refused a grid of {columns} x 2^{n_props} "
            f"types (columns x 2^propositions), over its limit of {limit} types"
        ))
    return n_types


def grid_model_for(
    grid: CompiledGrid, conjuncts: Sequence[Formula], budget: list[int]
) -> tuple[int, int] | None:
    """The present types and the designated valuation of a model of the
    conjunction at the designated type, or None; ``grid`` was compiled
    over the conjuncts, and ``expand`` lists its columns.

    A model is a presence assignment: which valuations each column
    carries (its present types), rather than individual cells, since
    modal truth only reads the per-column valuation sets, so a search of
    every presence assignment is complete.  A valid one makes the
    conjunction hold at the designated type and gives every column at
    least one type, and the answer is the least valid one in the search
    order: the designated valuation first, then the other types in
    ascending order, absent before present.

    A grid with tables (see ``CompiledGrid``: grids whose tables fit
    ``ONE_CELL_BITS``) answers in one node.  The AND of the conjuncts'
    tables, the complement for a negation, with the grid's ``start`` mask
    has, in the block of each designated valuation of column 0, the rows
    of its valid assignments.  A row is a presence set with type 0 as its
    most significant bit, so the least set bit is the least designated
    valuation with a valid row and its least row: the least valid
    assignment, as the walk below returns it.

    Every other grid walks the presence bits with the grid's engine, and
    backtracks.  Three-valued truth comes from the engine: the
    presence bits decide which types the modalities quantify over, and the
    conjunction's lower and upper masks are the AND of its conjuncts'.  The
    designated cell's valuation is chosen first; presence bits are tried
    absent before present, so the result is deterministic.

    Each node propagates the modal conjuncts, which must hold wherever the
    conjunction does, until nothing changes:

    - for a box ``[@x] g``, every type of ``x``'s extent at which ``g`` is
      false in every completion (its upper mask is clear) becomes absent,
      and for a negated diamond ``!<@x> g`` every one at which ``g`` is
      true in every completion (its lower mask is set);
    - for a diamond ``<@x> g``, the candidates are the types of ``x``'s
      extent, not absent, where ``g`` may hold: none fails the node, and a
      single one becomes present; for a negated box ``![@x] g``, the
      candidates are those where ``g`` may fail.

    The rules of ``!<@x> g`` and ``![@x] g`` are those of the duals
    ``[@x] !g`` and ``<@x> !g``, whose strong Kleene bounds are theirs.

    No type turns both absent and present.  A box rule rules out only
    types at which its operand may fail, and a present one of them would
    have made the box, a conjunct, fail the node already (its upper bound
    reads the present types); a negated diamond's rule likewise.  A
    diamond rule makes present only a type not ruled out, and the
    designated type starts present.  The search skips types that
    propagation has decided.  Witnesses are those of the search without
    propagation.  Propagation and the other prunings remove only subtrees
    without a valid assignment, and at a leaf the bounds are exact, so the
    walk returns the least valid assignment.  A node whose lower bound
    already holds returns its present types, which is the least
    completion beneath it (every open type absent) and valid, so again
    that least assignment.  The assignment depends on the family, the
    propositions and the conjunction's truth alone, so it is the one a
    grid compiled for the conjunction alone would give, with tables or
    without.

    ``budget`` is ``[remaining, limit]``, shared by every grid search of
    one ``solve``; each node takes one, a table search one in all, and
    SearchLimitError is raised once more than ``limit`` nodes were
    visited.
    """
    if grid.tables is not None:
        budget[0] -= 1
        if budget[0] < 0:
            raise SearchLimitError(budget[1], "grid search")
        found = grid.start
        for g in conjuncts:
            found &= ~grid.tables[g.operand] if type(g) is Not else grid.tables[g]
        if not found:
            return None
        dv, row = divmod((found & -found).bit_length() - 1, grid.rows)
        return _flip(row, grid.n_types), dv
    sweep, slot = grid.engine.sweep, grid.engine.slot
    roots = [slot[g] for g in conjuncts]
    # the modal conjuncts as (extent mask, operand slot, negated): a
    # negated diamond is a box rule, a negated box a diamond rule
    boxes, diamonds = [], []
    for g in conjuncts:
        h, negated = (g.operand, True) if isinstance(g, Not) else (g, False)
        if isinstance(h, (BoxS, DiamondS)):
            rule = (grid.engine.masks[h.standpoint], slot[h.operand], negated)
            (boxes if isinstance(h, BoxS) != negated else diamonds).append(rule)
    col_masks, full = grid.col_masks, grid.full
    true_masks, false_masks = grid.true_masks, grid.false_masks

    def propagate(present: int, absent: int, d_bit: int):
        """The node's presence and absence bits grown to the propagation
        fixpoint, with its lower masks, or None when the node fails."""
        while True:
            if any(col & ~absent == 0 for col in col_masks):
                return None  # every type of a column ruled out
            lo, hi = sweep(true_masks, false_masks, present, full ^ absent)
            if any(not hi[r] & d_bit for r in roots):
                return None
            grown_absent = absent
            for ext, g, negated in boxes:
                grown_absent |= ext & (lo[g] if negated else ~hi[g])
            grown_present = present
            for ext, g, negated in diamonds:
                candidates = ext & (~lo[g] if negated else hi[g]) & ~grown_absent
                if not candidates:
                    return None
                if not candidates & (candidates - 1):
                    grown_present |= candidates
            if grown_present == present and grown_absent == absent:
                return present, absent, lo
            present, absent = grown_present, grown_absent

    # with nothing present and every type possible the upper masks are
    # the highest any node reaches: a valuation clear in one of them fails
    # at its root, so only the set bits of their AND over column 0 (where
    # the designated type sits) are tried, in ascending order
    _, top = sweep(true_masks, false_masks, 0, full)
    candidates = col_masks[0]
    for r in roots:
        candidates &= top[r]
    # (next type, present, absent, designated bit); the lowest candidate
    # left starts the walk whenever the stack runs empty, so the stack
    # never holds a mask per candidate; the designated type starts
    # present, so the walk over the types passes over it
    stack = []
    while stack or candidates:
        if not stack:
            d_bit = candidates & -candidates
            candidates ^= d_bit
            stack.append((0, d_bit, 0, d_bit))
        t, present, absent, d_bit = stack.pop()
        budget[0] -= 1
        if budget[0] < 0:
            raise SearchLimitError(budget[1], "grid search")
        node = propagate(present, absent, d_bit)
        if node is None:
            continue
        present, absent, lo = node
        if all(lo[r] & d_bit for r in roots) and all(col & present for col in col_masks):
            return present, d_bit.bit_length() - 1
        decided = present | absent
        while decided >> t & 1:
            t += 1
        t_bit = 1 << t
        if t_bit & full:
            # pushed last, the absent branch is searched first
            stack.append((t + 1, present | t_bit, absent, d_bit))
            stack.append((t + 1, present, absent | t_bit, d_bit))
    return None


def expand(
    grid: CompiledGrid, present: int, dv: int
) -> tuple[tuple[frozenset[str], ...], ...]:
    """The columns of the grid model of the present types, with the
    designated valuation ``dv`` first in column 0: column ``c`` lists the
    valuations it carries, each once, in type order."""
    v_count = grid.v_count
    columns = []
    for c in range(len(grid.family)):
        bits = present >> (c * v_count) & (1 << v_count) - 1
        chosen = [v for v in range(bits.bit_length()) if bits >> v & 1]
        if c == 0:
            chosen = [dv] + [v for v in chosen if v != dv]
        columns.append(tuple(
            frozenset(p for i, p in enumerate(grid.props) if v >> i & 1) for v in chosen
        ))
    return tuple(columns)
