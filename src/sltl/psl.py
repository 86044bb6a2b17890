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
would exceed ``ONE_CELL_BITS`` is compiled to an interval engine, and a
search of it walks one stratum of slot traces, a few per column, as the
bounded search walks its strata (``search._search_stratum``).  A
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
    TOP,
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
    _search_stratum,
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
    ``i`` holds.  A sharpening atom is whether the left extent lies inside
    the right one, which on a ``label_family`` holds iff the closure of its
    atoms relates them (the label set of ``a`` is a column).

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
    its extent only in the rows that hold that type (``_presence``), and
    ``extents`` holds each standpoint's types.  Every other grid gets an
    ``IntervalEngine`` (``tables`` None) over the propositions, compiled
    once; each search and each reading of a model reshapes it to its own
    one-position traces, each in one column, and binds the extents of
    those traces (``_bind``), which folds the sharpening atoms.  A grid
    with more types than ``budget``'s node limit, or than
    DEFAULT_NODE_LIMIT where that is larger (see ``grid_model_for``), is
    refused with SearchLimitError before anything is compiled
    (``grid_types``).
    """

    def __init__(
        self, family: tuple[frozenset[Standpoint], ...], props: Iterable[str],
        formulas: Sequence[Formula], budget: list[int],
    ):
        self.family = family
        self.props = tuple(sorted(props))
        self.v_count = 1 << len(self.props)
        self.n_types = n_types = grid_types(len(family), len(self.props), budget)
        self.tables: dict[Formula, int] | None = None
        self.engine: IntervalEngine | None = None
        try:
            # a grid that may take tables has at most 20 types; that test
            # comes first, as the shift by the type count may be vast
            if (
                n_types < ONE_CELL_BITS.bit_length()
                and sum(map(size, formulas)) * n_types << n_types <= ONE_CELL_BITS
            ):
                self.rows = 1 << n_types
                self.extents, reads, self.start, masks = _presence(family, len(self.props))
                roots = [f.operand if type(f) is Not else f for f in formulas]
                subs, left, right, at = programs(roots)
                tables = _root_table(
                    (subs, left, right), dict(zip(self.props, masks)), self.rows,
                    n_types * self.rows, reads, self.extents,
                )
                self.tables = {g: tables[i] for g, i in zip(roots, at)}
            else:
                # bound to one trace in every extent until a search binds
                # its own; a standpoint outside the family is a KeyError.
                # TOP is the root of the empty conjunction
                self.leaves = {Prop(p): i for i, p in enumerate(self.props)}
                self.universe = frozenset().union(*family)
                self.engine = IntervalEngine(
                    [*formulas, TOP], 1, 0, 1, dict.fromkeys(self.universe, 1), self.leaves
                )
        except KeyError as exc:
            raise ValueError(f"standpoint {exc.args[0]} is outside the grid universe") from None

    def _bind(self, columns: Sequence[int]) -> None:
        """Shape the engine to one position of ``len(columns)`` traces,
        trace ``j`` in column ``columns[j]``, and bind each standpoint's
        extent: the traces of the columns whose label set holds it."""
        self.engine.reshape(len(columns), 0, 1)
        self.engine.bind({
            sp: sum(1 << j for j, c in enumerate(columns) if sp in self.family[c])
            for sp in self.universe
        })

    def truths(self, formulas: Sequence[Formula], present: int, dv: int) -> list[int]:
        """Each formula's truth, 1 or 0, at type ``dv`` when the types
        ``present`` are; the formulas are compiled ones, not negations.
        The engine reads them on one trace per present type."""
        if self.tables is not None:
            at = dv * self.rows + _flip(present, self.n_types)
            return [self.tables[g] >> at & 1 for g in formulas]
        types = _set_bits(present)
        n = len(self.props)
        self._bind([t >> n for t in types])
        tm = [sum(1 << j for j, t in enumerate(types) if t >> i & 1) for i in range(n)]
        lo, _ = self.engine.sweep(tm, [self.engine.full ^ m for m in tm])
        at = types.index(dv)
        return [lo[self.engine.slot[g]] >> at & 1 for g in formulas]


@functools.lru_cache(maxsize=16)
def _presence(
    family: tuple[frozenset[Standpoint], ...], n_props: int
) -> tuple[dict[Standpoint, int], dict[Standpoint, list[tuple[int, int]]], int, list[int]]:
    """What a table grid's tables are built from: each standpoint's
    extent, a mask of types (those of the columns whose label set holds
    it), its blocks as ``_root_table`` reads them, (bit offset, the rows
    that hold the type), each proposition's table, true in every row of
    the types whose valuation has it, and the search's start mask, whose
    block of each type of column 0 holds the rows that hold that type and
    a type of every column.  Built by doubling (``_table_masks``,
    ``cells_with_bit``), not row by row, and shared, so no caller may
    change them."""
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
    column = (1 << v_count) - 1
    # every label set holds the universal standpoint
    extents = {
        sp: sum(column << c * v_count for c, labels in enumerate(family) if sp in labels)
        for sp in frozenset().union(*family)
    }
    reads = {
        sp: [(t * rows, h) for t, h in enumerate(holds) if ext >> t & 1]
        for sp, ext in extents.items()
    }
    # bit i of a type's valuation is bit n_types + i of a bit index in its block
    masks = [cells_with_bit(n_types * rows, n_types + i) for i in range(n_props)]
    return extents, reads, start, masks


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
    modal truth only reads the per-column valuation sets.  A valid one
    makes the conjunction hold at the designated type and gives every
    column at least one type.

    A grid with tables (see ``CompiledGrid``: grids whose tables fit
    ``ONE_CELL_BITS``) answers in one node with the least valid
    assignment in this order: the designated valuation first, then the
    other types in ascending order, absent before present.  The AND of
    the conjuncts' tables, the complement for a negation, with the grid's
    ``start`` mask has, in the block of each designated valuation of
    column 0, the rows of its valid assignments.  A row is a presence set
    with type 0 as its most significant bit, so the least set bit is the
    least designated valuation with a valid row and its least row.

    Every other grid decides one one-position stratum of slot traces with
    the bounded search's walk, ``search._search_stratum``; ``_slots``
    lays it out from the conjuncts alone, so the model depends on the
    conjunction, not on the other formulas the grid was compiled over.
    The model's present types are the (column, valuation) types of the
    slots, and its designated valuation is slot 0's.

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
    n = len(grid.props)
    columns, cells = _slots(grid, conjuncts)
    roots = [grid.engine.slot[g] for g in conjuncts or [TOP]]
    tm = _search_stratum(grid.engine, roots, n, cells, budget, "grid search")
    if tm is None:
        return None
    present = 0
    for j, c in enumerate(columns):
        present |= 1 << (c << n | sum((m >> j & 1) << i for i, m in enumerate(tm)))
    return present, sum((m & 1) << i for i, m in enumerate(tm))


def _slots(
    grid: CompiledGrid, conjuncts: Sequence[Formula]
) -> tuple[list[int], list[tuple[int, int, int, int]]]:
    """The slot stratum of a search of the conjunction on an engine grid:
    the column of each slot, and the cells ``_search_stratum`` assigns; the
    grid's engine is left shaped and bound to the slots.

    Each slot is one trace in one column.  Column ``c`` gets one slot per
    modal subformula of the conjuncts (either polarity, any depth) whose
    standpoint its label set holds, plus the designated slot 0 in column
    0, and at least one.  That many suffice (Ladner's bound for S5: one
    world per modal subformula, plus one): in any model, give slot 0 the
    designated type, give each modal subformula a slot in the column of a
    type that decides it (one where its operand holds, for a diamond that
    holds, or fails, for a box that fails), and every other slot any type
    of its column.  Those types are a model in which every subformula
    keeps its truth at each of them, since each modality sees no type it
    did not see before and still sees the one that decides it.  Extents
    are the slots of their columns, so a sharpening atom holds iff its
    columns nest.

    A proposition is read at slot 0 where it occurs outside every modal
    operand, and at the slots of the extent of the innermost modality
    above each other occurrence; its other cells are never read and stay
    false.  The read cells are listed proposition-major, slots ascending:
    a proposition is decided at every slot before the next one is
    touched, which refutes a conjunction that one proposition dooms in
    about two nodes per cell of it (ring(6) takes 19 grid nodes, and
    over 10 million in the node-major order).  Two slots of one column
    other than slot 0 are interchangeable, so each is paired with the
    slot before it (``prev``), which reads the same propositions.
    """
    subs, left, right, at = programs(conjuncts)
    # who reads each subformula: None for slot 0, where it occurs outside
    # every modal operand, and the standpoint of the innermost modality
    # above each other occurrence; parents come after their children, so
    # a walk back visits every parent of a subformula before it
    readers: list[set[Standpoint | None]] = [set() for _ in subs]
    for i in at:
        readers[i].add(None)
    modal = []
    for i in range(len(subs) - 1, -1, -1):
        g = subs[i]
        inner = readers[i]
        if type(g) is DiamondS or type(g) is BoxS:
            modal.append(g.standpoint)
            inner = {g.standpoint}
        for c in (left[i], right[i]):
            if c >= 0:
                readers[c] |= inner
    columns = []
    for c, labels in enumerate(grid.family):
        columns += [c] * max((c == 0) + sum(sp in labels for sp in modal), 1)
    grid._bind(columns)
    slots = {None: 1, **grid.engine.masks}
    read = [0] * len(grid.props)
    for g, who in zip(subs, readers):
        if type(g) is Prop:
            for sp in who:
                read[grid.leaves[g]] |= slots[sp]
    cells = [
        (p, 1 << j, j, 1 << j - 1 if j > 1 and columns[j - 1] == columns[j] else 0)
        for p, mask in enumerate(read)
        for j in range(len(columns))
        if mask >> j & 1
    ]
    return columns, cells


def expand(
    grid: CompiledGrid, present: int, dv: int
) -> tuple[tuple[frozenset[str], ...], ...]:
    """The columns of the grid model of the present types, with the
    designated valuation ``dv`` first in column 0: column ``c`` lists the
    valuations it carries, each once, in type order."""
    v_count = grid.v_count
    columns = []
    for c in range(len(grid.family)):
        chosen = _set_bits(present >> (c * v_count) & (1 << v_count) - 1)
        if c == 0:
            chosen = [dv] + [v for v in chosen if v != dv]
        columns.append(tuple(
            frozenset(p for i, p in enumerate(grid.props) if v >> i & 1) for v in chosen
        ))
    return tuple(columns)


def _set_bits(mask: int) -> list[int]:
    """The indices of the set bits of ``mask``, ascending: one step per set
    bit, not per bit, as a column may span millions of types."""
    found = []
    while mask:
        found.append((mask & -mask).bit_length() - 1)
        mask &= mask - 1
    return found
