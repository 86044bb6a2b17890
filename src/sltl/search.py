"""Searches over lasso models: the interval engine, the one-cell check and
the bounded search.

``IntervalEngine`` computes three-valued truth bounds of formulas over a
partially assigned lasso; the PSL grid search, the automaton's state
enumeration and the bounded search here all prune with it.  The bounded
search is a brute-force satisfiability search: exhaustive within its
bounds, sound for SAT, inconclusive for UNSAT.  It decides every
one-position stratum within ``ONE_CELL_BITS`` by truth table, with no
engine (``_table_stratum``), and walks every other stratum with one
engine, compiled once and moved to each stratum's shape and standpoint
assignment.  ``one_cell_model`` is the table's one-trace case, the
search's first stratum, which ``solve`` tries on every input.  The PSL
grids within the same cap take their tables from the same evaluator
(``_root_table``), with presence sets as rows, and every other PSL grid
search is one one-position stratum of slot traces, walked by the same
loop as the bounded search's strata (``_search_stratum``).  Nothing
here checks a model: ``solve`` checks every witness with
``semantics.evaluate``, which imports nothing of this module, and this
module takes only the model classes from ``semantics``.
"""

from __future__ import annotations

import functools
from collections.abc import Iterable, Iterator, Sequence

from .semantics import SLTLModel, UPTrace
from .syntax import (
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
    Top,
    UNIVERSAL,
    Until,
    _FrozenRecord,
    program,
    size,
    subformulas,
    vocab,
)

DEFAULT_NODE_LIMIT = 10_000_000
# ``one_cell_model`` skips a formula whose masks could hold more bits in
# total than this: ``size(f) * 2^props``, of the formula it reads; ``solve``
# gives it the input before constant folding.  The bounded search sends a
# one-position stratum to the engine, not the table, when the bits of its
# tables, ``size(f) * read traces * 2^(read traces * props)``, exceed it,
# and ``psl.CompiledGrid`` compiles an engine, not tables, for a grid whose
# tables would hold more: the sizes of its formulas summed, times
# ``types * 2^types``
ONE_CELL_BITS = 1 << 20


class SearchLimitError(RuntimeError):
    """A search exceeded its node budget, the automaton its state limit, or
    a search refused to start because its tables would exceed ``limit``
    (``message`` then says which); ``layer`` names the search: "bounded
    search", "grid search" or "automaton"."""

    def __init__(self, limit: int, layer: str = "bounded search", message: str = ""):
        super().__init__(
            message or f"{layer} exceeded the node limit of {limit} at node {limit + 1}"
        )
        self.limit = limit
        self.layer = layer


class SearchBounds(_FrozenRecord):
    """Bounds of the brute-force search, with an explicit vocabulary:
    ``props`` must cover the propositions of the searched formula, and
    those it names but the formula does not read are false in every cell
    of a model the search returns."""

    __slots__ = ("max_traces", "max_prefix", "max_period", "props")

    def __init__(self, max_traces: int, max_prefix: int, max_period: int, props: tuple[str, ...]):
        if max_traces < 1 or max_period < 1 or max_prefix < 0:
            raise ValueError("bounds must allow at least one trace and period position")
        object.__setattr__(self, "max_traces", max_traces)
        object.__setattr__(self, "max_prefix", max_prefix)
        object.__setattr__(self, "max_period", max_period)
        object.__setattr__(self, "props", tuple(sorted(set(props))))

    @staticmethod
    def for_formula(f: Formula, max_traces: int, max_prefix: int, max_period: int) -> "SearchBounds":
        return SearchBounds(max_traces, max_prefix, max_period, tuple(vocab(f).props))


# ---------------------------------------------------------------------------
# Interval engine: three-valued truth bounds over a partially assigned model

_OP_CONST, _OP_LEAF, _OP_NOT, _OP_AND, _OP_OR, _OP_NEXT, _OP_UNTIL = range(7)
_OP_TOP, _OP_SOME_AT, _OP_ALL_AT, _OP_SHARPER = range(7, 11)


class IntervalEngine:
    """Lower/upper truth masks of formulas over a partially assigned lasso.

    Bit ``trace * L + node`` of a mask is the truth value at that cell.  The
    lower mask is true where a formula holds in every completion of the
    assignment, the upper mask where it holds in some completion; they
    coincide once every relevant cell is assigned.  Modalities quantify
    over every trace of their extent.

    The formulas are compiled into a program, one slot per compiled formula
    (``slot``), whose modal instructions name their standpoint and whose
    sharpening atoms name their two standpoints.  The program does not
    depend on the lasso shape (trace count, prefix, period), so
    ``reshape`` moves an engine to any shape.  ``bind`` turns the program
    into the instruction list for one standpoint assignment at the current
    shape: each modality gets the op of the shape, each standpoint's
    extent, a trace mask (bit ``t``: trace ``t`` is in it), becomes a cell
    mask in the modal instructions, each sharpening atom folds to a
    constant and ``TOP`` to the mask of every cell.  The constructor binds
    ``extents``; the bounded search compiles one engine, and reshapes and
    rebinds it for every shape and standpoint assignment.  ``sweep``
    interprets the bound instructions.  Leaves are the formulas of the
    ``leaves`` map, whose cells are read from the ``tm``/``fm`` entry it
    names.  The compile is one pass over ``subformulas(*formulas,
    known=leaves)``, one instruction per formula; an Until whose companion
    ``X(a U b)`` is a leaf gets the two of ``b | (a & X(a U b))``, which
    holds on every lasso.  On a one-position lasso (``L == 1``) a cell is
    a trace, the shift of ``X a`` gives ``a`` and the fixpoint of ``a U b``
    gives ``b``.

    Three searches run on it, each with propositions or closure members as
    leaves: ``bounded_search`` below on lassos of two or more positions,
    and on a one-position stratum only when its truth table would exceed
    ``ONE_CELL_BITS``; the PSL grid search of ``psl.CompiledGrid`` on
    grids whose tables would exceed the same cap, which walks one
    one-position stratum of slot traces as the bounded search walks its
    strata (``_search_stratum``); and the state enumeration of
    ``automaton.StateSpace`` (one cell per assignment of the last branch
    members).  The ops that one-position sweeps run keep the first places
    in ``sweep``'s chain of tests.
    """

    def __init__(
        self,
        formulas: Sequence[Formula],
        t_count: int,
        prefix: int,
        period: int,
        extents: dict[Standpoint, int],
        leaves: dict[Formula, int],
    ):
        program: list[tuple[int, int, int, object]] = [(_OP_LEAF, 0, 0, i) for i in leaves.values()]
        slot: dict[Formula, int] = dict(zip(leaves, range(len(program))))
        # the Untils whose next-step companion is a leaf, mapped to it
        unfold = {
            g.operand: g for g in leaves if isinstance(g, Next) and isinstance(g.operand, Until)
        }
        # one instruction per formula, children before parents
        for g in subformulas(*formulas, known=leaves):
            cls = type(g)
            if cls is And:
                ins = (_OP_AND, slot[g.left], slot[g.right], None)
            elif cls is Or:
                ins = (_OP_OR, slot[g.left], slot[g.right], None)
            elif cls is Not:
                ins = (_OP_NOT, slot[g.operand], 0, None)
            elif cls is Until:
                if g in unfold:
                    program.append((_OP_AND, slot[g.left], slot[unfold[g]], None))
                    ins = (_OP_OR, slot[g.right], len(program) - 1, None)
                else:
                    ins = (_OP_UNTIL, slot[g.left], slot[g.right], None)
            elif cls is Next:
                ins = (_OP_NEXT, slot[g.operand], 0, None)
            elif cls is DiamondS:
                ins = (_OP_SOME_AT, slot[g.operand], 0, g.standpoint)
            elif cls is BoxS:
                ins = (_OP_ALL_AT, slot[g.operand], 0, g.standpoint)
            elif cls is Top:
                ins = (_OP_TOP, 0, 0, None)
            elif cls is Bottom:
                ins = (_OP_CONST, 0, 0, (0, 0))
            elif cls is Sharper:
                ins = (_OP_SHARPER, 0, 0, (g.left, g.right))
            else:
                raise TypeError(f"neither a leaf nor a connective: {g!r}")
            slot[g] = len(program)
            program.append(ins)
        self.program = program
        self.slot = slot
        # TOP and the instructions that name standpoints, the only ones
        # bind changes
        self.bound_at = [i for i, ins in enumerate(program) if ins[0] >= _OP_TOP]
        self.reshape(t_count, prefix, period)
        self.bind(extents)

    def reshape(self, t_count: int, prefix: int, period: int) -> None:
        """Set the lasso shape: ``t_count`` traces of ``prefix + period``
        nodes each, any shape, as the program stays; ``bind`` must follow
        before a sweep."""
        L = prefix + period
        self.L = L
        self.prefix = prefix
        self.block0 = block = (1 << L) - 1
        self.repl = ((1 << t_count * L) - 1) // block
        self.full = block * self.repl
        self.keep = self.full ^ (self.repl << (L - 1))
        # shifts that OR every trace's block into block 0
        self.folds = tuple(
            L << j for j in range(t_count.bit_length()) if 1 << j < t_count
        )
        # what ``sweep`` reads of the shape, loaded there at once
        self.constants = (self.full, block, self.repl, self.keep, self.folds, prefix, L - 1)

    def bind(self, extents: dict[Standpoint, int]) -> None:
        """Bind the program to one standpoint assignment: each standpoint's
        extent, a trace mask, becomes a cell mask (``masks``) in the modal
        instructions, and each sharpening atom and ``TOP`` becomes the
        constant it denotes at the current shape.  The bound instruction
        list is a copy of the program patched at ``bound_at``, the indices
        of those instructions, which the constructor records.  A standpoint
        missing from ``extents`` is a KeyError."""
        block, L, full = self.block0, self.L, self.full
        self.masks = masks = {
            sp: sum(block << (t * L) for t in range(m.bit_length()) if m >> t & 1)
            for sp, m in extents.items()
        }
        instrs = self.program.copy()
        for i in self.bound_at:
            op, a, b, aux = instrs[i]
            if op == _OP_TOP:
                instrs[i] = (_OP_CONST, 0, 0, (full, full))
            elif op == _OP_SHARPER:
                left, right = aux
                c = full if masks[left] | masks[right] == masks[right] else 0
                instrs[i] = (_OP_CONST, 0, 0, (c, c))
            else:
                instrs[i] = (op, a, b, masks[aux])
        self.instrs = instrs

    def sweep(self, tm: list[int], fm: list[int]) -> tuple[list[int], list[int]]:
        """(lower, upper) masks of every slot.

        ``tm``/``fm`` hold per leaf the cells assigned true/false.  ``X``
        moves each bit to the node before it within its trace (the last
        node reads the first node of the period), ``U`` is the least
        fixpoint of ``u = b | (a & X u)``, and a modal op ORs every trace's
        masked block into block 0 and copies it to every trace.
        """
        count = len(self.instrs)
        lo = [0] * count
        hi = [0] * count
        full, block, repl, keep, folds, prefix, last = self.constants
        for i, (op, a, b, aux) in enumerate(self.instrs):
            if op == _OP_LEAF:
                lo[i] = tm[aux]
                hi[i] = full ^ fm[aux]
            elif op == _OP_NOT:
                lo[i] = full ^ hi[a]
                hi[i] = full ^ lo[a]
            elif op == _OP_AND:
                lo[i] = lo[a] & lo[b]
                hi[i] = hi[a] & hi[b]
            elif op == _OP_OR:
                lo[i] = lo[a] | lo[b]
                hi[i] = hi[a] | hi[b]
            elif op == _OP_CONST:
                lo[i], hi[i] = aux
            elif op == _OP_SOME_AT or op == _OP_ALL_AT:
                # a box is the dual of a diamond: it flips its operand's
                # bits and its own
                flip = 0 if op == _OP_SOME_AT else full
                x, y = (lo[a] ^ flip) & aux, (hi[a] ^ flip) & aux
                for sh in folds:
                    x |= x >> sh
                    y |= y >> sh
                lo[i] = (x & block) * repl ^ flip
                hi[i] = (y & block) * repl ^ flip
            elif op == _OP_NEXT:
                x, y = lo[a], hi[a]
                lo[i] = x >> 1 & keep | (x >> prefix & repl) << last
                hi[i] = y >> 1 & keep | (y >> prefix & repl) << last
            else:
                for bound in lo, hi:
                    x, y = bound[a], bound[b]
                    u, step = 0, y
                    while step != u:
                        u, step = step, y | x & (step >> 1 & keep | (step >> prefix & repl) << last)
                    bound[i] = u
        return lo, hi


def cells_with_bit(n: int, i: int) -> int:
    """The mask of the cells ``0 .. n - 1`` whose index has bit ``i`` set,
    built by doubling a block of ``2^(i + 1)`` cells, not cell by cell."""
    half = 1 << i
    m, width = ((1 << half) - 1) << half, 2 * half
    while width < n:
        m |= m << width
        width *= 2
    return m & ((1 << n) - 1)


# ---------------------------------------------------------------------------
# Bounded satisfiability search

def _node_major_cells(
    engine: IntervalEngine, n_props: int, reach: Iterable[int], prev: dict[int, int]
) -> list[tuple[int, int, int, int]]:
    """The cells a bounded-search stratum assigns, as ``_search_stratum``
    takes them, in node-major order: the origin node first, then the cycle
    nodes, then the rest of the prefix, at each node the traces of
    ``reach`` ascending, and at each trace every proposition in turn.
    Traces outside ``reach`` (every modal extent, plus trace 0 unless the
    formula is trace-independent) get no cell: no satisfaction clause
    reads them."""
    L, prefix = engine.L, engine.prefix
    node_order = [0, *range(max(prefix, 1), L), *range(1, prefix)]
    return [
        (p, 1 << (t * L + k), t, 1 << (prev[t] * L + k) if t in prev else 0)
        for k in node_order
        for t in sorted(reach)
        for p in range(n_props)
    ]


def _search_stratum(
    engine: IntervalEngine,
    roots: list[int],
    n_props: int,
    cells: list[tuple[int, int, int, int]],
    budget: list[int],
    layer: str = "bounded search",
) -> list[int] | None:
    """The first valuation of one stratum that satisfies the formulas of
    the engine slots ``roots`` at trace 0, position 0, as one mask of true
    cells per proposition, or None.

    ``engine`` is shaped and bound to the stratum.  ``cells`` lists the
    cells to assign, each as (proposition, cell bit, trace, the cell bit
    of the same proposition and node at ``prev[trace]`` or 0); every other
    cell stays false, so the caller lists every cell that a satisfaction
    clause may read.  The bounded search lists its strata's cells
    node-major (``_node_major_cells``), every cell of the traces it reads;
    the grid search lists the read cells of its slot stratum
    proposition-major (``psl.grid_model_for``).  Cells are assigned false
    before true in that order, so together with interval pruning the walk
    returns exactly the first witness of the plain enumeration in that
    cell order.  It is a loop: each node sweeps the engine once and costs
    the budget one node, then assigns the next cell or backtracks over the
    assigned prefix to the deepest cell still false, which turns true.

    Symmetric assignments are skipped: ``prev`` maps a trace to one before
    it that every formula treats alike (the same standpoint profile, and
    not trace 0), and only valuations in which the two traces' sequences
    (in cell order) are sorted are searched.  The two traces' cells must
    pair up, listed in the same order, each cell of ``prev[t]`` before its
    pair of ``t``.  The first witness is kept.  The plain search returns
    the lex-least assignment in the cell order, and swapping two
    interchangeable traces whose sequences are out of order would give a
    smaller one, so that assignment is already sorted and every prefix of
    it passes the check.  ``lt_at[t]`` is the depth at which the sequences
    of ``prev[t]`` and ``t`` first differed on the current branch; an
    entry at the current depth or deeper (``end``, the cell count,
    included) was left by an abandoned branch or says they are equal so
    far, as a missing entry does, so backtracking restores nothing.  Only
    a false value can be forbidden, and the cell then takes true at no
    extra node.  SearchLimitError names ``layer`` as the search whose
    budget ran out.
    """
    sweep, every = engine.sweep, engine.full
    fm = [every] * n_props
    for p, bit, _, _ in cells:
        fm[p] ^= bit
    tm = [0] * n_props
    end = len(cells)
    lt_at: dict[int, int] = {}  # a trace missing is a trace equal so far
    root, *others = roots  # one root but in a grid search: no loop per node
    i = 0
    while i >= 0:
        budget[0] -= 1
        if budget[0] < 0:
            raise SearchLimitError(budget[1], layer)
        lo, hi = sweep(tm, fm)
        if hi[root] & 1 and (not others or all(hi[r] & 1 for r in others)):
            if lo[root] & 1 and (not others or all(lo[r] & 1 for r in others)):
                return tm
            assert i < end, "fully assigned model left undecided"
            p, bit, t, before = cells[i]
            masks = fm
            if before and lt_at.get(t, end) >= i:
                lt_at[t] = end  # equal so far, this cell included
                if tm[p] & before:
                    masks = tm  # false would sort trace t below prev[t]
            masks[p] |= bit
            i += 1
            continue
        i -= 1
        while i >= 0:
            p, bit, t, before = cells[i]
            if fm[p] & bit:
                fm[p] ^= bit
                tm[p] |= bit
                if before and lt_at.get(t, end) >= i:
                    lt_at[t] = i
                i += 1
                break
            tm[p] ^= bit
            i -= 1
    return None


def _lambda_assignments(n_sps: int, t_count: int, renamed: int) -> Iterator[tuple[int, ...]]:
    """Yield the assignments of non-empty extents of ``t_count`` traces to
    ``n_sps`` standpoints, one per orbit under the permutations of the
    traces from ``renamed`` on.

    An assignment is the tuple of its extents' trace masks, and
    assignments come in ascending tuple order.  The kept one, the least
    tuple of its orbit and so the first of it, is the one whose renamed
    traces have non-increasing profiles (the tuple of a trace's
    memberships, standpoint by standpoint).  Masks are chosen standpoint by
    standpoint, and a mask is skipped when it gives a trace a smaller
    profile than the renamed trace below it while the two are still tied.
    A mask constant on the renamed traces never is, so every prefix
    extends to a kept assignment.  A skipped mask jumps to the next mask
    that keeps the highest pair it breaks: the one that adds the lower
    trace of that pair and drops every trace below it, since every mask
    in between breaks the same pair.  After a jump only the pair just
    below can break, so the work between two yields is at most
    ``n_sps * t_count`` jumps, however many assignments the orbits hold.
    """
    if not n_sps:
        yield ()
        return
    top = 1 << t_count
    combo: list[int] = []
    # tied[i] has bit t when renamed traces t and t + 1 are in the same
    # extents among the first i standpoints; untried[i] is the next mask
    # to try for standpoint i
    tied = [((top >> 1) - 1) & -(1 << renamed)]
    untried = [1]
    while untried:
        i = len(untried) - 1
        mask = untried[i]
        if mask == top:
            untried.pop()
            tied.pop()
            if combo:
                combo.pop()
            continue
        broken = tied[i] & ~mask & mask >> 1
        if broken:
            # swapping a tied pair gives a smaller assignment
            low = 1 << (broken.bit_length() - 1)
            untried[i] = (mask | low) & -low
            continue
        untried[i] = mask + 1
        if i + 1 == n_sps:
            yield (*combo, mask)
        else:
            combo.append(mask)
            tied.append(tied[i] & ~(mask ^ mask >> 1))
            untried.append(1)


@functools.lru_cache(maxsize=16)
def _table_masks(n_props: int, n_traces: int) -> tuple[int, ...]:
    """Each proposition's mask in a truth table of ``n_traces`` read
    traces: bit ``v`` of block ``k`` is set when valuation ``v`` makes the
    proposition true at read trace ``k``.  A valuation has one bit per
    (read trace, proposition) cell, trace-major, the first cell its most
    significant bit.  The masks depend on the two counts alone, so the
    strata of a search, and inputs with as many propositions, share them
    from a small cache.  They are built only for tables within
    ``ONE_CELL_BITS``, of a formula with a node per proposition, so no
    entry holds more bits than that cap."""
    width = n_traces * n_props
    rows = 1 << width
    return tuple(
        sum(cells_with_bit(rows, width - 1 - k * n_props - i) << k * rows for k in range(n_traces))
        for i in range(n_props)
    )


def _root_table(
    code: tuple[list[Formula], list[int], list[int]],
    masks: dict[str, int],
    rows: int,
    span: int,
    reads: dict[Standpoint, list[tuple[int, int]]] | None,
    extents: dict[Standpoint, int] | None,
) -> list[int]:
    """The truth tables of every subformula listed in ``code``, a flat
    ``program`` (``syntax.program`` or ``syntax.programs``), by list
    position, on a model of one position: one block of ``rows`` bits per
    trace, ``span`` bits in all, bit ``r`` of a block set when the
    subformula holds at that trace in row ``r``.

    A row is what the tables range over: a valuation of the read cells of
    a stratum (``_table_stratum``) or of the one-cell check, or a set of
    present types of a grid (``psl.CompiledGrid``, whose traces are its
    types).  ``masks`` gives each proposition its table.  ``reads`` gives
    each modal standpoint the blocks it quantifies over, as (bit offset of
    the block, row mask) pairs, the mask holding the rows at which that
    trace counts: every row of a stratum, the rows where the type is
    present in a grid.  It is None for a model of one trace, every extent
    that trace.  ``extents`` maps each standpoint to its extent, a trace
    mask, for the sharpening atoms, or is None for a model of one trace,
    where every one holds.  One loop over ``code``, children first, gives
    each subformula one table, and a connective finds its operands' tables
    by position.  On one position ``X a`` is ``a`` and ``a U b`` is
    ``b``; a diamond ORs its operand's blocks of its extent, each ANDed
    with its row mask, into one block, a box is the diamond's dual, and
    the result is copied to every block, as ``semantics.evaluate`` does;
    with ``reads`` None a modality is its operand.
    """
    full = (1 << span) - 1
    tables: list[int] = []  # by list position
    for g, a, b in zip(*code):
        cls = type(g)
        if cls is And:
            t = tables[a] & tables[b]
        elif cls is Or:
            t = tables[a] | tables[b]
        elif cls is Not:
            t = full ^ tables[a]
        elif cls is Prop:
            t = masks[g.name]
        elif cls is Until:
            t = tables[b]
        elif a >= 0:  # X, a diamond or a box
            if reads is None or cls is Next:
                t = tables[a]
            else:
                # a box is the dual of a diamond: it flips its operand's
                # bits and its own
                flip = full if cls is BoxS else 0
                operand, m = tables[a] ^ flip, 0
                for sh, row_mask in reads[g.standpoint]:
                    m |= operand >> sh & row_mask
                # copied to every block by doubling: a product with a
                # replicator costs more than linear time on wide tables
                w = rows
                while w < span:
                    m |= m << w
                    w <<= 1
                t = m & full ^ flip
        elif cls is Bottom:
            t = 0
        elif extents is None or cls is Top:
            t = full
        else:
            right = extents[g.right]
            t = full if extents[g.left] | right == right else 0
        tables.append(t)
    return tables


def _table_stratum(
    f: Formula, props: list[str], traces: list[int], extents: dict[Standpoint, int]
) -> list[int] | None:
    """The first valuation of a one-position stratum that satisfies ``f``
    at trace 0, as one mask of true traces per proposition of ``props``,
    or None: by truth table (``_root_table``), with no engine.

    ``props`` are the propositions ``f`` reads, sorted, and ``traces`` the
    traces the stratum reads, ascending: every modal extent, plus trace 0
    unless ``f`` is trace-independent (trace 0 alone when that leaves
    none).  The other traces are false throughout.  A row is a valuation
    of each (read trace, proposition) cell as ``_table_masks`` lays them
    out, the cell order of ``_search_stratum``, and every row counts at
    every read trace.  The least set bit of the root's table, read at the
    first read trace (trace 0, or for a trace-independent ``f`` a trace
    where it equals every trace's), is the lex-least valuation that
    satisfies ``f``: the first model of ``_search_stratum``, whose
    symmetry check never forbids it.
    """
    n = len(props)
    width = len(traces) * n
    rows = 1 << width  # valuations, the bits of a block
    block = (1 << rows) - 1
    masks = dict(zip(props, _table_masks(n, len(traces))))
    # the block offsets of each standpoint's extent; one read trace is
    # every modal extent
    reads = None if len(traces) == 1 else {
        sp: [(k * rows, block) for k, t in enumerate(traces) if ext >> t & 1]
        for sp, ext in extents.items()
    }
    table = _root_table(program(f), masks, rows, len(traces) * rows, reads, extents)[-1] & block
    if not table:
        return None
    v = (table & -table).bit_length() - 1
    tm = [0] * n
    while v:  # its true cells, from the most significant
        top = v.bit_length() - 1
        k, i = divmod(width - 1 - top, n)
        tm[i] |= 1 << traces[k]
        v ^= 1 << top
    return tm


def one_cell_model(f: Formula) -> tuple[SLTLModel, str] | None:
    """The model of ``f`` with one trace and one position, from the least
    valuation that satisfies it, or None: none does, or the check is
    skipped because ``size(f) * 2^props``, the bits of all its truth
    tables, exceeds ``ONE_CELL_BITS``.

    It is the bounded search's first stratum (1, 0, 1), decided as that
    search decides every one-position stratum, by ``_root_table``'s
    truth table, in its one-trace case: every extent is the one trace, so
    ``<@s> a``, ``[@s] a`` and ``X a`` mean ``a``, ``a U b`` means ``b``
    and every sharpening atom holds.  ``f`` is a propositional formula
    there, constants included, so it need not be folded first.  The table
    is a mask over the valuations of the propositions ``f`` reads (its
    memoised ``vocab``), the first proposition the most significant bit,
    and the least set bit of the root's table is the model the search
    returns: trace ``t0``, prefix 0, period 1 and every extent ``{t0}``.
    The vocabulary is one pass over the program of one walk of ``f``,
    both memoised on it, so the witness check of a hit
    (``semantics.evaluate`` on the same ``f``) walks nothing again.
    """
    voc = vocab(f)
    props = sorted(voc.props)
    n = len(props)
    if size(f) << n > ONE_CELL_BITS:
        return None
    rows = 1 << n
    masks = dict(zip(props, _table_masks(n, 1)))
    table = _root_table(program(f), masks, rows, rows, None, None)[-1]
    if not table:
        return None
    cell = (table & -table).bit_length() - 1
    valuation = frozenset(p for i, p in enumerate(props) if cell >> (n - 1 - i) & 1)
    # a formula with a standpoint construct lists the universal one too
    lam = dict.fromkeys(voc.standpoints or (UNIVERSAL,), frozenset({"t0"}))
    return SLTLModel({"t0": UPTrace((), (valuation,))}, lam, 0, 1), "t0"


def bounded_search(
    f: Formula,
    bounds: SearchBounds,
    *,
    node_limit: int = DEFAULT_NODE_LIMIT,
) -> tuple[SLTLModel, str] | None:
    """First model of ``f`` within the bounds, or None if none exists there.

    Enumeration order: trace count ascending, then (prefix, period)
    lexicographic, then standpoint assignments over the standpoints of the
    formula (non-empty extents, the universal one fixed to everything), then
    valuations of the propositions ``f`` reads (the others of
    ``bounds.props`` are false throughout, so they multiply no stratum's
    cells).  The designated trace is always ``t0``, and only the first
    assignment of each orbit under renaming the other traces is searched
    (under renaming every trace when the formula is trace-independent; see
    ``_lambda_assignments``).  Renaming traces preserves truth, so a model
    at any assignment and designated trace is, renamed, a model at ``t0``
    and a kept assignment of the same stratum: the first stratum with a
    model, and the first model when it designates ``t0``, are those of the
    search over every assignment and designated trace.

    A stratum of one position (prefix 0, period 1) is decided by truth
    table (``_table_stratum``), in one node, unless its tables would hold
    more than ``ONE_CELL_BITS`` bits: ``size(f)`` masks of one block of
    ``2^(read traces * props)`` bits per read trace.  Its least satisfying
    valuation is the first witness of the engine's walk, so the model does
    not depend on which decides it.  The first stratum, one trace of one
    position, is ``one_cell_model``'s, which ``solve`` tries first on the
    unfolded input; after a miss there the search decides it again, on the
    folded input, in one node.  Every other stratum is walked with the
    interval engine, which prunes with interval bounds but visits
    witnesses in the plain enumeration order, so the first one returned
    is deterministic.  The search holds one engine, with the formula's
    propositions as leaves: it is compiled when a stratum first needs it,
    then reshaped to each (trace count, prefix, period) shape and bound to
    each kept assignment of that shape in turn.  Kept assignments are made
    as the search reaches them, and every stratum costs the budget at
    least a node, so a search over many standpoints exits at its node
    limit rather than listing every assignment first.  Which traces a
    stratum reads is decided by the formula's ``Vocabulary``, and the
    table and the engine read the list of its ``program``: one walk of
    ``f`` serves all three.  The formula ``false``, which constant folding
    makes of an input with no model on any shape, has no model within any
    bounds: it answers None at once, with no engine compiled and no node
    spent.  The model is not checked here: ``solve`` checks every witness
    it returns, and a direct caller can with ``solver.check_witness``.
    """
    if type(f) is Bottom:
        return None
    voc = vocab(f)
    missing = voc.props - set(bounds.props)
    if missing:
        raise ValueError(f"bounds do not cover propositions: {sorted(missing)}")
    sps = sorted((s for s in voc.standpoints if not s.is_universal), key=lambda s: s.name)
    # Formulas with no standpoint construct read only the designated trace,
    # so larger models add nothing; trace-independent formulas hold at
    # every trace whenever they hold at one, so the designated trace may be
    # renamed too.
    max_traces = bounds.max_traces if voc.standpoints else 1
    independent = voc.trace_independent
    budget = [node_limit, node_limit]
    # cells for the propositions ``f`` reads; the rest are false throughout
    props = sorted(voc.props)
    f_size = size(f)
    engine = None
    for t_count in range(1, max_traces + 1):
        ids = range(t_count)
        for prefix in range(bounds.max_prefix + 1):
            for period in range(1, bounds.max_period + 1):
                one = prefix + period == 1
                if engine is not None:
                    engine.reshape(t_count, prefix, period)
                for combo in _lambda_assignments(len(sps), t_count, 0 if independent else 1):
                    lam_idx = {**dict(zip(sps, combo)), UNIVERSAL: (1 << t_count) - 1}
                    read = 0 if independent else 1
                    for sp in voc.modal:
                        read |= lam_idx[sp]
                    reach = [t for t in ids if read >> t & 1]
                    blocks = len(reach) or 1  # a truth table's, one per read trace
                    if one and f_size * blocks << blocks * len(props) <= ONE_CELL_BITS:
                        budget[0] -= 1
                        if budget[0] < 0:
                            raise SearchLimitError(budget[1])
                        tm = _table_stratum(f, props, reach or [0], lam_idx)
                    else:
                        # each read trace but t0 to the one before it with its profile
                        prev, last = {}, {}
                        for t in reach:
                            if t:
                                profile = tuple(ext >> t & 1 for ext in combo)
                                if profile in last:
                                    prev[t] = last[profile]
                                last[profile] = t
                        if engine is None:
                            leaves = {Prop(p): i for i, p in enumerate(props)}
                            engine = IntervalEngine([f], t_count, prefix, period, lam_idx, leaves)
                        else:
                            engine.bind(lam_idx)
                        cells = _node_major_cells(engine, len(props), reach, prev)
                        tm = _search_stratum(engine, [engine.slot[f]], len(props), cells, budget)
                    if tm is not None:
                        return _model(props, tm, t_count, prefix, period, lam_idx), "t0"
    return None


def _model(
    props: list[str], tm: list[int], t_count: int, prefix: int, period: int,
    extents: dict[Standpoint, int],
) -> SLTLModel:
    """The model of a stratum's valuation: ``tm`` holds one mask of true
    cells per proposition of ``props``, bit ``t * L + k`` for node ``k`` of
    trace ``t``, and ``extents`` each standpoint's trace mask.  Each trace
    id, each distinct valuation's set and each distinct extent's set is
    made once."""
    L = prefix + period
    names = [f"t{t}" for t in range(t_count)]
    made: dict[tuple[int, ...], frozenset[str]] = {}  # by valuation bits
    traces = {}
    cell = 0
    for name in names:
        vals = []
        for _ in range(L):
            bits = tuple([m >> cell & 1 for m in tm])
            val = made.get(bits)
            if val is None:
                val = made[bits] = frozenset([p for p, bit in zip(props, bits) if bit])
            vals.append(val)
            cell += 1
        traces[name] = UPTrace(tuple(vals[:prefix]), tuple(vals[prefix:]))
    members: dict[int, frozenset[str]] = {}  # by extent mask
    lam = {}
    for sp, ext in extents.items():
        ids = members.get(ext)
        if ids is None:
            ids = members[ext] = frozenset([names[t] for t in range(t_count) if ext >> t & 1])
        lam[sp] = ids
    return SLTLModel(traces, lam, prefix, period)
