"""Searches over lasso models: the interval engine, the one-cell check and
the bounded search.

``IntervalEngine`` computes three-valued truth bounds of formulas over a
partially assigned lasso; the PSL grid search, the automaton's state
enumeration and the bounded search here all prune with it.  The bounded
search is a brute-force satisfiability search: exhaustive within its
bounds, sound for SAT, inconclusive for UNSAT.  It decides every
one-position stratum by truth table, with no engine (``_table_stratum``),
and ``one_cell_model`` is that table's one-trace case, the search's first
stratum, which ``solve`` tries on every input.  Nothing here checks a
model: ``solve`` checks every witness with ``semantics.evaluate``, which
imports nothing of this module, and this module takes only the model
classes from ``semantics``.
"""

from __future__ import annotations

import functools
from collections.abc import Iterator, Sequence

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
# tables, ``size(f) * read traces * 2^(read traces * props)``, exceed it
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
_OP_TOP, _OP_SOME, _OP_ALL, _OP_SOME_AT, _OP_ALL_AT, _OP_SHARPER = range(7, 13)


class IntervalEngine:
    """Lower/upper truth masks of formulas over a partially assigned lasso
    whose traces may themselves be only possibly present.

    Bit ``trace * L + node`` of a mask is the truth value at that cell.  The
    lower mask is true where a formula holds in every completion of the
    assignment, the upper mask where it holds in some completion; they
    coincide once every relevant cell and every presence bit is assigned.
    Modalities quantify over the present traces of their extent.  Presence
    is read only by the one-position modal ops, those the grid search
    uses; a longer lasso is the bounded search's, whose traces are all
    present, so its modal ops read the extent alone.

    The formulas are compiled into a program, one slot per compiled formula
    (``slot``), whose modal instructions name their standpoint and whose
    sharpening atoms name their two standpoints.  The program depends on
    the lasso shape (trace count, prefix, period) only through ``L == 1``,
    so ``reshape`` moves an engine to any shape with the same ``L == 1``.
    ``bind`` turns the program into the instruction list for one standpoint
    assignment at the current shape: each standpoint's extent, a trace
    mask (bit ``t``: trace ``t`` is in it), becomes a cell mask in the
    modal instructions, each sharpening atom folds to a constant and
    ``TOP`` to the mask of every cell.  The constructor binds ``extents``;
    the bounded search compiles one engine per value of ``L == 1`` that
    it needs, and reshapes and rebinds it for every shape and standpoint
    assignment.  ``sweep`` interprets the bound instructions.  Leaves are
    the formulas of the ``leaves`` map, whose cells are read from the ``tm``/``fm`` entry it
    names.  The compile is one pass over ``subformulas(*formulas,
    known=leaves)``, one instruction per formula; an Until whose companion
    ``X(a U b)`` is a leaf gets the two of ``b | (a & X(a U b))``, which
    holds on every lasso.  On a one-position
    lasso (``L == 1``) a cell is a trace, ``X a`` is ``a``, ``a U b`` is
    ``b`` and a modality is one mask test, which knows that no extent is
    empty in a completion.

    Three searches run on it: ``bounded_search`` below (propositions as
    leaves, every trace present) on lassos of two or more positions, and
    on a one-position stratum only when its truth table would exceed
    ``ONE_CELL_BITS``; the PSL grid search of
    ``psl.CompiledGrid`` (a one-position lasso whose traces are the grid's
    (column, valuation) types, with presence masks), and the state
    enumeration of ``automaton.StateSpace`` (one cell per assignment of the
    last branch members, the closure's base members as leaves).  The
    grid search and the state enumeration sweep one-position engines, and
    their ops keep the first places in ``sweep``'s chain of tests.
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
        self.reshape(t_count, prefix, period)
        one = self.L == 1

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
                elif one:
                    slot[g] = slot[g.right]
                    continue
                else:
                    ins = (_OP_UNTIL, slot[g.left], slot[g.right], None)
            elif cls is Next:
                if one:
                    slot[g] = slot[g.operand]
                    continue
                ins = (_OP_NEXT, slot[g.operand], 0, None)
            elif cls is DiamondS:
                ins = (_OP_SOME if one else _OP_SOME_AT, slot[g.operand], 0, g.standpoint)
            elif cls is BoxS:
                ins = (_OP_ALL if one else _OP_ALL_AT, slot[g.operand], 0, g.standpoint)
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
        self.bind(extents)

    def reshape(self, t_count: int, prefix: int, period: int) -> None:
        """Set the lasso shape: ``t_count`` traces of ``prefix + period``
        nodes each.  The program stays, so the new shape must keep
        ``L == 1`` as compiled; ``bind`` must follow before a sweep."""
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
        constant it denotes at the current shape.  On a one-position lasso
        a trace is a cell, so the trace masks are the cell masks.  The bound
        instruction list is a copy of the program patched at ``bound_at``,
        the indices of those instructions, which the constructor records.
        A standpoint missing from ``extents`` is a KeyError."""
        block, L, full = self.block0, self.L, self.full
        self.masks = masks = extents if L == 1 else {
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

    def sweep(
        self, tm: list[int], fm: list[int], present: int, possible: int
    ) -> tuple[list[int], list[int]]:
        """(lower, upper) masks of every slot.

        ``tm``/``fm`` hold per leaf the cells assigned true/false;
        ``present``/``possible`` are the cells of the traces that are
        definitely/possibly present, which only a one-position lasso reads.
        ``X`` moves each bit to the node before it within its trace (the
        last node reads the first node of the period), ``U`` is the least
        fixpoint of ``u = b | (a & X u)``, and a multi-position modal op
        ORs every trace's masked block into block 0 and copies it to every
        trace.
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
            elif op == _OP_SOME:
                # an extent is never empty in a completion, so one of its
                # possible traces is present
                lo[i] = full if lo[a] & aux & present or not ~lo[a] & aux & possible else 0
                hi[i] = full if hi[a] & aux & possible else 0
            elif op == _OP_ALL:
                lo[i] = 0 if ~lo[a] & aux & possible else full
                hi[i] = 0 if ~hi[a] & aux & present or not hi[a] & aux & possible else full
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

def _search_stratum(
    engine: IntervalEngine,
    f: Formula,
    n_props: int,
    reach: list[int],
    prev: dict[int, int],
    budget: list[int],
) -> list[int] | None:
    """The first valuation of one (traces, shape, standpoint assignment)
    stratum that satisfies ``f`` at trace 0, position 0, as one mask of
    true cells per proposition, or None.

    ``engine`` is compiled for the shape and bound to the assignment.
    Cells are assigned false before true in a fixed order (the origin node
    first, then the cycle nodes, then the rest of the prefix), so together
    with interval pruning the walk returns exactly the first witness of
    the plain enumeration in that cell order.  It is a loop: each node
    sweeps the engine once and costs the budget one node, then assigns the
    next cell or backtracks over the assigned prefix to the deepest cell
    still false, which turns true.  Traces outside ``reach`` (every modal
    extent, plus trace 0 unless the formula is trace-independent) stay
    empty: no satisfaction clause ever reads them.

    Symmetric assignments are skipped: ``prev`` maps a trace to the one
    before it with the same standpoint profile, and only valuations in
    which the two traces' sequences (in cell order) are sorted are
    searched.  The first witness is kept.  The plain search returns the
    lex-least assignment in this node-major cell order, and swapping two
    interchangeable traces whose sequences are out of order would give a
    smaller one, so that assignment is already sorted and every prefix of
    it passes the check.  ``lt_at[t]`` is the depth at which the sequences
    of ``prev[t]`` and ``t`` first differed on the current branch; an
    entry at the current depth or deeper (``len(cells)`` included) was
    left by an abandoned branch or says they are equal so far, so
    backtracking restores nothing.  Only a false value can be forbidden,
    and the cell then takes true at no extra node.
    """
    L, prefix, every, block = engine.L, engine.prefix, engine.full, engine.block0
    sweep, root = engine.sweep, engine.slot[f]
    node_order = [0, *range(max(prefix, 1), L), *range(1, prefix)]
    # proposition, cell bit, trace, and the cell bit of prev[trace] or 0
    cells = [
        (p, 1 << (t * L + k), t, 1 << (prev[t] * L + k) if t in prev else 0)
        for k in node_order
        for t in sorted(reach)
        for p in range(n_props)
    ]
    unread = every ^ sum(block << (t * L) for t in reach)
    tm, fm = [0] * n_props, [unread] * n_props
    lt_at = dict.fromkeys(prev, len(cells))
    i = 0
    while i >= 0:
        budget[0] -= 1
        if budget[0] < 0:
            raise SearchLimitError(budget[1])
        lo, hi = sweep(tm, fm, every, every)
        if hi[root] & 1:
            if lo[root] & 1:
                return tm
            assert i < len(cells), "fully assigned model left undecided"
            p, bit, t, before = cells[i]
            masks = fm
            if before and lt_at[t] >= i:
                lt_at[t] = len(cells)  # equal so far, this cell included
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
                if before and lt_at[t] >= i:
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
    f: Formula, props: list[str], traces: list[int], extents: dict[Standpoint, int] | None
) -> int:
    """The truth table of ``f`` at the first of ``traces`` on a model of
    one position: bit ``v`` is set when valuation ``v`` satisfies it there.

    ``props`` are the propositions ``f`` reads, sorted, and ``traces`` the
    traces the stratum reads, ascending: every modal extent, plus trace 0
    unless ``f`` is trace-independent (trace 0 alone when that leaves
    none).  ``extents`` maps each standpoint of ``f`` to its extent, a
    trace mask, or is None for a model of one trace, where every extent is
    that trace.  The other traces are false throughout.  A valuation
    assigns each (read trace, proposition) cell as ``_table_masks`` lays
    them out, the cell order of ``_search_stratum``.  One loop over the
    flat ``program`` of ``f``, children first, gives each subformula one
    mask of one block per read trace, bit ``v`` of a block its truth at
    that trace under valuation ``v``; a connective finds its operands'
    masks by position.  On one position ``X a`` is ``a`` and ``a U b`` is
    ``b``; a modality ORs (diamond) or ANDs (box) the blocks of its
    extent's traces and copies the result to every block, as
    ``semantics.evaluate`` does, and with one read trace, its whole
    extent, it is its operand; a sharpening atom is a constant of
    ``extents``, true on a model of one trace.
    """
    rows = 1 << len(traces) * len(props)  # valuations, the bits of a block
    full = block = (1 << rows) - 1
    masks = dict(zip(props, _table_masks(len(props), len(traces))))
    single = len(traces) == 1
    if not single:
        span = len(traces) * rows
        full = (1 << span) - 1
        # the block offsets of each standpoint's extent
        shifts = {
            sp: [k * rows for k, t in enumerate(traces) if ext >> t & 1]
            for sp, ext in extents.items()
        }
    tables: list[int] = []  # by list position
    for g, a, b in zip(*program(f)):
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
            if single or cls is Next:
                t = tables[a]
            else:
                # a box is the dual of a diamond: it flips its operand's
                # bits and its own
                flip = full if cls is BoxS else 0
                operand, m = tables[a] ^ flip, 0
                for sh in shifts[g.standpoint]:
                    m |= operand >> sh & block
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
    return tables[-1] & block


def _table_stratum(
    f: Formula, props: list[str], traces: list[int], extents: dict[Standpoint, int]
) -> list[int] | None:
    """The first valuation of a one-position stratum that satisfies ``f``
    at trace 0, as one mask of true traces per proposition of ``props``,
    or None: by truth table (``_root_table``), with no engine.

    The least set bit of the root's table, read at trace 0 or, for a
    trace-independent ``f``, at a trace where it equals every trace's, is
    the lex-least valuation that satisfies ``f``: the first model of
    ``_search_stratum``, whose symmetry check never forbids it.
    """
    table = _root_table(f, props, traces, extents)
    if not table:
        return None
    v = (table & -table).bit_length() - 1
    n = len(props)
    width = len(traces) * n
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
    The program and the vocabulary come from one walk of ``f``, memoised
    on it, so the witness check of a hit (``semantics.evaluate`` on the
    same ``f``) walks nothing again.
    """
    voc = vocab(f)
    props = sorted(voc.props)
    n = len(props)
    if size(f) << n > ONE_CELL_BITS:
        return None
    table = _root_table(f, props, [0], None)
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
    folded input, in one node.  Every
    other stratum is walked with the interval engine, which prunes with
    interval bounds but visits witnesses in the plain enumeration order,
    so the first one returned is deterministic.  The engine is compiled
    only when a stratum needs it, once per value of ``prefix + period ==
    1``, reshaped to each (trace count, prefix, period) shape and bound to
    each kept assignment of that shape in turn.  Kept assignments are made
    as the search reaches them, and every stratum costs the budget at
    least a node, so a search over many standpoints exits at its node
    limit rather than listing every assignment first.  Which traces a
    stratum reads is decided by the formula's ``Vocabulary``, and the
    table and the engine read the list of its ``program``, both from the
    one walk of ``f``.  The formula ``false``, which constant folding
    makes of an input with no model on any shape, has no model within any bounds: it answers None at
    once, with no engine compiled and no node spent.  The model is not
    checked here: ``solve`` checks every witness it returns, and a direct
    caller can with ``solver.check_witness``.
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
    leaves = {Prop(p): i for i, p in enumerate(props)}
    f_size = size(f)
    engines: dict[bool, IntervalEngine] = {}  # by prefix + period == 1
    for t_count in range(1, max_traces + 1):
        ids = range(t_count)
        for prefix in range(bounds.max_prefix + 1):
            for period in range(1, bounds.max_period + 1):
                one = prefix + period == 1
                engine = engines.get(one)
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
                            engine = engines[one] = IntervalEngine(
                                [f], t_count, prefix, period, lam_idx, leaves
                            )
                        else:
                            engine.bind(lam_idx)
                        tm = _search_stratum(engine, f, len(leaves), reach, prev, budget)
                    if tm is not None:
                        L = prefix + period
                        traces = {}
                        for t in ids:
                            vals = [
                                frozenset(p for p, m in zip(props, tm) if m >> (t * L + k) & 1)
                                for k in range(L)
                            ]
                            traces[f"t{t}"] = UPTrace(tuple(vals[:prefix]), tuple(vals[prefix:]))
                        lam = {
                            sp: frozenset(f"t{t}" for t in ids if ext >> t & 1)
                            for sp, ext in lam_idx.items()
                        }
                        return SLTLModel(traces, lam, prefix, period), "t0"
    return None
