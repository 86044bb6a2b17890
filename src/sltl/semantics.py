"""Finitely presented models and ground-truth evaluation.

Traces are ultimately periodic (a lasso: prefix plus repeating period) and
every trace of a model shares one shape, so the product of all traces is
itself a lasso and Until has a finite backward fixpoint.  On top of the
evaluator sits a bounded brute-force satisfiability search: exhaustive
within its bounds, sound for SAT, inconclusive for UNSAT.  It prunes with
the interpreted three-valued interval engine, which the PSL grid search
shares.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Optional

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
    children,
    modal_standpoints,
    vocab,
)

DEFAULT_NODE_LIMIT = 10_000_000


class ModelError(ValueError):
    """Ill-formed model, or evaluation against a model that cannot host it."""


class SearchLimitError(RuntimeError):
    """The bounded search exceeded its node budget."""

    def __init__(self, limit: int):
        super().__init__(f"bounded search exceeded the node limit of {limit}")
        self.limit = limit


class WitnessFormatError(ValueError):
    """Witness JSON that does not match the documented schema."""


@dataclass(frozen=True)
class UPTrace:
    """Ultimately periodic trace: ``prefix`` then ``period`` forever."""

    prefix: tuple[frozenset[str], ...]
    period: tuple[frozenset[str], ...]

    def __post_init__(self):
        if not self.period:
            raise ModelError("a trace needs a non-empty period")

    def valuation(self, i: int) -> frozenset[str]:
        if i < len(self.prefix):
            return self.prefix[i]
        return self.period[(i - len(self.prefix)) % len(self.period)]


@dataclass
class SLTLModel:
    """A finite set of same-shaped traces plus the standpoint assignment.

    Immutable by convention after construction; nothing here mutates it.
    """

    traces: dict[str, UPTrace]
    lam: dict[Standpoint, frozenset[str]]
    prefix_len: int
    period_len: int

    def __post_init__(self):
        if not self.traces:
            raise ModelError("a model needs at least one trace")
        ids = frozenset(self.traces)
        for tid, tr in self.traces.items():
            if len(tr.prefix) != self.prefix_len or len(tr.period) != self.period_len:
                raise ModelError(f"trace {tid!r} does not match the shared shape")
        if self.lam.get(UNIVERSAL) != ids:
            raise ModelError("the universal standpoint must cover every trace")
        for sp, members in self.lam.items():
            if not members:
                raise ModelError(f"standpoint {sp} has an empty trace set")
            if not members <= ids:
                raise ModelError(f"standpoint {sp} names unknown traces")

    def node(self, i: int) -> int:
        """Collapse a position onto its lasso node."""
        if i < self.prefix_len:
            return i
        return self.prefix_len + (i - self.prefix_len) % self.period_len

    @property
    def length(self) -> int:
        return self.prefix_len + self.period_len


@dataclass
class ProductModel:
    """A model of the product of linear time with an S5 cloud of traces.

    Same trace data as an SLTL model, with the total accessibility relation
    left implicit and no standpoint assignment.
    """

    traces: dict[str, UPTrace]
    prefix_len: int
    period_len: int

    def as_sltl(self) -> SLTLModel:
        ids = frozenset(self.traces)
        return SLTLModel(dict(self.traces), {UNIVERSAL: ids}, self.prefix_len, self.period_len)


@dataclass(frozen=True)
class SearchBounds:
    """Bounds of the brute-force search, with an explicit vocabulary."""

    max_traces: int
    max_prefix: int
    max_period: int
    props: tuple[str, ...]

    def __post_init__(self):
        if self.max_traces < 1 or self.max_period < 1 or self.max_prefix < 0:
            raise ValueError("bounds must allow at least one trace and period position")
        object.__setattr__(self, "props", tuple(sorted(set(self.props))))

    @staticmethod
    def for_formula(f: Formula, max_traces: int, max_prefix: int, max_period: int) -> "SearchBounds":
        return SearchBounds(max_traces, max_prefix, max_period, tuple(vocab(f).props))


# ---------------------------------------------------------------------------
# Ground-truth evaluation

class _Evaluator:
    """Truth vectors of formulas at every lasso node of a fixed model."""

    def __init__(self, model: SLTLModel):
        self.m = model
        self.L = model.length
        self.succ = list(range(1, self.L)) + [model.prefix_len]
        self.vectors: dict[tuple[str, Formula], list[bool]] = {}

    def vector(self, tid: str, f: Formula) -> list[bool]:
        key = (tid, f)
        cached = self.vectors.get(key)
        if cached is not None:
            return cached
        m, L = self.m, self.L
        if isinstance(f, Top):
            v = [True] * L
        elif isinstance(f, Bottom):
            v = [False] * L
        elif isinstance(f, Prop):
            tr = m.traces[tid]
            v = [f.name in tr.valuation(k) for k in range(L)]
        elif isinstance(f, Sharper):
            verdict = self._extent(f.left) <= self._extent(f.right)
            v = [verdict] * L
        elif isinstance(f, Not):
            v = [not x for x in self.vector(tid, f.operand)]
        elif isinstance(f, And):
            a, b = self.vector(tid, f.left), self.vector(tid, f.right)
            v = [x and y for x, y in zip(a, b)]
        elif isinstance(f, Or):
            a, b = self.vector(tid, f.left), self.vector(tid, f.right)
            v = [x or y for x, y in zip(a, b)]
        elif isinstance(f, DiamondS):
            vs = [self.vector(t2, f.operand) for t2 in sorted(self._extent(f.standpoint))]
            v = [any(w[k] for w in vs) for k in range(L)]
        elif isinstance(f, BoxS):
            vs = [self.vector(t2, f.operand) for t2 in sorted(self._extent(f.standpoint))]
            v = [all(w[k] for w in vs) for k in range(L)]
        elif isinstance(f, Next):
            a = self.vector(tid, f.operand)
            v = [a[self.succ[k]] for k in range(L)]
        elif isinstance(f, Until):
            a, b = self.vector(tid, f.left), self.vector(tid, f.right)
            v = [False] * L
            p = self.m.prefix_len
            # Least fixpoint on the cycle: two reverse passes reach it, then
            # one pass propagates through the prefix.
            for _ in range(2):
                for k in range(L - 1, p - 1, -1):
                    v[k] = b[k] or (a[k] and v[self.succ[k]])
            for k in range(p - 1, -1, -1):
                v[k] = b[k] or (a[k] and v[k + 1])
        else:
            raise TypeError(f"not a formula: {f!r}")
        self.vectors[key] = v
        return v

    def _extent(self, sp: Standpoint) -> frozenset[str]:
        try:
            return self.m.lam[sp]
        except KeyError:
            raise ModelError(f"standpoint {sp} is not assigned in the model") from None


def evaluate(model: SLTLModel, trace_id: str, position: int, f: Formula) -> bool:
    """Satisfaction at ``(trace, position)``, literally clause by clause."""
    if trace_id not in model.traces:
        raise ModelError(f"unknown trace id {trace_id!r}")
    if position < 0:
        raise ModelError("positions are natural numbers")
    return _Evaluator(model).vector(trace_id, f)[model.node(position)]


def _trace_independent(f: Formula) -> bool:
    """Truth at (trace, position) never reads the current trace's own
    valuation: every proposition sits under a modality."""
    if isinstance(f, Prop):
        return False
    if isinstance(f, (Sharper, DiamondS, BoxS)):
        return True
    return all(_trace_independent(c) for c in children(f))


def check_product_formula(f: Formula) -> None:
    """Reject formulas outside the product sublanguage.

    Only the universal modality is allowed and sharpening atoms are not;
    plain modal formulas are represented with the universal standpoint.
    """
    if isinstance(f, Sharper):
        raise ValueError("sharpening atoms are outside the product sublanguage")
    if isinstance(f, (DiamondS, BoxS)) and not f.standpoint.is_universal:
        raise ValueError(
            f"modality over {f.standpoint} is outside the product sublanguage"
        )
    for c in children(f):
        check_product_formula(c)


def evaluate_product(model: ProductModel, trace_id: str, position: int, f: Formula) -> bool:
    """Product-logic satisfaction; modalities quantify over all traces."""
    check_product_formula(f)
    return evaluate(model.as_sltl(), trace_id, position, f)


# ---------------------------------------------------------------------------
# Interval engine: three-valued truth bounds over a partially assigned model

_OP_CONST, _OP_PROP, _OP_NOT, _OP_AND, _OP_OR, _OP_NEXT, _OP_UNTIL = range(7)
_OP_SOME, _OP_ALL, _OP_SOME_AT, _OP_ALL_AT = range(7, 11)


class _IntervalEngine:
    """Lower/upper truth masks for one formula over a partially assigned
    lasso whose traces may themselves be only possibly present.

    Bit ``trace * L + node`` of a mask is the truth value at that cell.  The
    lower mask is true where the formula holds in every completion of the
    assignment, the upper mask where it holds in some completion; they
    coincide once every relevant cell and every presence bit is assigned.
    Modalities quantify over the present traces of their extent.

    The formula is flattened once into an instruction list and ``bounds``
    interprets it.  On a one-position lasso (``L == 1``) a cell is a trace,
    ``X a`` is ``a``, ``a U b`` is ``b`` and a modality is one mask test;
    this is the grid search's case, whose traces are the (column,
    valuation) types of the grid.
    """

    def __init__(
        self,
        f: Formula,
        t_count: int,
        prefix: int,
        period: int,
        extents: dict[Standpoint, tuple[int, ...]],
        prop_index: dict[str, int],
    ):
        L = prefix + period
        self.L = L
        self.prefix = prefix
        block = (1 << L) - 1
        self.block0 = block
        self.repl = sum(1 << (t * L) for t in range(t_count))
        self.full = block * self.repl
        self.keep = self.full ^ (self.repl << (L - 1))
        # shifts that OR every trace's block into block 0
        self.folds = tuple(
            L << j for j in range(t_count.bit_length()) if 1 << j < t_count
        )
        one = L == 1

        self.instrs: list[tuple[int, int, int, object]] = []
        index: dict[Formula, int] = {}

        def ext_mask(sp: Standpoint) -> int:
            return sum(block << (t * L) for t in extents[sp])

        def compile_node(g: Formula) -> int:
            if g in index:
                return index[g]
            if one and isinstance(g, (Next, Until)):
                index[g] = compile_node(children(g)[-1])
                return index[g]
            if isinstance(g, Top):
                ins = (_OP_CONST, 0, 0, (self.full, self.full))
            elif isinstance(g, Bottom):
                ins = (_OP_CONST, 0, 0, (0, 0))
            elif isinstance(g, Sharper):
                left = set(extents[g.left])
                right = set(extents[g.right])
                c = self.full if left <= right else 0
                ins = (_OP_CONST, 0, 0, (c, c))
            elif isinstance(g, Prop):
                ins = (_OP_PROP, 0, 0, prop_index[g.name])
            elif isinstance(g, Not):
                ins = (_OP_NOT, compile_node(g.operand), 0, None)
            elif isinstance(g, And):
                ins = (_OP_AND, compile_node(g.left), compile_node(g.right), None)
            elif isinstance(g, Or):
                ins = (_OP_OR, compile_node(g.left), compile_node(g.right), None)
            elif isinstance(g, Next):
                ins = (_OP_NEXT, compile_node(g.operand), 0, None)
            elif isinstance(g, Until):
                ins = (_OP_UNTIL, compile_node(g.left), compile_node(g.right), None)
            elif isinstance(g, DiamondS):
                op = _OP_SOME if one else _OP_SOME_AT
                ins = (op, compile_node(g.operand), 0, ext_mask(g.standpoint))
            elif isinstance(g, BoxS):
                op = _OP_ALL if one else _OP_ALL_AT
                ins = (op, compile_node(g.operand), 0, ext_mask(g.standpoint))
            else:
                raise TypeError(f"not a formula: {g!r}")
            index[g] = len(self.instrs)
            self.instrs.append(ins)
            return index[g]

        self.root = compile_node(f)

    def bounds(
        self, tm: list[int], fm: list[int], bit: int, present: int, possible: int
    ) -> tuple[int, int]:
        """(lower, upper) truth of the root at the cells of ``bit``.

        ``tm``/``fm`` hold per proposition the cells assigned true/false;
        ``present``/``possible`` are the cells of the traces that are
        definitely/possibly present.
        """
        count = len(self.instrs)
        lo = [0] * count
        hi = [0] * count
        full = self.full
        for i, (op, a, b, aux) in enumerate(self.instrs):
            if op == _OP_PROP:
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
                lo[i] = full if lo[a] & aux & present else 0
                hi[i] = full if hi[a] & aux & possible else 0
            elif op == _OP_ALL:
                lo[i] = 0 if ~lo[a] & aux & possible else full
                hi[i] = 0 if ~hi[a] & aux & present else full
            elif op == _OP_CONST:
                lo[i], hi[i] = aux
            elif op == _OP_SOME_AT:
                lo[i] = self._spread(lo[a] & aux & present)
                hi[i] = self._spread(hi[a] & aux & possible)
            elif op == _OP_ALL_AT:
                lo[i] = full ^ self._spread(~lo[a] & aux & possible)
                hi[i] = full ^ self._spread(~hi[a] & aux & present)
            elif op == _OP_NEXT:
                lo[i] = self._next(lo[a])
                hi[i] = self._next(hi[a])
            else:
                lo[i] = self._until(lo[a], lo[b])
                hi[i] = self._until(hi[a], hi[b])
        return lo[self.root] & bit, hi[self.root] & bit

    def _spread(self, m: int) -> int:
        """Every trace gets, at each node, the OR of ``m`` over all traces."""
        for sh in self.folds:
            m |= m >> sh
        return (m & self.block0) * self.repl

    def _next(self, m: int) -> int:
        return ((m >> 1) & self.keep) | (((m >> self.prefix) & self.repl) << (self.L - 1))

    def _until(self, a: int, b: int) -> int:
        """Least fixpoint of ``u = b | (a & X u)``."""
        u, step = 0, b
        while step != u:
            u, step = step, b | (a & self._next(step))
        return u


# ---------------------------------------------------------------------------
# Bounded satisfiability search

class _ShapeSearch:
    """Depth-first enumeration of the valuations of one (traces, shape,
    standpoint assignment, designated trace) stratum.

    Cells are assigned false before true in a fixed order (the origin node
    first, then the cycle nodes, then the rest of the prefix), so together
    with interval pruning the search returns exactly the first witness of
    the plain enumeration in that cell order.  Traces outside every modal
    extent and distinct from the designated trace stay empty: no
    satisfaction clause ever reads them.
    """

    def __init__(
        self,
        f: Formula,
        t_count: int,
        prefix: int,
        period: int,
        lam_idx: dict[Standpoint, tuple[int, ...]],
        designated: int,
        props: tuple[str, ...],
        symmetry: bool,
        budget: list[int],
    ):
        self.f = f
        self.t_count = t_count
        self.prefix = prefix
        self.period = period
        self.L = prefix + period
        self.props = props
        self.designated = designated
        self.symmetry = symmetry
        self.budget = budget
        self.prop_index = {p: i for i, p in enumerate(props)}
        self.lam_idx = lam_idx
        self.engine = _IntervalEngine(f, t_count, prefix, period, lam_idx, self.prop_index)
        self.origin_bit = 1 << (designated * self.L)

        reach = set() if _trace_independent(f) else {designated}
        for sp in modal_standpoints(f):
            reach.update(lam_idx[sp])
        relevant = sorted(reach)
        node_order = [0] + list(range(max(prefix, 1), self.L)) + list(range(1, prefix))
        self.cells = [
            (t, k, p)
            for k in node_order
            for t in relevant
            for p in range(len(props))
        ]
        irrelevant = 0
        for t in range(t_count):
            if t not in reach:
                irrelevant |= self.engine.block0 << (t * self.L)
        self.true_masks = [0] * len(props)
        self.false_masks = [irrelevant] * len(props)

        # Traces with the same standpoint profile are interchangeable unless
        # one of them is designated; the optional reduction keeps only
        # assignments whose valuation sequences are sorted within a profile.
        self.pairs: list[tuple[int, int]] = []
        if symmetry:
            profile = {}
            for t in relevant:
                if t == designated:
                    continue
                key = tuple(t in lam_idx[sp] for sp in sorted(lam_idx, key=str))
                profile.setdefault(key, []).append(t)
            for group in profile.values():
                for a, b in zip(group, group[1:]):
                    self.pairs.append((a, b))
        self.pair_state = {pair: "eq" for pair in self.pairs}
        self.second_of = {}
        for pair in self.pairs:
            self.second_of.setdefault(pair[1], []).append(pair)

    def run(self) -> Optional[SLTLModel]:
        return self._dfs(0)

    def _dfs(self, idx: int) -> Optional[SLTLModel]:
        self.budget[0] -= 1
        if self.budget[0] < 0:
            raise SearchLimitError(self.budget[1])
        every = self.engine.full  # all traces of the stratum are present
        lo, hi = self.engine.bounds(self.true_masks, self.false_masks, self.origin_bit, every, every)
        if not hi:
            return None
        if lo:
            return self._materialize()
        assert idx < len(self.cells), "fully assigned model left undecided"
        t, k, p = self.cells[idx]
        bit = 1 << (t * self.L + k)
        for value in (False, True):
            journal = None
            if self.pairs:
                journal = self._shift_pair_states(t, k, p, value)
                if journal is False:
                    continue
            if value:
                self.true_masks[p] |= bit
            else:
                self.false_masks[p] |= bit
            found = self._dfs(idx + 1)
            if value:
                self.true_masks[p] &= ~bit
            else:
                self.false_masks[p] &= ~bit
            if journal:
                for pair, old in journal:
                    self.pair_state[pair] = old
            if found is not None:
                return found
        return None

    def _shift_pair_states(self, t: int, k: int, p: int, value: bool):
        """Advance the sorted-sequence comparison; False means prune."""
        journal = []
        for pair in self.second_of.get(t, ()):
            if self.pair_state[pair] != "eq":
                continue
            other_bit = 1 << (pair[0] * self.L + k)
            other = bool(self.true_masks[p] & other_bit)
            if other == value:
                continue
            if other and not value:
                for q, old in journal:
                    self.pair_state[q] = old
                return False
            journal.append((pair, "eq"))
            self.pair_state[pair] = "lt"
        return journal

    def _materialize(self) -> SLTLModel:
        traces: dict[str, UPTrace] = {}
        for t in range(self.t_count):
            vals = []
            for k in range(self.L):
                bit = 1 << (t * self.L + k)
                vals.append(frozenset(p for p, i in self.prop_index.items() if self.true_masks[i] & bit))
            traces[f"t{t}"] = UPTrace(tuple(vals[: self.prefix]), tuple(vals[self.prefix:]))
        lam = {sp: frozenset(f"t{t}" for t in idxs) for sp, idxs in self.lam_idx.items()}
        model = SLTLModel(traces, lam, self.prefix, self.period)
        if not evaluate(model, f"t{self.designated}", 0, self.f):
            raise AssertionError("search engine produced a model the evaluator rejects")
        return model


def _lambda_assignments(
    sps: list[Standpoint], t_count: int
) -> Iterable[dict[Standpoint, tuple[int, ...]]]:
    ids = tuple(range(t_count))
    if not sps:
        yield {UNIVERSAL: ids}
        return
    subsets = [tuple(t for t in ids if mask >> t & 1) for mask in range(1, 1 << t_count)]
    for combo in itertools.product(subsets, repeat=len(sps)):
        lam = dict(zip(sps, combo))
        lam[UNIVERSAL] = ids
        yield lam


def bounded_search(
    f: Formula,
    bounds: SearchBounds,
    *,
    symmetry: bool = False,
    node_limit: int = DEFAULT_NODE_LIMIT,
) -> Optional[tuple[SLTLModel, str]]:
    """First model of ``f`` within the bounds, or None if none exists there.

    Enumeration order: trace count ascending, then (prefix, period)
    lexicographic, then standpoint assignments over the standpoints of the
    formula (non-empty extents, the universal one fixed to everything), then
    the designated trace, then valuations.  The search prunes with interval
    bounds but visits witnesses in the plain enumeration order, so the first
    one returned is deterministic.
    """
    voc = vocab(f)
    missing = voc.props - set(bounds.props)
    if missing:
        raise ValueError(f"bounds do not cover propositions: {sorted(missing)}")
    sps = sorted((s for s in voc.standpoints if not s.is_universal), key=lambda s: s.name)
    # Formulas with no standpoint construct read only the designated trace,
    # so larger models add nothing; trace-independent formulas hold at the
    # first trace whenever they hold anywhere, so one designated choice
    # covers them all.  Both reductions return the same first witness the
    # plain enumeration would.
    max_traces = bounds.max_traces if voc.standpoints else 1
    designated_choices = 1 if _trace_independent(f) else None
    budget = [node_limit, node_limit]
    for t_count in range(1, max_traces + 1):
        for prefix in range(bounds.max_prefix + 1):
            for period in range(1, bounds.max_period + 1):
                for lam_idx in _lambda_assignments(sps, t_count):
                    for designated in range(designated_choices or t_count):
                        search = _ShapeSearch(
                            f, t_count, prefix, period, lam_idx, designated,
                            bounds.props, symmetry, budget,
                        )
                        model = search.run()
                        if model is not None:
                            return model, f"t{designated}"
    return None


def bounded_search_product(
    f: Formula,
    bounds: SearchBounds,
    *,
    symmetry: bool = False,
    node_limit: int = DEFAULT_NODE_LIMIT,
) -> Optional[tuple[ProductModel, str]]:
    """Bounded search under product-logic semantics, at position 0."""
    check_product_formula(f)
    found = bounded_search(f, bounds, symmetry=symmetry, node_limit=node_limit)
    if found is None:
        return None
    model, tid = found
    return ProductModel(model.traces, model.prefix_len, model.period_len), tid


# ---------------------------------------------------------------------------
# Witness serialization

def model_to_json(model: SLTLModel, designated: str) -> dict:
    """Witness object matching the documented schema."""
    traces = {
        tid: [sorted(tr.valuation(k)) for k in range(model.length)]
        for tid, tr in model.traces.items()
    }
    lam = {str(sp): sorted(members) for sp, members in model.lam.items()}
    return {
        "prefix_len": model.prefix_len,
        "period_len": model.period_len,
        "traces": traces,
        "lambda": lam,
        "designated": designated,
    }


def model_from_json(data: object) -> tuple[SLTLModel, str]:
    """Parse and validate a witness object; raises WitnessFormatError."""
    if not isinstance(data, dict):
        raise WitnessFormatError("witness must be a JSON object")
    for key in ("prefix_len", "period_len", "traces", "lambda", "designated"):
        if key not in data:
            raise WitnessFormatError(f"witness is missing the {key!r} field")
    prefix_len = data["prefix_len"]
    period_len = data["period_len"]
    for length in (prefix_len, period_len):
        if not isinstance(length, int) or isinstance(length, bool):
            raise WitnessFormatError("prefix_len and period_len must be integers")
    raw_traces = data["traces"]
    if not isinstance(raw_traces, dict) or not raw_traces:
        raise WitnessFormatError("traces must be a non-empty object")
    traces: dict[str, UPTrace] = {}
    for tid, rows in raw_traces.items():
        if not isinstance(rows, list) or len(rows) != prefix_len + period_len:
            raise WitnessFormatError(
                f"trace {tid!r} must list prefix_len + period_len valuations"
            )
        vals = []
        for row in rows:
            if not isinstance(row, list) or not all(isinstance(p, str) for p in row):
                raise WitnessFormatError(f"trace {tid!r} has a malformed valuation")
            vals.append(frozenset(row))
        traces[tid] = UPTrace(tuple(vals[:prefix_len]), tuple(vals[prefix_len:]))
    raw_lam = data["lambda"]
    if not isinstance(raw_lam, dict):
        raise WitnessFormatError("lambda must be an object")
    lam: dict[Standpoint, frozenset[str]] = {}
    for key, members in raw_lam.items():
        if not isinstance(key, str) or not key.startswith("@"):
            raise WitnessFormatError(f"lambda key {key!r} must carry the '@' sigil")
        if not isinstance(members, list) or not all(isinstance(m, str) for m in members):
            raise WitnessFormatError(f"lambda entry {key!r} must list trace ids")
        lam[Standpoint(key[1:])] = frozenset(members)
    designated = data["designated"]
    if not isinstance(designated, str) or designated not in traces:
        raise WitnessFormatError(f"designated trace {designated!r} is not in the model")
    try:
        model = SLTLModel(traces, lam, prefix_len, period_len)
    except ModelError as exc:
        raise WitnessFormatError(str(exc)) from exc
    return model, designated
