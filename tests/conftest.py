"""Shared corpus generators and independent brute-force references.

The references here deliberately avoid the engines under test: temporal
satisfiability is checked by enumerating whole models and calling the
evaluator, the evaluator itself against a clause-by-clause rendering of
the satisfaction relation, and propositional standpoint satisfiability by
enumerating models up to bisimulation (a precisification is determined by
its standpoint profile and valuation, so a model is a non-empty set of
such types), and PureLTL and LtlPsl satisfiability, unbounded, by an
elementary-set tableau whose letters are those type sets.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from types import SimpleNamespace

from sltl.semantics import ModelError, SLTLModel, UPTrace, evaluate
from sltl.syntax import (
    And,
    BOTTOM,
    Bottom,
    BoxS,
    DiamondS,
    Formula,
    Fragment,
    Next,
    Not,
    Or,
    Prop,
    Sharper,
    Standpoint,
    TOP,
    Top,
    UNIVERSAL,
    Until,
    Vocabulary,
    _FIELDS,
    children,
    neg,
    nodes,
    size,
    subformulas,
    vocab,
)

S = Standpoint("s")
T = Standpoint("t")
U = Standpoint("u")


# ---------------------------------------------------------------------------
# The constructors the random generators build with: the package's, which
# intern, and a reference that builds nested tuples ``(class name, *fields)``
# with each standpoint as its name, so equal formulas are equal tuples built
# apart, and no intern key can merge two of them.

def _tuple_neg(f: tuple) -> tuple:
    if f[0] == "Not":
        return f[1]
    return {"Top": ("Bottom",), "Bottom": ("Top",)}.get(f[0]) or ("Not", f)


AST = SimpleNamespace(
    Prop=Prop, Sharper=Sharper, TOP=TOP, BOTTOM=BOTTOM, neg=neg, And=And, Or=Or, Next=Next,
    Until=Until, DiamondS=DiamondS, BoxS=BoxS,
    again=lambda g: type(g)(*(getattr(g, name) for name in _FIELDS[type(g)])),
)
TUPLES = SimpleNamespace(
    Prop=lambda name: ("Prop", name), Sharper=lambda a, b: ("Sharper", a.name, b.name),
    TOP=("Top",), BOTTOM=("Bottom",), neg=_tuple_neg, And=lambda a, b: ("And", a, b),
    Or=lambda a, b: ("Or", a, b), Next=lambda a: ("Next", a), Until=lambda a, b: ("Until", a, b),
    DiamondS=lambda sp, a: ("DiamondS", sp.name, a), BoxS=lambda sp, a: ("BoxS", sp.name, a),
    again=lambda g: (*g,),
)


def as_tuples(f: Formula) -> tuple:
    """``f`` read into the reference's nested tuples, recursively."""
    fields = (getattr(f, name) for name in _FIELDS[type(f)])
    return (type(f).__name__, *(
        x if type(x) is str else x.name if type(x) is Standpoint else as_tuples(x) for x in fields
    ))


# ---------------------------------------------------------------------------
# Random formula corpus

def random_formula(
    rng: random.Random,
    depth: int,
    props=("p", "q"),
    sps=(S, T),
    mode: str = "sltl",
    max_sharpenings: int = 1,
    ast=AST,
) -> Formula:
    """Random AST of the requested fragment, built with the constructors
    of ``ast`` (``TUPLES`` builds the reference's tuples).

    Modes: ``psl`` (no temporal operators), ``ltl`` (no standpoint
    constructs), ``ltl_psl`` (temporal operators only outside modalities),
    ``sltl`` (anything), ``product`` (universal modality only, no
    sharpening atoms).
    """
    budget = [max_sharpenings]

    def leaf(m: str) -> Formula:
        choices = [ast.Prop(p) for p in props] + [ast.TOP]
        if m in ("psl", "ltl_psl", "sltl") and budget[0] > 0 and len(sps) >= 2 and rng.random() < 0.25:
            budget[0] -= 1
            a, b = rng.sample(list(sps), 2)
            return ast.Sharper(a, b)
        return rng.choice(choices)

    def build(d: int, m: str) -> Formula:
        if d == 0 or rng.random() < 0.25:
            return leaf(m)
        ops = ["not", "and", "or"]
        if m in ("ltl", "ltl_psl", "sltl", "product"):
            ops += ["next", "until"]
        if m in ("psl", "ltl_psl", "sltl", "product"):
            ops += ["dia", "box"]
        op = rng.choice(ops)
        if op == "not":
            return ast.neg(build(d - 1, m))
        if op == "and":
            return ast.And(build(d - 1, m), build(d - 1, m))
        if op == "or":
            return ast.Or(build(d - 1, m), build(d - 1, m))
        if op == "next":
            return ast.Next(build(d - 1, m))
        if op == "until":
            return ast.Until(build(d - 1, m), build(d - 1, m))
        sp = UNIVERSAL if m == "product" else rng.choice(list(sps) + [UNIVERSAL])
        inner_mode = "psl" if m == "ltl_psl" else m
        inner = build(d - 1, inner_mode)
        return ast.DiamondS(sp, inner) if op == "dia" else ast.BoxS(sp, inner)

    return build(depth, mode)


# ---------------------------------------------------------------------------
# Naive temporal reference: enumerate whole models, ask the evaluator

def iter_models(props, max_traces, max_prefix, max_period, sps):
    """Every model within the bounds (all shapes, valuations, extents)."""
    props = sorted(props)
    vals = [
        frozenset(c)
        for n in range(len(props) + 1)
        for c in itertools.combinations(props, n)
    ]
    for t_count in range(1, max_traces + 1):
        ids = [f"t{i}" for i in range(t_count)]
        subsets = [
            frozenset(ids[j] for j in range(t_count) if m >> j & 1)
            for m in range(1, 2 ** t_count)
        ]
        for prefix in range(max_prefix + 1):
            for period in range(1, max_period + 1):
                length = prefix + period
                for rows in itertools.product(
                    itertools.product(vals, repeat=length), repeat=t_count
                ):
                    traces = {
                        ids[i]: UPTrace(tuple(rows[i][:prefix]), tuple(rows[i][prefix:]))
                        for i in range(t_count)
                    }
                    for combo in itertools.product(subsets, repeat=len(sps)):
                        lam = dict(zip(sps, combo))
                        lam[UNIVERSAL] = frozenset(ids)
                        yield SLTLModel(traces, lam, prefix, period)


def over_universal(model: SLTLModel) -> SLTLModel:
    """The product model of ``model``'s traces: the SLTL model over them
    whose only standpoint is ``@*``."""
    ids = frozenset(model.traces)
    return SLTLModel(dict(model.traces), {UNIVERSAL: ids}, model.prefix_len, model.period_len)


def standpoints_into_guards(model: SLTLModel) -> SLTLModel:
    """The product model whose traces also carry the guard variable ``@s``
    wherever their trace is in the extent of standpoint ``s``."""
    traces = {}
    for tid, tr in model.traces.items():
        guards = frozenset(
            str(sp) for sp, members in model.lam.items() if not sp.is_universal and tid in members
        )
        traces[tid] = UPTrace(
            tuple(v | guards for v in tr.prefix), tuple(v | guards for v in tr.period)
        )
    return SLTLModel(traces, {UNIVERSAL: frozenset(traces)}, model.prefix_len, model.period_len)


def guards_into_standpoints(m: SLTLModel, f: Formula) -> SLTLModel:
    """The SLTL model over the traces of the product model ``m`` that gives
    each standpoint of ``f`` the traces whose guard variable always holds,
    or every trace when none does."""
    ids = frozenset(m.traces)
    lam = {UNIVERSAL: ids}
    for sp in vocab(f).standpoints:
        if sp.is_universal:
            continue
        members = frozenset(
            tid
            for tid, tr in m.traces.items()
            if all(str(sp) in tr.valuation(k) for k in range(m.length))
        )
        lam[sp] = members if members else ids
    return SLTLModel(dict(m.traces), lam, m.prefix_len, m.period_len)


def naive_sat(f: Formula, max_traces: int, max_prefix: int, max_period: int) -> bool:
    voc = vocab(f)
    sps = sorted((s for s in voc.standpoints if not s.is_universal), key=lambda s: s.name)
    for model in iter_models(voc.props, max_traces, max_prefix, max_period, sps):
        for tid in model.traces:
            if evaluate(model, tid, 0, f):
                return True
    return False


# ---------------------------------------------------------------------------
# Clause-by-clause reference evaluator

class ReferenceEvaluator:
    """Truth vectors of formulas at every lasso node of a fixed model, each
    clause of the satisfaction relation written out over lists of booleans.
    It recurses, which is fine at test sizes; ``semantics.evaluate`` packs
    the same clauses into bit masks and one loop."""

    def __init__(self, model: SLTLModel):
        self.m = model
        self.L = model.length
        self.succ = list(range(1, self.L)) + [model.prefix_len]
        self.vectors: dict[tuple[str, Formula], list[bool]] = {}

    def vector(self, tid: str, f: Formula) -> list[bool]:
        key = (tid, f)
        if key in self.vectors:
            return self.vectors[key]
        m, L = self.m, self.L
        if isinstance(f, Top):
            v = [True] * L
        elif isinstance(f, Bottom):
            v = [False] * L
        elif isinstance(f, Prop):
            v = [f.name in m.traces[tid].valuation(k) for k in range(L)]
        elif isinstance(f, Sharper):
            v = [m.lam[f.left] <= m.lam[f.right]] * L
        elif isinstance(f, Not):
            v = [not x for x in self.vector(tid, f.operand)]
        elif isinstance(f, And):
            a, b = self.vector(tid, f.left), self.vector(tid, f.right)
            v = [x and y for x, y in zip(a, b)]
        elif isinstance(f, Or):
            a, b = self.vector(tid, f.left), self.vector(tid, f.right)
            v = [x or y for x, y in zip(a, b)]
        elif isinstance(f, DiamondS):
            vs = [self.vector(t2, f.operand) for t2 in sorted(m.lam[f.standpoint])]
            v = [any(w[k] for w in vs) for k in range(L)]
        elif isinstance(f, BoxS):
            vs = [self.vector(t2, f.operand) for t2 in sorted(m.lam[f.standpoint])]
            v = [all(w[k] for w in vs) for k in range(L)]
        elif isinstance(f, Next):
            a = self.vector(tid, f.operand)
            v = [a[self.succ[k]] for k in range(L)]
        elif isinstance(f, Until):
            a, b = self.vector(tid, f.left), self.vector(tid, f.right)
            v = [False] * L
            p = m.prefix_len
            # least fixpoint on the cycle: two reverse passes reach it, then
            # one pass propagates through the prefix
            for _ in range(2):
                for k in range(L - 1, p - 1, -1):
                    v[k] = b[k] or (a[k] and v[self.succ[k]])
            for k in range(p - 1, -1, -1):
                v[k] = b[k] or (a[k] and v[k + 1])
        else:
            raise TypeError(f"not a formula: {f!r}")
        self.vectors[key] = v
        return v


# ---------------------------------------------------------------------------
# The list-based witness checker

def reference_evaluate(model: SLTLModel, trace_id: str, position: int, f: Formula) -> bool:
    """The list-based witness checker, one mask per trace for each
    subformula, kept as the reference for ``semantics.evaluate``, which
    packs every trace into one mask: satisfaction at ``(trace,
    position)``, clause by clause.

    One loop over the distinct subformulas of ``f``, children first, gives
    each of them one mask per trace, whose bit ``k`` is its truth at lasso
    node ``k``: Boolean connectives are bit operations, ``X`` moves each
    bit to the node before it (the last node reads the first node of the
    period), ``U`` is the least fixpoint of ``u = b | (a & X u)``, and a
    modality ORs (diamond) or ANDs (box) the masks of its extent's traces,
    the same mask at every trace.
    """
    if trace_id not in model.traces:
        raise ModelError(f"unknown trace id {trace_id!r}")
    if position < 0:
        raise ModelError("positions are natural numbers")
    lam, L, prefix = model.lam, model.length, model.prefix_len
    index = {tid: i for i, tid in enumerate(model.traces)}
    n = len(index)
    rows = [tr.prefix + tr.period for tr in model.traces.values()]
    full = (1 << L) - 1

    def extent(sp: Standpoint) -> frozenset[str]:
        try:
            return lam[sp]
        except KeyError:
            raise ModelError(f"standpoint {sp} is not assigned in the model") from None

    def after(m: int) -> int:
        """``X``: bit ``k`` of the result is bit ``succ(k)`` of ``m``."""
        return m >> 1 | (m >> prefix & 1) << (L - 1)

    masks: dict[Formula, list[int]] = {}
    for g in subformulas(f):
        cls = type(g)
        if cls is Prop:
            name = g.name
            v = [sum(1 << k for k, row in enumerate(vals) if name in row) for vals in rows]
        elif cls is Not:
            v = [full ^ a for a in masks[g.operand]]
        elif cls is And:
            v = [a & b for a, b in zip(masks[g.left], masks[g.right])]
        elif cls is Or:
            v = [a | b for a, b in zip(masks[g.left], masks[g.right])]
        elif cls is Next:
            v = [after(a) for a in masks[g.operand]]
        elif cls is Until:
            v = []
            for a, b in zip(masks[g.left], masks[g.right]):
                u, step = 0, b
                while step != u:
                    u, step = step, b | a & after(step)
                v.append(u)
        elif cls is DiamondS:
            operand, m = masks[g.operand], 0
            for tid in extent(g.standpoint):
                m |= operand[index[tid]]
            v = [m] * n
        elif cls is BoxS:
            operand, m = masks[g.operand], full
            for tid in extent(g.standpoint):
                m &= operand[index[tid]]
            v = [m] * n
        elif cls is Sharper:
            v = [full if extent(g.left) <= extent(g.right) else 0] * n
        elif cls is Top:
            v = [full] * n
        elif cls is Bottom:
            v = [0] * n
        else:
            raise TypeError(f"not a formula: {g!r}")
        masks[g] = v
    return bool(masks[f][index[trace_id]] >> model.node(position) & 1)


# ---------------------------------------------------------------------------
# Occurrence scans: the vocabulary and the closure read off one pre-order
# scan of every occurrence, references for the walk of distinct subformulas

def reference_vocab(f: Formula) -> Vocabulary:
    """``vocab(f)`` from one pre-order scan of every occurrence, unmemoised:
    a subtree is a run of ``size`` consecutive occurrences, so the scan
    knows when it is inside a modal operand by the end of the outermost
    open modal scope.  Exponential in the depth of a chain of shared
    subterms."""
    props: set[str] = set()
    standpoints: set[Standpoint] = set()
    modal: set[Standpoint] = set()
    temporal, temporal_under_modal, independent = False, False, True
    scope_end = 0  # index past the outermost open modal scope
    for i, g in enumerate(nodes(f)):
        cls = type(g)
        if cls is Prop:
            props.add(g.name)
            independent &= i < scope_end
        elif cls is Next or cls is Until:
            temporal = True
            temporal_under_modal |= i < scope_end
        elif cls is DiamondS or cls is BoxS:
            modal.add(g.standpoint)
            scope_end = max(scope_end, i + size(g))
        elif cls is Sharper:
            standpoints.update((g.left, g.right))
    standpoints |= modal
    if standpoints:
        standpoints.add(UNIVERSAL)
    fragment = (
        Fragment.PSL if not temporal
        else Fragment.PURE_LTL if not standpoints
        else Fragment.LTL_PSL if not temporal_under_modal
        else Fragment.FULL_SLTL
    )
    sets = map(frozenset, (props, standpoints, modal))
    return Vocabulary(*sets, fragment, independent)


def reference_closure(seed: Formula) -> tuple[Formula, ...]:
    """``closure(seed).formulas`` from one pre-order scan of every
    occurrence: its members, ordered by size and then by the position of
    their last occurrence, where an Until's companion that does not occur
    takes the Until's."""
    # one pre-order scan: a subtree is a run of ``size`` occurrences,
    # so an occurrence lies in a modal operand while it is before the
    # end of the outermost open modal scope
    members: set[Formula] = set()
    last: dict[Formula, int] = {}
    scope_end = 0
    for i, g in enumerate(nodes(seed)):
        last[g] = i
        if i >= scope_end or isinstance(g, Sharper):
            members.add(g)
        if i >= scope_end and isinstance(g, (DiamondS, BoxS)):
            scope_end = i + size(g)
    for g in [g for g in members if isinstance(g, Until)]:
        members.add(Next(g))
        last.setdefault(Next(g), last[g])
    return tuple(sorted(members, key=lambda g: (size(g), last[g])))


def random_dag(rng: random.Random, links: int, props=("p", "q"), sps=(S, T), ast=AST) -> Formula:
    """A random formula of ``links`` connectives over a pool of leaves,
    each connective over operands drawn from the pool, the most recent
    ones likelier, and added to it: subterm objects are shared, and a
    connective is sometimes built twice, which the constructors of
    ``ast`` (as ``random_formula``'s) give as one object or, in the
    reference, as two equal tuples.  The last connective is the root."""
    pool: list[Formula] = [*(ast.Prop(p) for p in props), ast.TOP, ast.BOTTOM, ast.Sharper(*sps)]
    for _ in range(links):
        a, b = (pool[-1 - min(int(rng.expovariate(1.0)), len(pool) - 1)] for _ in range(2))
        op = rng.choice(["not", "and", "or", "next", "until", "dia", "box"])
        if op == "not":
            g = ast.neg(a)
        elif op in ("and", "or", "until"):
            g = {"and": ast.And, "or": ast.Or, "until": ast.Until}[op](a, b)
        elif op == "next":
            g = ast.Next(a)
        else:
            sp = rng.choice([*sps, UNIVERSAL])
            g = (ast.DiamondS if op == "dia" else ast.BoxS)(sp, a)
        pool.append(g)
        if rng.random() < 0.2:  # the same connective over the same children, again
            pool.append(ast.again(g))
    return pool[-1]


# ---------------------------------------------------------------------------
# Propositional standpoint reference: models up to bisimulation

def psl_brute_sat(f: Formula) -> bool:
    """Enumerate models as non-empty sets of (standpoint profile, valuation)
    types; every model quotients to one, so this is a complete reference."""
    voc = vocab(f)
    sps = sorted((s for s in voc.standpoints if not s.is_universal), key=lambda s: s.name)
    props = sorted(voc.props)
    profiles = list(range(2 ** len(sps)))
    vals = list(range(2 ** len(props)))
    types = [(pm, vm) for pm in profiles for vm in vals]
    full = (1 << len(types)) - 1
    sp_masks = []
    for i in range(len(sps)):
        sp_masks.append(
            sum(1 << k for k, (pm, _) in enumerate(types) if pm >> i & 1)
        )
    prop_masks = {}
    for j, p in enumerate(props):
        prop_masks[p] = sum(1 << k for k, (_, vm) in enumerate(types) if vm >> j & 1)
    sp_index = {sp: i for i, sp in enumerate(sps)}

    def ext(sp: Standpoint, chosen: int) -> int:
        if sp.is_universal:
            return chosen
        return sp_masks[sp_index[sp]] & chosen

    def truth(g: Formula, chosen: int) -> int:
        if g == TOP:
            return full
        if g == BOTTOM:
            return 0
        if isinstance(g, Prop):
            return prop_masks[g.name]
        if isinstance(g, Sharper):
            return full if ext(g.left, chosen) & ~ext(g.right, chosen) == 0 else 0
        if isinstance(g, Not):
            return full ^ truth(g.operand, chosen)
        if isinstance(g, And):
            return truth(g.left, chosen) & truth(g.right, chosen)
        if isinstance(g, Or):
            return truth(g.left, chosen) | truth(g.right, chosen)
        if isinstance(g, DiamondS):
            return full if truth(g.operand, chosen) & ext(g.standpoint, chosen) else 0
        if isinstance(g, BoxS):
            return full if ext(g.standpoint, chosen) & ~truth(g.operand, chosen) == 0 else 0
        raise TypeError(f"not a propositional standpoint formula: {g!r}")

    for chosen in range(1, full + 1):
        if any(sp_masks[i] & chosen == 0 for i in range(len(sps))):
            continue
        if truth(f, chosen) & chosen:
            return True
    return False


class TypeSets:
    """Every set of some (standpoint profile, valuation) types at once, for
    at most 16 types, where a set-by-set loop takes seconds.

    Bit ``c * W + k`` of a mask is the truth value at type ``k`` in the
    model whose type set is the bit set ``c``, where ``W`` is the number of
    types rounded up to a power of two.  A type ``(profile, valuation)`` is
    in ``sps[i]`` when the profile has bit ``i``, and ``props[j]`` holds at
    it when the valuation has bit ``j``.  A modal formula or sharpening atom
    tests each type set's block of ``W`` bits.
    """

    def __init__(self, types: list[tuple[int, int]], sps, props):
        n = len(types)
        if n > 16:
            raise ValueError(f"{n} types: too many type sets to enumerate")
        self.types = types
        self.width = width = 1 << (n - 1).bit_length()
        # ``chosen``: block c holds the type set c; ``ones``: bit 0 of every block
        chosen, ones = 0, 1
        for j in range(n):
            chosen |= (chosen | ones << j) << (width << j)
            ones |= ones << (width << j)
        self.chosen, self.ones = chosen, ones
        self.block = (1 << n) - 1
        self.full = self.block * ones
        self.props = {p: self.where(lambda pr, v, j=j: v >> j & 1) for j, p in enumerate(props)}
        self.exts = {
            sp: self.where(lambda pr, v, i=i: pr >> i & 1) & chosen for i, sp in enumerate(sps)
        }
        self.memo: dict[Formula, int] = {}

    def where(self, test) -> int:
        """The types for which ``test(profile, valuation)`` holds, in every block."""
        return sum(1 << k for k, (pr, v) in enumerate(self.types) if test(pr, v)) * self.ones

    def ext(self, sp: Standpoint) -> int:
        return self.chosen if sp.is_universal else self.exts[sp]

    def some(self, x: int) -> int:
        """Every type bit of each block in which ``x`` has a bit."""
        shift = 1
        while shift < self.width:
            x |= x >> shift
            shift <<= 1
        return (x & self.ones) * self.block

    def truth(self, g: Formula) -> int:
        if g in self.memo:
            return self.memo[g]
        full, ext, some, truth = self.full, self.ext, self.some, self.truth
        if g == TOP:
            out = full
        elif g == BOTTOM:
            out = 0
        elif isinstance(g, Prop):
            out = self.props[g.name]
        elif isinstance(g, Sharper):
            out = full ^ some(ext(g.left) & ~ext(g.right))
        elif isinstance(g, Not):
            out = full ^ truth(g.operand)
        elif isinstance(g, And):
            out = truth(g.left) & truth(g.right)
        elif isinstance(g, Or):
            out = truth(g.left) | truth(g.right)
        elif isinstance(g, DiamondS):
            out = some(truth(g.operand) & ext(g.standpoint))
        elif isinstance(g, BoxS):
            out = full ^ some(~truth(g.operand) & ext(g.standpoint))
        else:
            raise TypeError(f"not a propositional standpoint formula: {g!r}")
        self.memo[g] = out
        return out


def psl_brute_sat_bitwise(f: Formula) -> bool:
    """``psl_brute_sat`` with every type set evaluated at once (``TypeSets``),
    for inputs with at most 16 types."""
    voc = vocab(f)
    sps = sorted((s for s in voc.standpoints if not s.is_universal), key=lambda s: s.name)
    props = sorted(voc.props)
    sets = TypeSets([(pr, v) for pr in range(1 << len(sps)) for v in range(1 << len(props))], sps, props)
    # every standpoint inhabited; f true at a type of the set
    inhabited = sets.full
    for sp in sps:
        inhabited &= sets.some(sets.ext(sp))
    return sets.truth(f) & sets.chosen & inhabited != 0


# ---------------------------------------------------------------------------
# Temporal standpoint reference: elementary-set tableaux over PSL letters

def ltl_psl_reference_sat(f: Formula, max_elementary: int = 16) -> bool | None:
    """Satisfiability of a PureLTL or LtlPsl formula, or None when its
    tableau has more than ``max_elementary`` elementary members or an
    instant has more than 16 types.  It uses nothing of the package but
    ``syntax``.

    No temporal operator sits inside a modality, so each instant of a model
    is a PSL model, which quotients to a set of (standpoint profile,
    valuation) types as in ``psl_brute_sat``.  Traces are rigid, so a model
    is a set ``P`` of profiles that covers every standpoint, a designated
    profile ``p0`` in ``P``, and per instant a type set whose profiles are
    exactly ``P`` with a designated valuation ``v`` such that ``(p0, v)`` is
    in it; any such sequence is realised by finitely many traces.  An
    instant shows the tableau a letter: the truth of the atoms, which are
    the propositions, sharpening atoms and modal formulas outside every
    modality.  So ``f`` is sat iff, for some ``(P, p0)``, the elementary-set
    tableau of ``f`` (Lichtenstein & Pnueli, POPL 1985) over the letters
    that some type set realises has a fair SCC reachable from a state where
    ``f`` holds: a cycle that fulfils every Until somewhere.  Its states
    assign the elementary members: the atoms, ``X g`` for every ``X g`` and
    ``X(a U b)`` for every ``a U b``.
    """
    outside: dict[Formula, None] = {}  # children first, modal operands not entered

    def walk(g: Formula) -> None:
        if g not in outside:
            if not isinstance(g, (DiamondS, BoxS)):
                for c in children(g):
                    walk(c)
            outside[g] = None

    walk(f)
    atoms = [g for g in outside if isinstance(g, (Prop, Sharper, DiamondS, BoxS))]
    # the operands of the next-step members, ``a U b`` standing for X(a U b)
    steps = list(dict.fromkeys(g.operand if isinstance(g, Next) else g
                               for g in outside if isinstance(g, (Next, Until))))
    if len(atoms) + len(steps) > max_elementary:
        return None
    bit = {g: 1 << i for i, g in enumerate(atoms)}
    step_bit = {g: 1 << (len(atoms) + i) for i, g in enumerate(steps)}
    step_mask = sum(step_bit.values())
    untils = [g for g in outside if isinstance(g, Until)]
    modal = [g for g in atoms if isinstance(g, (DiamondS, BoxS))]
    sps = sorted((s for s in vocab(f).standpoints if not s.is_universal), key=lambda s: s.name)
    inner = sorted({p for g in modal for p in vocab(g).props})
    # every assignment of the propositions that occur only outside modalities
    free = [0]
    for g in atoms:
        if isinstance(g, Prop) and g.name not in inner:
            free += [a | bit[g] for a in free]

    def letters(P: tuple[int, ...], p0: int) -> frozenset[int] | None:
        """The atom assignments of the type sets over ``P``."""
        n_vals = 1 << len(inner)
        try:
            sets = TypeSets([(pr, v) for pr in P for v in range(n_vals)], sps, inner)
        except ValueError:
            return None
        # the type sets with every profile of P; a sharpening atom reads P
        exact = sets.ones
        for pr in P:
            exact &= sets.some(sets.where(lambda q, v, pr=pr: q == pr) & sets.chosen)
        in_p = {sp: {pr for pr in P if sp.is_universal or pr >> i & 1}
                for i, sp in enumerate([*sps, UNIVERSAL])}
        fixed = sum(bit[g] for g in atoms if isinstance(g, Sharper) and in_p[g.left] <= in_p[g.right])
        modal_truth = [sets.truth(g) & sets.ones for g in modal]
        out = set()
        for v in range(n_vals):
            designated = exact & sets.chosen >> (P.index(p0) * n_vals + v) & sets.ones
            bits = fixed | sum(bit.get(Prop(p), 0) for j, p in enumerate(inner) if v >> j & 1)
            stack = [(designated, 0, bits)]
            while stack:  # split the type sets by each modal atom in turn
                kept, i, bits = stack.pop()
                if not kept:
                    continue
                if i == len(modal):
                    out.update(bits | a for a in free)
                    continue
                stack.append((kept & modal_truth[i], i + 1, bits | bit[modal[i]]))
                stack.append((kept & ~modal_truth[i], i + 1, bits))
        return frozenset(out)

    info: dict[int, tuple[bool, int, int]] = {}

    def state_info(s: int) -> tuple[bool, int, int]:
        """Whether ``f`` holds at state ``s``, the step bits of every state
        that may precede it, and the Untils it fulfils (as bits)."""
        if s not in info:
            val: dict[Formula, bool] = {}
            for g in outside:
                if g in bit:
                    val[g] = bool(s & bit[g])
                elif isinstance(g, (Top, Bottom)):
                    val[g] = isinstance(g, Top)
                elif isinstance(g, Not):
                    val[g] = not val[g.operand]
                elif isinstance(g, And):
                    val[g] = val[g.left] and val[g.right]
                elif isinstance(g, Or):
                    val[g] = val[g.left] or val[g.right]
                elif isinstance(g, Next):
                    val[g] = bool(s & step_bit[g.operand])
                else:
                    val[g] = val[g.right] or val[g.left] and bool(s & step_bit[g])
            sig = sum(step_bit[g] for g in steps if val[g])
            fulfils = sum(1 << j for j, u in enumerate(untils) if val[u.right] or not val[u])
            info[s] = (val[f], sig, fulfils)
        return info[s]

    def fair_scc_reachable(alphabet: frozenset[int]) -> bool:
        """A plain Tarjan search from every state where ``f`` holds."""
        targets: dict[int, list[int]] = {}  # by the step bits their predecessors carry
        states = []
        for letter in alphabet:
            x = 0
            while True:  # every assignment of the step members
                s = letter | x
                states.append(s)
                targets.setdefault(state_info(s)[1], []).append(s)
                x = (x - step_mask) & step_mask
                if not x:
                    break
        every_until = (1 << len(untils)) - 1
        index: dict[int, int] = {}
        low: dict[int, int] = {}
        on_stack: set[int] = set()
        scc_stack: list[int] = []
        for root in states:
            if root in index or not state_info(root)[0]:
                continue
            index[root] = low[root] = len(index)
            scc_stack.append(root)
            on_stack.add(root)
            work = [(root, iter(targets.get(root & step_mask, ())))]
            while work:
                v, edges = work[-1]
                for w in edges:
                    if w not in index:
                        index[w] = low[w] = len(index)
                        scc_stack.append(w)
                        on_stack.add(w)
                        work.append((w, iter(targets.get(w & step_mask, ()))))
                        break
                    if w in on_stack:
                        low[v] = min(low[v], index[w])
                else:
                    work.pop()
                    if work:
                        u = work[-1][0]
                        low[u] = min(low[u], low[v])
                    if low[v] == index[v]:
                        scc = []
                        while True:
                            w = scc_stack.pop()
                            on_stack.discard(w)
                            scc.append(w)
                            if w == v:
                                break
                        looping = len(scc) > 1 or state_info(v)[1] == v & step_mask
                        fulfilled = 0
                        for w in scc:
                            fulfilled |= state_info(w)[2]
                        if looping and fulfilled == every_until:
                            return True
        return False

    profiles = range(1 << len(sps))
    tried: set[frozenset[int]] = set()
    incomplete = False
    for m in range(1, 1 << len(profiles)):
        P = tuple(pr for pr in profiles if m >> pr & 1)
        if any(not any(pr >> i & 1 for pr in P) for i in range(len(sps))):
            continue  # a standpoint with an empty extent
        for p0 in P:
            alphabet = letters(P, p0)
            if alphabet is None:
                incomplete = True
            elif alphabet not in tried:
                tried.add(alphabet)
                if fair_scc_reachable(alphabet):
                    return True
    return None if incomplete else False


def sharpening_atoms(f: Formula) -> frozenset[tuple[Standpoint, Standpoint]]:
    """The sharpening atoms occurring in ``f``, as (left, right) pairs."""
    return frozenset((g.left, g.right) for g in subformulas(f) if isinstance(g, Sharper))


def true_atoms(model: SLTLModel, f: Formula) -> frozenset[tuple[Standpoint, Standpoint]]:
    """The sharpening atoms of ``f`` that hold in ``model``: ``@a <= @b``
    holds iff the extent of ``a`` is a subset of that of ``b``."""
    lam = model.lam
    return frozenset((a, b) for a, b in sharpening_atoms(f) if lam[a] <= lam[b])


# ---------------------------------------------------------------------------
# Label families by a relation fixpoint

@dataclass(frozen=True)
class SharpeningClosure:
    """Reflexive-transitive closure of the sharpening atoms, with every
    standpoint linked to the universal one."""

    universe: frozenset[Standpoint]
    relation: frozenset[tuple[Standpoint, Standpoint]]

    def of(self, sp: Standpoint) -> frozenset[Standpoint]:
        return frozenset(b for (a, b) in self.relation if a == sp)

    def entails(self, pair: tuple[Standpoint, Standpoint]) -> bool:
        return pair in self.relation


def sharpening_closure(atoms, universe) -> SharpeningClosure:
    """The closure as a relation, grown pair by pair to its fixpoint."""
    univ = set(universe) | {UNIVERSAL}
    rel = set(atoms)
    for a, b in rel:
        univ |= {a, b}
    for sp in univ:
        rel |= {(sp, UNIVERSAL), (sp, sp)}
    changed = True
    while changed:
        changed = False
        for a, b in list(rel):
            for c in univ:
                if (b, c) in rel and (a, c) not in rel:
                    rel.add((a, c))
                    changed = True
    return SharpeningClosure(frozenset(univ), frozenset(rel))


def family_for(closure_rel: SharpeningClosure) -> tuple[frozenset[Standpoint], ...]:
    """The distinct label sets of the closure: the universal standpoint's
    first, then the others by size and sorted names."""
    star = closure_rel.of(UNIVERSAL)
    rest = {closure_rel.of(sp) for sp in closure_rel.universe} - {star}
    return (star, *sorted(rest, key=lambda s: (len(s), sorted(x.name for x in s))))


# ---------------------------------------------------------------------------
# Grid models read off one-position witnesses

def trace_labels(model: SLTLModel, standpoints) -> dict[str, frozenset[Standpoint]]:
    """The label set that λ gives each trace, restricted to ``standpoints``
    and the universal standpoint, by trace id."""
    sps = set(standpoints) | {UNIVERSAL}
    return {
        tid: frozenset(sp for sp in sps if sp.is_universal or tid in model.lam[sp])
        for tid in model.traces
    }


def witness_grid(model: SLTLModel, standpoints):
    """The grid model ``(family, columns)`` of a one-position witness: its
    traces grouped by the label set that λ gives them, restricted to
    ``standpoints`` and the universal standpoint.  The label sets come in
    the order of their first traces, and ``columns[i]`` holds the distinct
    valuations of the traces of label set ``i``, in trace order."""
    assert (model.prefix_len, model.period_len) == (0, 1)
    groups: dict[frozenset[Standpoint], dict[frozenset[str], None]] = {}
    for tid, labels in trace_labels(model, standpoints).items():
        groups.setdefault(labels, {})[model.traces[tid].valuation(0)] = None
    return tuple(groups), tuple(tuple(vals) for vals in groups.values())


# ---------------------------------------------------------------------------
# Exhaustive propositional corpus

def grid_holds(grid, f: Formula) -> bool:
    """Truth of ``f`` at the first valuation of column 0 of the grid model
    ``(family, columns)``, by the reference evaluator on the one-position
    model with one trace per valuation of each column."""
    family, columns = grid
    cells = [(labels, v) for labels, column in zip(family, columns) for v in column]
    traces = {f"t{k}": UPTrace((), (v,)) for k, (_, v) in enumerate(cells)}
    lam = {
        sp: frozenset(
            f"t{k}" for k, (labels, _) in enumerate(cells) if sp.is_universal or sp in labels
        )
        for sp in vocab(f).standpoints | {UNIVERSAL}
    }
    return evaluate(SLTLModel(traces, lam, 0, 1), "t0", 0, f)


def enumerate_psl_formulas(max_size: int, prop: str = "p"):
    """All propositional standpoint ASTs up to the size, over one
    proposition and the two fixed standpoints (double negation excluded)."""
    leaves: list[Formula] = [Prop(prop), TOP, BOTTOM, Sharper(S, T), Sharper(T, S)]
    by_size: dict[int, list[Formula]] = {1: leaves}
    modal_sps = [S, T, UNIVERSAL]
    for n in range(2, max_size + 1):
        out: list[Formula] = []
        for f in by_size[n - 1]:
            if not isinstance(f, Not) and f not in (TOP, BOTTOM):
                out.append(Not(f))
            for sp in modal_sps:
                out.append(DiamondS(sp, f))
                out.append(BoxS(sp, f))
        for k in range(1, n - 1):
            for a in by_size[k]:
                for b in by_size[n - 1 - k]:
                    out.append(And(a, b))
                    out.append(Or(a, b))
        by_size[n] = out
    for n in range(1, max_size + 1):
        yield from by_size[n]


# ---------------------------------------------------------------------------
# The engines past the one-cell check

def routed(f: Formula, opts=None):
    """The verdict of the engine that ``solve`` routes ``f`` to when ``f``
    has no one-cell model (and, for PSL and LtlPsl, no model of two traces
    at one instant), with a sat verdict's witness checked on ``f`` as
    ``solve`` checks it: the automaton for PSL, PureLTL and LtlPsl, the
    bounded search otherwise.  Tests of the automaton's witness and grid
    reach it here, on inputs that ``solve`` would answer by truth table."""
    # imported here, so that the references above import no engine
    from sltl.solver import SolveOptions, _route, check_witness
    from sltl.syntax import classify
    from sltl.translate import simplify

    v = _route(f, simplify(f), classify(f), opts or SolveOptions())
    assert not v.is_sat or check_witness(f, v.model, v.designated)
    return v


def engine_stratum(f: Formula, t_count: int, extents: dict, reach, prev: dict):
    """The interval engine's walk of the one-position stratum (``t_count``,
    0, 1) under ``extents`` (trace masks by standpoint): an engine
    compiled for that shape and ``search._search_stratum``, the walk the
    bounded search takes only where a stratum's truth table would exceed
    its cap.  The first model as one mask of true traces per proposition of
    ``f`` (sorted), or None.  ``reach`` and ``prev`` are the stratum's
    read traces and its pairs of interchangeable traces."""
    from sltl import search

    leaves = {Prop(p): i for i, p in enumerate(sorted(vocab(f).props))}
    engine = search.IntervalEngine([f], t_count, 0, 1, extents, leaves)
    cells = search._node_major_cells(engine, len(leaves), reach, prev)
    return search._search_stratum(engine, [engine.slot[f]], len(leaves), cells, [10**9, 10**9])


def engine_grid(family, props, formulas, budget):
    """The grid ``psl.CompiledGrid`` compiles over ``formulas`` with its
    cap on table bits at 0: an interval engine, so that
    ``psl.grid_model_for`` takes on it the slot search it takes only for
    grids whose tables would exceed ``ONE_CELL_BITS``."""
    from sltl import psl

    cap = psl.ONE_CELL_BITS
    psl.ONE_CELL_BITS = 0
    try:
        return psl.CompiledGrid(family, props, formulas, budget)
    finally:
        psl.ONE_CELL_BITS = cap
