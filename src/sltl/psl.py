"""Propositional standpoint logic: grid models and complete satisfiability.

Satisfiability goes through the normalized small-model property: a
satisfiable conjunction of sharpening atoms and a sharpening-free body in
negation normal form has a model on the grid of sharpening-closed label
sets times a small index range.  The grid search here is therefore complete
for the fragment, and the partition wrapper extends it to arbitrary
propositional standpoint formulas.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .syntax import (
    And,
    BOTTOM,
    DiamondS,
    Formula,
    Not,
    Prop,
    Sharper,
    Standpoint,
    TOP,
    UNIVERSAL,
    _has_temporal,
    children,
    conj,
    neg,
    size,
    to_nnf,
    to_text,
    vocab,
)
from .semantics import _IntervalEngine
from .translate import iter_partitions, sharpening_witnesses, substitute_sharpenings


class TemporalOperatorError(ValueError):
    """A temporal operator reached a propositional-only code path."""


def _require_propositional(f: Formula) -> None:
    if _has_temporal(f):
        raise TemporalOperatorError(f"temporal operator in a propositional context: {f}")


# ---------------------------------------------------------------------------
# Sharpening closure and the label-set family

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


def sharpening_closure(
    atoms: Iterable[tuple[Standpoint, Standpoint]], universe: Iterable[Standpoint]
) -> SharpeningClosure:
    univ = set(universe)
    univ.add(UNIVERSAL)
    rel = {(a, b) for a, b in atoms}
    for a, b in list(rel):
        univ.add(a)
        univ.add(b)
    for sp in univ:
        rel.add((sp, UNIVERSAL))
        rel.add((sp, sp))
    members = sorted(univ, key=lambda s: s.name)
    changed = True
    while changed:
        changed = False
        for a, b in list(rel):
            for c in members:
                if (b, c) in rel and (a, c) not in rel:
                    rel.add((a, c))
                    changed = True
    return SharpeningClosure(frozenset(univ), frozenset(rel))


@dataclass(frozen=True)
class SFamily:
    """The distinct label sets of the grid; the universal one comes first."""

    sets: tuple[frozenset[Standpoint], ...]

    @property
    def s_star(self) -> frozenset[Standpoint]:
        return self.sets[0]

    def __len__(self) -> int:
        return len(self.sets)


def family_for(closure_rel: SharpeningClosure) -> SFamily:
    star = closure_rel.of(UNIVERSAL)
    rest = {closure_rel.of(sp) for sp in closure_rel.universe}
    rest.discard(star)
    ordered = [star] + sorted(rest, key=lambda s: (len(s), sorted(x.name for x in s)))
    return SFamily(tuple(ordered))


# ---------------------------------------------------------------------------
# Grid models

@dataclass
class PSLModel:
    """Precisifications are the cells of ``family x {1..n}``; the standpoint
    labels of a cell are exactly its family set."""

    family: SFamily
    n: int
    valuation: dict[tuple[int, int], frozenset[str]]

    def __post_init__(self):
        expected = set(self.cells())
        if set(self.valuation) != expected:
            raise ValueError("valuation must cover exactly the grid cells")

    def cells(self) -> list[tuple[int, int]]:
        return [(i, j) for i in range(len(self.family)) for j in range(1, self.n + 1)]

    def labels(self, cell: tuple[int, int]) -> frozenset[Standpoint]:
        return self.family.sets[cell[0]]

    def extent(self, sp: Standpoint) -> list[tuple[int, int]]:
        if sp.is_universal:
            return self.cells()
        return [c for c in self.cells() if sp in self.labels(c)]


@dataclass
class SatResult:
    model: Optional[PSLModel]
    designated: Optional[tuple[int, int]]

    @property
    def is_sat(self) -> bool:
        return self.model is not None

    @staticmethod
    def unsat() -> "SatResult":
        return SatResult(None, None)


# ---------------------------------------------------------------------------
# Normal form for the grid solver

class _Unrepresentable:
    __slots__ = ()

    def __repr__(self) -> str:
        return "UNREPRESENTABLE"

    def __bool__(self) -> bool:
        return False


UNREPRESENTABLE = _Unrepresentable()


def _conjuncts(f: Formula) -> list[Formula]:
    if isinstance(f, And):
        return _conjuncts(f.left) + _conjuncts(f.right)
    return [f]


def _mentions_sharper(f: Formula) -> bool:
    if isinstance(f, Sharper):
        return True
    return any(_mentions_sharper(c) for c in children(f))


def split_for_grid(f: Formula):
    """Split into sharpening atoms and a sharpening-free NNF body.

    The reflexive universal atom is always added so the universal standpoint
    is mentioned.  Returns UNREPRESENTABLE when a sharpening atom survives
    inside or under negation in the body; the partition wrapper eliminates
    those before calling here.
    """
    _require_propositional(f)
    atoms: list[Sharper] = []
    rest: list[Formula] = []
    for part in _conjuncts(f):
        if isinstance(part, Sharper):
            atoms.append(part)
        else:
            rest.append(part)
    body = to_nnf(conj(rest))
    if _mentions_sharper(body):
        return UNREPRESENTABLE
    star = Sharper(UNIVERSAL, UNIVERSAL)
    if star not in atoms:
        atoms.append(star)
    return atoms, body


def _count_diamonds(f: Formula) -> int:
    own = 1 if isinstance(f, DiamondS) else 0
    return own + sum(_count_diamonds(c) for c in children(f))


# ---------------------------------------------------------------------------
# Grid search

def _grid_search(
    body: Formula, family: SFamily, n: int, props: tuple[str, ...]
) -> Optional[dict[tuple[int, int], frozenset[str]]]:
    """Find a valuation of the ``family x {1..n}`` grid satisfying the body
    at the designated cell, or None.

    Backtracks over which valuations each column carries (its present
    types) rather than over individual cells: modal truth only reads the
    per-column valuation sets, so the search is complete as long as a
    column never needs more distinct valuations than it has cells, and a
    found presence assignment expands to the full grid by padding columns
    with copies.  Three-valued truth comes from the bounded search's
    interval engine on a one-position lasso whose traces are the types:
    propositions are constant masks, and the presence bits decide which
    traces the modalities quantify over.  The designated cell's valuation
    is chosen first; presence bits are tried absent before present, so the
    result is deterministic.
    """
    plist = sorted(props)
    prop_bits = {p: i for i, p in enumerate(plist)}
    v_count = 1 << len(plist)
    vals = list(range(v_count))
    cols = len(family)
    n_types = cols * v_count
    full = (1 << n_types) - 1
    col_masks = [((1 << v_count) - 1) << (c * v_count) for c in range(cols)]
    extents = {UNIVERSAL: tuple(range(n_types))}
    for sp in frozenset().union(*family.sets):
        extents[sp] = tuple(t for t in range(n_types) if sp in family.sets[t // v_count])
    true_masks = [
        sum(1 << t for t in range(n_types) if t % v_count >> i & 1) for i in range(len(plist))
    ]
    false_masks = [full ^ m for m in true_masks]
    try:
        engine = _IntervalEngine(body, n_types, 0, 1, extents, prop_bits)
    except KeyError as exc:
        raise ValueError(f"standpoint {exc.args[0]} is outside the grid universe") from None
    cap = min(n, v_count)

    def val_set(v: int) -> frozenset[str]:
        return frozenset(p for p in plist if v >> prop_bits[p] & 1)

    def expand(present: int, dv: int) -> dict[tuple[int, int], frozenset[str]]:
        valuation = {}
        for c in range(cols):
            chosen = [v for v in vals if present >> (c * v_count + v) & 1]
            if c == 0:
                chosen = [dv] + [v for v in chosen if v != dv]
            rows = (chosen + [chosen[0]] * n)[:n]
            for j, v in enumerate(rows, start=1):
                valuation[(c, j)] = val_set(v)
        return valuation

    for dv in range(v_count):
        d_bit = 1 << dv  # designated type sits in column 0
        order = [t for t in range(n_types) if t != dv]

        def dfs(idx: int, present: int, absent: int) -> Optional[dict]:
            for col in col_masks:
                if col & ~absent == 0:
                    return None  # every type of the column ruled out
                if (col & present).bit_count() > cap:
                    return None  # more distinct valuations than cells
            lo, hi = engine.bounds(true_masks, false_masks, d_bit, present, full ^ absent)
            if not hi:
                return None
            if lo and all(col & present for col in col_masks):
                return expand(present, dv)
            if idx == len(order):
                return None
            t_bit = 1 << order[idx]
            return dfs(idx + 1, present, absent | t_bit) or dfs(idx + 1, present | t_bit, absent)

        found = dfs(0, d_bit, 0)
        if found is not None:
            return found
    return None


# ---------------------------------------------------------------------------
# Satisfiability

def sat_normal_form(
    atoms: list[Sharper], body: Formula, n_override: Optional[int] = None
) -> SatResult:
    """Complete satisfiability for ``(and of atoms) and body``.

    The grid width defaults to the least value the small-model property
    permits: one more than the number of standpoint symbols plus the number
    of diamond occurrences in the body.
    """
    star = Sharper(UNIVERSAL, UNIVERSAL)
    if star not in atoms:
        atoms = list(atoms) + [star]
    whole = conj(list(atoms) + [body])
    universe = vocab(whole).standpoints
    closure_rel = sharpening_closure([(a.left, a.right) for a in atoms], universe)
    family = family_for(closure_rel)
    n1 = len(universe)
    n2 = _count_diamonds(body)
    n = n_override if n_override is not None else n1 + n2 + 1
    props = tuple(sorted(vocab(body).props))
    valuation = _grid_search(body, family, n, props)
    if valuation is None:
        return SatResult.unsat()
    model = PSLModel(family, n, valuation)
    return SatResult(model, (0, 1))


def sat(f: Formula) -> SatResult:
    """Complete satisfiability for any propositional standpoint formula.

    Sharpening atoms are decided by trying every partition into true and
    false atoms: the true ones become grid structure, the false ones are
    witnessed by a fresh variable visible to the finer standpoint only.
    """
    _require_propositional(f)
    pairs = sorted(vocab(f).sharpenings, key=lambda p: (p[0].name, p[1].name))
    for part in iter_partitions(pairs):
        plus = sorted(part.i_plus, key=lambda p: (p[0].name, p[1].name))
        minus = sorted(part.i_minus, key=lambda p: (p[0].name, p[1].name))
        mapping: dict[tuple[Standpoint, Standpoint], Formula] = {}
        mapping.update({pair: TOP for pair in plus})
        mapping.update({pair: BOTTOM for pair in minus})
        witnesses = sharpening_witnesses(minus)
        parts: list[Formula] = [Sharper(a, b) for (a, b) in plus]
        for (a, b) in minus:
            w = Prop(witnesses[(a, b)])
            parts.append(And(DiamondS(a, w), neg(DiamondS(b, w))))
        parts.append(substitute_sharpenings(f, mapping))
        norm = split_for_grid(conj(parts))
        assert norm is not UNREPRESENTABLE, "substitution left a sharpening atom behind"
        result = sat_normal_form(*norm)
        if result.is_sat:
            return result
    return SatResult.unsat()


# ---------------------------------------------------------------------------
# Standpoint consistency of closure subsets

_consistency_cache: dict[frozenset[Formula], bool] = {}


def standpoint_consistent(members: Iterable[Formula]) -> bool:
    """Is the conjunction of these propositional members satisfiable?

    Fast path: a negated sharpening atom already entailed by the positive
    ones is hopeless, no search needed.  Verdicts are memoized by the set of
    members; the cache only ever stores final verdicts, so an interrupted
    query leaves no entry behind.
    """
    mems = frozenset(members)
    for m in mems:
        _require_propositional(m)
    cached = _consistency_cache.get(mems)
    if cached is not None:
        return cached
    verdict = _consistent(mems)
    _consistency_cache[mems] = verdict
    return verdict


def _consistent(mems: frozenset[Formula]) -> bool:
    positives = [(g.left, g.right) for g in mems if isinstance(g, Sharper)]
    negatives = [
        (g.operand.left, g.operand.right)
        for g in mems
        if isinstance(g, Not) and isinstance(g.operand, Sharper)
    ]
    if negatives:
        universe = vocab(conj(sorted(mems, key=lambda m: (size(m), to_text(m))))).standpoints
        closure_rel = sharpening_closure(positives, universe)
        for pair in negatives:
            if closure_rel.entails(pair):
                return False
    ordered = sorted(mems, key=lambda m: (size(m), to_text(m)))
    return sat(conj(ordered)).is_sat


def clear_consistency_cache() -> None:
    _consistency_cache.clear()


# ---------------------------------------------------------------------------
# Grid models for externally fixed grids (used by the solver)

def grid_model_for(
    conjuncts: list[Formula], family: SFamily, n: int
) -> Optional[PSLModel]:
    """Model of the conjunction on the given grid, or None.

    The sharpening atoms among the conjuncts must already hold structurally
    on the family (the caller builds the family from the same atoms).
    """
    norm = split_for_grid(conj(conjuncts))
    if norm is UNREPRESENTABLE:
        raise ValueError("negated sharpening atom in a grid conjunction")
    atoms, body = norm
    for atom in atoms:
        for labels in family.sets:
            if atom.left in labels and atom.right not in labels:
                raise ValueError(f"family does not realize the atom {atom}")
    props = tuple(sorted(vocab(body).props))
    valuation = _grid_search(body, family, n, props)
    if valuation is None:
        return None
    return PSLModel(family, n, valuation)


# ---------------------------------------------------------------------------
# Witness serialization

def psl_model_to_json(model: PSLModel, designated: tuple[int, int]) -> dict:
    return {
        "s_family": [sorted(str(sp) for sp in s) for s in model.family.sets],
        "n": model.n,
        "valuation": {f"{i},{j}": sorted(v) for (i, j), v in sorted(model.valuation.items())},
        "designated": f"{designated[0]},{designated[1]}",
    }
