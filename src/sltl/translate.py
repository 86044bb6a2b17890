"""Formula-to-formula constructions.

The rewrites that the engines run and no witness check does: ``rebuild``,
the homomorphic ``fold`` step that every rewrite here takes for the
connectives it leaves alone, constant folding (``simplify``), which
``solve`` runs on every input without a one-cell model, and negation
normal form.  Then the embeddings between the product logic and SLTL, the
guarded translation of standpoints into propositional variables,
strict-until renaming and the binary-counter formula generators.
Everything here is pure and size-linear in its input.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable

from .syntax import (
    BOTTOM,
    And,
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
    always,
    classify,
    conj,
    fold,
    iff,
    implies,
    neg,
    subformulas,
)
from .semantics import check_product_formula


# ---------------------------------------------------------------------------
# Rewrites: the homomorphic step and constant folding

def rebuild(g: Formula, kids: tuple[Formula, ...]) -> Formula:
    """``g`` over new children: the default ``fold`` step of a rewrite.

    A node whose children are unchanged is kept, a negation too unless
    its operand is a constant; other negations are rebuilt with ``neg``, so
    constants fold and double negations collapse.  One function per node
    class (``_REBUILD``) does it, so no node tests its class twice.
    """
    return _REBUILD[type(g)](g, kids)


def _keep(g: Formula, kids: tuple) -> Formula:
    return g


def _rebuild_not(g: Not, kids: tuple[Formula]) -> Formula:
    (a,) = kids
    if a is g.operand and type(a) is not Top and type(a) is not Bottom:
        return g
    return neg(a)


def _rebuild_next(g: Next, kids: tuple[Formula]) -> Formula:
    (a,) = kids
    return g if a is g.operand else Next(a)


def _rebuild_modal(g: DiamondS | BoxS, kids: tuple[Formula]) -> Formula:
    (a,) = kids
    return g if a is g.operand else type(g)(g.standpoint, a)


def _rebuild_binary(g: And | Or | Until, kids: tuple[Formula, Formula]) -> Formula:
    a, b = kids
    return g if a is g.left and b is g.right else type(g)(a, b)


_REBUILD: dict[type, Callable[[Formula, tuple], Formula]] = {
    Top: _keep, Bottom: _keep, Prop: _keep, Sharper: _keep, Not: _rebuild_not,
    Next: _rebuild_next, DiamondS: _rebuild_modal, BoxS: _rebuild_modal,
    And: _rebuild_binary, Or: _rebuild_binary, Until: _rebuild_binary,
}


def simplify(f: Formula) -> Formula:
    """Constant folding; the result is equivalent to the input in every
    model.

    Folds Boolean units, next-steps of constants, Until with a constant
    right side, modalities over constants (extents are never empty) and the
    reflexive or universally capped sharpening atoms.
    """
    return fold(f, _simplify_step)


def _simplify_step(g: Formula, kids: tuple[Formula, ...]) -> Formula:
    return _SIMPLIFY[type(g)](g, kids)


def _simplify_and(g: And, kids: tuple[Formula, Formula]) -> Formula:
    a, b = kids
    if type(a) is Bottom or type(b) is Bottom:
        return BOTTOM
    if type(a) is Top:
        return b
    if type(b) is Top:
        return a
    return _rebuild_binary(g, kids)


def _simplify_or(g: Or, kids: tuple[Formula, Formula]) -> Formula:
    a, b = kids
    if type(a) is Top or type(b) is Top:
        return TOP
    if type(a) is Bottom:
        return b
    if type(b) is Bottom:
        return a
    return _rebuild_binary(g, kids)


def _simplify_over_constant(g: Next | DiamondS | BoxS, kids: tuple[Formula]) -> Formula:
    """``X``, a diamond or a box: over a constant it is the constant, since
    extents are never empty."""
    a = kids[0]
    if type(a) is Top or type(a) is Bottom:
        return a
    return _REBUILD[type(g)](g, kids)


def _simplify_until(g: Until, kids: tuple[Formula, Formula]) -> Formula:
    a, b = kids
    if type(b) is Top or type(b) is Bottom or type(a) is Bottom:
        return b
    return _rebuild_binary(g, kids)


def _simplify_sharper(g: Sharper, kids: tuple) -> Formula:
    return TOP if g.left == g.right or g.right.is_universal else g


_SIMPLIFY: dict[type, Callable[[Formula, tuple], Formula]] = {
    **_REBUILD, And: _simplify_and, Or: _simplify_or, Next: _simplify_over_constant,
    DiamondS: _simplify_over_constant, BoxS: _simplify_over_constant,
    Until: _simplify_until, Sharper: _simplify_sharper,
}


# ---------------------------------------------------------------------------
# Negation normal form

def to_nnf(f: Formula) -> Formula:
    """Push negations inward through all dual pairs.

    In the result, ``Not`` appears only on propositions, sharpening atoms
    and on always-blocks ``Not(Until(Top, _))``, which encode the dual of
    Until without a release operator.  A ``fold``: each subformula's
    result is the pair of its normal form and its negation's.
    """
    return fold(f, _nnf_step)[0]


def _nnf_step(g: Formula, kids: tuple[tuple[Formula, Formula], ...]) -> tuple[Formula, Formula]:
    if not kids:
        return g, neg(g)
    if isinstance(g, Not):
        return kids[0][1], kids[0][0]
    form = rebuild(g, tuple(k[0] for k in kids))
    negs = [k[1] for k in kids]
    if isinstance(g, And):
        return form, Or(*negs)
    if isinstance(g, Or):
        return form, And(*negs)
    if isinstance(g, Next):
        return form, Next(*negs)
    if isinstance(g, DiamondS):
        return form, BoxS(g.standpoint, *negs)
    if isinstance(g, BoxS):
        return form, DiamondS(g.standpoint, *negs)
    # !(a U b)  ==  G !b  |  (!b U (!a & !b)), with G kept as !(true U b)
    na, nb = negs
    return form, Or(Not(Until(TOP, kids[1][0])), Until(nb, And(na, nb)))


def is_nnf(f: Formula) -> bool:
    """True when negations sit only on atoms or always-blocks: a loop over
    the memoised list of distinct subformulas."""
    for g in subformulas(f):
        if isinstance(g, Not):
            op = g.operand
            if isinstance(op, (Prop, Sharper)):
                continue
            if not (isinstance(op, Until) and op.left == TOP):
                return False
    return True


# ---------------------------------------------------------------------------
# Product logic <-> SLTL

def product_to_sltl(f: Formula) -> Formula:
    """Embed a product-logic formula into SLTL.

    Plain modalities are represented with the universal standpoint in the
    shared AST, so after the sublanguage guard this is the identity; the
    embedding replaces every plain diamond and box by its universal twin.
    """
    check_product_formula(f)
    return f


def guard_prop(sp: Standpoint) -> Prop:
    """The propositional variable standing for membership in a standpoint."""
    return Prop("@" + sp.name)


def rigidity_guard(standpoints: Iterable[Standpoint]) -> Formula:
    """Every listed standpoint is inhabited and trace-rigid.

    The conjunction of one witness diamond per standpoint and one box over
    the per-trace rigidity disjunctions; the empty list yields true.  The
    universal standpoint needs no guard and must not be listed.
    """
    sps = list(standpoints)
    if any(sp.is_universal for sp in sps):
        raise ValueError("the universal standpoint is not guarded")
    if not sps:
        return TOP
    inhabited = conj([DiamondS(UNIVERSAL, guard_prop(sp)) for sp in sps])
    rigid = conj([Or(always(guard_prop(sp)), always(neg(guard_prop(sp)))) for sp in sps])
    return And(inhabited, BoxS(UNIVERSAL, rigid))


def _occurring_standpoints(f: Formula) -> list[Standpoint]:
    """Non-universal standpoints in first-occurrence order."""

    def step(g: Formula, kids: tuple[dict, ...]) -> dict[Standpoint, None]:
        own = (g.standpoint,) if isinstance(g, (DiamondS, BoxS)) else ()
        if isinstance(g, Sharper):
            own = (g.left, g.right)
        return dict.fromkeys([*own, *(sp for k in kids for sp in k)])

    return [sp for sp in fold(f, step) if not sp.is_universal]


def translate_standpoints_away(f: Formula) -> Formula:
    """Compile standpoint constructs into guard variables.

    Homomorphic on Boolean and temporal connectives; universal modalities
    become plain ones, named modalities guard their operand with the
    standpoint's variable, and sharpening atoms become a global implication
    between guard variables.  Atoms involving the universal standpoint fold
    to their semantic value instead of guarding it.
    """
    return fold(f, _guard_step)


def _guard_step(g: Formula, kids: tuple[Formula, ...]) -> Formula:
    if isinstance(g, Sharper):
        if g.right.is_universal:
            return TOP
        if g.left.is_universal:
            return BoxS(UNIVERSAL, guard_prop(g.right))
        return BoxS(UNIVERSAL, implies(guard_prop(g.left), guard_prop(g.right)))
    if isinstance(g, DiamondS) and not g.standpoint.is_universal:
        return DiamondS(UNIVERSAL, And(guard_prop(g.standpoint), kids[0]))
    if isinstance(g, BoxS) and not g.standpoint.is_universal:
        return BoxS(UNIVERSAL, implies(guard_prop(g.standpoint), kids[0]))
    return rebuild(g, kids)


def sltl_to_product(f: Formula) -> Formula:
    """Satisfiability-preserving translation into the product logic: the
    rigidity guard for the occurring standpoints conjoined with the
    guard-variable compilation of the formula."""
    return And(rigidity_guard(_occurring_standpoints(f)), translate_standpoints_away(f))


def psl_to_s5(f: Formula) -> Formula:
    """Guarded S5 translation of a propositional standpoint formula.

    The output is temporal-free and uses the universal modality as the
    plain S5 one: each occurring standpoint gets an inhabitation diamond,
    and the body is the guard-variable compilation.
    """
    if classify(f) is not Fragment.PSL:
        raise ValueError("only propositional standpoint formulas translate to S5")
    guard = conj([DiamondS(UNIVERSAL, guard_prop(sp)) for sp in _occurring_standpoints(f)])
    return And(guard, translate_standpoints_away(f))


# ---------------------------------------------------------------------------
# Strict-until renaming

def until_to_strict(f: Formula) -> Formula:
    """Rename Until subformulas through fresh variables.

    Each distinct Until gets a variable and one globally propagated
    equivalence unfolding it through the strict-until form (encoded as a
    next step into the Until over the renamed operands), keeping the output
    linear in the input.  Formulas without Until are returned unchanged.
    """
    check_product_formula(f)
    defs: list[Formula] = []
    renamed: dict[Formula, Prop] = {}

    def step(g: Formula, kids: tuple[Formula, ...]) -> Formula:
        if not isinstance(g, Until):
            return rebuild(g, kids)
        a, b = kids
        key = Until(a, b)
        if key not in renamed:
            var = Prop(f"$u{len(renamed)}")
            renamed[key] = var
            defs.append(BoxS(UNIVERSAL, always(iff(var, Or(b, And(a, Next(key)))))))
        return renamed[key]

    top = fold(f, step)
    if not defs:
        return f
    return conj([top] + defs)


# ---------------------------------------------------------------------------
# Binary counter generators

def _bit(i: int) -> Prop:
    return Prop(f"p{i}")


def counter_formula(n: int) -> Formula:
    """A binary counter over ``p1..pn`` (``p1`` most significant).

    Starts at zero, increments by one at every step and wraps around after
    the maximum, so the value at position ``j`` is ``j`` modulo ``2**n``.
    """
    if n < 1:
        raise ValueError("the counter needs at least one bit")
    bits = [_bit(i) for i in range(1, n + 1)]
    start = conj([neg(b) for b in bits])
    wrap = always(implies(conj(bits), Next(conj([neg(b) for b in bits]))))
    steps: list[Formula] = []
    for i in range(1, n + 1):
        low_ones = conj([_bit(k) for k in range(i + 1, n + 1)])
        cond = conj([x for x in [neg(_bit(i)), low_ones] if x != TOP])
        effect_parts: list[Formula] = [Next(neg(_bit(k))) for k in range(i + 1, n + 1)]
        effect_parts.append(Next(_bit(i)))
        effect_parts.extend(iff(_bit(k), Next(_bit(k))) for k in range(1, i))
        steps.append(always(implies(cond, conj(effect_parts))))
    return conj([start, wrap] + steps)


def recurring_counter_formula(n: int) -> Formula:
    """At every instant some trace of the standpoint starts a fresh counter
    run marked by a flag that never returns.

    Any model must keep producing new such traces, so no finite set of
    traces can host one.
    """
    if n < 1:
        raise ValueError("the counter needs at least one bit")
    flag = Prop("p")
    body = conj([counter_formula(n), flag, Next(always(neg(flag)))])
    return always(DiamondS(Standpoint("s"), body))
