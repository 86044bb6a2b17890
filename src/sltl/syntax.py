"""Formula syntax for standpoint linear temporal logic.

AST nodes, the surface-text parser, the canonical printer, negation normal
form, closure sets and fragment classification.  Formulas are immutable
slotted objects that hash and compare structurally, so they can be used as
dictionary keys throughout the package; each constructor computes its
node's hash and size from its children's, so building a node is O(1).

Walks over a formula loop over an explicit stack, so no formula is too deep
for them: ``nodes`` lists every occurrence of a subformula in pre-order,
``fold`` computes bottom-up once per node object, so a shared subterm is
rewritten once, with ``rebuild`` as the homomorphic step that a rewrite
calls for every connective it leaves alone, and ``_walk`` visits each
distinct subformula once.  That walk, memoised on the formula it reads,
is the one every reader of a formula shares: its flat children-first
program (``program``: the distinct subformulas and the list positions of
each one's children), read by ``subformulas``, the witness checker, the
one-cell check, the interval engine's compile and ``ClosureSet``, and its
``Vocabulary``, read by ``vocab`` and ``classify``.  The parser
loops over two stacks and the printer over one, so no input is too deep
for them either; both read one operator table.
"""

from __future__ import annotations

import re
from collections.abc import Callable, Collection, Iterable, Iterator
from enum import Enum
from functools import reduce
from operator import itemgetter

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


class ParseError(ValueError):
    """Malformed formula text, with the offending line/column."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


class _Immutable:
    """A slotted value whose fields no one assigns: assigning to or
    deleting an attribute raises ``AttributeError``, and constructors set
    their fields through the slot descriptors.  The hash is cached in the
    ``_hash`` slot at construction; ``_FIELDS`` lists the constructor's
    arguments, for pickling and ``repr``."""

    __slots__ = ()

    def __setattr__(self, name, _value=None):  # also __delattr__
        raise AttributeError(f"cannot assign to {name!r} of an immutable {type(self).__name__}")

    __delattr__ = __setattr__

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in _FIELDS[type(self)])

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in _FIELDS[type(self)])
        return f"{type(self).__name__}({fields})"


class _Record:
    """A plain record whose ``__slots__`` are its fields, in the order of
    its constructor's arguments: it compares and prints field by field, and
    pickles through its constructor.  Its fields can be assigned, so it is
    unhashable; ``_FrozenRecord`` is the immutable kind."""

    __slots__ = ()
    __hash__ = None

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __reduce__(self):
        return type(self), self._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


class _FrozenRecord(_Record):
    """A record whose fields no one assigns, as in ``_Immutable``: its
    constructor sets them with ``object.__setattr__``, and it hashes by
    their values."""

    __slots__ = ()
    __setattr__ = __delattr__ = _Immutable.__setattr__

    def __hash__(self):
        return hash(self._values())


class Standpoint(_Immutable):
    """A named standpoint; ``*`` is the universal one."""

    __slots__ = ("name", "_hash")

    def __init__(self, name: str):
        if name != "*" and not _NAME_RE.fullmatch(name):
            raise ValueError(f"bad standpoint name: {name!r}")
        _SET_SP_NAME(self, name)
        _SET_SP_HASH(self, hash(name))

    def __eq__(self, other):
        return self is other or type(other) is Standpoint and self.name == other.name

    __hash__ = _Immutable.__hash__

    @property
    def is_universal(self) -> bool:
        return self.name == "*"

    def __str__(self) -> str:
        return "@" + self.name


_SET_SP_NAME = Standpoint.name.__set__
_SET_SP_HASH = Standpoint._hash.__set__
UNIVERSAL = Standpoint("*")


class Formula(_Immutable):
    """Base class of all formula nodes.

    Nodes are immutable.  Each constructor computes the node's structural
    hash and node count from its children's cached ones, in O(1), with a
    class tag (``_tag``) in the hash.  Equality is structural too: it
    returns early on identity, then on class and hash, and only then
    compares fields (``_same``).  The first of ``vocab``, ``program`` and
    ``subformulas`` to read a node walks it once and memoises both results
    on it, in the ``_vocab`` and ``_program`` slots.
    """

    __slots__ = ("_hash", "_size", "_vocab", "_program")

    def __init__(self):  # the constants
        _SET_HASH(self, self._tag)
        _SET_SIZE(self, 1)

    def __eq__(self, other):
        return self is other or (
            type(other) is type(self) and self._hash == other._hash and _same(self, other)
        )

    __hash__ = _Immutable.__hash__

    def __str__(self) -> str:
        return to_text(self)


_SET_HASH = Formula._hash.__set__
_SET_SIZE = Formula._size.__set__
_SET_VOCAB = Formula._vocab.__set__
_SET_PROGRAM = Formula._program.__set__


class Top(Formula):
    __slots__ = ()
    _tag = 1


class Bottom(Formula):
    __slots__ = ()
    _tag = 2


class Prop(Formula):
    """Propositional variable.

    Plain names come from the surface syntax; names with the ``@`` sigil are
    standpoint-guard variables produced by the translations, and names with
    the ``$`` prefix are reserved for generated variables.
    """

    __slots__ = ("name",)

    def __init__(self, name: str):
        if not _valid_prop_name(name):
            raise ValueError(f"bad proposition name: {name!r}")
        _SET_PROP_NAME(self, name)
        _SET_HASH(self, hash((3, name)))
        _SET_SIZE(self, 1)

    def __eq__(self, other):
        return self is other or type(other) is Prop and self.name == other.name

    __hash__ = _Immutable.__hash__


class Sharper(Formula):
    """Sharpening atom: the left standpoint refines the right one."""

    __slots__ = ("left", "right")

    def __init__(self, left: Standpoint, right: Standpoint):
        _SET_SHARPER_LEFT(self, left)
        _SET_SHARPER_RIGHT(self, right)
        _SET_HASH(self, hash((4, left._hash, right._hash)))
        _SET_SIZE(self, 1)


class _Unary(Formula):
    __slots__ = ("operand",)

    def __init__(self, operand: Formula):
        _SET_OPERAND(self, operand)
        _SET_HASH(self, hash((self._tag, operand._hash)))
        _SET_SIZE(self, 1 + operand._size)


class _Modal(_Unary):
    __slots__ = ("standpoint",)

    def __init__(self, standpoint: Standpoint, operand: Formula):
        _SET_STANDPOINT(self, standpoint)
        _SET_OPERAND(self, operand)
        _SET_HASH(self, hash((self._tag, standpoint._hash, operand._hash)))
        _SET_SIZE(self, 1 + operand._size)


class _Binary(Formula):
    __slots__ = ("left", "right")

    def __init__(self, left: Formula, right: Formula):
        _SET_LEFT(self, left)
        _SET_RIGHT(self, right)
        _SET_HASH(self, hash((self._tag, left._hash, right._hash)))
        _SET_SIZE(self, 1 + left._size + right._size)


class Not(_Unary):
    __slots__ = ()
    _tag = 5

    def __init__(self, operand: Formula):
        if type(operand) is Not:
            raise ValueError("double negation is not representable; use neg()")
        _Unary.__init__(self, operand)


class And(_Binary):
    __slots__ = ()
    _tag = 6


class Or(_Binary):
    __slots__ = ()
    _tag = 7


class DiamondS(_Modal):
    __slots__ = ()
    _tag = 8


class BoxS(_Modal):
    __slots__ = ()
    _tag = 9


class Next(_Unary):
    __slots__ = ()
    _tag = 10


class Until(_Binary):
    __slots__ = ()
    _tag = 11


_SET_PROP_NAME = Prop.name.__set__
_SET_SHARPER_LEFT = Sharper.left.__set__
_SET_SHARPER_RIGHT = Sharper.right.__set__
_SET_OPERAND = _Unary.operand.__set__
_SET_STANDPOINT = _Modal.standpoint.__set__
_SET_LEFT = _Binary.left.__set__
_SET_RIGHT = _Binary.right.__set__

# Field names of each class in constructor order, all of them and the
# Formula-valued ones, read once instead of on every walk.
_FIELDS: dict[type, tuple[str, ...]] = {
    Standpoint: ("name",), Top: (), Bottom: (), Prop: ("name",), Sharper: ("left", "right"),
    Not: ("operand",), Next: ("operand",), DiamondS: ("standpoint", "operand"),
    BoxS: ("standpoint", "operand"), And: ("left", "right"), Or: ("left", "right"),
    Until: ("left", "right"),
}
_CHILD_FIELDS: dict[type, tuple[str, ...]] = {
    cls: () if cls is Sharper else tuple(n for n in names if n not in ("name", "standpoint"))
    for cls, names in _FIELDS.items()
}
_REVERSED_CHILD_FIELDS = {cls: names[::-1] for cls, names in _CHILD_FIELDS.items()}


def _same(f: Formula, g: Formula) -> bool:
    """Structural equality of two nodes of one class and hash.

    Loops down the larger child and recurses only into the smaller one,
    whose size is at most half, so the depth is at most log2 of the size
    and no formula is too deep to compare.
    """
    while True:
        if not _CHILD_FIELDS[type(f)]:
            return all(getattr(f, name) == getattr(g, name) for name in _FIELDS[type(f)])
        if isinstance(f, _Binary):
            a, b, c, d = f.left, f.right, g.left, g.right
            if a._size < b._size:
                a, b, c, d = b, a, d, c
            if b != d:
                return False
            f, g = a, c
        elif isinstance(f, _Modal) and f.standpoint != g.standpoint:
            return False
        else:
            f, g = f.operand, g.operand
        if f is g:
            return True
        if type(f) is not type(g) or f._hash != g._hash:
            return False


TOP = Top()
BOTTOM = Bottom()


def _valid_prop_name(name: str) -> bool:
    if _NAME_RE.fullmatch(name):
        return True
    if name.startswith("@"):
        rest = name[1:]
        return rest == "*" or bool(_NAME_RE.fullmatch(rest))
    if name.startswith("$"):
        return bool(re.fullmatch(r"\$[A-Za-z0-9_]+", name))
    return False


def neg(f: Formula) -> Formula:
    """Negation with double-negation collapse and constant folding."""
    if isinstance(f, Not):
        return f.operand
    if isinstance(f, Top):
        return BOTTOM
    if isinstance(f, Bottom):
        return TOP
    return Not(f)


def conj(formulas: Iterable[Formula]) -> Formula:
    """Left fold of a conjunction; the empty conjunction is true."""
    items = list(formulas)
    if not items:
        return TOP
    return reduce(And, items)


def disj(formulas: Iterable[Formula]) -> Formula:
    items = list(formulas)
    if not items:
        return BOTTOM
    return reduce(Or, items)


def implies(a: Formula, b: Formula) -> Formula:
    return Or(neg(a), b)


def iff(a: Formula, b: Formula) -> Formula:
    return And(implies(a, b), implies(b, a))


def eventually(f: Formula) -> Formula:
    return Until(TOP, f)


def always(f: Formula) -> Formula:
    return neg(Until(TOP, neg(f)))


def size(f: Formula) -> int:
    """Number of AST nodes."""
    return f._size


def children(f: Formula) -> tuple[Formula, ...]:
    return tuple(getattr(f, name) for name in _CHILD_FIELDS[type(f)])


def nodes(f: Formula) -> Iterator[Formula]:
    """Every occurrence of a subformula of ``f``, in pre-order, left to
    right; shared subterms are yielded once per occurrence."""
    stack = [f]
    while stack:
        g = stack.pop()
        yield g
        for name in _REVERSED_CHILD_FIELDS[type(g)]:
            stack.append(getattr(g, name))


_READY = object()  # a marker on fold's stack, and the result of no node
_ARITY = {cls: len(names) for cls, names in _CHILD_FIELDS.items()}


def fold(f: Formula, step: Callable[[Formula, tuple], object]) -> object:
    """Post-order evaluation, once per node object: ``step(g, kids)`` gets
    the results for ``g``'s children, left to right, and the left subtree
    is folded before the right one.  A node object met again, a shared
    subterm, reuses its first result, so a rewrite keeps the sharing of its
    input and takes time linear in its distinct node objects."""
    done: dict[int, object] = {}  # by id(): f keeps every node object alive
    results: list = []  # the results of the children of the nodes on the stack
    stack: list = [f]
    push, pop = stack.append, stack.pop
    while stack:
        g = pop()
        if g is _READY:  # the node below it has its children's results
            g = pop()
            if _ARITY[type(g)] == 2:
                right = results.pop()
                done[id(g)] = results[-1] = step(g, (results[-1], right))
            else:
                done[id(g)] = results[-1] = step(g, (results[-1],))
            continue
        r = done.get(id(g), _READY)
        if r is _READY:  # not folded yet
            arity = _ARITY[type(g)]
            if arity:
                push(g)
                push(_READY)
                if arity == 2:
                    push(g.right)
                    push(g.left)
                else:
                    push(g.operand)
                continue
            r = done[id(g)] = step(g, ())
        results.append(r)
    return results[0]


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


def _rebuild_modal(g: _Modal, kids: tuple[Formula]) -> Formula:
    (a,) = kids
    return g if a is g.operand else type(g)(g.standpoint, a)


def _rebuild_binary(g: _Binary, kids: tuple[Formula, Formula]) -> Formula:
    a, b = kids
    return g if a is g.left and b is g.right else type(g)(a, b)


_REBUILD: dict[type, Callable[[Formula, tuple], Formula]] = {
    Top: _keep, Bottom: _keep, Prop: _keep, Sharper: _keep, Not: _rebuild_not,
    Next: _rebuild_next, DiamondS: _rebuild_modal, BoxS: _rebuild_modal,
    And: _rebuild_binary, Or: _rebuild_binary, Until: _rebuild_binary,
}


def subformulas(*roots: Formula, known: Collection[Formula] = ()) -> list[Formula]:
    """All distinct subformulas of ``roots`` (the roots included), children
    first, left to right and root by root.  A formula in ``known`` (a set
    or a dict, for fast lookups) is neither listed nor entered, so what
    lies only beneath known formulas is left out.

    One root whose known formulas, if any, have no children (nothing lies
    beneath them) reads the list of its memoised ``program``: with no
    ``known`` every such call returns that one list, which is shared, so
    no caller may change it."""
    if len(roots) == 1 and (not known or not any(_ARITY[type(g)] for g in known)):
        subs = program(roots[0])[0]
        return [g for g in subs if g not in known] if known else subs
    return _walk(roots, known)[0]


def program(f: Formula) -> tuple[list[Formula], list[int], list[int]]:
    """The flat program of ``f``: the list of its distinct subformulas,
    children first and the root last, and beside it the lists ``left`` and
    ``right`` of the list positions of each one's children: the left child
    or the operand, and the right child, -1 where there is none.  A reader
    keeps one value per subformula in a list beside the program and finds
    a connective's operands by position, with no formula hashed.

    The first reader walks ``f`` and memoises the program on it, with its
    ``Vocabulary``: ``vocab``, the one-cell check, the witness check of its
    model and the bounded search's compile read one walk of the input
    between them.  Both are shared, so no caller may change them."""
    try:
        return f._program
    except AttributeError:
        subs, left, right, voc = _walk((f,), ())
        _SET_VOCAB(f, voc)
        _SET_PROGRAM(f, (subs, left, right))
        return subs, left, right


def programs(roots: Iterable[Formula]) -> tuple[list[Formula], list[int], list[int], list[int]]:
    """One flat program of every formula of ``roots``, laid out as
    ``program`` lays out one formula's, and the list position of each
    root: one walk, not memoised, which reads no vocabulary."""
    return _walk(tuple(roots), (), False)


# The flags the walk of one root gives each subformula, bottom-up: it has a
# proposition outside every modal operand, a temporal operator, a temporal
# operator beneath a modality.
_FREE, _TEMPORAL, _UNDER = 1, 2, 4


def _walk(
    roots: tuple[Formula, ...], known: Collection[Formula], track: bool | None = None
) -> tuple[list[Formula], list[int], list[int], Vocabulary | list[int] | None]:
    """The one walk: each distinct subformula of ``roots`` is visited once,
    post-order, and listed at its first completion.  A known formula is
    neither listed nor entered.

    A walk with no known formulas gives each listed subformula the list
    positions of its children, which the stack ``done`` holds until their
    parent completes; at the end ``done`` holds the position of each root.
    The walk of one root with no known formulas is tracked unless
    ``track`` is False: it is the root's ``program``, and reads its
    ``Vocabulary`` too, from each subformula's flags (``_FREE``,
    ``_TEMPORAL``, ``_UNDER``), its children's joined, and the names it
    collects; the root's flags decide the fragment and trace independence.
    The fourth value is that vocabulary, or for an untracked walk the
    roots' positions (``programs``), or None where formulas are known: such
    a walk serves ``subformulas``, which reads only the list, and its
    positions are empty."""
    place = not known
    if track is None:
        track = len(roots) == 1 and place
    where: dict[Formula, int] = {}  # list position by formula
    subs, left, right, flags = [], [], [], []
    props, standpoints, modal = set(), set(), set()  # names, modal standpoints
    done: list[int] = []  # the positions of the children of the nodes on the stack
    stack: list = list(reversed(roots))
    pop = stack.pop
    while stack:
        g = pop()
        if g is _READY:  # the node below it has its children's positions
            g = pop()
            if track:
                cls = type(g)
                b = done.pop() if _ARITY[cls] == 2 else -1
                a = done[-1]
                fl = flags[a] if b < 0 else flags[a] | flags[b]
                if cls is Next or cls is Until:
                    fl |= _TEMPORAL
                elif cls is DiamondS or cls is BoxS:
                    modal.add(g.standpoint)
                    # no proposition outside it, and a temporal operator in
                    # its operand is beneath it (``_UNDER`` is ``_TEMPORAL << 1``)
                    fl = fl & (_TEMPORAL | _UNDER) | (fl & _TEMPORAL) << 1
                flags.append(fl)
                left.append(a)
                right.append(b)
                done[-1] = len(subs)
            elif place:  # positions alone
                right.append(done.pop() if _ARITY[type(g)] == 2 else -1)
                left.append(done[-1])
                done[-1] = len(subs)
            where[g] = len(subs)
            subs.append(g)
            continue
        i = where.get(g)
        if i is None:
            if known and g in known:
                continue
            cls = type(g)
            if _ARITY[cls]:
                stack += (g, _READY, g.right, g.left) if _ARITY[cls] == 2 else (g, _READY, g.operand)
                continue
            if track:
                if cls is Prop:
                    props.add(g.name)
                elif cls is Sharper:
                    standpoints.update((g.left, g.right))
                flags.append(_FREE if cls is Prop else 0)
                left.append(-1)
                right.append(-1)
            elif place:
                left.append(-1)
                right.append(-1)
            i = where[g] = len(subs)
            subs.append(g)
        if place:
            done.append(i)
    if not track:
        return subs, left, right, done if place else None
    # the universal standpoint is listed whenever any standpoint is, since
    # the downstream sharpening relation always links standpoints to it
    if standpoints or modal:
        standpoints |= modal | {UNIVERSAL}
    fl = flags[-1]
    fragment = (Fragment.PSL if not fl & _TEMPORAL else Fragment.PURE_LTL if not standpoints
                else Fragment.LTL_PSL if not fl & _UNDER else Fragment.FULL_SLTL)
    sets = map(frozenset, (props, standpoints, modal))
    return subs, left, right, Vocabulary(*sets, fragment, not fl & _FREE)


# ---------------------------------------------------------------------------
# Operator table, read by the printer and the parser

# Binary operators by token: precedence (higher binds tighter), whether they
# group to the right, and the constructor.  ``->`` and ``<->`` are sugar
# that is never printed.
_BINARY: dict[str, tuple[int, bool, Callable[[Formula, Formula], Formula]]] = {
    "<->": (1, True, iff),
    "->": (2, True, implies),
    "|": (3, False, Or),
    "&": (4, False, And),
    "U": (5, True, Until),
}
_PREC_UNARY = 6  # every prefix operator binds tighter than any binary one

# Prefix operators by token (a modality by its plain form), built from a
# standpoint (the universal one but for a modality) and the operand.
_PREFIX: dict[str, Callable[[Standpoint, Formula], Formula]] = {
    "!": lambda _, f: neg(f),
    "X": lambda _, f: Next(f),
    "F": lambda _, f: eventually(f),
    "G": lambda _, f: always(f),
    "<>": DiamondS,
    "[]": BoxS,
}


# ---------------------------------------------------------------------------
# Canonical printer

# Each printed binary node: its separator, the contexts of its left and
# right operands (the side an operator groups to takes an operand of its
# own precedence, the other side needs a tighter one) and its precedence.
_PRINT_BINARY = {
    cls: (f" {tok} ", prec + right, prec + (not right), prec)
    for cls, tok in ((Or, "|"), (And, "&"), (Until, "U"))
    for prec, right, _ in [_BINARY[tok]]
}

# The text of each printed leaf, and the text before the operand of each
# printed prefix operator.
_PRINT_LEAF: dict[type, Callable[[Formula], str]] = {
    Top: lambda g: "true",
    Bottom: lambda g: "false",
    Prop: lambda g: g.name,
    Sharper: lambda g: f"{g.left} <= {g.right}",
}
_PRINT_PREFIX: dict[type, Callable[[Formula], str]] = {
    Not: lambda g: "!",
    Next: lambda g: "X ",
    DiamondS: lambda g: f"<{g.standpoint}> ",
    BoxS: lambda g: f"[{g.standpoint}] ",
}


def to_text(f: Formula) -> str:
    """Canonical text form; ``parse(to_text(f)) == f`` for every AST.

    Loops over a stack of pending pieces, each a text or a formula with the
    precedence its place needs, so no formula is too deep to print.  A
    formula is parenthesized when its operator binds looser than that.
    """
    out: list[str] = []
    stack: list = [(f, 0)]
    while stack:
        item = stack.pop()
        if type(item) is str:
            out.append(item)
            continue
        g, ctx = item
        cls = type(g)
        if cls in _PRINT_LEAF:
            out.append(_PRINT_LEAF[cls](g))
            continue
        # pieces in stack order, the last one printed first
        if cls in _PRINT_BINARY:
            sep, left, right, prec = _PRINT_BINARY[cls]
            pieces = ((g.right, right), sep, (g.left, left))
        elif cls in _PRINT_PREFIX:
            prec = _PREC_UNARY
            pieces = ((g.operand, prec), _PRINT_PREFIX[cls](g))
        else:
            raise TypeError(f"not a formula: {g!r}")
        stack += (")", *pieces, "(") if prec < ctx else pieces
    return "".join(out)


# ---------------------------------------------------------------------------
# Parser

_STANDPOINT = rf"(?:\*|{_NAME_RE.pattern})"  # a standpoint name after '@'
# One pattern, read by ``findall``: the whole lexemes (operators and
# keywords, names, ``@name``, the modalities and reserved ``$names``), then
# any other character but a space as a stray token.  Only ``_failure`` looks
# for strays, with the ``_LEX_ERRORS`` patterns, compiled when first used.
_TOKEN_RE = re.compile(
    r"<->|<=|->|[()&|!]|(?:true|false|[XUFGR])(?![A-Za-z0-9_])"
    rf"|{_NAME_RE.pattern}|@{_STANDPOINT}|<(?:@{_STANDPOINT})?>|\[(?:@{_STANDPOINT})?\]"
    r"|\$[A-Za-z0-9_]+|\S"
)
_LEX_ERRORS = [
    (rf"<@{_NAME_RE.pattern}", "unterminated '<@...>' modality, expected '>'"),
    (r"<@", "expected a standpoint name after '<@'"),
    (r"<", "expected '<->', '<=' or '<@...>' after '<'"),
    (rf"\[@{_NAME_RE.pattern}", "unterminated '[@...]' modality, expected ']'"),
    (r"\[@", "expected a standpoint name after '[@'"),
    (r"\[", "expected '@' after '[' (standpoints are written '[@name]')"),
    (r"-", "expected '->' after '-'"),
    (r"@", "expected a standpoint name after '@'"),
    (r"\$", "expected a name after '$'"),
    # a byte that is not UTF-8, as errors="surrogateescape" decodes it
    (r"[\udc80-\udcff]", "unexpected byte {byte:#04x}"),
    (r".", "unexpected character {!r}"),
]
_NAME_START = frozenset("_ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz")


def _failure(text: str, index: int, message: str) -> ParseError:
    """The error, at a 1-based line and column, of a parse that stopped
    at token ``index`` (past the last one: the end) saying ``message``,
    unless a stray token lies anywhere in ``text``: lexical errors come
    first, worded by the first of ``_LEX_ERRORS`` that matches there."""
    pos = len(text)
    for k, m in enumerate(_TOKEN_RE.finditer(text)):
        tok = m.group()
        if len(tok) == 1 and tok not in "()&|!" and tok not in _NAME_START:
            pos = m.start()
            words = next(w for pattern, w in _LEX_ERRORS if re.compile(pattern).match(text, pos))
            message = words.format(tok, byte=ord(tok) & 0xFF)
            break
        if k == index:
            pos = m.start()
    line_start = text.rfind("\n", 0, pos) + 1
    return ParseError(message, text.count("\n", 0, pos) + 1, pos - line_start + 1)


def _reduce(
    pending: list[tuple[int, str, Standpoint]], operands: list[Formula], floor: int
) -> None:
    """Apply the pending operators of precedence ``floor`` or tighter."""
    while pending and pending[-1][0] >= floor:
        prec, tok, sp = pending.pop()
        if prec == _PREC_UNARY:
            operands[-1] = _PREFIX[tok](sp, operands[-1])
        else:
            right = operands.pop()
            operands[-1] = _BINARY[tok][2](operands[-1], right)


def parse(text: str, allow_reserved: bool = False) -> Formula:
    """Parse surface text into a formula.

    Derived connectives are expanded on construction: ``F a`` becomes
    ``true U a``, ``G a`` becomes ``!(true U !a)``, ``->``/``<->`` become
    their disjunctive forms, and double negations collapse.  ``$``-prefixed
    names are reserved for generated variables and rejected unless
    ``allow_reserved`` is set (used when re-reading translated output).
    Equal leaves are one object: a call builds each name's ``Prop`` and
    ``Standpoint`` once.

    One loop over the token strings keeps two stacks: the operands built
    so far, and the pending prefix operators, open parentheses and binary
    operators with their precedence.  A binary operator first applies the
    pending ones that bind at least as tightly (more tightly, when it
    groups to the right); ``)`` and the end of input apply all of them
    down to the matching ``(``.  Nothing recurses, so input depth is
    unlimited.  Only an error looks for token offsets (``_failure``).
    """
    tokens = _TOKEN_RE.findall(text)
    tokens.append("")  # the end of input
    leaves: dict[str, Formula] = {"true": TOP, "false": BOTTOM}  # by token, built once
    sps = {"*": UNIVERSAL}  # by name, built once
    operands: list[Formula] = []
    # (precedence, token, standpoint): "(" has 0, a modality its plain form
    pending: list[tuple[int, str, Standpoint]] = []
    i = 0
    while True:
        # an operand, after any prefix operators and open parentheses
        tok = tokens[i]
        while True:
            if tok in _PREFIX:
                pending.append((_PREC_UNARY, tok, UNIVERSAL))
            elif tok[:2] == "<@" or tok[:2] == "[@":
                name = tok[2:-1]
                sp = sps.get(name) or sps.setdefault(name, Standpoint(name))
                pending.append((_PREC_UNARY, tok[0] + tok[-1], sp))
            elif tok == "(":
                pending.append((0, tok, UNIVERSAL))
            else:
                break
            i += 1
            tok = tokens[i]
        i += 1
        if tok[:1] == "@" and tokens[i] == "<=" and len(tok) > 1:
            names = tok[1:], tokens[i + 1][1:]
            if tokens[i + 1][:1] != "@" or not names[1]:
                raise _failure(text, i + 1, "expected a standpoint ('@name') after '<='")
            left, right = (sps.get(n) or sps.setdefault(n, Standpoint(n)) for n in names)
            operands.append(Sharper(left, right))
            i += 2
        elif (leaf := leaves.get(tok)) is not None:
            operands.append(leaf)
        elif (tok[:1] in _NAME_START and tok != "U" and tok != "R"
              or len(tok) > 1 and (tok[0] == "@" or tok[0] == "$" and allow_reserved)):
            operands.append(leaves.setdefault(tok, Prop(tok)))
        elif tok[:1] == "$" and len(tok) > 1:
            raise _failure(text, i - 1, f"names starting with '$' are reserved: {tok!r}")
        elif tok == "R":
            raise _failure(text, i - 1, "the release operator 'R' is not supported")
        else:
            got = repr(tok) if tok else "end of input"
            raise _failure(text, i - 1, f"expected a formula, got {got}")
        # closing parentheses, then a binary operator or the end
        while True:
            tok = tokens[i]
            i += 1
            if tok in _BINARY:
                prec, right, _ = _BINARY[tok]
                _reduce(pending, operands, prec + right)
                pending.append((prec, tok, UNIVERSAL))
                break
            if tok == "R":
                raise _failure(text, i - 1, "the release operator 'R' is not supported")
            _reduce(pending, operands, 1)
            if tok == ")":
                if not pending:
                    raise _failure(text, i - 1, "unexpected ')' after the formula")
                pending.pop()
            elif pending:
                raise _failure(text, i - 1, "unbalanced parentheses, expected ')'")
            elif tok:
                shown = tok if tok == "<=" else tok.strip("<>[]@") or "*"  # a standpoint's name
                raise _failure(text, i - 1, f"unexpected {shown!r} after the formula")
            else:
                return operands[0]


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


def _simplify_over_constant(g: _Unary, kids: tuple[Formula]) -> Formula:
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
# Closure sets

class ClosureSet:
    """The formulas an automaton state assigns, ordered by size and then by
    the position of their last occurrence in ``nodes(seed)``; an Until's
    next-step companion that does not occur there takes the Until's
    position.  The key prints nothing, and children come before their
    parents.

    The members are the seed's subformulas outside modal operands, every
    sharpening atom of the seed wherever it occurs, and the next-step
    companions of the Until members.  A false member is a clear state bit,
    so no negation is added.  A modal formula is a leaf: on the automaton's
    fragments its operand is temporal-free, and a state decides it whole on
    its grid.  Sharpening atoms beneath a modality are members all the
    same, because atoms are rigid state bits and the true ones choose the
    grid's label family.

    Both are read off the seed's memoised ``program`` in one top-down pass
    over its list, parents before children, so the time is linear in the
    distinct subformulas however often a shared one occurs.  A child's
    last occurrence is a longest path: one past its parent's last
    occurrence, plus the size of its left sibling, the latest over its
    parents.  A child lies outside every modal operand when some parent
    that is not a modality does.
    """

    def __init__(self, seed: Formula):
        subs, left, right = program(seed)
        # the root's only occurrence is the first, outside every modal operand
        last, outside = [0] * len(subs), [False] * (len(subs) - 1) + [True]
        for i in range(len(subs) - 1, -1, -1):
            free = outside[i] and not isinstance(subs[i], (DiamondS, BoxS))
            at = last[i] + 1  # where the child occurs in this one's last occurrence
            for c in (left[i], right[i]):
                if c >= 0:
                    last[c] = max(last[c], at)
                    outside[c] |= free
                    at += subs[c]._size
        # each member's key: its size and last occurrence; an Until's
        # companion takes the Until's occurrence where it has none
        nexts = {a: j for j, (g, a) in enumerate(zip(subs, left)) if type(g) is Next}
        keyed = [(g._size, last[i], g) for i, g in enumerate(subs) if outside[i] or type(g) is Sharper]
        for i, g in enumerate(subs):
            j = nexts.get(i)
            if outside[i] and type(g) is Until and (j is None or not outside[j]):
                keyed.append((g._size + 1, last[i if j is None else j], Next(g)))
        self.seed = seed
        self.formulas: tuple[Formula, ...] = tuple(g for _, _, g in sorted(keyed, key=itemgetter(0, 1)))
        self.index: dict[Formula, int] = {g: i for i, g in enumerate(self.formulas)}
        self.until_members: tuple[Until, ...] = tuple(
            g for g in self.formulas if isinstance(g, Until)
        )
        self.next_members: tuple[Next, ...] = tuple(
            g for g in self.formulas if isinstance(g, Next)
        )

    def __len__(self) -> int:
        return len(self.formulas)

    def __contains__(self, f: Formula) -> bool:
        return f in self.index

    def __iter__(self) -> Iterator[Formula]:
        return iter(self.formulas)


def closure(f: Formula) -> ClosureSet:
    """The closure set of ``f``: its members stop at modal formulas, which
    are leaves, but keep every sharpening atom (see ``ClosureSet``)."""
    return ClosureSet(f)


# ---------------------------------------------------------------------------
# Fragments and vocabulary

class Fragment(Enum):
    PSL = "PSL"
    PURE_LTL = "PureLTL"
    LTL_PSL = "LtlPsl"
    FULL_SLTL = "FullSLTL"


def classify(f: Formula) -> Fragment:
    """Smallest fragment containing ``f``: ``vocab(f).fragment``.

    Propositional formulas fall into PSL, which the solver can decide
    without the automaton.
    """
    return vocab(f).fragment


class Vocabulary(_FrozenRecord):
    """What the walk reads off a formula: its propositions and
    standpoints; ``modal``, the standpoints that index a modality;
    ``fragment``, the smallest fragment containing it; and
    ``trace_independent``, whether every proposition sits under a
    modality, so that truth at (trace, position) never reads the current
    trace's own valuation."""

    __slots__ = ("props", "standpoints", "modal", "fragment", "trace_independent")

    def __init__(
        self, props: frozenset[str], standpoints: frozenset[Standpoint],
        modal: frozenset[Standpoint], fragment: Fragment, trace_independent: bool,
    ):
        object.__setattr__(self, "props", props)
        object.__setattr__(self, "standpoints", standpoints)
        object.__setattr__(self, "modal", modal)
        object.__setattr__(self, "fragment", fragment)
        object.__setattr__(self, "trace_independent", trace_independent)


def vocab(f: Formula) -> Vocabulary:
    """Every syntactic verdict on ``f``, memoised on ``f`` itself:
    ``classify``, ``SearchBounds.for_formula``, the searches and ``solve``
    all read the same formula object, and walk it once between them.  The
    walk is the one of ``program``, which reads the names and three flags
    per subformula, computed from its children's (see ``_walk``): a
    proposition outside every modal operand, a temporal operator, and a
    temporal operator beneath a modality.
    """
    try:
        return f._vocab
    except AttributeError:
        program(f)  # memoises the vocabulary too
        return f._vocab
