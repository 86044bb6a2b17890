"""Formula syntax for standpoint linear temporal logic.

AST nodes, the surface-text parser, the canonical printer, the walks and
fragment classification.  With ``semantics`` this module is the trust
base: it imports nothing of the package, and the rewrites (``translate``)
and closure sets (``automaton``), which no witness check runs, live with
the engines.  Formulas are immutable slotted objects, hash-consed: each
constructor interns its node in one weak table, so equal formulas are one
object, and equality and hash are the object's identity, computed in C
wherever a formula keys a dictionary or a set.  Building a node is O(1).

Walks over a formula loop over an explicit stack, so no formula is too deep
for them: ``nodes`` lists every occurrence of a subformula in pre-order,
and ``_walk`` visits each distinct subformula once.  That walk, memoised
on the formula it reads, is the one every reader of a formula shares: its
flat children-first program (``program``: the distinct subformulas and
the list positions of each one's children), read by ``subformulas``, by
``fold``, which computes bottom-up once per distinct subformula, so a
shared subterm is rewritten once, by the witness checker, the one-cell
check, the interval engine's compile and the closure sets, and by
``vocab``, whose one pass over it gives the ``Vocabulary`` that
``classify`` reads.  The parser loops over two stacks and the printer over
one, so no input is too deep for them either; both read one operator
table.
"""

from __future__ import annotations

import re
import weakref
from collections.abc import Callable, Collection, Iterable, Iterator
from enum import Enum
from functools import reduce

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
    their fields through the slot descriptors.  Each subclass's constructor
    interns its values (``_TABLE``), so they compare and hash as ``object``
    does, by identity; ``_FIELDS`` lists the constructor's arguments, for
    pickling and ``repr``, so ``pickle`` and ``copy`` return the interned
    value."""

    __slots__ = ("__weakref__",)

    def __setattr__(self, name, _value=None):  # also __delattr__
        raise AttributeError(f"cannot assign to {name!r} of an immutable {type(self).__name__}")

    __delattr__ = __setattr__

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


# The intern table: a weak reference to each node by its class and the
# identities of its children, or its name or standpoint.  Keying by ``id``
# is sound only because a live node holds its children: a child's id is
# reused only once the child is freed, after every node over it died, and
# a dead node's weak reference reads ``None`` before any of its children
# is freed.  A dead entry stays until a sweep, which runs when the table
# reaches ``_sweep_at`` entries, twice what the last sweep left: no
# callback runs as a node dies.  A node enters the table only once its
# fields are set, so an exception raised while one is built, such as a
# signal handler's deadline, leaves no half-built node to be found.
_TABLE: dict[tuple, weakref.ref] = {}
_sweep_at = 1024


def _dead():  # the entry of a key not in the table, which reads as dead
    return None


def _intern(key: tuple, node) -> None:
    """Enter the new ``node`` under ``key``, sweeping the table first when
    it has doubled."""
    global _sweep_at
    if len(_TABLE) >= _sweep_at:
        for k in [k for k, ref in _TABLE.items() if ref() is None]:
            del _TABLE[k]
        _sweep_at = max(1024, 2 * len(_TABLE))
    _TABLE[key] = weakref.ref(node)


class Standpoint(_Immutable):
    """A named standpoint; ``*`` is the universal one."""

    __slots__ = ("name",)

    def __new__(cls, name: str):
        key = (cls, name)
        sp = _TABLE.get(key, _dead)()
        if sp is None:
            if name != "*" and not _NAME_RE.fullmatch(name):
                raise ValueError(f"bad standpoint name: {name!r}")
            sp = object.__new__(cls)
            _SET_SP_NAME(sp, name)
            _intern(key, sp)
        return sp

    @property
    def is_universal(self) -> bool:
        return self.name == "*"

    def __str__(self) -> str:
        return "@" + self.name


_SET_SP_NAME = Standpoint.name.__set__
UNIVERSAL = Standpoint("*")


class Formula(_Immutable):
    """Base class of all formula nodes.

    Nodes are immutable and interned: a constructor returns the live node
    of its class over the same children (by identity) and name or
    standpoint, if there is one, and builds and enters a new one only
    otherwise, with its node count from its children's, in O(1).  So equal
    formulas are one object, ``Top()`` is ``TOP`` and ``Bottom()`` is
    ``BOTTOM``.  The first of ``vocab``, ``program``, ``subformulas`` and
    ``fold`` to read a node walks it once and memoises its program on it,
    in the ``_program`` slot, which every later reader of the same formula
    shares; ``vocab`` memoises its one pass over that program in the
    ``_vocab`` slot.
    """

    __slots__ = ("_size", "_vocab", "_program")

    def __new__(cls):  # the constants
        key = (cls,)
        node = _TABLE.get(key, _dead)()
        if node is None:
            node = object.__new__(cls)
            _SET_SIZE(node, 1)
            _intern(key, node)
        return node

    def __str__(self) -> str:
        return to_text(self)


_SET_SIZE = Formula._size.__set__
_SET_VOCAB = Formula._vocab.__set__
_SET_PROGRAM = Formula._program.__set__


class Top(Formula):
    __slots__ = ()


class Bottom(Formula):
    __slots__ = ()


class Prop(Formula):
    """Propositional variable.

    Plain names come from the surface syntax; names with the ``@`` sigil are
    standpoint-guard variables produced by the translations, and names with
    the ``$`` prefix are reserved for generated variables.
    """

    __slots__ = ("name",)

    def __new__(cls, name: str):
        key = (cls, name)
        node = _TABLE.get(key, _dead)()
        if node is None:
            if not _valid_prop_name(name):
                raise ValueError(f"bad proposition name: {name!r}")
            node = object.__new__(cls)
            _SET_PROP_NAME(node, name)
            _SET_SIZE(node, 1)
            _intern(key, node)
        return node


class Sharper(Formula):
    """Sharpening atom: the left standpoint refines the right one."""

    __slots__ = ("left", "right")

    def __new__(cls, left: Standpoint, right: Standpoint):
        key = (cls, id(left), id(right))
        node = _TABLE.get(key, _dead)()
        if node is None:
            node = object.__new__(cls)
            _SET_SHARPER_LEFT(node, left)
            _SET_SHARPER_RIGHT(node, right)
            _SET_SIZE(node, 1)
            _intern(key, node)
        return node


class _Unary(Formula):
    __slots__ = ("operand",)

    def __new__(cls, operand: Formula):
        key = (cls, id(operand))
        node = _TABLE.get(key, _dead)()
        if node is None:
            if cls is Not and type(operand) is Not:
                raise ValueError("double negation is not representable; use neg()")
            node = object.__new__(cls)
            _SET_OPERAND(node, operand)
            _SET_SIZE(node, 1 + operand._size)
            _intern(key, node)
        return node


class _Modal(_Unary):
    __slots__ = ("standpoint",)

    def __new__(cls, standpoint: Standpoint, operand: Formula):
        key = (cls, id(standpoint), id(operand))
        node = _TABLE.get(key, _dead)()
        if node is None:
            node = object.__new__(cls)
            _SET_STANDPOINT(node, standpoint)
            _SET_OPERAND(node, operand)
            _SET_SIZE(node, 1 + operand._size)
            _intern(key, node)
        return node


class _Binary(Formula):
    __slots__ = ("left", "right")

    def __new__(cls, left: Formula, right: Formula):
        key = (cls, id(left), id(right))
        node = _TABLE.get(key, _dead)()
        if node is None:
            node = object.__new__(cls)
            _SET_LEFT(node, left)
            _SET_RIGHT(node, right)
            _SET_SIZE(node, 1 + left._size + right._size)
            _intern(key, node)
        return node


class Not(_Unary):
    __slots__ = ()


class And(_Binary):
    __slots__ = ()


class Or(_Binary):
    __slots__ = ()


class DiamondS(_Modal):
    __slots__ = ()


class BoxS(_Modal):
    __slots__ = ()


class Next(_Unary):
    __slots__ = ()


class Until(_Binary):
    __slots__ = ()


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


_READY = object()  # a marker on the walk's stack
_ARITY = {cls: len(names) for cls, names in _CHILD_FIELDS.items()}


def fold(f: Formula, step: Callable[[Formula, tuple], object]) -> object:
    """Post-order evaluation, once per distinct subformula: a loop over the
    memoised ``program(f)``, in which ``step(g, kids)`` gets the results
    for ``g``'s children, left to right.  Children come first, and the left
    subtree before the right one.  Equal subterms are one object, so a
    rewrite keeps the sharing of its input and takes time linear in its
    distinct subformulas."""
    results: list = []
    for g, a, b in zip(*program(f)):
        kids = () if a < 0 else (results[a],) if b < 0 else (results[a], results[b])
        results.append(step(g, kids))
    return results[-1]


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

    The first reader walks ``f`` and memoises the program on it: ``vocab``,
    ``fold``, the one-cell check, the witness check of its model and the
    bounded search's compile read one walk of the input between them.  It is
    shared, so no caller may change it."""
    try:
        return f._program
    except AttributeError:
        subs, left, right, _ = _walk((f,), ())
        _SET_PROGRAM(f, (subs, left, right))
        return subs, left, right


def programs(roots: Iterable[Formula]) -> tuple[list[Formula], list[int], list[int], list[int]]:
    """One flat program of every formula of ``roots``, laid out as
    ``program`` lays out one formula's, and the list position of each
    root: one walk, not memoised."""
    return _walk(tuple(roots), ())


def _walk(
    roots: tuple[Formula, ...], known: Collection[Formula]
) -> tuple[list[Formula], list[int], list[int], list[int]]:
    """The one walk: each distinct subformula of ``roots`` is visited once,
    post-order, and listed at its first completion.  A known formula is
    neither listed nor entered.

    A walk with no known formulas gives each listed subformula the list
    positions of its children, which the stack ``done`` holds until their
    parent completes; at the end ``done`` holds the position of each root.
    A walk around known formulas serves ``subformulas``, which reads only
    the list, and its positions are empty."""
    place = not known
    where: dict[Formula, int] = {}  # list position by formula
    subs: list[Formula] = []
    left: list[int] = []
    right: list[int] = []
    done: list[int] = []  # the positions of the children of the nodes on the stack
    stack: list = list(reversed(roots))
    pop = stack.pop
    while stack:
        g = pop()
        if g is _READY:  # the node below it has its children's positions
            g = pop()
            if place:
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
            arity = _ARITY[type(g)]
            if arity:
                stack += (g, _READY, g.right, g.left) if arity == 2 else (g, _READY, g.operand)
                continue
            if place:
                left.append(-1)
                right.append(-1)
            i = where[g] = len(subs)
            subs.append(g)
        if place:
            done.append(i)
    return subs, left, right, done


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
    The constructors intern, so equal subformulas of the result, and of
    any two parses, are one object.

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
                pending.append((_PREC_UNARY, tok[0] + tok[-1], Standpoint(tok[2:-1])))
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
            operands.append(Sharper(*map(Standpoint, names)))
            i += 2
        elif tok == "true" or tok == "false":
            operands.append(TOP if tok == "true" else BOTTOM)
        elif (tok[:1] in _NAME_START and tok != "U" and tok != "R"
              or len(tok) > 1 and (tok[0] == "@" or tok[0] == "$" and allow_reserved)):
            operands.append(Prop(tok))
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
    """What ``vocab`` reads off a formula: its propositions and
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


# The flags ``vocab`` gives each subformula, bottom-up: it has a
# proposition outside every modal operand, a temporal operator, a temporal
# operator beneath a modality.
_FREE, _TEMPORAL, _UNDER = 1, 2, 4


def vocab(f: Formula) -> Vocabulary:
    """Every syntactic verdict on ``f``, memoised on ``f`` itself:
    ``classify``, ``SearchBounds.for_formula``, the searches and ``solve``
    all read the same formula object, and compute it once between them.
    It is one pass over the memoised ``program``, children first, which
    collects the names and gives each subformula three flags, its
    children's joined (``_FREE``, ``_TEMPORAL``, ``_UNDER``): a
    proposition outside every modal operand, a temporal operator, and a
    temporal operator beneath a modality.  The root's flags decide the
    fragment and trace independence.
    """
    try:
        return f._vocab
    except AttributeError:
        pass
    flags: list[int] = []
    props, standpoints, modal = set(), set(), set()  # names, modal standpoints
    for g, a, b in zip(*program(f)):
        cls = type(g)
        if a < 0:
            if cls is Prop:
                props.add(g.name)
            elif cls is Sharper:
                standpoints.update((g.left, g.right))
            flags.append(_FREE if cls is Prop else 0)
            continue
        fl = flags[a] if b < 0 else flags[a] | flags[b]
        if cls is Next or cls is Until:
            fl |= _TEMPORAL
        elif cls is DiamondS or cls is BoxS:
            modal.add(g.standpoint)
            # no proposition outside it, and a temporal operator in its
            # operand is beneath it (``_UNDER`` is ``_TEMPORAL << 1``)
            fl = fl & (_TEMPORAL | _UNDER) | (fl & _TEMPORAL) << 1
        flags.append(fl)
    # the universal standpoint is listed whenever any standpoint is, since
    # the downstream sharpening relation always links standpoints to it
    if standpoints or modal:
        standpoints |= modal | {UNIVERSAL}
    fl = flags[-1]
    fragment = (Fragment.PSL if not fl & _TEMPORAL else Fragment.PURE_LTL if not standpoints
                else Fragment.LTL_PSL if not fl & _UNDER else Fragment.FULL_SLTL)
    voc = Vocabulary(*map(frozenset, (props, standpoints, modal)), fragment, not fl & _FREE)
    _SET_VOCAB(f, voc)
    return voc
