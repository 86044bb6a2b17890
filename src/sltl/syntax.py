"""Formula syntax for standpoint linear temporal logic.

AST nodes, the surface-text parser, the canonical printer, negation normal
form, closure sets and fragment classification.  Formulas are immutable
slotted objects that hash and compare structurally, so they can be used as
dictionary keys throughout the package; each constructor computes its
node's hash and size from its children's, so building a node is O(1).

Walks over a formula loop over an explicit stack, so no formula is too deep
for them: ``nodes`` lists every occurrence of a subformula in pre-order,
``subformulas`` the distinct ones children first (the walk of the witness
checker and of the interval engine's compile), and ``fold`` computes
bottom-up once per node object, so a shared subterm is rewritten once,
with ``rebuild`` as the homomorphic step that a rewrite calls for every
connective it leaves alone.  The parser
loops over two stacks and the printer over one, so no input is too deep
for them either; both read one operator table.
"""

from __future__ import annotations

import re
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
    compares fields (``_same``).  ``vocab`` memoises its result on the node
    it reads, in the ``_vocab`` slot.
    """

    __slots__ = ("_hash", "_size", "_vocab")

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


def fold(f: Formula, step: Callable[[Formula, tuple], object]) -> object:
    """Post-order evaluation, once per node object: ``step(g, kids)`` gets
    the results for ``g``'s children, left to right, and the left subtree
    is folded before the right one.  A node object met again, a shared
    subterm, reuses its first result, so a rewrite keeps the sharing of its
    input and takes time linear in its distinct node objects."""
    done: dict[int, object] = {}  # by id(): f keeps every node object alive
    results: list = []  # the results of the children of the nodes on the stack
    stack: list = [f]
    while stack:
        g = stack.pop()
        if g is _READY:  # the node below it has its children's results
            g = stack.pop()
            k = len(_CHILD_FIELDS[type(g)])
            r = done[id(g)] = step(g, tuple(results[-k:]))
            del results[-k:]
        else:
            r = done.get(id(g), _READY)
            if r is _READY:  # not folded yet
                names = _REVERSED_CHILD_FIELDS[type(g)]
                if names:
                    stack.append(g)
                    stack.append(_READY)
                    stack.extend([getattr(g, name) for name in names])
                    continue
                r = done[id(g)] = step(g, ())
        results.append(r)
    return results[0]


def rebuild(g: Formula, kids: tuple[Formula, ...]) -> Formula:
    """``g`` over new children: the default ``fold`` step of a rewrite.

    A node whose children are unchanged is kept, a negation too unless
    its operand is a constant; other negations are rebuilt with ``neg``, so
    constants fold and double negations collapse.
    """
    if isinstance(g, Not) and (kids[0] is not g.operand or isinstance(kids[0], (Top, Bottom))):
        return neg(kids[0])
    if all(k is getattr(g, name) for k, name in zip(kids, _CHILD_FIELDS[type(g)])):
        return g
    if isinstance(g, (DiamondS, BoxS)):
        return type(g)(g.standpoint, kids[0])
    return type(g)(*kids)


def subformulas(*roots: Formula, known: Collection[Formula] = ()) -> list[Formula]:
    """All distinct subformulas of ``roots`` (the roots included), children
    first, left to right and root by root.  A formula in ``known`` (a set
    or a dict, for fast lookups) is neither listed nor entered, so what
    lies only beneath known formulas is left out."""
    seen: dict[Formula, None] = {}
    stack = [(f, False) for f in reversed(roots)]
    while stack:
        g, expanded = stack.pop()
        if expanded:
            seen[g] = None
        elif g not in seen and g not in known:
            stack.append((g, True))
            for name in _REVERSED_CHILD_FIELDS[type(g)]:
                stack.append((getattr(g, name), False))
    return list(seen)


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

# Prefix operators by token kind, built from the token's value (the
# standpoint of a modality) and the operand.
_PREFIX: dict[str, Callable[[str, Formula], Formula]] = {
    "!": lambda _, f: neg(f),
    "X": lambda _, f: Next(f),
    "F": lambda _, f: eventually(f),
    "G": lambda _, f: always(f),
    "dia": lambda sp, f: DiamondS(Standpoint(sp), f),
    "box": lambda sp, f: BoxS(Standpoint(sp), f),
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
# One master pattern: leading whitespace, then the token kinds, then the
# malformed lexemes, each with its message; the last one catches any other
# character, and an empty ``end`` closes the text.
_LEXEMES = [
    ("op", r"<->|<=|->|[()&|!]|(?:true|false|[XUFGR])(?![A-Za-z0-9_])"),
    ("name", _NAME_RE.pattern),
    ("at", rf"@{_STANDPOINT}"),
    ("dia", rf"<(?:@{_STANDPOINT})?>"),
    ("box", rf"\[(?:@{_STANDPOINT})?\]"),
    ("reserved", r"\$[A-Za-z0-9_]+"),
]
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
_ERROR_MESSAGES = {f"error{i}": message for i, (_, message) in enumerate(_LEX_ERRORS)}
_TOKEN_RE = re.compile(
    r"\s*(?:"
    + "|".join(f"(?P<{kind}>{pattern})" for kind, pattern in _LEXEMES)
    + "".join(f"|(?P<error{i}>{pattern})" for i, (pattern, _) in enumerate(_LEX_ERRORS))
    + r"|(?P<end>\Z))",
    re.DOTALL,
)


def _error(text: str, pos: int, message: str) -> ParseError:
    """The error at character offset ``pos``, as a 1-based line and column."""
    line_start = text.rfind("\n", 0, pos) + 1
    return ParseError(message, text.count("\n", 0, pos) + 1, pos - line_start + 1)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """``(kind, value, offset)`` triples, closed by an ``end`` token.

    Operators and keywords are their own kind; the value of ``at``, ``dia``
    and ``box`` is the standpoint name, ``*`` for the plain modalities.
    """
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        value, pos = m.group(kind), m.start(kind)
        if kind == "op":
            kind = value
        elif kind in ("at", "dia", "box"):
            value = value.strip("<>[]@") or "*"
        elif kind in _ERROR_MESSAGES:
            raise _error(text, pos, _ERROR_MESSAGES[kind].format(value, byte=ord(value[0]) & 0xFF))
        tokens.append((kind, value, pos))
    return tokens


def _reduce(pending: list[tuple[int, str, str]], operands: list[Formula], floor: int) -> None:
    """Apply the pending operators of precedence ``floor`` or tighter."""
    while pending and pending[-1][0] >= floor:
        prec, kind, value = pending.pop()
        if prec == _PREC_UNARY:
            operands[-1] = _PREFIX[kind](value, operands[-1])
        else:
            right = operands.pop()
            operands[-1] = _BINARY[kind][2](operands[-1], right)


def parse(text: str, allow_reserved: bool = False) -> Formula:
    """Parse surface text into a formula.

    Derived connectives are expanded on construction: ``F a`` becomes
    ``true U a``, ``G a`` becomes ``!(true U !a)``, ``->``/``<->`` become
    their disjunctive forms, and double negations collapse.  ``$``-prefixed
    names are reserved for generated variables and rejected unless
    ``allow_reserved`` is set (used when re-reading translated output).

    One loop over the tokens keeps two stacks: the operands built so far,
    and the pending prefix operators, open parentheses and binary
    operators with their precedence.  A binary operator first applies the
    pending ones that bind at least as tightly (more tightly, when it
    groups to the right); ``)`` and the end of input apply all of them
    down to the matching ``(``.  Nothing recurses, so input depth is
    unlimited.
    """
    tokens = _tokenize(text)
    operands: list[Formula] = []
    pending: list[tuple[int, str, str]] = []  # (precedence, kind, value); "(" has 0
    i = 0
    while True:
        # an operand, after any prefix operators and open parentheses
        kind, value, pos = tokens[i]
        while kind in _PREFIX or kind == "(":
            pending.append((_PREC_UNARY if kind != "(" else 0, kind, value))
            i += 1
            kind, value, pos = tokens[i]
        i += 1
        if kind == "name" or kind == "reserved" and allow_reserved:
            operands.append(Prop(value))
        elif kind == "true":
            operands.append(TOP)
        elif kind == "false":
            operands.append(BOTTOM)
        elif kind == "at" and tokens[i][0] == "<=":
            kind, right, pos = tokens[i + 1]
            if kind != "at":
                raise _error(text, pos, "expected a standpoint ('@name') after '<='")
            operands.append(Sharper(Standpoint(value), Standpoint(right)))
            i += 2
        elif kind == "at":
            operands.append(Prop("@" + value))
        elif kind == "R":
            raise _error(text, pos, "the release operator 'R' is not supported")
        elif kind == "reserved":
            raise _error(text, pos, f"names starting with '$' are reserved: {value!r}")
        elif kind == "end":
            raise _error(text, pos, "expected a formula, got end of input")
        else:
            raise _error(text, pos, f"expected a formula, got {value!r}")
        # closing parentheses, then a binary operator or the end
        while True:
            kind, value, pos = tokens[i]
            i += 1
            if kind == "R":
                raise _error(text, pos, "the release operator 'R' is not supported")
            if kind in _BINARY:
                prec, right, _ = _BINARY[kind]
                _reduce(pending, operands, prec + right)
                pending.append((prec, kind, value))
                break
            _reduce(pending, operands, 1)
            if kind == ")":
                if not pending:
                    raise _error(text, pos, "unexpected ')' after the formula")
                pending.pop()
            elif pending:
                raise _error(text, pos, "unbalanced parentheses, expected ')'")
            elif kind != "end":
                raise _error(text, pos, f"unexpected {value!r} after the formula")
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
    if isinstance(g, And):
        a, b = kids
        if isinstance(a, Bottom) or isinstance(b, Bottom):
            return BOTTOM
        if isinstance(a, Top):
            return b
        if isinstance(b, Top):
            return a
    elif isinstance(g, Or):
        a, b = kids
        if isinstance(a, Top) or isinstance(b, Top):
            return TOP
        if isinstance(a, Bottom):
            return b
        if isinstance(b, Bottom):
            return a
    elif isinstance(g, (Next, DiamondS, BoxS)):
        if isinstance(kids[0], (Top, Bottom)):
            return kids[0]
    elif isinstance(g, Until):
        a, b = kids
        if isinstance(b, (Top, Bottom)) or isinstance(a, Bottom):
            return b
    elif isinstance(g, Sharper):
        if g.left == g.right or g.right.is_universal:
            return TOP
    return rebuild(g, kids)


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
    """True when negations sit only on atoms or always-blocks."""
    for g in nodes(f):
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
    position.  The key prints nothing, so a deep seed orders in linear
    time, and children come before their parents.

    The members are the seed's subformulas outside modal operands, every
    sharpening atom of the seed wherever it occurs, and the next-step
    companions of the Until members.  A false member is a clear state bit,
    so no negation is added.  A modal formula is a leaf: on the automaton's
    fragments its operand is temporal-free, and a state decides it whole on
    its grid.  Sharpening atoms beneath a modality are members all the
    same, because atoms are rigid state bits and the true ones choose the
    grid's label family.
    """

    def __init__(self, seed: Formula):
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
        self.seed = seed
        self.formulas: tuple[Formula, ...] = tuple(
            sorted(members, key=lambda g: (size(g), last[g]))
        )
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
    """What one scan reads off a formula: its propositions and
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
    """Every syntactic verdict on ``f``, from one pre-order scan, memoised
    on ``f`` itself: ``classify``, ``SearchBounds.for_formula``, the
    searches and ``solve`` all read the same formula object, and scan it
    once between them.

    A subtree is a run of ``size`` consecutive pre-order occurrences, so
    the scan knows when it is inside a modal operand by the end of the
    outermost open modal scope.  The universal standpoint is listed
    whenever it occurs or any other standpoint does, since the downstream
    sharpening relation always links standpoints to it.
    """
    try:
        return f._vocab
    except AttributeError:
        pass
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
    voc = Vocabulary(*sets, fragment, independent)
    _SET_VOCAB(f, voc)
    return voc
