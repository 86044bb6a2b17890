"""Formula syntax for standpoint linear temporal logic.

AST nodes, the surface-text parser, the canonical printer, negation normal
form, closure sets and fragment classification.  Formulas are immutable and
compare structurally, so they can be used as dictionary keys throughout the
package.
"""

from __future__ import annotations

import dataclasses
import re
from dataclasses import dataclass
from enum import Enum
from functools import reduce
from typing import Iterable, Iterator

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


class ParseError(ValueError):
    """Malformed formula text, with the offending line/column."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


@dataclass(frozen=True)
class Standpoint:
    """A named standpoint; ``*`` is the universal one."""

    name: str

    def __post_init__(self):
        if self.name != "*" and not _NAME_RE.fullmatch(self.name):
            raise ValueError(f"bad standpoint name: {self.name!r}")

    @property
    def is_universal(self) -> bool:
        return self.name == "*"

    def __str__(self) -> str:
        return "@" + self.name


UNIVERSAL = Standpoint("*")


class Formula:
    """Base class of all formula nodes.

    Instances are frozen dataclasses.  Hash and node count are computed once
    at construction (children are already built, so both are O(#fields)).
    """

    __slots__ = ()

    def __post_init__(self):
        cls = type(self)
        parts = [cls.__name__]
        parts.extend(getattr(self, name) for name in _FIELDS[cls])
        n = 1 + sum(getattr(self, name)._size for name in _CHILD_FIELDS[cls])
        object.__setattr__(self, "_hash", hash(tuple(parts)))
        object.__setattr__(self, "_size", n)

    def __hash__(self):
        return self._hash

    def __str__(self) -> str:
        return to_text(self)


@dataclass(frozen=True)
class Top(Formula):
    pass


@dataclass(frozen=True)
class Bottom(Formula):
    pass


@dataclass(frozen=True)
class Prop(Formula):
    """Propositional variable.

    Plain names come from the surface syntax; names with the ``@`` sigil are
    standpoint-guard variables produced by the translations, and names with
    the ``$`` prefix are reserved for generated variables.
    """

    name: str

    def __post_init__(self):
        if not _valid_prop_name(self.name):
            raise ValueError(f"bad proposition name: {self.name!r}")
        super().__post_init__()


@dataclass(frozen=True)
class Sharper(Formula):
    """Sharpening atom: the left standpoint refines the right one."""

    left: Standpoint
    right: Standpoint


@dataclass(frozen=True)
class Not(Formula):
    operand: Formula

    def __post_init__(self):
        if isinstance(self.operand, Not):
            raise ValueError("double negation is not representable; use neg()")
        super().__post_init__()


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class DiamondS(Formula):
    standpoint: Standpoint
    operand: Formula


@dataclass(frozen=True)
class BoxS(Formula):
    standpoint: Standpoint
    operand: Formula


@dataclass(frozen=True)
class Next(Formula):
    operand: Formula


@dataclass(frozen=True)
class Until(Formula):
    left: Formula
    right: Formula


# Field names of each node class in declaration order, all of them and the
# Formula-valued ones, read once instead of on every construction and walk.
_FIELDS: dict[type, tuple[str, ...]] = {}
_CHILD_FIELDS: dict[type, tuple[str, ...]] = {}

# The generated per-field __hash__ would rehash the whole subtree on every
# call; keep the cached one from Formula.
for _cls in (Top, Bottom, Prop, Sharper, Not, And, Or, DiamondS, BoxS, Next, Until):
    _cls.__hash__ = Formula.__hash__  # type: ignore[method-assign]
    _FIELDS[_cls] = tuple(fld.name for fld in dataclasses.fields(_cls))
    _CHILD_FIELDS[_cls] = tuple(
        fld.name for fld in dataclasses.fields(_cls) if fld.type == "Formula"
    )

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


def subformulas(f: Formula) -> list[Formula]:
    """All distinct subformulas of ``f`` (including ``f``), children first."""
    seen: dict[Formula, None] = {}

    def walk(g: Formula) -> None:
        if g in seen:
            return
        for child in children(g):
            walk(child)
        seen[g] = None

    walk(f)
    return list(seen)


# ---------------------------------------------------------------------------
# Canonical printer

_PREC_OR = 1
_PREC_AND = 2
_PREC_UNTIL = 3
_PREC_UNARY = 4
_PREC_ATOM = 5


def to_text(f: Formula) -> str:
    """Canonical text form; ``parse(to_text(f)) == f`` for every AST."""
    return _print(f, 0)


def _print(f: Formula, ctx: int) -> str:
    if isinstance(f, Top):
        return "true"
    if isinstance(f, Bottom):
        return "false"
    if isinstance(f, Prop):
        return f.name
    if isinstance(f, Sharper):
        return f"{f.left} <= {f.right}"
    if isinstance(f, Not):
        return _wrap("!" + _print(f.operand, _PREC_UNARY), _PREC_UNARY, ctx)
    if isinstance(f, Next):
        return _wrap("X " + _print(f.operand, _PREC_UNARY), _PREC_UNARY, ctx)
    if isinstance(f, DiamondS):
        return _wrap(f"<{f.standpoint}> " + _print(f.operand, _PREC_UNARY), _PREC_UNARY, ctx)
    if isinstance(f, BoxS):
        return _wrap(f"[{f.standpoint}] " + _print(f.operand, _PREC_UNARY), _PREC_UNARY, ctx)
    if isinstance(f, Until):
        s = _print(f.left, _PREC_UNARY) + " U " + _print(f.right, _PREC_UNTIL)
        return _wrap(s, _PREC_UNTIL, ctx)
    if isinstance(f, And):
        s = _print(f.left, _PREC_AND) + " & " + _print(f.right, _PREC_AND + 1)
        return _wrap(s, _PREC_AND, ctx)
    if isinstance(f, Or):
        s = _print(f.left, _PREC_OR) + " | " + _print(f.right, _PREC_OR + 1)
        return _wrap(s, _PREC_OR, ctx)
    raise TypeError(f"not a formula: {f!r}")


def _wrap(s: str, prec: int, ctx: int) -> str:
    return f"({s})" if prec < ctx else s


# ---------------------------------------------------------------------------
# Parser

_SINGLE = {"(": "LPAR", ")": "RPAR", "&": "AND", "|": "OR", "!": "NOT"}
_KEYWORDS = {"true": "TRUE", "false": "FALSE", "X": "X", "U": "U", "F": "F", "G": "G", "R": "R"}


@dataclass
class _Token:
    kind: str
    value: str
    line: int
    col: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    i, line, col = 0, 1, 1
    n = len(text)

    def err(msg: str) -> ParseError:
        return ParseError(msg, line, col)

    def read_name(start: int, what: str) -> str:
        m = _NAME_RE.match(text, start)
        if not m:
            raise err(f"expected {what}")
        return m.group()

    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch.isspace():
            i += 1
            col += 1
            continue
        start_col = col
        if ch in _SINGLE:
            tokens.append(_Token(_SINGLE[ch], ch, line, col))
            i += 1
            col += 1
            continue
        if ch == "<":
            if text.startswith("<->", i):
                tokens.append(_Token("IFF", "<->", line, col))
                i += 3
                col += 3
                continue
            if text.startswith("<=", i):
                tokens.append(_Token("SHARPER", "<=", line, col))
                i += 2
                col += 2
                continue
            if text.startswith("<>", i):
                # plain product-logic diamond: alias for the universal one
                tokens.append(_Token("DIA", "*", line, col))
                i += 2
                col += 2
                continue
            if text.startswith("<@", i):
                if text.startswith("<@*>", i):
                    name, consumed = "*", 4
                else:
                    name = read_name(i + 2, "a standpoint name after '<@'")
                    consumed = 2 + len(name) + 1
                    if not text.startswith(">", i + 2 + len(name)):
                        raise err("unterminated '<@...>' modality, expected '>'")
                tokens.append(_Token("DIA", name, line, col))
                i += consumed
                col += consumed
                continue
            raise err("expected '<->', '<=' or '<@...>' after '<'")
        if ch == "[":
            if text.startswith("[]", i):
                tokens.append(_Token("BOX", "*", line, col))
                i += 2
                col += 2
                continue
            if text.startswith("[@*]", i):
                name, consumed = "*", 4
            elif text.startswith("[@", i):
                name = read_name(i + 2, "a standpoint name after '[@'")
                consumed = 2 + len(name) + 1
                if not text.startswith("]", i + 2 + len(name)):
                    raise err("unterminated '[@...]' modality, expected ']'")
            else:
                raise err("expected '@' after '[' (standpoints are written '[@name]')")
            tokens.append(_Token("BOX", name, line, col))
            i += consumed
            col += consumed
            continue
        if ch == "-":
            if text.startswith("->", i):
                tokens.append(_Token("IMPLIES", "->", line, col))
                i += 2
                col += 2
                continue
            raise err("expected '->' after '-'")
        if ch == "@":
            if text.startswith("@*", i):
                name = "*"
            else:
                name = read_name(i + 1, "a standpoint name after '@'")
            tokens.append(_Token("AT", name, line, col))
            i += 1 + len(name)
            col += 1 + len(name)
            continue
        if ch == "$":
            m = re.match(r"\$[A-Za-z0-9_]+", text[i:])
            if not m:
                raise err("expected a name after '$'")
            tokens.append(_Token("RESERVED", m.group(), line, col))
            i += len(m.group())
            col += len(m.group())
            continue
        m = _NAME_RE.match(text, i)
        if m:
            word = m.group()
            tokens.append(_Token(_KEYWORDS.get(word, "IDENT"), word, line, col))
            i += len(word)
            col += len(word)
            continue
        raise ParseError(f"unexpected character {ch!r}", line, start_col)
    tokens.append(_Token("EOF", "", line, col))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token], allow_reserved: bool):
        self.tokens = tokens
        self.pos = 0
        self.allow_reserved = allow_reserved

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, msg: str) -> ParseError:
        tok = self.peek()
        return ParseError(msg, tok.line, tok.col)

    def parse(self) -> Formula:
        f = self.formula()
        if self.peek().kind != "EOF":
            raise self.error(f"unexpected {self.peek().value!r} after the formula")
        return f

    def formula(self) -> Formula:
        a = self.implication()
        if self.peek().kind == "IFF":
            self.advance()
            return iff(a, self.formula())
        return a

    def implication(self) -> Formula:
        a = self.disjunction()
        if self.peek().kind == "IMPLIES":
            self.advance()
            return implies(a, self.implication())
        return a

    def disjunction(self) -> Formula:
        a = self.conjunction()
        while self.peek().kind == "OR":
            self.advance()
            a = Or(a, self.conjunction())
        return a

    def conjunction(self) -> Formula:
        a = self.until()
        while self.peek().kind == "AND":
            self.advance()
            a = And(a, self.until())
        return a

    def until(self) -> Formula:
        a = self.unary()
        if self.peek().kind == "R":
            raise self.error("the release operator 'R' is not supported")
        if self.peek().kind == "U":
            self.advance()
            return Until(a, self.until())
        return a

    def unary(self) -> Formula:
        kind = self.peek().kind
        if kind == "NOT":
            self.advance()
            return neg(self.unary())
        if kind == "X":
            self.advance()
            return Next(self.unary())
        if kind == "F":
            self.advance()
            return eventually(self.unary())
        if kind == "G":
            self.advance()
            return always(self.unary())
        if kind == "R":
            raise self.error("the release operator 'R' is not supported")
        if kind == "DIA":
            tok = self.advance()
            return DiamondS(Standpoint(tok.value), self.unary())
        if kind == "BOX":
            tok = self.advance()
            return BoxS(Standpoint(tok.value), self.unary())
        return self.atom()

    def atom(self) -> Formula:
        tok = self.peek()
        if tok.kind == "LPAR":
            self.advance()
            f = self.formula()
            if self.peek().kind != "RPAR":
                raise self.error("unbalanced parentheses, expected ')'")
            self.advance()
            return f
        if tok.kind == "TRUE":
            self.advance()
            return TOP
        if tok.kind == "FALSE":
            self.advance()
            return BOTTOM
        if tok.kind == "IDENT":
            self.advance()
            return Prop(tok.value)
        if tok.kind == "RESERVED":
            if not self.allow_reserved:
                raise self.error(f"names starting with '$' are reserved: {tok.value!r}")
            self.advance()
            return Prop(tok.value)
        if tok.kind == "AT":
            self.advance()
            if self.peek().kind == "SHARPER":
                self.advance()
                right = self.peek()
                if right.kind != "AT":
                    raise self.error("expected a standpoint ('@name') after '<='")
                self.advance()
                return Sharper(Standpoint(tok.value), Standpoint(right.value))
            return Prop("@" + tok.value)
        if tok.kind == "EOF":
            raise self.error("expected a formula, got end of input")
        raise self.error(f"expected a formula, got {tok.value!r}")


def parse(text: str, allow_reserved: bool = False) -> Formula:
    """Parse surface text into a formula.

    Derived connectives are expanded on construction: ``F a`` becomes
    ``true U a``, ``G a`` becomes ``!(true U !a)``, ``->``/``<->`` become
    their disjunctive forms, and double negations collapse.  ``$``-prefixed
    names are reserved for generated variables and rejected unless
    ``allow_reserved`` is set (used when re-reading translated output).
    """
    return _Parser(_tokenize(text), allow_reserved).parse()


def simplify(f: Formula) -> Formula:
    """Constant folding; the result is equivalent to the input in every
    model.

    Folds Boolean units, next-steps of constants, Until with a constant
    right side, modalities over constants (extents are never empty) and the
    reflexive or universally capped sharpening atoms.
    """
    if isinstance(f, Not):
        return neg(simplify(f.operand))
    if isinstance(f, And):
        a, b = simplify(f.left), simplify(f.right)
        if BOTTOM in (a, b):
            return BOTTOM
        if a == TOP:
            return b
        if b == TOP:
            return a
        return And(a, b)
    if isinstance(f, Or):
        a, b = simplify(f.left), simplify(f.right)
        if TOP in (a, b):
            return TOP
        if a == BOTTOM:
            return b
        if b == BOTTOM:
            return a
        return Or(a, b)
    if isinstance(f, Next):
        a = simplify(f.operand)
        if isinstance(a, (Top, Bottom)):
            return a
        return Next(a)
    if isinstance(f, Until):
        a, b = simplify(f.left), simplify(f.right)
        if isinstance(b, (Top, Bottom)):
            return b
        if a == BOTTOM:
            return b
        return Until(a, b)
    if isinstance(f, DiamondS):
        a = simplify(f.operand)
        if isinstance(a, (Top, Bottom)):
            return a
        return DiamondS(f.standpoint, a)
    if isinstance(f, BoxS):
        a = simplify(f.operand)
        if isinstance(a, (Top, Bottom)):
            return a
        return BoxS(f.standpoint, a)
    if isinstance(f, Sharper):
        if f.left == f.right or f.right.is_universal:
            return TOP
        return f
    return f


# ---------------------------------------------------------------------------
# Negation normal form

def to_nnf(f: Formula) -> Formula:
    """Push negations inward through all dual pairs.

    In the result, ``Not`` appears only on propositions, sharpening atoms
    and on always-blocks ``Not(Until(Top, _))``, which encode the dual of
    Until without a release operator.
    """
    if isinstance(f, Not):
        return _nnf_neg(f.operand)
    if isinstance(f, (Top, Bottom, Prop, Sharper)):
        return f
    if isinstance(f, And):
        return And(to_nnf(f.left), to_nnf(f.right))
    if isinstance(f, Or):
        return Or(to_nnf(f.left), to_nnf(f.right))
    if isinstance(f, DiamondS):
        return DiamondS(f.standpoint, to_nnf(f.operand))
    if isinstance(f, BoxS):
        return BoxS(f.standpoint, to_nnf(f.operand))
    if isinstance(f, Next):
        return Next(to_nnf(f.operand))
    if isinstance(f, Until):
        return Until(to_nnf(f.left), to_nnf(f.right))
    raise TypeError(f"not a formula: {f!r}")


def _nnf_neg(f: Formula) -> Formula:
    if isinstance(f, (Prop, Sharper)):
        return Not(f)
    if isinstance(f, Top):
        return BOTTOM
    if isinstance(f, Bottom):
        return TOP
    if isinstance(f, Not):
        return to_nnf(f.operand)
    if isinstance(f, And):
        return Or(_nnf_neg(f.left), _nnf_neg(f.right))
    if isinstance(f, Or):
        return And(_nnf_neg(f.left), _nnf_neg(f.right))
    if isinstance(f, DiamondS):
        return BoxS(f.standpoint, _nnf_neg(f.operand))
    if isinstance(f, BoxS):
        return DiamondS(f.standpoint, _nnf_neg(f.operand))
    if isinstance(f, Next):
        return Next(_nnf_neg(f.operand))
    if isinstance(f, Until):
        # !(a U b)  ==  G !b  |  (!b U (!a & !b)), with G kept as !(true U b).
        never_b = Not(Until(TOP, to_nnf(f.right)))
        nb = _nnf_neg(f.right)
        return Or(never_b, Until(nb, And(_nnf_neg(f.left), nb)))
    raise TypeError(f"not a formula: {f!r}")


def is_nnf(f: Formula) -> bool:
    """True when negations sit only on atoms or always-blocks."""
    if isinstance(f, Not):
        op = f.operand
        if isinstance(op, (Prop, Sharper)):
            return True
        if isinstance(op, Until) and op.left == TOP:
            return is_nnf(op.right)
        return False
    return all(is_nnf(c) for c in children(f))


# ---------------------------------------------------------------------------
# Closure sets

class ClosureSet:
    """Subformulas of a seed plus constants, closed under negation and the
    next-step companions of the Until members; deterministically ordered."""

    def __init__(self, seed: Formula):
        members = set(subformulas(seed))
        members.add(TOP)
        members.add(BOTTOM)
        for g in list(members):
            if isinstance(g, Until):
                members.add(Next(g))
        for g in list(members):
            members.add(neg(g))
        self.seed = seed
        self.formulas: tuple[Formula, ...] = tuple(
            sorted(members, key=lambda g: (size(g), to_text(g)))
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

    def position(self, f: Formula) -> int:
        return self.index[f]


def closure(f: Formula) -> ClosureSet:
    return ClosureSet(f)


# ---------------------------------------------------------------------------
# Fragments and vocabulary

class Fragment(Enum):
    PSL = "PSL"
    PURE_LTL = "PureLTL"
    LTL_PSL = "LtlPsl"
    FULL_SLTL = "FullSLTL"


def _has_temporal(f: Formula) -> bool:
    if isinstance(f, (Next, Until)):
        return True
    return any(_has_temporal(c) for c in children(f))


def _has_standpoint(f: Formula) -> bool:
    if isinstance(f, (DiamondS, BoxS, Sharper)):
        return True
    return any(_has_standpoint(c) for c in children(f))


def _temporal_under_modal(f: Formula) -> bool:
    if isinstance(f, (DiamondS, BoxS)):
        return _has_temporal(f.operand) or _temporal_under_modal(f.operand)
    return any(_temporal_under_modal(c) for c in children(f))


def classify(f: Formula) -> Fragment:
    """Smallest fragment containing ``f``.

    Propositional formulas fall into PSL, which the solver can decide
    without the automaton.
    """
    if not _has_temporal(f):
        return Fragment.PSL
    if not _has_standpoint(f):
        return Fragment.PURE_LTL
    if not _temporal_under_modal(f):
        return Fragment.LTL_PSL
    return Fragment.FULL_SLTL


@dataclass(frozen=True)
class Vocabulary:
    props: frozenset[str]
    standpoints: frozenset[Standpoint]
    sharpenings: frozenset[tuple[Standpoint, Standpoint]]


def vocab(f: Formula) -> Vocabulary:
    """Syntactic vocabulary scan.

    The universal standpoint is listed whenever it occurs or any other
    standpoint does, since the downstream sharpening relation always links
    standpoints to it.
    """
    props: set[str] = set()
    standpoints: set[Standpoint] = set()
    sharpenings: set[tuple[Standpoint, Standpoint]] = set()

    def walk(g: Formula) -> None:
        if isinstance(g, Prop):
            props.add(g.name)
        elif isinstance(g, Sharper):
            standpoints.add(g.left)
            standpoints.add(g.right)
            sharpenings.add((g.left, g.right))
        elif isinstance(g, (DiamondS, BoxS)):
            standpoints.add(g.standpoint)
        for c in children(g):
            walk(c)

    walk(f)
    if standpoints:
        standpoints.add(UNIVERSAL)
    return Vocabulary(frozenset(props), frozenset(standpoints), frozenset(sharpenings))


def modal_standpoints(f: Formula) -> frozenset[Standpoint]:
    """Standpoints that appear as the index of a modal operator."""
    out: set[Standpoint] = set()

    def walk(g: Formula) -> None:
        if isinstance(g, (DiamondS, BoxS)):
            out.add(g.standpoint)
        for c in children(g):
            walk(c)

    walk(f)
    return frozenset(out)
