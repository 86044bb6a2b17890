"""Seeded, fragment-shaped formula corpora, produced as formula text.

The random clauses follow the shape of the test suite's ``random_formula``
(depth-bounded ASTs over a small vocabulary), but are built here as fully
parenthesised text so the solver only ever receives surface syntax.  A spec
is a conjunction of k clauses; in the temporal workloads each clause is
wrapped in ``G`` (30%) or ``F`` (20%).  Specs over a workload's operator
caps are redrawn here; rejection on the fragment happens in ``run.py``,
which owns the parser.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass


@dataclass(frozen=True)
class Shape:
    clauses: tuple[int, int]  # k, drawn uniformly
    props: tuple[str, ...]
    standpoints: tuple[str, ...]
    mode: str
    sharpenings: int  # at most this many sharpening atoms per spec
    max_temporal: int = 99  # X, U, F, G occurrences per spec
    max_modal: int = 99  # modality occurrences per spec


# The vocabularies and operator caps are the stated input size of each
# workload: with a third proposition or standpoint, or without the caps, a
# few specs in a thousand hit the exponential cliffs of the grid search or
# the state enumeration and take seconds each, so that a 20 s run's
# throughput depends on how many of them a seed happens to draw.
SHAPES = {
    "psl": Shape((2, 4), ("p",), ("s", "t"), "psl", 1),
    "ltl_psl": Shape((2, 4), ("p",), ("s", "t"), "ltl_psl", 1, max_temporal=6, max_modal=4),
    "pure_ltl": Shape((2, 4), ("p", "q", "r"), (), "ltl", 0, max_temporal=6),
    "full_sltl": Shape((1, 3), ("p", "q"), ("s", "t"), "sltl", 1),
}
CLAUSE_DEPTH = 3
_TEMPORAL = re.compile(r"\b[XUFG]\b")
_MODAL = re.compile(r"<@|\[@")


def random_clause(rng: random.Random, depth: int, props, sps, mode: str, budget: list[int]) -> str:
    """Random formula text of the requested mode.

    Modes: ``psl`` (no temporal operators), ``ltl`` (no standpoint
    constructs), ``ltl_psl`` (temporal operators only outside modalities),
    ``sltl`` (anything).  ``budget`` caps the sharpening atoms of a whole
    spec and is shared between its clauses.
    """

    def leaf(m: str) -> str:
        if m != "ltl" and budget[0] > 0 and len(sps) >= 2 and rng.random() < 0.25:
            budget[0] -= 1
            a, b = rng.sample(list(sps), 2)
            return f"(@{a} <= @{b})"
        return rng.choice(list(props) + ["true"])

    def build(d: int, m: str) -> str:
        if d == 0 or rng.random() < 0.25:
            return leaf(m)
        ops = ["not", "and", "or"]
        if m in ("ltl", "ltl_psl", "sltl"):
            ops += ["next", "until"]
        if m in ("psl", "ltl_psl", "sltl"):
            ops += ["dia", "box"]
        op = rng.choice(ops)
        if op == "not":
            return f"!{build(d - 1, m)}"
        if op == "and":
            return f"({build(d - 1, m)} & {build(d - 1, m)})"
        if op == "or":
            return f"({build(d - 1, m)} | {build(d - 1, m)})"
        if op == "next":
            return f"X {build(d - 1, m)}"
        if op == "until":
            return f"({build(d - 1, m)} U {build(d - 1, m)})"
        sp = rng.choice(list(sps) + ["*"])
        inner = build(d - 1, "psl" if m == "ltl_psl" else m)
        return f"<@{sp}> {inner}" if op == "dia" else f"[@{sp}] {inner}"

    return build(depth, mode)


def random_spec(rng: random.Random, workload: str) -> str:
    """A conjunction of k random clauses within the workload's caps."""
    shape = SHAPES[workload]
    while True:
        budget = [shape.sharpenings]
        clauses = []
        for _ in range(rng.randint(*shape.clauses)):
            c = random_clause(rng, CLAUSE_DEPTH, shape.props, shape.standpoints, shape.mode, budget)
            if shape.mode != "psl":
                r = rng.random()
                if r < 0.3:
                    c = f"G {c}"
                elif r < 0.5:
                    c = f"F {c}"
            clauses.append(f"({c})")
        text = " & ".join(clauses)
        if (
            len(_TEMPORAL.findall(text)) <= shape.max_temporal
            and len(_MODAL.findall(text)) <= shape.max_modal
        ):
            return text


# ---------------------------------------------------------------------------
# Fixed families named in the ROADMAP

def ring(k: int) -> str:
    """Unsat PSL ring: each p_i is seen without p_{i+1}, yet p0 never holds."""
    parts = [f"<@s>(p{i} & !p{(i + 1) % k})" for i in range(k)]
    return " & ".join(parts + ["[@*]!p0"])


def counter(n: int) -> str:
    """Binary counter over p1..pn (p1 most significant), as in
    ``sltl gen counter n``: starts at zero, increments, wraps around."""
    bits = [f"p{i}" for i in range(1, n + 1)]
    zero = " & ".join(f"!{b}" for b in bits)
    parts = [zero, f"G(({' & '.join(bits)}) -> X({zero}))"]
    for i in range(1, n + 1):
        low = " & ".join(f"p{k}" for k in range(i + 1, n + 1))
        cond = f"!p{i} & ({low})" if low else f"!p{i}"
        effect = [f"X !p{k}" for k in range(i + 1, n + 1)] + [f"X p{i}"]
        effect += [f"(p{k} <-> X p{k})" for k in range(1, i)]
        parts.append(f"G(({cond}) -> ({' & '.join(effect)}))")
    return " & ".join(f"({p})" for p in parts)


def recurring_counter(n: int) -> str:
    """Every instant some trace of @s starts a fresh counter run."""
    return f"G <@s>(({counter(n)}) & p & X G !p)"


FIXED = {
    "psl": [ring(k) for k in (3, 4)],
    "ltl_psl": [],
    "pure_ltl": [counter(n) for n in (1, 2, 3, 4)],
    "full_sltl": [recurring_counter(1)],
}
