"""Write ``parse_outcomes.txt``: seeded parser inputs and their outcomes.

Run from the repository root:

    PYTHONPATH=src python tests/data/make_parse_outcomes.py > tests/data/parse_outcomes.txt

Each output line is a JSON list ``[text, plain, reserved]``: the input and
what ``parse`` makes of it with ``allow_reserved`` off and on, either the
printed formula or the error as ``line:col: message``.  The inputs are
random surface formulas using every token of the syntax, and mutations of
them that insert modality openers, arrows, ``$``, parentheses, newlines and
stray characters, delete a character or cut the text short.  The same seed
always gives the same inputs, so the file pins the parser's behaviour.
"""

from __future__ import annotations

import json
import random
import sys

from sltl.syntax import ParseError, parse, to_text

_ATOMS = ("p", "q", "r", "true", "false", "@s", "@*", "$u0", "$x_1", "Xp", "foo_1")
_SHARPENINGS = ("@s <= @t", "@t <= @*", "@*<=@s", "@s<= @s")
_PREFIX = ("!", "X ", "F ", "G ", "<@s> ", "[@t] ", "<@*> ", "[@*] ", "<> ", "[] ", "!X ", "<@t>")
_BINARY = (" & ", " | ", " U ", " -> ", " <-> ", "&", "|", " U\n", "->", " R ")
_INSERTS = (
    "<@", "[@", "->", "$", "(", ")", "\n", "<", "[", "-", "@", "<=", ">", "]",
    "#", "R", "U", "&", "!", "<>", "[]", "@*", "<@*>", "\t", " ", "\r", "\u00a0",
    "\u2028", "\u00e9", "<->", "@s <= ", "X", "G", "true",
)


def random_text(rng: random.Random, depth: int) -> str:
    """Random surface text over every token of the syntax; a few picks
    (the release operator) are not formulas."""
    if depth == 0 or rng.random() < 0.2:
        return rng.choice(_SHARPENINGS) if rng.random() < 0.15 else rng.choice(_ATOMS)
    pick = rng.random()
    if pick < 0.3:
        return rng.choice(_PREFIX) + random_text(rng, depth - 1)
    if pick < 0.45:
        return "(" + random_text(rng, depth - 1) + ")"
    return random_text(rng, depth - 1) + rng.choice(_BINARY) + random_text(rng, depth - 1)


def mutate(rng: random.Random, text: str) -> str:
    for _ in range(rng.randint(1, 3)):
        i = rng.randint(0, len(text))
        pick = rng.random()
        if pick < 0.7:
            text = text[:i] + rng.choice(_INSERTS) + text[i:]
        elif pick < 0.9:
            text = text[:i] + text[i + 1:]
        else:
            text = text[:i]
    return text


def outcome(text: str, allow_reserved: bool) -> str:
    try:
        return to_text(parse(text, allow_reserved))
    except ParseError as err:
        return str(err)


def inputs(seed: int, count: int) -> list[str]:
    """``count`` inputs: two mutations for every valid-looking text."""
    rng = random.Random(seed)
    out: list[str] = []
    while len(out) < count:
        text = random_text(rng, rng.randint(0, 5))
        out.extend([text, mutate(rng, text), mutate(rng, text)])
    return out[:count]


def main() -> None:
    for text in inputs(2024, 1000):
        sys.stdout.write(json.dumps([text, outcome(text, False), outcome(text, True)]) + "\n")


if __name__ == "__main__":
    main()
