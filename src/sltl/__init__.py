"""Satisfiability and translation toolkit for standpoint linear temporal logic."""

from .syntax import (
    Formula,
    Fragment,
    ParseError,
    Standpoint,
    UNIVERSAL,
    classify,
    parse,
    to_text,
    vocab,
)
from .semantics import (
    SLTLModel,
    UPTrace,
    evaluate,
    model_from_json,
    model_to_json,
)
from .search import SearchBounds, bounded_search
from .translate import simplify, to_nnf
from .automaton import closure
from .solver import SolveOptions, Verdict, check_witness, solve, verdict_to_json

__all__ = [
    "Formula",
    "Fragment",
    "ParseError",
    "SLTLModel",
    "SearchBounds",
    "SolveOptions",
    "Standpoint",
    "UNIVERSAL",
    "UPTrace",
    "Verdict",
    "bounded_search",
    "check_witness",
    "classify",
    "closure",
    "evaluate",
    "model_from_json",
    "model_to_json",
    "parse",
    "simplify",
    "solve",
    "to_nnf",
    "to_text",
    "verdict_to_json",
    "vocab",
]
