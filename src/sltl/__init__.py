"""Satisfiability and translation toolkit for standpoint linear temporal logic."""

from .syntax import (
    Formula,
    Fragment,
    ParseError,
    Standpoint,
    UNIVERSAL,
    classify,
    closure,
    parse,
    simplify,
    to_nnf,
    to_text,
    vocab,
)
from .semantics import (
    ProductModel,
    SLTLModel,
    UPTrace,
    evaluate,
    evaluate_product,
    model_from_json,
    model_to_json,
)
from .search import SearchBounds, bounded_search, bounded_search_product
from .solver import SolveOptions, Verdict, check_witness, solve, verdict_to_json

__all__ = [
    "Formula",
    "Fragment",
    "ParseError",
    "ProductModel",
    "SLTLModel",
    "SearchBounds",
    "SolveOptions",
    "Standpoint",
    "UNIVERSAL",
    "UPTrace",
    "Verdict",
    "bounded_search",
    "bounded_search_product",
    "check_witness",
    "classify",
    "closure",
    "evaluate",
    "evaluate_product",
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
