"""The package's plain records: value equality, immutability of the frozen
ones, ``repr``, pickling, constructor defaults and checks."""

import pickle

import pytest

from sltl.automaton import DEFAULT_STATE_LIMIT, Lasso, closure, find_accepting_lasso
from sltl.search import DEFAULT_NODE_LIMIT, SearchBounds
from sltl.semantics import ModelError, SLTLModel, UPTrace
from sltl.solver import SolveOptions, Verdict
from sltl.syntax import UNIVERSAL, Fragment, Standpoint, Vocabulary, parse
from sltl.translate import simplify

S = Standpoint("s")


def _trace(k):
    return UPTrace((), (frozenset({"p"} if k else ()),))


def _grid(k):
    """A grid model: one column, carrying one valuation."""
    return (frozenset({UNIVERSAL}),), ((frozenset({"p"} if k else ()),),)


# class -> (its fields, a builder of a fresh record that differs by k)
RECORDS = {
    Vocabulary: (
        ("props", "standpoints", "modal", "fragment", "trace_independent"),
        lambda k: Vocabulary(
            frozenset({"p"}), frozenset({S, UNIVERSAL}), frozenset({S}), Fragment.PSL, bool(k),
        ),
    ),
    UPTrace: (("prefix", "period"), _trace),
    SLTLModel: (
        ("traces", "lam", "prefix_len", "period_len"),
        lambda k: SLTLModel({"t0": _trace(k)}, {UNIVERSAL: frozenset({"t0"})}, 0, 1),
    ),
    SearchBounds: (
        ("max_traces", "max_prefix", "max_period", "props"),
        lambda k: SearchBounds(1 + k, 0, 1, ("p",)),
    ),
    Lasso: (("stem", "cycle", "models"), lambda k: Lasso((), (k,), (_grid(k),))),
    SolveOptions: (
        ("bounds", "fragment_strict", "node_limit", "state_limit"),
        lambda k: SolveOptions(node_limit=10 + k),
    ),
    Verdict: (
        ("status", "fragment", "engine", "model", "designated", "bounds"),
        lambda k: Verdict("sat", Fragment.PSL, model=SLTLModel(
            {"t0": _trace(k)}, {UNIVERSAL: frozenset({"t0"})}, 0, 1,
        ), designated="t0"),
    ),
}
FROZEN = [Vocabulary, UPTrace, SearchBounds, Lasso]
MUTABLE = [cls for cls in RECORDS if cls not in FROZEN]


def _ids(cls):
    return cls.__name__


@pytest.mark.parametrize("cls", RECORDS, ids=_ids)
def test_records_compare_by_their_fields(cls):
    _, build = RECORDS[cls]
    a, b, c = build(0), build(0), build(1)
    assert a is not b and a == b and not a != b
    assert a != c and not a == c
    assert a != "not a record"


@pytest.mark.parametrize("cls", FROZEN, ids=_ids)
def test_frozen_records_are_immutable_and_hash_by_value(cls):
    fields, build = RECORDS[cls]
    a = build(0)
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(a, name, None)
        with pytest.raises(AttributeError):
            delattr(a, name)
    with pytest.raises(AttributeError):
        a.extra = None
    assert a == build(0)
    assert hash(a) == hash(build(0)) and len({a, build(0), build(1)}) == 2


def test_a_found_lasso_hashes_by_value():
    # a run with a grid carries its grid models, which hash by value too
    def find():
        return find_accepting_lasso(closure(simplify(parse("<@s> p & <@s> !p & G F q"))))

    assert hash(find()) == hash(find()) and len({find(), find()}) == 1


@pytest.mark.parametrize("cls", MUTABLE, ids=_ids)
def test_mutable_records_are_unhashable(cls):
    with pytest.raises(TypeError):
        hash(RECORDS[cls][1](0))


@pytest.mark.parametrize("cls", RECORDS, ids=_ids)
def test_repr_names_every_field(cls):
    fields, build = RECORDS[cls]
    a = build(1)
    text = repr(a)
    assert text.startswith(cls.__name__ + "(")
    for name in fields:
        assert f"{name}={getattr(a, name)!r}" in text


@pytest.mark.parametrize("cls", RECORDS, ids=_ids)
def test_records_pickle(cls):
    a = RECORDS[cls][1](1)
    b = pickle.loads(pickle.dumps(a))
    assert type(b) is cls and b == a


def test_constructor_defaults():
    opts = SolveOptions()
    assert (opts.bounds, opts.fragment_strict) == (None, False)
    assert (opts.node_limit, opts.state_limit) == (DEFAULT_NODE_LIMIT, DEFAULT_STATE_LIMIT)
    v = Verdict("sat", Fragment.PSL)
    assert (v.status, v.fragment) == ("sat", Fragment.PSL)
    assert all(
        getattr(v, name) is None
        for name in ("engine", "model", "designated", "bounds")
    )


def test_constructor_checks():
    with pytest.raises(ModelError, match="a trace needs a non-empty period"):
        UPTrace((frozenset(),), ())
    with pytest.raises(ValueError, match="bounds must allow at least one trace"):
        SearchBounds(0, 0, 1, ())
    assert SearchBounds(1, 0, 1, ("q", "p", "q")).props == ("p", "q")
