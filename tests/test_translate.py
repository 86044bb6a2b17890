import itertools
import random

import pytest

from conftest import (
    S,
    T,
    guards_into_standpoints,
    over_universal,
    random_formula,
    standpoints_into_guards,
)

from sltl.search import SearchBounds, bounded_search
from sltl.semantics import SLTLModel, UPTrace, check_product_formula, evaluate
from sltl.syntax import (
    And,
    BoxS,
    DiamondS,
    Or,
    Prop,
    Sharper,
    Standpoint,
    TOP,
    UNIVERSAL,
    Until,
    always,
    classify,
    Fragment,
    neg,
    parse,
    size,
    to_text,
    vocab,
)
from sltl.translate import (
    counter_formula,
    product_to_sltl,
    psl_to_s5,
    recurring_counter_formula,
    rigidity_guard,
    sltl_to_product,
    translate_standpoints_away,
    until_to_strict,
)


def test_product_embedding_is_identity_on_the_shared_ast():
    for text in ["<> p", "p U q", "[] (p -> X q)"]:
        f = parse(text)
        assert product_to_sltl(f) == f


def test_product_embedding_rejects_standpoint_constructs():
    with pytest.raises(ValueError):
        product_to_sltl(parse("<@s> p"))
    with pytest.raises(ValueError):
        product_to_sltl(parse("@s <= @t"))


def test_guard_translation_table():
    t2 = translate_standpoints_away
    assert t2(parse("<@s> p")) == DiamondS(UNIVERSAL, And(Prop("@s"), Prop("p")))
    assert t2(parse("[@s] p")) == BoxS(UNIVERSAL, Or(neg(Prop("@s")), Prop("p")))
    assert t2(Sharper(S, T)) == BoxS(UNIVERSAL, Or(neg(Prop("@s")), Prop("@t")))
    assert t2(parse("[@*] G p")) == BoxS(UNIVERSAL, always(Prop("p")))
    assert t2(parse("p U X q")) == parse("p U X q")


def test_guard_translation_universal_sharpenings_fold():
    t2 = translate_standpoints_away
    assert t2(Sharper(S, UNIVERSAL)) == TOP
    assert t2(Sharper(UNIVERSAL, S)) == BoxS(UNIVERSAL, Prop("@s"))
    assert t2(Sharper(UNIVERSAL, UNIVERSAL)) == TOP


def test_rigidity_guard_shapes():
    assert rigidity_guard([]) == TOP
    one = rigidity_guard([S])
    expected = And(
        DiamondS(UNIVERSAL, Prop("@s")),
        BoxS(UNIVERSAL, Or(always(Prop("@s")), always(neg(Prop("@s"))))),
    )
    assert one == expected
    two = rigidity_guard([S, T])
    assert isinstance(two, And)
    assert to_text(two).count("<@*>") == 2
    with pytest.raises(ValueError):
        rigidity_guard([UNIVERSAL])


def test_sltl_to_product_keeps_standpoint_free_formulas():
    f = parse("p U q")
    assert sltl_to_product(f) == And(TOP, f)


def test_sltl_to_product_guard_order_follows_first_occurrence():
    f = parse("<@t> p & <@s> q")
    out = to_text(sltl_to_product(f))
    assert out.index("@t") < out.index("@s")


def test_psl_to_s5_clauses():
    out = psl_to_s5(parse("<@s> p"))
    assert out == And(
        DiamondS(UNIVERSAL, Prop("@s")),
        DiamondS(UNIVERSAL, And(Prop("@s"), Prop("p"))),
    )
    sharp = psl_to_s5(Sharper(S, T))
    assert sharp == And(
        And(DiamondS(UNIVERSAL, Prop("@s")), DiamondS(UNIVERSAL, Prop("@t"))),
        BoxS(UNIVERSAL, Or(neg(Prop("@s")), Prop("@t"))),
    )
    plain = psl_to_s5(Prop("p"))
    assert plain == And(TOP, Prop("p"))


def test_psl_to_s5_rejects_temporal_input():
    with pytest.raises(ValueError):
        psl_to_s5(parse("X p"))


def test_psl_to_s5_preserves_satisfiability_on_corpus():
    rng = random.Random(61)
    done = 0
    while done < 40:
        f = random_formula(rng, 3, mode="psl", max_sharpenings=1)
        done += 1
        out = psl_to_s5(f)
        check_product_formula(out)
        b_f = SearchBounds.for_formula(f, 3, 0, 1)
        b_out = SearchBounds.for_formula(out, 3, 0, 1)
        sat_f = bounded_search(f, b_f) is not None
        sat_out = bounded_search(out, b_out) is not None
        assert sat_f == sat_out, to_text(f)


# ---------------------------------------------------------------------------
# Strict-until renaming

def test_until_renaming_leaves_until_free_formulas_alone():
    f = parse("<> p & X [] q")
    assert until_to_strict(f) == f


def test_until_renaming_shape():
    f = parse("p U q")
    out = until_to_strict(f)
    var = Prop("$u0")
    assert isinstance(out, And)
    assert out.left == var
    defn = out.right
    assert isinstance(defn, BoxS)
    assert defn.standpoint == UNIVERSAL
    assert "$u0" in to_text(defn)
    assert "X (p U q)" in to_text(defn)


def test_until_renaming_is_linear_in_size():
    f = parse("p U q")
    for _ in range(4):
        f = Until(f, f)  # nested untils, shared structure collapses
    out = until_to_strict(f)
    assert size(out) <= 40 * size(parse("p U q")) + 200


def test_until_renaming_preserves_bounded_satisfiability():
    rng = random.Random(67)
    done = 0
    while done < 30:
        f = random_formula(rng, 3, mode="product")
        done += 1
        out = until_to_strict(f)
        check_product_formula(f)
        check_product_formula(out)
        sat_f = bounded_search(f, SearchBounds.for_formula(f, 2, 1, 2)) is not None
        sat_out = bounded_search(out, SearchBounds.for_formula(out, 2, 1, 2)) is not None
        assert sat_f == sat_out, to_text(f)


# ---------------------------------------------------------------------------
# Counter generators

def test_counter_one_bit_is_the_alternation_formula():
    f = counter_formula(1)
    p1 = Prop("p1")
    expected = And(
        And(neg(p1), always(parse("p1 -> X !p1"))),
        always(parse("!p1 -> X p1")),
    )
    assert f == expected


def test_counter_one_bit_unique_alternating_trace():
    f = counter_formula(1)
    sat_traces = []
    for bits in itertools.product([False, True], repeat=2):
        vals = tuple(frozenset({"p1"}) if b else frozenset() for b in bits)
        m = SLTLModel({"t0": UPTrace((), vals)}, {UNIVERSAL: frozenset({"t0"})}, 0, 2)
        if evaluate(m, "t0", 0, f):
            sat_traces.append(bits)
    assert sat_traces == [(False, True)]


def _counter_two_trace() -> SLTLModel:
    vals = (
        frozenset(),
        frozenset({"p2"}),
        frozenset({"p1"}),
        frozenset({"p1", "p2"}),
    )
    return SLTLModel({"t0": UPTrace((), vals)}, {UNIVERSAL: frozenset({"t0"})}, 0, 4)


def test_counter_two_bits_counts_modulo_four():
    f = counter_formula(2)
    m = _counter_two_trace()
    assert evaluate(m, "t0", 0, f)
    for j in range(13):
        value = 2 * evaluate(m, "t0", j, Prop("p1")) + evaluate(m, "t0", j, Prop("p2"))
        assert value == j % 4
    # wrap-around: both bits set at 3, both clear at 4
    assert evaluate(m, "t0", 3, parse("p1 & p2"))
    assert evaluate(m, "t0", 4, parse("!p1 & !p2"))


def test_counter_two_bits_trace_is_unique_among_period_four():
    f = counter_formula(2)
    winners = []
    for rows in itertools.product(
        [frozenset(s) for s in ([], ["p1"], ["p2"], ["p1", "p2"])], repeat=4
    ):
        m = SLTLModel({"t0": UPTrace((), rows)}, {UNIVERSAL: frozenset({"t0"})}, 0, 4)
        if evaluate(m, "t0", 0, f):
            winners.append(rows)
    assert len(winners) == 1
    assert winners[0] == _counter_two_trace().traces["t0"].period


def test_counter_demand_fragment_and_vocabulary():
    f = recurring_counter_formula(1)
    assert classify(f) is Fragment.FULL_SLTL
    assert vocab(f).standpoints == {Standpoint("s"), UNIVERSAL}
    assert vocab(f).props == {"p", "p1"}


def test_counter_demand_has_no_small_model():
    f = recurring_counter_formula(1)
    assert bounded_search(f, SearchBounds.for_formula(f, 2, 1, 2)) is None


def test_counter_demand_translation_has_no_small_model_either():
    f = recurring_counter_formula(1)
    out = sltl_to_product(f)
    check_product_formula(out)
    bounds = SearchBounds.for_formula(out, 2, 1, 2)
    assert bounded_search(out, bounds) is None


def test_counter_rejects_zero_bits():
    with pytest.raises(ValueError):
        counter_formula(0)
    with pytest.raises(ValueError):
        recurring_counter_formula(0)


# ---------------------------------------------------------------------------
# Size linearity and transport

def test_translations_are_size_linear():
    rng = random.Random(73)
    for _ in range(60):
        f = random_formula(rng, 4)
        out = sltl_to_product(f)
        assert size(out) <= 8 * size(f) + 60


def test_product_embedding_transport():
    # a product witness doubles as a model of the embedded formula and back
    rng = random.Random(79)
    done = 0
    while done < 30:
        f = random_formula(rng, 3, mode="product")
        done += 1
        check_product_formula(f)
        bounds = SearchBounds.for_formula(f, 2, 1, 2)
        product_found = bounded_search(f, bounds)
        sltl_found = bounded_search(product_to_sltl(f), bounds)
        assert (product_found is None) == (sltl_found is None)
        if product_found is not None:
            m, tid = product_found
            assert evaluate(m, tid, 0, product_to_sltl(f))
        if sltl_found is not None:
            m2, tid2 = sltl_found
            assert evaluate(over_universal(m2), tid2, 0, f)


def test_guarded_translation_transport():
    # bounded-model existence agrees between a formula and its product image,
    # with witnesses transported across the constructions
    rng = random.Random(83)
    done = 0
    while done < 25:
        f = random_formula(rng, 2, mode="sltl", max_sharpenings=1)
        done += 1
        out = sltl_to_product(f)
        check_product_formula(out)
        bounds_f = SearchBounds.for_formula(f, 2, 1, 2)
        bounds_out = SearchBounds(2, 1, 2, tuple(sorted(set(bounds_f.props) | vocab(out).props)))
        found_f = bounded_search(f, bounds_f)
        found_out = bounded_search(out, bounds_out)
        assert (found_f is None) == (found_out is None), to_text(f)
        if found_f is not None:
            model, tid = found_f
            transported = standpoints_into_guards(model)
            assert evaluate(transported, tid, 0, out)
        if found_out is not None:
            m, tid = found_out
            back = guards_into_standpoints(m, f)
            assert evaluate(back, tid, 0, f)
