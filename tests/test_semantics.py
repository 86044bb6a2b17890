import itertools
import random

import pytest

from conftest import S, T, iter_models, naive_sat, random_formula

from sltl import psl
from sltl.semantics import (
    ModelError,
    ProductModel,
    SLTLModel,
    SearchBounds,
    SearchLimitError,
    UPTrace,
    WitnessFormatError,
    _IntervalEngine,
    bounded_search,
    bounded_search_product,
    evaluate,
    evaluate_product,
    model_from_json,
    model_to_json,
)
from sltl.syntax import (
    Prop,
    Sharper,
    Standpoint,
    UNIVERSAL,
    closure,
    parse,
    vocab,
)
from sltl.translate import recurring_counter_formula


def single_trace_model(*positions, prefix_len=0):
    """Model with one trace whose valuations are the given sets."""
    vals = tuple(frozenset(v) for v in positions)
    tr = UPTrace(vals[:prefix_len], vals[prefix_len:])
    return SLTLModel({"t0": tr}, {UNIVERSAL: frozenset({"t0"})}, prefix_len, len(vals) - prefix_len)


def test_always_on_constant_trace():
    m = single_trace_model({"p"})
    assert evaluate(m, "t0", 0, parse("G p"))
    assert not evaluate(m, "t0", 0, parse("F !p"))


def test_model_validation():
    with pytest.raises(ModelError):
        UPTrace((), ())
    tr = UPTrace((), (frozenset(),))
    with pytest.raises(ModelError):
        SLTLModel({}, {UNIVERSAL: frozenset()}, 0, 1)
    with pytest.raises(ModelError):
        SLTLModel({"t0": tr}, {UNIVERSAL: frozenset()}, 0, 1)
    with pytest.raises(ModelError):
        SLTLModel({"t0": tr}, {UNIVERSAL: frozenset({"t0"}), S: frozenset()}, 0, 1)


def test_evaluate_rejects_unknown_trace_and_standpoint():
    m = single_trace_model({"p"})
    with pytest.raises(ModelError):
        evaluate(m, "nope", 0, Prop("p"))
    with pytest.raises(ModelError):
        evaluate(m, "t0", 0, parse("<@s> p"))


def test_medical_style_universal_box():
    # two countries: one trace never malfunctions and is tested at the start,
    # the other malfunctions immediately, so the implication holds everywhere
    f = parse("[@*](G !malf -> test)")
    traces = {
        "t0": UPTrace((), (frozenset({"test"}), frozenset())),
        "t1": UPTrace((), (frozenset({"malf"}), frozenset())),
    }
    lam = {
        UNIVERSAL: frozenset({"t0", "t1"}),
        Standpoint("it"): frozenset({"t1"}),
    }
    m = SLTLModel(traces, lam, 0, 2)
    assert evaluate(m, "t0", 0, f)
    assert evaluate(m, "t1", 0, f)


def test_sharpening_verdict_is_global():
    traces = {
        "t0": UPTrace((frozenset({"p"}),), (frozenset(),)),
        "t1": UPTrace((frozenset(),), (frozenset({"p"}),)),
    }
    lam = {UNIVERSAL: frozenset({"t0", "t1"}), S: frozenset({"t0"}), T: frozenset({"t0", "t1"})}
    m = SLTLModel(traces, lam, 1, 1)
    f = Sharper(S, T)
    g = Sharper(T, S)
    verdicts_f = {evaluate(m, tid, i, f) for tid in m.traces for i in range(3)}
    verdicts_g = {evaluate(m, tid, i, g) for tid in m.traces for i in range(3)}
    assert verdicts_f == {True}
    assert verdicts_g == {False}


def test_shift_invariance_within_period():
    rng = random.Random(9)
    for _ in range(40):
        f = random_formula(rng, 3)
        voc = vocab(f)
        sps = sorted((s for s in voc.standpoints if not s.is_universal), key=lambda s: s.name)
        models = iter_models(voc.props, 2, 1, 2, sps)
        m = next(models)
        for g in closure(f).formulas:
            for tid in m.traces:
                for i in range(m.prefix_len, m.prefix_len + m.period_len):
                    assert evaluate(m, tid, i, g) == evaluate(m, tid, i + m.period_len, g)


def test_until_unrolling_law():
    f = parse("p U q")
    unrolled = parse("q | (p & X (p U q))")
    for m in iter_models({"p", "q"}, 1, 2, 2, []):
        for i in range(m.prefix_len + m.period_len):
            assert evaluate(m, "t0", i, f) == evaluate(m, "t0", i, unrolled)


def test_until_matches_the_position_quantifier():
    # the lasso fixpoint against the defining quantifier, read off atomic
    # evaluations only
    f = parse("p U q")
    for m in iter_models({"p", "q"}, 1, 2, 2, []):
        horizon = m.prefix_len + 2 * m.period_len + 1
        for i in range(m.prefix_len + m.period_len):
            expected = any(
                evaluate(m, "t0", j, Prop("q"))
                and all(evaluate(m, "t0", k, Prop("p")) for k in range(i, j))
                for j in range(i, i + horizon)
            )
            assert evaluate(m, "t0", i, f) == expected


# ---------------------------------------------------------------------------
# Product-logic evaluation

def test_product_eval_examples():
    m = ProductModel({"t0": UPTrace((frozenset({"p"}),), (frozenset(),))}, 1, 1)
    assert evaluate_product(m, "t0", 0, parse("<> p"))
    assert not evaluate_product(m, "t0", 1, parse("<> p"))

    two = ProductModel(
        {
            "t0": UPTrace((), (frozenset({"p"}),)),
            "t1": UPTrace((), (frozenset(),)),
        },
        0,
        1,
    )
    assert evaluate_product(two, "t1", 0, parse("<> p & [] !q"))


def test_product_eval_rejects_named_standpoints_and_sharpening():
    m = ProductModel({"t0": UPTrace((), (frozenset(),))}, 0, 1)
    with pytest.raises(ValueError):
        evaluate_product(m, "t0", 0, parse("<@s> p"))
    with pytest.raises(ValueError):
        evaluate_product(m, "t0", 0, Sharper(S, T))


def test_next_until_encodes_strict_until():
    # on every bounded-shape model, X(p U q) says: q at some strictly later
    # position, with p holding strictly in between
    f = parse("X (p U q)")
    for m in iter_models({"p", "q"}, 1, 2, 2, []):
        horizon = m.prefix_len + 2 * m.period_len + 2
        for n in range(m.prefix_len + m.period_len):
            expected = False
            for n2 in range(n + 1, n + horizon):
                if evaluate(m, "t0", n2, Prop("q")) and all(
                    evaluate(m, "t0", k, Prop("p")) for k in range(n + 1, n2)
                ):
                    expected = True
                    break
            assert evaluate(m, "t0", n, f) == expected


def test_product_and_sltl_agree_on_universal_formulas():
    rng = random.Random(21)
    for _ in range(30):
        f = random_formula(rng, 3, mode="product")
        found = bounded_search_product(f, SearchBounds.for_formula(f, 2, 1, 2))
        if found is None:
            continue
        m, tid = found
        assert evaluate_product(m, tid, 0, f)
        assert evaluate(m.as_sltl(), tid, 0, f)


# ---------------------------------------------------------------------------
# Bounded search

def test_search_contradiction_finds_nothing():
    f = parse("p & !p")
    assert bounded_search(f, SearchBounds.for_formula(f, 3, 2, 3)) is None


def test_search_modal_witness():
    f = parse("<@s> p & [@s] !q")
    found = bounded_search(f, SearchBounds.for_formula(f, 2, 0, 1))
    assert found is not None
    model, tid = found
    assert evaluate(model, tid, 0, f)


def test_search_agrees_with_naive_enumeration():
    rng = random.Random(99)
    for _ in range(60):
        f = random_formula(rng, 3)
        got = bounded_search(f, SearchBounds.for_formula(f, 2, 1, 2)) is not None
        assert got == naive_sat(f, 2, 1, 2)


def test_search_monotone_in_bounds():
    rng = random.Random(13)
    for _ in range(40):
        f = random_formula(rng, 3)
        small = bounded_search(f, SearchBounds.for_formula(f, 1, 1, 2))
        if small is not None:
            big = bounded_search(f, SearchBounds.for_formula(f, 2, 2, 3))
            assert big is not None


def test_search_symmetry_flag_preserves_verdicts():
    rng = random.Random(31)
    for _ in range(40):
        f = random_formula(rng, 3)
        b = SearchBounds.for_formula(f, 3, 1, 2)
        assert (bounded_search(f, b) is None) == (bounded_search(f, b, symmetry=True) is None)


def test_search_is_deterministic():
    f = parse("<@s> (p & q) | X (p U q)")
    b = SearchBounds.for_formula(f, 2, 1, 2)
    r1 = bounded_search(f, b)
    r2 = bounded_search(f, b)
    assert r1 is not None
    assert model_to_json(r1[0], r1[1]) == model_to_json(r2[0], r2[1])


def test_search_counter_demand_small_bounds():
    f = recurring_counter_formula(1)
    assert bounded_search(f, SearchBounds.for_formula(f, 2, 1, 2)) is None


def test_search_node_limit_is_loud():
    f = parse("G F (p & X q) & G F (!p & X !q)")
    with pytest.raises(SearchLimitError):
        bounded_search(f, SearchBounds.for_formula(f, 1, 2, 3), node_limit=5)


def test_search_requires_covering_vocabulary():
    f = parse("p & q")
    with pytest.raises(ValueError):
        bounded_search(f, SearchBounds(1, 0, 1, ("p",)))


def test_search_product_contradiction():
    f = parse("[] p & <> !p")
    assert bounded_search_product(f, SearchBounds.for_formula(f, 3, 1, 2)) is None


def test_search_product_recurrence():
    f = parse("G <> p")
    found = bounded_search_product(f, SearchBounds.for_formula(f, 1, 0, 1))
    assert found is not None
    assert evaluate_product(found[0], found[1], 0, f)


# ---------------------------------------------------------------------------
# Three-valued soundness of the interval engine

def _completions(rng, n_slots, max_open):
    """A random partial 0/1 assignment of the slots (None = open, at most
    ``max_open`` open slots) and every completion of it."""
    open_slots = set(rng.sample(range(n_slots), min(n_slots, rng.randint(0, max_open))))
    partial = [None if i in open_slots else rng.random() < 0.5 for i in range(n_slots)]
    holes = sorted(open_slots)
    completions = []
    for fill in itertools.product((False, True), repeat=len(holes)):
        full = list(partial)
        for i, v in zip(holes, fill):
            full[i] = v
        completions.append(full)
    return partial, completions


def _assert_sound(f, lo, hi, model, cells):
    """``lo`` set: the formula holds at the cell; ``hi`` clear: it fails."""
    for bit, tid, k in cells:
        if lo & bit:
            assert evaluate(model, tid, k, f), (f, tid, k)
        if not hi & bit:
            assert not evaluate(model, tid, k, f), (f, tid, k)


def test_interval_engine_sound_on_grid_types_with_partial_presence():
    # the grid search's use: one-position traces are (column, valuation)
    # types with constant valuations, and presence is partly decided
    rng = random.Random(31)
    props = ("p", "q")
    v_count = 4
    for _ in range(150):
        f = random_formula(rng, 3, props=props, mode="psl", max_sharpenings=0)
        atoms = rng.choice([[], [(S, T)]])
        family = psl.family_for(psl.sharpening_closure(atoms, [S, T]))
        n_types = len(family) * v_count
        extents = {UNIVERSAL: tuple(range(n_types))}
        for sp in (S, T):
            extents[sp] = tuple(t for t in range(n_types) if sp in family.sets[t // v_count])
        full = (1 << n_types) - 1
        tm = [sum(1 << t for t in range(n_types) if t % v_count >> i & 1) for i in range(2)]
        fm = [full ^ m for m in tm]
        engine = _IntervalEngine(f, n_types, 0, 1, extents, {"p": 0, "q": 1})
        partial, completions = _completions(rng, n_types, 5)
        present = sum(1 << t for t, v in enumerate(partial) if v is True)
        possible = full ^ sum(1 << t for t, v in enumerate(partial) if v is False)
        lo, hi = engine.bounds(tm, fm, full, present, possible)
        for chosen in completions:
            types = [t for t in range(n_types) if chosen[t]]
            lam = {sp: frozenset(f"t{t}" for t in types if t in ext) for sp, ext in extents.items()}
            if not all(lam.values()):
                continue  # a model gives every standpoint a non-empty extent
            traces = {}
            for t in types:
                val = frozenset(p for i, p in enumerate(props) if t % v_count >> i & 1)
                traces[f"t{t}"] = UPTrace((), (val,))
            model = SLTLModel(traces, lam, 0, 1)
            _assert_sound(f, lo, hi, model, [(1 << t, f"t{t}", 0) for t in types])


def test_interval_engine_sound_on_lasso_strata_with_partial_valuations():
    # the bounded search's use: every trace present, cells partly assigned
    rng = random.Random(32)
    props = ("p", "q")
    for _ in range(150):
        f = random_formula(rng, 3, props=props, mode="sltl")
        t_count, prefix, period = rng.randint(1, 4), rng.randint(0, 1), rng.randint(1, 2)
        L = prefix + period
        ids = tuple(range(t_count))
        extents = {UNIVERSAL: ids}
        for sp in (S, T):
            extents[sp] = tuple(t for t in ids if t == 0 or rng.random() < 0.5)
        engine = _IntervalEngine(f, t_count, prefix, period, extents, {"p": 0, "q": 1})
        cells = [(t * L + k, i) for t in ids for k in range(L) for i in range(2)]
        partial, completions = _completions(rng, len(cells), 4)
        def masks(value):
            return [
                sum(1 << b for (b, i), v in zip(cells, partial) if i == j and v is value)
                for j in range(2)
            ]

        tm, fm = masks(True), masks(False)
        every = engine.full
        lo, hi = engine.bounds(tm, fm, every, every, every)
        lam = {sp: frozenset(f"t{t}" for t in ext) for sp, ext in extents.items()}
        for chosen in completions:
            traces = {}
            for t in ids:
                row = [
                    frozenset(props[i] for (b, i), v in zip(cells, chosen) if v and b == t * L + k)
                    for k in range(L)
                ]
                traces[f"t{t}"] = UPTrace(tuple(row[:prefix]), tuple(row[prefix:]))
            model = SLTLModel(traces, lam, prefix, period)
            checked = [(1 << (t * L + k), f"t{t}", k) for t in ids for k in range(L)]
            _assert_sound(f, lo, hi, model, checked)


# ---------------------------------------------------------------------------
# Witness serialization

def test_witness_json_round_trip():
    f = parse("<@s> p & <@s> !p")
    found = bounded_search(f, SearchBounds.for_formula(f, 2, 0, 1))
    model, tid = found
    blob = model_to_json(model, tid)
    assert blob["prefix_len"] == 0 and blob["period_len"] == 1
    assert set(blob["lambda"]) == {"@*", "@s"}
    model2, tid2 = model_from_json(blob)
    assert tid2 == tid
    assert evaluate(model2, tid2, 0, f)
    assert model_to_json(model2, tid2) == blob


@pytest.mark.parametrize(
    "mutation",
    [
        lambda d: d.pop("prefix_len"),
        lambda d: d.__setitem__("traces", {}),
        lambda d: d.__setitem__("designated", "zz"),
        lambda d: d["traces"]["t0"].pop(),
        lambda d: d.__setitem__("lambda", {"s": ["t0"]}),
        lambda d: d["lambda"].__setitem__("@*", []),
        lambda d: d.__setitem__("designated", ["t0"]),
        lambda d: d["lambda"].__setitem__("@s", [["t0"]]),
        lambda d: d.__setitem__("prefix_len", False),
        lambda d: d.__setitem__("period_len", True),
    ],
)
def test_witness_json_rejects_malformed(mutation):
    f = parse("<@s> p")
    model, tid = bounded_search(f, SearchBounds.for_formula(f, 1, 0, 1))
    blob = model_to_json(model, tid)
    mutation(blob)
    with pytest.raises(WitnessFormatError):
        model_from_json(blob)
