import functools
import itertools
import random
import time

import pytest

from conftest import (
    ReferenceEvaluator,
    S,
    T,
    U,
    engine_stratum,
    iter_models,
    naive_sat,
    over_universal,
    random_formula,
    reference_evaluate,
)

from sltl import psl, search
from sltl.solver import assign_folded, check_witness, solve
from sltl.search import (
    IntervalEngine,
    SearchBounds,
    SearchLimitError,
    bounded_search,
    one_cell_model,
)
from sltl.semantics import (
    ModelError,
    SLTLModel,
    UPTrace,
    WitnessFormatError,
    check_product_formula,
    evaluate,
    model_from_json,
    model_to_json,
)
from sltl.syntax import (
    And,
    BOTTOM,
    BoxS,
    DiamondS,
    Next,
    Not,
    Or,
    Prop,
    Sharper,
    Standpoint,
    TOP,
    UNIVERSAL,
    Until,
    closure,
    nodes,
    parse,
    simplify,
    size,
    subformulas,
    to_text,
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


def test_evaluate_matches_the_clause_by_clause_reference():
    # 300 random formulas with sharpening atoms, both modalities, X and U,
    # each on 20 models drawn from every model of up to two traces, prefix 1
    # and period 2, compared at every trace and lasso node
    rng = random.Random(2027)
    models = list(iter_models({"p", "q"}, 2, 1, 2, [S, T]))
    seen = set()
    for _ in range(300):
        f = random_formula(rng, 4)
        seen.update(type(g) for g in nodes(f))
        for model in rng.sample(models, 20):
            reference = ReferenceEvaluator(model)
            for tid in model.traces:
                got = [evaluate(model, tid, k, f) for k in range(model.length)]
                assert got == reference.vector(tid, f), (to_text(f), model_to_json(model, tid))
    assert {Sharper, DiamondS, BoxS, Next, Until} <= seen


def _random_model(rng: random.Random) -> SLTLModel:
    """1 to 4 traces over ``p`` and ``q``, of prefix 0 to 2 and period 1 to
    3, and random non-empty extents for ``@s`` and ``@t``."""
    ids = [f"t{i}" for i in range(rng.randint(1, 4))]
    prefix, period = rng.randint(0, 2), rng.randint(1, 3)
    traces = {}
    for tid in ids:
        vals = [frozenset(p for p in ("p", "q") if rng.random() < 0.5) for _ in range(prefix + period)]
        traces[tid] = UPTrace(tuple(vals[:prefix]), tuple(vals[prefix:]))
    lam = {UNIVERSAL: frozenset(ids)}
    for sp in (S, T):
        lam[sp] = frozenset(rng.sample(ids, rng.randint(1, len(ids))))
    return SLTLModel(traces, lam, prefix, period)


def test_evaluate_matches_the_list_based_reference():
    # one mask over every (trace, node) cell against one mask per trace:
    # every subformula, at every trace, at positions 0 to L + 1, which
    # wrap around the period
    rng = random.Random(4242)
    seen = set()
    for _ in range(2000):
        model = _random_model(rng)
        f = random_formula(rng, rng.randint(1, 4))
        for g in subformulas(f):
            seen.add(type(g))
            for tid in model.traces:
                for k in range(model.length + 2):
                    got, want = evaluate(model, tid, k, g), reference_evaluate(model, tid, k, g)
                    assert got == want, (to_text(g), tid, k, model_to_json(model, tid))
    assert {Sharper, DiamondS, BoxS, Next, Until, And, Or} <= seen


@pytest.mark.parametrize("check", [evaluate, reference_evaluate], ids=["packed", "reference"])
def test_evaluate_errors_name_what_the_model_lacks(check):
    m = single_trace_model({"p"})
    with pytest.raises(ModelError, match="^unknown trace id 'nope'$"):
        check(m, "nope", 0, Prop("p"))
    with pytest.raises(ModelError, match="^positions are natural numbers$"):
        check(m, "t0", -1, Prop("p"))
    with pytest.raises(ModelError, match="^standpoint @s is not assigned in the model$"):
        check(m, "t0", 0, parse("p & <@s> p"))
    with pytest.raises(ModelError, match="^standpoint @t is not assigned in the model$"):
        check(m, "t0", 0, Sharper(UNIVERSAL, T))


# ---------------------------------------------------------------------------
# Product-logic evaluation

# A product model is an SLTL model whose only standpoint is ``@*``, and a
# product formula one that ``check_product_formula`` accepts.

def test_product_eval_examples():
    diamond_p = parse("<> p")
    check_product_formula(diamond_p)
    m = SLTLModel(
        {"t0": UPTrace((frozenset({"p"}),), (frozenset(),))}, {UNIVERSAL: frozenset({"t0"})}, 1, 1
    )
    assert evaluate(m, "t0", 0, diamond_p)
    assert not evaluate(m, "t0", 1, diamond_p)

    two = SLTLModel(
        {
            "t0": UPTrace((), (frozenset({"p"}),)),
            "t1": UPTrace((), (frozenset(),)),
        },
        {UNIVERSAL: frozenset({"t0", "t1"})},
        0,
        1,
    )
    f = parse("<> p & [] !q")
    check_product_formula(f)
    assert evaluate(two, "t1", 0, f)


def test_product_eval_rejects_named_standpoints_and_sharpening():
    with pytest.raises(ValueError):
        check_product_formula(parse("<@s> p"))
    with pytest.raises(ValueError):
        check_product_formula(Sharper(S, T))


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
        check_product_formula(f)
        found = bounded_search(f, SearchBounds.for_formula(f, 2, 1, 2))
        if found is None:
            continue
        m, tid = found
        assert m == over_universal(m)
        assert evaluate(m, tid, 0, f)


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
        found = bounded_search(f, SearchBounds.for_formula(f, 2, 1, 2))
        assert (found is not None) == naive_sat(f, 2, 1, 2)
        # bounded_search leaves the check of its witness to its caller
        assert found is None or check_witness(f, *found), str(f)


def test_search_monotone_in_bounds():
    rng = random.Random(13)
    for _ in range(40):
        f = random_formula(rng, 3)
        small = bounded_search(f, SearchBounds.for_formula(f, 1, 1, 2))
        if small is not None:
            assert check_witness(f, *small), str(f)
            big = bounded_search(f, SearchBounds.for_formula(f, 2, 2, 3))
            assert big is not None and check_witness(f, *big), str(f)


def test_symmetry_reduction_keeps_the_first_witness(monkeypatch):
    # Random formulas rarely need three traces, so each one is also tried
    # with a conjunct that does; only then can two non-designated traces
    # share a profile in a witness.
    three = parse("<@*>(r & x) & <@*>(r & !x) & <@*>(!r & x)")
    rng = random.Random(31)
    cases = []
    for _ in range(60):
        f = random_formula(rng, 3)
        for g in (f, And(f, three)):
            b = SearchBounds.for_formula(g, 3, 1, 2)
            found = bounded_search(g, b)
            cases.append((g, b, found and model_to_json(*found)))
    # t0 is !p, !p; t1 and t2 share a profile and need p, !p and !p, p,
    # sorted only as t1 = !p, p and t2 = p, !p: t2's second cell is false
    # under t1's true one, allowed once their sequences differ
    cross = parse("!p & X !p & <@*> (p & X !p) & <@*> (!p & X p)")
    b = SearchBounds.for_formula(cross, 3, 0, 2)
    found = bounded_search(cross, b)
    cases.append((cross, b, found and model_to_json(*found)))

    paired = []
    tables = [0]
    real = search._search_stratum

    def plain_search(engine, f, n_props, reach, prev, budget):
        """The plain enumeration: no pairs of interchangeable traces."""
        paired.append(bool(prev))
        return real(engine, f, n_props, reach, {}, budget)

    def plain_table(f, props, traces, extents):
        """A one-position stratum walked by the plain enumeration, where
        the search reads its truth table."""
        tables[0] += 1
        return engine_stratum(f, extents[UNIVERSAL].bit_length(), extents, traces, {})

    monkeypatch.setattr(search, "_search_stratum", plain_search)
    monkeypatch.setattr(search, "_table_stratum", plain_table)
    for f, b, expected in cases:
        found = bounded_search(f, b)
        assert (found and model_to_json(*found)) == expected, str(f)
    assert any(paired), "no stratum had interchangeable traces"
    assert tables[0] > 100
    assert sum(w is not None and len(w["traces"]) == 3 for _, _, w in cases) > 30
    # of those, witnesses of one position come from a table stratum
    assert sum(
        w is not None and len(w["traces"]) == 3 and w["prefix_len"] + w["period_len"] == 1
        for _, _, w in cases
    ) > 10


@pytest.mark.parametrize("f, bounds, nodes", [
    (parse("p & <@s> X q & [@s] X !q"), (3, 1, 1), 3250),
    (recurring_counter_formula(1), (4, 1, 1), 8264),
])
def test_search_spends_one_node_per_sweep(monkeypatch, f, bounds, nodes):
    # neither has a model in its bounds, so every node is visited: one per
    # engine sweep and one per one-position stratum decided by truth
    # table; a symmetry check that forbids more or fewer valuations than
    # the unsorted ones changes the counts
    b = SearchBounds.for_formula(f, *bounds)
    with pytest.raises(SearchLimitError):
        bounded_search(f, b, node_limit=nodes - 1)
    spent = {"sweeps": 0, "tables": 0}
    sweep, table = IntervalEngine.sweep, search._table_stratum

    def counted_sweep(self, *args):
        spent["sweeps"] += 1
        return sweep(self, *args)

    def counted_table(*args):
        spent["tables"] += 1
        return table(*args)

    monkeypatch.setattr(IntervalEngine, "sweep", counted_sweep)
    monkeypatch.setattr(search, "_table_stratum", counted_table)
    assert bounded_search(f, b, node_limit=nodes) is None
    assert spent["sweeps"] + spent["tables"] == nodes
    assert spent["tables"] > 0


def _search_every_assignment(f, bounds):
    """The plain bounded search over every standpoint assignment and every
    designated trace, in the order trace count, prefix, period, assignment
    (extent masks ascending), designated trace: the (trace count, prefix,
    period) shape of the first model, or None.  Designated trace ``d`` is
    searched as trace 0 of the assignment that swaps traces 0 and ``d``."""
    voc = vocab(f)
    sps = sorted((s for s in voc.standpoints if not s.is_universal), key=lambda s: s.name)
    leaves = {Prop(p): i for i, p in enumerate(bounds.props)}
    budget = [10**8, 10**8]
    for t_count in range(1, (bounds.max_traces if voc.standpoints else 1) + 1):
        ids = range(t_count)
        for prefix in range(bounds.max_prefix + 1):
            for period in range(1, bounds.max_period + 1):
                for combo in itertools.product(range(1, 1 << t_count), repeat=len(sps)):
                    for d in ids:
                        swap = {0: d, d: 0}
                        lam = {
                            sp: sum(1 << swap.get(t, t) for t in ids if ext >> t & 1)
                            for sp, ext in zip(sps, combo)
                        }
                        lam[UNIVERSAL] = (1 << t_count) - 1
                        engine = IntervalEngine([f], t_count, prefix, period, lam, leaves)
                        reach = {t for sp in voc.modal for t in ids if lam[sp] >> t & 1} | {0}
                        found = search._search_stratum(engine, f, len(leaves), reach, {}, budget)
                        if found is not None:
                            return t_count, prefix, period
    return None


def test_one_stratum_per_renaming_class_finds_the_same_stratum():
    # two standpoints and a sharpening atom now and then; two formulas in
    # three get a conjunct that needs one or two s-traces apart from the
    # designated one, so that renamed strata matter
    apart = [parse("p & <@s> !p"), parse("p & <@s> (!p & q) & <@s> (!p & !q)")]
    rng = random.Random(2121)
    shapes = []
    for i in range(120):
        f = random_formula(rng, 3, sps=(S, T), max_sharpenings=1)
        if i % 3:
            f = And(f, apart[i % 3 - 1])
        b = SearchBounds.for_formula(f, 3, 1, 2)
        found = bounded_search(f, b)
        expected = _search_every_assignment(f, b)
        assert (found is None) == (expected is None), str(f)
        if found is None:
            continue
        model, designated = found
        shape = (len(model.traces), model.prefix_len, model.period_len)
        assert shape == expected
        assert designated == "t0"
        assert check_witness(f, model, designated), str(f)
        shapes.append(shape)
    assert sum(t == 2 for t, _, _ in shapes) > 10
    assert sum(t == 3 for t, _, _ in shapes) > 10


@pytest.mark.parametrize("f, bounds, strata", [
    (parse("p & <@s> X q & [@s] X !q"), (3, 1, 1), 18),
    (recurring_counter_formula(1), (4, 1, 1), 20),
    (parse("p & <@s> X q & [@s] X !q & (@s <= @t)"), (3, 0, 1), 39),
])
def test_strata_are_searched_once_per_renaming_class(monkeypatch, f, bounds, strata):
    # none of the three has a model in its bounds, so every kept stratum
    # is searched, by the engine or, on one position, by truth table: over
    # every assignment and designated trace they would be 56, 52 and 166
    searched = [0]

    def counted(real):
        def counted_search(*args):
            searched[0] += 1
            return real(*args)
        return counted_search

    monkeypatch.setattr(search, "_search_stratum", counted(search._search_stratum))
    monkeypatch.setattr(search, "_table_stratum", counted(search._table_stratum))
    assert bounded_search(f, SearchBounds.for_formula(f, *bounds)) is None
    assert searched[0] == strata


def test_assignments_are_made_as_the_search_reaches_them():
    # nine standpoints and a model that needs three traces: of the 7**9
    # (about 40 million) assignments of three traces, the search needs the
    # fourth it keeps, after the 3**9 strata of two traces, so it must not
    # list them all first
    others = " & ".join(f"<@s{i}> true" for i in range(8))
    f = parse(f"!p & !q & <@z> (p & !q) & <@z> (q & !p) & {others}")
    found = bounded_search(f, SearchBounds.for_formula(f, 3, 0, 1))
    assert found is not None
    model, designated = found
    assert (len(model.traces), designated) == (3, "t0")
    assert check_witness(f, model, designated)
    assignments = search._lambda_assignments(10, 3, 1)
    assert next(assignments) == (0b1,) * 10


@pytest.mark.parametrize("renamed", [0, 1])
def test_assignments_are_the_least_tuple_of_each_orbit(renamed):
    # brute force: every tuple of non-empty trace masks, renamed by every
    # permutation of the traces from ``renamed`` on
    for n_sps in range(4):
        for t_count in range(1, 5):
            perms = [
                (*range(renamed), *p) for p in itertools.permutations(range(renamed, t_count))
            ]
            least = {
                min(
                    tuple(sum(1 << perm[t] for t in range(t_count) if m >> t & 1) for m in combo)
                    for perm in perms
                )
                for combo in itertools.product(range(1, 1 << t_count), repeat=n_sps)
            }
            got = list(search._lambda_assignments(n_sps, t_count, renamed))
            assert got == sorted(least), (n_sps, t_count)


def test_many_traces_cost_no_table_per_trace_mask():
    # the assignments of 40 traces are made without listing or testing
    # each of the 2**40 trace masks
    f = parse("<@s> X p & [@s] X !p")
    started = time.perf_counter()
    assert bounded_search(f, SearchBounds.for_formula(f, 40, 0, 1)) is None
    assert time.perf_counter() - started < 5


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


def test_search_compiles_one_engine_per_shape(monkeypatch):
    # the program does not depend on the shape, so every stratum the engine
    # walks, of any (traces, prefix, period) shape, standpoint assignment
    # and designated trace, shares the one engine of the search
    shapes = []
    init = IntervalEngine.__init__

    def counting_init(self, formulas, t_count, prefix, period, extents, leaves):
        shapes.append((t_count, prefix, period))
        init(self, formulas, t_count, prefix, period, extents, leaves)

    monkeypatch.setattr(IntervalEngine, "__init__", counting_init)
    f = parse("G <@s> (p & X !p) & [@t] (p U q) & (@s <= @t)")
    assert bounded_search(f, SearchBounds.for_formula(f, 2, 1, 1)) is None
    assert len(shapes) == 1


@pytest.mark.parametrize("props", [("p",), ("p", "q"), ("p", "q", "r")])
def test_propositions_the_input_does_not_read_cost_no_node(props):
    # the bounds name more propositions than the input reads: those get no
    # cell, so they multiply no stratum and stay false in the witness
    b = SearchBounds(2, 1, 2, props)
    f = parse("<@s> X p & [@s] X !p")
    with pytest.raises(SearchLimitError):
        bounded_search(f, b, node_limit=113)
    assert bounded_search(f, b, node_limit=114) is None
    g = parse("G <@s> (p & X !p)")
    found = bounded_search(g, b)
    assert model_to_json(*found) == model_to_json(*bounded_search(g, SearchBounds(2, 1, 2, ("p",))))


def test_search_requires_covering_vocabulary():
    f = parse("p & q")
    with pytest.raises(ValueError):
        bounded_search(f, SearchBounds(1, 0, 1, ("p",)))


def test_search_product_contradiction():
    f = parse("[] p & <> !p")
    check_product_formula(f)
    assert bounded_search(f, SearchBounds.for_formula(f, 3, 1, 2)) is None


def test_search_product_recurrence():
    f = parse("G <> p")
    check_product_formula(f)
    found = bounded_search(f, SearchBounds.for_formula(f, 1, 0, 1))
    assert found is not None
    assert evaluate(found[0], found[1], 0, f)


# ---------------------------------------------------------------------------
# One-cell models

def _first_one_cell_valuation(f):
    """The first valuation, in the bounded search's cell order (the first
    proposition most significant, false before true), whose one-trace,
    one-position model satisfies ``f`` under ``evaluate``, or None."""
    props = sorted(vocab(f).props)
    lam = dict.fromkeys(vocab(f).standpoints | {UNIVERSAL}, frozenset({"t0"}))
    for bits in itertools.product((False, True), repeat=len(props)):
        val = frozenset(p for p, bit in zip(props, bits) if bit)
        if evaluate(SLTLModel({"t0": UPTrace((), (val,))}, lam, 0, 1), "t0", 0, f):
            return val
    return None


def _with_constants(rng, f):
    """``f`` with a constant folded into it now and then."""
    pick = rng.random()
    if pick < 0.15:
        return And(f, Until(Prop("q"), BOTTOM))
    if pick < 0.3:
        return Or(f, Next(DiamondS(S, BOTTOM)))
    if pick < 0.4:
        return And(BoxS(T, TOP), f)
    return f


@pytest.mark.parametrize("mode", ["psl", "ltl", "ltl_psl", "sltl"])
def test_one_cell_model_is_the_first_one_cell_valuation(mode):
    rng = random.Random(3301)
    found = 0
    for _ in range(250):
        f = _with_constants(rng, random_formula(
            rng, 4, props=("p", "q", "r"), sps=(S, T), mode=mode, max_sharpenings=2,
        ))
        phi = simplify(f)
        first = _first_one_cell_valuation(f)
        got = one_cell_model(phi)
        assert (got is None) == (first is None), to_text(f)
        # the bounded search's first stratum returns the same model
        assert got == bounded_search(phi, SearchBounds.for_formula(f, 1, 0, 1)), to_text(f)
        if got is None:
            continue
        found += 1
        model, designated = got
        assert designated == "t0" and (model.prefix_len, model.period_len) == (0, 1)
        assert model.traces["t0"].valuation(0) == first, to_text(f)
        assert set(model.lam.values()) == {frozenset({"t0"})}
        assert check_witness(f, assign_folded(model, vocab(f).standpoints), designated)
        # the unfolded input reads the same first valuation
        assert one_cell_model(f)[0].traces["t0"].valuation(0) == first, to_text(f)
    assert 50 < found < 250


def _capped(k, tail):
    """14 propositions and ``k + 30`` nodes, ``tail`` a literal of q."""
    return parse("(" + " | ".join(f"p{i}" for i in range(13)) + ") & q & " + "X " * k + tail)


def test_one_cell_check_at_its_cap():
    # masks of 2^14 bits: ``nodes`` nodes fill the cap
    nodes = search.ONE_CELL_BITS >> 14
    at_cap = _capped(nodes - 30, "!q")  # X^k !q with q: no one-cell model
    assert size(simplify(at_cap)) << 14 == search.ONE_CELL_BITS
    costs = []
    for _ in range(5):
        started = time.perf_counter()
        assert one_cell_model(at_cap) is None
        costs.append(time.perf_counter() - started)
    assert min(costs) < 2e-3
    v = solve(at_cap)
    assert (v.status, v.engine) == ("sat", "automaton")
    # the same size with a one-cell model finds it; one node more skips
    # the check, and the automaton answers
    assert one_cell_model(_capped(nodes - 29, "q")) is not None
    over = _capped(nodes - 28, "q")
    assert size(simplify(over)) << 14 > search.ONE_CELL_BITS
    assert one_cell_model(over) is None
    v = solve(over)
    assert (v.status, v.engine) == ("sat", "automaton")


# ---------------------------------------------------------------------------
# One-position strata by truth table

def _read_traces(f, t_count, extents):
    """The traces a stratum reads, ascending, and each one's predecessor
    with its standpoint profile, as the bounded search finds them: every
    modal extent, plus trace 0 unless ``f`` is trace-independent."""
    voc = vocab(f)
    read = {t for sp in voc.modal for t in range(t_count) if extents[sp] >> t & 1}
    if not voc.trace_independent:
        read.add(0)
    prev, last = {}, {}
    for t in sorted(read - {0}):
        profile = tuple(extents[sp] >> t & 1 for sp in sorted(extents, key=str))
        if profile in last:
            prev[t] = last[profile]
        last[profile] = t
    return sorted(read), prev


@pytest.mark.parametrize("t_count", [1, 2, 3])
def test_table_strata_find_the_engine_strata_first_model(t_count):
    # one to three standpoints besides the universal one, with sharpening
    # atoms, and one to three propositions; every fourth input sits under
    # a diamond, so it is trace-independent.  Each gets four random
    # standpoint assignments of ``t_count`` traces, and its table stratum
    # must give the engine's first model, with and without the symmetry
    # pairs, or None with it.
    rng = random.Random(3800 + t_count)
    seen = {"model": 0, "none": 0, "independent": 0, "paired": 0, "sharpening": 0}
    for i in range(240):
        sps = ((S, UNIVERSAL), (S, T), (S, T, U))[i % 3]
        props = ("p", "q", "r")[: 1 + i // 3 % 3]
        f = random_formula(rng, 3, props=props, sps=sps, max_sharpenings=2)
        if i % 4 == 3:
            f = DiamondS(sps[i // 4 % 2], f)
        voc = vocab(f)
        seen["independent"] += voc.trace_independent
        seen["sharpening"] += any(isinstance(g, Sharper) for g in subformulas(f))
        for _ in range(4):
            extents = {sp: rng.randrange(1, 1 << t_count) for sp in voc.standpoints}
            extents[UNIVERSAL] = (1 << t_count) - 1
            reach, prev = _read_traces(f, t_count, extents)
            want = engine_stratum(f, t_count, extents, reach, prev)
            assert engine_stratum(f, t_count, extents, reach, {}) == want, to_text(f)
            got = search._table_stratum(f, sorted(voc.props), reach or [0], extents)
            assert got == want, (to_text(f), extents)
            seen["model" if got is not None else "none"] += 1
            seen["paired"] += bool(prev)
    print(seen)
    assert seen["model"] > 200 and seen["none"] > 100
    assert seen["independent"] >= 60 and seen["sharpening"] > 40
    # only traces other than t0 pair up
    assert seen["paired"] > 50 if t_count == 3 else not seen["paired"]


def test_a_table_stratum_reads_its_model_at_trace_0():
    # with s = {t0} and t = {t1}, the input fails at t0 under every
    # valuation and holds at t1 when p does there: the stratum has no
    # model, though t1's block of the root's table is not empty
    f = parse("p & [@s] !p & <@t> true")
    extents = {S: 0b01, T: 0b10, UNIVERSAL: 0b11}
    assert _read_traces(f, 2, extents) == ([0, 1], {})
    assert engine_stratum(f, 2, extents, [0, 1], {}) is None
    assert search._table_stratum(f, ["p"], [0, 1], extents) is None
    # with s = {t1} instead, p at t0 and not at t1 is the first model
    extents[S] = 0b10
    want = engine_stratum(f, 2, extents, [0, 1], {})
    assert want == [0b01] == search._table_stratum(f, ["p"], [0, 1], extents)


@functools.cache
def _tautology(n):
    """A tautology of exactly ``n`` nodes, with about ``2 log n`` distinct
    subformulas: halves are shared, not copied."""
    if n == 1:
        return TOP
    if n == 2:
        return Not(BOTTOM)
    half = (n - 1) // 2
    return And(_tautology(half), _tautology(n - 1 - half))


def test_a_stratum_past_the_cap_takes_the_engine(monkeypatch):
    # the first model reads two traces of three propositions, so each of
    # its tables has two blocks of 2^6 valuations: 2^13 nodes fill the
    # cap, and one node more sends the stratum to a one-position engine,
    # with the same model
    core = parse("q & <@s> (p & !q & r) & <@s> (!p & q & !r)")
    b = SearchBounds.for_formula(core, 2, 0, 1)
    want = model_to_json(*bounded_search(core, b))
    assert want["traces"] == {"t0": [["q"]], "t1": [["p", "r"]]}
    shapes = []
    init = IntervalEngine.__init__

    def counting_init(self, formulas, t_count, prefix, period, extents, leaves):
        shapes.append((t_count, prefix, period))
        init(self, formulas, t_count, prefix, period, extents, leaves)

    monkeypatch.setattr(IntervalEngine, "__init__", counting_init)
    cap = search.ONE_CELL_BITS >> 7
    for nodes, engines in [(cap, []), (cap + 1, [(2, 0, 1)])]:
        f = And(core, _tautology(nodes - 1 - size(core)))
        assert size(f) == nodes
        shapes.clear()
        assert model_to_json(*bounded_search(f, b)) == want
        assert shapes == engines


def test_one_engine_serves_strata_of_one_and_of_two_positions(monkeypatch):
    # padded past the cap, the one-position stratum takes the engine too:
    # it has no model there (p & !p), and the same engine, reshaped, finds
    # the model of period 2 that the unpadded input gets
    core = parse("p & X !p")
    b = SearchBounds.for_formula(core, 1, 0, 2)
    want = model_to_json(*bounded_search(core, b))
    nodes = (search.ONE_CELL_BITS >> 1) + 1  # one proposition: 2 * nodes bits
    f = And(core, _tautology(nodes - 1 - size(core)))
    assert size(f) == nodes
    shapes = []
    init = IntervalEngine.__init__

    def counting_init(self, formulas, t_count, prefix, period, extents, leaves):
        shapes.append((t_count, prefix, period))
        init(self, formulas, t_count, prefix, period, extents, leaves)

    monkeypatch.setattr(IntervalEngine, "__init__", counting_init)
    assert model_to_json(*bounded_search(f, b)) == want
    assert shapes == [(1, 0, 1)]


# ---------------------------------------------------------------------------
# Three-valued soundness of the interval engine

LEAVES = {Prop("p"): 0, Prop("q"): 1}


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


def test_interval_engine_knows_extents_are_never_empty():
    # on the grid a sharpening atom is a constant; with nothing present yet
    # a box over a false one is already false and a diamond over a true one
    # already true, as every completion gives each extent a present type
    extents = {UNIVERSAL: 0b111, S: 0b110, T: 0b100}
    formulas = [parse("[@s] (@s <= @t)"), parse("<@s> !(@s <= @t)"), parse("[@t] (@t <= @s)")]
    engine = IntervalEngine(formulas, 3, 0, 1, extents, LEAVES)
    lo, hi = engine.sweep([0, 0], [0, 0], 0, 0b111)
    box, dia, true_box = (engine.slot[f] for f in formulas)
    assert (lo[box], hi[box]) == (0, 0)
    assert (lo[dia], hi[dia]) == (0b111, 0b111)
    assert (lo[true_box], hi[true_box]) == (0b111, 0b111)
    # once a type is ruled out, the rest of the extent still decides
    lo, hi = engine.sweep([0, 0], [0, 0], 0, 0b011)
    assert hi[box] == 0 and lo[dia] == 0b111


def test_interval_engine_sound_on_grid_types_with_partial_presence():
    # the grid search's use: one-position traces are (column, valuation)
    # types with constant valuations, and presence is partly decided
    rng = random.Random(31)
    props = ("p", "q")
    v_count = 4
    for _ in range(150):
        f = random_formula(rng, 3, props=props, mode="psl", max_sharpenings=0)
        atoms = rng.choice([[], [(S, T)]])
        family = psl.label_family(atoms, [S, T])
        n_types = len(family) * v_count
        extents = {
            sp: sum(1 << t for t in range(n_types) if sp in family[t // v_count])
            for sp in (UNIVERSAL, S, T)
        }
        full = (1 << n_types) - 1
        tm = [sum(1 << t for t in range(n_types) if t % v_count >> i & 1) for i in range(2)]
        fm = [full ^ m for m in tm]
        engine = IntervalEngine([f], n_types, 0, 1, extents, LEAVES)
        partial, completions = _completions(rng, n_types, 5)
        present = sum(1 << t for t, v in enumerate(partial) if v is True)
        possible = full ^ sum(1 << t for t, v in enumerate(partial) if v is False)
        lo, hi = engine.sweep(tm, fm, present, possible)
        lo, hi = lo[engine.slot[f]] & full, hi[engine.slot[f]] & full
        for chosen in completions:
            types = [t for t in range(n_types) if chosen[t]]
            lam = {sp: frozenset(f"t{t}" for t in types if ext >> t & 1) for sp, ext in extents.items()}
            if not all(lam.values()):
                continue  # a model gives every standpoint a non-empty extent
            traces = {}
            for t in types:
                val = frozenset(p for i, p in enumerate(props) if t % v_count >> i & 1)
                traces[f"t{t}"] = UPTrace((), (val,))
            model = SLTLModel(traces, lam, 0, 1)
            _assert_sound(f, lo, hi, model, [(1 << t, f"t{t}", 0) for t in types])


def test_bind_gives_the_instructions_of_a_fresh_compile():
    rng = random.Random(41)
    for _ in range(200):
        f = random_formula(rng, 4, props=("p", "q"), mode="sltl", max_sharpenings=2)
        t_count, prefix, period = rng.randint(1, 4), rng.randint(0, 2), rng.randint(1, 2)

        def assignment():
            ext = {UNIVERSAL: (1 << t_count) - 1}
            for sp in (S, T):
                ext[sp] = sum(1 << t for t in range(t_count) if t == 0 or rng.random() < 0.5)
            return ext

        engine = IntervalEngine([f], t_count, prefix, period, assignment(), LEAVES)
        for _ in range(3):
            extents = assignment()
            engine.bind(extents)
            fresh = IntervalEngine([f], t_count, prefix, period, extents, LEAVES)
            assert engine.instrs == fresh.instrs
        # reshaped across L == 1 and L >= 2, one way and back, then to any
        # shape, and bound there, it is a fresh compile at that shape: its
        # masks and instructions
        longer = [(0, 2), (1, 1), (1, 2), (2, 1), (2, 2)]
        for step in range(4):
            t_count = rng.randint(1, 4)
            if step >= 2:
                prefix, period = rng.choice([(0, 1), *longer])
            elif engine.L == 1:
                prefix, period = rng.choice(longer)
            else:
                prefix, period = 0, 1
            extents = assignment()
            engine.reshape(t_count, prefix, period)
            engine.bind(extents)
            fresh = IntervalEngine([f], t_count, prefix, period, extents, LEAVES)
            shape = ("L", "prefix", "block0", "repl", "full", "keep", "folds", "masks", "instrs")
            assert [getattr(engine, a) for a in shape] == [getattr(fresh, a) for a in shape]


def test_interval_engine_sound_on_lasso_strata_with_partial_valuations():
    # the bounded search's use: every trace present, cells partly assigned
    # an engine compiled under one standpoint assignment and bound to a
    # second, as the bounded search reuses one per shape, is checked too
    rng = random.Random(32)
    props = ("p", "q")
    for _ in range(150):
        f = random_formula(rng, 3, props=props, mode="sltl", max_sharpenings=2)
        t_count, prefix, period = rng.randint(1, 4), rng.randint(0, 1), rng.randint(1, 2)
        L = prefix + period
        ids = tuple(range(t_count))

        def assignment():
            ext = {UNIVERSAL: (1 << t_count) - 1}
            for sp in (S, T):
                ext[sp] = sum(1 << t for t in ids if t == 0 or rng.random() < 0.5)
            return ext

        extents = assignment()
        rebound = IntervalEngine([f], t_count, prefix, period, assignment(), LEAVES)
        rebound.bind(extents)
        engines = [IntervalEngine([f], t_count, prefix, period, extents, LEAVES), rebound]
        cells = [(t * L + k, i) for t in ids for k in range(L) for i in range(2)]
        partial, completions = _completions(rng, len(cells), 4)
        def masks(value):
            return [
                sum(1 << b for (b, i), v in zip(cells, partial) if i == j and v is value)
                for j in range(2)
            ]

        tm, fm = masks(True), masks(False)
        every = engines[0].full
        results = []
        for engine in engines:
            lo, hi = engine.sweep(tm, fm, every, every)
            results.append((lo[engine.slot[f]] & every, hi[engine.slot[f]] & every))
        lam = {sp: frozenset(f"t{t}" for t in ids if ext >> t & 1) for sp, ext in extents.items()}
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
            for lo, hi in results:
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
        lambda d: d.update(prefix_len=-1, traces={"t0": []}),
        lambda d: d.update(prefix_len=1, period_len=0),
        lambda d: d["lambda"].__setitem__("@1x", ["t0"]),
    ],
)
def test_witness_json_rejects_malformed(mutation):
    f = parse("<@s> p")
    model, tid = bounded_search(f, SearchBounds.for_formula(f, 1, 0, 1))
    blob = model_to_json(model, tid)
    mutation(blob)
    with pytest.raises(WitnessFormatError):
        model_from_json(blob)
