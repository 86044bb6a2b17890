"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines stream.
Shared corpora are built once per session; every satisfiable verdict
produced here is registered so the witness-soundness criterion can sweep
all of them.
"""

import itertools
import random
import time

import pytest

from conftest import (
    S,
    T,
    enumerate_psl_formulas,
    guards_into_standpoints,
    over_universal,
    psl_brute_sat,
    random_formula,
    routed,
    standpoints_into_guards,
    trace_labels,
    true_atoms,
    witness_grid,
)

from sltl import psl
from sltl.search import SearchBounds, bounded_search, one_cell_model
from sltl.semantics import SLTLModel, UPTrace, check_product_formula, evaluate
from sltl.solver import check_witness, solve
from sltl.syntax import (
    And,
    BoxS,
    DiamondS,
    Prop,
    UNIVERSAL,
    classify,
    Fragment,
    parse,
    size,
    subformulas,
    to_text,
    vocab,
)
from sltl.automaton import closure
from sltl.translate import (
    product_to_sltl,
    recurring_counter_formula,
    counter_formula,
    simplify,
    sltl_to_product,
)

CRITERION_BOUNDS = (3, 2, 3)  # traces, prefix, period for the agreement run


def report(n: int, text: str) -> None:
    print(f"PASS criterion {n}: {text}")


@pytest.fixture(scope="module")
def agreement_run():
    """500 random formulas of the automaton-eligible fragment, solved and
    searched once; criteria 1-3 all read from this record."""
    rng = random.Random(20240809)
    records = []
    started = time.time()
    for _ in range(500):
        f = random_formula(rng, 4, mode="ltl_psl", max_sharpenings=1)
        found = bounded_search(f, SearchBounds.for_formula(f, *CRITERION_BOUNDS))
        verdict = solve(f)
        records.append((f, found, verdict))
    return records, time.time() - started


def test_criterion_01_oracle_solver_agreement(agreement_run):
    records, elapsed = agreement_run
    assert len(records) >= 500
    oracle_sat = 0
    for f, found, verdict in records:
        assert classify(f) in (Fragment.PSL, Fragment.PURE_LTL, Fragment.LTL_PSL)
        if found is not None:
            oracle_sat += 1
            assert verdict.status == "sat", to_text(f)
    assert elapsed < 600, f"agreement run took {elapsed:.0f}s"
    report(1, f"{len(records)} formulas, {oracle_sat} oracle-sat, 0 disagreements, {elapsed:.0f}s")


def test_criterion_02_witness_soundness(agreement_run):
    records, _ = agreement_run
    checked = 0
    for f, _, verdict in records:
        if verdict.status == "sat":
            assert check_witness(f, verdict.model, verdict.designated), to_text(f)
            checked += 1
    # the fixed regressions below contribute their own checked witnesses
    for text in ["G F p", "(@s <= @t) & G <@s> p", "F (p & [@*] q)"]:
        f = parse(text)
        v = solve(f)
        assert v.status == "sat"
        assert check_witness(f, v.model, v.designated)
        checked += 1
    report(2, f"{checked} satisfiable verdicts, all witnesses pass the evaluator")


def test_criterion_03_witness_size(agreement_run):
    records, _ = agreement_run
    sized = 0
    for f, _, verdict in records:
        if verdict.status != "sat":
            continue
        # the automaton's witness, which ``solve`` skips for an input with
        # a one-cell model; the grid's label family is that of the
        # sharpening atoms true in the witness
        verdict = routed(f)
        assert verdict.engine == "automaton"
        phi_d = simplify(f)
        universe = set(vocab(phi_d).standpoints) | {UNIVERSAL}
        held = true_atoms(verdict.model, phi_d)
        family_size = len(psl.label_family(held, universe))
        # the traces come column by column, ``width`` per column; the width
        # is the most valuations one column carries at one position
        model = verdict.model
        assert len(model.traces) % family_size == 0, to_text(f)
        width = len(model.traces) // family_size
        ids = list(model.traces)
        most = max(
            len({model.traces[t].valuation(k) for t in ids[c * width:(c + 1) * width]})
            for c in range(family_size)
            for k in range(model.length)
        )
        assert width == most, to_text(f)
        # within the paper's small-model bound
        subs = subformulas(phi_d)
        modal = sum(isinstance(g, (DiamondS, BoxS)) for g in subs)
        assert len(model.traces) <= family_size * (len(universe) + modal + 1), to_text(f)
        sized += 1
    assert sized > 50
    report(3, f"{sized} automaton witnesses, every one has exactly |S-family|*N traces, N the most valuations a column needs")


def _assert_grid_shape(f, verdict) -> bool:
    """Assert criterion 4's shape conditions on an automaton PSL witness;
    return whether it has two or more columns at width two or more, where
    numbering its traces row by row would differ from column by column."""
    # the witness is the grid model, one trace of one position per
    # cell, its columns the traces grouped by their label sets
    model, sps = verdict.model, vocab(simplify(f)).standpoints
    assert (model.prefix_len, model.period_len) == (0, 1)
    family, columns = witness_grid(model, sps)
    labels = trace_labels(model, sps)
    n = len(model.traces) // len(family)
    # condition 1: precisifications are exactly the family-by-width
    # grid: every label set holds exactly n traces, trace t{i*n+j}
    # lying in column i
    assert len(model.traces) == n * len(family)
    for i, column_labels in enumerate(family):
        assert [t for t in model.traces if labels[t] == column_labels] == [
            f"t{i * n + j}" for j in range(n)
        ]
    # condition 2: the designated cell is the first universal-column
    # cell, whose trace the witness designates
    assert verdict.designated == "t0" and labels["t0"] == family[0]
    # the universal column comes first: its labels are the standpoints
    # that every column carries, and no column repeats
    assert family[0] == frozenset.intersection(*family)
    assert len(set(family)) == len(family)
    # condition 3: cell labels are exactly the family set of the
    # column, which lists its distinct valuations, padded with copies
    # of its first
    assert all(UNIVERSAL in s for s in family)
    for i, column in enumerate(columns):
        assert [model.traces[f"t{i * n + j}"].valuation(0) for j in range(n)] == [
            *column, *column[:1] * (n - len(column))
        ]
    # it satisfies the formula at the designated cell
    assert evaluate(model, verdict.designated, 0, f), to_text(f)
    return len(family) >= 2 and n >= 2


def test_criterion_04_grid_shape():
    rng = random.Random(404)
    checked = 0
    while checked < 200:
        f = random_formula(rng, rng.randint(1, 4), mode="psl", max_sharpenings=2)
        verdict = routed(f)  # the automaton's grid, past the one-cell check
        if not verdict.is_sat:
            continue
        checked += 1
        _assert_grid_shape(f, verdict)
    # the witnesses above are one column or one valuation wide; each
    # conjunct here asks a standpoint for two valuations, beside a
    # universal column that needs fewer and is padded
    wide_parts = [parse(t) for t in (
        "<@s> p & <@s> !p", "<@t> q & <@t> !q & [@s] p", "<@*> (p & q) & <@*> !p & <@s> !q",
    )]
    rng = random.Random(4040)
    wide = 0
    for i in range(150):
        f = And(random_formula(rng, rng.randint(1, 4), mode="psl", max_sharpenings=2), wide_parts[i % 3])
        verdict = routed(f)
        if verdict.is_sat:
            wide += _assert_grid_shape(f, verdict)
    assert wide >= 90
    report(4, f"{checked} satisfiable grid models meet all three shape conditions, "
              f"and {wide} more of two or more columns at width two or more")


def test_criterion_05_psl_completeness_micro_corpus():
    started = time.time()
    count = 0
    # one-cell hits and misses in each part, so that the oracle sees both
    # sides of the truth-table check
    cells = {"exhaustive": [0, 0], "sampled": [0, 0]}  # [hits, misses]
    for f in enumerate_psl_formulas(5):
        want = psl_brute_sat(f)
        assert solve(f).is_sat == want, to_text(f)
        assert routed(f).is_sat == want, to_text(f)
        cells["exhaustive"][one_cell_model(f) is None] += 1
        count += 1
    rng = random.Random(5150)
    sampled = 0
    while sampled < 2000:
        f = random_formula(
            rng, rng.randint(3, 5), props=("p",), sps=(S, T), mode="psl", max_sharpenings=2
        )
        if not 6 <= size(f) <= 10:
            continue
        want = psl_brute_sat(f)
        assert solve(f).is_sat == want, to_text(f)
        assert routed(f).is_sat == want, to_text(f)
        cells["sampled"][one_cell_model(f) is None] += 1
        sampled += 1
    elapsed = time.time() - started
    print(f"one-cell [hits, misses]: {cells}")
    assert cells["exhaustive"][0] >= 20000 and cells["exhaustive"][1] >= 8400
    assert cells["sampled"][0] >= 1500 and cells["sampled"][1] >= 450
    assert elapsed < 300, f"micro-corpus run took {elapsed:.0f}s"
    report(
        5,
        f"exhaustive to size 5 ({count} formulas) plus {sampled} sampled to size 10, "
        f"solve and the automaton alone, 0 disagreements, {elapsed:.0f}s",
    )


def test_criterion_06_translation_transport():
    rng = random.Random(606)
    bounds_shape = (2, 1, 2)

    embedded = 0
    while embedded < 200:
        f = random_formula(rng, 3, mode="product")
        embedded += 1
        check_product_formula(f)
        g = product_to_sltl(f)
        bounds = SearchBounds.for_formula(f, *bounds_shape)
        found_product = bounded_search(f, bounds)
        found_sltl = bounded_search(g, bounds)
        assert (found_product is None) == (found_sltl is None), to_text(f)
        if found_product is not None:
            m, tid = found_product
            assert evaluate(m, tid, 0, g)
        if found_sltl is not None:
            m2, tid2 = found_sltl
            assert evaluate(over_universal(m2), tid2, 0, f)

    guarded = 0
    while guarded < 200:
        f = random_formula(rng, 2, mode="sltl", max_sharpenings=1)
        guarded += 1
        out = sltl_to_product(f)
        check_product_formula(out)
        bounds_f = SearchBounds.for_formula(f, *bounds_shape)
        bounds_out = SearchBounds(
            *bounds_shape, tuple(sorted(set(bounds_f.props) | vocab(out).props))
        )
        found_f = bounded_search(f, bounds_f)
        found_out = bounded_search(out, bounds_out)
        assert (found_f is None) == (found_out is None), to_text(f)
        if found_f is not None:
            model, tid = found_f
            assert evaluate(standpoints_into_guards(model), tid, 0, out)
        if found_out is not None:
            m, tid = found_out
            assert evaluate(guards_into_standpoints(m, f), tid, 0, f)
    report(6, f"{embedded}+{guarded} formulas, bounded-model existence and transported "
              "witnesses agree in both directions")


def test_criterion_07_counter_semantics():
    f = counter_formula(2)
    rows = [frozenset(s) for s in ([], ["p2"], ["p1"], ["p1", "p2"])]
    winners = []
    for candidate in itertools.product(
        [frozenset(s) for s in ([], ["p1"], ["p2"], ["p1", "p2"])], repeat=4
    ):
        m = SLTLModel(
            {"t0": UPTrace((), candidate)}, {UNIVERSAL: frozenset({"t0"})}, 0, 4
        )
        if evaluate(m, "t0", 0, f):
            winners.append(candidate)
    assert winners == [tuple(rows)]
    m = SLTLModel({"t0": UPTrace((), tuple(rows))}, {UNIVERSAL: frozenset({"t0"})}, 0, 4)
    for j in range(13):
        value = 2 * evaluate(m, "t0", j, Prop("p1")) + evaluate(m, "t0", j, Prop("p2"))
        assert value == j % 4, j
    assert evaluate(m, "t0", 3, parse("p1 & p2 & X (!p1 & !p2)"))
    report(7, "unique two-bit counter trace counts j mod 4 up to 12 and wraps at 3")


def test_criterion_08_no_bounded_model_for_counter_demand():
    f = recurring_counter_formula(1)
    props = tuple(vocab(f).props)
    started = time.time()
    combos = 0
    for t in range(1, 5):
        for p in range(4):
            for q in range(1, 4):
                assert bounded_search(f, SearchBounds(t, p, q, props)) is None, (t, p, q)
                combos += 1
    elapsed = time.time() - started
    assert combos == 48
    assert elapsed < 120, f"negative check took {elapsed:.0f}s"
    report(8, f"all {combos} bound combinations return no model, {elapsed:.0f}s")


def test_criterion_09_closure_bound():
    rng = random.Random(909)
    for _ in range(1000):
        f = random_formula(rng, rng.randint(0, 5), mode="sltl", max_sharpenings=2)
        assert len(closure(f)) <= 4 * size(f), to_text(f)
    report(9, "closure size within four times the formula size on 1000 formulas")


def test_criterion_10_ltl_regression():
    expectations = {
        "G F p": "sat",
        "F G p & G F !p": "unsat",
        "(p U q) & G !q": "unsat",
        "!(X p <-> !X!p)": "unsat",
        "!(X (p & q) <-> !X!(p & q))": "unsat",
        "X p <-> !X!p": "sat",
    }
    for text, expected in expectations.items():
        f = parse(text)
        v = solve(f)
        assert v.status == expected, text
        if v.status == "sat":
            assert check_witness(f, v.model, v.designated)
    report(10, f"{len(expectations)} fixed verdicts match the analytic values")
