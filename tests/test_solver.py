import json
import random
import time

import pytest

from conftest import (
    S,
    T,
    U,
    ltl_psl_reference_sat,
    psl_brute_sat,
    random_formula,
    sharpening_atoms,
    true_atoms,
)

import sltl.solver as solver_mod
from sltl import automaton, psl, syntax
from sltl.search import SearchBounds, SearchLimitError, bounded_search
from sltl.semantics import evaluate, model_to_json
from sltl.automaton import find_accepting_lasso
from sltl.cli import main
from sltl.solver import SolveOptions, check_witness, solve, verdict_to_json, witness_from_lasso
from sltl.syntax import (
    And,
    Prop,
    Sharper,
    Standpoint,
    classify,
    Fragment,
    closure,
    neg,
    parse,
    simplify,
    to_text,
    vocab,
)
from sltl.translate import counter_formula, recurring_counter_formula, sltl_to_product


def run_grid_parameters(phi_d):
    """The family size of the automaton's run on ``phi_d`` and the most
    valuations one column of its states' grid models carries."""
    models = find_accepting_lasso(closure(phi_d)).models
    most = max(
        len({v for (c, _), v in m.valuation.items() if c == i})
        for m in models
        for i in range(len(m.family))
    )
    return len(models[0].family), most


def _count_vocabularies(monkeypatch) -> list:
    built = []
    real = syntax.Vocabulary

    def counting(*args):
        built.append(args)
        return real(*args)

    monkeypatch.setattr(syntax, "Vocabulary", counting)
    return built


def test_solve_scans_a_full_sltl_input_once(monkeypatch):
    built = _count_vocabularies(monkeypatch)
    f = parse("<@s> X p & [@t] F !q & (@s <= @t)")
    opts = SolveOptions(bounds=SearchBounds.for_formula(f, 2, 1, 1))
    assert solve(f, opts).fragment is Fragment.FULL_SLTL
    assert len(built) == 1


@pytest.mark.parametrize("text", ["X p & <@s> p", "X p & <@s> (p & true)"])
def test_solve_scans_an_ltl_psl_input_and_its_simplification(monkeypatch, text):
    # the automaton reads simplify(f), a second formula only when it differs
    built = _count_vocabularies(monkeypatch)
    f = parse(text)
    assert solve(f).fragment is Fragment.LTL_PSL
    assert len(built) == 1 + (simplify(f) is not f)


def test_routing_by_fragment():
    assert solve(parse("p & <@s> q")).engine == "automaton"
    assert solve(parse("p U q")).engine == "automaton"
    assert solve(parse("G [@s] p")).engine == "automaton"
    assert solve(parse("<@s> X p")).engine == "oracle"


def test_ltl_psl_example_is_satisfiable_with_checked_witness():
    f = parse("G([@*]!malf) -> [@*]test")
    v = solve(f)
    assert v.status == "sat" and v.engine == "automaton"
    assert check_witness(f, v.model, v.designated)


def test_until_against_always_not_is_unsat():
    v = solve(parse("(p U q) & G !q"))
    assert v.status == "unsat" and v.engine == "automaton"


def test_counter_demand_is_unknown_with_translation(capsys):
    f = recurring_counter_formula(1)
    opts = SolveOptions(bounds=SearchBounds.for_formula(f, 2, 1, 2))
    v = solve(f, opts)
    assert v.status == "unknown"
    assert v.engine == "oracle"
    assert v.bounds is not None
    # the CLI prints the product-logic translation of an unknown verdict
    assert main(["solve", "--bounds", "2,1,2", to_text(f)]) == 2
    last = capsys.readouterr().out.splitlines()[-1]
    assert last.startswith("product-logic translation: ") and "@s" in last


def test_fragment_strict_mode(capsys):
    f = parse("<@s> X p")
    v = solve(f, SolveOptions(fragment_strict=True))
    assert v.status == "out_of_fragment"
    assert main(["solve", "--json", "--fragment-strict", to_text(f)]) == 3
    blob = json.loads(capsys.readouterr().out)
    assert blob["status"] == "out_of_fragment"
    assert blob["translation"] == to_text(sltl_to_product(f))


def test_oracle_path_returns_checked_witness():
    f = parse("<@s> X p")
    v = solve(f)
    assert v.status == "sat" and v.engine == "oracle"
    assert check_witness(f, v.model, v.designated)


def test_deep_corpus_with_two_sharpening_atoms():
    rng = random.Random(31337)
    for _ in range(120):
        f = random_formula(rng, 5, mode="ltl_psl", max_sharpenings=2)
        v = solve(f)
        if v.status == "sat":
            assert check_witness(f, v.model, v.designated)
        found = bounded_search(f, SearchBounds.for_formula(f, 2, 1, 2))
        if found is not None:
            assert v.status == "sat"


def test_witness_soundness_on_corpus():
    rng = random.Random(107)
    sat_seen = 0
    for _ in range(80):
        f = random_formula(rng, 3, mode="ltl_psl", max_sharpenings=1)
        v = solve(f)
        assert v.status in ("sat", "unsat")
        if v.status == "sat":
            sat_seen += 1
            assert check_witness(f, v.model, v.designated)
    assert sat_seen > 10


def test_automaton_witness_has_grid_many_traces():
    f = parse("G [@*] p & F q")
    v = solve(f)
    assert v.status == "sat" and v.engine == "automaton"
    fam_size, n = run_grid_parameters(simplify(f))
    # one column, one valuation in every state: p, then q as well
    assert (fam_size, n) == (1, 1)
    assert len(v.model.traces) == fam_size * n
    # universal box: every trace carries p everywhere
    for tr in v.model.traces.values():
        for k in range(v.model.length):
            assert "p" in tr.valuation(k)
    assert evaluate(v.model, v.designated, 0, parse("F q"))


def test_degenerate_grid_without_standpoints_has_one_trace():
    # without modalities no state needs a second cell
    f = parse("G F p")
    v = solve(f)
    fam_size, n = run_grid_parameters(simplify(f))
    assert (fam_size, n) == (1, 1)
    assert len(v.model.traces) == n
    assert check_witness(f, v.model, v.designated)


def _spy_on_the_automaton(monkeypatch):
    """Record the formulas ``solve`` runs the automaton on, and the true
    sharpening atoms of every grid its states are searched on."""
    runs, held = [], []
    real_run, real_grid = solver_mod.find_accepting_lasso, psl.grid_model_for

    def run(cl, *args):
        runs.append(cl.seed)
        return real_run(cl, *args)

    def grid(g, conjuncts, budget):
        # an atom holds on a family iff every label set with its left
        # standpoint has its right one
        held.append(frozenset(
            (a, b) for a, b in [(S, T), (T, S)]
            if all(a not in labels or b in labels for labels in g.family)
        ))
        return real_grid(g, conjuncts, budget)

    monkeypatch.setattr(solver_mod, "find_accepting_lasso", run)
    monkeypatch.setattr(psl, "grid_model_for", grid)
    return runs, held


def test_partition_exhaustiveness_before_unsat(monkeypatch):
    # one automaton run decides both values of every atom before unsat
    runs, held = _spy_on_the_automaton(monkeypatch)
    f = parse("((@s <= @t) | (@t <= @s)) & G(<@s> q & [@t] !q & <@t> r & [@s] !r) & X p")
    assert solve(f).status == "unsat"
    assert runs == [simplify(f)]
    assert {frozenset({(S, T)}), frozenset({(T, S)})} <= set(held)


def test_true_atoms_short_circuit_on_first_success(monkeypatch):
    # atoms are tried true first, and the search stops at the first
    # accepting run: no state with the atom false is searched
    runs, held = _spy_on_the_automaton(monkeypatch)
    for text in ("(@s <= @t) & X p", "((@s <= @t) | X p) & G F <@s> q"):
        runs.clear()
        held.clear()
        f = parse(text)
        v = solve(f)
        assert v.status == "sat"
        assert runs == [simplify(f)]
        assert held and set(held) == {frozenset({(S, T)})}
        assert true_atoms(v.model, f) == sharpening_atoms(f)


def test_witness_atom_truth_is_lambda_nesting():
    rng = random.Random(139)
    seen = set()
    for _ in range(60):
        # a conjoined negated atom makes some atoms false in the witness
        a, b = rng.sample([S, T, U], 2)
        g = random_formula(rng, 4, sps=(S, T, U), mode="ltl_psl", max_sharpenings=2)
        f = And(g, neg(Sharper(a, b)))
        v = solve(f)
        if v.engine != "automaton" or v.status != "sat":
            continue
        lam = v.model.lam
        for a, b in sharpening_atoms(f):
            holds = evaluate(v.model, v.designated, 0, Sharper(a, b))
            assert holds == (lam[a] <= lam[b]), to_text(f)
            seen.add(holds)
    assert seen == {True, False}


def test_multi_atom_inputs_agree_with_bounded_search():
    rng = random.Random(151)
    done = sat_seen = 0
    while done < 60:
        f = random_formula(rng, 4, sps=(S, T, U), mode="ltl_psl", max_sharpenings=3)
        if not 2 <= len(sharpening_atoms(f)) <= 3:
            continue
        if classify(f) not in (Fragment.PURE_LTL, Fragment.LTL_PSL):
            continue
        done += 1
        v = solve(f)  # a sat verdict's witness is checked inside
        assert v.status in ("sat", "unsat")
        if bounded_search(f, SearchBounds.for_formula(f, 2, 1, 2)) is not None:
            sat_seen += 1
            assert v.status == "sat", to_text(f)
    assert sat_seen > 20


def test_node_limit_is_not_spent_on_root_failures():
    # the modal member makes every state search a grid; the counter's
    # states each force one valuation of four bits, and q false meets the
    # diamond at the designated cell; tried in turn, the valuations before
    # it took 136 nodes in all, and 16, one per grid search, is the least
    # budget it answers under
    f = And(counter_formula(4), parse("G <@*> !q"))
    v = solve(f, SolveOptions(node_limit=16))
    assert v.status == "sat" and check_witness(f, v.model, v.designated)
    with pytest.raises(SearchLimitError, match="grid search"):
        solve(f, SolveOptions(node_limit=15))


def test_grid_larger_than_the_node_limit_is_searched():
    # 2,048 types and a search of one node: the grid's tables are bounded
    # by the default limit, the search by the nodes left
    f = parse("G(" + " & ".join(f"p{i}" for i in range(1, 11)) + " & <@*> !q)")
    v = solve(f, SolveOptions(node_limit=1))
    assert v.status == "sat" and check_witness(f, v.model, v.designated)


def test_modalities_over_false_atoms_fail_at_the_root():
    # the atoms fold to constants on each state's grid, and a box over a
    # false one has no model; without knowing that extents are never empty,
    # the grid searches took over two million nodes on this input
    f = parse(
        "X (!(q | p) & q & (X q | (@s <= @t | q)) U <@u> p U @u <= @s U p"
        " & <@u> [@*] [@s] [@u] @s <= @t)"
    )
    assert solve(f, SolveOptions(node_limit=1_000)).status == "unsat"


def test_solve_is_deterministic():
    f = parse("(@s <= @t) & G(<@s> p) & F q")
    v1, v2 = solve(f), solve(f)
    assert v1.status == v2.status == "sat"
    assert model_to_json(v1.model, v1.designated) == model_to_json(v2.model, v2.designated)


def test_width_escalation_when_negated_boxes_force_cells_apart():
    # four negated boxes force four pairwise distinct cells in the s-column,
    # and the witness is exactly that wide
    f = parse(
        "![@s](!p | !q) & ![@s](!p | q) & ![@s](p | !q) & ![@s](p | q) & X true"
    )
    assert classify(f) is Fragment.LTL_PSL
    v = solve(f)
    assert v.status == "sat"
    assert check_witness(f, v.model, v.designated)
    assert run_grid_parameters(simplify(f)) == (2, 4)
    assert len(v.model.traces) == 2 * 4
    s_traces = sorted(v.model.lam[S])
    assert len({frozenset(v.model.traces[t].valuation(0)) for t in s_traces}) == 4


@pytest.mark.parametrize("f", [
    counter_formula(5),
    parse("F (" + " & ".join(f"p{i}" for i in range(12)) + ")"),
], ids=["counter5", "F-of-12"])
def test_standpoint_free_states_build_no_grid(monkeypatch, f):
    # every state decides its temporal-free conjuncts at its cell, so its
    # grid model is its one cell, and no grid is compiled or searched
    built = []
    real = psl.CompiledGrid.__init__

    def counting(grid, *args):
        built.append(args)
        real(grid, *args)

    monkeypatch.setattr(psl.CompiledGrid, "__init__", counting)
    v = solve(f)
    assert v.status == "sat" and check_witness(f, v.model, v.designated)
    assert built == []


def test_gridless_states_give_the_verdicts_of_the_grid(monkeypatch):
    # the one-cell model of a state without standpoints is the model its
    # grid search gave: the same verdict JSON, witness included
    rng = random.Random(4242)
    texts = []
    while len(texts) < 300:
        f = random_formula(rng, 4, props=("p", "q", "r"), mode="ltl")
        if classify(f) is Fragment.PURE_LTL:
            texts.append(to_text(f))
    gridless = [json.dumps(verdict_to_json(solve(parse(t))), sort_keys=True) for t in texts]
    real_init = automaton.StateSpace.__init__

    def searching(space, *args):
        real_init(space, *args)
        space._gridless = False

    searches = []
    real_search = psl.grid_model_for

    def recording(grid, conjuncts, budget):
        searches.append(conjuncts)
        return real_search(grid, conjuncts, budget)

    monkeypatch.setattr(automaton.StateSpace, "__init__", searching)
    monkeypatch.setattr(psl, "grid_model_for", recording)
    searched = [json.dumps(verdict_to_json(solve(parse(t))), sort_keys=True) for t in texts]
    assert gridless == searched and len(searches) > 600
    assert {json.loads(v)["status"] for v in gridless} == {"sat", "unsat"}


def test_grid_solves_once_per_member_set_and_width(monkeypatch):
    solved = []
    real = psl.grid_model_for

    def recording(grid, conjuncts, budget):
        solved.append((grid, tuple(conjuncts)))
        return real(grid, conjuncts, budget)

    spaces = []
    real_init = automaton.StateSpace.__init__

    def init(space, *args):
        real_init(space, *args)
        spaces.append(space)

    monkeypatch.setattr(psl, "grid_model_for", recording)
    monkeypatch.setattr(automaton.StateSpace, "__init__", init)
    f = parse("G F <@s> p & G F [@s] !p & (q U <@t> !q)")
    lasso = find_accepting_lasso(closure(f))
    (space,) = spaces
    states = list(lasso.stem) + list(lasso.cycle)
    assert len(set(states)) > 1
    assert space.grid_solves == len(solved) == len(set(solved))
    # every state of the run kept its model, and the lasso carries it, so
    # the witness reads back what enumeration found
    assert all(space.grid_model(b) is not None for b in states)
    assert lasso.models == tuple(space.grid_model(b) for b in states)
    before = space.grid_solves
    model, designated = witness_from_lasso(lasso, vocab(f).standpoints)
    assert space.grid_solves == len(solved) == before
    assert check_witness(f, model, designated)


def test_check_witness_rejects_flipped_bit():
    f = Prop("p")
    v = solve(f)
    assert v.status == "sat"
    blob = model_to_json(v.model, v.designated)
    tid = v.designated
    assert "p" in blob["traces"][tid][0]
    blob["traces"][tid][0] = []
    from sltl.semantics import model_from_json

    model, designated = model_from_json(blob)
    assert not check_witness(f, model, designated)


def test_psl_lift_agrees_with_grid_evaluation():
    # a PSL witness is its grid model read as one-position traces, one per
    # cell, with the standpoint extents of the cell labels
    rng = random.Random(109)
    done = 0
    while done < 40:
        f = random_formula(rng, 3, mode="psl", max_sharpenings=1)
        v = solve(f)
        assert v.is_sat == psl_brute_sat(f), to_text(f)
        if not v.is_sat:
            continue
        done += 1
        assert v.engine == "automaton"
        m, model = v.psl_model, v.model
        assert (model.prefix_len, model.period_len) == (0, 1)
        for k, cell in enumerate(m.cells()):
            assert model.traces[f"t{k}"].valuation(0) == m.valuation[cell]
            for sp in m.labels(cell):
                assert f"t{k}" in model.lam[sp]
        assert check_witness(f, v.model, v.designated)


def test_nested_sharpening_atoms_are_state_bits():
    # the atom occurs only beneath modalities; a closure without it never
    # makes it true, so the box's t-witness of q finds no s-cell
    f = parse("[@s] (q & @t <= @s & (true & p) & <@t> <@s> q)")
    assert Sharper(T, S) in closure(simplify(f))
    v = solve(f)
    assert v.is_sat and true_atoms(v.model, f) == {(T, S)}


def test_sixty_four_atom_chain_is_sat():
    # 2^64 truth assignments cannot be listed; the automaton tries atoms
    # true first, and every atom true is sat
    spec = " & ".join(f"@a{i} <= @a{i + 1}" for i in range(64))
    verdict = solve(parse(spec))
    assert verdict.status == "sat"
    lam = verdict.model.lam
    assert all(lam[Standpoint(f"a{i}")] <= lam[Standpoint(f"a{i + 1}")] for i in range(64))


@pytest.mark.parametrize("body", ["p & !p", "<@s> p & [@s] !p"], ids=["boolean", "grid"])
@pytest.mark.parametrize("k", [14, 64])
def test_unsat_atom_chain_is_answered_at_once(k, body):
    # the contradiction fails on every label family; one grid per guessed
    # partition took over 20 s at k = 14
    spec = " & ".join(f"@a{i} <= @a{i + 1}" for i in range(k)) + " & " + body
    started = time.perf_counter()
    assert solve(parse(spec)).status == "unsat"
    assert time.perf_counter() - started < 2


def test_negated_boxes_widen_the_grid_to_the_valuations_they_force():
    # the negated boxes are the diamonds of the NNF: the column of s needs
    # four valuations, each lacking one proposition, one more than the
    # standpoints plus diamond subformulas plus one (2 + 0 + 1) would give
    props = ["p", "q", "r", "u"]
    only = " & ".join(
        f"(!{a} -> " + " & ".join(b for b in props if b != a) + ")" for a in props
    )
    spec = " & ".join(f"![@s] {a}" for a in props) + f" & [@s] ({only})"
    verdict = solve(parse(spec))
    m = verdict.psl_model
    assert verdict.status == "sat" and m.n == 4
    s_column = {m.valuation[(1, j)] for j in range(1, 5)}
    assert s_column == {frozenset(props) - {a} for a in props}


def _grid_searches(monkeypatch, text):
    """The verdict on the input and the number of grid searches it ran."""
    calls = []
    search = psl.grid_model_for

    def counting(*args):
        calls.append(args)
        return search(*args)

    monkeypatch.setattr(psl, "grid_model_for", counting)
    return solve(parse(text)).status, len(calls)


def test_unsat_modal_disjunctions_take_one_grid_search(monkeypatch):
    # one search per Boolean-consistent assignment of the diamonds would be
    # 3^12 = 531,441, past the automaton's state limit.  With a next-step
    # conjunct the diamonds still only occur in temporal-free conjuncts, so
    # they are read off the grid, not branched on: the first assignment of
    # q fails, and so do the conjuncts without atoms, searched once
    spec = " & ".join(f"(<@a{i}> p | <@b{i}> p)" for i in range(12)) + " & [@*] !p"
    assert _grid_searches(monkeypatch, spec) == ("unsat", 1)
    assert _grid_searches(monkeypatch, "X q & " + spec) == ("unsat", 2)


@pytest.mark.parametrize("text", [
    "(!p & false | p U q U q) & ([@s] !r | <@s> @s <= @t U (@u <= @t & true)) & <@t> <@s> r",
    "<@s> (q | [@u] r) & !([@t] p & @s <= @t U p) & (@t <= @u & <@t> q | <@*> <@t> r)"
    " & (r | <@s> (true | p)) & ([@*] @t <= @s & !@t <= @u & (true & true & <@t> r))",
])
def test_ltl_psl_inputs_with_grid_decided_members_are_sat_at_once(text):
    # branching on the modal members of the temporal-free conjuncts ran
    # grid searches that spent the default node budget, after minutes
    f = parse(text)
    started = time.perf_counter()
    v = solve(f)
    assert time.perf_counter() - started < 1
    assert v.status == "sat" and check_witness(f, v.model, v.designated)


def test_unsat_atom_disjunctions_stop_at_the_atom_free_conjuncts(monkeypatch):
    # 3^8 atom assignments each choose a family; the conjuncts without
    # atoms fail on every family, which one search on the family of no
    # atoms shows once the first assignment has failed
    spec = " & ".join(f"(@a{i} <= @b{i} | @b{i} <= @a{i})" for i in range(8))
    assert _grid_searches(monkeypatch, spec + " & <@s> p & [@s] !p") == ("unsat", 2)
    # when the conjuncts without atoms have a model, the search goes on to
    # the next assignments: s = t and s inside t fail, t inside s holds
    spec = "(@s <= @t | @t <= @s) & [@t] p & <@s> !p"
    assert _grid_searches(monkeypatch, spec) == ("sat", 4)
    f = parse(spec)
    assert true_atoms(solve(f).model, f) == {(T, S)}


@pytest.mark.parametrize("text, engine", [
    ("<@s> p & [@s] !q", "automaton"),
    ("(@s <= @t) & G <@s> p & F q", "automaton"),
    ("<@s> X p", "oracle"),
])
def test_sat_verdict_runs_one_check(monkeypatch, text, engine):
    calls = []
    real = solver_mod.evaluate

    def counting(model, trace_id, position, f):
        calls.append((model, trace_id, position))
        return real(model, trace_id, position, f)

    monkeypatch.setattr(solver_mod, "evaluate", counting)
    v = solve(parse(text))
    assert (v.status, v.engine) == ("sat", engine)
    assert calls == [(v.model, v.designated, 0)]


def test_verdict_json_schema(capsys):
    v = solve(parse("(@s <= @t) & X p"))
    blob = verdict_to_json(v)
    assert blob["status"] == "sat"
    assert blob["engine"] == "automaton"
    # the verdict lists no atoms; the atom's truth is read off lambda
    lam = blob["witness"]["lambda"]
    assert set(lam["@s"]) <= set(lam["@t"])
    assert blob["witness"]["designated"] == v.designated
    json.dumps(blob)  # serializable

    f = recurring_counter_formula(1)
    u = solve(f, SolveOptions(bounds=SearchBounds.for_formula(f, 2, 1, 2)))
    blob_u = verdict_to_json(u)
    assert blob_u["status"] == "unknown"
    assert blob_u["witness"] is None
    assert "bounds" in blob_u and "translation" not in blob_u
    json.dumps(blob_u)
    # ``solve --json`` adds the translation, after every other key
    assert main(["solve", "--json", "--bounds", "2,1,2", to_text(f)]) == 2
    cli_blob = json.loads(capsys.readouterr().out)
    assert cli_blob == {**blob_u, "translation": to_text(sltl_to_product(f))}
    assert list(cli_blob) == [*blob_u, "translation"]


@pytest.mark.parametrize("text, strict, status, extra", [
    ("(@s <= @t) & X p", False, "sat", []),
    ("(p U q) & G !q", False, "unsat", []),
    ("<@s> p & [@s] !q", False, "sat", ["psl_witness"]),
    ("(@s <= @t) & <@s> X p", False, "sat", ["bounds"]),
    ("<@s> X p & [@s] X !p", False, "unknown", ["bounds"]),
    ("<@s> X p", True, "out_of_fragment", []),
], ids=["automaton", "unsat", "psl", "oracle", "unknown", "out_of_fragment"])
def test_verdict_json_keys_by_kind(text, strict, status, extra):
    # the keys the README lists for each kind of verdict, in order
    blob = verdict_to_json(solve(parse(text), SolveOptions(fragment_strict=strict)))
    assert blob["status"] == status
    assert list(blob) == ["status", "engine", "fragment", "witness", *extra]
    assert (blob["witness"] is None) == (status != "sat")


def test_temporal_verdicts_match_the_tableau_reference():
    # the reference decides these sat; their periods (4 and 8) exceed the
    # bounded oracle's, which finds no model for them
    for n in (2, 3):
        f = counter_formula(n)
        assert ltl_psl_reference_sat(f) is True
        assert bounded_search(f, SearchBounds.for_formula(f, 3, 2, 3)) is None
    rng = random.Random(1212)
    started = time.perf_counter()
    decided = unsat = skipped = 0
    for i in range(600):
        f = random_formula(rng, 3 + i % 3, mode=("ltl_psl", "ltl")[i % 2])
        expected = ltl_psl_reference_sat(f)
        if expected is None:
            skipped += 1
            continue
        status = solve(f).status
        assert status == ("sat" if expected else "unsat"), to_text(f)
        decided += 1
        unsat += not expected
    elapsed = time.perf_counter() - started
    print(f"{decided} decided, {unsat} unsat, {skipped} over the reference's cap, {elapsed:.2f} s")
    assert decided >= 300 and unsat >= 20 and skipped <= 30
    assert elapsed < 10
