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
    routed,
    sharpening_atoms,
    true_atoms,
    witness_grid,
)

import sltl.solver as solver_mod
from sltl import automaton, psl, search, syntax
from sltl.search import SearchBounds, SearchLimitError, bounded_search, one_cell_model
from sltl.semantics import evaluate, model_to_json
from sltl.automaton import find_accepting_lasso
from sltl.cli import main
from sltl.solver import SolveOptions, check_witness, solve, verdict_to_json, witness_from_lasso
from sltl.syntax import (
    BOTTOM,
    And,
    Prop,
    Sharper,
    Standpoint,
    UNIVERSAL,
    Until,
    always,
    classify,
    Fragment,
    closure,
    eventually,
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
    most = max(len(column) for _, columns in models for column in columns)
    return len(models[0][0]), most


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


@pytest.mark.parametrize(
    "text",
    ["X p & <@s> p", "X p & <@s> (p & true)", "X p & <@s> !p & p", "X p & <@s> (!p & true) & p"],
)
def test_solve_scans_an_ltl_psl_input_and_its_simplification(monkeypatch, text):
    # a one-cell model is read off f alone; on a miss (p & !p on one
    # cell) the automaton reads simplify(f), a second formula only when it
    # differs
    built = _count_vocabularies(monkeypatch)
    f = parse(text)
    v = solve(f)
    assert v.fragment is Fragment.LTL_PSL
    if "!" in text:
        assert v.engine == "automaton"
        assert len(built) == 1 + (simplify(f) is not f)
    else:
        assert v.engine == "oracle"
        assert len(built) == 1


class _Simplified(Exception):
    pass


def test_one_cell_hits_never_simplify(monkeypatch):
    # the one-cell check reads the input itself: only a miss folds it
    calls = []

    def refused(f):
        calls.append(f)
        raise _Simplified

    monkeypatch.setattr(solver_mod, "simplify", refused)
    for text in ["p & <@s> q", "p U q", "G [@s] p", "<@s> X p"]:  # one per fragment
        assert solve(parse(text)).engine == "oracle", text
    assert calls == []
    f = parse("(p U q) & !q")
    with pytest.raises(_Simplified):
        solve(f)
    assert calls == [f]


def test_routing_by_fragment():
    # inputs with no one-cell model go to their fragment's engine
    assert solve(parse("p & <@s> !p")).engine == "automaton"
    assert solve(parse("(p U q) & !q")).engine == "automaton"
    assert solve(parse("G [@s] p & !p")).engine == "automaton"
    assert solve(parse("<@s> X p & <@s> X !p")).engine == "oracle"


@pytest.mark.parametrize("text", ["p & <@s> q", "p U q", "G [@s] p", "<@s> X p", "p & !p | q"])
def test_one_cell_inputs_answer_before_routing(monkeypatch, text):
    # a one-cell model answers every fragment with the bounded search's
    # first stratum, and no engine runs
    def unreachable(*args, **kwargs):
        raise AssertionError("an engine ran")

    monkeypatch.setattr(solver_mod, "find_accepting_lasso", unreachable)
    monkeypatch.setattr(solver_mod, "bounded_search", unreachable)
    f = parse(text)
    v = solve(f)
    assert (v.status, v.engine, v.designated) == ("sat", "oracle", "t0")
    assert (v.model.prefix_len, v.model.period_len, list(v.model.traces)) == (0, 1, ["t0"])
    want = (3, 2, 3) if classify(f) is Fragment.FULL_SLTL else (1, 0, 1)
    assert v.bounds == SearchBounds.for_formula(f, *want)


def test_ltl_psl_example_is_satisfiable_with_checked_witness():
    f = parse("G([@*]!malf) -> [@*]test")
    v = routed(f)  # the automaton's witness, past the one-cell check
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


def test_an_input_that_folds_to_false_costs_no_node():
    # the bounded search runs on simplify(f), which is false: it has no
    # model within any bounds, and answers so before its first node; the
    # unfolded input takes hundreds
    f = parse("(F <@t> (q U !true)) & <@s> X p & [@s] X q")
    assert simplify(f) == parse("false")
    v = solve(f, SolveOptions(node_limit=0))
    assert (v.status, v.fragment) == ("unknown", Fragment.FULL_SLTL)
    assert v.bounds == SearchBounds.for_formula(f, 3, 2, 3)


@pytest.mark.parametrize("text", [
    "p & <@s> (q & false)",
    "F (p U false)",
    "X p & <@s> (q & false)",
    "(F <@t> (q U !true)) & <@s> X p & [@s] X q",
])
def test_inputs_that_fold_to_false_run_no_engine(monkeypatch, text):
    # one-cell misses whose folding is false, one per fragment: each
    # engine answers at its entry, with no state space and no compiled
    # interval engine, so no state or node limit is reached, and the
    # verdict is the one of the default limits
    f = parse(text)
    assert one_cell_model(f) is None and simplify(f) == parse("false")
    want = verdict_to_json(solve(f))

    def unreachable(*args, **kwargs):
        raise AssertionError("an engine was built")

    monkeypatch.setattr(automaton, "StateSpace", unreachable)
    monkeypatch.setattr(search, "IntervalEngine", unreachable)
    assert verdict_to_json(solve(f, SolveOptions(node_limit=0, state_limit=0))) == want
    assert want["status"] == ("unknown" if classify(f) is Fragment.FULL_SLTL else "unsat")


def test_a_one_cell_hit_walks_its_input_once(monkeypatch):
    # the one-cell check and the witness check read one memoised list of
    # subformulas
    walked = []
    real = syntax._walk

    def counting(roots, known):
        walked.append(roots)
        return real(roots, known)

    monkeypatch.setattr(syntax, "_walk", counting)
    for text in ["p & <@s> q", "p U q", "G [@s] p", "<@s> X p"]:  # one per fragment
        walked.clear()
        f = parse(text)
        v = solve(f)
        assert (v.status, v.engine) == ("sat", "oracle")
        assert walked == [(f,)], text


def test_a_full_sltl_miss_walks_its_input_and_its_folding_once_each(monkeypatch):
    # the bounded search's vocabulary and its engine's compile read one
    # memoised walk of the folded input
    walked = []
    real = syntax._walk

    def counting(roots, known):
        walked.append((roots, known))
        return real(roots, known)

    monkeypatch.setattr(syntax, "_walk", counting)
    f = parse("(<@s> X p & true) & [@s] X !p")  # p & !p on one cell
    opts = SolveOptions(bounds=SearchBounds.for_formula(f, 2, 1, 1))
    v = solve(f, opts)
    phi = simplify(f)
    assert (v.fragment, v.status) == (Fragment.FULL_SLTL, "unknown") and phi != f
    assert walked == [((f,), ()), ((phi,), ())]


def test_the_search_after_constant_folding_finds_the_same_model():
    # folding changes neither the first stratum with a model nor its
    # traces; a standpoint that folding removed covers every trace.  Every
    # other formula gets a conjunct that needs a second trace.
    apart = parse("p & <@s> !p")
    rng = random.Random(3232)
    seen = {"folded": 0, "wide": 0, "removed": 0}
    for i in range(1000):
        f = random_formula(rng, 5, mode="sltl", max_sharpenings=1)
        if i % 2:
            f = And(f, apart)
        if classify(f) is not Fragment.FULL_SLTL:
            continue
        phi = simplify(f)
        b = SearchBounds.for_formula(f, 3, 1, 2)
        raw, folded = bounded_search(f, b), bounded_search(phi, b)
        assert (raw is None) == (folded is None), str(f)
        seen["folded"] += phi != f
        if raw is None:
            continue
        (a, _), (c, _) = raw, folded
        assert (a.prefix_len, a.period_len, a.traces) == (c.prefix_len, c.period_len, c.traces)
        seen["wide"] += len(a.traces) > 1
        v = solve(f, SolveOptions(bounds=b))
        assert v.status == "sat" and v.model.traces == a.traces, str(f)
        assert check_witness(f, v.model, v.designated)
        removed = vocab(f).standpoints - vocab(phi).standpoints
        assert all(v.model.lam[sp] == frozenset(a.traces) for sp in removed)
        seen["removed"] += bool(removed)
    assert seen["folded"] > 100 and seen["wide"] > 80 and seen["removed"] > 40, seen


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
    v = routed(f)  # the automaton's witness, past the one-cell check
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
    v = routed(f)  # the automaton, past the one-cell check
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
        v = routed(f)  # the automaton's run, past the one-cell check
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
    v = routed(f, SolveOptions(node_limit=1))  # the automaton, past the one-cell check
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
    v = routed(f)  # the automaton, past the one-cell check
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
    # the automaton's verdicts, past the one-cell check
    gridless = [json.dumps(verdict_to_json(routed(parse(t))), sort_keys=True) for t in texts]
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
    searched = [json.dumps(verdict_to_json(routed(parse(t))), sort_keys=True) for t in texts]
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


def test_witness_pads_each_column_with_its_first_valuation():
    # every column of every position is padded to the widest column of the
    # run, repeating its first valuation; cell j of column i is t{i*width+j}
    p, q, none = frozenset({"p"}), frozenset({"q"}), frozenset()
    family = (frozenset({UNIVERSAL}), frozenset({UNIVERSAL, S}))
    lasso = automaton.Lasso((0,), (1,), (
        (family, ((p, q), (q,))),
        (family, ((none,), (p, q, none))),
    ))
    model, designated = witness_from_lasso(lasso, {S})
    assert designated == "t0" and (model.prefix_len, model.period_len) == (1, 1)
    rows = {t: (tr.valuation(0), tr.valuation(1)) for t, tr in model.traces.items()}
    assert rows == {
        "t0": (p, none), "t1": (q, none), "t2": (p, none),
        "t3": (q, p), "t4": (q, q), "t5": (q, none),
    }
    assert model.lam == {UNIVERSAL: frozenset(rows), S: frozenset({"t3", "t4", "t5"})}


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
    # a PSL witness is the grid model of its run's one state read as
    # one-position traces, one per cell, each column padded with its first
    # valuation, with the standpoint extents of the cell labels
    rng = random.Random(109)
    done = 0
    while done < 40:
        f = random_formula(rng, 3, mode="psl", max_sharpenings=1)
        v = routed(f)  # the automaton's witness, past the one-cell check
        assert v.is_sat == psl_brute_sat(f), to_text(f)
        if not v.is_sat:
            continue
        done += 1
        assert v.engine == "automaton"
        model, phi = v.model, simplify(f)
        (grid,) = find_accepting_lasso(closure(phi)).models
        family, columns = grid
        assert (model.prefix_len, model.period_len) == (0, 1)
        assert witness_grid(model, vocab(phi).standpoints) == grid
        n = len(model.traces) // len(family)
        assert len(model.traces) == n * len(family)
        for i, column in enumerate(columns):
            for j, val in enumerate(column + column[:1] * (n - len(column))):
                assert model.traces[f"t{i * n + j}"].valuation(0) == val
                for sp in family[i]:
                    assert f"t{i * n + j}" in model.lam[sp]
        assert check_witness(f, v.model, v.designated)


def test_nested_sharpening_atoms_are_state_bits():
    # the atom occurs only beneath modalities; a closure without it never
    # makes it true, so the box's t-witness of q finds no s-cell
    f = parse("[@s] (q & @t <= @s & (true & p) & <@t> <@s> q)")
    assert Sharper(T, S) in closure(simplify(f))
    v = routed(f)  # the automaton, past the one-cell check
    assert v.is_sat and true_atoms(v.model, f) == {(T, S)}


def test_sixty_four_atom_chain_is_sat():
    # 2^64 truth assignments cannot be listed; the automaton tries atoms
    # true first, and every atom true is sat
    spec = " & ".join(f"@a{i} <= @a{i + 1}" for i in range(64))
    verdict = routed(parse(spec))  # the automaton, past the one-cell check
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
    assert verdict.status == "sat" and verdict.engine == "automaton"
    family, columns = witness_grid(verdict.model, {S})
    assert len(verdict.model.traces) == 4 * len(family)
    assert family[1] == {S, UNIVERSAL} and len(columns[1]) == 4
    assert set(columns[1]) == {frozenset(props) - {a} for a in props}


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
    v = routed(f)  # the automaton, past the one-cell check
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
    ("<@s> p & <@s> !p", "automaton"),
    ("(@s <= @t) & G <@s> p & F q & !q", "automaton"),
    ("<@s> X p", "oracle"),
    ("<@s> X p & <@s> X !p", "oracle"),
    # one-cell models, one per fragment
    ("<@s> p & [@s] !q", "oracle"),
    ("(@s <= @t) & G <@s> p & F q", "oracle"),
    ("F p & G q", "oracle"),
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
    v = solve(parse("(@s <= @t) & X p & !p"))
    blob = verdict_to_json(v)
    assert blob["status"] == "sat"
    assert blob["engine"] == "automaton"
    # the verdict lists no atoms; the atom's truth is read off lambda
    lam = blob["witness"]["lambda"]
    assert set(lam["@s"]) <= set(lam["@t"])
    assert blob["witness"]["designated"] == v.designated
    json.dumps(blob)  # serializable

    # a one-cell model: the bounded search's first stratum, one trace of
    # one position
    blob = verdict_to_json(solve(parse("(@s <= @t) & X p")))
    assert (blob["status"], blob["engine"]) == ("sat", "oracle")
    assert blob["bounds"] == {"max_traces": 1, "max_prefix": 0, "max_period": 1, "props": ["p"]}
    assert blob["witness"]["traces"] == {"t0": [["p"]]}
    assert blob["witness"]["lambda"] == {"@*": ["t0"], "@s": ["t0"], "@t": ["t0"]}

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
    ("(@s <= @t) & X p & !p", False, "sat", []),
    ("(p U q) & G !q", False, "unsat", []),
    ("<@s> p & <@s> !p", False, "sat", []),
    ("(@s <= @t) & <@s> X p", False, "sat", ["bounds"]),
    ("<@s> X p & [@s] X !p", False, "unknown", ["bounds"]),
    ("<@s> X p", True, "out_of_fragment", []),
    ("(@s <= @t) & X p", False, "sat", ["bounds"]),
    ("<@s> p & [@s] !q", False, "sat", ["bounds"]),
], ids=["automaton", "unsat", "psl", "oracle", "unknown", "out_of_fragment", "one_cell", "psl_one_cell"])
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
        assert routed(f).status == "sat"
    rng = random.Random(1212)
    started = time.perf_counter()
    decided = unsat = skipped = 0
    # the automaton's own verdicts, past the one-cell check, on inputs
    # that constant folding leaves something to search
    ran = {"sat": 0, "unsat": 0}
    # inputs that the one-cell check answers and those it passes on, so
    # that the reference sees both sides of the truth-table check
    cells = {"hit": 0, "miss": 0}
    for i in range(600):
        f = random_formula(rng, 3 + i % 3, mode=("ltl_psl", "ltl")[i % 2])
        expected = ltl_psl_reference_sat(f)
        if expected is None:
            skipped += 1
            continue
        want = "sat" if expected else "unsat"
        status = solve(f).status
        assert status == want, to_text(f)
        cells["miss" if one_cell_model(f) is None else "hit"] += 1
        v = routed(f)
        assert (v.status, v.engine) == (want, "automaton"), to_text(f)
        if simplify(f) != BOTTOM:
            ran[want] += 1
        decided += 1
        unsat += not expected
    elapsed = time.perf_counter() - started
    print(f"{decided} decided, {unsat} unsat, {skipped} over the reference's cap, "
          f"automaton runs {ran}, one-cell {cells}, {elapsed:.2f} s")
    assert decided >= 300 and unsat >= 20 and skipped <= 30
    assert ran["sat"] >= 450 and ran["unsat"] >= 5
    assert cells["hit"] >= 500 and cells["miss"] >= 80
    assert elapsed < 10
    # unsat inputs that constant folding leaves to the emptiness check, over
    # random operands: an Until that no run fulfils has initial states, and
    # the search exhausts them with no accepting cycle; G g & F !g has none
    rng = random.Random(1313)
    for i in range(120):
        mode = ("ltl_psl", "ltl")[i % 2]
        g, h = random_formula(rng, 2 + i % 2, mode=mode), random_formula(rng, 2, mode=mode)
        f = (
            And(Until(h, neg(g)), always(g)),
            And(always(eventually(g)), Until(h, always(neg(g)))),
            And(Until(h, g), always(neg(g))),
            And(always(g), eventually(neg(g))),
        )[i % 4]
        assert ltl_psl_reference_sat(f) is False, to_text(f)
        assert solve(f).status == "unsat", to_text(f)
        v = routed(f)
        assert (v.status, v.engine) == ("unsat", "automaton"), to_text(f)
        ran["unsat"] += simplify(f) != BOTTOM
    print(f"automaton runs with the unsat inputs: {ran}")
    assert ran["unsat"] >= 40
