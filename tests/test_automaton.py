import functools
import io
import itertools
import random

import pytest

from conftest import psl_brute_sat_bitwise, random_formula

from sltl.automaton import (
    AutomatonLimitError,
    Lasso,
    SElementarySet,
    StateSpace,
    acceptance_family,
    dump_state_graph,
    find_accepting_lasso,
    initial_states,
)
from sltl import psl
from sltl.semantics import SearchBounds, SearchLimitError, bounded_search
from sltl.solver import check_witness, solve
from sltl.syntax import (
    BOTTOM,
    And,
    Bottom,
    BoxS,
    DiamondS,
    Next,
    Not,
    Or,
    Prop,
    Sharper,
    TOP,
    Top,
    UNIVERSAL,
    Until,
    _has_temporal,
    classify,
    Fragment,
    closure,
    conj,
    fold,
    parse,
    rebuild,
    simplify,
    to_nnf,
    to_text,
    vocab,
)
from sltl.translate import counter_formula


def lasso_run_states(lasso: Lasso, horizon: int):
    return [lasso.state_at(k) for k in range(horizon)]


def test_initial_states_contain_the_formula():
    f = Prop("p")
    states = list(initial_states(closure(f), f))
    assert states
    assert all(f in b for b in states)


def test_initial_states_empty_for_contradiction():
    f = parse("p & !p")
    assert list(initial_states(closure(f), f)) == []


def test_initial_states_filtered_by_standpoint_consistency():
    f = parse("<@s> p & [@*] !p")
    assert list(initial_states(closure(f), f)) == []


def _initial(text):
    f = parse(text)
    return list(initial_states(closure(f), f))


def test_consistency_examples():
    assert _initial("p & !p & X q") == []
    assert _initial("<@s> p & [@*] !p & X q") == []
    assert _initial("<@s> p & <@s> !p & (@s <= @t) & X q")


def test_consistency_on_entailed_negation():
    assert _initial("(@s <= @t) & (@t <= @u) & !(@s <= @u) & X p") == []
    # a non-entailed negation is fine
    assert _initial("(@s <= @t) & !(@t <= @s) & X p")


def test_successors_respect_next_members():
    f = parse("X p | X !p")
    cl = closure(f)
    for b in initial_states(cl, f):
        for b2 in b.space.successors(b):
            assert (Next(Prop("p")) in b) == (Prop("p") in b2)


def test_sharpening_atoms_are_rigid_along_a_run():
    f = parse("(@s <= @t) & X !(@s <= @t) & G F <@s> p")
    assert find_accepting_lasso(closure(f), f) is None
    kept = parse("(@s <= @t) & X (@s <= @t) & G F <@s> p")
    lasso = find_accepting_lasso(closure(kept), kept)
    atom = parse("@s <= @t")
    states = list(lasso.stem) + list(lasso.cycle)
    assert all(atom in b for b in states)


def test_successors_unconstrained_without_next_members():
    # p and q fix no successor and no acceptance set: nothing branches, so
    # the unconstrained enumeration has one state, and the source's only
    # successor is itself, which keeps the p and q its grid model chose
    f = parse("p | q")
    cl = closure(f)
    some_state = next(initial_states(cl, f))
    space = some_state.space
    assert space.branch == []
    succs = space.successors(some_state)
    everything = list(space.enumerate([]))
    assert succs == [some_state] and len(everything) == 1
    assert f in some_state and f not in everything[0]


def test_acceptance_family_examples():
    f = parse("p U q")
    cl = closure(f)
    fam = acceptance_family(cl)
    assert len(fam) == 1
    until = fam[0].until
    assert until == Until(Prop("p"), Prop("q"))
    good = next(b for b in initial_states(cl, f) if Prop("q") in b)
    assert fam[0](good)

    g = parse("G p")  # sugar over an Until of the negation
    fam_g = acceptance_family(closure(g))
    assert len(fam_g) == 1
    assert fam_g[0].until == Until(TOP, Not(Prop("p")))

    assert acceptance_family(closure(parse("p & q"))) == []


def test_lasso_for_always_p():
    f = parse("G p")
    cl = closure(f)
    lasso = find_accepting_lasso(cl, f)
    assert lasso is not None
    for b in lasso_run_states(lasso, len(lasso.stem) + len(lasso.cycle)):
        assert Prop("p") in b
        assert f in b


@pytest.mark.parametrize(
    "text",
    ["p & G !p", "F p & G !p", "(p U q) & G !q", "F G p & G F !p", "<@s> p & [@*] !p & X q"],
)
def test_no_lasso_for_contradictions(text):
    f = parse(text)
    assert find_accepting_lasso(closure(f), f) is None


def test_lasso_edges_and_acceptance():
    f = parse("(p U q) & G F p & X !q")
    cl = closure(f)
    lasso = find_accepting_lasso(cl, f)
    assert lasso is not None
    length = len(lasso.stem) + len(lasso.cycle)
    for k in range(2 * length):
        b, b2 = lasso.state_at(k), lasso.state_at(k + 1)
        for g in cl.next_members:
            assert (g in b) == (g.operand in b2)
    for pred in acceptance_family(cl):
        assert any(pred(b) for b in lasso.cycle)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_counter_lasso_is_its_only_model(n):
    # the counter's unique model trace repeats from position 0 with period 2^n
    f = counter_formula(n)
    lasso = find_accepting_lasso(closure(f), f)
    assert (len(lasso.stem), len(lasso.cycle)) == (0, 2**n)


@pytest.mark.parametrize("k", [2, 4])
def test_cycle_through_a_state_in_every_acceptance_set_is_one_state(k):
    # a state with every p_i true meets every acceptance set and is its own
    # successor; a cycle through states that each lack one took k + 1
    f = parse(" & ".join(f"G F p{i}" for i in range(k)))
    lasso = find_accepting_lasso(closure(f), f)
    assert len(lasso.cycle) == 1
    assert lasso.cycle[0].props() == {f"p{i}" for i in range(k)}


def test_short_lasso_through_modal_acceptance_sets():
    f = parse("G F <@s> p & G F [@s] !p & (q U <@t> !q)")
    lasso = find_accepting_lasso(closure(f), f)
    assert len(lasso.stem) == 0 and len(lasso.cycle) <= 4
    verdict = solve(f)
    assert verdict.status == "sat"
    assert check_witness(f, verdict.model, verdict.designated)


def test_lasso_is_deterministic():
    f = parse("G F p & F q")
    cl = closure(f)
    l1 = find_accepting_lasso(cl, f)
    l2 = find_accepting_lasso(closure(f), f)
    assert [b.mask for b in l1.stem] == [b.mask for b in l2.stem]
    assert [b.mask for b in l1.cycle] == [b.mask for b in l2.cycle]


def test_every_enumerated_state_is_consistent():
    f = parse("<@s> p & (q U <@s> !p)")
    cl = closure(f)
    space = StateSpace(cl)
    for b in space.enumerate([]):
        assert psl_brute_sat_bitwise(conj(g for g in b.members() if not _has_temporal(g)))


@functools.cache
def _abstractly_consistent(members) -> bool:
    """Complete PSL satisfiability of the members, by the brute-force
    reference: independent of the automaton's grid filter.  Memoised here
    only to keep the brute force fast."""
    return psl_brute_sat_bitwise(conj(members))


def _brute_force_states(space, constraints):
    """Masks of the s-elementary sets meeting the constraints: every base
    assignment, the branch members outermost, each group in closure-index
    order, sharpening atoms and modal members true before false and the
    other base members false before true, with the other members derived
    from their consistency equations."""
    cl = space.closure
    masks = []
    base = space.branch + [g for g in space.base if g not in space.branch]
    choices = [
        (True, False) if isinstance(g, (Sharper, DiamondS, BoxS)) else (False, True)
        for g in base
    ]
    for values in itertools.product(*choices):
        truth = dict(zip(base, values))
        for g in cl.formulas:  # operands precede the members built on them
            if g in truth:
                continue
            if isinstance(g, Top):
                truth[g] = True
            elif isinstance(g, Bottom):
                truth[g] = False
            elif isinstance(g, Not):
                truth[g] = not truth[g.operand]
            elif isinstance(g, And):
                truth[g] = truth[g.left] and truth[g.right]
            elif isinstance(g, Or):
                truth[g] = truth[g.left] or truth[g.right]
            else:
                assert isinstance(g, Until), g
                truth[g] = truth[g.right] or (truth[g.left] and truth[Next(g)])
        if any(truth[f] != req for f, req in constraints):
            continue
        if not _abstractly_consistent(
            tuple(g for g in cl.formulas if truth[g] and not _has_temporal(g))
        ):
            continue
        masks.append(sum(1 << i for i, g in enumerate(cl.formulas) if truth[g]))
    return masks


@pytest.mark.parametrize("mode", ["ltl", "ltl_psl"])
def test_enumeration_matches_brute_force(mode):
    rng = random.Random(127)
    done = 0
    while done < 40:
        f = random_formula(rng, 4, mode=mode, max_sharpenings=1)
        if classify(f) not in (Fragment.PURE_LTL, Fragment.LTL_PSL):
            continue
        space = StateSpace(closure(f))
        if len(space.base) > 10:
            continue
        done += 1
        initial = [(f, True)]
        _assert_one_state_per_branch_assignment(space, initial, to_text(f))
        successor_constraints = {
            tuple((g.operand, g in b) for g in space.closure.next_members)
            for b in space.enumerate([])
        }
        for succ in sorted(successor_constraints, key=lambda c: [req for _, req in c]):
            _assert_one_state_per_branch_assignment(space, list(succ), to_text(f))


def _assert_one_state_per_branch_assignment(space, constraints, text):
    """Every enumerated state is a brute-force state, and the states'
    branch assignments are the brute force's, each once, in order."""
    cl = space.closure

    def branch_assignment(mask):
        return tuple(mask >> cl.index[g] & 1 for g in space.branch)

    got = [b.mask for b in space.enumerate(constraints)]
    want = _brute_force_states(space, constraints)
    assert set(got) <= set(want), text
    assert [branch_assignment(m) for m in got] == list(
        dict.fromkeys(branch_assignment(m) for m in want)
    ), text


def test_agreement_with_bounded_search_on_corpus():
    rng = random.Random(101)
    done = 0
    while done < 40:
        f = random_formula(rng, 3, mode="ltl_psl", max_sharpenings=0)
        done += 1
        bounds = SearchBounds.for_formula(f, 2, 1, 2)
        if bounded_search(f, bounds) is not None:
            assert find_accepting_lasso(closure(f), f) is not None, to_text(f)


def test_partitioned_inputs_reach_the_automaton():
    # inputs with sharpening atoms reach the automaton unpartitioned: it
    # carries the atoms as rigid state bits, both values in one search
    rng = random.Random(103)
    done = 0
    while done < 15:
        f = random_formula(rng, 3, mode="ltl_psl", max_sharpenings=1)
        if not vocab(f).sharpenings:
            continue
        done += 1
        phi = simplify(f)
        assert classify(phi) in (Fragment.LTL_PSL, Fragment.PURE_LTL, Fragment.PSL)
        lasso = find_accepting_lasso(closure(phi), phi)
        bounds = SearchBounds.for_formula(f, 2, 1, 2)
        if bounded_search(f, bounds) is not None:
            assert lasso is not None, to_text(f)


def _reference_has_accepting_run(cl, phi_d) -> bool:
    """Materialize the whole product of the state graph with a
    degeneralization counter and look for a cycle through an accepting
    node; independent of the SCC search and of the enumeration's choice of
    one state per branch assignment: the graph has every brute-force state."""
    space = StateSpace(cl, state_limit=10**6)
    states = [SElementarySet(m, space) for m in _brute_force_states(space, [])]
    preds = acceptance_family(cl)
    k = max(1, len(preds))

    def holds(b, i):
        return preds[i](b) if preds else True

    succ = {}
    for b in states:
        succ[b.mask] = [
            b2
            for b2 in states
            if all((g in b) == (g.operand in b2) for g in cl.next_members)
        ]

    def prod_succ(node):
        b, i = node
        j = (i + 1) % k if holds(b, i) else i
        return [(b2.mask, j) for b2 in succ[b.mask]]

    by_mask = {b.mask: b for b in states}
    initials = [(b.mask, 0) for b in states if phi_d in b]
    reachable = set(initials)
    frontier = list(initials)
    while frontier:
        node = frontier.pop()
        for nxt in prod_succ((by_mask[node[0]], node[1])):
            if nxt not in reachable:
                reachable.add(nxt)
                frontier.append(nxt)
    accepting = [n for n in reachable if n[1] == 0 and holds(by_mask[n[0]], 0)]
    for target in accepting:
        seen = set()
        stack = list(prod_succ((by_mask[target[0]], target[1])))
        stack = [n for n in stack if n in reachable]
        while stack:
            node = stack.pop()
            if node == target:
                return True
            if node in seen:
                continue
            seen.add(node)
            stack.extend(
                n for n in prod_succ((by_mask[node[0]], node[1])) if n in reachable
            )
    return False


def test_emptiness_matches_whole_graph_reference():
    rng = random.Random(113)
    done = 0
    while done < 50:
        f = random_formula(rng, 2, props=("p", "q"), mode="ltl_psl", max_sharpenings=0)
        done += 1
        cl = closure(f)
        got = find_accepting_lasso(cl, f) is not None
        want = _reference_has_accepting_run(closure(f), f)
        assert got == want, to_text(f)


def test_state_limit_is_loud():
    f = parse("G F p & G F q & G F r")
    with pytest.raises(AutomatonLimitError):
        find_accepting_lasso(closure(f), f, state_limit=3)


def test_state_graph_dump_format():
    f = parse("p U q")
    out = io.StringIO()
    dump_state_graph(closure(f), f, out)
    lines = out.getvalue().splitlines()
    states = [ln for ln in lines if ln.startswith("state ")]
    edges = [ln for ln in lines if ln.startswith("edge ")]
    assert states and edges
    assert all("acc=" in ln and "props={" in ln for ln in states)


def _true_atom_closure(cl, held):
    """The sharpening closure of the true atoms ``held`` over the
    standpoints of the seed."""
    return psl.sharpening_closure(held, set(vocab(cl.seed).standpoints) | {UNIVERSAL})


def _substitute(f, truth):
    """``f`` with its sharpening atoms replaced by their truth values."""
    return fold(
        f, lambda g, kids: truth[(g.left, g.right)] if isinstance(g, Sharper) else rebuild(g, kids)
    )


def _state_literals(cl, mask):
    """The literal members of a state: its propositions, sharpening atoms
    and modal members, true or negated."""
    literal = (Prop, Sharper, DiamondS, BoxS)
    return [
        g
        for i, g in enumerate(cl.formulas)
        if mask >> i & 1
        and (isinstance(g, literal) or isinstance(g, Not) and isinstance(g.operand, literal))
    ]


def _one_shot_grid_model(space, conjuncts):
    """A conjunction's grid model as each state once got it alone: every
    sharpening atom of the closure replaced by its truth on the family of
    the atoms the conjunction asserts, in negation normal form, and
    searched on a grid over the input's propositions compiled for that
    body alone."""
    cl = space.closure
    rel = _true_atom_closure(cl, [(g.left, g.right) for g in conjuncts if isinstance(g, Sharper)])
    pairs = [(g.left, g.right) for g in cl.formulas if isinstance(g, Sharper)]
    truth = {pair: TOP if rel.entails(pair) else BOTTOM for pair in pairs}
    body = to_nnf(conj(_substitute(g, truth) for g in conjuncts))
    grid = psl.CompiledGrid(psl.family_for(rel), space.props, [body], [10**6, 10**6])
    return psl.grid_model_for(grid, [body], [10**6, 10**6])


def test_a_failed_state_is_searched_once(monkeypatch):
    # a literal set is searched once, also when it has no grid model
    searched = []
    real = psl.grid_model_for

    def recording(grid, conjuncts, budget):
        searched.append((id(grid), tuple(conjuncts)))
        return real(grid, conjuncts, budget)

    monkeypatch.setattr(psl, "grid_model_for", recording)
    f = parse("G ([@s] p | <@s> !p) & G F [@s] !p")
    space = StateSpace(closure(f))
    states = list(space.enumerate([]))
    failed = [key for key, found in space._searches.items() if found is None]
    assert states and failed
    assert space.grid_solves == len(searched) == len(set(searched)) == len(space._searches)
    # enumerating again reads every conjunct set's model back
    assert list(space.enumerate([])) == states and len(searched) == len(space._searches)
    assert solve(f).status == "sat"


def test_shared_grid_matches_one_shot_grids(monkeypatch):
    # every search on a shared grid, failed ones included, finds what a
    # grid compiled for its conjunction alone finds; and the model a state
    # was read off is the one-shot model of all its literals, grid-decided
    # ones included, so reading them off loses no model
    searched = []
    real = psl.grid_model_for

    def recording(grid, conjuncts, budget):
        model = real(grid, conjuncts, budget)
        searched.append((list(conjuncts), model))
        return model

    monkeypatch.setattr(psl, "grid_model_for", recording)
    rng = random.Random(211)
    done = searches = states = negated = 0
    while done < 1_100:
        mode = ("ltl", "ltl_psl")[done % 2]
        f = random_formula(rng, 3, mode=mode, max_sharpenings=2)
        if classify(f) not in (Fragment.PURE_LTL, Fragment.LTL_PSL):
            continue
        phi_d = simplify(f)
        space = StateSpace(closure(phi_d))
        if len(space.base) > 10:
            continue
        done += 1
        searched.clear()
        enumerated = list(space.enumerate([]))  # every branch assignment, atoms false too
        calls = searched[:]  # the one-shot searches below are recorded too
        for b in enumerated:
            states += 1
            want = _one_shot_grid_model(space, _state_literals(space.closure, b.mask))
            assert space.grid_model(b.mask) == want, to_text(phi_d)
        for conjuncts, model in calls:
            searches += 1
            negated += any(isinstance(g, Not) and isinstance(g.operand, Sharper) for g in conjuncts)
            assert model == _one_shot_grid_model(space, conjuncts), to_text(phi_d)
    assert searches > 3_000 and states > 3_000 and negated > 200


def test_one_grid_engine_per_label_family(monkeypatch):
    compiles = []
    real = psl._IntervalEngine

    def counting(*args):
        compiles.append(args)
        return real(*args)

    searched = []
    search = psl.grid_model_for

    def recording(grid, conjuncts, budget):
        searched.append(conjuncts)
        return search(grid, conjuncts, budget)

    monkeypatch.setattr(psl, "_IntervalEngine", counting)
    monkeypatch.setattr(psl, "grid_model_for", recording)
    # sharpening atoms are tried true first: the first formula's initial
    # states with the atom true reach an accepting cycle; the second's have
    # no successors, so the search goes on to initial states with it false
    for text, families in (
        ("((@s <= @t) | X p) & G !p & G F <@s> q", 1),
        ("(!(@s <= @t) | X p) & G !p & G F <@s> q", 2),
    ):
        phi_d = parse(text)
        compiles.clear()
        searched.clear()
        cl = closure(phi_d)
        find_accepting_lasso(cl, phi_d)
        held = [[(g.left, g.right) for g in c if isinstance(g, Sharper)] for c in searched]
        seen = {psl.family_for(_true_atom_closure(cl, atoms)) for atoms in held}
        assert len(seen) == families and len(compiles) == families, to_text(phi_d)


def test_dump_state_graph_node_limit_is_loud():
    f = parse("G <@s> p & F [@t] !p")
    with pytest.raises(SearchLimitError, match="grid search"):
        dump_state_graph(closure(f), f, io.StringIO(), node_limit=1)
