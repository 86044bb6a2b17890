import functools
import io
import itertools
import random

import pytest

from conftest import (
    family_for,
    psl_brute_sat_bitwise,
    random_formula,
    sharpening_atoms,
    sharpening_closure,
)

from sltl.automaton import (
    Lasso,
    StateSpace,
    dump_state_graph,
    find_accepting_lasso,
)
from sltl import automaton, psl
from sltl.search import _OP_SOME, IntervalEngine, SearchBounds, SearchLimitError, bounded_search
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
    classify,
    Fragment,
    closure,
    conj,
    fold,
    neg,
    parse,
    rebuild,
    simplify,
    to_nnf,
    to_text,
    vocab,
)
from sltl.translate import counter_formula


def _state_at(lasso: Lasso, k: int) -> int:
    """The state at position ``k`` of the lasso's run."""
    if k < len(lasso.stem):
        return lasso.stem[k]
    return lasso.cycle[(k - len(lasso.stem)) % len(lasso.cycle)]


def _closure_truth(cl, base_truth):
    """The truth of every closure member, from the truth of the base
    members (a dict) by the consistency equations."""
    truth = dict(base_truth)
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
    return truth


def _members(space, state):
    """The closure members true in a state, in closure order, derived from
    its base assignment by the consistency equations."""
    base_truth = {g: bool(state >> b & 1) for b, g in enumerate(space.base)}
    truth = _closure_truth(space.closure, base_truth)
    return [g for g in space.closure.formulas if truth[g]]


def _initial_states(f):
    """A fresh state space of ``f``'s closure and its states holding ``f``."""
    space = StateSpace(closure(f))
    return space, list(space.enumerate([(f, True)]))


def test_initial_states_contain_the_formula():
    f = Prop("p")
    space, states = _initial_states(f)
    assert states
    assert all(f in _members(space, b) for b in states)


def test_initial_states_empty_for_contradiction():
    assert _initial_states(parse("p & !p"))[1] == []


def test_initial_states_filtered_by_standpoint_consistency():
    assert _initial_states(parse("<@s> p & [@*] !p"))[1] == []


def _initial(text):
    return _initial_states(parse(text))[1]


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
    space, states = _initial_states(f)
    assert states
    for b in states:
        for b2 in space.successors(b):
            assert (Next(Prop("p")) in _members(space, b)) == (Prop("p") in _members(space, b2))


def test_sharpening_atoms_are_rigid_along_a_run():
    f = parse("(@s <= @t) & X !(@s <= @t) & G F <@s> p")
    assert find_accepting_lasso(closure(f)) is None
    kept = parse("(@s <= @t) & X (@s <= @t) & G F <@s> p")
    lasso = find_accepting_lasso(closure(kept))
    atom = parse("@s <= @t")
    space = StateSpace(closure(kept))  # the same base order as the search's
    states = list(lasso.stem) + list(lasso.cycle)
    assert all(atom in _members(space, b) for b in states)


def test_successors_unconstrained_without_next_members():
    # p and q fix no successor and no acceptance set: nothing branches, so
    # the unconstrained enumeration has one state, and the source's only
    # successor is itself, which keeps the p and q its grid model chose
    f = parse("p | q")
    space, (some_state, *_) = _initial_states(f)
    assert space.branch == []
    succs = space.successors(some_state)
    everything = list(space.enumerate([]))
    assert succs == [some_state] and len(everything) == 1
    assert f in _members(space, some_state) and f not in _members(space, everything[0])


def test_acceptance_family_examples():
    # one acceptance set per Until member; a state is in it when the Until
    # is false or its right operand true
    f = parse("p U q")
    space, states = _initial_states(f)
    assert space.closure.until_members == (Until(Prop("p"), Prop("q")),)
    good = next(b for b in states if Prop("q") in _members(space, b))
    assert space.accepting[good] == 1
    bad = next(b for b in states if Prop("q") not in _members(space, b))
    assert space.accepting[bad] == 0

    g = parse("G p")  # sugar over an Until of the negation
    assert closure(g).until_members == (Until(TOP, Not(Prop("p"))),)

    assert closure(parse("p & q")).until_members == ()


def test_lasso_for_always_p():
    f = parse("G p")
    cl = closure(f)
    lasso = find_accepting_lasso(cl)
    assert lasso is not None
    space = StateSpace(cl)
    for k in range(len(lasso.stem) + len(lasso.cycle)):
        members = _members(space, _state_at(lasso, k))
        assert Prop("p") in members
        assert f in members


@pytest.mark.parametrize(
    "text",
    ["p & G !p", "F p & G !p", "(p U q) & G !q", "F G p & G F !p", "<@s> p & [@*] !p & X q"],
)
def test_no_lasso_for_contradictions(text):
    f = parse(text)
    assert find_accepting_lasso(closure(f)) is None


def test_lasso_edges_and_acceptance():
    f = parse("(p U q) & G F p & X !q")
    cl = closure(f)
    lasso = find_accepting_lasso(cl)
    assert lasso is not None
    space = StateSpace(cl)
    assert f in _members(space, _state_at(lasso, 0))
    length = len(lasso.stem) + len(lasso.cycle)
    for k in range(2 * length):
        b, b2 = _members(space, _state_at(lasso, k)), _members(space, _state_at(lasso, k + 1))
        for g in cl.next_members:
            assert (g in b) == (g.operand in b2)
    assert cl.until_members
    for until in cl.until_members:
        assert any(
            until not in members or until.right in members
            for members in (_members(space, b) for b in lasso.cycle)
        )


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_counter_lasso_is_its_only_model(n):
    # the counter's unique model trace repeats from position 0 with period 2^n
    f = counter_formula(n)
    lasso = find_accepting_lasso(closure(f))
    assert (len(lasso.stem), len(lasso.cycle)) == (0, 2**n)


def test_counter_enumeration_sweeps_bit_parallel(monkeypatch):
    # 21 branch members: a head walk over 11 and a tail of 1,024 cells per
    # sweep; the plain depth-first walk made 25,457 sweeps here
    sweeps = []
    sweep = IntervalEngine.sweep

    def counted(engine, *args):
        sweeps.append(None)
        return sweep(engine, *args)

    monkeypatch.setattr(IntervalEngine, "sweep", counted)
    space = StateSpace(closure(counter_formula(5)))
    monkeypatch.setattr(automaton, "StateSpace", lambda *args: space)
    lasso = find_accepting_lasso(closure(counter_formula(5)))
    assert len(space.branch) == 21
    assert len(sweeps) <= 3_000
    # no standpoint and no temporal-free conjunct: no state needs a grid
    assert (space.generated, space.grid_solves) == (1_533, 0)
    assert (len(lasso.stem), len(lasso.cycle)) == (0, 32)


@pytest.mark.parametrize("k", [2, 4])
def test_cycle_through_a_state_in_every_acceptance_set_is_one_state(k):
    # a state with every p_i true meets every acceptance set and is its own
    # successor; a cycle through states that each lack one took k + 1
    f = parse(" & ".join(f"G F p{i}" for i in range(k)))
    lasso = find_accepting_lasso(closure(f))
    assert len(lasso.cycle) == 1
    members = _members(StateSpace(closure(f)), lasso.cycle[0])
    props = {g.name for g in members if isinstance(g, Prop)}
    assert props == {f"p{i}" for i in range(k)}


def test_short_lasso_through_modal_acceptance_sets():
    f = parse("G F <@s> p & G F [@s] !p & (q U <@t> !q)")
    lasso = find_accepting_lasso(closure(f))
    assert len(lasso.stem) == 0 and len(lasso.cycle) <= 4
    verdict = solve(f)
    assert verdict.status == "sat"
    assert check_witness(f, verdict.model, verdict.designated)


def test_lasso_is_deterministic():
    f = parse("G F p & F q")
    cl = closure(f)
    l1 = find_accepting_lasso(cl)
    l2 = find_accepting_lasso(closure(f))
    assert l1.stem == l2.stem and l1.cycle == l2.cycle
    assert l1.models == l2.models


def test_every_enumerated_state_is_consistent():
    f = parse("<@s> p & (q U <@s> !p)")
    cl = closure(f)
    space = StateSpace(cl)
    states = list(space.enumerate([]))
    assert states
    for b in states:
        truth = _closure_truth(cl, {g: bool(b >> i & 1) for i, g in enumerate(space.base)})
        assert psl_brute_sat_bitwise(conj(_temporal_free_literals(cl, truth)))


def _temporal_free_literals(cl, truth):
    """The temporal-free members of the closure, each true one as it
    stands and each false one negated."""
    return tuple(
        g if truth[g] else neg(g) for g in cl.formulas if classify(g) is Fragment.PSL
    )


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
        truth = _closure_truth(cl, dict(zip(base, values)))
        if any(truth[f] != req for f, req in constraints):
            continue
        if not _abstractly_consistent(_temporal_free_literals(cl, truth)):
            continue
        masks.append(sum(1 << i for i, g in enumerate(cl.formulas) if truth[g]))
    return masks


@pytest.mark.parametrize("mode", ["ltl", "ltl_psl"])
def test_enumeration_matches_brute_force(mode, monkeypatch):
    # every formula here has at most 10 base members, so at the default
    # width the walk is all tail (one sweep of bit-parallel cells); width 0
    # is the plain depth-first walk, and width 2 splits it into a head walk
    # and a tail of four cells
    widths = (automaton._TAIL_WIDTH, 0, 2)
    rng = random.Random(127)
    done = 0
    while done < 40:
        f = random_formula(rng, 4, mode=mode, max_sharpenings=1)
        if classify(f) not in (Fragment.PURE_LTL, Fragment.LTL_PSL):
            continue
        if len(StateSpace(closure(f)).base) > 10:
            continue
        done += 1
        for width in widths:
            monkeypatch.setattr(automaton, "_TAIL_WIDTH", width)
            space = StateSpace(closure(f))
            # no instruction reads another cell, so cells are independent
            assert all(op < _OP_SOME for op, _, _, _ in space._engine.program)
            initial = [(f, True)]
            _assert_one_state_per_branch_assignment(space, initial, to_text(f))
            successor_constraints = {
                tuple((g.operand, g in _members(space, b)) for g in space.closure.next_members)
                for b in space.enumerate([])
            }
            for succ in sorted(successor_constraints, key=lambda c: [req for _, req in c]):
                _assert_one_state_per_branch_assignment(space, list(succ), to_text(f))


def _assert_one_state_per_branch_assignment(space, constraints, text):
    """Every enumerated state is the base assignment of a brute-force
    state, and the states' branch assignments are the brute force's, each
    once, in order."""
    got = list(space.enumerate(constraints))
    want = [_base_assignment(space, m) for m in _brute_force_states(space, constraints)]
    assert set(got) <= set(want), text

    def branch_assignment(state):
        return tuple(state >> space.base_index[g] & 1 for g in space.branch)

    assert [branch_assignment(b) for b in got] == list(
        dict.fromkeys(branch_assignment(b) for b in want)
    ), text


def _base_assignment(space, mask):
    """The state of a closure mask: its base members' bits, in base order."""
    return sum((mask >> space.closure.index[g] & 1) << b for b, g in enumerate(space.base))


@pytest.mark.parametrize("mode", ["ltl", "ltl_psl"])
def test_acceptance_bits_match_the_closure_mask(mode):
    # enumeration reads a state's acceptance bits at its branch assignment,
    # before the grid fills in the other base members; they must be the
    # acceptance sets of the whole state: the Until member false or its
    # right operand true, on the brute-force closure mask of the state
    rng = random.Random(131)
    done = checked = outside = 0
    while done < 60:
        f = random_formula(rng, 4, mode=mode, max_sharpenings=1)
        if classify(f) not in (Fragment.PURE_LTL, Fragment.LTL_PSL):
            continue
        space = StateSpace(closure(f))
        if not space.closure.until_members or len(space.base) > 12:
            continue
        done += 1
        cl = space.closure
        states = list(space.enumerate([(f, True)])) + list(space.enumerate([]))
        for b in states + [t for b in states for t in space.successors(b)]:
            truth = _closure_truth(cl, {g: bool(b >> i & 1) for i, g in enumerate(space.base)})
            want = sum(
                1 << i
                for i, until in enumerate(cl.until_members)
                if not truth[until] or truth[until.right]
            )
            assert space.accepting[b] == want, to_text(f)
            checked += 1
            outside += want != (1 << len(cl.until_members)) - 1
    assert checked > 500 and outside > 100


def test_agreement_with_bounded_search_on_corpus():
    rng = random.Random(101)
    done = 0
    while done < 40:
        f = random_formula(rng, 3, mode="ltl_psl", max_sharpenings=0)
        done += 1
        bounds = SearchBounds.for_formula(f, 2, 1, 2)
        if bounded_search(f, bounds) is not None:
            assert find_accepting_lasso(closure(f)) is not None, to_text(f)


def test_inputs_with_atoms_reach_the_automaton():
    # inputs with sharpening atoms reach the automaton unpartitioned: it
    # carries the atoms as rigid state bits, both values in one search
    rng = random.Random(103)
    done = 0
    while done < 15:
        f = random_formula(rng, 3, mode="ltl_psl", max_sharpenings=1)
        if not sharpening_atoms(f):
            continue
        done += 1
        phi = simplify(f)
        assert classify(phi) in (Fragment.LTL_PSL, Fragment.PURE_LTL, Fragment.PSL)
        lasso = find_accepting_lasso(closure(phi))
        bounds = SearchBounds.for_formula(f, 2, 1, 2)
        if bounded_search(f, bounds) is not None:
            assert lasso is not None, to_text(f)


def _reference_has_accepting_run(cl, phi_d) -> bool:
    """Materialize the whole product of the state graph with a
    degeneralization counter and look for a cycle through an accepting
    node; independent of the SCC search and of the enumeration's choice of
    one state per branch assignment: the graph has every brute-force state."""
    space = StateSpace(cl, state_limit=10**6)
    states = _brute_force_states(space, [])  # closure masks
    untils = cl.until_members
    k = max(1, len(untils))

    def has(mask, g):
        return bool(mask >> cl.index[g] & 1)

    def holds(mask, i):
        if not untils:
            return True
        return not has(mask, untils[i]) or has(mask, untils[i].right)

    succ = {}
    for b in states:
        succ[b] = [
            b2
            for b2 in states
            if all(has(b, g) == has(b2, g.operand) for g in cl.next_members)
        ]

    def prod_succ(node):
        b, i = node
        j = (i + 1) % k if holds(b, i) else i
        return [(b2, j) for b2 in succ[b]]

    initials = [(b, 0) for b in states if has(b, phi_d)]
    reachable = set(initials)
    frontier = list(initials)
    while frontier:
        node = frontier.pop()
        for nxt in prod_succ(node):
            if nxt not in reachable:
                reachable.add(nxt)
                frontier.append(nxt)
    accepting = [n for n in reachable if n[1] == 0 and holds(n[0], 0)]
    for target in accepting:
        seen = set()
        stack = list(prod_succ(target))
        stack = [n for n in stack if n in reachable]
        while stack:
            node = stack.pop()
            if node == target:
                return True
            if node in seen:
                continue
            seen.add(node)
            stack.extend(n for n in prod_succ(node) if n in reachable)
    return False


def test_emptiness_matches_whole_graph_reference():
    rng = random.Random(113)
    done = 0
    while done < 50:
        f = random_formula(rng, 2, props=("p", "q"), mode="ltl_psl", max_sharpenings=0)
        done += 1
        cl = closure(f)
        got = find_accepting_lasso(cl) is not None
        want = _reference_has_accepting_run(closure(f), f)
        assert got == want, to_text(f)


def test_state_limit_is_loud():
    f = parse("G F p & G F q & G F r")
    with pytest.raises(SearchLimitError, match="automaton exceeded the state limit of 3") as info:
        find_accepting_lasso(closure(f), state_limit=3)
    assert (info.value.layer, info.value.limit) == ("automaton", 3)


def test_state_graph_dump_format():
    f = parse("p U q")
    out = io.StringIO()
    dump_state_graph(closure(f), out)
    lines = out.getvalue().splitlines()
    states = [ln for ln in lines if ln.startswith("state ")]
    edges = [ln for ln in lines if ln.startswith("edge ")]
    assert states and edges
    assert all("acc=" in ln and "props={" in ln for ln in states)


def _true_atom_closure(cl, held):
    """The sharpening closure of the true atoms ``held`` over the
    standpoints of the seed, by the relation fixpoint."""
    return sharpening_closure(held, set(vocab(cl.seed).standpoints) | {UNIVERSAL})


def _substitute(f, truth):
    """``f`` with its sharpening atoms replaced by their truth values."""
    return fold(
        f, lambda g, kids: truth[(g.left, g.right)] if isinstance(g, Sharper) else rebuild(g, kids)
    )


def _state_literals(space, state):
    """The literals of a state: its propositions, sharpening atoms and
    modal members, the true ones as they stand and the false ones
    negated."""
    return [
        g if state >> b & 1 else neg(g)
        for b, g in enumerate(space.base)
        if not isinstance(g, Next)
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
    grid = psl.CompiledGrid(family_for(rel), space.props, [body], [10**6, 10**6])
    found = psl.grid_model_for(grid, [body], [10**6, 10**6])
    return None if found is None else psl.expand(grid, *found)


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
    # ones included, so reading them off loses no model.  A state without
    # standpoints runs no search (PureLTL spaces here), and its one-cell
    # model is checked against the one-shot search all the same
    searched = []
    real = psl.grid_model_for

    def recording(grid, conjuncts, budget):
        found = real(grid, conjuncts, budget)
        searched.append((list(conjuncts), None if found is None else psl.expand(grid, *found)))
        return found

    monkeypatch.setattr(psl, "grid_model_for", recording)
    rng = random.Random(211)
    done = searches = states = negated = gridless = 0
    while done < 1_650:
        mode = ("ltl", "ltl_psl", "ltl_psl")[done % 3]
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
            gridless += space._gridless
            want = _one_shot_grid_model(space, _state_literals(space, b))
            assert space.grid_model(b) == want, to_text(phi_d)
        for conjuncts, model in calls:
            searches += 1
            negated += any(isinstance(g, Not) and isinstance(g.operand, Sharper) for g in conjuncts)
            assert model == _one_shot_grid_model(space, conjuncts), to_text(phi_d)
    assert searches > 3_000 and states > 3_000 and negated > 200 and gridless > 5_000


def test_one_grid_engine_per_label_family(monkeypatch):
    compiles = []
    real = psl.IntervalEngine

    def counting(*args):
        compiles.append(args)
        return real(*args)

    searched = []
    search = psl.grid_model_for

    def recording(grid, conjuncts, budget):
        searched.append(conjuncts)
        return search(grid, conjuncts, budget)

    monkeypatch.setattr(psl, "IntervalEngine", counting)
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
        find_accepting_lasso(cl)
        held = [[(g.left, g.right) for g in c if isinstance(g, Sharper)] for c in searched]
        seen = {family_for(_true_atom_closure(cl, atoms)) for atoms in held}
        assert len(seen) == families and len(compiles) == families, to_text(phi_d)


def test_dump_state_graph_node_limit_is_loud():
    f = parse("G <@s> p & F [@t] !p")
    with pytest.raises(SearchLimitError, match="grid search"):
        dump_state_graph(closure(f), io.StringIO(), node_limit=1)
