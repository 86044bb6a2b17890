import itertools
import random
import time
from types import SimpleNamespace

import pytest

from conftest import (
    S,
    T,
    U,
    engine_grid,
    enumerate_psl_formulas,
    family_for,
    psl_brute_sat,
    psl_brute_sat_bitwise,
    random_formula,
    routed,
    sharpening_atoms,
    sharpening_closure,
    trace_labels,
    true_atoms,
    witness_grid,
)

from sltl import psl
from sltl.automaton import StateSpace, find_accepting_lasso
from sltl.psl import (
    CompiledGrid,
    expand,
    grid_model_for,
    label_family,
)
from sltl.search import SearchLimitError
from sltl.semantics import SLTLModel, UPTrace, evaluate
from sltl.solver import SolveOptions, solve, verdict_to_json
from sltl.syntax import (
    And,
    BoxS,
    DiamondS,
    Not,
    Or,
    Prop,
    Sharper,
    Standpoint,
    TOP,
    UNIVERSAL,
    Until,
    closure,
    conj,
    parse,
    simplify,
    size,
    subformulas,
    to_nnf,
    to_text,
    vocab,
)

STAR = frozenset({UNIVERSAL})
STAR_S = frozenset({UNIVERSAL, S})


def holds(grid, f) -> bool:
    """Truth of ``f`` at the first valuation of column 0 of the grid model
    ``(family, columns)``, by the reference evaluator on the one-position
    model with one trace per valuation of each column."""
    family, columns = grid
    cells = [(labels, v) for labels, column in zip(family, columns) for v in column]
    traces = {f"t{k}": UPTrace((), (v,)) for k, (_, v) in enumerate(cells)}
    lam = {
        sp: frozenset(
            f"t{k}" for k, (labels, _) in enumerate(cells) if sp.is_universal or sp in labels
        )
        for sp in vocab(f).standpoints | {UNIVERSAL}
    }
    return evaluate(SLTLModel(traces, lam, 0, 1), "t0", 0, f)


def _width(model, family) -> int:
    """The cells per column of a witness: its traces over its columns."""
    assert len(model.traces) % len(family) == 0
    return len(model.traces) // len(family)


def _conjuncts(f):
    """The leaves of the And tree at the top of ``f``, left to right."""
    return _conjuncts(f.left) + _conjuncts(f.right) if isinstance(f, And) else [f]


def test_label_family_links_everything_to_universal():
    # s sharpens t, and each sharpens the universal standpoint and itself;
    # t does not sharpen s
    family = label_family([(S, T)], {S, T})
    assert family == (STAR, frozenset({UNIVERSAL, T}), frozenset({UNIVERSAL, S, T}))
    chain = label_family([(S, T), (T, U)], {S, T, U})
    assert frozenset({UNIVERSAL, S, T, U}) in chain
    # a standpoint of an atom outside the universe is a column all the same
    assert label_family([(S, T)], {UNIVERSAL}) == label_family([(S, T)], {S, T})


def test_family_orders_universal_first():
    fam = label_family([(S, T)], {S, T})
    assert fam[0] == STAR
    assert frozenset({S, T, UNIVERSAL}) in fam
    assert all(UNIVERSAL in s for s in fam)
    assert len(fam) <= 3
    # the universal standpoint sharpening s puts s in every label set
    assert label_family([(UNIVERSAL, S)], {S, T}) == (STAR_S, frozenset({UNIVERSAL, S, T}))


def test_label_family_matches_the_closure_fixpoint():
    # the reachability walk against the relation grown pair by pair, on
    # random atoms over up to four named standpoints and the universal one
    rng = random.Random(67)
    names = [Standpoint(x) for x in "stuv"]
    star_left = star_right = chains = cycles = 0
    for k in range(600):
        sps = names[: rng.randint(1, 4)]
        pool = sps + [UNIVERSAL]
        atoms = [(rng.choice(pool), rng.choice(pool)) for _ in range(rng.randint(0, 5))]
        if k % 4 == 0:  # a chain through every named standpoint, closed half the time
            order = rng.sample(sps, len(sps))
            atoms += list(zip(order, order[1:] + order[:1] * (k % 8 == 0)))
        universe = rng.sample(pool, rng.randint(0, len(pool)))
        rel = sharpening_closure(atoms, universe)
        assert label_family(atoms, universe) == family_for(rel), (atoms, universe)
        star_left += any(a.is_universal and not b.is_universal for a, b in atoms)
        star_right += any(b.is_universal and not a.is_universal for a, b in atoms)
        chains += any(b == c and len({a, b, d}) == 3 for a, b in atoms for c, d in atoms)
        cycles += any(a != b and rel.entails((b, a)) for a, b in rel.relation if not b.is_universal)
    assert min(star_left, star_right, chains, cycles) > 100


def test_evaluate_on_single_cell_grid():
    fam = (STAR,)
    m = (fam, ((frozenset({"p"}),),))
    assert holds(m, parse("<@*> p"))
    assert holds(m, parse("[@*] p"))
    assert not holds(m, parse("<@*> q"))


def test_evaluate_box_reads_only_matching_cells():
    fam = (STAR, STAR_S)
    with_p = (fam, ((frozenset(),), (frozenset({"p"}),)))
    without_p = (fam, ((frozenset({"p"}),), (frozenset(),)))
    f = parse("[@s] p")
    assert holds(with_p, f)
    assert not holds(without_p, f)


def test_evaluate_sharpening_is_family_inclusion():
    fam = (STAR, STAR_S, frozenset({UNIVERSAL, S, T}))
    m = (fam, ((frozenset(),),) * 3)
    assert not holds(m, Sharper(S, T))  # the {*,s} cell lacks t
    assert holds(m, Sharper(T, S))  # every t-cell carries s


# ---------------------------------------------------------------------------
# Atoms and modal literals of the automaton's states

def test_split_separates_atoms_and_body():
    # the sharpening atom is a state bit that picks the grid's family; the
    # diamond is a leaf its grid decides, so its operand is no member
    f = parse("@s <= @t & <@s> p")
    space = StateSpace(closure(f))
    assert space.base == [Sharper(S, T), DiamondS(S, Prop("p"))]
    assert Prop("p") not in space.closure
    (b,) = space.enumerate([(f, True)])
    assert space.grid(b).family == family_for(sharpening_closure([(S, T)], {S, T}))
    assert holds(space.grid_model(b), f)


def test_split_pushes_negations_into_the_body(monkeypatch):
    # the grid sees a negated modal member as written: beneath an Until the
    # diamond branches, and its states search it true and negated
    searched = []
    search = psl.grid_model_for

    def recording(grid, conjuncts, budget):
        searched.extend(conjuncts)
        return search(grid, conjuncts, budget)

    monkeypatch.setattr(psl, "grid_model_for", recording)
    diamond = parse("<@s> !(p & q)")
    space = StateSpace(closure(Until(Prop("r"), diamond)))
    assert diamond in space.branch
    list(space.enumerate([]))
    assert set(searched) >= {diamond, Not(diamond)}
    assert BoxS(S, And(Prop("p"), Prop("q"))) not in searched


def test_negated_modal_conjuncts_are_propagated_as_their_duals():
    # !<@s> p rules out the s-types with p, which leaves <@s> q one
    # candidate: propagation makes it present and the root node answers.
    # Unpropagated, neither conjunct would decide a type there.  ![@s] !q
    # is the same diamond rule, and each search spends what its dual does.
    # The node counts are the walk's, on the engine grid; the table grid
    # of the same 8 types answers every search in one node
    family = label_family([], {S})
    p, q = Prop("p"), Prop("q")
    for conjuncts, duals in [
        ([Not(DiamondS(S, p)), DiamondS(S, q)], [BoxS(S, Not(p)), DiamondS(S, q)]),
        ([Not(DiamondS(S, p)), Not(BoxS(S, Not(q)))], [BoxS(S, Not(p)), DiamondS(S, q)]),
    ]:
        spent, found = [], []
        for cs in (conjuncts, duals):
            for build in (engine_grid, CompiledGrid):
                grid = build(family, ["p", "q"], cs, [100, 100])
                budget = [100, 100]
                found.append(grid_model_for(grid, cs, budget))
                spent.append(100 - budget[0])
                assert found[-1] is not None and holds((family, expand(grid, *found[-1])), conj(cs))
        assert spent == [1, 1, 1, 1] and len(set(found)) == 1
    # an unsatisfiable pair fails at the root of each designated valuation
    cs = [Not(DiamondS(S, p)), DiamondS(S, And(p, q))]
    for build, nodes in ((engine_grid, 4), (CompiledGrid, 1)):
        grid = build(family, ["p", "q"], cs, [100, 100])
        budget = [100, 100]
        assert grid_model_for(grid, cs, budget) is None
        assert 100 - budget[0] == nodes
    assert grid.tables is not None


def test_split_keeps_nested_sharpening_atoms_in_the_body():
    # an atom beneath a modality is the same rigid state bit as at the top:
    # its truth picks the family on which the modality is decided
    assert solve(parse("!(@s <= @t)")).is_sat
    assert Sharper(S, T) in closure(parse("<@s> (@s <= @t)"))
    f = parse("<@s> (@s <= @t)")
    verdict = routed(f)  # the automaton, past the one-cell check
    assert verdict.is_sat and true_atoms(verdict.model, f) == {(S, T)}
    assert not solve(parse("!(@s <= @t) & <@s> (@s <= @t)")).is_sat
    assert solve(parse("@s <= @t & <@s> (@s <= @t)")).is_sat


# ---------------------------------------------------------------------------
# Grid models of PSL verdicts, read off their witnesses

def test_sat_normal_form_simple_witness():
    v = routed(Prop("p"))
    assert v.is_sat and v.designated == "t0"
    family, columns = witness_grid(v.model, ())
    assert "p" in columns[0][0]
    # one column carrying one valuation
    assert _width(v.model, family) == 1


def test_sat_normal_form_direct_contradiction():
    assert solve(parse("<@s> p & [@s] !p")).status == "unsat"


def test_sat_normal_form_two_distinct_witness_cells():
    v = solve(parse("<@s> p & <@s> !p"))
    assert v.engine == "automaton"
    s_cells = [v.model.traces[t].valuation(0) for t in v.model.lam[S]]
    assert any("p" in val for val in s_cells)
    assert any("p" not in val for val in s_cells)


def test_grid_width_is_the_most_valuations_a_column_holds():
    # one cell in each column: the s- and t-cells with p and q serve both
    # diamonds and the box
    v = routed(parse("<@s> p & <@t> q & [@s] (p | q)"))
    family, _ = witness_grid(v.model, {S, T})
    assert _width(v.model, family) == 1 and len(family) == 3
    # the s-column needs p and !p, the others one valuation each, which
    # fills their second cell with a copy of the first
    v = routed(parse("<@s> p & <@s> !p & <@t> q"))
    family, columns = witness_grid(v.model, {S, T})
    assert _width(v.model, family) == 2 and [len(vals) for vals in columns] == [1, 2, 1]
    for c in range(len(family)):
        first, second = (v.model.traces[f"t{2 * c + j}"].valuation(0) for j in range(2))
        assert len(columns[c]) == 2 or second == first


def test_diamonds_beneath_a_negated_member_widen_nothing():
    # the negated member is a box in the state, so its inner diamond
    # demands no cell; a width counting every diamond subformula gave 9
    # cells a column and 27 witness cells
    f = parse("(<@*> (<@*> p & [@t] true)) & (!<@*> <@*> (@s <= @t)) & (<@*> [@*] p | !(p | true))")
    v = solve(f)
    assert v.is_sat and v.engine == "automaton"
    family, _ = witness_grid(v.model, vocab(simplify(f)).standpoints)
    assert _width(v.model, family) == 1 and len(v.model.traces) == 3


def test_grid_model_shape_conditions():
    rng = random.Random(41)
    checked = 0
    while checked < 60:
        f = random_formula(rng, 3, mode="psl")
        v = routed(f)
        if not v.is_sat:
            continue
        checked += 1
        phi = simplify(f)
        universe = vocab(phi).standpoints | {UNIVERSAL}
        rel = sharpening_closure(true_atoms(v.model, phi), universe)
        family, columns = witness_grid(v.model, universe)
        labels = trace_labels(v.model, universe)
        n = _width(v.model, family)
        # condition 1: the precisification set is exactly family x 1..N,
        # column by column
        assert list(labels) == [f"t{k}" for k in range(len(family) * n)]
        assert family == family_for(rel)
        # condition 2: the designated cell is the first universal-column cell
        assert v.designated == "t0" and labels["t0"] == family[0]
        assert holds((family, columns), phi)
        # condition 3: the labels of a cell are exactly its family set
        for i in range(len(family)):
            assert all(labels[f"t{i * n + j}"] == family[i] for j in range(n))
        # width: the most valuations one column carries, within the
        # small-model bound of the standpoints plus modal subformulas plus one
        assert n == max(map(len, columns)), to_text(f)
        subs = subformulas(phi)
        assert n <= len(universe) + sum(isinstance(g, (DiamondS, BoxS)) for g in subs) + 1


def test_sat_monotone_in_width():
    rng = random.Random(43)
    done = 0
    while done < 40:
        f = random_formula(rng, 3, mode="psl")
        phi = simplify(f)
        lasso = find_accepting_lasso(closure(phi))
        if lasso is None:
            continue
        done += 1
        (m,) = lasso.models
        # one more cell per column, a copy of its first, as a witness pads
        # a narrower column of its run
        family, columns = m
        wider = (family, tuple(column + column[:1] for column in columns))
        assert holds(m, phi) and holds(wider, phi)


# ---------------------------------------------------------------------------
# Sharpening atoms as state bits

def test_sat_negated_sharpening_needs_two_extents():
    v = solve(parse("!(@s <= @t)"))
    assert v.engine == "automaton"
    assert not v.model.lam[S] <= v.model.lam[T]


def test_sat_conflicting_sharpening_atoms():
    assert not solve(parse("(@s <= @t) & !(@s <= @t)")).is_sat


def test_sat_modal_flattening():
    nested = solve(parse("<@s> <@t> p")).is_sat
    flat = solve(parse("<@t> p")).is_sat
    assert nested and flat


def test_sat_agrees_with_brute_force_on_corpus():
    rng = random.Random(47)
    done = 0
    while done < 120:
        f = random_formula(rng, rng.randint(1, 4), mode="psl", max_sharpenings=2)
        if size(f) > 12:
            continue
        done += 1
        assert solve(f).is_sat == psl_brute_sat(f), to_text(f)


def test_bitwise_brute_force_agrees_with_the_set_loop():
    for f in enumerate_psl_formulas(4):
        assert psl_brute_sat_bitwise(f) == psl_brute_sat(f), to_text(f)
    rng = random.Random(61)
    verdicts = set()
    for k in range(300):
        props, sps = (("p", "q"), (S,)) if k % 2 else (("p",), (S, T))
        depth = rng.randint(2, 5)
        f = random_formula(rng, depth, props=props, sps=sps, mode="psl", max_sharpenings=2)
        verdicts.add(psl_brute_sat(f))
        assert psl_brute_sat_bitwise(f) == psl_brute_sat(f), to_text(f)
    assert verdicts == {True, False}


def test_sat_with_three_atoms_agrees_with_brute_force():
    rng = random.Random(59)
    done = sat_seen = 0
    while done < 60:
        f = random_formula(rng, 4, props=("p",), sps=(S, T, U), mode="psl", max_sharpenings=3)
        if len(sharpening_atoms(f)) != 3 or size(f) > 16:
            continue
        done += 1
        v = routed(f)  # a sat verdict's witness is checked inside
        assert v.is_sat == psl_brute_sat(f), to_text(f)
        if v.is_sat:
            sat_seen += 1
            assert holds(witness_grid(v.model, vocab(simplify(f)).standpoints), simplify(f)), to_text(f)
            # false atoms are columns of the grid, not fresh propositions
            assert all(tr.valuation(0) <= {"p"} for tr in v.model.traces.values())
    assert 0 < sat_seen < done


def test_sat_skips_partitions_whose_true_atoms_entail_a_false_one():
    # s <= t and t <= u entail s <= u: of the 8 truth assignments to the
    # atoms, that one has no state, and the other 7 have pairwise distinct
    # label families, one compiled grid each
    f = parse("p & (@s <= @t | @t <= @u | @s <= @u)")
    space = StateSpace(closure(f))
    atoms = [Sharper(S, T), Sharper(T, U), Sharper(S, U)]
    held = {tuple(bool(b >> space.base_index[a] & 1) for a in atoms) for b in space.enumerate([])}
    assert len(held) == 7 and (True, True, False) not in held
    assert len(space._grids) == 8 and len({id(g) for g in space._grids.values()}) == 7
    assert len({g.family for g in space._grids.values()}) == 7


def test_root_failures_spend_no_grid_nodes():
    # the conjunction rules out every designated valuation but the last at
    # the root, which one sweep shows before the search spends a node
    props = [f"p{i}" for i in range(1, 11)]
    conjuncts = [Prop(p) for p in props]
    grid = CompiledGrid(label_family([], {UNIVERSAL}), props, conjuncts, [10**6, 10**6])
    budget = [1, 1]
    present, dv = grid_model_for(grid, conjuncts, budget)
    assert (present, dv) == (1 << 1023, 1023)
    assert expand(grid, present, dv) == ((frozenset(props),),)
    assert budget[0] == 0


def test_root_candidates_come_from_one_mask():
    # 4,096 states, each a grid search over 2^12 designated valuations:
    # walking only the set bits of the roots' column-0 mask answers in
    # about a second, testing every valuation in turn took about 12 s
    start = time.perf_counter()
    # the automaton, past the one-cell check
    v = routed(parse("F (" + " & ".join(f"p{i}" for i in range(12)) + ")"))
    assert v.is_sat
    assert time.perf_counter() - start < 4


def ring(k: int) -> str:
    """Unsat: each p_i is seen without p_{i+1} at @s, yet p0 never holds."""
    parts = [f"<@s>(p{i} & !p{(i + 1) % k})" for i in range(k)]
    return " & ".join(parts + ["[@*]!p0"])


@pytest.mark.parametrize("k", [3, 4, 5, 6])
def test_ring_is_unsat_within_a_small_node_budget(k):
    # without propagating the box conjunct, k=4 takes about 536k nodes
    assert not solve(parse(ring(k)), SolveOptions(node_limit=1_000)).is_sat


def test_sat_node_limit_is_loud():
    # the ring's grid of 16 types is past the tables' cap, and its walk
    # takes more than one node; a table search takes one
    with pytest.raises(SearchLimitError, match="grid search exceeded the node limit of 1"):
        solve(parse(ring(3)), SolveOptions(node_limit=1))


def _expand(present, dv, cols, v_count, plist):
    """The columns of a presence assignment: each column lists its present
    valuations in order, the designated one first in column 0."""
    columns = []
    for c in range(cols):
        chosen = [v for v in range(v_count) if present >> (c * v_count + v) & 1]
        if c == 0:
            chosen = [dv] + [v for v in chosen if v != dv]
        columns.append(tuple(frozenset(p for i, p in enumerate(plist) if v >> i & 1) for v in chosen))
    return tuple(columns)


_ATOMS = [(a, b) for a in (S, T, UNIVERSAL) for b in (S, T, UNIVERSAL) if a != b]


def test_grid_tables_equal_their_per_type_definitions():
    # type t is valuation t % 2^props of column t // 2^props
    rng = random.Random(59)
    tabled = 0
    atom_sets = [(), *((a,) for a in _ATOMS), *itertools.combinations(_ATOMS, 2)]
    for family in sorted({label_family(atoms, {S, T}) for atoms in atom_sets}, key=str):
        for n_props in range(6):
            plist = [f"p{i}" for i in range(n_props)]
            grid = CompiledGrid(family, plist, [TOP, *map(Prop, plist)], [10**6, 10**6])
            v_count, cols = 1 << n_props, len(family)
            types = range(cols * v_count)
            assert grid.true_masks == [
                sum(1 << t for t in types if t % v_count >> i & 1) for i in range(n_props)
            ]
            assert grid.extents == {
                sp: sum(1 << t for t in types if sp in family[t // v_count])
                for sp in (UNIVERSAL, S, T)
            }
            if grid.tables is None:
                assert grid.engine.masks == grid.extents
            else:
                # bit S of type t's block: t's valuation, in every row
                tabled += 1
                rows = 1 << len(types)
                for i, p in enumerate(plist):
                    assert grid.tables[Prop(p)] == sum(
                        ((1 << rows) - 1) << t * rows for t in types if t % v_count >> i & 1
                    )
            for _ in range(5):
                dv = rng.randrange(v_count)
                present = rng.getrandbits(len(types)) | 1 << dv
                present |= sum(1 << rng.randrange(c * v_count, (c + 1) * v_count) for c in range(cols))
                want = _expand(present, dv, cols, v_count, plist)
                assert expand(grid, present, dv) == want, (family, n_props)
    assert tabled >= 20


def test_grid_tables_of_many_types_are_built_without_a_loop_over_types():
    # 2 columns x 2^15 valuations; a loop over the types took about a second
    conjuncts = [parse(f"<@s> p{i}") for i in range(15)]
    started = time.perf_counter()
    grid = CompiledGrid(label_family([], {S}), vocab(conj(conjuncts)).props, conjuncts, [10, 10])
    assert time.perf_counter() - started < 0.1
    assert grid.full == (1 << 2**16) - 1


def _first_valid_assignment(body, family, plist):
    """Brute force in the grid search's order: designated valuation first,
    then every other type absent before present, the lowest type deciding
    first; the first assignment with a type in every column whose grid
    satisfies the body wins."""
    v_count = 1 << len(plist)
    cols = len(family)
    for dv in range(v_count):
        order = [t for t in range(cols * v_count) if t != dv]
        for bits in range(1 << len(order)):
            present = 1 << dv
            for k, t in enumerate(order):
                if bits >> (len(order) - 1 - k) & 1:
                    present |= 1 << t
            counts = [(present >> (c * v_count) & ((1 << v_count) - 1)).bit_count() for c in range(cols)]
            if 0 in counts:
                continue
            columns = _expand(present, dv, cols, v_count, plist)
            if holds((family, columns), body):
                return columns
    return None


def test_grid_search_returns_the_first_valid_assignment():
    rng = random.Random(53)
    done = sat_count = modal = 0
    while done < 150:
        plist = ["p", "q"][: rng.randint(1, 2)]

        def literal():
            atom = Prop(rng.choice(plist))
            return atom if rng.random() < 0.5 else Not(atom)

        # modal literals clash often enough to give both verdicts; nested
        # modalities leave operands undecided under partial presence, and
        # random formulas add sharpening atoms
        parts = []
        for _ in range(rng.randint(2, 4)):
            if rng.random() < 0.25:
                parts.append(random_formula(rng, 2, props=plist, mode="psl"))
                continue
            g = rng.choice([literal, lambda: And(literal(), literal()), lambda: Or(literal(), literal())])()
            if rng.random() < 0.3:
                g = Or(g, rng.choice([DiamondS, BoxS])(rng.choice([S, UNIVERSAL]), literal()))
            wrap = rng.choice([None, DiamondS, BoxS])
            parts.append(wrap(rng.choice([S, UNIVERSAL]), g) if wrap else g)
        # the top-level atoms pick the family; the rest, in normal form,
        # are the conjuncts
        top = _conjuncts(conj(parts))
        atoms = [(g.left, g.right) for g in top if isinstance(g, Sharper)]
        body = to_nnf(conj([g for g in top if not isinstance(g, Sharper)]))
        universe = vocab(conj(top)).standpoints | {UNIVERSAL}
        family = label_family(atoms, universe)
        props = tuple(sorted(vocab(body).props))
        if len(family) > 2 or not 1 <= len(props) <= 2:
            continue
        done += 1
        parts = _conjuncts(body)
        modal += any(isinstance(c, (DiamondS, BoxS)) for c in parts)
        expected = _first_valid_assignment(body, family, list(props))
        sat_count += expected is not None
        grid = CompiledGrid(family, props, parts, [10**6, 10**6])
        found = grid_model_for(grid, parts, [10**6, 10**6])
        assert (found and expand(grid, *found)) == expected, to_text(body)
    # the corpus exercises both verdicts and the propagation rules
    assert 40 < sat_count < 110 and modal > 120


def test_table_grids_answer_as_the_walk():
    # random families of up to two atoms over @s, @t and the universal
    # standpoint, one to three propositions, and
    # conjunctions of literals, modal literals in both polarities and
    # sharpening atoms: the table search and the walk on the engine grid
    # find the same least assignment, or both none, and the members read
    # off it agree
    rng = random.Random(71)
    pool = [S, T, UNIVERSAL]
    done = sat = unsat = wide = off_zero = negated = 0
    while done < 400:
        plist = ["p", "q", "r"][: rng.randint(1, 3)]

        def literal():
            atom = Prop(rng.choice(plist))
            return atom if rng.random() < 0.5 else Not(atom)

        def modal():
            body = rng.choice([literal, lambda: Or(literal(), literal()), lambda: And(literal(), literal())])()
            if rng.random() < 0.2:
                body = Or(body, Sharper(rng.choice(pool), rng.choice(pool)))
            g = rng.choice([DiamondS, BoxS])(rng.choice(pool), body)
            return Not(g) if rng.random() < 0.4 else g

        conjuncts = [rng.choice([literal, modal, modal])() for _ in range(rng.randint(1, 4))]
        if rng.random() < 0.3:
            atom = Sharper(rng.choice([S, T]), rng.choice([S, T, UNIVERSAL]))
            conjuncts.append(atom if rng.random() < 0.5 else Not(atom))
        atoms = rng.sample(_ATOMS, rng.randint(0, 2))
        family = label_family(atoms, vocab(conj(conjuncts)).standpoints)
        grid = CompiledGrid(family, plist, conjuncts, [10**6, 10**6])
        if grid.tables is None:
            continue
        done += 1
        walked = engine_grid(family, plist, conjuncts, [10**6, 10**6])
        budget = [10**6, 10**6]
        found = grid_model_for(grid, conjuncts, budget)
        assert budget[0] == 10**6 - 1
        assert found == grid_model_for(walked, conjuncts, [10**6, 10**6]), [to_text(g) for g in conjuncts]
        # the compiled members a state reads off its model
        members = [c.operand if isinstance(c, Not) else c for c in conjuncts]
        members = [g for g in members if isinstance(g, (Prop, DiamondS, BoxS))]
        negated += any(isinstance(g, Not) and isinstance(g.operand, (DiamondS, BoxS)) for g in conjuncts)
        if found is None:
            unsat += 1
            continue
        sat += 1
        wide += len(family) >= 2
        off_zero += found[1] != 0
        assert holds((family, expand(grid, *found)), conj(conjuncts))
        space = SimpleNamespace(_decided=list(enumerate(members)))
        assert StateSpace._read(space, grid, *found) == StateSpace._read(space, walked, *found)
    assert sat > 190 and unsat > 160 and wide > 120 and off_zero > 60 and negated > 180


def test_a_grid_at_the_cap_takes_the_table():
    # 8 columns of one valuation each, and one formula of 512 nodes:
    # 512 x 8 x 2^8 bits, exactly the cap, takes the table; a ninth column
    # (one type more) or a 513th node takes the walk
    names = [Standpoint(f"s{i}") for i in range(8)]
    body = TOP
    for k in range(511):
        body = DiamondS(names[k % 7], body)
    assert size(body) == 512 and 512 * 8 << 8 == psl.ONE_CELL_BITS
    longer = DiamondS(names[0], body)
    grids = [
        (CompiledGrid(label_family([], names[:7]), [], [body], [10**6, 10**6]), body),
        (CompiledGrid(label_family([], names), [], [body], [10**6, 10**6]), body),
        (CompiledGrid(label_family([], names[:7]), [], [longer], [10**6, 10**6]), longer),
    ]
    assert [(len(g.family), g.tables is not None) for g, _ in grids] == [(8, True), (9, False), (8, False)]
    for grid, f in grids:
        found = grid_model_for(grid, [f], [10**6, 10**6])
        assert holds((grid.family, expand(grid, *found)), f)
        assert found == grid_model_for(engine_grid(grid.family, [], [f], [10**6, 10**6]), [f], [10**6, 10**6])


# ---------------------------------------------------------------------------
# Externally fixed grids and serialization

def test_grid_model_for_fixed_width():
    fam = label_family([], {S, UNIVERSAL})
    parts = [parse("<@s> p"), parse("!p"), parse("[@s] p"), parse("<@s> !p")]
    grid = CompiledGrid(fam, ["p"], parts, [10**6, 10**6])

    def model_of(conjuncts):
        return fam, expand(grid, *grid_model_for(grid, conjuncts, [10**6, 10**6]))

    def width(model):
        return max(map(len, model[1]))

    # the designated cell lacks p and the s-cell has it: one cell a column
    model = model_of(parts[:2])
    assert width(model) == 1
    assert model[1] == ((frozenset(),), (frozenset({"p"}),))
    assert holds(model, parse("<@s> p & !p"))
    # two forced-apart witnesses in the s-column make the grid two wide
    model = model_of([parts[0], parts[3]])
    assert width(model) == 2 and holds(model, parse("<@s> p & <@s> !p"))
    assert set(model[1][1]) == {frozenset(), frozenset({"p"})}
    assert width(model_of(parts[1:3])) == 1
    with pytest.raises(ValueError, match="outside the grid universe"):
        CompiledGrid(fam, ["p"], [parse("<@t> p")], [10**6, 10**6])


def test_psl_witness_json_shape():
    # the witness of an automaton PSL verdict is its grid model: one trace
    # of one position per cell, column by column, ``lambda`` naming the
    # traces of each standpoint's columns
    v = routed(parse("<@s> p"))
    blob = verdict_to_json(v)["witness"]
    family, columns = witness_grid(v.model, {S})
    n = _width(v.model, family)
    assert blob["designated"] == "t0"
    assert family[0] == STAR
    assert (blob["prefix_len"], blob["period_len"]) == (0, 1)
    assert list(blob["traces"]) == [f"t{k}" for k in range(len(family) * n)]
    assert blob["lambda"]["@*"] == sorted(blob["traces"])
    assert blob["lambda"]["@s"] == sorted(
        f"t{i * n + j}" for i, labels in enumerate(family) if S in labels for j in range(n)
    )
