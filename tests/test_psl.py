import itertools
import random
import time

import pytest

from conftest import (
    S,
    T,
    U,
    enumerate_psl_formulas,
    family_for,
    psl_brute_sat,
    psl_brute_sat_bitwise,
    random_formula,
    sharpening_atoms,
    sharpening_closure,
    true_atoms,
)

from sltl import psl
from sltl.automaton import StateSpace, find_accepting_lasso
from sltl.psl import (
    CompiledGrid,
    PSLModel,
    expand,
    grid_model_for,
    label_family,
    psl_model_to_json,
)
from sltl.search import SearchLimitError
from sltl.semantics import SLTLModel, UPTrace, evaluate
from sltl.solver import SolveOptions, solve
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


def holds(m: PSLModel, f) -> bool:
    """Truth of ``f`` at cell (0, 1), by the reference evaluator on the
    one-position model whose traces are the grid's cells."""
    cells = m.cells()
    traces = {f"t{k}": UPTrace((), (m.valuation[c],)) for k, c in enumerate(cells)}
    lam = {
        sp: frozenset(
            f"t{k}" for k, c in enumerate(cells) if sp.is_universal or sp in m.labels(c)
        )
        for sp in vocab(f).standpoints | {UNIVERSAL}
    }
    return evaluate(SLTLModel(traces, lam, 0, 1), "t0", 0, f)


def _conjuncts(f):
    """The leaves of the And tree at the top of ``f``, left to right."""
    return _conjuncts(f.left) + _conjuncts(f.right) if isinstance(f, And) else [f]


def _extent(m: PSLModel, sp: Standpoint) -> list:
    """The cells of a grid model that ``sp`` labels."""
    return [c for c in m.cells() if sp.is_universal or sp in m.labels(c)]


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
    m = PSLModel(fam, 1, {(0, 1): frozenset({"p"})})
    assert holds(m, parse("<@*> p"))
    assert holds(m, parse("[@*] p"))
    assert not holds(m, parse("<@*> q"))


def test_evaluate_box_reads_only_matching_cells():
    fam = (STAR, STAR_S)
    with_p = PSLModel(fam, 1, {(0, 1): frozenset(), (1, 1): frozenset({"p"})})
    without_p = PSLModel(fam, 1, {(0, 1): frozenset({"p"}), (1, 1): frozenset()})
    f = parse("[@s] p")
    assert holds(with_p, f)
    assert not holds(without_p, f)


def test_evaluate_sharpening_is_family_inclusion():
    fam = (STAR, STAR_S, frozenset({UNIVERSAL, S, T}))
    m = PSLModel(fam, 1, {(i, 1): frozenset() for i in range(3)})
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
    family = label_family([], {S})
    p, q = Prop("p"), Prop("q")
    for conjuncts, duals in [
        ([Not(DiamondS(S, p)), DiamondS(S, q)], [BoxS(S, Not(p)), DiamondS(S, q)]),
        ([Not(DiamondS(S, p)), Not(BoxS(S, Not(q)))], [BoxS(S, Not(p)), DiamondS(S, q)]),
    ]:
        spent = []
        for cs in (conjuncts, duals):
            grid = CompiledGrid(family, ["p", "q"], cs, [100, 100])
            budget = [100, 100]
            found = grid_model_for(grid, cs, budget)
            spent.append(100 - budget[0])
            assert found is not None and holds(expand(grid, *found), conj(cs))
        assert spent == [1, 1]
    # an unsatisfiable pair fails at the root of each designated valuation
    cs = [Not(DiamondS(S, p)), DiamondS(S, And(p, q))]
    grid = CompiledGrid(family, ["p", "q"], cs, [100, 100])
    budget = [100, 100]
    assert grid_model_for(grid, cs, budget) is None
    assert 100 - budget[0] == 4


def test_split_keeps_nested_sharpening_atoms_in_the_body():
    # an atom beneath a modality is the same rigid state bit as at the top:
    # its truth picks the family on which the modality is decided
    assert solve(parse("!(@s <= @t)")).is_sat
    assert Sharper(S, T) in closure(parse("<@s> (@s <= @t)"))
    f = parse("<@s> (@s <= @t)")
    verdict = solve(f)
    assert verdict.is_sat and true_atoms(verdict.model, f) == {(S, T)}
    assert not solve(parse("!(@s <= @t) & <@s> (@s <= @t)")).is_sat
    assert solve(parse("@s <= @t & <@s> (@s <= @t)")).is_sat


# ---------------------------------------------------------------------------
# Grid models of PSL verdicts

def test_sat_normal_form_simple_witness():
    v = solve(Prop("p"))
    assert v.is_sat and v.designated == "t0"
    assert "p" in v.psl_model.valuation[(0, 1)]
    # one column carrying one valuation
    assert v.psl_model.n == 1


def test_sat_normal_form_direct_contradiction():
    assert solve(parse("<@s> p & [@s] !p")).status == "unsat"


def test_sat_normal_form_two_distinct_witness_cells():
    m = solve(parse("<@s> p & <@s> !p")).psl_model
    s_cells = _extent(m, S)
    assert any("p" in m.valuation[c] for c in s_cells)
    assert any("p" not in m.valuation[c] for c in s_cells)


def _column_valuations(m: PSLModel) -> list[set]:
    return [{v for (c, _), v in m.valuation.items() if c == i} for i in range(len(m.family))]


def test_grid_width_is_the_most_valuations_a_column_holds():
    # one cell in each column: the s- and t-cells with p and q serve both
    # diamonds and the box
    m = solve(parse("<@s> p & <@t> q & [@s] (p | q)")).psl_model
    assert m.n == 1 and len(m.family) == 3
    # the s-column needs p and !p, the others one valuation each, which
    # fills their second cell with a copy of the first
    m = solve(parse("<@s> p & <@s> !p & <@t> q")).psl_model
    assert m.n == 2 and [len(vals) for vals in _column_valuations(m)] == [1, 2, 1]
    for c in range(len(m.family)):
        assert len(_column_valuations(m)[c]) == 2 or m.valuation[(c, 2)] == m.valuation[(c, 1)]


def test_diamonds_beneath_a_negated_member_widen_nothing():
    # the negated member is a box in the state, so its inner diamond
    # demands no cell; a width counting every diamond subformula gave 9
    # cells a column and 27 witness cells
    f = parse("(<@*> (<@*> p & [@t] true)) & (!<@*> <@*> (@s <= @t)) & (<@*> [@*] p | !(p | true))")
    v = solve(f)
    assert v.is_sat and v.psl_model.n == 1 and len(v.model.traces) == 3


def test_grid_model_shape_conditions():
    rng = random.Random(41)
    checked = 0
    while checked < 60:
        f = random_formula(rng, 3, mode="psl")
        v = solve(f)
        if not v.is_sat:
            continue
        checked += 1
        m = v.psl_model
        phi = simplify(f)
        universe = vocab(phi).standpoints | {UNIVERSAL}
        rel = sharpening_closure(true_atoms(v.model, phi), universe)
        # condition 1: the precisification set is exactly family x 1..N
        assert set(m.valuation) == {(i, j) for i in range(len(m.family)) for j in range(1, m.n + 1)}
        assert m.family == family_for(rel)
        # condition 2: the designated cell is the first universal-column cell
        assert v.designated == "t0"
        assert holds(m, phi)
        # condition 3: the labels of a cell are exactly its family set
        for (i, j) in m.valuation:
            assert m.labels((i, j)) == m.family[i]
        # width: the most valuations one column carries, within the
        # small-model bound of the standpoints plus modal subformulas plus one
        assert m.n == max(map(len, _column_valuations(m))), to_text(f)
        subs = subformulas(phi)
        assert m.n <= len(universe) + sum(isinstance(g, (DiamondS, BoxS)) for g in subs) + 1


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
        # a narrower model of its run
        wider = dict(m.valuation)
        wider.update({(c, m.n + 1): m.valuation[(c, 1)] for c in range(len(m.family))})
        assert holds(m, phi) and holds(PSLModel(m.family, m.n + 1, wider), phi)


# ---------------------------------------------------------------------------
# Sharpening atoms as state bits

def test_sat_negated_sharpening_needs_two_extents():
    m = solve(parse("!(@s <= @t)")).psl_model
    assert not set(_extent(m, S)) <= set(_extent(m, T))


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
        v = solve(f)  # a sat verdict's witness is checked inside
        assert v.is_sat == psl_brute_sat(f), to_text(f)
        if v.is_sat:
            sat_seen += 1
            assert holds(v.psl_model, simplify(f)), to_text(f)
            # false atoms are columns of the grid, not fresh propositions
            assert all(val <= {"p"} for val in v.psl_model.valuation.values())
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
    assert expand(grid, present, dv).valuation == {(0, 1): frozenset(props)}
    assert budget[0] == 0


def test_root_candidates_come_from_one_mask():
    # 4,096 states, each a grid search over 2^12 designated valuations:
    # walking only the set bits of the roots' column-0 mask answers in
    # about a second, testing every valuation in turn took about 12 s
    start = time.perf_counter()
    v = solve(parse("F (" + " & ".join(f"p{i}" for i in range(12)) + ")"))
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
    with pytest.raises(SearchLimitError, match="grid search exceeded the node limit of 1"):
        solve(parse("<@s> p & <@s> !p & <@t> q"), SolveOptions(node_limit=1))


def _expand(present, dv, cols, v_count, n, plist):
    """The grid valuation of a presence assignment: each column lists its
    present valuations in order (the designated one first in column 0) and
    repeats its first one to fill ``n`` rows, the most any column has."""
    valuation = {}
    for c in range(cols):
        chosen = [v for v in range(v_count) if present >> (c * v_count + v) & 1]
        if c == 0:
            chosen = [dv] + [v for v in chosen if v != dv]
        rows = (chosen + [chosen[0]] * n)[:n]
        for j, v in enumerate(rows, start=1):
            valuation[(c, j)] = frozenset(p for i, p in enumerate(plist) if v >> i & 1)
    return valuation


_ATOMS = [(a, b) for a in (S, T, UNIVERSAL) for b in (S, T, UNIVERSAL) if a != b]


def test_grid_tables_equal_their_per_type_definitions():
    # type t is valuation t % 2^props of column t // 2^props
    rng = random.Random(59)
    atom_sets = [(), *((a,) for a in _ATOMS), *itertools.combinations(_ATOMS, 2)]
    for family in sorted({label_family(atoms, {S, T}) for atoms in atom_sets}, key=str):
        for n_props in range(6):
            plist = [f"p{i}" for i in range(n_props)]
            grid = CompiledGrid(family, plist, [TOP], [10**6, 10**6])
            v_count, cols = 1 << n_props, len(family)
            types = range(cols * v_count)
            assert grid.true_masks == [
                sum(1 << t for t in types if t % v_count >> i & 1) for i in range(n_props)
            ]
            assert grid.engine.masks == {
                sp: sum(1 << t for t in types if sp in family[t // v_count])
                for sp in (UNIVERSAL, S, T)
            }
            for _ in range(5):
                dv = rng.randrange(v_count)
                present = rng.getrandbits(len(types)) | 1 << dv
                present |= sum(1 << rng.randrange(c * v_count, (c + 1) * v_count) for c in range(cols))
                n = max(
                    (present >> (c * v_count) & (1 << v_count) - 1).bit_count() for c in range(cols)
                )
                want = _expand(present, dv, cols, v_count, n, plist)
                assert expand(grid, present, dv).valuation == want, (family, n_props)


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
            n = max(counts)
            valuation = _expand(present, dv, cols, v_count, n, plist)
            if holds(PSLModel(family, n, valuation), body):
                return valuation
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
        assert (found and expand(grid, *found).valuation) == expected, to_text(body)
    # the corpus exercises both verdicts and the propagation rules
    assert 40 < sat_count < 110 and modal > 120


# ---------------------------------------------------------------------------
# Externally fixed grids and serialization

def test_grid_model_for_fixed_width():
    fam = label_family([], {S, UNIVERSAL})
    parts = [parse("<@s> p"), parse("!p"), parse("[@s] p"), parse("<@s> !p")]
    grid = CompiledGrid(fam, ["p"], parts, [10**6, 10**6])

    def model_of(conjuncts):
        return expand(grid, *grid_model_for(grid, conjuncts, [10**6, 10**6]))

    # the designated cell lacks p and the s-cell has it: one cell a column
    model = model_of(parts[:2])
    assert model.n == 1
    assert model.valuation == {(0, 1): frozenset(), (1, 1): frozenset({"p"})}
    assert holds(model, parse("<@s> p & !p"))
    # two forced-apart witnesses in the s-column make the grid two wide
    model = model_of([parts[0], parts[3]])
    assert model.n == 2 and holds(model, parse("<@s> p & <@s> !p"))
    assert {model.valuation[(1, 1)], model.valuation[(1, 2)]} == {frozenset(), frozenset({"p"})}
    assert model_of(parts[1:3]).n == 1
    with pytest.raises(ValueError, match="outside the grid universe"):
        CompiledGrid(fam, ["p"], [parse("<@t> p")], [10**6, 10**6])


def test_psl_witness_json_shape():
    m = solve(parse("<@s> p")).psl_model
    blob = psl_model_to_json(m, (0, 1))
    assert blob["designated"] == "0,1"
    assert blob["s_family"][0] == ["@*"]
    assert set(blob["valuation"]) == {
        f"{i},{j}" for i in range(len(m.family)) for j in range(1, m.n + 1)
    }
