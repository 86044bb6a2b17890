import random

import pytest

from conftest import S, T, U, psl_brute_sat, random_formula

from sltl import psl
from sltl.psl import (
    CompiledGrid,
    PSLModel,
    SFamily,
    SatResult,
    TemporalOperatorError,
    family_for,
    grid_model_for,
    psl_model_to_json,
    sat,
    sat_normal_form,
    sharpening_closure,
    split_for_grid,
)
from sltl.semantics import SearchLimitError, evaluate
from sltl.solver import _lift_psl_model
from sltl.syntax import (
    And,
    BoxS,
    DiamondS,
    Not,
    Or,
    Prop,
    Sharper,
    Standpoint,
    UNIVERSAL,
    conj,
    parse,
    size,
    to_text,
    vocab,
)

STAR = frozenset({UNIVERSAL})
STAR_S = frozenset({UNIVERSAL, S})


def holds(m: PSLModel, f) -> bool:
    """Truth of ``f`` at cell (0, 1), by the reference evaluator on the
    lifted one-position model."""
    lifted, designated = _lift_psl_model(SatResult(m, (0, 1)), f)
    return evaluate(lifted, designated, 0, f)


def test_sharpening_closure_links_everything_to_universal():
    rel = sharpening_closure([(S, T)], {S, T})
    assert rel.entails((S, T))
    assert rel.entails((S, UNIVERSAL)) and rel.entails((T, UNIVERSAL))
    assert rel.entails((S, S)) and not rel.entails((T, S))
    chain = sharpening_closure([(S, T), (T, Standpoint("u"))], {S, T, Standpoint("u")})
    assert chain.entails((S, Standpoint("u")))


def test_family_orders_universal_first():
    rel = sharpening_closure([(S, T)], {S, T})
    fam = family_for(rel)
    assert fam.s_star == STAR
    assert frozenset({S, T, UNIVERSAL}) in fam.sets
    assert all(UNIVERSAL in s for s in fam.sets)
    assert len(fam) <= 3


def test_evaluate_on_single_cell_grid():
    fam = SFamily((STAR,))
    m = PSLModel(fam, 1, {(0, 1): frozenset({"p"})})
    assert holds(m, parse("<@*> p"))
    assert holds(m, parse("[@*] p"))
    assert not holds(m, parse("<@*> q"))


def test_evaluate_box_reads_only_matching_cells():
    fam = SFamily((STAR, STAR_S))
    with_p = PSLModel(fam, 1, {(0, 1): frozenset(), (1, 1): frozenset({"p"})})
    without_p = PSLModel(fam, 1, {(0, 1): frozenset({"p"}), (1, 1): frozenset()})
    f = parse("[@s] p")
    assert holds(with_p, f)
    assert not holds(without_p, f)


def test_evaluate_sharpening_is_family_inclusion():
    fam = SFamily((STAR, STAR_S, frozenset({UNIVERSAL, S, T})))
    m = PSLModel(fam, 1, {(i, 1): frozenset() for i in range(3)})
    assert not holds(m, Sharper(S, T))  # the {*,s} cell lacks t
    assert holds(m, Sharper(T, S))  # every t-cell carries s


# ---------------------------------------------------------------------------
# Normal form

def test_split_separates_atoms_and_body():
    atoms, body = split_for_grid(parse("@s <= @t & <@s> p"))
    assert Sharper(S, T) in atoms
    assert Sharper(UNIVERSAL, UNIVERSAL) in atoms
    assert body == DiamondS(S, Prop("p"))


def test_split_pushes_negations_into_the_body():
    atoms, body = split_for_grid(parse("<@s> !(p & q)"))
    assert atoms == [Sharper(UNIVERSAL, UNIVERSAL)]
    assert body == DiamondS(S, Or(Not(Prop("p")), Not(Prop("q"))))


def test_split_keeps_nested_sharpening_atoms_in_the_body():
    atoms, body = split_for_grid(parse("!(@s <= @t)"))
    assert atoms == [Sharper(UNIVERSAL, UNIVERSAL)]
    assert body == Not(Sharper(S, T))
    assert sat_normal_form(atoms, body).is_sat
    # a nested atom holds on the grid iff the top-level atoms entail it
    atoms, body = split_for_grid(parse("<@s> (@s <= @t)"))
    assert body == DiamondS(S, Sharper(S, T))
    assert not sat_normal_form(atoms, body).is_sat
    atoms, body = split_for_grid(parse("@s <= @t & <@s> (@s <= @t)"))
    assert sat_normal_form(atoms, body).is_sat


# ---------------------------------------------------------------------------
# Grid satisfiability

def test_sat_normal_form_simple_witness():
    atoms, body = split_for_grid(Prop("p"))
    res = sat_normal_form(atoms, body)
    assert res.is_sat
    assert res.designated == (0, 1)
    assert "p" in res.model.valuation[(0, 1)]
    # one standpoint symbol (the universal), no diamonds
    assert res.model.n == 2


def test_sat_normal_form_direct_contradiction():
    atoms, body = split_for_grid(parse("<@s> p & [@s] !p"))
    assert not sat_normal_form(atoms, body).is_sat


def test_sat_normal_form_two_distinct_witness_cells():
    atoms, body = split_for_grid(parse("<@s> p & <@s> !p"))
    res = sat_normal_form(atoms, body)
    assert res.is_sat
    m = res.model
    s_cells = m.extent(S)
    assert any("p" in m.valuation[c] for c in s_cells)
    assert any("p" not in m.valuation[c] for c in s_cells)


def test_grid_width_counts_standpoints_and_diamonds():
    atoms, body = split_for_grid(parse("<@s> p & <@t> q & [@s] (p | q)"))
    res = sat_normal_form(atoms, body)
    # standpoints s, t and the universal one; two diamond occurrences
    assert res.model.n == 3 + 2 + 1


def test_grid_model_shape_conditions():
    rng = random.Random(41)
    checked = 0
    while checked < 60:
        f = random_formula(rng, 3, mode="psl")
        atoms, body = split_for_grid(f)
        res = sat_normal_form(atoms, body)
        if not res.is_sat:
            continue
        checked += 1
        m = res.model
        universe = vocab(conj([a for a in atoms] + [body])).standpoints
        rel = sharpening_closure([(a.left, a.right) for a in atoms], universe)
        # condition 1: the precisification set is exactly family x 1..N
        assert set(m.valuation) == {(i, j) for i in range(len(m.family)) for j in range(1, m.n + 1)}
        assert set(m.family.sets) == {rel.of(sp) for sp in rel.universe}
        # condition 2: the designated cell is the first universal-column cell
        assert res.designated == (0, 1)
        assert holds(m, conj(list(atoms) + [body]))
        # condition 3: the labels of a cell are exactly its family set
        for (i, j) in m.valuation:
            assert m.labels((i, j)) == m.family.sets[i]
        # width: one more than standpoints plus diamond occurrences
        assert m.n == len(universe) + psl._count_diamonds(body) + 1


def test_sat_monotone_in_width():
    rng = random.Random(43)
    done = 0
    while done < 40:
        f = random_formula(rng, 3, mode="psl")
        atoms, body = split_for_grid(f)
        res = sat_normal_form(atoms, body)
        if not res.is_sat:
            continue
        done += 1
        wider = sat_normal_form(atoms, body, n_override=res.model.n + 1)
        assert wider.is_sat
        assert wider.model.n == res.model.n + 1


# ---------------------------------------------------------------------------
# General satisfiability through partitions

def test_sat_negated_sharpening_needs_two_extents():
    res = sat(parse("!(@s <= @t)"))
    assert res.is_sat
    m = res.model
    assert not set(m.extent(S)) <= set(m.extent(T))


def test_sat_conflicting_sharpening_atoms():
    assert not sat(parse("(@s <= @t) & !(@s <= @t)")).is_sat


def test_sat_modal_flattening():
    nested = sat(parse("<@s> <@t> p")).is_sat
    flat = sat(parse("<@t> p")).is_sat
    assert nested and flat


def test_sat_agrees_with_brute_force_on_corpus():
    rng = random.Random(47)
    done = 0
    while done < 120:
        f = random_formula(rng, rng.randint(1, 4), mode="psl", max_sharpenings=2)
        if size(f) > 12:
            continue
        done += 1
        assert sat(f).is_sat == psl_brute_sat(f), to_text(f)


def test_sat_with_three_atoms_agrees_with_brute_force():
    rng = random.Random(59)
    done = sat_seen = 0
    while done < 60:
        f = random_formula(rng, 4, props=("p",), sps=(S, T, U), mode="psl", max_sharpenings=3)
        if len(vocab(f).sharpenings) != 3 or size(f) > 16:
            continue
        done += 1
        res = sat(f)
        assert res.is_sat == psl_brute_sat(f), to_text(f)
        if res.is_sat:
            sat_seen += 1
            model, designated = _lift_psl_model(res, f)
            assert evaluate(model, designated, 0, f), to_text(f)
            # false atoms are columns of the grid, not fresh propositions
            assert all(v <= {"p"} for v in res.model.valuation.values())
    assert 0 < sat_seen < done


def test_sat_skips_partitions_whose_true_atoms_entail_a_false_one(monkeypatch):
    families = []
    real = psl.sat_normal_form

    def recording(atoms, body, **kwargs):
        families.append(family_for(sharpening_closure([(a.left, a.right) for a in atoms], [S, T, U])))
        return real(atoms, body, **kwargs)

    monkeypatch.setattr(psl, "sat_normal_form", recording)
    # unsat, so every partition is walked; s <= t and t <= u entail s <= u
    f = parse("p & !p & (@s <= @t | @t <= @u | @s <= @u)")
    assert not sat(f).is_sat
    assert len(families) == 7 and len(set(families)) == 7


def test_root_failures_spend_no_grid_nodes():
    # the conjunction rules out every designated valuation but the last at
    # the root, which one sweep shows before the search spends a node
    props = [f"p{i}" for i in range(1, 11)]
    conjuncts = [Prop(p) for p in props]
    family = family_for(sharpening_closure([], {UNIVERSAL}))
    grid = CompiledGrid(family, props, conjuncts, [10**6, 10**6])
    budget = [1, 1]
    model = grid_model_for(grid, conjuncts, 1, budget)
    assert model.valuation == {(0, 1): frozenset(props)}
    assert budget[0] == 0


def ring(k: int) -> str:
    """Unsat: each p_i is seen without p_{i+1} at @s, yet p0 never holds."""
    parts = [f"<@s>(p{i} & !p{(i + 1) % k})" for i in range(k)]
    return " & ".join(parts + ["[@*]!p0"])


@pytest.mark.parametrize("k", [3, 4, 5, 6])
def test_ring_is_unsat_within_a_small_node_budget(k):
    # without propagating the box conjunct, k=4 takes about 536k nodes
    assert not sat(parse(ring(k)), node_limit=1_000).is_sat


def test_sat_node_limit_is_loud():
    with pytest.raises(SearchLimitError, match="grid search exceeded the node limit of 1"):
        sat(parse("<@s> p & <@s> !p & <@t> q"), node_limit=1)


def _expand(present, dv, cols, v_count, n, plist):
    """The grid valuation of a presence assignment: each column lists its
    present valuations in order (the designated one first in column 0) and
    repeats its first one to fill ``n`` rows."""
    valuation = {}
    for c in range(cols):
        chosen = [v for v in range(v_count) if present >> (c * v_count + v) & 1]
        if c == 0:
            chosen = [dv] + [v for v in chosen if v != dv]
        rows = (chosen + [chosen[0]] * n)[:n]
        for j, v in enumerate(rows, start=1):
            valuation[(c, j)] = frozenset(p for i, p in enumerate(plist) if v >> i & 1)
    return valuation


def _first_valid_assignment(body, family, n, plist):
    """Brute force in the grid search's order: designated valuation first,
    then every other type absent before present, the lowest type deciding
    first; the first assignment whose grid satisfies the body wins."""
    v_count = 1 << len(plist)
    cols = len(family)
    cap = min(n, v_count)
    for dv in range(v_count):
        order = [t for t in range(cols * v_count) if t != dv]
        for bits in range(1 << len(order)):
            present = 1 << dv
            for k, t in enumerate(order):
                if bits >> (len(order) - 1 - k) & 1:
                    present |= 1 << t
            counts = [(present >> (c * v_count) & ((1 << v_count) - 1)).bit_count() for c in range(cols)]
            if any(not 1 <= m <= cap for m in counts):
                continue
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
        atoms, body = split_for_grid(conj(parts))
        universe = vocab(conj(list(atoms) + [body])).standpoints
        family = family_for(sharpening_closure([(a.left, a.right) for a in atoms], universe))
        props = tuple(sorted(vocab(body).props))
        if len(family) > 2 or not 1 <= len(props) <= 2:
            continue
        done += 1
        modal += any(isinstance(c, (DiamondS, BoxS)) for c in psl._conjuncts(body))
        n = rng.randint(1, 3)
        expected = _first_valid_assignment(body, family, n, list(props))
        sat_count += expected is not None
        parts = psl._conjuncts(body)
        grid = CompiledGrid(family, props, parts, [10**6, 10**6])
        found = grid_model_for(grid, parts, n, [10**6, 10**6])
        assert (found and found.valuation) == expected, to_text(body)
    # the corpus exercises both verdicts and the propagation rules
    assert 40 < sat_count < 110 and modal > 120


def test_conjuncts_of_a_deep_chain():
    chain = Prop("p0")
    for i in range(1, 5_000):
        chain = And(chain, Prop(f"p{i}"))
    parts = psl._conjuncts(chain)
    assert parts == [Prop(f"p{i}") for i in range(5_000)]
    assert psl._count_diamonds(chain) == 0


def test_consistency_rejects_temporal_members():
    with pytest.raises(TemporalOperatorError):
        sat(parse("X p"))


# ---------------------------------------------------------------------------
# Externally fixed grids and serialization

def test_grid_model_for_fixed_width():
    universe = {S, UNIVERSAL}
    rel = sharpening_closure([], universe)
    fam = family_for(rel)
    parts = [parse("<@s> p"), parse("!p"), parse("[@s] p")]
    grid = CompiledGrid(fam, ["p"], parts, [10**6, 10**6])
    model = grid_model_for(grid, parts[:2], 4, [10**6, 10**6])
    assert model is not None
    assert model.n == 4
    assert holds(model, parse("<@s> p & !p"))
    # width too small for two forced-apart witnesses
    tight = grid_model_for(grid, parts[2:], 1, [10**6, 10**6])
    assert tight is not None
    with pytest.raises(ValueError, match="outside the grid universe"):
        CompiledGrid(fam, ["p"], [parse("<@t> p")], [10**6, 10**6])


def test_psl_witness_json_shape():
    res = sat(parse("<@s> p"))
    blob = psl_model_to_json(res.model, res.designated)
    assert blob["designated"] == "0,1"
    assert blob["s_family"][0] == ["@*"]
    assert set(blob["valuation"]) == {
        f"{i},{j}" for i in range(len(res.model.family)) for j in range(1, res.model.n + 1)
    }
