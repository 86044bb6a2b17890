import random

import pytest

from conftest import S, T, psl_brute_sat, random_formula

from sltl import psl
from sltl.psl import (
    PSLModel,
    SFamily,
    SatResult,
    TemporalOperatorError,
    UNREPRESENTABLE,
    family_for,
    grid_model_for,
    psl_model_to_json,
    sat,
    sat_normal_form,
    sharpening_closure,
    split_for_grid,
)
from sltl.semantics import evaluate
from sltl.solver import _lift_psl_model
from sltl.syntax import (
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
    res = split_for_grid(parse("@s <= @t & <@s> p"))
    assert res is not UNREPRESENTABLE
    atoms, body = res
    assert Sharper(S, T) in atoms
    assert Sharper(UNIVERSAL, UNIVERSAL) in atoms
    assert body == DiamondS(S, Prop("p"))


def test_split_pushes_negations_into_the_body():
    atoms, body = split_for_grid(parse("<@s> !(p & q)"))
    assert atoms == [Sharper(UNIVERSAL, UNIVERSAL)]
    assert body == DiamondS(S, Or(Not(Prop("p")), Not(Prop("q"))))


def test_split_rejects_negated_sharpening():
    assert split_for_grid(parse("!(@s <= @t)")) is UNREPRESENTABLE
    assert split_for_grid(parse("<@s> (@s <= @t)")) is UNREPRESENTABLE


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
        norm = split_for_grid(f)
        if norm is UNREPRESENTABLE:
            continue
        atoms, body = norm
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
        norm = split_for_grid(f)
        if norm is UNREPRESENTABLE:
            continue
        atoms, body = norm
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


def test_consistency_rejects_temporal_members():
    with pytest.raises(TemporalOperatorError):
        sat(parse("X p"))


# ---------------------------------------------------------------------------
# Externally fixed grids and serialization

def test_grid_model_for_fixed_width():
    universe = {S, UNIVERSAL}
    rel = sharpening_closure([], universe)
    fam = family_for(rel)
    model = grid_model_for([parse("<@s> p"), parse("!p")], fam, 4)
    assert model is not None
    assert model.n == 4
    assert holds(model, parse("<@s> p & !p"))
    # width too small for two forced-apart witnesses
    tight = grid_model_for([parse("[@s] p")], fam, 1)
    assert tight is not None
    with pytest.raises(ValueError, match="outside the grid universe"):
        grid_model_for([parse("<@t> p")], fam, 4)


def test_psl_witness_json_shape():
    res = sat(parse("<@s> p"))
    blob = psl_model_to_json(res.model, res.designated)
    assert blob["designated"] == "0,1"
    assert blob["s_family"][0] == ["@*"]
    assert set(blob["valuation"]) == {
        f"{i},{j}" for i in range(len(res.model.family)) for j in range(1, res.model.n + 1)
    }
