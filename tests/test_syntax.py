import json
import random
import time
from pathlib import Path

import pytest

from conftest import S, T, iter_models, random_dag, random_formula, reference_closure, reference_vocab

from sltl.semantics import check_product_formula, evaluate
from sltl.syntax import (
    _FIELDS,
    And,
    BOTTOM,
    BoxS,
    DiamondS,
    Formula,
    Fragment,
    Next,
    Not,
    Or,
    ParseError,
    Prop,
    Sharper,
    Standpoint,
    TOP,
    UNIVERSAL,
    Until,
    children,
    classify,
    closure,
    conj,
    disj,
    eventually,
    fold,
    is_nnf,
    neg,
    nodes,
    parse,
    program,
    rebuild,
    simplify,
    size,
    subformulas,
    to_nnf,
    to_text,
    vocab,
)
from sltl.translate import (
    _occurring_standpoints,
    recurring_counter_formula,
    translate_standpoints_away,
    until_to_strict,
)


def test_parse_basic_shapes():
    assert parse("p & X q") == And(Prop("p"), Next(Prop("q")))
    assert parse("@it <= @*") == Sharper(Standpoint("it"), UNIVERSAL)
    assert parse("<@s> p") == DiamondS(S, Prop("p"))
    assert parse("[@*] p") == BoxS(UNIVERSAL, Prop("p"))
    assert parse("true U p") == Until(TOP, Prop("p"))


def test_parse_modal_implication_expands_sugar():
    f = parse("[@*](G !malf -> test)")
    g_not_malf = neg(Until(TOP, Prop("malf")))
    assert f == BoxS(UNIVERSAL, Or(neg(g_not_malf), Prop("test")))


def test_parse_precedence():
    assert parse("!p & q") == And(Not(Prop("p")), Prop("q"))
    assert parse("p | q & r") == Or(Prop("p"), And(Prop("q"), Prop("r")))
    assert parse("X p U q") == Until(Next(Prop("p")), Prop("q"))
    assert parse("p U q U r") == Until(Prop("p"), Until(Prop("q"), Prop("r")))
    assert parse("p -> q -> r") == parse("p -> (q -> r)")
    assert parse("p & @s <= @t") == And(Prop("p"), Sharper(S, T))


def test_parse_plain_modalities_are_universal():
    assert parse("<> p") == DiamondS(UNIVERSAL, Prop("p"))
    assert parse("[] p") == BoxS(UNIVERSAL, Prop("p"))


def test_double_negation_collapses():
    assert parse("!!p") == Prop("p")
    assert neg(neg(Prop("p"))) == Prop("p")
    with pytest.raises(ValueError):
        Not(Not(Prop("p")))


@pytest.mark.parametrize(
    "text,fragment_of_error",
    [
        ("p &", "expected a formula"),
        ("(p | q", "unbalanced parentheses"),
        ("p R q", "release operator"),
        ("R p", "release operator"),
        ("[p] q", "expected '@'"),
        ("p # q", "unexpected character"),
        ("$x", "reserved"),
        ("p q", "after the formula"),
    ],
)
def test_parse_errors(text, fragment_of_error):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert fragment_of_error in str(err.value)


def test_parse_error_positions():
    with pytest.raises(ParseError) as err:
        parse("p &\n & q")
    assert err.value.line == 2
    with pytest.raises(ParseError) as err:
        parse("p # q")
    assert (err.value.line, err.value.col) == (1, 3)


def test_parse_builds_one_leaf_per_name():
    # every Prop and Standpoint of one name is one object, in modalities
    # and sharpening atoms too, and "*" is the universal standpoint
    f = parse("p & <@s> (p U [@s] q) & (@s <= @t) & [@t] (q | @s) & <> p & [@*] q & (@t <= @*)")
    by_name = {}
    for g in nodes(f):
        if isinstance(g, Prop):
            leaves = (g,)
        elif isinstance(g, Sharper):
            leaves = (g.left, g.right)
        elif isinstance(g, (DiamondS, BoxS)):
            leaves = (g.standpoint,)
        else:
            leaves = ()
        for leaf in leaves:
            assert by_name.setdefault((type(leaf), leaf.name), leaf) is leaf, leaf
    assert sorted(name for _, name in by_name) == ["*", "@s", "p", "q", "s", "t"]
    assert by_name[Standpoint, "*"] is UNIVERSAL


def test_reserved_names_accepted_when_allowed():
    f = parse("$u0 & p", allow_reserved=True)
    assert f == And(Prop("$u0"), Prop("p"))


def test_print_parse_round_trip_on_corpus():
    rng = random.Random(2024)
    for _ in range(400):
        f = random_formula(rng, rng.randint(0, 5))
        assert parse(to_text(f)) == f


def test_round_trip_covers_guard_and_reserved_names():
    f = And(Prop("@s"), Not(Prop("$u1")))
    assert parse(to_text(f), allow_reserved=True) == f


def test_parse_outcomes_match_the_golden_file():
    # ``data/make_parse_outcomes.py`` wrote the file: every input's printed
    # formula or error, with ``allow_reserved`` off and on
    def outcome(text: str, allow_reserved: bool) -> str:
        try:
            return to_text(parse(text, allow_reserved))
        except ParseError as err:
            return str(err)

    path = Path(__file__).parent / "data" / "parse_outcomes.txt"
    rows = [json.loads(line) for line in path.read_text(encoding="ascii").splitlines()]
    assert len(rows) == 1_000
    wrong = [
        (text, plain, reserved)
        for text, plain, reserved in rows
        if (outcome(text, False), outcome(text, True)) != (plain, reserved)
    ]
    assert wrong == []


_DEEP = 10_000


@pytest.mark.parametrize(
    "text,size_of,depth",
    [
        ("X " * _DEEP + "p", _DEEP + 1, _DEEP + 1),
        ("(" * _DEEP + "p" + ")" * _DEEP, 1, 1),
        (" U ".join(["p"] * _DEEP), 2 * _DEEP - 1, _DEEP),
        # each ``->`` adds an Or and a Not
        (" -> ".join(["p"] * _DEEP), 3 * _DEEP - 2, _DEEP + 1),
    ],
    ids=["next", "parentheses", "until", "implies"],
)
def test_parse_answers_inputs_deeper_than_the_recursion_limit(text, size_of, depth):
    started = time.perf_counter()
    f = parse(text)
    assert time.perf_counter() - started < 1
    assert size(f) == size_of
    assert fold(f, lambda g, kids: 1 + max(kids, default=0)) == depth


@pytest.mark.parametrize(
    "text",
    [
        "X " * _DEEP + "p",
        "!<@s> " * _DEEP + "p",
        " U ".join(["p"] * _DEEP),
        "(" * (_DEEP - 1) + "p" + " U p)" * (_DEEP - 1) + " U p",
        " & ".join(f"p{i}" for i in range(_DEEP)),
        "p & (p | " * _DEEP + "p" + ")" * _DEEP,
    ],
    ids=["next", "negated-diamond", "until", "left-until", "and", "and-over-or"],
)
def test_print_answers_formulas_deeper_than_the_recursion_limit(text):
    # every text is canonical: parentheses exactly where precedence needs them
    f = parse(text)
    started = time.perf_counter()
    printed = to_text(f)
    assert time.perf_counter() - started < 1
    assert printed == text


def _change_leaf(f: Formula, k: int) -> Formula:
    """``f`` with its ``k``-th leaf occurrence (in post-order) replaced by a
    proposition that occurs in no random formula.  A recursive walk over
    occurrences: ``fold`` visits a shared leaf, such as ``TOP``, once."""
    count = iter(range(size(f)))

    def walk(g):
        kids = tuple(walk(h) for h in children(g))
        if not kids and next(count) == k:
            return Prop("r")
        return rebuild(g, kids)

    return walk(f)


def test_node_invariants_on_random_formulas():
    for seed in range(300):
        f = random_formula(random.Random(seed), 4, max_sharpenings=2)
        g = random_formula(random.Random(seed), 4, max_sharpenings=2)
        assert f == g and hash(f) == hash(g)
        assert size(f) == len(list(nodes(f)))
        leaves = sum(1 for h in nodes(f) if not children(h))
        changed = _change_leaf(g, random.Random(seed).randrange(leaves))
        assert changed != f and f != changed
        for h in nodes(f):
            for name in (*_FIELDS[type(h)], "_hash", "_size"):
                with pytest.raises(AttributeError):
                    setattr(h, name, TOP)
                with pytest.raises(AttributeError):
                    delattr(h, name)
        with pytest.raises(AttributeError):
            S.name = "t"
        assert parse(to_text(f)) == f


@pytest.mark.parametrize(
    "wrap",
    [
        lambda f, i: DiamondS(S, f),
        lambda f, i: And(f, Prop(f"q{i % 7}")),
        lambda f, i: Until(Prop(f"q{i % 7}"), f),
    ],
    ids=["diamond", "left-and", "right-until"],
)
def test_equality_of_deep_formulas_does_not_recurse(wrap):
    def chain(bottom):
        f = bottom
        for i in range(10_000):
            f = wrap(f, i)
        return f

    a, b = chain(Prop("p")), chain(Prop("p"))
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != chain(Prop("r")) and chain(Prop("r")) != a


def test_closure_of_two_equal_deep_chains():
    # two separately parsed equal subtrees meet in the closure's member set
    chain = "<@s> " * 1_500 + "p"
    cl = closure(parse(f"({chain}) | ({chain})"))
    assert len(cl) == 2


def test_size_counts_nodes():
    assert size(Prop("p")) == 1
    assert size(parse("p U q")) == 3
    assert size(Sharper(S, T)) == 1
    assert size(parse("!(p & q)")) == 4


# ---------------------------------------------------------------------------
# Constant folding

def test_simplify_shapes():
    from sltl.syntax import simplify

    assert simplify(parse("X true U false & p")) == BOTTOM
    assert simplify(parse("p & true")) == Prop("p")
    assert simplify(parse("false U q")) == Prop("q")
    assert simplify(parse("p U true")) == TOP
    assert simplify(parse("<@s> false | [@t] true")) == TOP
    assert simplify(Sharper(S, S)) == TOP
    assert simplify(Sharper(S, UNIVERSAL)) == TOP
    assert simplify(Sharper(UNIVERSAL, S)) == Sharper(UNIVERSAL, S)
    assert simplify(parse("p U q")) == parse("p U q")


def test_simplify_is_equivalent_on_small_models():
    from sltl.syntax import simplify

    rng = random.Random(303)
    done = 0
    while done < 30:
        f = random_formula(rng, 4, props=("p",), sps=(S,))
        g = simplify(f)
        if f == g:
            continue
        done += 1
        assert _equivalent_on_small_models(f, g, 2)


# ---------------------------------------------------------------------------
# Negation normal form

def test_nnf_de_morgan_and_modal_duals():
    assert to_nnf(parse("!(p & q)")) == Or(Not(Prop("p")), Not(Prop("q")))
    assert to_nnf(parse("!<@s> p")) == BoxS(S, Not(Prop("p")))
    assert to_nnf(parse("![@s] p")) == DiamondS(S, Not(Prop("p")))
    assert to_nnf(parse("!X p")) == Next(Not(Prop("p")))


def test_nnf_shape_predicate():
    rng = random.Random(5)
    for _ in range(200):
        f = random_formula(rng, rng.randint(0, 4))
        assert is_nnf(to_nnf(f))


def test_nnf_answers_formulas_deeper_and_wider_than_the_recursion_limit():
    deep = parse("!" + "X " * _DEEP + "(p & q)")
    want = Or(Not(Prop("p")), Not(Prop("q")))
    for _ in range(_DEEP):
        want = Next(want)
    wide = parse(" & ".join(f"F p{i}" for i in range(2_000)))
    started = time.perf_counter()
    got_deep, got_wide = to_nnf(deep), to_nnf(Not(wide))
    assert time.perf_counter() - started < 1
    assert got_deep == want
    each = [to_nnf(Not(eventually(Prop(f"p{i}")))) for i in range(2_000)]
    assert to_text(got_wide) == to_text(disj(each)) and is_nnf(got_wide)


def _equivalent_on_small_models(f: Formula, g: Formula, max_traces: int) -> bool:
    voc_props = vocab(f).props | vocab(g).props
    voc = vocab(And(f, g)) if voc_props else vocab(f)
    sps = sorted(
        (s for s in voc.standpoints if not s.is_universal), key=lambda s: s.name
    )
    for m in iter_models(voc_props, max_traces, 2, 2, sps):
        length = m.prefix_len + 2 * m.period_len
        for tid in m.traces:
            for i in range(length):
                if evaluate(m, tid, i, f) != evaluate(m, tid, i, g):
                    return False
    return True


def test_nnf_until_dual_is_equivalent():
    # the release-free rewrite of a negated Until, checked against every
    # 1-trace model of bounded shape over the formula's vocabulary
    f = parse("!(p U q)")
    assert _equivalent_on_small_models(f, to_nnf(f), 1)


def test_nnf_equivalence_on_corpus():
    rng = random.Random(77)
    done = 0
    while done < 25:
        f = random_formula(rng, 3, props=("p",), sps=(S,))
        if len(vocab(f).props) > 1:
            continue
        assert _equivalent_on_small_models(f, to_nnf(f), 2)
        done += 1


# ---------------------------------------------------------------------------
# Closure sets

def test_closure_smallest_case():
    cl = closure(Prop("p"))
    assert cl.formulas == (Prop("p"),)
    assert len(cl) == 1
    # a negation or a constant is a member only as a subformula of the seed
    assert set(closure(parse("!p")).formulas) == {Prop("p"), Not(Prop("p"))}
    assert set(closure(parse("F p")).formulas) == {TOP, Prop("p"), parse("F p"), Next(parse("F p"))}


def test_closure_has_next_companions_of_until():
    f = parse("p U q")
    cl = closure(f)
    assert set(cl.formulas) == {Prop("p"), Prop("q"), f, Next(f)}
    assert neg(Next(f)) not in cl


@pytest.mark.parametrize(
    "seed,members",
    [
        (conj([Prop("p")] + [Prop("q")] * (_DEEP - 1)), _DEEP + 1),
        (conj([eventually(Prop(f"p{i}")) for i in range(2_000)]), 8_000),
    ],
    ids=["deep-and", "wide-eventually"],
)
def test_closure_orders_deep_and_wide_seeds_in_linear_time(seed, members):
    # the order key reads positions in the seed, not printed text, whose
    # length grows with the depth of a chain
    started = time.perf_counter()
    cl = closure(seed)
    assert time.perf_counter() - started < 1
    assert len(cl) == members and cl.formulas[-1] is seed


def _outside_and_beneath(f):
    """The subformulas of ``f`` outside modal operands, and those inside."""
    if isinstance(f, (DiamondS, BoxS)):
        return {f}, set(subformulas(f.operand))
    outside, beneath = {f}, set()
    for g in children(f):
        o, b = _outside_and_beneath(g)
        outside |= o
        beneath |= b
    return outside, beneath


def test_closure_invariants_on_corpus():
    rng = random.Random(11)
    for _ in range(150):
        f = random_formula(rng, rng.randint(0, 5), max_sharpenings=2)
        cl = closure(f)
        members = set(cl.formulas)
        outside, beneath = _outside_and_beneath(f)
        atoms = {g for g in subformulas(f) if isinstance(g, Sharper)}
        base = outside | atoms
        base |= {Next(g) for g in base if isinstance(g, Until)}
        # the modal formulas are leaves: nothing beneath them is a member
        # unless it also occurs outside, or is a sharpening atom; no
        # negation or constant is added
        assert members == base, to_text(f)
        for g in members:
            if isinstance(g, Until):
                assert Next(g) in members
        assert len(cl) == len(cl.formulas) == len(members)
        # the distinct subformulas and one companion per Until
        assert len(cl) <= 2 * size(f)
        # deterministic ordering: by size, then by the last occurrence in
        # the seed's pre-order, where a companion missing from the seed
        # takes its Until's; no two members share a key
        last = {g: i for i, g in enumerate(nodes(f))}
        keys = [(size(g), last[g] if g in last else last[g.operand]) for g in cl.formulas]
        assert keys == sorted(keys) and len(set(keys)) == len(keys)


# ---------------------------------------------------------------------------
# Fragments

def test_classify_examples():
    assert classify(parse("[@*](G !malf -> test)")) is Fragment.FULL_SLTL
    assert classify(parse("G([@*]!malf) -> [@*]test")) is Fragment.LTL_PSL
    assert classify(parse("p U q")) is Fragment.PURE_LTL
    assert classify(parse("<@s> p & @s <= @t")) is Fragment.PSL
    assert classify(parse("p & q")) is Fragment.PSL


def _erase_temporal(f: Formula) -> Formula:
    if isinstance(f, Next):
        return _erase_temporal(f.operand)
    if isinstance(f, Until):
        return _erase_temporal(f.right)
    if isinstance(f, Not):
        return neg(_erase_temporal(f.operand))
    if isinstance(f, And):
        return And(_erase_temporal(f.left), _erase_temporal(f.right))
    if isinstance(f, Or):
        return Or(_erase_temporal(f.left), _erase_temporal(f.right))
    if isinstance(f, DiamondS):
        return DiamondS(f.standpoint, _erase_temporal(f.operand))
    if isinstance(f, BoxS):
        return BoxS(f.standpoint, _erase_temporal(f.operand))
    return f


def test_classify_monotone_under_temporal_erasure():
    rng = random.Random(3)
    for _ in range(150):
        f = random_formula(rng, 4, mode="ltl_psl")
        if classify(f) is Fragment.LTL_PSL:
            assert classify(_erase_temporal(f)) in (Fragment.PSL,)


# ---------------------------------------------------------------------------
# Vocabulary

def _reference_verdicts(f: Formula) -> tuple:
    """The fragment, the modal standpoints and the trace-independence of
    ``f``, computed bottom-up rather than by ``vocab``'s scan of modal
    scopes: per subformula, whether it has a temporal operator, a
    standpoint construct, a temporal operator under a modality and a
    proposition outside every modality, and its modal standpoints."""

    def step(g, kids):
        modal_op = isinstance(g, (DiamondS, BoxS))
        temporal = isinstance(g, (Next, Until)) or any(k[0] for k in kids)
        standpoint = isinstance(g, (DiamondS, BoxS, Sharper)) or any(k[1] for k in kids)
        under = any(k[2] for k in kids) or modal_op and kids[0][0]
        free = not modal_op and (isinstance(g, Prop) or any(k[3] for k in kids))
        modal = frozenset({g.standpoint} if modal_op else ()).union(*(k[4] for k in kids))
        return temporal, standpoint, under, free, modal

    temporal, standpoint, under, free, modal = fold(f, step)
    if not temporal:
        fragment = Fragment.PSL
    elif not standpoint:
        fragment = Fragment.PURE_LTL
    elif not under:
        fragment = Fragment.LTL_PSL
    else:
        fragment = Fragment.FULL_SLTL
    return fragment, modal, not free


def _vocab_verdicts(v) -> tuple:
    return v.fragment, v.modal, v.trace_independent


@pytest.mark.parametrize("mode", ["psl", "ltl", "ltl_psl", "sltl"])
def test_vocab_verdicts_match_the_bottom_up_reference(mode):
    rng = random.Random(23)
    fragments = set()
    for _ in range(300):
        f = random_formula(rng, rng.randint(1, 5), props=("p", "q"), sps=(S, T), mode=mode)
        assert _vocab_verdicts(vocab(f)) == _reference_verdicts(f), to_text(f)
        assert classify(f) is vocab(f).fragment
        fragments.add(classify(f))
    # the generator reaches the fragment it is named after
    assert {"psl": Fragment.PSL, "ltl": Fragment.PURE_LTL, "ltl_psl": Fragment.LTL_PSL,
            "sltl": Fragment.FULL_SLTL}[mode] in fragments


def test_vocab_examples():
    v = vocab(parse("p & <@s> q"))
    assert v.props == {"p", "q"}
    assert v.standpoints == {S, UNIVERSAL}
    v2 = vocab(Sharper(S, T))
    assert v2.standpoints == {S, T, UNIVERSAL} and not v2.modal
    assert vocab(parse("p & q")).standpoints == frozenset()


def test_vocab_of_counter_demand():
    v = vocab(recurring_counter_formula(2))
    assert v.props == {"p", "p1", "p2"}
    assert v.standpoints == {Standpoint("s"), UNIVERSAL}


# ---------------------------------------------------------------------------
# Walks without recursion

_DEPTH = 5_000


def _deep_chain() -> Formula:
    """``X`` nested 5,000 deep over a modality and a sharpening atom."""
    f = And(DiamondS(S, Until(Prop("p"), Prop("q"))), Sharper(S, T))
    for _ in range(_DEPTH):
        f = Next(f)
    return f


def _wide_chain() -> Formula:
    """5,000 conjoined ``F p_i``: a left-deep And spine."""
    return conj([eventually(Prop(f"p{i}")) for i in range(_DEPTH)])


def test_nodes_visit_every_occurrence_and_fold_every_node_of_deep_formulas():
    for f in (_deep_chain(), _wide_chain()):
        assert sum(1 for _ in nodes(f)) == size(f)
        assert fold(f, lambda g, kids: 1 + sum(kids)) == size(f)
        visited = []
        fold(f, lambda g, kids: visited.append(g))
        # once per node object: the wide chain's 5,000 TOPs are one
        assert len(visited) == len({id(g) for g in nodes(f)})
        subs = subformulas(f)
        assert subs[-1] is f and len(subs) == len(set(subs))


def test_subformulas_of_one_root_are_memoised_on_it():
    f = parse("(p U <@s> q) & X (p U <@s> q) & !r")
    subs = subformulas(f)
    assert subformulas(f) is subs and subs[-1] is f
    # several roots, or known formulas, walk again and leave the memo alone
    g = parse("p U <@s> q")
    assert subformulas(f, g) is not subformulas(f, g)
    assert subformulas(f, known={g}) == [h for h in subs if h not in subformulas(g)]
    assert subformulas(f) is subs


def test_subformulas_of_several_roots_leave_out_what_lies_only_beneath_known_ones():
    rng = random.Random(5150)
    for _ in range(400):
        roots = [random_formula(rng, rng.randint(0, 5), mode=rng.choice(["sltl", "ltl_psl", "ltl"]))
                 for _ in range(rng.randint(1, 4))]
        # each root's own walk, one after another, the first completion kept
        everything = list(dict.fromkeys(g for f in roots for g in subformulas(f)))
        assert subformulas(*roots) == everything
        known = set(rng.sample(everything, rng.randint(0, min(5, len(everything)))))
        # what the roots reach without entering a known formula
        reached, stack = set(), list(roots)
        while stack:
            g = stack.pop()
            if g not in known and g not in reached:
                reached.add(g)
                stack.extend(children(g))
        got = subformulas(*roots, known=known)
        assert len(got) == len(set(got))
        assert set(got) == {g for g in everything if g in reached}
        position = {g: i for i, g in enumerate(got)}
        for g in got:  # children first
            assert all(c in known or position[c] < position[g] for c in children(g))


def _iff_chain(depth: int, text=lambda i: f"p{i}") -> Formula:
    """``a0 <-> (a1 <-> ... <-> a_depth)``: each ``<->`` shares its operands,
    so the chain has about 2^depth occurrences but 5 node objects a level."""
    return parse(" <-> ".join(text(i) for i in range(depth + 1)))


def _fold_every_occurrence(f: Formula, step):
    """The reference ``fold``: ``step`` once per occurrence, recursively."""
    return step(f, tuple(_fold_every_occurrence(g, step) for g in children(f)))


_ATOMS = (lambda i: f"(<@s> p{i} | X p{i} U true)", lambda i: f"(p{i} U q & [@t] false)",
          lambda i: f"(@s <= @t | !X p{i})")


def _rewrites(f: Formula) -> list[Formula]:
    guarded = translate_standpoints_away(f)
    return [simplify(f), to_nnf(f), guarded, until_to_strict(guarded)]


def test_rewrites_of_shared_subterms_equal_the_per_occurrence_reference(monkeypatch):
    # fold once per node object gives what a fold per occurrence gives
    import sltl.semantics
    import sltl.syntax
    import sltl.translate
    for depth in range(11):
        f = _iff_chain(depth, _ATOMS[depth % 3])
        got = _rewrites(f)
        with monkeypatch.context() as m:
            for module in (sltl.syntax, sltl.translate, sltl.semantics):
                m.setattr(module, "fold", _fold_every_occurrence)
            want = _rewrites(f)
        assert got == want, depth


def test_rewrites_of_a_deep_iff_chain_are_linear():
    plain = _iff_chain(40)
    assert simplify(plain) is plain  # nothing folds
    for text in _ATOMS:
        f = _iff_chain(40, text)
        started = time.perf_counter()
        _rewrites(f)
        assert time.perf_counter() - started < 1


def test_vocab_and_closure_of_shared_dags_match_the_occurrence_scans():
    # the walk visits each distinct subformula once and gives what a scan
    # of every occurrence gave, on DAGs whose subterm objects are shared
    # and whose equal subterms are sometimes distinct objects
    rng = random.Random(8080)
    shared = copies = 0
    fragments = set()
    for _ in range(3000):
        f = random_dag(rng, rng.randint(1, 14))
        assert vocab(f) == reference_vocab(f), to_text(f)
        assert closure(f).formulas == reference_closure(f), to_text(f)
        distinct = len(subformulas(f))
        shared += size(f) > distinct
        copies += len({id(g) for g in nodes(f)}) > distinct
        fragments.add(classify(f))
    assert shared >= 2000 and copies >= 400 and len(fragments) == 4, (shared, copies)


def test_program_gives_each_subformula_the_positions_of_its_children():
    rng = random.Random(77)
    for _ in range(300):
        f = random_dag(rng, rng.randint(0, 10))
        subs, left, right = program(f)
        assert program(f) is program(f) and subformulas(f) is subs and subs[-1] is f
        for i, (g, a, b) in enumerate(zip(subs, left, right)):
            kids = [c for c in (a, b) if c >= 0]
            assert [subs[c] for c in kids] == list(children(g)), to_text(g)
            assert all(c < i for c in kids) and (b < 0 or a >= 0)


def test_a_40_link_iff_chain_classifies_and_closes_at_once():
    # about 2^40 occurrences, five node objects a level; each check walks
    # a chain of its own, so neither reads a walk the other memoised
    started = time.perf_counter()
    assert classify(_iff_chain(40)) is Fragment.PSL
    assert time.perf_counter() - started < 0.1
    phi = simplify(_iff_chain(40))
    started = time.perf_counter()
    cl = closure(phi)
    assert time.perf_counter() - started < 0.1
    # no modality and no Until: every subformula is a member
    assert set(cl.formulas) == set(subformulas(phi)) and cl.formulas[-1] is phi


def test_nodes_is_left_to_right_pre_order_and_fold_post_order():
    f = parse("(p U q) & !r")
    assert [to_text(g) for g in nodes(f)] == ["p U q & !r", "p U q", "p", "q", "!r", "r"]
    seen = []
    fold(f, lambda g, kids: seen.append(to_text(g)))
    assert seen == ["p", "q", "p U q", "r", "!r", "p U q & !r"]


def test_syntax_walks_on_deep_formulas():
    deep, wide = _deep_chain(), _wide_chain()
    assert classify(deep) is Fragment.FULL_SLTL
    assert classify(wide) is Fragment.PURE_LTL
    for f in (deep, wide):
        assert _vocab_verdicts(vocab(f)) == _reference_verdicts(f)
    assert is_nnf(deep) and is_nnf(wide)
    v = vocab(deep)
    assert v.props == {"p", "q"}
    assert v.standpoints == {S, T, UNIVERSAL}
    assert v.modal == {S} and v.trace_independent
    w = vocab(wide)
    assert len(w.props) == _DEPTH
    assert w.modal == frozenset() and not w.trace_independent
    for f in (deep, wide):
        g = simplify(f)
        assert size(g) == size(f) and classify(g) is classify(f)


def test_translate_walks_on_deep_formulas():
    deep, wide = _deep_chain(), _wide_chain()
    assert _occurring_standpoints(deep) == [S, T] and _occurring_standpoints(wide) == []
    g = translate_standpoints_away(deep)
    assert vocab(g).modal == {UNIVERSAL} and {"@s", "@t"} <= vocab(g).props
    h = until_to_strict(g)
    assert "$u0" in vocab(h).props and classify(h) is Fragment.FULL_SLTL
    h = until_to_strict(wide)
    assert f"$u{_DEPTH - 1}" in vocab(h).props and classify(h) is Fragment.FULL_SLTL


def test_semantics_and_psl_walks_on_deep_formulas():
    deep, wide = _deep_chain(), _wide_chain()
    # the first offender in pre-order is the modality, not the atom below it
    with pytest.raises(ValueError, match="modality over @s"):
        check_product_formula(deep)
    check_product_formula(wide)
    assert vocab(deep).trace_independent and not vocab(wide).trace_independent
