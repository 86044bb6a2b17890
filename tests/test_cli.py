import io
import json
import os
import random
import subprocess
import sys
import time

import pytest

import sltl
from sltl.automaton import closure, dump_state_graph
from sltl.cli import main
from sltl.syntax import parse, to_text, vocab
from sltl.semantics import model_from_json
from sltl.solver import check_witness
from sltl.translate import simplify, sltl_to_product, until_to_strict


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_sat_exit_zero(capsys):
    code, out, _ = run(capsys, "solve", "G F p")
    assert code == 0
    assert out.startswith("sat")


def test_solve_unsat_exit_one(capsys):
    code, out, _ = run(capsys, "solve", "(p U q) & G !q")
    assert code == 1
    assert out.startswith("unsat")


def test_solve_unknown_exit_two(capsys):
    code, out, _ = run(capsys, "solve", "--bounds", "2,1,2", "G(<@s>(p & X G !p))")
    assert code == 2
    assert out.startswith("unknown")


def test_fragment_strict_exit_three(capsys):
    code, out, _ = run(capsys, "solve", "--fragment-strict", "<@s> X p")
    assert code == 3
    assert out.startswith("out_of_fragment")


def test_solve_json_output_is_pure(capsys):
    code, out, _ = run(capsys, "solve", "--json", "p | q")
    assert code == 0
    blob = json.loads(out)
    assert blob["status"] == "sat"
    assert blob["witness"]["designated"] == "t0"


def test_parse_error_reports_position(capsys):
    code, out, err = run(capsys, "solve", "p &")
    assert code == 64
    assert "1:4" in err
    assert out == ""


def test_gen_counter_round_trips(capsys):
    code, out, _ = run(capsys, "gen", "counter", "2")
    assert code == 0
    parse(out.strip())


def test_gen_rejects_zero(capsys):
    code, _, err = run(capsys, "gen", "counter", "0")
    assert code == 64
    assert "at least one bit" in err


def test_gen_phi_c_is_full_fragment(capsys):
    code, out, _ = run(capsys, "gen", "phi-c", "1")
    assert code == 0
    code2, word, _ = run(capsys, "classify", out.strip())
    assert code2 == 0
    assert word.strip() == "FullSLTL"


@pytest.mark.parametrize(
    "text,expected",
    [
        ("[@*](G !malf -> test)", "FullSLTL"),
        ("G([@*]!malf) -> [@*]test", "LtlPsl"),
        ("p U q", "PureLTL"),
        ("<@s> p", "PSL"),
    ],
)
def test_classify_words(capsys, text, expected):
    code, out, _ = run(capsys, "classify", text)
    assert code == 0
    assert out.strip() == expected


def test_translate_to_product(capsys):
    code, out, _ = run(capsys, "translate", "--to", "ptls5", "<@s> p")
    assert code == 0
    assert "<@*> @s" in out
    assert "<@*> (@s & p)" in out


def test_translate_to_sltl(capsys):
    code, out, _ = run(capsys, "translate", "--to", "sltl", "<> p")
    assert code == 0
    assert out.strip() == "<@*> p"


def test_translate_to_s5(capsys):
    code, out, _ = run(capsys, "translate", "--to", "s5", "@s <= @t")
    assert code == 0
    assert "[@*] (!@s | @t)" in out


def test_translate_guard_violation(capsys):
    code, _, err = run(capsys, "translate", "--to", "sltl", "<@s> p")
    assert code == 65
    assert "translation rejected" in err


def test_check_accepts_solver_witness(tmp_path, capsys):
    witness = tmp_path / "w.json"
    code, _, _ = run(capsys, "solve", "--witness-out", str(witness), "<@s> p & F q")
    assert code == 0
    code2, out, _ = run(capsys, "check", "<@s> p & F q", str(witness))
    assert code2 == 0
    assert "accepted" in out
    model_from_json(json.loads(witness.read_text()))


def test_check_rejects_witness_for_other_formula(tmp_path, capsys):
    witness = tmp_path / "w.json"
    run(capsys, "solve", "--witness-out", str(witness), "G !p")
    code, out, _ = run(capsys, "check", "G p", str(witness))
    assert code == 1
    assert "rejected" in out


def test_check_truncated_json_is_a_data_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"prefix_len": 1, ')
    code, _, err = run(capsys, "check", "p", str(bad))
    assert code == 65
    assert "schema" in err


@pytest.mark.parametrize("opening, closing", [("[", "]"), ('{"a": ', "}")], ids=["arrays", "objects"])
def test_check_deeply_nested_json_is_a_data_error(tmp_path, capsys, opening, closing):
    # the JSON decoder recurses once per nesting level: 100,000 levels are
    # bad data (65), not an internal error (70)
    deep = tmp_path / "deep.json"
    deep.write_text(opening * 100_000 + "1" + closing * 100_000)
    code, _, err = run(capsys, "check", "p", str(deep))
    assert code == 65, err
    assert "nested too deeply" in err and "schema" in err


def test_check_witness_that_is_not_utf8_is_a_data_error(tmp_path, capsys):
    witness = tmp_path / "w.json"
    witness.write_bytes(b'{"prefix_len": 0, "\xff": 1}')
    code, _, err = run(capsys, "check", "p", str(witness))
    assert code == 65, err
    assert "not UTF-8" in err and "schema" in err


@pytest.mark.parametrize("command", ["solve", "classify", "check"])
def test_formula_file_that_is_not_utf8_is_a_parse_error(tmp_path, capsys, command):
    # read like standard input: the undecodable byte is named, at its
    # position
    formula = tmp_path / "f.txt"
    formula.write_bytes(b"p & \xff")
    witness = tmp_path / "w.json"
    witness.write_text("{}")
    extra = [str(witness)] if command == "check" else []
    code, _, err = run(capsys, command, "--file", str(formula), *extra)
    assert code == 64, err
    assert err == "error: parse error: 1:5: unexpected byte 0xff\n"


def test_out_of_memory_is_a_resource_limit(capsys, monkeypatch):
    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr("sltl.cli.solve", exhausted)
    code, out, err = run(capsys, "solve", "<@s> p")
    assert code == 69
    assert out == "" and err == "error: out of memory\n"


def _mutants(rng: random.Random, data: bytes, opening: bytes, closing: bytes, count: int):
    """``count`` seeded mutants of ``data``: bit flips, truncations, an
    inserted 0xff or 0x00 byte, or ``data`` nested 10,000 deep."""
    for _ in range(count):
        kind = rng.randrange(5)
        out = bytearray(data)
        if kind == 0:
            for _ in range(rng.randint(1, 3)):
                out[rng.randrange(len(out))] ^= 1 << rng.randrange(8)
        elif kind == 1:
            del out[rng.randrange(len(out)):]
        elif kind in (2, 3):
            out.insert(rng.randrange(len(out) + 1), 0xFF if kind == 2 else 0x00)
        else:
            out = opening * 10_000 + out + closing * 10_000
        yield bytes(out)


def test_fuzzed_formula_and_witness_files_never_exit_70(tmp_path, capsys, monkeypatch):
    # small limits keep each solve short: a limit is exit 69, not a failure
    monkeypatch.setenv("SLTL_NODE_LIMIT", "2000")
    monkeypatch.setenv("SLTL_STATE_LIMIT", "500")
    text = "<@s> p & (q U r) & [@t] !q & (@s <= @t)"
    witness = tmp_path / "w.json"
    assert run(capsys, "solve", "--witness-out", str(witness), text)[0] == 0
    valid = witness.read_bytes()
    rng = random.Random(808)
    mutant = tmp_path / "mutant"
    for data in _mutants(rng, text.encode(), b"(", b")", 150):
        mutant.write_bytes(data)
        for command, *extra in (["solve"], ["classify"], ["check", str(witness)]):
            code, _, err = run(capsys, command, "--file", str(mutant), *extra)
            assert code != 70, (command, data[:200], err)
    for data in _mutants(rng, valid, b"[", b"]", 150):
        mutant.write_bytes(data)
        code, _, err = run(capsys, "check", text, str(mutant))
        assert code != 70, (data[:200], err)


def test_check_missing_file(tmp_path, capsys):
    code, _, err = run(capsys, "check", "p", str(tmp_path / "absent.json"))
    assert code == 66


def test_stdin_formula(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("p | !p"))
    code, out, _ = run(capsys, "solve", "-")
    assert code == 0


def test_stdin_that_is_not_utf8_is_a_parse_error(capsys, monkeypatch):
    # whatever error handler the locale gives standard input
    stdin = io.TextIOWrapper(io.BytesIO(b"p & \xff"), encoding="utf-8", errors="strict")
    monkeypatch.setattr("sys.stdin", stdin)
    code, _, err = run(capsys, "classify", "-")
    assert code == 64, err
    assert err == "error: parse error: 1:5: unexpected byte 0xff\n"
    # an argument holds such a byte as the same lone surrogate
    assert run(capsys, "solve", "p & \udcff")[2] == err


def test_usage_error_without_formula(capsys):
    code, _, err = run(capsys, "solve")
    assert code == 64
    assert "no formula" in err


def test_dump_states_writes_graph(tmp_path, capsys):
    dump = tmp_path / "graph.txt"
    code, _, _ = run(capsys, "solve", "--dump-states", str(dump), "p U q")
    assert code == 0
    text = dump.read_text()
    assert "state " in text and "edge " in text


def test_dump_states_is_the_searched_graph(tmp_path, capsys):
    # the dump shows the graph of the folded input: the atom is a rigid
    # state bit, so the Until over its negation stays in the closure
    text = "(@s <= @t) & (!(@s <= @t) U X p) & F q"
    dump = tmp_path / "graph.txt"
    code, _, _ = run(capsys, "solve", "--dump-states", str(dump), text)
    assert code == 0
    phi_d = simplify(parse(text))
    searched = io.StringIO()
    dump_state_graph(closure(phi_d), searched)
    lines = dump.read_text().splitlines()
    assert lines == searched.getvalue().splitlines()
    assert sum(ln.startswith("state ") for ln in lines) == 32
    assert sum(ln.startswith("edge ") for ln in lines) == 128


def test_dump_states_follows_the_sat_atom_truth(tmp_path, capsys):
    # the atom is false in the witness; the dump is the one graph the
    # automaton searched, whose runs all keep the atom false
    text = "!(@s <= @t) & X (p U q)"
    dump = tmp_path / "graph.txt"
    code, out, _ = run(capsys, "solve", "--json", "--dump-states", str(dump), text)
    assert code == 0
    lam = json.loads(out)["witness"]["lambda"]
    assert not set(lam["@s"]) <= set(lam["@t"])
    phi_d = simplify(parse(text))
    searched = io.StringIO()
    dump_state_graph(closure(phi_d), searched)
    lines = dump.read_text().splitlines()
    assert lines == searched.getvalue().splitlines()
    assert sum(ln.startswith("state ") for ln in lines) == 8
    assert sum(ln.startswith("edge ") for ln in lines) == 32


def test_dump_states_on_a_psl_input(tmp_path, capsys):
    # a propositional input runs on the automaton too; its states branch on
    # the atom alone and read the modal leaves off their grid models, and
    # with no next-step member each state is its only successor
    text = "<@s> p & <@s> !p & (@s <= @t | [@t] q)"
    dump = tmp_path / "graph.txt"
    code, _, err = run(capsys, "solve", "--dump-states", str(dump), text)
    assert code == 0 and err == ""
    phi_d = simplify(parse(text))
    searched = io.StringIO()
    dump_state_graph(closure(phi_d), searched)
    lines = dump.read_text().splitlines()
    assert lines == searched.getvalue().splitlines()
    states = [ln.split()[1] for ln in lines if ln.startswith("state ")]
    edges = [ln.split()[1::2] for ln in lines if ln.startswith("edge ")]
    assert (len(states), len(edges)) == (2, 2)
    assert all([s, s] in edges for s in states)


def test_dump_states_skips_full_sltl_inputs(tmp_path, capsys):
    dump = tmp_path / "graph.txt"
    code, _, err = run(capsys, "solve", "--dump-states", str(dump), "<@s> X p")
    assert code == 0
    assert "PSL, PureLTL and LtlPsl" in err and not dump.exists()


def test_solve_answers_a_three_atom_input_within_seconds(capsys):
    # one automaton over the atoms' state bits; one automaton per guessed
    # partition spent the default node budget here, in minutes, and exited 69
    text = "!@t <= @u & (X [@s] p & X (true U p)) & [@u] <@u> (q & @u <= @s)"
    started = time.perf_counter()
    code, out, _ = run(capsys, "solve", "--json", text)
    assert time.perf_counter() - started < 5
    assert code == 0
    witness = json.loads(out)["witness"]
    model, designated = model_from_json(witness)
    assert check_witness(parse(text), model, designated)


def test_import_leaves_the_thread_pool_unloaded():
    # every CLI call pays the package's import time
    src = os.path.dirname(os.path.dirname(sltl.__file__))
    probe = "import sys, sltl; print('concurrent.futures' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True,
        timeout=60, check=True,
    )
    assert done.stdout.strip() == "False"


def test_solve_json_is_independent_of_the_hash_seed():
    # the witness lambda of the automaton (LtlPsl) and grid (PSL) paths is
    # built from standpoint sets, whose iteration order follows the hash
    # seed; the last two specs take their lassos from the SCC search, which
    # keys its dicts and sets by state
    src = os.path.dirname(os.path.dirname(sltl.__file__))
    specs = [
        "(G X [@s] (true | (@s <= @t))) & (![@*] p) & (true)",
        "(<@t> [@s] p) & (p) & (!<@t> [@*] (@s <= @t))",
        "G F p & G F !p & (q U r)",
        "G F <@s> p & G F [@s] !p & (q U <@t> !q)",
    ]
    for spec in specs:
        outs = []
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)
            done = subprocess.run(
                [sys.executable, "-m", "sltl.cli", "solve", "--json", spec],
                env=env, capture_output=True, text=True, timeout=60,
            )
            assert done.returncode == 0, done.stderr
            outs.append(done.stdout)
        assert outs[0] == outs[1], spec


def test_grid_search_deeper_than_the_recursion_limit(capsys):
    # 1,024 types, and the absent-first search meets its refutation about
    # 1,000 levels deep
    body = " | ".join(f"p{i}" for i in range(1, 10))
    code, _, err = run(capsys, "solve", f"!p0 & <@*>(p0 & ({body}))")
    assert code in (0, 1), err


@pytest.mark.parametrize("option", [["--jobs", "2"], ["--symmetry"]])
def test_removed_solve_options_are_usage_errors(capsys, option):
    code, _, _ = run(capsys, "solve", *option, "p U q")
    assert code == 64


@pytest.mark.parametrize("count", [40, 300])
def test_grid_search_refuses_more_types_than_its_budget(capsys, count):
    # 2^40 valuation types cannot be listed (MemoryError), 2^300 cannot be
    # counted in a machine word (OverflowError)
    spec = " & ".join(f"<@s> p{i}" for i in range(count))
    code, _, err = run(capsys, "solve", spec)
    assert code == 69, err
    assert "grid search" in err
    # refused before any node ran: the message names the grid's size
    assert f"refused a grid of 2 x 2^{count} types" in err
    assert "at node" not in err


def test_classify_wider_than_the_recursion_limit(capsys):
    spec = " & ".join(f"F p{i}" for i in range(2_000))
    code, out, err = run(capsys, "classify", spec)
    assert code == 0, err
    assert out.strip() == "PureLTL"


def test_solve_wider_than_the_recursion_limit(capsys):
    # one branch member per F p_i: the state enumeration walks them with a
    # loop, not a frame each, and reaches the grid, which refuses its 2^600
    # types with exit 69 (resource limit) rather than 70 (internal error)
    spec = " & ".join(f"F p{i}" for i in range(600))
    code, _, err = run(capsys, "solve", spec)
    assert code == 69, err
    assert "grid search" in err
    assert "refused a grid of 1 x 2^600 types" in err
    assert "at node" not in err


def test_grid_refusal_stays_at_the_first_gridless_state(capsys):
    # no state searches a grid, yet the first one that skips it is refused
    # as the grid of 2^30 types would have been, before the enumeration runs
    # to its state limit
    spec = " & ".join(f"F p{i}" for i in range(30))
    code, _, err = run(capsys, "solve", spec)
    assert code == 69, err
    assert "refused a grid of 1 x 2^30 types" in err
    assert "at node" not in err


def test_bounded_search_wider_than_the_recursion_limit(capsys):
    # 600 propositions give a stratum at least 600 cells: the bounded
    # search walks them with a loop, not a frame each, and finds a model
    body = " & ".join(f"p{i}" for i in range(600))
    code, out, err = run(capsys, "solve", f"<@s> X ({body})")
    assert code == 0, err
    assert out.startswith("sat")


def test_engine_compiles_wider_than_the_recursion_limit(capsys):
    # 1,600 disjuncts nest 1,600 deep: the interval engine compiles them
    # with a loop, not a frame each
    body = " | ".join(["p", "q"] * 800)
    code, out, err = run(capsys, "solve", f"!p & !q & ({body})")
    assert code == 1, err
    assert out.startswith("unsat")


@pytest.mark.parametrize(
    "text",
    [
        " & ".join(["p"] + ["q"] * 1_499),
        "<@s> " * 1_500 + "p",
        " | ".join(["p", "q"] * 799 + ["p", "X p"]),
        "<@s> " * 10_000 + "p",
    ],
    ids=["and-1500", "diamond-1500", "or-1600", "diamond-10000"],
)
def test_witness_check_deeper_than_the_recursion_limit(tmp_path, capsys, text):
    # the witness check evaluates one distinct subformula after another in
    # a loop, not a frame per nesting level, both in solve and in check
    witness = tmp_path / "w.json"
    started = time.perf_counter()
    code, out, err = run(capsys, "solve", "--witness-out", str(witness), text)
    assert time.perf_counter() - started < 1
    assert code == 0, err
    assert out.startswith("sat")
    code, out, err = run(capsys, "check", text, str(witness))
    assert code == 0, err
    assert out.strip() == "witness accepted"


@pytest.mark.parametrize("target, translate", [
    ("strict-until", until_to_strict), ("ptls5", sltl_to_product),
])
def test_translate_wider_than_the_recursion_limit(capsys, target, translate):
    # the translation is printed by a loop, not by a walk per nesting level
    spec = " & ".join(f"F p{i}" for i in range(2_000))
    started = time.perf_counter()
    code, out, err = run(capsys, "translate", "--to", target, spec)
    assert time.perf_counter() - started < 1
    assert code == 0, err
    assert out.strip() == to_text(translate(parse(spec)))


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("X " * 10_000 + "p", "PureLTL"),
        ("(" * 10_000 + "p" + ")" * 10_000, "PSL"),
        (" U ".join(["p"] * 10_000), "PureLTL"),
        (" -> ".join(["p"] * 10_000), "PSL"),
    ],
    ids=["next", "parentheses", "until", "implies"],
)
def test_classify_deeper_than_the_recursion_limit(capsys, text, fragment):
    started = time.perf_counter()
    code, out, err = run(capsys, "classify", text)
    assert time.perf_counter() - started < 1
    assert code == 0, err
    assert out.strip() == fragment


def test_exit_codes_match_verdicts_on_regression_corpus(capsys):
    corpus = {
        "G F p": 0,
        "p | !p": 0,
        "<@s> p & <@s> !p": 0,
        "!(@s <= @t)": 0,
        "(p U q) & G !q": 1,
        "F G p & G F !p": 1,
        "(@s <= @t) & !(@s <= @t) & X p": 1,
        "p & !p": 1,
    }
    for text, expected in corpus.items():
        code, _, _ = run(capsys, "solve", text)
        assert code == expected, text


def test_env_node_limit(capsys, monkeypatch):
    monkeypatch.setenv("SLTL_NODE_LIMIT", "2")
    code, _, err = run(capsys, "solve", "--bounds", "2,1,2", "<@s> X p & [@s] X !p")
    assert code == 69
    assert "node limit" in err and "bounded search" in err
    # an input with a one-cell model answers before any search starts
    code, out, _ = run(capsys, "solve", "--bounds", "2,1,2", "<@s> X p")
    assert code == 0 and out.startswith("sat")


def test_env_node_limit_bounds_the_grid_search(capsys, monkeypatch):
    # a grid of 16 types, past the tables' cap: its walk takes more than
    # the one node a table search takes
    monkeypatch.setenv("SLTL_NODE_LIMIT", "1")
    code, _, err = run(capsys, "solve", "<@s>(p0 & !p1) & <@s>(p1 & !p2) & <@s>(p2 & !p0) & [@*]!p0")
    assert code == 69
    assert "grid search" in err and "node limit of 1" in err


def test_env_node_limit_bounds_the_automatons_grid_searches(capsys, monkeypatch):
    monkeypatch.setenv("SLTL_NODE_LIMIT", "1")
    code, _, err = run(capsys, "solve", "G <@s> p & F [@t] !p")
    assert code == 69
    assert "grid search" in err and "node limit of 1" in err


def test_env_state_limit(capsys, monkeypatch):
    monkeypatch.setenv("SLTL_STATE_LIMIT", "3")
    code, out, err = run(capsys, "solve", "G F p & G F !p & G F q & G F r")
    assert code == 69 and out == ""
    assert err == "error: search limit reached: automaton exceeded the state limit of 3\n"
    # an input with a one-cell model answers before the automaton starts
    code, out, _ = run(capsys, "solve", "G F p & G F q & G F r")
    assert code == 0 and out.startswith("sat")


@pytest.mark.parametrize("name", ["SLTL_NODE_LIMIT", "SLTL_STATE_LIMIT"])
@pytest.mark.parametrize("value", ["0", "-3"])
def test_env_limit_below_one_is_a_usage_error(capsys, monkeypatch, name, value):
    monkeypatch.setenv(name, value)
    code, _, err = run(capsys, "solve", "p U q")
    assert code == 64
    assert err.startswith("error:") and name in err


@pytest.mark.parametrize("option", ["--dump-states", "--witness-out"])
def test_unwritable_output_path_exits_73(tmp_path, capsys, option):
    target = tmp_path / "missing" / "out.txt"
    code, _, err = run(capsys, "solve", option, str(target), "p U q")
    assert code == 73
    assert err.startswith("error: cannot write")
    assert not target.exists()


def _run_cli(args, stdout):
    """The installed CLI's exit code and stderr, with ``stdout`` as its
    standard output."""
    src = os.path.dirname(os.path.dirname(sltl.__file__))
    done = subprocess.run(
        [sys.executable, "-m", "sltl.cli", *args], stdout=stdout, stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=src), text=True, timeout=60,
    )
    return done.returncode, done.stderr


def test_closed_stdout_pipe_exits_74():
    # the read end is closed before the child starts, so its write fails
    # whatever it prints; a reader such as ``head -c 1`` might lose the race
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        code, err = _run_cli(["solve", "--json", "<@s> p"], write_end)
    finally:
        os.close(write_end)
    assert code == 74
    assert err.startswith("error: cannot write to standard output") and err.count("\n") == 1


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
def test_full_stdout_device_exits_74():
    with open("/dev/full", "w") as full:
        code, err = _run_cli(["classify", "p"], full)
    assert code == 74
    assert err.startswith("error: cannot write to standard output") and err.count("\n") == 1


def _run_with_closed(redirect, args):
    """The CLI's exit code, stdout and stderr when a POSIX shell starts it
    with the redirection ``redirect``, such as ``<&-``, which closes
    standard input; a closed stream reads as empty here."""
    src = os.path.dirname(os.path.dirname(sltl.__file__))
    done = subprocess.run(
        ["/bin/sh", "-c", f'exec "$@" {redirect}', "sh", sys.executable, "-m", "sltl.cli", *args],
        capture_output=True, env=dict(os.environ, PYTHONPATH=src), text=True, timeout=60,
    )
    return done.returncode, done.stdout, done.stderr


_needs_sh = pytest.mark.skipif(not os.path.exists("/bin/sh"), reason="needs a POSIX shell")


@_needs_sh
def test_closed_stdin_exits_66():
    # sys.stdin is None when fd 0 is closed at start
    code, out, err = _run_with_closed("<&-", ["solve", "-"])
    assert code == 66 and out == ""
    assert err.startswith("error: cannot read standard input") and err.count("\n") == 1


@_needs_sh
@pytest.mark.parametrize("redirect", ["2>&-", "2</dev/null"], ids=["closed", "read-only"])
def test_closed_or_unwritable_stderr_keeps_the_exit_code(redirect):
    # a closed stderr is None, and print(file=None) writes to stdout; a
    # read-only one raises EBADF on the error line
    code, out, _ = _run_with_closed(redirect, ["solve", "("])
    assert code == 64 and out == ""


@_needs_sh
def test_closed_stdout_exits_74():
    # sys.stdout is None when fd 1 is closed at start, and print drops it
    code, _, err = _run_with_closed(">&-", ["solve", "p"])
    assert code == 74
    assert err.startswith("error: cannot write to standard output") and err.count("\n") == 1
