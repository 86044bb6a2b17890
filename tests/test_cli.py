import io
import json
import os
import subprocess
import sys

import pytest

import sltl
from sltl.automaton import dump_state_graph
from sltl.cli import main
from sltl.syntax import closure, parse, simplify, vocab
from sltl.semantics import model_from_json
from sltl.solver import partition_formula, solve
from sltl.translate import apply_partition, iter_partitions


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


def test_check_missing_file(tmp_path, capsys):
    code, _, err = run(capsys, "check", "p", str(tmp_path / "absent.json"))
    assert code == 66


def test_stdin_formula(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("p | !p"))
    code, out, _ = run(capsys, "solve", "-")
    assert code == 0


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
    # folding drops the dead Until branch; the dump shows the folded graph
    text = "(@s <= @t) & (!(@s <= @t) U X p) & F q"
    dump = tmp_path / "graph.txt"
    code, _, _ = run(capsys, "solve", "--dump-states", str(dump), text)
    assert code == 0
    f = parse(text)
    phi_d = simplify(apply_partition(f, next(iter_partitions(vocab(f).sharpenings))))
    searched = io.StringIO()
    dump_state_graph(closure(phi_d), phi_d, searched)
    lines = dump.read_text().splitlines()
    assert lines == searched.getvalue().splitlines()
    assert sum(ln.startswith("state ") for ln in lines) == 16
    assert sum(ln.startswith("edge ") for ln in lines) == 64


def test_dump_states_follows_the_sat_partition(tmp_path, capsys):
    # the first partition asserts @s <= @t, which contradicts the input; the
    # dump is the graph of the partition the sat verdict came from
    text = "!(@s <= @t) & X (p U q)"
    dump = tmp_path / "graph.txt"
    code, _, _ = run(capsys, "solve", "--dump-states", str(dump), text)
    assert code == 0
    f = parse(text)
    phi_d = partition_formula(f, solve(f).partition)
    searched = io.StringIO()
    dump_state_graph(closure(phi_d), phi_d, searched)
    assert searched.getvalue()
    assert dump.read_text() == searched.getvalue()


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
    code, _, err = run(capsys, "solve", "--bounds", "2,1,2", "<@s> X p")
    assert code == 69
    assert "node limit" in err
