"""The README's examples: its Python block runs, and its witness example
is a witness in the form ``model_to_json`` writes."""

import json
import re
from pathlib import Path

from sltl.semantics import model_from_json, model_to_json

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def _blocks(lang: str) -> list[str]:
    return re.findall(rf"^```{lang}\n(.*?)^```$", README, re.M | re.S)


def test_readme_python_block_runs():
    (code,) = _blocks("python")
    exec(compile(code, "README.md", "exec"), {})


def test_readme_witness_round_trips():
    (text,) = _blocks("json")
    doc = json.loads(text)
    out = model_to_json(*model_from_json(doc))
    assert json.dumps(out) == json.dumps(doc)
