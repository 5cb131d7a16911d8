"""Exit-code contract of the CLI on mutated documents.

Each example takes a document from ``tests/data``, makes one to three
mutations at random places in it (drop a key, or replace a value with
null, a bool, a float, a huge int, a list, an object or a malformed
rational), and runs every file verb on the result. ``cli.main`` must
return 0, 1 or 2 and never raise.
"""

import contextlib
import copy
import io
import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from symtorus.cli import main

DATA = sorted((Path(__file__).parent / "data").glob("*.json"))
DOCS = [json.loads(path.read_text()) for path in DATA]
VALUES = st.sampled_from([
    None, True, False, 0.5, -2.0, 10 ** 40, -(10 ** 40),
    [], [1], ["0", "1"], {}, {"genus": 1},
    "1/0", "1/x", "1.5", "--1", "",
])


@st.composite
def mutated(draw):
    index = draw(st.integers(0, len(DOCS) - 1))
    doc = copy.deepcopy(DOCS[index])
    for _ in range(draw(st.integers(1, 3))):
        parent, key = None, None
        node = doc
        while (isinstance(node, (dict, list)) and node
               and (parent is None or draw(st.booleans()))):
            keys = list(node) if isinstance(node, dict) else range(len(node))
            key = draw(st.sampled_from(keys))
            parent, node = node, node[key]
        if parent is None:
            break
        if isinstance(parent, dict) and draw(st.booleans()):
            del parent[key]
        else:
            parent[key] = copy.deepcopy(draw(VALUES))
    return index, doc


def run(argv):
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return main(argv + ["--max-states", "50"])


@pytest.fixture(scope="module")
def doc_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "doc.json"


@settings(max_examples=200, deadline=2000, derandomize=True)
@given(mutated())
def test_every_file_verb_keeps_the_exit_code_contract(doc_path, example):
    index, doc = example
    doc_path.write_text(json.dumps(doc))
    mutant, original = str(doc_path), str(DATA[index])
    for argv in (["validate", mutant], ["classify", mutant],
                 ["model", mutant], ["splits", mutant],
                 ["canonical", mutant], ["orbit-size", mutant],
                 ["compare", mutant, original],
                 ["compare", original, mutant]):
        assert run(argv) in (0, 1, 2), argv
