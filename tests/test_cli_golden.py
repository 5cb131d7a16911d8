"""Golden CLI answers: stdout and exit code of every file verb, in text
and JSON, on every ``tests/data`` document and on the ``EXTRA``
documents, of ``compare`` on every ordered pair of them, and of
``homology`` on a few signatures.

A refactor must keep every one byte-identical. To record the answers
of the current code (only when a change of answer is intended):

    PYTHONPATH=src python tests/test_cli_golden.py --record
"""

import contextlib
import io
import json
import sys
import tempfile
from itertools import product
from pathlib import Path

from symtorus.cli import main

HERE = Path(__file__).parent
GOLDEN = HERE / "cli_golden.json"
DATA = sorted((HERE / "data").glob("*.json"))
SINGLE_VERBS = ("validate", "classify", "model", "splits", "canonical",
                "orbit-size")
SIGNATURES = ("0:2,3,7", "1:", "2:2,2,4,4", "0:6,10,15", "3:5,5,5,5,5")


def _orbits(genus, orders, free, torsion):
    return {"case": "symplectic_orbits", "data": {
        "signature": {"genus": genus, "orders": orders}, "dim": 2,
        "free": free, "torsion": torsion, "area": "1",
        "sigma_t": [["0", "1"], ["-1", "0"]]}}


def _datum(genus, orders, dim, free, torsion):
    return {"signature": {"genus": genus, "orders": orders}, "dim": dim,
            "free": free, "torsion": torsion}


# Case-4 data beyond tests/data: torsion with free images, so that the
# closure, the canonical form and the invariants run on a nontrivial
# T[N]/H; 1- and 3-torus images, one with K = Z/2 x Z/4 spread across
# all three coordinates, so that its Smith rows are not coordinate
# projections; and a genus-0 datum with no entries.
EXTRA = {
    "g1_236.json": _orbits(1, [2, 3, 6], [["1/6", "0"], ["0", "1/6"]],
                           [["1/2", "0"], ["0", "1/3"], ["1/2", "2/3"]]),
    "g1_236_partner.json": _orbits(
        1, [2, 3, 6], [["1/6", "0"], ["0", "0"]],
        [["1/2", "0"], ["1/3", "0"], ["1/6", "0"]]),
    "g1_44.json": _orbits(1, [4, 4], [["1/4", "0"], ["0", "1/4"]],
                          [["1/4", "1/2"], ["3/4", "1/2"]]),
    "g1_44_partner.json": _orbits(1, [4, 4], [["1/2", "0"], ["0", "0"]],
                                  [["1/4", "0"], ["3/4", "0"]]),
    "torus3_g1_22.json": _datum(1, [2, 2], 3,
                                [["1/4", "0", "1/4"], ["0", "1/2", "0"]],
                                [["0", "0", "1/2"], ["0", "0", "1/2"]]),
    "torus3_g2.json": _datum(2, [], 3, [["1/2", "0", "0"],
                                        ["0", "1/2", "0"],
                                        ["0", "0", "1/2"],
                                        ["0", "0", "0"]], []),
    "torus3_g1_22_k24.json": _datum(1, [2, 2], 3,
                                    [["3/4", "1/2", "1/4"],
                                     ["1/4", "3/4", "3/4"]],
                                    [["1/2", "1/2", "1/2"],
                                     ["1/2", "1/2", "1/2"]]),
    "torus1_g1_33.json": _datum(1, [3, 3], 1, [["1/6"], ["1/2"]],
                                [["1/3"], ["2/3"]]),
    "genus0_empty.json": _datum(0, [], 5, [], []),
}


def _documents(directory):
    """{name: path} of every document, the extras written to
    ``directory``."""
    paths = {p.name: str(p) for p in DATA}
    for name, doc in EXTRA.items():
        path = Path(directory) / name
        path.write_text(json.dumps(doc))
        paths[name] = str(path)
    return paths


def _calls(paths):
    """Every golden argv, with document names in place of paths."""
    names = sorted(paths)
    calls = []
    for fmt in ("text", "json"):
        for verb, name in product(SINGLE_VERBS, names):
            calls.append([verb, name, "--format", fmt])
        for a, b in product(names, repeat=2):
            calls.append(["compare", a, b, "--format", fmt])
        for sig in SIGNATURES:
            calls.append(["homology", "--signature", sig, "--format", fmt])
    return calls


def _run(argv, paths):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([paths.get(arg, arg) for arg in argv])
    return {"argv": argv, "exit": code, "stdout": out.getvalue()}


def test_every_answer_is_the_recorded_one(tmp_path):
    paths = _documents(tmp_path)
    recorded = json.loads(GOLDEN.read_text())
    calls = _calls(paths)
    assert [entry["argv"] for entry in recorded] == calls
    mismatches = [(entry, got) for entry, got in
                  zip(recorded, (_run(argv, paths) for argv in calls))
                  if entry != got]
    assert not mismatches, mismatches[:3]


def _record():
    with tempfile.TemporaryDirectory() as directory:
        paths = _documents(directory)
        entries = [_run(argv, paths) for argv in _calls(paths)]
    # The answers must not depend on where the documents lie.
    for entry in entries:
        assert directory not in entry["stdout"], entry
        assert str(HERE) not in entry["stdout"], entry
    GOLDEN.write_text(json.dumps(entries, indent=1) + "\n")
    print("recorded %d calls in %s" % (len(entries), GOLDEN))


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    _record()
