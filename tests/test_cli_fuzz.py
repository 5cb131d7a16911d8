"""Exit-code contract of the CLI on mutated documents.

Each example takes a document from ``tests/data``, makes one to three
mutations at random places in it (drop a key, or replace a value with
null, a bool, a float, a huge int, a list, an object or a malformed
rational), and runs every file verb on the result. ``cli.main`` must
return 0, 1 or 2 and never raise. The same holds for raw bytes: random
ones, and the ``tests/data`` files with invalid UTF-8, a byte order
mark, NUL bytes, a truncation or an overwritten byte. Well-formed
``lagrangian_free`` pairs with huge entries and basis changes by up to
10^12 go through ``compare``, checked against a rational oracle. The
``homology`` examples draw ``--signature`` strings, well-formed ones
checked against a prime-by-prime oracle and malformed ones. Well-formed
case-4 documents, bare data and ``symplectic_orbits`` files of genus up
to 4 in 1-, 2- and 3-tori over moduli up to 10^12, with cone points, go
through ``canonical`` and ``orbit-size``. Well-formed ``delzant`` and
``product_t2s2`` documents, with huge and negative numbers, zero
denominators and vertex lists of up to 300 points, go through every
verb that reads one; a product's exit code is checked against its
areas, and a Delzant polygon built from a smooth one compares equal to
its translate. Every call of these last six kinds has a time budget.
"""

import contextlib
import copy
import io
import json
import time
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    lagrangian_oracle,
    lagrangian_pairs,
    torsion_oracle,
    unimodular,
)
from symtorus.cli import main
from symtorus.serialize import dumps_description
from symtorus.torus import format_rational

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


BUDGET_S = 5
# One more digit than the default digit limit of Python 3.11 and later.
TOO_LONG = "7" * 4301
PARTS = st.sampled_from(["", " ", "0", "-3", "1", "2", "6", "x", "2.5",
                         "1e3", "0x10", "--1", TOO_LONG])


def run_budgeted(argv, budget=BUDGET_S):
    """(exit code, stdout, stderr) of one call, within the budget."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert time.perf_counter() - start < budget, argv
    assert "Traceback" not in out.getvalue() + err.getvalue()
    return code, out.getvalue(), err.getvalue()


def run_homology(signature):
    """(exit code, stdout, stderr) of ``homology``, within the budget."""
    return run_budgeted(["homology", "--signature=" + signature,
                         "--format", "json"])


RAW = [path.read_bytes() for path in DATA]
SPLICES = st.sampled_from([
    b"\xff\xfe", b"\x80", b"\xc3", b"\xed\xa0\x80", b"\xf8\x88\x80\x80\x80",
    b"\x00", b"\x00\x00", b"\xef\xbb\xbf",
])


@st.composite
def raw_bytes(draw):
    """Random bytes, or a ``tests/data`` file with one to three byte-level
    mutations: a splice of invalid UTF-8 or NUL bytes, a byte order
    mark in front, a truncation, or one byte overwritten."""
    if draw(st.integers(0, 3)) == 0:
        return draw(st.binary(max_size=300))
    data = bytearray(draw(st.sampled_from(RAW)))
    for _ in range(draw(st.integers(1, 3))):
        pos = draw(st.integers(0, len(data)))
        op = draw(st.sampled_from(["splice", "bom", "truncate", "byte"]))
        if op == "splice":
            data[pos:pos] = draw(SPLICES)
        elif op == "bom":
            data[:0] = draw(st.sampled_from([b"\xef\xbb\xbf", b"\xff\xfe",
                                             b"\xfe\xff"]))
        elif op == "truncate":
            del data[pos:]
        elif pos < len(data):
            data[pos] = draw(st.integers(0, 255))
    return bytes(data)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(raw_bytes())
def test_every_file_verb_keeps_the_contract_on_raw_bytes(doc_path, data):
    doc_path.write_bytes(data)
    mutant, original = str(doc_path), str(DATA[0])
    for argv in (["validate", mutant], ["classify", mutant],
                 ["model", mutant], ["splits", mutant],
                 ["canonical", mutant], ["orbit-size", mutant],
                 ["compare", mutant, original],
                 ["compare", original, mutant]):
        code, _, _ = run_budgeted(argv + ["--max-states", "50"])
        assert code in (0, 1, 2), argv


HUGE = st.one_of(
    st.builds(Fraction, st.integers(-42, 42), st.integers(1, 7)),
    st.builds(Fraction, st.integers(-10 ** 30, 10 ** 30),
              st.integers(1, 10 ** 12)),
)


@pytest.fixture(scope="module")
def pair_paths(tmp_path_factory):
    folder = tmp_path_factory.mktemp("lagrangian")
    return str(folder / "a.json"), str(folder / "b.json")


@settings(max_examples=150, deadline=None, derandomize=True)
@given(lagrangian_pairs(HUGE, st.integers(-10 ** 12, 10 ** 12)))
def test_lagrangian_compare_matches_the_rational_oracle(pair_paths, pair):
    # One list of each pair is valid, so an invalid other list is never
    # equivalent to it, and exit code 1 is right for it too.
    for path, ing in zip(pair_paths, pair):
        Path(path).write_text(dumps_description(ing))
    expected = 0 if lagrangian_oracle(*pair)[2] else 1
    for paths in (pair_paths, pair_paths[::-1]):
        code, _, _ = run_budgeted(["compare", *paths], budget=1.0)
        assert code == expected, paths


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.integers(0, 3),
       st.lists(st.one_of(st.integers(1, 64), st.integers(1, 10 ** 6)),
                max_size=40))
def test_homology_of_well_formed_signatures(genus, orders):
    code, out, _ = run_homology(
        "%d:%s" % (genus, ",".join(map(str, orders))))
    assert code == 0
    assert json.loads(out) == {"rank": 2 * genus,
                               "torsion": torsion_oracle(orders)}


@settings(max_examples=200, deadline=None, derandomize=True)
@given(PARTS, st.lists(PARTS, min_size=1, max_size=6),
       st.sampled_from([":", "", "::"]))
def test_homology_of_malformed_signatures(genus, orders, colon):
    code, _, err = run_homology(genus + colon + ",".join(orders))
    assert code in (0, 2)
    assert (code == 2) == bool(err)


@st.composite
def case4_document(draw):
    """A valid datum: free images anywhere in T[N], or on the span of
    two points of it, and torsion images that sum to zero, the cone
    orders being their orders; as a bare datum, or for d = 2 sometimes
    as a ``symplectic_orbits`` file."""
    dim = draw(st.sampled_from((1, 2, 3)))
    genus = draw(st.integers(0, 4))
    modulus = draw(st.one_of(st.integers(1, 12), st.integers(2, 10 ** 12)))
    point = st.lists(st.integers(0, modulus - 1), min_size=dim,
                     max_size=dim)
    if draw(st.booleans()):
        free = draw(st.lists(point, min_size=2 * genus, max_size=2 * genus))
    else:
        u, v = draw(point), draw(point)
        free = [[(a * x + b * y) % modulus for x, y in zip(u, v)]
                for a, b in draw(st.lists(
                    st.tuples(st.integers(0, 3), st.integers(0, 3)),
                    min_size=2 * genus, max_size=2 * genus))]
    torsion = draw(st.lists(point.filter(any), max_size=3))
    closing = [-sum(c) % modulus for c in zip(*torsion)]
    if torsion and any(closing):
        torsion.append(closing)
    torsion.sort(key=lambda p: modulus // gcd(modulus, *p))
    orders = [modulus // gcd(modulus, *p) for p in torsion]

    def text(p):
        return ["%d/%d" % (x, modulus) for x in p]

    datum = {"signature": {"genus": genus, "orders": orders}, "dim": dim,
             "free": [text(p) for p in free],
             "torsion": [text(p) for p in torsion]}
    if dim == 2 and draw(st.booleans()):
        datum.update(area="1", sigma_t=[["0", "1"], ["-1", "0"]])
        return {"case": "symplectic_orbits", "data": datum}
    return datum


@settings(max_examples=150, deadline=None, derandomize=True)
@given(case4_document())
def test_case4_verbs_keep_the_contract_on_well_formed_data(doc_path, doc):
    doc_path.write_text(json.dumps(doc))
    for verb in ("canonical", "orbit-size"):
        code, _, _ = run_budgeted([verb, str(doc_path), "--max-states",
                                   "5000"])
        assert code in (0, 1, 2), (verb, doc)


NUMERATORS = st.one_of(st.integers(-6, 6),
                       st.integers(-10 ** 40, 10 ** 40))
DENOMINATORS = st.one_of(st.integers(-3, 3),
                         st.integers(-10 ** 12, 10 ** 12))


@st.composite
def rational_text(draw):
    """A JSON rational and its value, None for a zero denominator: an
    int, or a "p" or "p/q" string."""
    p = draw(NUMERATORS)
    form = draw(st.sampled_from(["int", "string", "fraction"]))
    if form == "int":
        return p, Fraction(p)
    if form == "string":
        return str(p), Fraction(p)
    q = draw(DENOMINATORS)
    return "%d/%d" % (p, q), Fraction(p, q) if q else None


@st.composite
def smooth_polygon(draw):
    """Vertices of a Delzant polygon: a triangle, a rectangle or a
    Hirzebruch trapezoid with rational sides, under a unimodular map,
    perhaps in clockwise order, from any starting vertex."""
    a = draw(st.builds(Fraction, st.integers(1, 10 ** 30),
                       st.integers(1, 10 ** 6)))
    b = draw(st.builds(Fraction, st.integers(1, 50), st.integers(1, 50)))
    k = draw(st.integers(0, 5))
    shape = draw(st.sampled_from([
        [(0, 0), (a, 0), (0, a)],
        [(0, 0), (a, 0), (a, b), (0, b)],
        [(0, 0), (a + k * b, 0), (a, b), (0, b)],
    ]))
    (u00, u01), (u10, u11) = draw(unimodular(st.integers(-10 ** 6,
                                                         10 ** 6)))
    points = [(u00 * x + u01 * y, u10 * x + u11 * y) for x, y in shape]
    if draw(st.booleans()):
        points.reverse()
    start = draw(st.integers(0, len(points) - 1))
    return points[start:] + points[:start]


def delzant_doc(points):
    return {"case": "delzant",
            "data": {"vertices": [[format_rational(x), format_rational(y)]
                                  for x, y in points]}}


@st.composite
def delzant_documents(draw):
    """A well-formed ``delzant`` document and a second one: a smooth
    polygon and a translate of it, or up to 300 random vertices and a
    smooth polygon."""
    shift = (draw(rational_text())[1] or 0, draw(rational_text())[1] or 0)
    if draw(st.booleans()):
        points = draw(smooth_polygon())
        moved = [(x + shift[0], y + shift[1]) for x, y in points]
        return delzant_doc(points), delzant_doc(moved), True
    size = draw(st.one_of(st.integers(0, 6), st.integers(7, 300)))
    vertices = [[draw(rational_text())[0] for _ in (0, 1)]
                for _ in range(size)]
    doc = {"case": "delzant", "data": {"vertices": vertices}}
    return doc, delzant_doc(draw(smooth_polygon())), False


@pytest.fixture(scope="module")
def two_paths(tmp_path_factory):
    folder = tmp_path_factory.mktemp("documents")
    return str(folder / "one.json"), str(folder / "two.json")


def every_verb(paths):
    """{verb: exit code} of each verb that reads a description, on the
    first file, with "compare" of the files in order and "back" in
    reverse."""
    one, two = paths
    codes = {}
    for name, argv in (("validate", [one]), ("classify", [one]),
                       ("model", [one]), ("splits", [one]),
                       ("compare", [one, two]), ("back", [two, one])):
        verb = "compare" if name == "back" else name
        code, _, _ = run_budgeted([verb, *argv, "--format", "json"],
                                  budget=2)
        assert code in (0, 1, 2), (verb, argv)
        codes[name] = code
    return codes


@settings(max_examples=120, deadline=None, derandomize=True)
@given(delzant_documents())
def test_delzant_documents_keep_the_contract(two_paths, example):
    first, second, smooth = example
    for path, doc in zip(two_paths, (first, second)):
        Path(path).write_text(json.dumps(doc))
    codes = every_verb(two_paths)
    if smooth:
        assert codes["validate"] == codes["compare"] == codes["back"] == 0


def product_code(torus, sphere):
    """The exit code of ``validate`` on a product with these areas: 2 on
    a zero denominator, 1 on an area that is not positive, else 0."""
    if None in (torus, sphere):
        return 2
    return 1 if min(torus, sphere) <= 0 else 0


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.lists(rational_text(), min_size=4, max_size=4))
def test_product_documents_keep_the_contract(two_paths, areas):
    """Two products: ``compare`` reports the first file that fails, and
    otherwise exits 0 iff the area pairs agree."""
    docs = [{"case": "product_t2s2",
             "data": {"torus_area": torus[0], "sphere_area": sphere[0]}}
            for torus, sphere in (areas[:2], areas[2:])]
    for path, doc in zip(two_paths, docs):
        Path(path).write_text(json.dumps(doc))
    values = [value for _, value in areas]
    one, two = product_code(*values[:2]), product_code(*values[2:])
    codes = every_verb(two_paths)
    assert codes["validate"] == one
    same = int(values[:2] != values[2:])
    assert codes["compare"] == (one or two or same)
    assert codes["back"] == (two or one or same)
