import json
import sys
from fractions import Fraction
from math import gcd, lcm
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from oracles import fraction_parse_datum
from symtorus.classify4d import (
    DelzantPolygon,
    ProductT2S2,
    SymplecticOrbitIngredients,
    equivalent,
)
from symtorus.errors import ParseError, ValidationError
from symtorus.lagrangian import LagrangianFreeIngredients
from symtorus.monodromy import validate_datum
from symtorus.orbisurface import FuchsianSignature
from symtorus.serialize import (
    datum_to_json,
    description_to_json,
    dumps_description,
    format_rational,
    parse_datum,
    parse_datum_document,
    parse_description,
    parse_rational,
)
from symtorus.torus import TorusElement

HALF = Fraction(1, 2)


def T(*coords):
    return TorusElement(coords)


def sample_descriptions():
    sig = FuchsianSignature(0, (2, 2, 2))
    datum = validate_datum(
        sig, (), (T(HALF, 0), T(0, HALF), T(HALF, HALF)))
    return [
        DelzantPolygon(((0, 0), (1, 0), (1, 1), (0, 1))),
        ProductT2S2(Fraction(3, 2), 2),
        LagrangianFreeIngredients(
            ((1, 0), (0, 1)), (0, 0),
            (T(Fraction(1, 5), 0), T(0, Fraction(1, 7)))),
        SymplecticOrbitIngredients(
            sig, Fraction(5, 3), ((0, Fraction(2, 7)), (Fraction(-2, 7), 0)),
            datum),
    ]


def test_rational_round_trip():
    for q in (Fraction(1, 2), Fraction(-3, 7), Fraction(5), Fraction(0)):
        assert parse_rational(format_rational(q)) == q
    assert format_rational(Fraction(4, 2)) == "2"
    assert parse_rational("-1/2") == Fraction(-1, 2)
    assert parse_rational(7) == 7


def test_rational_rejects_zero_denominator():
    with pytest.raises(ParseError):
        parse_rational("1/0")


def test_rational_rejects_garbage():
    for bad in ("x", "1/2/3", "1.5", 2.5, True, None, [1]):
        with pytest.raises(ParseError):
            parse_rational(bad)


def test_description_round_trips():
    for desc in sample_descriptions():
        text = dumps_description(desc)
        back = parse_description(text)
        assert type(back) is type(desc)
        assert equivalent(desc, back)
        # serialization is stable: dumping again gives identical JSON
        assert dumps_description(back) == text


def test_unknown_tag():
    with pytest.raises(ParseError) as info:
        parse_description('{"case": "bogus"}')
    assert "bogus" in str(info.value)


def test_missing_case_tag():
    with pytest.raises(ParseError):
        parse_description('{"data": {}}')


def test_invalid_json():
    with pytest.raises(ParseError):
        parse_description("{not json")


def test_malformed_rational_in_file():
    doc = {"case": "product_t2s2",
           "data": {"torus_area": "1/0", "sphere_area": "1"}}
    with pytest.raises(ParseError):
        parse_description(json.dumps(doc))


def test_validation_failure_wrapped_with_context():
    doc = {
        "case": "symplectic_orbits",
        "data": {
            "signature": {"genus": 0, "orders": [5]},
            "area": "1",
            "sigma_t": [["0", "1"], ["-1", "0"]],
            "dim": 2,
            "free": [],
            "torsion": [["1/5", "0"]],
        },
    }
    with pytest.raises(ValidationError) as info:
        parse_description(json.dumps(doc), source="file.json")
    assert "file.json" in str(info.value)
    assert "bad orbifold" in str(info.value)


def test_datum_document_round_trip():
    sig = FuchsianSignature(0, (2, 2))
    datum = validate_datum(sig, (), (T(HALF, 0), T(HALF, 0)))
    text = json.dumps(datum_to_json(datum))
    assert parse_datum_document(text) == datum


def test_datum_from_symplectic_orbits_description():
    desc = sample_descriptions()[3]
    text = dumps_description(desc)
    assert parse_datum_document(text) == desc.datum


def test_datum_document_rejects_other_cases():
    text = dumps_description(sample_descriptions()[0])
    with pytest.raises(ParseError):
        parse_datum_document(text)


def test_description_json_shape():
    doc = description_to_json(sample_descriptions()[3])
    assert doc["case"] == "symplectic_orbits"
    assert doc["data"]["signature"] == {"genus": 0, "orders": [2, 2, 2]}
    assert doc["data"]["torsion"][0] == ["1/2", "0"]


def test_overlong_rational_is_too_large_not_malformed():
    for text in ("9" * 5000, "-" + "9" * 5000 + "/7", "7/" + "9" * 5000):
        with pytest.raises(ParseError, match="too large"):
            parse_rational(text)
    with pytest.raises(ParseError, match="malformed"):
        parse_rational("9" * 5000 + "x")


DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize("name,place,value,message", [
    ("case4_orbits.json", ("sigma_t", 1, 0), "x",
     "malformed rational at sigma_t[1][0]: 'x'"),
    ("case3_lagrangian.json", ("P_basis", 0, 1), 0.5,
     "expected an exact rational at P_basis[0][1], got 0.5"),
    ("case1_delzant.json", ("vertices", 2, 1), "1/0",
     "zero denominator at vertices[2][1] in '1/0'"),
    ("case1_delzant.json", ("vertices", 2), "1",
     "expected an array at vertices[2]"),
    ("case3_lagrangian.json", ("c",), {}, "expected an array at c"),
], ids=["sigma_t", "P_basis", "vertices", "vertices_row", "c"])
def test_parse_errors_name_the_entry(name, place, value, message):
    """A bad entry of a vector or matrix is named by its indices."""
    doc = json.loads((DATA / name).read_text())
    target = doc["data"]
    for key in place[:-1]:
        target = target[key]
    target[place[-1]] = value
    with pytest.raises(ParseError) as info:
        parse_description(json.dumps(doc))
    assert str(info.value) == "<input>: " + message


LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
DIGITS = LIMIT or 4300
# A numeral past the digit limit is an error only where there is a limit.
PAST_LIMIT = "error" if LIMIT else "ok"

JUNK = ("1/0", "-3/0", "0/0", "x", "1/2/3", "1.5", "", "/", "1/", "1/2 x",
        2.5, True, False, None, [1], {"p": 1},
        "9" * DIGITS, "1/" + "7" * DIGITS, "9" * (DIGITS + 1),
        "-" + "9" * (DIGITS + 1) + "/7", "7/" + "9" * (DIGITS + 1),
        "9" * (DIGITS + 1) + "x", "1_0/4", "\u0663/4", "+3", " 3", "3 ",
        "\t-1/2\n", "0/-5", "-0", "+-1", "--1")


def outcome(parse, obj):
    """What a parse of ``obj`` gives: ("ok", signature, dim, modulus,
    free, torsion) or ("error", type, message, OrderViolation indices)."""
    try:
        got = parse(obj)
    except Exception as exc:  # every error must be the oracle's
        return ("error", type(exc), str(exc), getattr(exc, "indices", None))
    if isinstance(got, tuple):
        return ("ok",) + got
    return ("ok", got.signature, got.dim, got.modulus, got.free,
            got.torsion)


def assert_parses_as_the_oracle(obj):
    expected = outcome(fraction_parse_datum, obj)
    assert outcome(parse_datum, obj) == expected
    return expected


@st.composite
def spelled(draw, x, n):
    """The rational x / n in one of the spellings the parser accepts:
    unreduced, shifted by an integer (so negative or at least 1), with
    a negative denominator, a bare int, or with a sign or spaces."""
    k = draw(st.integers(1, 3))
    p, q = (x + draw(st.integers(-2, 2)) * n) * k, n * k
    if draw(st.booleans()):
        p, q = -p, -q
    form = draw(st.sampled_from(("p/q", "int", "+", " ")))
    if p % q == 0 and form == "int":
        return draw(st.sampled_from((p // q, str(p // q))))
    text = "%d/%d" % (p, q)
    if form == "+" and p >= 0:
        return "+" + text
    if form == " ":
        return " %d/ %d " % (p, q)
    return text


@st.composite
def datum_objects(draw):
    """A JSON datum, valid or broken in up to two ways: its image counts
    or row lengths, a coordinate replaced by junk, a torsion image of
    the wrong order, a torsion image redrawn so that the sum is likely
    not zero, or arrays that are not arrays."""
    genus = draw(st.integers(0, 2))
    pairs = draw(st.lists(st.sampled_from((2, 3, 4, 6)), max_size=2))
    orders = sorted(pairs * 2)
    dim = draw(st.integers(1, 3))
    modulus = lcm(*orders) * draw(st.sampled_from((1, 2, 5)))
    coordinate = st.integers(0, modulus - 1)
    free = [draw(st.lists(coordinate, min_size=dim, max_size=dim))
            for _ in range(2 * genus)]

    def of_order(o):
        c = draw(st.lists(st.integers(0, o - 1), min_size=dim,
                          max_size=dim))
        if gcd(o, *c) != 1:
            c[0] = 1
        return [x * (modulus // o) for x in c]

    torsion = []
    for o in sorted(pairs):
        t = of_order(o)
        torsion += [t, [-x % modulus for x in t]]
    mutations = draw(st.lists(st.sampled_from((
        "order", "sum", "sum", "drop", "extra", "row", "junk", "junk",
        "junk", "not_a_row", "not_an_array", "dim")), max_size=2))
    if torsion and "order" in mutations:
        k = draw(st.integers(0, len(torsion) - 1))
        torsion[k] = [2 * x % modulus for x in torsion[k]]
    if torsion and "sum" in mutations:
        k = draw(st.integers(0, len(torsion) - 1))
        torsion[k] = of_order(orders[k])
    arrays = {name: [[draw(spelled(x, modulus)) for x in point]
                     for point in points]
              for name, points in (("free", free), ("torsion", torsion))}
    json_dim = dim
    for mutation in mutations:
        name = draw(st.sampled_from(("free", "torsion")))
        rows = arrays[name]
        if not isinstance(rows, list):
            continue
        if mutation == "drop" and rows:
            rows.pop(draw(st.integers(0, len(rows) - 1)))
        elif mutation == "extra":
            rows.append(["0"] * dim)
        elif mutation == "row" and rows:
            row = rows[draw(st.integers(0, len(rows) - 1))]
            if not isinstance(row, list) or not row:
                continue
            if draw(st.booleans()):
                row.append("1/2")
            else:
                del row[draw(st.integers(0, len(row) - 1)):]
        elif mutation == "junk" and rows:
            row = rows[draw(st.integers(0, len(rows) - 1))]
            if isinstance(row, list) and row:
                    row[draw(st.integers(0, len(row) - 1))] = draw(
                    st.sampled_from(JUNK))
        elif mutation == "not_a_row" and rows:
            rows[draw(st.integers(0, len(rows) - 1))] = draw(
                st.sampled_from(("1/2", 3, None, {"x": 1})))
        elif mutation == "not_an_array":
            arrays[name] = draw(st.sampled_from(("1/2", 3, None, {})))
        elif mutation == "dim":
            json_dim = draw(st.sampled_from((dim + 1, 0, "2", True, None)))
    return {"signature": {"genus": genus, "orders": orders}, "dim": json_dim,
            **arrays}


@settings(max_examples=500, deadline=None, derandomize=True)
@given(datum_objects())
def test_integer_parse_equals_the_fraction_route(obj):
    """Numerators over the modulus and the Fraction route read every
    datum alike: the same modulus and decoded points, or the same error
    type, message and OrderViolation indices."""
    assert_parses_as_the_oracle(obj)


def _document(free, torsion, genus=1, orders=(2, 2), dim=2):
    return {"signature": {"genus": genus, "orders": list(orders)},
            "dim": dim, "free": free, "torsion": torsion}


HALVES = [["1/2", "0"], ["1/2", "0"]]


@pytest.mark.parametrize("obj, verdict", [
    (_document([["2/4", "-1/-3"], ["3/2", "5"]], HALVES), "ok"),
    (_document([["1/-2", "-1/3"], ["7/3", 4]], [["-1/2", 0], ["1/2", 0]]),
     "ok"),
    (_document([["+3", " 3"], ["3 ", "+1/ 2"]], HALVES), "ok"),
    (_document([["9" * DIGITS, "1/" + "7" * DIGITS], ["0", "0"]], HALVES),
     "ok"),
    (_document([["9" * (DIGITS + 1), "0"], ["0", "0"]], HALVES),
     PAST_LIMIT),
    (_document([["0", "7/" + "9" * (DIGITS + 1)], ["0", "0"]], HALVES),
     PAST_LIMIT),
    (_document([["1/0", "0"], ["0", "0"]], HALVES), "error"),
    (_document([["0", "0"]], HALVES), "error"),
    (_document([["0", "0"], ["0", "0"]], HALVES[:1]), "error"),
    (_document([["0", "0"], ["0"]], HALVES), "error"),
    (_document([["0", "0"], []], HALVES), "error"),
    (_document([["0", "0"], ["0", "0"]], [["1/2", "0"], ["1/4", "0"]]),
     "error"),
    (_document([["0", "0"], ["0", "0"]], [["1/3", "0"], ["0", "0"]]),
     "error"),
    (_document([["0", "0"], ["0", "0"]], [["1/2", "0"], ["0", "1/2"]]),
     "error"),
    (_document([], [["1/3", "0"], ["1/3", "0"], ["1/3", "0"]], genus=0,
               orders=(3, 3, 3)), "ok"),
    (_document([], [["1/3", "0"], ["2/3", "0"], ["1/3", "0"]], genus=0,
               orders=(3, 3, 3)), "error"),
])
def test_parse_matches_the_oracle_on_named_inputs(obj, verdict):
    """Unreduced and signed spellings, values of at least 1, bare ints,
    what int() accepts, numerals at and past the digit limit, zero
    denominators, wrong counts and lengths, wrong orders and sums."""
    assert assert_parses_as_the_oracle(obj)[0] == verdict
