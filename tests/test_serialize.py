import json
from fractions import Fraction

import pytest

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
