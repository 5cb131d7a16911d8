"""JSON interchange for every description the tool understands.

Rationals travel as strings "p/q" (bare "p" when the denominator is 1),
so values survive round trips losslessly. Matrices and vectors are
row-major arrays of such strings. The top-level description format is

    {"case": "delzant" | "product_t2s2" | "lagrangian_free"
             | "symplectic_orbits",
     "data": {...}}

Standalone monodromy datum files are also accepted where a datum makes
sense: {"signature": {...}, "dim": d, "free": [...], "torsion": [...]}.
A datum's coordinates are read straight into integers, each reduced
into [0, 1) in lowest terms, and written from the datum's numerators
over its modulus; no ``Fraction`` is built either way. Every other
rational is read into a ``Fraction`` by the same rules.
"""

import json
import sys
from contextlib import contextmanager
from fractions import Fraction
from math import gcd

from symtorus import classify4d
from symtorus.classify4d import (
    DelzantPolygon,
    ProductT2S2,
    SymplecticOrbitIngredients,
)
from symtorus.errors import ParseError, ValidationError
from symtorus.lagrangian import LagrangianFreeIngredients
from symtorus.datum import datum_from_ratios
from symtorus.orbisurface import is_good, normalize_signature
from symtorus.torus import TorusElement, format_numerators, format_rational


def _digit_limit():
    """The interpreter's limit on the digits of a numeral; 0, for none,
    before Python 3.11, where ``int`` reads numerals of any length."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


def _ratio(value, where, *index):
    """The rational a JSON value spells, as integers (p, q) with q
    nonzero, not reduced: an int, or a string "p" or "p/q" of numerals
    ``int`` reads. A ParseError names the place, ``where`` followed by
    ``[i]`` for each index, formatted only when one is raised."""
    if isinstance(value, str):
        parts = value.split("/")
        try:
            if len(parts) == 1:
                return int(parts[0]), 1
            if len(parts) == 2:
                num, den = int(parts[0]), int(parts[1])
                if den:
                    return num, den
                raise ParseError("zero denominator%s in %r"
                                 % (_at(where, index), value))
        except ValueError:
            # int() also refuses a well-formed numeral longer than the
            # interpreter's digit limit.
            limit = _digit_limit()
            if limit and any(
                    len(digits) > limit and digits.isdecimal()
                    for digits in (part.strip().lstrip("+-").replace("_", "")
                                   for part in parts)):
                raise ParseError("rational too large%s: more than %d digits"
                                 % (_at(where, index), limit)) from None
        raise ParseError("malformed rational%s: %r"
                         % (_at(where, index), value))
    if isinstance(value, bool) or isinstance(value, float):
        raise ParseError("expected an exact rational%s, got %r"
                         % (_at(where, index), value))
    if isinstance(value, int):
        return value, 1
    raise ParseError("expected a rational string%s, got %r"
                     % (_at(where, index), value))


def _at(where, index):
    """The place a ParseError names, as " at <place>", or "" for none."""
    where += "".join(["[%d]" % i for i in index])
    return " at %s" % where if where else ""


def parse_rational(value, where=""):
    return Fraction(*_ratio(value, where))


def _parse_vector(values, where, *index):
    if not isinstance(values, (list, tuple)):
        raise ParseError("expected an array%s" % _at(where, index))
    return tuple([Fraction(*_ratio(v, where, *index, i))
                  for i, v in enumerate(values)])


def _parse_matrix(rows, where):
    if not isinstance(rows, (list, tuple)) or not rows:
        raise ParseError("expected a matrix at %s" % where)
    return tuple([_parse_vector(row, where, i)
                  for i, row in enumerate(rows)])


def parse_signature(obj, where="signature"):
    if not isinstance(obj, dict):
        raise ParseError("expected an object at %s" % where)
    try:
        genus = obj["genus"]
        orders = obj["orders"]
    except KeyError as missing:
        raise ParseError("missing %s in %s" % (missing, where)) from None
    if not isinstance(genus, int) or isinstance(genus, bool):
        raise ParseError("genus must be an integer at %s" % where)
    if not isinstance(orders, list) or any(
            not isinstance(o, int) or isinstance(o, bool) for o in orders):
        raise ParseError("orders must be an integer array at %s" % where)
    try:
        return normalize_signature(genus, orders)
    except ValueError as exc:
        raise ParseError("%s at %s" % (exc, where)) from None


def signature_to_json(sig):
    return {"genus": sig.genus, "orders": list(sig.orders)}


def _images(rows, where):
    """The points of a JSON array, each as the list of its coordinates
    (p, q), p / q in [0, 1) in lowest terms, as
    ``datum.datum_from_ratios`` takes them."""
    if not isinstance(rows, (list, tuple)):
        raise ParseError("expected an array of points at %s" % where)
    images = []
    for k, row in enumerate(rows):
        if not isinstance(row, (list, tuple)):
            raise ParseError("expected an array at %s[%d]" % (where, k))
        if not row:
            raise ValueError("torus element needs at least one coordinate")
        image = []
        for i, value in enumerate(row):
            p, q = _ratio(value, where, k, i)
            if q < 0:
                p, q = -p, -q
            g = gcd(p, q)
            q //= g
            image.append((p // g % q, q))
        images.append(image)
    return images


def parse_datum(obj, signature=None, where="datum"):
    if not isinstance(obj, dict):
        raise ParseError("expected an object at %s" % where)
    if signature is None:
        signature = parse_signature(obj.get("signature"), where + ".signature")
    dim = obj.get("dim")
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise ParseError("dim must be a positive integer at %s" % where)
    if "free" not in obj or "torsion" not in obj:
        raise ParseError("missing free/torsion arrays at %s" % where)
    free = _images(obj["free"], where + ".free")
    torsion = _images(obj["torsion"], where + ".torsion")
    return datum_from_ratios(signature, dim, free, torsion)


def datum_to_json(datum):
    rows = [format_numerators(image, datum.modulus)
            for image in datum.numerators]
    free = 2 * datum.signature.genus
    return {
        "signature": signature_to_json(datum.signature),
        "dim": datum.dim,
        "free": rows[:free],
        "torsion": rows[free:],
    }


def _parse_delzant(data):
    vertices = data.get("vertices")
    if not isinstance(vertices, list):
        raise ParseError("delzant data needs a vertices array")
    return DelzantPolygon(_parse_matrix(vertices, "vertices"))


def _parse_product(data):
    return ProductT2S2(
        parse_rational(data.get("torus_area"), "torus_area"),
        parse_rational(data.get("sphere_area"), "sphere_area"),
    )


def _parse_lagrangian(data):
    basis = _parse_matrix(data.get("P_basis"), "P_basis")
    if len(basis) != 2 or any(len(r) != 2 for r in basis):
        raise ParseError("P_basis must be a 2x2 matrix")
    c_value = _parse_vector(data.get("c"), "c")
    if len(c_value) != 2:
        raise ParseError("c must be a 2-vector")
    tau_rows = _parse_matrix(data.get("tau"), "tau")
    if len(tau_rows) != 2 or any(len(r) != 2 for r in tau_rows):
        raise ParseError("tau must hold two 2-vectors")
    tau = tuple([TorusElement(row) for row in tau_rows])
    return LagrangianFreeIngredients(basis, c_value, tau)


def _parse_symplectic_orbits(data):
    signature = parse_signature(data.get("signature"))
    if not is_good(signature):
        # Checked before the datum so the signature defect is the one
        # reported; a bad signature cannot carry a valid datum anyway.
        raise ValidationError(
            "bad orbifold: excluded signature (0; o1) or (0; o1, o2) "
            "with distinct orders")
    area = parse_rational(data.get("area"), "area")
    sigma_t = _parse_matrix(data.get("sigma_t"), "sigma_t")
    datum = parse_datum(data, signature=signature, where="data")
    return SymplecticOrbitIngredients(signature, area, sigma_t, datum)


_PARSERS = {
    DelzantPolygon: _parse_delzant,
    ProductT2S2: _parse_product,
    LagrangianFreeIngredients: _parse_lagrangian,
    SymplecticOrbitIngredients: _parse_symplectic_orbits,
}


@contextmanager
def _naming(source):
    """Prefix errors with the source name; a ValueError or TypeError from
    a domain constructor (an inconsistent shape or value) is invalid."""
    try:
        yield
    except ParseError as exc:
        raise ParseError("%s: %s" % (source, exc)) from None
    except (ValidationError, ValueError, TypeError) as exc:
        raise ValidationError("%s: %s" % (source, exc)) from exc


def _load(text, source):
    """The description type and data object of a document, or (None,
    doc) for a document without a "case" key.

    ParseError for invalid JSON, a document that is not an object, a
    tag that is not a case tag, or data that is not an object.
    """
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ParseError("%s: invalid JSON: %s" % (source, exc)) from None
    except ValueError:
        # The one other ValueError: an integer literal longer than the
        # interpreter's digit limit.
        raise ParseError("%s: number too large: an integer has more than "
                         "%d digits" % (source, _digit_limit())
                         ) from None
    if not isinstance(doc, dict):
        raise ParseError("%s: expected a JSON object" % source)
    if "case" not in doc:
        return None, doc
    tag = doc["case"]
    kind = next((k for k, (_, t) in classify4d.CASES.items() if t == tag),
                None)
    if kind is None:
        raise ParseError("%s: unknown case tag %r" % (source, tag))
    data = doc.get("data")
    if not isinstance(data, dict):
        raise ParseError("%s: missing data object" % source)
    return kind, data


def _parse_validated(kind, data, source):
    with _naming(source):
        desc = _PARSERS[kind](data)
        classify4d.validate_description(desc)
    return desc


def parse_description(text, source="<input>"):
    """Parse and fully validate a tagged description document."""
    kind, data = _load(text, source)
    if kind is None:
        raise ParseError("%s: missing case tag" % source)
    return _parse_validated(kind, data, source)


def parse_datum_document(text, source="<input>"):
    """Parse a standalone monodromy datum, or parse and fully validate a
    symplectic-orbit file and take its datum."""
    kind, data = _load(text, source)
    if kind is None:
        with _naming(source):
            return parse_datum(data, where="datum")
    if kind is not SymplecticOrbitIngredients:
        raise ParseError("%s: case %r carries no monodromy datum"
                         % (source, classify4d.CASES[kind][1]))
    return _parse_validated(kind, data, source).datum


def description_to_json(desc):
    case, tag = classify4d.case_of(desc)
    if case == 1:
        data = {"vertices": [[format_rational(x) for x in p]
                             for p in desc.vertices]}
    elif case == 2:
        data = {"torus_area": format_rational(desc.torus_area),
                "sphere_area": format_rational(desc.sphere_area)}
    elif case == 3:
        data = {"P_basis": [[format_rational(x) for x in row]
                            for row in desc.p_basis],
                "c": [format_rational(x) for x in desc.c_value],
                "tau": [[format_rational(q) for q in t.coords]
                        for t in desc.tau]}
    else:
        data = datum_to_json(desc.datum)
        data["area"] = format_rational(desc.area)
        data["sigma_t"] = [[format_rational(x) for x in row]
                           for row in desc.sigma_t]
    return {"case": tag, "data": data}


def dumps_description(desc, indent=2):
    return json.dumps(description_to_json(desc), indent=indent)
