from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_geom_word, seeded, unimodular
from oracles import fraction_same_polygon, fraction_validate_delzant
from symtorus.classify4d import (
    DelzantPolygon,
    ProductT2S2,
    SymplecticOrbitIngredients,
    classify,
    construct_model_report,
    equivalent,
    splits_as_product,
    validate_delzant,
    validate_description,
)
from symtorus.errors import ValidationError
from symtorus.lagrangian import LagrangianFreeIngredients
from symtorus.monodromy import act, validate_datum
from symtorus.orbisurface import FuchsianSignature
from symtorus.torus import TorusElement

HALF = Fraction(1, 2)


def T(*coords):
    return TorusElement(coords)


SQUARE = DelzantPolygon(((0, 0), (1, 0), (1, 1), (0, 1)))
TRIANGLE = DelzantPolygon(((0, 0), (1, 0), (0, 1)))
SIG222 = FuchsianSignature(0, (2, 2, 2))
C222 = (T(HALF, 0), T(0, HALF), T(HALF, HALF))
SIGMA_T = ((0, Fraction(1)), (Fraction(-1), 0))


def orbits_desc(datum=None, area=Fraction(1), sigma=SIGMA_T):
    if datum is None:
        datum = validate_datum(SIG222, (), C222)
    return SymplecticOrbitIngredients(datum.signature, area, sigma, datum)


def lagrangian_desc():
    return LagrangianFreeIngredients(
        ((1, 0), (0, 1)), (0, 0), (T(0, 0), T(0, 0)))


def test_validate_delzant_unit_square():
    assert validate_delzant(SQUARE)


def test_validate_delzant_projective_plane_triangle():
    assert validate_delzant(TRIANGLE)


def test_validate_delzant_rejects_non_smooth_vertex():
    # at vertex (0,1) the primitive edge vectors have determinant 2
    assert not validate_delzant(DelzantPolygon(((0, 0), (2, 0), (0, 1))))


def test_validate_delzant_orientation_and_start_invariance():
    reversed_square = DelzantPolygon(tuple(reversed(SQUARE.vertices)))
    assert validate_delzant(reversed_square)
    rotated = DelzantPolygon(SQUARE.vertices[2:] + SQUARE.vertices[:2])
    assert validate_delzant(rotated)
    shifted = DelzantPolygon(tuple((x + 3, y - 7) for x, y in SQUARE.vertices))
    assert validate_delzant(shifted)


def test_validate_delzant_rejects_nonconvex_and_collinear():
    dent = DelzantPolygon(((0, 0), (2, 0), (1, 1), (2, 2), (0, 2)))
    assert not validate_delzant(dent)
    collinear = DelzantPolygon(((0, 0), (1, 0), (2, 0), (0, 1)))
    assert not validate_delzant(collinear)


def test_polygon_needs_three_vertices():
    with pytest.raises(ValidationError):
        DelzantPolygon(((0, 0), (1, 0)))


def test_classify_labels():
    assert classify(SQUARE) == 1
    assert classify(ProductT2S2(1, 2)) == 2
    assert classify(lagrangian_desc()) == 3
    assert classify(orbits_desc()) == 4


def test_classify_rejects_invalid():
    with pytest.raises(ValidationError):
        classify(ProductT2S2(0, 2))
    with pytest.raises(ValidationError):
        classify(DelzantPolygon(((0, 0), (2, 0), (0, 1))))
    bad_form = orbits_desc(sigma=((0, Fraction(0)), (Fraction(0), 0)))
    with pytest.raises(ValidationError):
        classify(bad_form)
    asym = orbits_desc(sigma=((0, Fraction(1)), (Fraction(1), 0)))
    with pytest.raises(ValidationError):
        classify(asym)


def test_classify_rejects_bad_signature():
    sig = FuchsianSignature(0, (2, 3))
    datum = validate_datum(
        FuchsianSignature(0, (2, 2)), (), (T(HALF, 0), T(HALF, 0)))
    broken = SymplecticOrbitIngredients(sig, Fraction(1), SIGMA_T, datum)
    with pytest.raises(ValidationError):
        validate_description(broken)


def test_translated_polygon_equivalent():
    moved = DelzantPolygon(tuple((x + 5, y + 7) for x, y in SQUARE.vertices))
    assert equivalent(SQUARE, moved)
    assert not equivalent(SQUARE, TRIANGLE)


def test_cross_case_never_equivalent():
    descriptions = [SQUARE, ProductT2S2(1, 1), lagrangian_desc(), orbits_desc()]
    for i, d1 in enumerate(descriptions):
        for d2 in descriptions[i + 1:]:
            assert not equivalent(d1, d2)
            assert not equivalent(d2, d1)


def test_product_equivalence_is_area_equality():
    assert equivalent(ProductT2S2(1, 2), ProductT2S2(1, 2))
    assert not equivalent(ProductT2S2(1, 2), ProductT2S2(2, 1))


def test_orbit_case_equivalence_permuted_torsion():
    d1 = orbits_desc()
    permuted = validate_datum(SIG222, (), (C222[1], C222[2], C222[0]))
    d2 = orbits_desc(datum=permuted)
    assert equivalent(d1, d2)


def test_orbit_case_distinguishes_area_and_form():
    d1 = orbits_desc()
    assert not equivalent(d1, orbits_desc(area=Fraction(2)))
    other_form = ((0, HALF), (-HALF, 0))
    assert not equivalent(d1, orbits_desc(sigma=other_form))


def test_orbit_case_invariant_under_random_geometric_matrix():
    rng = seeded(47)
    base = validate_datum(SIG222, (), C222)
    for _ in range(10):
        word = random_geom_word(SIG222, rng)
        moved = orbits_desc(datum=act(word, base))
        assert equivalent(orbits_desc(), moved)


def test_splits_as_product():
    free_sig = FuchsianSignature(1, ())
    free_datum = validate_datum(free_sig, (T(HALF, 0), T(0, 0)), (), dim=2)
    free_desc = SymplecticOrbitIngredients(
        free_sig, Fraction(1), SIGMA_T, free_datum)
    assert splits_as_product(free_desc) is True
    assert splits_as_product(orbits_desc()) is False
    assert splits_as_product(SQUARE) is None
    assert splits_as_product(ProductT2S2(1, 1)) is None


def test_report_case_one_lists_vertices():
    report = construct_model_report(SQUARE)
    assert report["case"] == 1
    assert len(report["vertices"]) == 4
    assert any("all smooth" in line for line in report["lines"])


def test_report_case_two_echoes_areas():
    report = construct_model_report(ProductT2S2(1, 2))
    assert report["torus_area"] == "1"
    assert report["sphere_area"] == "2"


def test_report_case_three_abelian_note_when_cocycle_vanishes():
    report = construct_model_report(lagrangian_desc())
    assert report["case"] == 3
    assert any("abelian group T x t*" in line for line in report["lines"])
    assert report["form_matrix"] == [
        [0, 0, -1, 0], [0, 0, 0, -1], [1, 0, 0, 0], [0, 1, 0, 0]]


def test_report_case_four_contains_presentation_and_monodromy():
    sig = FuchsianSignature(1, (2, 2))
    c = (T(HALF, HALF), T(HALF, HALF))
    datum = validate_datum(sig, (T(0, 0), T(0, 0)), c)
    desc = SymplecticOrbitIngredients(sig, Fraction(1), SIGMA_T, datum)
    report = construct_model_report(desc)
    assert report["case"] == 4
    assert "[a1, b1] = g1 g2" in report["presentation"]["relations"]
    assert "g1^2 = 1" in report["presentation"]["relations"]
    assert report["monodromy"]["g1"] == ["1/2", "1/2"]
    assert any("associated bundle" in line for line in report["lines"])


def test_report_relators_for_one_handle_one_cone():
    # the (1; 2) presentation itself: commutator equals the cone loop
    from symtorus.orbisurface import orbifold_presentation

    pres = orbifold_presentation(FuchsianSignature(1, (2,)))
    assert pres.generators == ("a1", "b1", "g1")
    assert (("g1", 2),) in pres.relators


def test_equivalent_reflexive_and_symmetric_on_sample_files():
    from pathlib import Path

    from symtorus.serialize import parse_description

    data = Path(__file__).parent / "data"
    samples = [parse_description(p.read_text(), p.name)
               for p in sorted(data.glob("*.json"))]
    assert len(samples) >= 5
    for d in samples:
        assert equivalent(d, d)
    for d1 in samples:
        for d2 in samples:
            assert equivalent(d1, d2) == equivalent(d2, d1)


def test_equivalent_transitive_within_case():
    rng = seeded(53)
    base = validate_datum(SIG222, (), C222)
    triple = [orbits_desc()]
    triple.append(orbits_desc(
        datum=validate_datum(SIG222, (), (C222[1], C222[0], C222[2]))))
    triple.append(orbits_desc(datum=act(random_geom_word(SIG222, rng), base)))
    squares = [SQUARE,
               DelzantPolygon(tuple((x + 2, y) for x, y in SQUARE.vertices)),
               DelzantPolygon(tuple((x - 1, y + 4) for x, y in SQUARE.vertices))]
    for group in (triple, squares):
        for d1 in group:
            for d2 in group:
                for d3 in group:
                    if equivalent(d1, d2) and equivalent(d2, d3):
                        assert equivalent(d1, d3)


# Small rationals, and rationals over large coprime denominators.
PRIMES = (999983, 1000003, 10 ** 12 + 39, 2 ** 61 - 1, 2 ** 89 - 1)
RATIONALS = st.one_of(
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6)),
    st.builds(Fraction, st.integers(-10 ** 30, 10 ** 30),
              st.sampled_from(PRIMES)))
SIDES = st.one_of(
    st.builds(Fraction, st.integers(1, 9), st.integers(1, 6)),
    st.builds(Fraction, st.integers(1, 10 ** 30), st.sampled_from(PRIMES)))


@st.composite
def polygon_vertices(draw):
    """Vertices of a Delzant triangle, rectangle or Hirzebruch trapezoid
    under a unimodular map and a translation, perhaps with a vertex
    repeated, an edge midpoint added or a vertex moved, or 3 to 8 random
    vertices; in either order, from any start."""
    kind = draw(st.sampled_from(
        ["smooth"] * 3 + ["repeat", "collinear", "moved", "random"]))
    if kind == "random":
        points = [(draw(RATIONALS), draw(RATIONALS))
                  for _ in range(draw(st.integers(3, 8)))]
    else:
        a, b, k = draw(SIDES), draw(SIDES), draw(st.integers(0, 3))
        shape = draw(st.sampled_from([
            [(0, 0), (a, 0), (0, a)],
            [(0, 0), (a, 0), (a, b), (0, b)],
            [(0, 0), (a + k * b, 0), (a, b), (0, b)]]))
        (u00, u01), (u10, u11) = draw(unimodular(st.integers(-50, 50)))
        tx, ty = draw(RATIONALS), draw(RATIONALS)
        points = [(u00 * x + u01 * y + tx, u10 * x + u11 * y + ty)
                  for x, y in shape]
        i = draw(st.integers(0, len(points) - 1))
        p, q = points[i], points[(i + 1) % len(points)]
        if kind == "repeat":
            points.insert(i, p)
        elif kind == "collinear":
            points.insert(i + 1, ((p[0] + q[0]) / 2, (p[1] + q[1]) / 2))
        elif kind == "moved":
            points[i] = (p[0] + draw(RATIONALS), p[1])
    if draw(st.booleans()):
        points.reverse()
    start = draw(st.integers(0, len(points) - 1))
    return points[start:] + points[:start]


@settings(max_examples=300, deadline=None)
@given(polygon_vertices())
def test_validate_delzant_matches_the_fraction_oracle(points):
    polygon = DelzantPolygon(points)
    assert validate_delzant(polygon) is fraction_validate_delzant(
        polygon.vertices)


@settings(max_examples=300, deadline=None)
@given(polygon_vertices(), st.sampled_from(["translate", "moved", "other"]),
       RATIONALS, RATIONALS, st.data())
def test_polygon_equivalence_matches_the_fraction_oracle(
        points, relation, tx, ty, data):
    if relation == "other":
        other = data.draw(polygon_vertices())
    else:
        other = [(x + tx, y + ty) for x, y in points]
        if relation == "moved":
            other[0] = (other[0][0], other[0][1] + tx)
        if data.draw(st.booleans()):
            other.reverse()
        start = data.draw(st.integers(0, len(other) - 1))
        other = other[start:] + other[:start]
    one, two = DelzantPolygon(points), DelzantPolygon(other)
    assert equivalent(one, two) is fraction_same_polygon(
        one.vertices, two.vertices)
