"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with  pytest tests/test_acceptance.py -v -s  to see the lines.
Every check is exact (integer/rational equality); the only tolerances
are the per-criterion wall-clock limits, asserted here.
"""

import functools
import itertools
import time
from fractions import Fraction
from pathlib import Path

from conftest import (
    apply_table,
    decode_state,
    dense_action_tables,
    mulclose_mod,
    random_geom_word,
    random_valid_datum,
    seeded,
)
from oracles import (
    NilElement,
    abelianization,
    cocycle,
    group_law,
    model_form_eval,
)
from symtorus.classify4d import (
    DelzantPolygon,
    SymplecticOrbitIngredients,
    classify,
    equivalent as description_equivalent,
    splits_as_product,
    validate_delzant,
)
from symtorus.intmat import (
    IntMatrix,
    elementary_symplectic,
    int_inverse,
    is_symplectic_matrix,
)
from symtorus.lagrangian import (
    LagrangianFreeIngredients,
    extend_tau,
    holonomies_agree,
)
from symtorus.monodromy import (
    act,
    canonical_form,
    equivalent as datum_equivalent,
    is_geometric_matrix,
    orbit,
    validate_datum,
)
from symtorus.orbisurface import (
    FuchsianSignature,
    first_orbifold_homology,
    orbifold_presentation,
)
from symtorus.serialize import parse_description
from symtorus.torus import TorusElement

DATA = Path(__file__).parent / "data"
HALF = Fraction(1, 2)


def T(*coords):
    return TorusElement(coords)


def criterion(number, seconds):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            started = time.perf_counter()
            ok = False
            try:
                fn(*args, **kwargs)
                elapsed = time.perf_counter() - started
                assert elapsed < seconds, (
                    "criterion %d took %.2fs, limit %ds"
                    % (number, elapsed, seconds))
                ok = True
            finally:
                print("acceptance %2d %s (%.2fs, limit %ds)"
                      % (number, "PASS" if ok else "FAIL",
                         time.perf_counter() - started, seconds))
        return wrapper
    return decorate


@criterion(1, 1)
def test_criterion_01_homology_torsion_z5():
    for genus in (0, 1, 2):
        group = first_orbifold_homology(FuchsianSignature(genus, (10, 15)))
        assert group.free_rank == 2 * genus
        assert group.factors == (5,)


@criterion(2, 1)
def test_criterion_02_homology_free_and_coprime_cases():
    torus_one_cone = first_orbifold_homology(FuchsianSignature(1, (2,)))
    assert torus_one_cone.free_rank == 2
    assert torus_one_cone.factors == ()
    coprime = first_orbifold_homology(FuchsianSignature(0, (3, 4, 5)))
    assert coprime.factors == ()


@criterion(3, 1)
def test_criterion_03_geometric_matrix_membership():
    sig = FuchsianSignature(1, (5, 10))
    swap = IntMatrix([
        [1, 0, 0, 0],
        [0, 1, 0, 0],
        [0, 0, 0, 1],
        [0, 0, 1, 0],
    ])
    assert not is_geometric_matrix(swap, sig)
    assert is_geometric_matrix(IntMatrix.identity(4), sig)
    sp = elementary_symplectic(1, 2, 1)
    for c_block in ([[0, 0], [0, 0]], [[1, -2], [3, 4]], [[7, 0], [0, -7]]):
        rows = [
            [sp[0, 0], sp[0, 1], 0, 0],
            [sp[1, 0], sp[1, 1], 0, 0],
            [c_block[0][0], c_block[0][1], 1, 0],
            [c_block[1][0], c_block[1][1], 0, 1],
        ]
        assert is_geometric_matrix(IntMatrix(rows), sig)


@criterion(4, 5)
def test_criterion_04_symplectic_generator_suite():
    rng = seeded(101)
    for g in (1, 2):
        gens = [elementary_symplectic(i, j, g)
                for i, j in itertools.permutations(range(1, 2 * g + 1), 2)]
        for a in gens:
            assert is_symplectic_matrix(a, g)
        pool = gens + [int_inverse(a) for a in gens]
        for _ in range(100):
            word = IntMatrix.identity(2 * g)
            for _ in range(rng.randint(1, 10)):
                word = word * rng.choice(pool)
            assert is_symplectic_matrix(word, g)


@criterion(5, 10)
def test_criterion_05_orbit_machinery_with_closure_oracle():
    sig = FuchsianSignature(0, (2, 2, 2))
    entries = (T(HALF, 0), T(0, HALF), T(HALF, HALF))
    datum = validate_datum(sig, (), entries)

    permutations = {p for p in itertools.permutations(entries)}
    assert orbit(datum) == permutations

    base_form = canonical_form(datum)
    for p in permutations:
        other = validate_datum(sig, (), p)
        assert datum_equivalent(datum, other)
        assert canonical_form(other) == base_form

    # independent oracle: multiplicative closure of the dense generator
    # tables in GL(3, Z/2), applied exhaustively to the start state
    tables = dense_action_tables(sig, 2)
    closure = mulclose_mod(tables, 2)
    start = (1, 0, 0, 1, 1, 1)
    oracle = {decode_state(apply_table(mat, start, 3, 2, 2), 2, 3, 2)
              for mat in closure}
    assert orbit(datum) == oracle


@criterion(6, 60)
def test_criterion_06_canonical_form_orbit_invariance():
    rng = seeded(103)
    for _ in range(100):
        datum = random_valid_datum(rng)
        word = random_geom_word(datum.signature, rng, max_len=6)
        if word is None:
            assert canonical_form(datum) == canonical_form(datum)
            continue
        assert canonical_form(act(word, datum)) == canonical_form(datum)


@criterion(7, 10)
def test_criterion_07_lagrangian_suite():
    rng = seeded(107)

    def rand_frac():
        return Fraction(rng.randint(-6, 6), rng.randint(1, 6))

    # associativity on 500 random triples
    for _ in range(500):
        c_value = (rand_frac(), rand_frac())
        x, y, z = (
            NilElement(T(rand_frac() % 1, rand_frac() % 1),
                       (rand_frac(), rand_frac()))
            for _ in range(3))
        left = group_law(group_law(x, y, c_value), z, c_value)
        right = group_law(x, group_law(y, z, c_value), c_value)
        assert left.t == right.t and left.zeta == right.zeta

    # extension is path independent for |m|, |k| <= 3
    ing = LagrangianFreeIngredients(
        ((1, 0), (0, 1)), (3, -2),
        (T(Fraction(1, 4), Fraction(2, 5)), T(Fraction(3, 7), Fraction(1, 3))))
    f1, f2 = ing.basis_column(0), ing.basis_column(1)
    t1, t2 = ing.tau
    for m in range(-3, 4):
        for k in range(-3, 4):
            alt = extend_tau(ing, 0, k)
            pos = (k * f2[0], k * f2[1])
            step = f1 if m >= 0 else (-f1[0], -f1[1])
            tau_step = t1 if m >= 0 else -t1
            for _ in range(abs(m)):
                corr = cocycle(ing.c_value, step, pos)
                alt = tau_step + alt - T(corr[0] / 2, corr[1] / 2)
                pos = (pos[0] + step[0], pos[1] + step[1])
            assert alt == extend_tau(ing, m, k)

    # holonomy shifts by symmetric maps are equivalences (50 random),
    # the constructed antisymmetric third-shift is not
    base_tau = (T(Fraction(1, 5), 0), T(0, Fraction(1, 7)))
    base = LagrangianFreeIngredients(((1, 0), (0, 1)), (0, 0), base_tau)
    for _ in range(50):
        a, b, c = rand_frac(), rand_frac(), rand_frac()
        shifted = LagrangianFreeIngredients(
            ((1, 0), (0, 1)), (0, 0),
            (base_tau[0] + T(a % 1, b % 1), base_tau[1] + T(b % 1, c % 1)))
        assert holonomies_agree(base, shifted)
    off = LagrangianFreeIngredients(
        ((1, 0), (0, 1)), (0, 0),
        (base_tau[0] + T(0, Fraction(1, 3)),
         base_tau[1] + T(-Fraction(1, 3), 0)))
    assert not holonomies_agree(base, off)

    # flat model form: antisymmetric and bilinear on random vectors
    for _ in range(100):
        u = ((rand_frac(), rand_frac()), (rand_frac(), rand_frac()))
        v = ((rand_frac(), rand_frac()), (rand_frac(), rand_frac()))
        w = ((rand_frac(), rand_frac()), (rand_frac(), rand_frac()))
        q = rand_frac()
        assert model_form_eval(u, v) == -model_form_eval(v, u)
        scaled = ((q * u[0][0], q * u[0][1]), (q * u[1][0], q * u[1][1]))
        assert model_form_eval(scaled, v) == q * model_form_eval(u, v)
        summed = ((u[0][0] + w[0][0], u[0][1] + w[0][1]),
                  (u[1][0] + w[1][0], u[1][1] + w[1][1]))
        assert model_form_eval(summed, v) == (
            model_form_eval(u, v) + model_form_eval(w, v))


@criterion(8, 1)
def test_criterion_08_delzant_suite():
    square = DelzantPolygon(((0, 0), (1, 0), (1, 1), (0, 1)))
    triangle = DelzantPolygon(((0, 0), (1, 0), (0, 1)))
    assert validate_delzant(square)
    assert validate_delzant(triangle)
    assert not validate_delzant(DelzantPolygon(((0, 0), (2, 0), (0, 1))))
    translated = DelzantPolygon(
        tuple((x + 5, y + 7) for x, y in square.vertices))
    assert description_equivalent(square, translated)


@criterion(9, 1)
def test_criterion_09_dispatcher_cases_and_cross_case_inequivalence():
    files = ["case1_delzant.json", "case2_product.json",
             "case3_lagrangian.json", "case4_orbits.json"]
    descriptions = [
        parse_description((DATA / name).read_text(), name) for name in files
    ]
    for expected, desc in enumerate(descriptions, start=1):
        assert classify(desc) == expected
    for d1, d2 in itertools.combinations(descriptions, 2):
        assert not description_equivalent(d1, d2)
        assert not description_equivalent(d2, d1)


@criterion(10, 1)
def test_criterion_10_splitting_criterion():
    free_desc = parse_description(
        (DATA / "case4_free_orbits.json").read_text(), "case4_free_orbits")
    assert splits_as_product(free_desc) is True

    torsion_desc = parse_description(
        (DATA / "case4_orbits.json").read_text(), "case4_orbits")
    assert splits_as_product(torsion_desc) is False

    rng = seeded(109)
    sigma = ((0, Fraction(1)), (Fraction(-1), 0))
    for _ in range(20):
        datum = random_valid_datum(rng)
        desc = SymplecticOrbitIngredients(
            datum.signature, Fraction(1), sigma, datum)
        expected = datum.signature.num_cone_points == 0
        assert splits_as_product(desc) is expected


@criterion(11, 30)
def test_criterion_11_presentation_abelianization_oracle():
    rng = seeded(113)
    for _ in range(50):
        g = rng.randint(0, 3)
        n = rng.randint(0, 4)
        orders = tuple(sorted(rng.randint(2, 12) for _ in range(n)))
        sig = FuchsianSignature(g, orders)
        rank, factors = abelianization(orbifold_presentation(sig))
        group = first_orbifold_homology(sig)
        assert rank == group.free_rank
        assert factors == group.factors
