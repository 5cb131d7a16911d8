import time
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from conftest import seeded, torsion_oracle
from oracles import abelianization, exponent_matrix
from symtorus.orbisurface import (
    FuchsianSignature,
    first_orbifold_homology,
    is_good,
    normalize_signature,
    orbifold_presentation,
)


def test_normalize_sorts():
    assert normalize_signature(1, [10, 5]) == FuchsianSignature(1, (5, 10))


def test_normalize_drops_regular_points():
    assert normalize_signature(0, [1, 2, 2, 2]) == FuchsianSignature(0, (2, 2, 2))


def test_normalize_empty():
    assert normalize_signature(2, []) == FuchsianSignature(2, ())


def test_normalize_rejects_nonpositive():
    with pytest.raises(ValueError):
        normalize_signature(0, [0, 2])
    with pytest.raises(ValueError):
        normalize_signature(0, [-3])


def test_is_good_excluded_shapes():
    assert not is_good(FuchsianSignature(0, (5,)))
    assert not is_good(FuchsianSignature(0, (2, 3)))
    assert is_good(FuchsianSignature(0, (2, 2, 2)))
    assert is_good(FuchsianSignature(0, (2, 2)))
    assert is_good(FuchsianSignature(0, ()))
    assert is_good(FuchsianSignature(1, (7,)))


def test_is_good_shape_of_bad_list():
    # everything with n >= 3 or g >= 1 is good
    rng = seeded(2)
    for _ in range(50):
        g = rng.randint(0, 3)
        n = rng.randint(0, 4)
        orders = tuple(sorted(rng.randint(2, 9) for _ in range(n)))
        sig = FuchsianSignature(g, orders)
        if n >= 3 or g >= 1:
            assert is_good(sig)


def test_presentation_torus_with_one_cone_point():
    pres = orbifold_presentation(FuchsianSignature(1, (2,)))
    assert pres.generators == ("a1", "b1", "g1")
    # relators: g1 [a1,b1]^-1 and g1^2
    main = (("g1", 1), ("b1", 1), ("a1", 1), ("b1", -1), ("a1", -1))
    assert pres.relators == (main, (("g1", 2),))


def test_presentation_surface_group():
    pres = orbifold_presentation(FuchsianSignature(2, ()))
    assert pres.generators == ("a1", "b1", "a2", "b2")
    assert len(pres.relators) == 1
    exps = exponent_matrix(pres)
    assert exps == [[0, 0, 0, 0]]


def test_presentation_trivial():
    pres = orbifold_presentation(FuchsianSignature(0, ()))
    assert pres.generators == ()
    assert pres.relators == ()


def test_homology_torus_one_cone_point_of_order_two():
    group = first_orbifold_homology(FuchsianSignature(1, (2,)))
    assert group.free_rank == 2
    assert group.factors == ()


@pytest.mark.parametrize("genus", [0, 1, 2])
def test_homology_orders_10_15_gives_z5(genus):
    group = first_orbifold_homology(FuchsianSignature(genus, (10, 15)))
    assert group.free_rank == 2 * genus
    assert group.factors == (5,)


def test_homology_coprime_orders_trivial_torsion():
    group = first_orbifold_homology(FuchsianSignature(0, (3, 4, 5)))
    assert group.free_rank == 0
    assert group.factors == ()


def test_homology_invariant_under_order_permutation():
    rng = seeded(9)
    for _ in range(20):
        orders = sorted(rng.randint(2, 12) for _ in range(rng.randint(1, 4)))
        base = first_orbifold_homology(FuchsianSignature(0, tuple(orders)))
        shuffled = list(orders)
        rng.shuffle(shuffled)
        sig = normalize_signature(0, shuffled)
        assert first_orbifold_homology(sig).factors == base.factors


def test_abelianization_consistency_oracle():
    rng = seeded(21)
    for _ in range(50):
        g = rng.randint(0, 3)
        n = rng.randint(0, 4)
        orders = tuple(sorted(rng.randint(2, 12) for _ in range(n)))
        sig = FuchsianSignature(g, orders)
        rank, factors = abelianization(orbifold_presentation(sig))
        group = first_orbifold_homology(sig)
        assert rank == group.free_rank
        assert factors == group.factors


def test_torsion_group_order_matches_quotient_formula():
    # |(Z/o1 x ... x Z/on) / <(1,...,1)>| = prod(o_k) / lcm(o_k), an
    # independent check on the invariant factors
    from math import lcm as _lcm

    rng = seeded(33)
    for _ in range(40):
        n = rng.randint(1, 5)
        orders = tuple(sorted(rng.randint(2, 16) for _ in range(n)))
        group = first_orbifold_homology(FuchsianSignature(0, orders))
        product = 1
        for o in orders:
            product *= o
        expected = product // _lcm(*orders)
        got = 1
        for d in group.factors:
            got *= d
        assert got == expected, (orders, group.factors)


ORDERS = st.one_of(st.integers(2, 64), st.integers(2, 10 ** 6))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.integers(0, 3), st.lists(ORDERS, max_size=40))
def test_homology_matches_prime_by_prime_oracle(genus, orders):
    group = first_orbifold_homology(normalize_signature(genus, orders))
    assert group.free_rank == 2 * genus
    assert list(group.factors) == torsion_oracle(orders)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.integers(0, 3), st.lists(st.integers(2, 30), max_size=6))
def test_homology_matches_abelianization_of_the_presentation(genus, orders):
    sig = normalize_signature(genus, orders)
    group = first_orbifold_homology(sig)
    assert abelianization(orbifold_presentation(sig)) == (
        group.free_rank, group.factors)


def test_homology_of_a_thousand_cone_points_is_polynomial():
    rng = seeded(57)
    orders = [rng.randint(2, 12) for _ in range(1000)]
    start = time.perf_counter()
    group = first_orbifold_homology(normalize_signature(0, orders))
    assert time.perf_counter() - start < 30
    assert list(group.factors) == torsion_oracle(orders)


def test_homology_holds_the_relation_matrix_once():
    """At 500 cone points the dense relation matrix is held once: the
    peak stays under 5 MiB (about 3.8 MiB; it was 5.9 MiB while the
    rows were built, then copied, then transposed)."""
    rng = seeded(61)
    sig = normalize_signature(0, [rng.randint(2, 12) for _ in range(500)])
    tracemalloc.start()
    try:
        first_orbifold_homology(sig)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2 ** 20
