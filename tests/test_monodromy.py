import importlib
import itertools
import pkgutil
import time
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import (
    apply_table,
    closure_mod,
    decode_state,
    dense_action_tables,
    mulclose_mod,
    random_geom_word,
    encode_over,
    random_valid_datum,
    seeded,
    state_closure_oracle,
)
import symtorus
from symtorus import intmat, monodromy, orbitcount
from symtorus import orbitset
from symtorus.errors import OrbitSizeExceeded, OrderViolation, SumViolation
from symtorus.intmat import IntMatrix, elementary_symplectic, int_inverse
from symtorus.monodromy import (
    GeomMatrix,
    MonodromyDatum,
    Orbit,
    act,
    canonical_form,
    equivalent,
    group_generators,
    is_geometric_matrix,
    orbit,
    orbit_size,
    torsion_monodromy_trivial,
    validate_datum,
)
from symtorus.orbisurface import FuchsianSignature
from symtorus.orbitset import _twists
from symtorus.serialize import parse_datum
from symtorus.torus import TorusElement, element_order

HALF = Fraction(1, 2)


def T(*coords):
    return TorusElement(coords)


SIG222 = FuchsianSignature(0, (2, 2, 2))
C222 = (T(HALF, 0), T(0, HALF), T(HALF, HALF))


def test_validate_datum_accepts_half_torsion_triple():
    datum = validate_datum(SIG222, (), C222)
    assert datum.torsion == C222
    assert datum.dim == 2


def test_validate_datum_order_violation():
    sig = FuchsianSignature(0, (2, 2))
    with pytest.raises(OrderViolation) as info:
        validate_datum(sig, (), (T(Fraction(1, 3), 0), T(HALF, 0)))
    assert info.value.indices == (0,)


def test_validate_datum_sum_violation():
    sig = FuchsianSignature(0, (2, 2))
    with pytest.raises(SumViolation):
        validate_datum(sig, (), (T(HALF, 0), T(0, HALF)))


def test_validate_datum_zero_torsion_is_order_violation():
    sig = FuchsianSignature(0, (2, 2))
    with pytest.raises(OrderViolation):
        validate_datum(sig, (), (T(0, 0), T(0, 0)))


def test_datum_constructor_checks_its_constraints():
    sig = FuchsianSignature(0, (2, 2))
    with pytest.raises(OrderViolation):
        MonodromyDatum(sig, 2, 6, ((2, 0), (3, 0)))
    with pytest.raises(SumViolation):
        MonodromyDatum(sig, 2, 2, ((1, 0), (0, 1)))
    with pytest.raises(ValueError):
        MonodromyDatum(sig, 2, 2, ((1, 0),))
    with pytest.raises(ValueError):
        MonodromyDatum(sig, 3, 2, ((1, 0), (1, 0)))
    assert MonodromyDatum(sig, 2, 2, ((1, 0), (1, 0))) == \
        validate_datum(sig, [], [T(HALF, 0), T(HALF, 0)])


def test_datum_constructor_keeps_one_form():
    """The modulus is the lcm of the image orders and each numerator
    lies in [0, N), so equal data have equal stored forms; the torus
    points are decoded from them."""
    sig = FuchsianSignature(1, (2, 2))
    with pytest.raises(ValueError, match="lcm"):
        MonodromyDatum(sig, 2, 4, ((0, 0), (0, 0), (2, 0), (2, 0)))
    with pytest.raises(ValueError, match="lie in"):
        MonodromyDatum(sig, 2, 2, ((2, 0), (0, 0), (1, 0), (1, 0)))
    with pytest.raises(ValueError, match="lie in"):
        MonodromyDatum(sig, 2, 2, ((-1, 0), (0, 0), (1, 0), (1, 0)))
    datum = MonodromyDatum(sig, 2, 6, [[1, 3], [0, 2], [3, 0], [3, 0]])
    assert datum.numerators == ((1, 3), (0, 2), (3, 0), (3, 0))
    assert datum.free == (T(Fraction(1, 6), HALF), T(0, Fraction(1, 3)))
    assert datum.torsion == (T(HALF, 0), T(HALF, 0))
    assert datum.entries == datum.free + datum.torsion
    assert datum == validate_datum(sig, datum.free, datum.torsion)
    assert hash(datum) == hash(validate_datum(sig, datum.free,
                                              datum.torsion))
    with pytest.raises(AttributeError):
        datum.free = ()


def test_is_geometric_identity():
    sig = FuchsianSignature(1, (5, 10))
    assert is_geometric_matrix(IntMatrix.identity(4), sig)


def test_is_geometric_rejects_order_swapping_permutation():
    sig = FuchsianSignature(1, (5, 10))
    swap = IntMatrix([
        [1, 0, 0, 0],
        [0, 1, 0, 0],
        [0, 0, 0, 1],
        [0, 0, 1, 0],
    ])
    assert not is_geometric_matrix(swap, sig)


def test_is_geometric_accepts_sp_block_with_arbitrary_c():
    sig = FuchsianSignature(1, (2, 2))
    b = IntMatrix([
        [1, 1, 0, 0],
        [0, 1, 0, 0],
        [1, 1, 1, 0],
        [1, 1, 0, 1],
    ])
    assert is_geometric_matrix(b, sig)


def test_is_geometric_rejects_nonzero_upper_right():
    sig = FuchsianSignature(1, (2,))
    b = IntMatrix([
        [1, 0, 1],
        [0, 1, 0],
        [0, 0, 1],
    ])
    assert not is_geometric_matrix(b, sig)


def test_is_geometric_size_mismatch():
    with pytest.raises(ValueError):
        is_geometric_matrix(IntMatrix.identity(3), FuchsianSignature(1, (5, 10)))


def test_generators_g0_n2_single_swap():
    gens = group_generators(FuchsianSignature(0, (2, 2)))
    assert len(gens) == 1
    assert gens[0].matrix == IntMatrix([[0, 1], [1, 0]])


def test_generators_torus_no_cone_points():
    gens = group_generators(FuchsianSignature(1, ()))
    mats = {g.matrix for g in gens}
    assert mats == {elementary_symplectic(1, 2, 1), elementary_symplectic(2, 1, 1)}


def test_generators_counts_for_distinct_orders():
    gens = group_generators(FuchsianSignature(1, (5, 10)))
    # 2 symplectic embeddings + 4 unit lower-left blocks, no swaps
    assert len(gens) == 6


def test_act_identity():
    datum = validate_datum(SIG222, (), C222)
    ident = GeomMatrix(IntMatrix.identity(3), SIG222)
    assert act(ident, datum) == datum


def test_act_swap_fixes_equal_entries():
    sig = FuchsianSignature(0, (2, 2))
    datum = validate_datum(sig, (), (T(HALF, 0), T(HALF, 0)))
    swap = GeomMatrix(IntMatrix([[0, 1], [1, 0]]), sig)
    assert act(swap, datum) == datum


def test_act_unit_c_block_mixes_torsion_into_free_slot():
    # A single cone point can never carry a valid datum (its class dies
    # in homology, forcing c1 = 0 against order(c1) = o1), so the unit
    # lower-left mixing is exercised on (1; 2, 2).
    sig = FuchsianSignature(1, (2, 2))
    a1, b1 = T(Fraction(1, 4), 0), T(0, Fraction(1, 4))
    c1 = T(HALF, HALF)
    datum = validate_datum(sig, (a1, b1), (c1, c1))
    rows = [[1 if i == j else 0 for j in range(4)] for i in range(4)]
    rows[2][0] = 1
    b = GeomMatrix(IntMatrix(rows), sig)
    # explicit inverse: B^-1 = I - E31, so the new a1 slot picks up -c1
    inv_rows = [[1 if i == j else 0 for j in range(4)] for i in range(4)]
    inv_rows[2][0] = -1
    assert int_inverse(b.matrix) == IntMatrix(inv_rows)
    moved = act(b, datum)
    assert moved.free == (a1 - c1, b1)
    assert moved.torsion == (c1, c1)


def test_act_is_group_action():
    rng = seeded(17)
    for _ in range(15):
        datum = random_valid_datum(rng)
        sig = datum.signature
        if not group_generators(sig):
            continue
        b1 = random_geom_word(sig, rng)
        b2 = random_geom_word(sig, rng)
        assert act(b1, act(b2, datum)) == act(b1 * b2, datum)


def test_act_preserves_validity():
    rng = seeded(19)
    for _ in range(15):
        datum = random_valid_datum(rng)
        word = random_geom_word(datum.signature, rng)
        if word is None:
            continue
        moved = act(word, datum)  # act re-validates internally
        assert moved.signature == datum.signature


def test_orbit_singleton_for_equal_pair():
    sig = FuchsianSignature(0, (2, 2))
    datum = validate_datum(sig, (), (T(HALF, 0), T(HALF, 0)))
    assert orbit(datum) == {(T(HALF, 0), T(HALF, 0))}


def test_orbit_of_three_half_points_is_all_permutations():
    datum = validate_datum(SIG222, (), C222)
    got = orbit(datum)
    assert got == {p for p in itertools.permutations(C222)}


def test_orbit_zero_free_datum_is_singleton():
    sig = FuchsianSignature(1, ())
    datum = validate_datum(sig, (T(0, 0), T(0, 0)), (), dim=2)
    assert orbit(datum) == {(T(0, 0), T(0, 0))}


def test_orbit_cap():
    rng = seeded(23)
    datum = random_valid_datum(rng)
    with pytest.raises(OrbitSizeExceeded):
        orbit(datum, max_states=1)


QUARTER = Fraction(1, 4)
GENUS2_MOD4 = validate_datum(
    FuchsianSignature(2, ()),
    (T(QUARTER, 0), T(0, QUARTER), T(HALF, QUARTER),
     T(QUARTER, 3 * QUARTER)), ())


def _plain_bfs_depth(start, tables, m, d, modulus, cap):
    """Depth of the BFS level at which a closure under dense matrices
    first holds more than ``cap`` states; None when the whole orbit
    fits."""
    seen, frontier, depth = {start}, {start}, 0
    while len(seen) <= cap:
        if not frontier:
            return None
        depth += 1
        frontier = {apply_table(t, s, m, d, modulus)
                    for s in frontier for t in tables} - seen
        seen |= frontier
    return depth


THIRD = Fraction(1, 3)
# K = (Z/3)^3 has rank 3, so its orbit (17,280 points) is still closed.
THIRDS_RANK3 = validate_datum(
    FuchsianSignature(2, ()),
    (T(THIRD, 0, 0), T(0, THIRD, 0), T(0, 0, THIRD), T(0, 0, 0)), ())


def test_canonical_form_cap_reports_how_far_the_search_got():
    with pytest.raises(OrbitSizeExceeded) as info:
        canonical_form(THIRDS_RANK3, max_states=100)
    assert info.value.cap == 100
    assert info.value.states == 100
    # No cone points: the quotient is T[3] itself, closed from the datum's
    # own numerators under the 2g+1 transvections.
    depth = _plain_bfs_depth((1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0),
                             [_twist_matrix(twist, 4) for twist in _twists(2)],
                             4, 3, 3, 100)
    assert info.value.depth == depth == 4
    assert "reaching 100 states at BFS depth 4" in str(info.value)


QUARTERS_2222 = validate_datum(
    FuchsianSignature(1, (2, 2, 2, 2)), (T(QUARTER, 0), T(0, QUARTER)),
    (T(HALF, 0), T(HALF, 0), T(0, HALF), T(0, HALF)))


@pytest.mark.parametrize("datum,size", [
    (validate_datum(SIG222, (), C222), 6),
    (GENUS2_MOD4, 11520),
    # |H| = 4, 6 arrangements of the run, 6 ordered bases of T/H = (Z/2)^2.
    (QUARTERS_2222, 4 ** 2 * 6 * 6),
])
def test_orbit_cap_is_exact(datum, size):
    assert len(orbit(datum, max_states=size)) == size
    with pytest.raises(OrbitSizeExceeded) as info:
        orbit(datum, max_states=size - 1)
    assert info.value.cap == size - 1
    assert info.value.states <= size - 1


def test_equivalent_invariant_mismatch_needs_no_closure():
    sig = QUARTERS_2222.signature
    other_runs = validate_datum(
        sig, QUARTERS_2222.free,
        (T(HALF, HALF), T(HALF, HALF), T(0, HALF), T(0, HALF)))
    narrower = validate_datum(sig, (T(QUARTER, 0), T(QUARTER, 0)),
                              QUARTERS_2222.torsion)
    narrower_free = validate_datum(
        FuchsianSignature(2, ()),
        (T(QUARTER, 0), T(0, 0), T(0, 0), T(HALF, 0)), ())
    for d1, d2 in ((QUARTERS_2222, other_runs), (QUARTERS_2222, narrower),
                   (GENUS2_MOD4, narrower_free)):
        assert equivalent(d1, d2, max_states=1) is False
        assert equivalent(d2, d1, max_states=1) is False
        with pytest.raises(OrbitSizeExceeded):
            equivalent(d1, d1, max_states=1)
    # Same runs and the same span, so the orbit decides.
    moved = validate_datum(sig, (T(QUARTER, QUARTER), T(0, QUARTER)),
                           QUARTERS_2222.torsion[::-1])
    assert equivalent(QUARTERS_2222, moved)


def test_equivalent_reflexive_and_permutation():
    datum = validate_datum(SIG222, (), C222)
    assert equivalent(datum, datum)
    cyc = validate_datum(SIG222, (), (C222[2], C222[0], C222[1]))
    assert equivalent(datum, cyc)


def test_equivalent_distinguishes_singletons():
    sig = FuchsianSignature(0, (2, 2))
    a = validate_datum(sig, (), (T(HALF, 0), T(HALF, 0)))
    b = validate_datum(sig, (), (T(0, HALF), T(0, HALF)))
    assert not equivalent(a, b)


def test_equivalent_signature_mismatch_is_false():
    a = validate_datum(SIG222, (), C222)
    sig = FuchsianSignature(0, (2, 2))
    b = validate_datum(sig, (), (T(HALF, 0), T(HALF, 0)))
    assert equivalent(a, b) is False


def test_equivalent_false_when_moduli_differ():
    sig = FuchsianSignature(1, ())
    zero = T(0, 0)
    halves = validate_datum(sig, (T(HALF, 0), zero), ())
    thirds = validate_datum(sig, (T(Fraction(1, 3), 0), zero), ())
    quarters = validate_datum(sig, (T(QUARTER, 0), zero), ())
    for a, b in itertools.permutations((halves, thirds, quarters), 2):
        assert equivalent(a, b) is False
    assert equivalent(halves, validate_datum(sig, (zero, T(HALF, 0)), ()))


def test_equivalent_moduli_mismatch_needs_no_closure():
    halves = validate_datum(
        FuchsianSignature(2, ()),
        (T(HALF, 0), T(0, 0), T(0, HALF), T(0, 0)), ())
    assert equivalent(GENUS2_MOD4, halves, max_states=100) is False
    assert equivalent(halves, GENUS2_MOD4, max_states=100) is False
    with pytest.raises(OrbitSizeExceeded):
        equivalent(GENUS2_MOD4, GENUS2_MOD4, max_states=100)


def test_equivalent_is_equivalence_relation_on_samples():
    rng = seeded(29)
    data = [random_valid_datum(rng) for _ in range(8)]
    for d in data:
        assert equivalent(d, d)
    for d1 in data:
        for d2 in data:
            assert equivalent(d1, d2) == equivalent(d2, d1)
    for d1 in data:
        for d2 in data:
            for d3 in data:
                if equivalent(d1, d2) and equivalent(d2, d3):
                    assert equivalent(d1, d3)


def test_canonical_form_constant_on_orbit():
    datum = validate_datum(SIG222, (), C222)
    base = canonical_form(datum)
    for p in itertools.permutations(C222):
        assert canonical_form(validate_datum(SIG222, (), p)) == base


def test_canonical_form_invariant_under_random_words():
    rng = seeded(31)
    for _ in range(25):
        datum = random_valid_datum(rng)
        word = random_geom_word(datum.signature, rng)
        if word is None:
            continue
        assert canonical_form(act(word, datum)) == canonical_form(datum)


def test_canonical_form_singleton():
    sig = FuchsianSignature(0, (2, 2))
    datum = validate_datum(sig, (), (T(HALF, 0), T(HALF, 0)))
    assert canonical_form(datum) == (T(HALF, 0), T(HALF, 0))


def free_form(genus, free):
    """The canonical form of free images alone (no cone points)."""
    return canonical_form(validate_datum(FuchsianSignature(genus, ()),
                                         free, ()))


def test_free_invariant_zero_datum():
    zero = (T(0, 0), T(0, 0))
    assert free_form(1, zero) == zero


def test_free_invariant_slot_swap():
    a = free_form(1, (T(HALF, 0), T(0, 0)))
    b = free_form(1, (T(0, 0), T(HALF, 0)))
    assert a == b


def test_free_invariant_pair_via_bfs():
    start = (T(HALF, 0), T(0, HALF))
    form = free_form(1, start)
    # oracle: enumerate all 6 invertible 2x2 matrices over Z/2 (the full
    # symplectic group in rank 2) and apply them to the pair directly
    import itertools as it

    mats = [m for m in it.product((0, 1), repeat=4)
            if (m[0] * m[3] - m[1] * m[2]) % 2 == 1]
    reachable = set()
    for a, b, c, d in mats:
        reachable.add((
            a * start[0] + c * start[1],
            b * start[0] + d * start[1],
        ))
    assert form == min(reachable, key=lambda p: (p[0].coords, p[1].coords))
    assert form == (T(0, HALF), T(HALF, 0))


def test_torsion_monodromy_trivial():
    free_datum = validate_datum(FuchsianSignature(1, ()), (T(HALF, 0), T(0, 0)), (), dim=2)
    assert torsion_monodromy_trivial(free_datum)
    assert not torsion_monodromy_trivial(validate_datum(SIG222, (), C222))


def orbit_by_closure_oracle(datum, modulus):
    """Exhaustive oracle: close the dense generator tables in GL(m, Z/N)
    and apply every group element to the start state; decoded."""
    sig = datum.signature
    m = 2 * sig.genus + sig.num_cone_points
    start = encode_over(datum, modulus)
    tables = dense_action_tables(sig, modulus)
    states = {start}
    if tables:
        states = {apply_table(mat, start, m, datum.dim, modulus)
                  for mat in mulclose_mod(tables, modulus)}
    return {decode_state(s, modulus, m, datum.dim) for s in states}


def test_orbit_matches_group_closure_oracle():
    rng = seeded(37)
    for _ in range(12):
        datum = random_valid_datum(rng)
        assert orbit(datum) == orbit_by_closure_oracle(datum, 2)


@st.composite
def sweep_datum(draw):
    """A valid datum with g <= 2 and images in (1/N)Z^2, N in {2,3,4,6}:
    random free images and torsion images summing to zero; the cone
    orders are the orders of the torsion images."""
    modulus = draw(st.sampled_from((2, 3, 4, 6)))
    genus = draw(st.integers(0, 2))
    point = st.tuples(st.integers(0, modulus - 1),
                      st.integers(0, modulus - 1))
    free = draw(st.lists(point, min_size=2 * genus, max_size=2 * genus))
    torsion = draw(st.lists(point.filter(any), max_size=3))
    if torsion:
        torsion.append(tuple(-sum(c) % modulus for c in zip(*torsion)))
    if not all(any(p) for p in torsion):
        torsion = []
    torsion = [T(*(Fraction(x, modulus) for x in p)) for p in torsion]
    torsion.sort(key=element_order)
    sig = FuchsianSignature(genus, tuple(map(element_order, torsion)))
    free = [T(*(Fraction(x, modulus) for x in p)) for p in free]
    return validate_datum(sig, free, torsion, 2), modulus


THIRDS_33 = validate_datum(
    FuchsianSignature(1, (3, 3)),
    (T(Fraction(1, 3), 0), T(Fraction(2, 3), Fraction(1, 3))),
    (T(Fraction(2, 3), Fraction(1, 3)), T(Fraction(1, 3), Fraction(2, 3))))


@settings(max_examples=60, deadline=None)
@given(sweep_datum())
# In Smith coordinates the least quotient state of this orbit was not its
# least torus point.
@example((THIRDS_33, 3))
def test_orbit_view_equals_decoded_state_closure(case):
    datum, modulus = case
    cap = 400
    oracle = state_closure_oracle(datum, modulus, cap)
    if oracle is None:
        with pytest.raises(OrbitSizeExceeded):
            orbit(datum, max_states=cap)
        return
    view = orbit(datum, max_states=cap)
    assert isinstance(view, Orbit)
    assert view == oracle and oracle == view
    assert len(view) == len(oracle) == len(list(view))
    assert all(point in view for point in oracle)
    assert datum.entries in view
    assert canonical_form(datum) == min(
        oracle, key=lambda p: [t.coords for t in p])


@st.composite
def genus3_datum(draw):
    """A valid genus-3 datum with images in (1/N)Z^2, N in {2, 3, 4}:
    0 or 2-3 torsion images summing to zero, and free images that are
    multiples of one point, often a torsion image, so that the orbit is
    often small enough to close by the dense oracle."""
    modulus = draw(st.sampled_from((2, 3, 4)))
    point = st.tuples(st.integers(0, modulus - 1),
                      st.integers(0, modulus - 1))
    torsion = draw(st.lists(point.filter(any), max_size=2))
    if torsion:
        torsion.append(tuple(-sum(c) % modulus for c in zip(*torsion)))
    if not all(any(p) for p in torsion):
        torsion = []
    base = draw(st.sampled_from(torsion) if torsion and draw(st.booleans())
                else point)
    free = [tuple(c * x % modulus for x in base)
            for c in draw(st.lists(st.integers(0, modulus - 1),
                                   min_size=6, max_size=6))]
    torsion = [T(*(Fraction(x, modulus) for x in p)) for p in torsion]
    torsion.sort(key=element_order)
    sig = FuchsianSignature(3, tuple(map(element_order, torsion)))
    free = [T(*(Fraction(x, modulus) for x in p)) for p in free]
    return validate_datum(sig, free, torsion, 2), modulus


@settings(max_examples=25, deadline=None)
@given(genus3_datum())
def test_genus3_orbit_view_equals_dense_oracle(case):
    datum, modulus = case
    cap = 800
    oracle = state_closure_oracle(datum, modulus, cap)
    if oracle is None:
        with pytest.raises(OrbitSizeExceeded):
            orbit(datum, max_states=cap)
        return
    view = orbit(datum, max_states=cap)
    assert view == oracle and len(view) == len(oracle)
    assert all(point in view for point in oracle)
    assert canonical_form(datum) == min(
        oracle, key=lambda p: [t.coords for t in p])


@st.composite
def torsion_datum(draw):
    """A valid datum in a 1-, 3- or 4-torus with g <= 1 and images in
    (1/N)Z^d, N in {2,3,4,6}, with one to three torsion images and one
    more that closes their sum to zero, so that H is nontrivial and the
    box reduction carries across the coordinates. With at most two free
    images K has rank at most 2, so its orbit is counted and its least
    tuple built from the Smith coordinates of K."""
    modulus = draw(st.sampled_from((2, 3, 4, 6)))
    dim = draw(st.sampled_from((1, 3, 4)))
    genus = draw(st.integers(0, 1))
    point = st.tuples(*[st.integers(0, modulus - 1)] * dim)
    free = draw(st.lists(point, min_size=2 * genus, max_size=2 * genus))
    torsion = draw(st.lists(point.filter(any), min_size=1, max_size=3))
    closing = tuple(-sum(c) % modulus for c in zip(*torsion))
    if any(closing):
        torsion.append(closing)
    torsion = [T(*(Fraction(x, modulus) for x in p)) for p in torsion]
    torsion.sort(key=element_order)
    sig = FuchsianSignature(genus, tuple(map(element_order, torsion)))
    free = [T(*(Fraction(x, modulus) for x in p)) for p in free]
    return validate_datum(sig, free, torsion, dim), modulus


@settings(max_examples=60, deadline=None)
@given(torsion_datum())
def test_one_and_three_torus_orbits_equal_the_state_closure(case):
    datum, modulus = case
    cap = 2000
    oracle = state_closure_oracle(datum, modulus, cap)
    if oracle is None:
        with pytest.raises(OrbitSizeExceeded):
            orbit(datum, max_states=cap)
        return
    view = orbit(datum, max_states=cap)
    assert view == oracle and len(view) == len(oracle) == len(list(view))
    assert all(point in view for point in oracle)
    assert canonical_form(datum, max_states=cap) == min(
        oracle, key=lambda p: [t.coords for t in p])


def _least_point(points):
    return min(points, key=lambda p: [t.coords for t in p])


def _invariants(span, free):
    """(K, (m, n, w)) of free images, or (K, None) for rank above 2."""
    k, frame = span.frame(free)
    return k, frame and frame[:3]


def _class_representatives(modulus, genus):
    """One free tuple in (Z/N)^2 for each (K, w) class. For g = 1, every
    pair. For g = 2, with u, v any pair spanning K and l = det(u, v) (a
    unit mod m), the tuple (u, w l^-1 v, v, 0) for each w mod m: it
    spans K and has invariant w, and every w is one, so each class is
    met once."""
    points = list(itertools.product(range(modulus), repeat=2))
    span = orbitcount.Span((), modulus, 2)
    classes = {}
    for pair in itertools.product(points, repeat=2):
        classes.setdefault(_invariants(span, pair), pair)
    if genus == 1:
        return list(classes.values())
    tuples = {}
    for (k, (m, n, unit)), (u, v) in classes.items():
        if (k, m) in tuples:
            continue
        tuples[k, m] = []
        for w in range(m):
            c = w * pow(unit, -1, m) if m > 1 else 0
            free = (u, tuple(c * x % modulus for x in v), v, (0, 0))
            assert _invariants(span, free) == (k, (m, n, w))
            tuples[k, m].append(free)
    return [free for group in tuples.values() for free in group]


@pytest.mark.parametrize("modulus", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("genus", [1, 2])
def test_canonical_form_is_least_on_every_invariant_class(modulus, genus):
    """The least tuple built from (K, w) is the least point of the orbit
    closure, on one datum of each class. Orbits of up to 2,000 points
    are closed by the dense oracle; the larger ones (up to 259,200
    points at N = 6) by the sparse kernel, which the sweeps above hold
    to the dense oracle."""
    sig = FuchsianSignature(genus, ())
    for free in _class_representatives(modulus, genus):
        datum = validate_datum(
            sig, [T(*(Fraction(x, modulus) for x in p)) for p in free], (),
            2)
        form = canonical_form(datum)
        if orbit_size(datum, max_states=10 ** 6) <= 2000:
            oracle = state_closure_oracle(datum, modulus, 2000)
            assert form == _least_point(oracle), free
        else:
            view = orbit(datum, max_states=10 ** 6)
            least = view._decode(list(min(view._closed())))
            assert form == least, free


@st.composite
def genus3_free_datum(draw):
    """A genus-3 datum with free images in (1/N)Z^2 and no cone points:
    any images for N = 2, where every orbit has at most 2,016 points,
    and multiples of one point for N = 3."""
    modulus = draw(st.sampled_from((2, 3)))
    point = st.tuples(st.integers(0, modulus - 1),
                      st.integers(0, modulus - 1))
    if modulus == 2:
        free = draw(st.lists(point, min_size=6, max_size=6))
    else:
        base = draw(point)
        free = [tuple(c * x % modulus for x in base)
                for c in draw(st.lists(st.integers(0, 2), min_size=6,
                                       max_size=6))]
    free = [T(*(Fraction(x, modulus) for x in p)) for p in free]
    return validate_datum(FuchsianSignature(3, ()), free, (), 2), modulus


@settings(max_examples=15, deadline=None)
@given(genus3_free_datum())
def test_genus3_canonical_form_is_the_closure_minimum(case):
    datum, modulus = case
    oracle = state_closure_oracle(datum, modulus, 2100)
    assert oracle is not None
    assert canonical_form(datum, max_states=10 ** 9) == _least_point(oracle)


@settings(max_examples=40, deadline=None)
@given(st.one_of(sweep_datum(), torsion_datum(), genus3_datum()))
def test_canonical_form_is_idempotent(case):
    datum, _ = case
    form = canonical_form(datum)
    sig = datum.signature
    again = validate_datum(sig, form[:2 * sig.genus], form[2 * sig.genus:],
                           datum.dim)
    assert canonical_form(again) == form
    assert equivalent(datum, again, max_states=10 ** 9)


THIRDS_23 = validate_datum(
    FuchsianSignature(2, ()),
    (T(0, Fraction(1, 3), 0), T(0, 0, Fraction(1, 3)), T(0, 0, 0),
     T(0, 0, 0)), ())


@pytest.mark.parametrize("datum", [
    GENUS2_MOD4, QUARTERS_2222, THIRDS_33, THIRDS_23,
    validate_datum(FuchsianSignature(1, (2, 3, 6)),
                   (T(Fraction(1, 6), 0), T(0, Fraction(1, 6))),
                   (T(HALF, 0), T(0, Fraction(1, 3)),
                    T(HALF, Fraction(2, 3)))),
])
def test_canonical_form_of_rank_two_spans_runs_no_closure(monkeypatch,
                                                          datum):
    """While K has rank at most 2, the least tuple comes from (K, w):
    neither the kernel nor its moves are touched."""
    def forbidden(*args, **kwargs):
        raise AssertionError("closure on the canonical path")

    view = orbit(datum, max_states=10 ** 6)
    genus = datum.signature.genus
    least = list(min(view._closed()))
    monkeypatch.setattr(orbitset, "_twists", forbidden)
    form = canonical_form(datum)
    assert form[:2 * genus] == view._decode(least)


def test_trivial_quotient_iterates_without_moves(monkeypatch):
    """When H is all of T[N], A = 0 and the orbit is the torsion
    arrangements times H^2g: no moves are built to iterate it."""
    def forbidden(*args, **kwargs):
        raise AssertionError("moves built for a one-state quotient")

    datum = validate_datum(FuchsianSignature(1, (2, 2, 2, 2)),
                           (T(HALF, 0), T(0, 0)),
                           (T(HALF, 0), T(HALF, 0), T(0, HALF), T(0, HALF)))
    oracle = state_closure_oracle(datum, 2, 10 ** 4)
    monkeypatch.setattr(orbitset, "_twists", forbidden)
    view = orbit(datum)
    assert len(view) == len(oracle) == 96
    assert set(view) == oracle
    assert canonical_form(datum) == _least_point(oracle)


def test_candidate_cap_names_the_image():
    """K = (Z/p^2)^2 and w = p: a_2 must have level 1, and along x's
    line that takes p + 1 values of its last coordinate."""
    p = 101
    n = p * p
    sig = FuchsianSignature(2, ())
    datum = validate_datum(sig, (T(Fraction(p, n), 0), T(0, Fraction(1, n)),
                                 T(Fraction(1, n), 0), T(0, 0)), ())
    assert [tuple(int(q * n) for q in t.coords)
            for t in canonical_form(datum, max_states=1000)] == [
        (0, 0), (0, 1), (0, p), (p - 1, 0)]
    with pytest.raises(OrbitSizeExceeded) as info:
        canonical_form(datum, max_states=50)
    assert (info.value.cap, info.value.states) == (50, 50)
    assert info.value.image == "a_2" and info.value.size is None
    assert ("exceeded the cap of 50 candidates after trying 50 candidates "
            "at image a_2") in str(info.value)


def test_canonical_gate_genus3_and_genus4_need_no_closure():
    """d = 2, N = 4, images (1/4, 0), (0, 1/4) and then zeros: orbits of
    4,128,768 and 1,069,547,520 points. The least tuple is zeros and
    then the least genus-1 pair, read off its 48-point closure."""
    quarter = Fraction(1, 4)
    pair = (T(quarter, 0), T(0, quarter))
    tail = _least_point(state_closure_oracle(
        validate_datum(FuchsianSignature(1, ()), pair, ()), 4, 100))
    for genus, size in ((3, 4128768), (4, 1069547520)):
        datum = validate_datum(FuchsianSignature(genus, ()),
                               pair + (T(0, 0),) * (2 * genus - 2), ())
        start = time.perf_counter()
        form = canonical_form(datum)
        assert time.perf_counter() - start < 1
        assert form == (T(0, 0),) * (2 * genus - 2) + tail
        assert orbit_size(datum, max_states=size) == size


def test_canonical_form_runs_no_smith_form():
    """The closure and the least point take box representatives off the
    Hermite basis, and K's coordinates come from the Smith reduction
    modulo N: no module of the package defines or imports the dense
    integer Smith form."""
    names = [info.name for info in pkgutil.iter_modules(
        symtorus.__path__, "symtorus.")]
    assert "symtorus.orbitcount" in names
    for name in names:
        assert not hasattr(importlib.import_module(name),
                           "smith_normal_form"), name
    sixth = Fraction(1, 6)
    datum = validate_datum(
        FuchsianSignature(1, (2, 3, 6)), (T(sixth, 0), T(0, sixth)),
        (T(HALF, 0), T(0, 2 * sixth), T(HALF, 4 * sixth)))
    assert canonical_form(datum) == (
        T(0, 0), T(sixth, sixth), T(HALF, 0), T(0, 2 * sixth),
        T(HALF, 4 * sixth))


def test_orbit_view_membership_rejects_foreign_queries():
    view = orbit(validate_datum(SIG222, (), C222))
    assert C222 in view
    third = Fraction(1, 3)
    assert C222[:2] not in view
    assert C222 + (T(0, 0),) not in view
    assert list(C222) not in view
    assert None not in view
    assert (T(HALF, 0, 0), T(0, HALF, 0), T(HALF, HALF, 0)) not in view
    assert ((HALF, 0), (0, HALF), (HALF, HALF)) not in view
    assert (T(third, 0), T(0, HALF), T(HALF, HALF)) not in view
    assert (T(QUARTER, 0), T(0, HALF), T(HALF, HALF)) not in view
    assert (T(0, 0), T(0, HALF), T(HALF, HALF)) not in view
    # Flattened, these coordinates spell a member's state.
    assert (T(HALF, 0, 0), T(HALF), T(HALF, HALF)) not in view
    free = orbit(validate_datum(FuchsianSignature(1, ()),
                                (T(HALF, 0), T(0, 0)), ()))
    assert (T(0, 0), T(HALF, 0)) in free
    assert (T(HALF, 0), T(QUARTER, 0)) not in free
    assert (T(HALF, 0), T(third, 0)) not in free


def test_orbit_view_is_a_read_only_set():
    view = orbit(validate_datum(SIG222, (), C222))
    points = set(itertools.permutations(C222))
    assert view == points and points == view
    assert view != points - {C222} and points - {C222} != view
    assert (view & {C222}) == {C222}
    assert not hasattr(view, "add")


def test_orbit_size_helper():
    assert orbit_size(validate_datum(SIG222, (), C222)) == 6


def _block_shape_members_mod2(g, orders):
    """Direct enumeration of the reduced group: all block matrices mod 2."""
    n = len(orders)

    def symplectic_mod2(mat):
        size = 2 * g
        j = [[0] * size for _ in range(size)]
        for k in range(g):
            j[2 * k][2 * k + 1] = 1
            j[2 * k + 1][2 * k] = 1  # -1 == 1 mod 2
        prod = [[sum(mat[i][k] * j[k][c] for k in range(size)) % 2
                 for c in range(size)] for i in range(size)]
        both = [[sum(prod[i][k] * mat[c][k] for k in range(size)) % 2
                 for c in range(size)] for i in range(size)]
        return both == j

    members = set()
    perms = [p for p in itertools.permutations(range(n))
             if all(orders[p[i]] == orders[i] for i in range(n))]
    for a_flat in itertools.product((0, 1), repeat=4 * g * g):
        a = [list(a_flat[i * 2 * g:(i + 1) * 2 * g]) for i in range(2 * g)]
        if g and not symplectic_mod2(a):
            continue
        for c_flat in itertools.product((0, 1), repeat=n * 2 * g):
            c = [list(c_flat[i * 2 * g:(i + 1) * 2 * g]) for i in range(n)]
            for p in perms:
                rows = [tuple(a[i] + [0] * n) for i in range(2 * g)]
                rows += [tuple(c[i] + [1 if p[i] == j else 0
                                       for j in range(n)]) for i in range(n)]
                members.add(tuple(rows))
    return members


@pytest.mark.parametrize("g,orders", [(1, (2,)), (1, (2, 2)), (0, (2, 2, 2))])
def test_generators_span_full_block_group_mod2(g, orders):
    sig = FuchsianSignature(g, orders)
    gens = [tuple(tuple(x % 2 for x in row) for row in gm.matrix.entries)
            for gm in group_generators(sig)]
    assert mulclose_mod(gens, 2) == _block_shape_members_mod2(g, orders)


def _twist_matrix(twist, m):
    """Dense integer matrix of a twist on m images: the identity, with
    w(v, e_i) v added to the row of each image i it moves."""
    v, moved = twist
    rows = [[int(r == c) for c in range(m)] for r in range(m)]
    for i, s in moved:
        for j, c in v:
            rows[i][j] += s * c
    return rows


def _transvection_matrix(v, m):
    """Oracle: x_i -> x_i + w(v, e_i) sum c x_j for v = sum c e_j, with
    w(e_j, e_i) read off the symplectic form (a_k = e_(2k), b_k =
    e_(2k+1), w(a_k, b_k) = 1)."""
    def form(j, i):
        return (j % 2 == 0 and i == j + 1) - (j % 2 == 1 and i == j - 1)

    rows = [[int(r == c) for c in range(m)] for r in range(m)]
    for i in range(m):
        w = sum(c * form(j, i) for j, c in v)
        for j, c in v:
            rows[i][j] += w * c
    return rows


def _reduced(matrix, modulus):
    return tuple(tuple(x % modulus for x in row) for row in matrix)


def _dense_cycle(table, state, m, d, modulus):
    """Orbit of one state under the cyclic group of one dense table."""
    cycle = {state}
    nxt = apply_table(table, state, m, d, modulus)
    while nxt not in cycle:
        cycle.add(nxt)
        nxt = apply_table(table, nxt, m, d, modulus)
    return frozenset(cycle)


@pytest.mark.parametrize("g,orders", [
    (1, ()), (2, ()), (3, ()), (0, (2, 2, 3)), (1, (2, 2)),
    (1, (3, 3, 6, 6)), (2, (2, 2, 2)), (3, (4, 4, 5)),
])
@pytest.mark.parametrize("modulus", [2, 3, 4, 6])
def test_moves_match_dense_generator_action(monkeypatch, g, orders,
                                            modulus):
    """Each twist is a geometric matrix, and its transvection reduced mod
    N, there are 2g+1 of them (2 at genus 1), and the closure under one
    twist equals the cycle of its dense matrix."""
    sig = FuchsianSignature(g, orders)
    m, d = 2 * g + len(orders), 2
    twists = _twists(g)
    assert len(twists) == (2 * g + 1 if g > 1 else 2 * g)
    rng = seeded(47)
    for twist in twists:
        matrix = _twist_matrix(twist, m)
        assert is_geometric_matrix(IntMatrix(matrix).transpose(), sig)
        table = _reduced(matrix, modulus)
        assert table == _reduced(_transvection_matrix(twist[0], m), modulus)
        free = tuple(row[:2 * g] for row in table[:2 * g])
        monkeypatch.setattr(orbitset, "_twists", lambda genus: [twist])
        for _ in range(3):
            state = (0,) * (2 * g * d)
            while gcd(modulus, *state) > 1:
                state = tuple(rng.randrange(modulus) for _ in state)
            datum = MonodromyDatum(FuchsianSignature(g, ()), d, modulus,
                                   [state[i:i + d]
                                    for i in range(0, len(state), d)])
            closure = Orbit(datum, 10 ** 6)._closed()
            assert ({tuple(x for image in images for x in image)
                     for images in closure}
                    == _dense_cycle(free, state, 2 * g, d, modulus))


@pytest.mark.parametrize("g,modulus", [(1, 2), (1, 3), (1, 4), (1, 6),
                                       (2, 2)])
def test_transvections_generate_the_symplectic_group_mod_n(g, modulus):
    sig = FuchsianSignature(g, ())
    moves = [_twist_matrix(twist, 2 * g) for twist in _twists(g)]
    elementary = [gm.matrix.transpose().entries
                  for gm in group_generators(sig)]
    assert mulclose_mod(moves, modulus) == mulclose_mod(elementary, modulus)


def test_closure_never_builds_dense_matrices(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("dense group code on the closure path")

    for name in ("int_inverse", "group_generators", "GeomMatrix",
                 "is_geometric_matrix"):
        monkeypatch.setattr(monodromy, name, forbidden)
    monkeypatch.setattr(intmat, "int_inverse", forbidden)
    zero = validate_datum(FuchsianSignature(16, ()), (T(0, 0),) * 32, (),
                          dim=2)
    assert orbit_size(zero) == 1
    assert orbit_size(GENUS2_MOD4) == 11520


def test_trivial_modulus_and_empty_signature_build_no_moves(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("twists built for a one-state quotient")

    assert _twists(0) == []
    zero = validate_datum(FuchsianSignature(16, ()), (T(0, 0),) * 32, (),
                          dim=2)
    assert zero.modulus == 1
    monkeypatch.setattr(orbitset, "_twists", forbidden)
    assert Orbit(zero, 1)._closed() == {((0, 0),) * 32}


def quotient_orbits_oracle(genus, modulus, torsion):
    """The Sp-orbits of 2g-tuples in A = (Z/N)^2 / H, each entry kept as
    its least coset representative, closed by BFS under the dense
    tables of ``group_generators`` of the genus with no cone points."""
    subgroup = closure_mod(torsion, modulus, 2)
    rep = {x: min(tuple((a + b) % modulus for a, b in zip(x, h))
                  for h in subgroup)
           for x in itertools.product(range(modulus), repeat=2)}
    tables = [[[(i, c) for i, c in enumerate(row) if c] for row in table]
              for table in dense_action_tables(FuchsianSignature(genus, ()),
                                               modulus)]
    orbits, seen = [], set()
    for start in itertools.product(sorted(set(rep.values())),
                                   repeat=2 * genus):
        if start in seen:
            continue
        found, frontier = {start}, [start]
        while frontier:
            fresh = []
            for state in frontier:
                for table in tables:
                    nxt = tuple(rep[tuple(
                        sum(c * state[i][t] for i, c in row) % modulus
                        for t in range(2))] for row in table)
                    if nxt not in found:
                        found.add(nxt)
                        fresh.append(nxt)
            frontier = fresh
        seen |= found
        orbits.append(found)
    return orbits, len(subgroup)


@pytest.mark.parametrize("genus,modulus,torsion", [
    (1, 4, ()),                     # (Z/4)^2
    (1, 3, ()),                     # (Z/3)^2
    (1, 6, ()),                     # (Z/6)^2
    (1, 4, ((2, 0), (2, 0))),       # Z/2 x Z/4
    (1, 6, ((2, 0), (4, 0))),       # Z/2 x Z/6
    (1, 4, ((0, 1), (0, 3))),       # Z/4
    (1, 12, ((0, 1), (0, 11))),     # Z/12
    (2, 2, ()),                     # (Z/2)^2
    (2, 3, ()),                     # (Z/3)^2
    (2, 4, ((2, 0), (2, 0))),       # Z/2 x Z/4
    (2, 6, ((0, 1), (0, 5))),       # Z/6
])
def test_invariant_classes_are_the_closure_orbits(genus, modulus, torsion):
    """Grouping every 2g-tuple of A = T[N]/H by (K, w) gives exactly the
    orbits of the dense closure, and each orbit has orbit_size points
    over each tuple: arrangements times |H|^2g."""
    orbits, order = quotient_orbits_oracle(genus, modulus, torsion)
    span = orbitcount.Span(torsion, modulus, 2)
    classes = {}
    for found in orbits:
        for free in found:
            key = _invariants(span, free)
            assert key[1] is not None
            classes.setdefault(key, set()).add(free)
    assert sorted(map(sorted, classes.values())) == sorted(map(sorted,
                                                               orbits))
    images = [T(*(Fraction(x, modulus) for x in p)) for p in torsion]
    sig = FuchsianSignature(genus, tuple(map(element_order, images)))
    arrangements = len(set(itertools.permutations(images)))
    for found in orbits:
        free = [T(*(Fraction(x, modulus) for x in p)) for p in min(found)]
        datum = validate_datum(sig, free, images, 2)
        assert orbit_size(datum, max_states=10 ** 9) == (
            arrangements * order ** (2 * genus) * len(found))


@st.composite
def partner(draw, datum, modulus, free_images):
    """A datum of the same signature as ``datum``: its image under a
    random group word (same orbit), or new free images from
    ``free_images`` with the torsion rearranged inside its runs."""
    sig = datum.signature
    if draw(st.booleans()):
        word = random_geom_word(sig, seeded(draw(st.integers(0, 2 ** 16))))
        return datum if word is None else act(word, datum)
    free = [T(*(Fraction(x, modulus) for x in p)) for p in draw(free_images)]
    shuffle = draw(st.permutations(range(sig.num_cone_points)))
    order = sorted(range(sig.num_cone_points),
                   key=lambda k: (sig.orders[k], shuffle[k]))
    return validate_datum(sig, free, [datum.torsion[k] for k in order], 2)


def check_invariants_against_closure(datum, other, modulus, cap):
    """len, in and equivalent against the dense state closure."""
    oracle = state_closure_oracle(datum, modulus, cap)
    if oracle is None:
        with pytest.raises(OrbitSizeExceeded) as info:
            orbit(datum, max_states=cap)
        assert info.value.size > cap
        return
    view = orbit(datum, max_states=cap)
    member = other.entries in oracle
    assert len(view) == len(oracle)
    assert (other.entries in view) == member
    assert equivalent(datum, other, max_states=cap) == member
    assert equivalent(other, datum, max_states=cap) == member


def _points(modulus, count):
    point = st.tuples(st.integers(0, modulus - 1),
                      st.integers(0, modulus - 1))
    return st.lists(point, min_size=count, max_size=count)


@settings(max_examples=80, deadline=None)
@given(sweep_datum(), st.data())
def test_invariants_answer_like_the_closure(case, data):
    datum, modulus = case
    free = _points(modulus, 2 * datum.signature.genus)
    # Half the time the same images in another order: same K, and for
    # genus 2 often the same w.
    free = st.one_of(free, st.permutations(
        [tuple(int(q * modulus) for q in t.coords) for t in datum.free]))
    other = data.draw(partner(datum, modulus, free))
    check_invariants_against_closure(datum, other, modulus, 400)


@settings(max_examples=25, deadline=None)
@given(genus3_datum(), st.data())
def test_genus3_invariants_answer_like_the_closure(case, data):
    datum, modulus = case
    base = tuple(int(q * modulus) for q in datum.free[1].coords)
    free = st.lists(st.integers(0, modulus - 1), min_size=6,
                    max_size=6).map(
        lambda cs: [tuple(c * x % modulus for x in base) for c in cs])
    other = data.draw(partner(datum, modulus, free))
    check_invariants_against_closure(datum, other, modulus, 800)


def test_counted_orbit_runs_no_search(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("closure on the counting path")

    monkeypatch.setattr(orbitset, "_twists", forbidden)
    seventh = Fraction(1, 7)
    datum = validate_datum(FuchsianSignature(2, ()),
                           (T(seventh, 0), T(0, seventh), T(0, 0), T(0, 0)),
                           ())
    start = time.perf_counter()
    # w = 1: on (Z/7)^2 the pairing takes the value 0 on 385 pairs and
    # each nonzero value on 336, and the index-7 subgroups pair to 0.
    assert orbit_size(datum) == 2 * 385 * 336 + 5 * 336 ** 2 == 823200
    assert time.perf_counter() - start < 1
    view = orbit(datum)
    assert datum.entries in view
    doubled = validate_datum(datum.signature,
                             (T(seventh, 0), T(0, 2 * seventh), T(0, 0),
                              T(0, 0)), ())
    assert doubled.entries not in view
    assert equivalent(datum, doubled) is False


def test_counted_cap_error_names_the_size():
    with pytest.raises(OrbitSizeExceeded) as info:
        orbit(GENUS2_MOD4, max_states=100)
    assert (info.value.cap, info.value.size) == (100, 11520)
    assert (info.value.depth, info.value.states) == (0, 0)
    assert "orbit has 11520 states, more than the cap of 100 states" in str(
        info.value)
    with pytest.raises(OrbitSizeExceeded) as info:
        canonical_form(THIRDS_RANK3, max_states=100)
    assert info.value.size is None


def test_closure_cap_below_the_other_factors_stops_at_depth_zero():
    """K = (Z/3)^3 has rank 3, so the orbit is closed; |H| = 2 and the
    run has one arrangement, so the other factors come to 2^4 = 16,
    more than a cap of 10 before any quotient state is counted."""
    sig = FuchsianSignature(2, (2, 2))
    datum = validate_datum(sig, (T(THIRD, 0, 0), T(0, THIRD, 0),
                                 T(0, 0, THIRD), T(0, 0, 0)),
                           (T(HALF, 0, 0), T(HALF, 0, 0)))
    with pytest.raises(OrbitSizeExceeded) as info:
        orbit(datum, max_states=10)
    assert (info.value.cap, info.value.depth, info.value.states,
            info.value.size) == (10, 0, 0, None)
    assert len(orbit(datum)) == 16 * 17280 == 276480


def test_equivalent_differing_omega_needs_no_closure():
    seventh = Fraction(1, 7)
    sig = FuchsianSignature(2, ())
    one = validate_datum(sig, (T(seventh, 0), T(0, seventh), T(0, 0),
                               T(0, 0)), ())
    three = validate_datum(sig, (T(seventh, 0), T(0, 3 * seventh), T(0, 0),
                                 T(0, 0)), ())
    assert equivalent(one, three, max_states=1) is False
    with pytest.raises(OrbitSizeExceeded) as info:
        equivalent(one, one, max_states=1)
    assert info.value.size == 823200


def test_span_of_rank_three_is_closed(monkeypatch):
    """In a 3-torus the free images can span K = (Z/2)^3, of rank 3:
    size and membership then come from the closure."""
    calls = []
    twists = orbitset._twists

    def spy(*args):
        calls.append(args)
        return twists(*args)

    monkeypatch.setattr(orbitset, "_twists", spy)
    sig = FuchsianSignature(2, ())
    datum = validate_datum(sig, (T(HALF, 0, 0), T(0, HALF, 0),
                                 T(0, 0, HALF), T(0, 0, 0)), ())
    oracle = state_closure_oracle(datum, 2, 10 ** 4)
    view = orbit(datum)
    assert calls and len(view) == len(oracle) and view == oracle
    moved = act(random_geom_word(sig, seeded(5)), datum)
    assert moved.entries in view and equivalent(datum, moved)
    narrower = validate_datum(sig, (T(HALF, 0, 0), T(0, HALF, 0),
                                    T(0, 0, 0), T(0, 0, 0)), ())
    assert narrower.entries not in view
    assert equivalent(datum, narrower, max_states=1) is False
    with pytest.raises(OrbitSizeExceeded) as info:
        orbit(datum, max_states=len(oracle) - 1)
    assert info.value.size is None


def test_count_factors_large_moduli():
    """A prime modulus above 2^32 is proven prime and counted; a product
    of two primes above 2^16 cannot be factored by trial division, so
    the orbit is closed, and the cap stops that search."""
    sig = FuchsianSignature(1, ())
    for p in (2 ** 61 - 1, 4294967311):
        datum = validate_datum(sig, (T(Fraction(1, p), 0),
                                     T(0, Fraction(1, p))), ())
        assert orbit_size(datum, max_states=p ** 3) == p * (p * p - 1)
    n = 65537 * 65539
    datum = validate_datum(sig, (T(Fraction(1, n), 0),
                                 T(0, Fraction(1, n))), ())
    with pytest.raises(OrbitSizeExceeded) as info:
        orbit(datum, max_states=1000)
    assert info.value.size is None and info.value.states == 1000


def test_view_beyond_sys_maxsize_is_true_and_names_its_size():
    """``len`` must return a machine-size int, so a view of more points
    raises an OverflowError that names the exact size; truth needs no
    size at all."""
    p = 2 ** 61 - 1
    datum = validate_datum(FuchsianSignature(1, ()),
                           (T(Fraction(1, p), 0), T(0, Fraction(1, p))), ())
    view = orbit(datum, max_states=p ** 3)
    assert view
    assert datum.entries in view
    with pytest.raises(OverflowError) as info:
        len(view)
    assert str(p * (p * p - 1)) in str(info.value)
    assert "orbit_size" in str(info.value)


def test_three_torus_span_of_rank_two_is_counted(monkeypatch):
    """In a 3-torus a span of rank 2 is still counted, from the Smith
    form of its relations, with no search."""
    def forbidden(*args, **kwargs):
        raise AssertionError("closure on the counting path")

    # K = (Z/3)^2 in the last two coordinates, so w needs the Smith
    # coordinates of K, not the first two coordinates of the lattice.
    third = Fraction(1, 3)
    sig = FuchsianSignature(2, ())
    one = validate_datum(sig, (T(0, third, 0), T(0, 0, third), T(0, 0, 0),
                               T(0, 0, 0)), ())
    two = validate_datum(sig, (T(0, third, 0), T(0, 0, 2 * third),
                               T(0, 0, 0), T(0, 0, 0)), ())
    oracle = state_closure_oracle(one, 3, 10 ** 4)
    monkeypatch.setattr(orbitset, "_twists", forbidden)
    view = orbit(one)
    assert len(view) == len(oracle)
    assert all(point in view for point in oracle)
    assert two.entries not in oracle and two.entries not in view
    assert equivalent(one, two) is False


@st.composite
def numerator_pairs(draw):
    """Two data of one signature, as torus points: images with
    numerators over N <= 60 in a torus of dimension 1 to 3, genus 0 to
    2, and up to three torsion images, the last the negated sum of the
    others, each cone order read off its image; the second datum is
    often the first moved by a random group element."""
    modulus = draw(st.integers(1, 60))
    dim = draw(st.integers(1, 3))
    genus = draw(st.integers(0, 2))
    point = st.lists(st.integers(0, modulus - 1), min_size=dim,
                     max_size=dim)
    free = [draw(point) for _ in range(2 * genus)]
    torsion = [draw(point) for _ in range(draw(st.integers(0, 2)))]
    if torsion:
        torsion.append([-sum(c) % modulus for c in zip(*torsion)])
    torsion = [t for t in torsion if any(t)]
    torsion.sort(key=lambda t: modulus // gcd(modulus, *t))
    orders = tuple(modulus // gcd(modulus, *t) for t in torsion)
    sig = FuchsianSignature(genus, orders)

    def points(rows):
        return [T(*(Fraction(x, modulus) for x in row)) for row in rows]

    d1 = validate_datum(sig, points(free), points(torsion), dim)
    if draw(st.booleans()) and (genus or len(torsion) > 1):
        d2 = act(random_geom_word(sig, seeded(draw(st.integers(0, 99)))),
                 d1)
    else:
        other = [draw(point) for _ in range(2 * genus)]
        d2 = validate_datum(sig, points(other), d1.torsion, dim)
    return d1, d2


def _json(datum):
    return {"signature": {"genus": datum.signature.genus,
                          "orders": list(datum.signature.orders)},
            "dim": datum.dim,
            "free": [[str(q) for q in t.coords] for t in datum.free],
            "torsion": [[str(q) for q in t.coords] for t in datum.torsion]}


def _answers(d1, d2):
    """orbit_size, canonical_form, equivalent and ``in``, or the type
    of the error they raise: under no cap that binds while K has rank
    at most 2, and else under a cap of 5,000 states."""
    cap = 10 ** 40 if Orbit(d1, 1)._key[2] is not None else 5000
    try:
        view = orbit(d1, max_states=cap)
        return (orbit_size(d1, max_states=cap), canonical_form(d1),
                equivalent(d1, d2, max_states=cap), d2.entries in view,
                canonical_form(d2) == canonical_form(d1))
    except OrbitSizeExceeded as exc:
        return type(exc)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(numerator_pairs())
def test_parsed_and_validated_data_give_the_same_answers(pair):
    """The integer parse and ``validate_datum`` store the same form, and
    ``orbit_size``, ``canonical_form``, ``equivalent`` and ``in`` agree
    on the two; ``equivalent``, which reads numerators, agrees with
    ``in`` on torus points and with equal canonical forms."""
    validated = pair
    parsed = tuple(parse_datum(_json(d)) for d in pair)
    assert parsed == validated
    assert list(map(hash, parsed)) == list(map(hash, validated))
    answers = _answers(*parsed)
    assert _answers(*validated) == answers
    if answers is not OrbitSizeExceeded:
        size, form, verdict, member, same_form = answers
        assert verdict == member == same_form
        assert form in orbit(parsed[0], max_states=size)
