"""``orbitcount.Span`` as the model of A = T[N]/H, against brute force:
box representatives against the lex-least point of each coset, and the
listed subgroup against a BFS closure of the torsion numerators; the
modular Hermite basis, and K's folded from H's, against the column
echelon over the integers; the Smith reduction modulo N against the
dense integer Smith form; ``count`` against the g-fold convolution and
against listing K^2g; and the coset tests of the least-tuple search
against listing the coset."""

import itertools
from fractions import Fraction
from math import gcd, isqrt, prod

import pytest
from hypothesis import given, settings, strategies as st

from oracles import box_least, smith_normal_form, trial_prime_powers
from conftest import (
    closure_mod,
    count_oracle,
    enumerated_counts,
    hermite_oracle,
    seeded,
    state_closure_oracle,
)
from symtorus import orbitcount
from symtorus.intmat import IntMatrix, quotient_factors
from symtorus.monodromy import canonical_form, validate_datum
from symtorus.orbisurface import FuchsianSignature
from symtorus.datum import datum_from_ratios
from symtorus.orbitcount import Span, _hermite, _prime_powers, _smith, count
from symtorus.orbitset import Orbit
from symtorus.orbitleast import _in_plane, _meets, _plane
from symtorus.torus import TorusElement


def random_spans(dim, count, seed):
    """(torsion, modulus) pairs: up to three random numerators mod N."""
    rng = seeded(seed)
    for _ in range(count):
        modulus = rng.choice((2, 3, 4, 6, 8, 12))
        torsion = [tuple(rng.randrange(modulus) for _ in range(dim))
                   for _ in range(rng.randint(0, 3))]
        yield torsion, modulus


def coset_minima(subgroup, modulus, dim):
    """{x: the lex-least point of x + H} over all of (Z/N)^d: walking
    the points in lex order, the first one met in each coset is its
    least."""
    least = {}
    for x in itertools.product(range(modulus), repeat=dim):
        if x not in least:
            for h in subgroup:
                least[tuple((a + b) % modulus for a, b in zip(x, h))] = x
    return least


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_subgroup_is_the_closure_of_the_torsion(dim):
    for torsion, modulus in random_spans(dim, 60, 71 + dim):
        span = Span(torsion, modulus, dim)
        elements = span.subgroup()
        assert len(elements) == len(set(elements)) == span.order
        assert set(elements) == closure_mod(torsion, modulus, dim)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_least_is_the_lex_least_point_of_the_coset(dim):
    rng = seeded(83 + dim)
    for torsion, modulus in random_spans(dim, 40, 79 + dim):
        span = Span(torsion, modulus, dim)
        least = coset_minima(closure_mod(torsion, modulus, dim), modulus,
                             dim)
        for x, expected in least.items():
            assert span.least(x) == expected
            assert all(0 <= c < span.basis[t][t]
                       for t, c in enumerate(expected))
            # Any lift of x, however far off, lands in the same box.
            shifted = tuple(a + modulus * rng.randint(-5, 5) for a in x)
            assert span.least(shifted) == expected


def test_trivial_subgroup_leaves_the_box_whole():
    span = Span((), 6, 3)
    assert span.order == 1 and span.subgroup() == [(0, 0, 0)]
    assert span.basis == ((6, 0, 0), (0, 6, 0), (0, 0, 6))
    assert span.least((5, 0, 4)) == (5, 0, 4)


MODULI = (1, 2, 4, 6, 8, 9, 12, 30, 1009, 10 ** 6 + 3, 2 ** 61 - 1)
ENTRIES = st.one_of(st.integers(-12, 12), st.integers(-10 ** 30, 10 ** 30))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.integers(1, 4).flatmap(lambda dim: st.tuples(
    st.just(dim), st.sampled_from(MODULI),
    st.lists(st.lists(ENTRIES, min_size=dim, max_size=dim), max_size=4),
    st.lists(st.integers(0, 10 ** 6), min_size=dim, max_size=dim),
    st.lists(ENTRIES, min_size=dim, max_size=dim))))
def test_least_runs_the_steps_of_a_walk_over_every_column(example):
    """``least`` with its precomputed steps equals the walk over every
    column of the Hermite basis, on points in [0, N)^d and off it."""
    dim, modulus, torsion, inside, outside = example
    span = Span(torsion, modulus, dim)
    for x in (tuple(c % modulus for c in inside), tuple(outside)):
        assert span.least(x) == box_least(span.basis, x)


def random_small_datum(rng):
    """A valid datum with N <= 12, d <= 3 and genus 1 or 2, with no
    cone points or with two or three whose images sum to zero."""
    dim, genus = rng.randint(1, 3), rng.randint(1, 2)
    modulus = rng.choice((2, 3, 4, 6, 8, 9, 10, 12))

    def point():
        return tuple(rng.randrange(modulus) for _ in range(dim))

    torsion = []
    while rng.random() < 0.5:
        torsion = [point() for _ in range(rng.randint(1, 2))]
        torsion.append(tuple(-sum(c) % modulus for c in zip(*torsion)))
        if all(map(any, torsion)):
            break
        torsion = []
    torsion.sort(key=lambda t: modulus // gcd(modulus, *t))
    sig = FuchsianSignature(genus, [modulus // gcd(modulus, *t)
                                    for t in torsion])

    def ratios(image):
        return [(x // gcd(x, modulus), modulus // gcd(x, modulus))
                for x in image]

    free = [ratios(point()) for _ in range(2 * genus)]
    return datum_from_ratios(sig, dim, free, list(map(ratios, torsion)))


def test_orbit_bound_never_exceeds_the_orbit():
    """``Span.orbit_bound`` is at most the size of the free images'
    orbit in A: the counted size while K has rank at most 2, else the
    dense closure's (skipped above 3,000 states)."""
    rng, checked, above_one = seeded(311), 0, 0
    for _ in range(300):
        datum = random_small_datum(rng)
        view = Orbit(datum, 10 ** 30)
        genus = datum.signature.genus
        bound = view._span.orbit_bound(datum.numerators[:2 * genus])
        if view._key[2] is not None:
            view._measure()
            size = view._size
        else:
            states = state_closure_oracle(datum, datum.modulus, 3000)
            if states is None:
                continue
            size = len(states)
        assert bound * view._factor <= size
        checked += 1
        above_one += bound > 1
    assert checked >= 250 and above_one >= 150


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.integers(1, 4).flatmap(lambda dim: st.tuples(
    st.just(dim), st.sampled_from(MODULI),
    st.lists(st.lists(ENTRIES, min_size=dim, max_size=dim), max_size=5))))
def test_hermite_mod_n_equals_the_integer_column_echelon(example):
    """The basis built modulo N is the one the column echelon of the
    vectors stacked on N I gives over unbounded integers; for d = 2 it
    is also ``_plane``'s."""
    dim, modulus, vectors = example
    start = [[modulus * (r == c) for c in range(dim)] for r in range(dim)]
    basis = _hermite(vectors, modulus, start)
    assert basis == hermite_oracle(vectors, modulus, dim)
    if dim == 2:
        h0, h1, h2 = _plane(vectors, modulus, modulus)
        assert basis == ((h0, 0), (h1, h2))


def test_canonical_form_builds_k_once_and_no_column_echelon(monkeypatch):
    """On a genus-2 datum in a 2-torus, ``canonical_form`` runs the
    Hermite routine twice, for H and for K, and answers the least point
    of the closure. The integer column echelon is no longer in the
    package, only in the test oracles."""
    half = Fraction(1, 2)

    def T(*coords):
        return TorusElement(coords)

    datum = validate_datum(
        FuchsianSignature(2, (2, 2)),
        (T(half, 0), T(0, half), T(half, half), T(0, 0)),
        (T(0, half), T(0, half)))
    expected = min(state_closure_oracle(datum, 2, 10 ** 4),
                   key=lambda p: [t.coords for t in p])
    calls = []

    def counting(*args):
        calls.append(args)
        return _hermite(*args)

    monkeypatch.setattr(orbitcount, "_hermite", counting)
    assert canonical_form(datum) == expected
    assert len(calls) == 2


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(1, 4).flatmap(lambda dim: st.tuples(
    st.just(dim), st.sampled_from(MODULI[1:9]),
    st.lists(st.lists(ENTRIES, min_size=dim, max_size=dim), max_size=3),
    st.lists(st.lists(ENTRIES, min_size=dim, max_size=dim), max_size=4))))
def test_frame_folds_k_from_the_basis_of_h(example):
    """K's basis, the free images folded into H's basis B, is the
    Hermite basis of the free images and the columns of B."""
    dim, modulus, torsion, free = example
    span = Span(torsion, modulus, dim)
    k, _ = span.frame(free)
    assert k == hermite_oracle(free + list(zip(*span.basis)), modulus, dim)


def _det(rows):
    """The determinant by expansion along the first row."""
    if len(rows) == 1:
        return rows[0][0]
    return sum((-1) ** j * x * _det([row[:j] + row[j + 1:]
                                     for row in rows[1:]])
               for j, x in enumerate(rows[0]))


def check_smith(matrix, modulus):
    """``_smith`` on R against the dense Smith form of [R | N I]: the
    same invariant factors, rows that send every column of R to 0 in
    Z/k_t, and a transform that is unimodular mod N with its entries
    in [0, N)."""
    dim = len(matrix)
    factors, u = _smith(matrix, modulus)
    beside = IntMatrix([list(row) + [modulus * (c == r) for c in range(dim)]
                        for r, row in enumerate(matrix)])
    assert factors == smith_normal_form(beside).invariant_factors()
    for column in zip(*matrix):
        image = [sum(a * b for a, b in zip(row, column)) for row in u]
        assert all(x % k == 0 for x, k in zip(image, factors))
    assert gcd(_det(u), modulus) == 1
    assert all(0 <= x < modulus for row in u for x in row)
    return factors, u


@settings(max_examples=600, deadline=None, derandomize=True)
@given(st.integers(1, 4).flatmap(lambda dim: st.tuples(
    st.integers(1, 72), st.booleans(), st.one_of(
        st.just(dim), st.integers(1, 5)).flatmap(lambda width: st.lists(
            st.lists(st.integers(-100, 100), min_size=width,
                     max_size=width),
            min_size=dim, max_size=dim)))))
def test_smith_mod_n_equals_the_dense_smith_form(example):
    """On random square relation matrices, on lower-triangular ones like
    those ``Span.frame`` passes in, and on rectangular ones like those
    ``homology`` passes in, where ``quotient_factors`` gives the factors
    above 1."""
    modulus, lower, matrix = example
    if lower:
        matrix = [[x * (c <= r) for c, x in enumerate(row)]
                  for r, row in enumerate(matrix)]
    factors, _ = check_smith(matrix, modulus)
    assert quotient_factors(IntMatrix(matrix), modulus) == tuple(
        [k for k in factors if k > 1])


def test_smith_does_not_trade_rows_on_a_pivot_that_divides():
    """A gcd step on an entry the pivot divides would swap these rows
    forever; the reduction subtracts instead."""
    factors, _ = check_smith([[1, 0, 0], [1, 1, 0], [0, 2, 2]], 3)
    assert factors == (1, 1, 1)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.sampled_from(MODULI[1:9]),
       st.lists(st.lists(ENTRIES, min_size=2, max_size=2), max_size=3),
       st.lists(st.lists(ENTRIES, min_size=2, max_size=2), max_size=4))
def test_frame_of_a_plane_has_the_closed_form_factors(modulus, torsion, free):
    """For d = 2, K = Z/m x Z/n with m the gcd of the relations'
    entries and mn the absolute value of their determinant."""
    span = Span(torsion, modulus, 2)
    k, frame = span.frame(free)
    relations = [orbitcount._coordinates(k, col) for col in zip(*span.basis)]
    (r00, r10), (r01, r11) = relations
    m = gcd(r00, r10, r01, r11)
    assert frame[:2] == (m, abs(r00 * r11 - r01 * r10) // m)


COUNT_PRIMES = (2, 3, 5, 1009, 10 ** 6 + 3, 2 ** 61 - 1)


@st.composite
def count_cases(draw):
    """(m, n, omega, genus): m | n products of prime powers, up to 2^3,
    3^3, 5^3, 1009^2, and (10^6 + 3) and 2^61 - 1 to the first power;
    omega a multiple of a divisor of m, so that every valuation shows."""
    m = n = divisor = 1
    for p in draw(st.lists(st.sampled_from(COUNT_PRIMES), max_size=3,
                           unique=True)):
        b = draw(st.integers(1, 3 if p < 10 else 2 if p == 1009 else 1))
        a = draw(st.integers(0, b))
        m, n = m * p ** a, n * p ** b
        divisor *= p ** draw(st.integers(0, a))
    omega = divisor * draw(st.integers(0, m // divisor - 1))
    return m, n, omega, draw(st.integers(1, 9))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(count_cases())
def test_count_equals_the_convolution(case):
    assert count(*case) == count_oracle(*case)


FACTOR_PRIMES = (2, 3, 5, 41, 43, 65521, 65537, 999983, 1000003,
                 2 ** 31 - 1, 2 ** 61 - 1, 2 ** 89 - 1)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.one_of(
    st.integers(1, 10 ** 7),
    st.lists(st.tuples(st.sampled_from(FACTOR_PRIMES), st.integers(1, 3)),
             max_size=4).map(lambda powers: prod(p ** e for p, e in powers)),
))
def test_prime_powers_equal_trial_division(n):
    """Testing the cofactor for primality before and after each factor
    found changes no factorization, nor a None: a composite cofactor
    with no factor below 2^16, or a cofactor too large for the test
    (2^89 - 1)."""
    assert _prime_powers(n) == trial_prime_powers(n)


@pytest.mark.parametrize("n", [
    1, 41, 42, 43, 2 ** 61 - 1, 3 * (2 ** 61 - 1),
    2 ** 10 * 3 ** 5 * (2 ** 61 - 1), 1000003 * 999983, 65537 ** 2,
    2 * (2 ** 89 - 1)])
def test_prime_powers_of_named_numbers(n):
    assert _prime_powers(n) == trial_prime_powers(n)
    assert (_prime_powers(n) is None) == (n in (1000003 * 999983, 65537 ** 2,
                                                2 * (2 ** 89 - 1)))


def test_trial_primes_are_the_primes_below_2_16():
    """The sieve yields every prime below 2^16 once, in order, and no
    composite: a composite left in would only slow the division."""
    primes = [p for p in range(2, 1 << 16)
              if all(p % q for q in range(2, isqrt(p) + 1))]
    assert list(orbitcount._trial_primes()) == primes
    assert len(primes) == 6542


LARGE_FACTORS = (2 ** 89 - 1, 2 ** 127 - 1, 10 ** 40 + 121, 3 ** 200 + 2)


@pytest.mark.parametrize("small", [1, 2 ** 10 * 3 ** 5, 65521 * 65519, 41])
@pytest.mark.parametrize("large", LARGE_FACTORS)
def test_prime_powers_of_large_products_equal_trial_division(small, large):
    """Trial division by the primes below 2^16 alone gives the same
    factorization, or None, as trial division by every odd number, on
    products above 2^64 with small factors up to 65521 and cofactors
    that are prime, composite or too large to test."""
    for n in (small * large, small * large * (10 ** 30 + 57)):
        assert _prime_powers(n) == trial_prime_powers(n)


def count_groups(genus):
    """(m, n) with m | n and |K|^2g <= 2 * 10^5, K = Z/m x Z/n; for
    genus 1 only |K| <= 100."""
    for order in range(1, 101):
        if order ** (2 * genus) > 2 * 10 ** 5:
            return
        for m in range(1, order + 1):
            if order % (m * m) == 0:
                yield m, order // m


@pytest.mark.parametrize("genus", range(1, 10))
def test_count_equals_the_listing_of_k_to_the_2g(genus):
    """``count`` on every K and omega against ``enumerated_counts``,
    which lists K^2g and tests generation by 2x2 minors."""
    for m, n in count_groups(genus):
        counts = enumerated_counts(m, n, genus)
        for omega in range(m):
            assert count(m, n, omega, genus) == counts.get(omega, 0)


def test_plane_and_meets_against_enumeration():
    """``_plane`` is the Hermite form of a lattice in Z^2, and ``_meets``
    decides whether a coset of (Z/q)^2 meets D(inner) outside
    D(outer), both against listing the coset."""
    rng = seeded(89)
    for _ in range(300):
        p = rng.choice((2, 3, 5))
        q = p ** rng.randint(1, 3)
        vectors = [(rng.randrange(q), rng.randrange(q))
                   for _ in range(rng.randint(0, 2))]
        point = (rng.randrange(q), rng.randrange(q))
        coset = {point}
        if len(vectors) == 1:
            coset = {((point[0] + s * vectors[0][0]) % q,
                      (point[1] + s * vectors[0][1]) % q) for s in range(q)}
        elif len(vectors) == 2:
            (a0, a1), (b0, b1) = vectors
            coset = {((point[0] + s * a0 + t * b0) % q,
                      (point[1] + s * a1 + t * b1) % q)
                     for s in range(q) for t in range(q)}
        a, b, c = _plane(vectors, q, q)
        members = {(x, y) for x in range(q) for y in range(q)
                   if _in_plane((a, b, c), (x - point[0], y - point[1]))}
        assert members == coset
        i, j = rng.randint(0, 2), rng.randint(0, 2)
        inner = (min(p ** i, q), min(p ** j, q))
        outer = (min(inner[0] * p ** rng.randint(0, 1), q),
                 min(inner[1] * p ** rng.randint(0, 1), q))

        def inside(x, d):
            return x[0] % d[0] == 0 and x[1] % d[1] == 0

        expected = any(inside(x, inner) and not inside(x, outer)
                       for x in coset)
        assert _meets(point, vectors, inner, outer) == expected
        assert _meets(point, vectors, inner) == any(inside(x, inner)
                                                    for x in coset)
