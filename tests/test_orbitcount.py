"""``orbitcount.Span`` as the model of A = T[N]/H, against brute force:
box representatives against the lex-least point of each coset, and the
listed subgroup against a BFS closure of the torsion numerators; and the
coset tests of the least-tuple search against listing the coset."""

import itertools

import pytest

from conftest import closure_mod, seeded
from symtorus.orbitcount import Span
from symtorus.orbitleast import _in_plane, _meets, _plane


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
