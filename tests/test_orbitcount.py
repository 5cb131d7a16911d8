"""``orbitcount.Span`` as the model of A = T[N]/H, against brute force:
box representatives against the lex-least point of each coset, and the
listed subgroup against a BFS closure of the torsion numerators."""

import itertools

import pytest

from conftest import closure_mod, seeded
from symtorus.orbitcount import Span


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
