"""Points of the torus (R/Z)^d with exact rational coordinates.

The torus is identified with R^d/Z^d once and for all; every element is
stored by its unique representative with all coordinates in [0, 1).
Floating point is rejected outright: every coordinate must be an int,
a Fraction, or a string a Fraction accepts.

A point of Q^2 can also be kept as integers (a, b, q), the point
(a/q, b/q) over its least common denominator q > 0, so that
gcd(a, b, q) = 1 (``plane_point``), and a point of the 2-torus as such
a triple with 0 <= a, b < q (``torus_point``). These are the stored
forms of the case-1 and case-3 data.
"""

import sys
from fractions import Fraction
from math import gcd, lcm

from symtorus.errors import NumeralTooLarge


def as_fraction(value):
    """The value as a Fraction; a float is refused, as it is not exact."""
    if isinstance(value, float):
        raise TypeError("coordinates must be exact rationals, not floats")
    return Fraction(value)


class TorusElement:
    """A point of (R/Z)^d, coordinates reduced into [0, 1)."""

    __slots__ = ("coords",)

    def __init__(self, coords):
        # Tuples are built from lists: CPython gives a tuple built from a
        # generator 10 slots and shrinks it, and once freed it parks in the
        # free list of its final size, which in a long run fills up to
        # 2,000 tuples of every small size until a full collection.
        self.coords = tuple([as_fraction(q) % 1 for q in coords])
        if not self.coords:
            raise ValueError("torus element needs at least one coordinate")

    @classmethod
    def zero(cls, dim):
        return cls((0,) * dim)

    @property
    def dim(self):
        return len(self.coords)

    def is_zero(self):
        return all(q == 0 for q in self.coords)

    def __add__(self, other):
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        return TorusElement(a + b for a, b in zip(self.coords, other.coords))

    def __sub__(self, other):
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        return TorusElement(a - b for a, b in zip(self.coords, other.coords))

    def __neg__(self):
        return TorusElement(-q for q in self.coords)

    def __rmul__(self, k):
        if not isinstance(k, int):
            raise TypeError("only integer multiples act on torus points")
        return TorusElement(k * q for q in self.coords)

    def __eq__(self, other):
        return isinstance(other, TorusElement) and self.coords == other.coords

    def __hash__(self):
        return hash(self.coords)

    def __lt__(self, other):
        return self.coords < other.coords

    def __repr__(self):
        return "TorusElement(%s)" % (", ".join(str(q) for q in self.coords))


def ratio(value):
    """The value as integers (p, q), q > 0 and in lowest terms; a float
    is refused, as it is not exact."""
    q = as_fraction(value)
    return q.numerator, q.denominator


def plane_point(x, y):
    """The point (x, y) of Q^2, each coordinate given as integers (p, q)
    with q nonzero, as (a, b, q) over its least common denominator."""
    (p1, q1), (p2, q2) = x, y
    return reduced(p1 * q2, p2 * q1, q1 * q2)


def torus_point(a, b, q):
    """The point (a/q, b/q) of the 2-torus, q > 0, as (a, b, q) with
    0 <= a, b < q over its least common denominator."""
    return reduced(a % q, b % q, q)


def reduced(a, b, q):
    """(a/q, b/q), q nonzero, as (a, b, q) in lowest terms, q > 0."""
    g = gcd(a, b, q)
    if q < 0:
        g = -g
    return a // g, b // g, q // g


def fractions_of(point):
    """The coordinates of a point (a, b, q) as Fractions."""
    a, b, q = point
    return Fraction(a, q), Fraction(b, q)


def too_large():
    """The error for an answer that ``str`` refuses to print."""
    return NumeralTooLarge(
        "answer too large to print: an integer in it has more than %d "
        "digits" % sys.get_int_max_str_digits())


def numeral(n):
    """str(n) for an int, or ``too_large()`` past the digit limit."""
    try:
        return str(n)
    except ValueError:
        raise too_large() from None


def format_rational(q):
    """The rational as "p/q", or as "p" when it is an integer."""
    q = Fraction(q)
    try:
        if q.denominator == 1:
            return str(q.numerator)
        return "%d/%d" % (q.numerator, q.denominator)
    except ValueError:
        raise too_large() from None


def format_numerators(numerators, modulus):
    """Each x / modulus, for a positive modulus, as ``format_rational``
    prints it, from integers alone: reduced by the gcd, and "p" when the
    reduced denominator is 1."""
    out = []
    try:
        for x in numerators:
            g = gcd(x, modulus)
            out.append(str(x // g) if g == modulus
                       else "%d/%d" % (x // g, modulus // g))
    except ValueError:
        raise too_large() from None
    return out


def format_point(point):
    """The coordinates of a point (a, b, q), as ``format_rational``
    prints them."""
    a, b, q = point
    return format_numerators((a, b), q)


def element_order(t):
    """Least m >= 1 with m*t = 0, i.e. the lcm of coordinate denominators."""
    return lcm(*(q.denominator for q in t.coords))
