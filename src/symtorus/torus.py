"""Points of the torus (R/Z)^d with exact rational coordinates.

The torus is identified with R^d/Z^d once and for all; every element is
stored by its unique representative with all coordinates in [0, 1).
Floating point is rejected outright: every coordinate must be an int,
a Fraction, or a string a Fraction accepts.
"""

from fractions import Fraction
from math import gcd, lcm


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


def format_rational(q):
    """The rational as "p/q", or as "p" when it is an integer."""
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return "%d/%d" % (q.numerator, q.denominator)


def format_numerators(numerators, modulus):
    """Each x / modulus, for a positive modulus, as ``format_rational``
    prints it, from integers alone: reduced by the gcd, and "p" when the
    reduced denominator is 1."""
    out = []
    for x in numerators:
        g = gcd(x, modulus)
        out.append(str(x // g) if g == modulus
                   else "%d/%d" % (x // g, modulus // g))
    return out


def element_order(t):
    """Least m >= 1 with m*t = 0, i.e. the lcm of coordinate denominators."""
    return lcm(*(q.denominator for q in t.coords))
