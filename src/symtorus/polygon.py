"""Case 1: Delzant polygons, kept and decided on integers.

A toric 4-manifold is classified by its momentum polygon up to
translation (Delzant, Bull. SMF 116, 1988): a convex rational polygon
whose two primitive edge vectors at each vertex form a basis of Z^2.
Each vertex is kept as integers (x, y, q) over its own denominator
(``torus.plane_point``), with no document-wide denominator, so every
test below runs on integers the size of two vertices.
"""

from math import gcd

from symtorus._frozen import frozen
from symtorus.errors import ValidationError
from symtorus.torus import fractions_of, plane_point, ratio, reduced


@frozen
class DelzantPolygon:
    """Convex rational polygon with a smooth corner at every vertex.

    Stored as integers: ``points`` holds each vertex as (x, y, q) over
    its own denominator (see ``torus.plane_point``). The constructor
    takes the vertices as pairs of ints, Fractions or strings, and
    ``polygon_from_ratios`` as integer pairs; ``vertices`` builds the
    Fraction pairs on each read.
    """

    points: tuple

    def __post_init__(self):
        _store(self, [(ratio(x), ratio(y)) for x, y in self.points])

    @property
    def vertices(self):
        return tuple([fractions_of(p) for p in self.points])


def _store(polygon, vertices):
    points = tuple([plane_point(*v) for v in vertices])
    if len(points) < 3:
        raise ValidationError("a polygon needs at least 3 vertices")
    object.__setattr__(polygon, "points", points)


def polygon_from_ratios(vertices):
    """A polygon from vertices given as pairs of rationals, each as
    integers (p, q) with q nonzero, as ``serialize`` reads them."""
    polygon = object.__new__(DelzantPolygon)
    _store(polygon, vertices)
    return polygon


def _cross(u, v):
    return u[0] * v[1] - u[1] * v[0]


def _angular_key(u):
    """0 for the upper half turn [0, pi), 1 for the lower [pi, 2pi)."""
    return 0 if (u[1] > 0 or (u[1] == 0 and u[0] > 0)) else 1


def _angle_increases(u, v):
    """Does v lie strictly counterclockwise of u, within one turn?"""
    hu, hv = _angular_key(u), _angular_key(v)
    if hu != hv:
        return hu < hv
    return _cross(u, v) > 0


def validate_delzant(polygon):
    """Convex, simple (one full turn), smooth at every vertex.

    Smooth means the primitive integer vectors along the two edges at
    each vertex form a basis of Z^2 (determinant +-1). Each edge is
    found by cross-multiplying its two ends, so the integers stay the
    size of two vertices, and is made primitive by its gcd.
    """
    pts = polygon.points
    n = len(pts)
    edges = []
    for i in range(n):
        (x0, y0, q0), (x1, y1, q1) = pts[i - 1], pts[i]
        dx, dy = x1 * q0 - x0 * q1, y1 * q0 - y0 * q1
        if not (dx or dy):
            return False
        g = gcd(dx, dy)
        edges.append((dx // g, dy // g))
    crosses = [_cross(edges[i - 1], edges[i]) for i in range(n)]
    if 0 in crosses:
        return False
    if min(crosses) < 0:
        if max(crosses) > 0:
            return False
        # Clockwise: the reversed polygon has the edges negated, in
        # reverse order, with the same crosses up to sign.
        edges = [(-x, -y) for x, y in reversed(edges)]
    # Counterclockwise local turns; one full turn means a simple polygon.
    wraps = sum([not _angle_increases(edges[i - 1], edges[i])
                 for i in range(n)])
    return wraps == 1 and all(c in (1, -1) for c in crosses)


def translated(polygon):
    """The vertices moved so that the least one, by x then y, lies at
    the origin, each in lowest terms, sorted: two polygons have equal
    lists exactly when one is a translate of the other."""
    pts = polygon.points
    x0, y0, q0 = pts[0]
    for x, y, q in pts:
        if (x * q0, y * q0) < (x0 * q, y0 * q):
            x0, y0, q0 = x, y, q
    return sorted([reduced(x * q0 - x0 * q, y * q0 - y0 * q, q * q0)
                   for x, y, q in pts])
