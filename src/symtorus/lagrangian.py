"""Ingredients of the free Lagrangian-orbit case on a 2-torus.

The classifying data is a cocompact lattice P in the dual Lie algebra
(two basis columns f1, f2), an antisymmetric bilinear map c from dual
pairs into the Lie algebra that is integral on P, and a holonomy map
tau on P twisted by c:

    tau(z') + tau(z) = tau(z + z') + c(z', z)/2   in the torus.

Holonomy maps are compared modulo the exponential of the subspace
spanned by the contractions c(., xi) and the symmetric maps restricted
to P. Everything is rational, so equality is decidable exactly, and on
a 2-torus each invariant is a 2x2 closed form: lattice coordinates by
Cramer's rule, and the holonomy class by one divisibility test
(``holonomy_equivalent``).

The relation fixes tau on all of P from tau(f1) and tau(f2), in closed
form: tau(m f1 + k f2) = m tau1 + k tau2 - (m k / 2) c(f2, f1), so the
holonomy at any lattice vector costs the same however large its
coordinates are.

This module is pinned to torus dimension 2: an antisymmetric c is then
determined by its single value on the dual coordinate basis, via
c(z, z') = det(z, z') * c_value.

Every decision runs on integers. Each vector is kept over its own
denominator as (a, b, q) (``torus.plane_point``), lattice coordinates
are a divisibility test, and no Fraction is built until a caller reads
``p_basis``, ``c_value``, ``tau``, ``basis_column`` or a torus point.
"""

from math import gcd

from symtorus._frozen import frozen
from symtorus.errors import PrerequisiteMismatch
from symtorus.torus import (
    TorusElement,
    as_fraction,
    fractions_of,
    plane_point,
    ratio,
    reduced,
    torus_point,
)

DIM = 2
ZERO = (0, 0, 1)


def _vec2(values):
    x, y = values
    return (as_fraction(x), as_fraction(y))


@frozen
class LagrangianFreeIngredients:
    """Lattice basis (rows of a 2x2 matrix, columns f1 and f2), the
    cocycle value on the dual coordinate basis, and the two holonomy
    values tau(f1), tau(f2).

    Stored as integers, each vector over its own denominator (see
    ``torus.plane_point``): ``columns`` holds f1 and f2 and ``c`` the
    cocycle value, each as (a, b, q), and ``holonomy`` holds tau(f1) and
    tau(f2) as (a, b, q) reduced mod q. The constructor takes today's
    arguments (a 2x2 matrix, a 2-vector and two 2-torus points, of ints,
    Fractions or strings) and ``ingredients_from_ratios`` integer pairs;
    ``p_basis``, ``c_value``, ``tau`` and ``basis_column`` build
    Fractions and torus points on each read.
    """

    columns: tuple
    c: tuple
    holonomy: tuple

    def __post_init__(self):
        rows = [[ratio(x), ratio(y)] for x, y in self.columns]
        if len(rows) != 2:
            raise ValueError("lattice basis must be a 2x2 matrix")
        x, y = self.c
        c_value = [ratio(x), ratio(y)]
        t1, t2 = self.holonomy
        if t1.dim != DIM or t2.dim != DIM:
            raise ValueError("holonomy values must live in the 2-torus")
        tau = [[(q.numerator, q.denominator) for q in t.coords]
               for t in (t1, t2)]
        _store(self, rows, c_value, tau)

    @property
    def p_basis(self):
        f1, f2 = self.basis_column(0), self.basis_column(1)
        return ((f1[0], f2[0]), (f1[1], f2[1]))

    @property
    def c_value(self):
        return fractions_of(self.c)

    @property
    def tau(self):
        return tuple([TorusElement(fractions_of(t)) for t in self.holonomy])

    def basis_column(self, j):
        return fractions_of(self.columns[j])


def _store(ing, rows, c_value, tau):
    """Set the stored form from rationals given as integer pairs (p, q):
    the rows of the basis, the cocycle value and the two holonomy
    values."""
    (x1, x2), (y1, y2) = rows
    columns = (plane_point(x1, y1), plane_point(x2, y2))
    (a1, b1, _), (a2, b2, _) = columns
    if a1 * b2 == b1 * a2:
        raise ValueError("lattice basis is singular")
    object.__setattr__(ing, "columns", columns)
    object.__setattr__(ing, "c", plane_point(*c_value))
    object.__setattr__(ing, "holonomy", tuple([
        torus_point(*plane_point(*t)) for t in tau]))


def ingredients_from_ratios(rows, c_value, tau):
    """Ingredients from rationals given as integer pairs (p, q), q
    nonzero, as ``serialize`` reads them: the two rows of the basis, the
    cocycle value, and the two holonomy values, each a pair of
    rationals."""
    ing = object.__new__(LagrangianFreeIngredients)
    _store(ing, rows, c_value, tau)
    return ing


@frozen
class NilElement:
    """Element (t, zeta) of the two-step nilpotent group on T x t*."""

    t: TorusElement
    zeta: tuple

    def __post_init__(self):
        if self.t.dim != DIM:
            raise ValueError("torus part must be 2-dimensional")
        object.__setattr__(self, "zeta", _vec2(self.zeta))


def _det(u, v):
    return u[0] * v[1] - u[1] * v[0]


def cocycle(c_value, zeta, zeta2):
    """Value of the antisymmetric map: det(zeta, zeta2) * c_value."""
    d = _det(_vec2(zeta), _vec2(zeta2))
    return (d * c_value[0], d * c_value[1])


def basis_cocycle(ing):
    """c(f1, f2) = det(f1, f2) * c_value, as (a, b, q), not reduced."""
    (a1, b1, q1), (a2, b2, q2) = ing.columns
    ca, cb, qc = ing.c
    det = a1 * b2 - b1 * a2
    return det * ca, det * cb, q1 * q2 * qc


def validate_cocycle(ing):
    """Is the cocycle integral on the lattice?

    Antisymmetry makes the basis value c(f1, f2) decide integrality on
    all of P x P. The cyclic condition

        <x, c(y, z)> + <y, c(z, x)> + <z, c(x, y)> = 0

    needs no check: with c(y, z) = det(y, z) c_value its left side is
    <det(y, z) x + det(z, x) y + det(x, y) z, c_value>, and for any
    three vectors of Q^2 that combination of x, y and z is zero.
    """
    a, b, q = basis_cocycle(ing)
    return a % q == 0 and b % q == 0


def _dot(u, v):
    return u[0] * v[0] + u[1] * v[1]


def _half(vec):
    return (vec[0] / 2, vec[1] / 2)


def group_law(x, y, c_value):
    """(t, z) * (t', z') = (t + t' - c(z, z')/2, z + z')."""
    c_half = _half(cocycle(c_value, x.zeta, y.zeta))
    t = x.t + y.t - TorusElement(c_half)
    zeta = (x.zeta[0] + y.zeta[0], x.zeta[1] + y.zeta[1])
    return NilElement(t, zeta)


def _tau(ing, m, k):
    """tau(m f1 + k f2) as a 2-torus point (a, b, q), in closed form:

        tau(m f1 + k f2) = m tau1 + k tau2 - (m k / 2) c(f2, f1).

    Induction on |m| and |k| over the twisted relation gives it, with
    tau(-f) = -tau(f) from the relation at z' = -z; the cost does not
    grow with m or k.
    """
    (x1, y1, r1), (x2, y2, r2) = ing.holonomy
    x, y, den = m * x1 * r2 + k * x2 * r1, m * y1 * r2 + k * y2 * r1, r1 * r2
    if m and k and ing.c != ZERO:
        # -(m k / 2) c(f2, f1) = m k c(f1, f2) / 2.
        a, b, q = basis_cocycle(ing)
        q *= 2
        x, y, den = x * q + m * k * a * den, y * q + m * k * b * den, den * q
    return torus_point(x, y, den)


def extend_tau(ing, m, k):
    """Holonomy on m*f1 + k*f2, in closed form (see ``_tau``)."""
    return TorusElement(fractions_of(_tau(ing, m, k)))


def iota_numerators(ing, m, k):
    """iota(m f1 + k f2) as integers: the torus part as a 2-torus point
    (a, b, q) and the lattice vector as (a, b, q)."""
    x, y, q = _tau(ing, m, k)
    (a1, b1, q1), (a2, b2, q2) = ing.columns
    return (torus_point(-x, -y, q),
            reduced(m * a1 * q2 + k * a2 * q1, m * b1 * q2 + k * b2 * q1,
                    q1 * q2))


def iota(ing, m, k):
    """Lattice embedding z -> (tau(z)^-1, z) into the nilpotent group."""
    t, zeta = iota_numerators(ing, m, k)
    return NilElement(TorusElement(fractions_of(t)), fractions_of(zeta))


def _coords(ing, vec):
    """Integer (m, k) with vec = m f1 + k f2, for vec given as (a, b, q),
    by Cramer's rule as a divisibility test, or None when vec is not in
    the lattice."""
    (a1, b1, q1), (a2, b2, q2) = ing.columns
    a, b, q = vec
    den = q * (a1 * b2 - b1 * a2)
    m = (a * b2 - b * a2) * q1
    k = (a1 * b - b1 * a) * q2
    if m % den or k % den:
        return None
    return m // den, k // den


def same_lattice(ing1, ing2):
    """Do the two ingredient lists span the same lattice in t*?"""
    return all(
        _coords(a, f) is not None
        for a, b in ((ing1, ing2), (ing2, ing1)) for f in b.columns)


def holonomy_equivalent(ing1, ing2):
    """Are the holonomies equal modulo the exponential of A?

    A is the subspace of Hom(P, t) = Q^4 spanned by the contractions
    z -> c(z, e_i) and by the symmetric maps restricted to P. The
    difference of two holonomy maps with the same cocycle is a true
    homomorphism delta in Hom(P, T); the holonomies are equivalent when
    a lift of delta to Hom(P, t) lies in A + Hom(P, Z^2). In closed
    form:

    - if c != 0, any two holonomies are equivalent. The contractions
      have antisymmetric parts -c_x and -c_y times [[0, 1], [-1, 0]],
      so together with the symmetric maps they span all of Hom(P, t).
    - if c = 0, A is the symmetric maps. With
      delta_j = tau2(f_j) - tau1(f_j) lifted to Q^2, the holonomies are
      equivalent iff <delta_2, f1> - <delta_1, f2> lies in g*Z, where g
      is the rational gcd of the four basis coordinates. That number is
      det(f1, f2) times the antisymmetric part of the lift, and g*Z is
      det(f1, f2) times the antisymmetric parts of Hom(P, Z^2).
    """
    if not same_lattice(ing1, ing2):
        raise PrerequisiteMismatch("ingredient lists have different lattices")
    if ing1.c != ing2.c:
        raise PrerequisiteMismatch("ingredient lists have different cocycles")
    return holonomies_agree(ing1, ing2)


def holonomies_agree(ing1, ing2):
    """``holonomy_equivalent`` for two lists already known to share their
    lattice and cocycle, without checking that again.

    With f_j = (a_j, b_j) / q_j and delta_j = (u_j, w_j) / s_j, the
    test reads: (<(u2, w2), (a1, b1)> s1 q2 - <(u1, w1), (a2, b2)> s2 q1)
    is a multiple of s1 s2 gcd(gcd(a1, b1) q2, gcd(a2, b2) q1).
    """
    if ing1.c != ZERO:
        return True
    deltas = []
    for f, (x, y, r) in zip(ing1.columns, ing1.holonomy):
        coords = _coords(ing2, f)
        if coords is None:
            raise PrerequisiteMismatch("vector is not in the lattice")
        u, w, s = _tau(ing2, *coords)
        deltas.append((u * r - x * s, w * r - y * s, s * r))
    (a1, b1, q1), (a2, b2, q2) = ing1.columns
    (u1, w1, s1), (u2, w2, s2) = deltas
    antisym = ((u2 * a1 + w2 * b1) * s1 * q2
               - (u1 * a2 + w1 * b2) * s2 * q1)
    return antisym % (s1 * s2 * gcd(gcd(a1, b1) * q2,
                                    gcd(a2, b2) * q1)) == 0


def lagrangian_equal(ing1, ing2):
    """Same lattice, same cocycle, and equivalent holonomy."""
    try:
        return holonomy_equivalent(ing1, ing2)
    except PrerequisiteMismatch:
        return False


def model_form_eval(db, dpb):
    """The flat model form: dzeta(d't) - d'zeta(dt).

    Arguments are tangent vectors (dt, dzeta) with dt in the Lie algebra
    and dzeta in its dual, each a rational pair.
    """
    dt, dzeta = _vec2(db[0]), _vec2(db[1])
    dtp, dzetap = _vec2(dpb[0]), _vec2(dpb[1])
    return _dot(dzeta, dtp) - _dot(dzetap, dt)


def model_form_matrix():
    """Gram matrix of the flat model form on (dt1, dt2, dzeta1, dzeta2)."""
    return (
        (0, 0, -1, 0),
        (0, 0, 0, -1),
        (1, 0, 0, 0),
        (0, 1, 0, 0),
    )
