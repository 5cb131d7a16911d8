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
"""

from fractions import Fraction
from math import gcd, lcm

from symtorus._frozen import frozen
from symtorus.errors import PrerequisiteMismatch
from symtorus.torus import TorusElement, as_fraction

DIM = 2


def _vec2(values):
    x, y = values
    return (as_fraction(x), as_fraction(y))


@frozen
class LagrangianFreeIngredients:
    """Lattice basis (rows of a 2x2 matrix, columns f1 and f2), the
    cocycle value on the dual coordinate basis, and the two holonomy
    values tau(f1), tau(f2)."""

    p_basis: tuple
    c_value: tuple
    tau: tuple

    def __post_init__(self):
        rows = tuple([_vec2(row) for row in self.p_basis])
        if len(rows) != 2:
            raise ValueError("lattice basis must be a 2x2 matrix")
        object.__setattr__(self, "p_basis", rows)
        object.__setattr__(self, "c_value", _vec2(self.c_value))
        t1, t2 = self.tau
        if t1.dim != DIM or t2.dim != DIM:
            raise ValueError("holonomy values must live in the 2-torus")
        object.__setattr__(self, "tau", (t1, t2))
        if _det(self.basis_column(0), self.basis_column(1)) == 0:
            raise ValueError("lattice basis is singular")

    def basis_column(self, j):
        return (self.p_basis[0][j], self.p_basis[1][j])


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


def validate_cocycle(ing):
    """Is the cocycle integral on the lattice?

    Antisymmetry makes the basis value c(f1, f2) decide integrality on
    all of P x P. The cyclic condition

        <x, c(y, z)> + <y, c(z, x)> + <z, c(x, y)> = 0

    needs no check: with c(y, z) = det(y, z) c_value its left side is
    <det(y, z) x + det(z, x) y + det(x, y) z, c_value>, and for any
    three vectors of Q^2 that combination of x, y and z is zero.
    """
    on_basis = cocycle(ing.c_value, ing.basis_column(0), ing.basis_column(1))
    return all(q.denominator == 1 for q in on_basis)


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


def extend_tau(ing, m, k):
    """Holonomy on m*f1 + k*f2, in closed form:

        tau(m f1 + k f2) = m tau1 + k tau2 - (m k / 2) c(f2, f1).

    Induction on |m| and |k| over the twisted relation gives it, with
    tau(-f) = -tau(f) from the relation at z' = -z; the cost does not
    grow with m or k.
    """
    tau1, tau2 = ing.tau
    twist = cocycle(ing.c_value, ing.basis_column(1), ing.basis_column(0))
    half = Fraction(m * k, 2)
    return m * tau1 + k * tau2 - TorusElement(
        (half * twist[0], half * twist[1]))


def iota(ing, m, k):
    """Lattice embedding z -> (tau(z)^-1, z) into the nilpotent group."""
    f1 = ing.basis_column(0)
    f2 = ing.basis_column(1)
    zeta = (m * f1[0] + k * f2[0], m * f1[1] + k * f2[1])
    return NilElement(-extend_tau(ing, m, k), zeta)


def _coords(ing, vec):
    """Integer (m, k) with vec = m f1 + k f2, by Cramer's rule, or None
    when vec is not in the lattice."""
    f1 = ing.basis_column(0)
    f2 = ing.basis_column(1)
    det = _det(f1, f2)
    m = _det(vec, f2) / det
    k = _det(f1, vec) / det
    if m.denominator != 1 or k.denominator != 1:
        return None
    return int(m), int(k)


def same_lattice(ing1, ing2):
    """Do the two ingredient lists span the same lattice in t*?"""
    return all(
        _coords(a, b.basis_column(j)) is not None
        for a, b in ((ing1, ing2), (ing2, ing1)) for j in (0, 1))


def _tau_at(ing, vec):
    """Holonomy at an arbitrary lattice vector of ``ing``."""
    coords = _coords(ing, vec)
    if coords is None:
        raise PrerequisiteMismatch("vector is not in the lattice")
    return extend_tau(ing, *coords)


def _rational_gcd(values):
    """The g >= 0 with g*Z the subgroup of Q that the values generate."""
    scale = lcm(*(q.denominator for q in values))
    return Fraction(
        gcd(*(q.numerator * (scale // q.denominator) for q in values)),
        scale)


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
    if ing1.c_value != ing2.c_value:
        raise PrerequisiteMismatch("ingredient lists have different cocycles")
    return holonomies_agree(ing1, ing2)


def holonomies_agree(ing1, ing2):
    """``holonomy_equivalent`` for two lists already known to share their
    lattice and cocycle, without checking that again."""
    if any(ing1.c_value):
        return True
    f1 = ing1.basis_column(0)
    f2 = ing1.basis_column(1)
    delta1, delta2 = (
        (_tau_at(ing2, f) - t).coords for f, t in zip((f1, f2), ing1.tau))
    antisym = _dot(delta2, f1) - _dot(delta1, f2)
    return antisym % _rational_gcd(f1 + f2) == 0


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
