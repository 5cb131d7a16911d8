"""Ingredients of the free Lagrangian-orbit case on a 2-torus.

The classifying data is a cocompact lattice P in the dual Lie algebra
(two basis columns f1, f2), an antisymmetric bilinear map c from dual
pairs into the Lie algebra that is integral on P, and a holonomy map
tau on P twisted by c:

    tau(z') + tau(z) = tau(z + z') + c(z', z)/2   in the torus.

Holonomy maps are compared modulo the exponential of the subspace
spanned by the contractions c(., xi) and the symmetric maps restricted
to P. Everything is rational, so equality is decidable exactly.

The relation fixes tau on all of P from tau(f1) and tau(f2), in closed
form: tau(m f1 + k f2) = m tau1 + k tau2 - (m k / 2) c(f2, f1), so the
holonomy at any lattice vector costs the same however large its
coordinates are.

This module is pinned to torus dimension 2: an antisymmetric c is then
determined by its single value on the dual coordinate basis, via
c(z, z') = det(z, z') * c_value.
"""

from fractions import Fraction
from math import lcm

from symtorus._frozen import frozen
from symtorus.errors import PrerequisiteMismatch
from symtorus.intmat import in_integer_span, lattice_membership
from symtorus.torus import TorusElement
from symtorus import ratmat

DIM = 2


def _vec2(values):
    x, y = values
    if isinstance(x, float) or isinstance(y, float):
        raise TypeError("coordinates must be exact rationals")
    return (Fraction(x), Fraction(y))


@frozen
class LagrangianFreeIngredients:
    """Lattice basis (rows of a 2x2 matrix, columns f1 and f2), the
    cocycle value on the dual coordinate basis, and the two holonomy
    values tau(f1), tau(f2)."""

    p_basis: tuple
    c_value: tuple
    tau: tuple

    def __post_init__(self):
        rows = tuple(_vec2(row) for row in self.p_basis)
        if len(rows) != 2:
            raise ValueError("lattice basis must be a 2x2 matrix")
        object.__setattr__(self, "p_basis", rows)
        object.__setattr__(self, "c_value", _vec2(self.c_value))
        t1, t2 = self.tau
        if t1.dim != DIM or t2.dim != DIM:
            raise ValueError("holonomy values must live in the 2-torus")
        object.__setattr__(self, "tau", (t1, t2))
        if self._basis_det() == 0:
            raise ValueError("lattice basis is singular")

    def _basis_det(self):
        (a, b), (c, d) = self.p_basis
        return a * d - b * c

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


def cocycle(c_value, zeta, zeta2):
    """Value of the antisymmetric map: det(zeta, zeta2) * c_value."""
    z = _vec2(zeta)
    w = _vec2(zeta2)
    d = z[0] * w[1] - z[1] * w[0]
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


def same_lattice(ing1, ing2):
    """Do the two ingredient lists span the same lattice in t*?"""
    basis1 = [list(row) for row in ing1.p_basis]
    basis2 = [list(row) for row in ing2.p_basis]
    return all(
        lattice_membership(ing2.basis_column(j), basis1) for j in (0, 1)
    ) and all(
        lattice_membership(ing1.basis_column(j), basis2) for j in (0, 1)
    )


def _tau_at(ing, vec):
    """Holonomy at an arbitrary lattice vector of ``ing``."""
    coords = ratmat.solve(ing.p_basis, vec)
    if coords is None or any(q.denominator != 1 for q in coords):
        raise PrerequisiteMismatch("vector is not in the lattice")
    return extend_tau(ing, int(coords[0]), int(coords[1]))


def _shift_subspace_rows(ing):
    """Spanning rows of the subspace A inside Hom(P, t) = Q^4.

    Coordinates: (h(f1), h(f2)) flattened. Spanned by the contractions
    z -> c(z, e_i) and by the symmetric maps restricted to P.
    """
    f1 = ing.basis_column(0)
    f2 = ing.basis_column(1)
    rows = []
    for e in ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))):
        rows.append(cocycle(ing.c_value, f1, e) + cocycle(ing.c_value, f2, e))
    sym_maps = (
        ((1, 0), (0, 0)),
        ((0, 0), (0, 1)),
        ((0, 1), (1, 0)),
    )
    for mat in sym_maps:
        image = []
        for f in (f1, f2):
            image.extend(
                (mat[0][0] * f[0] + mat[0][1] * f[1],
                 mat[1][0] * f[0] + mat[1][1] * f[1])
            )
        rows.append(tuple(Fraction(x) for x in image))
    return rows


def holonomy_equivalent(ing1, ing2):
    """Are the holonomies equal modulo the exponential of A?

    The difference of two holonomy maps with the same cocycle is a true
    homomorphism delta in Hom(P, T) = T^4. The test lifts delta to Q^4
    and asks whether the lift lies in A + Z^4, by projecting both the
    lift and the integer lattice to Q^4/A and testing membership in the
    image subgroup there.
    """
    if not same_lattice(ing1, ing2):
        raise PrerequisiteMismatch("ingredient lists have different lattices")
    if ing1.c_value != ing2.c_value:
        raise PrerequisiteMismatch("ingredient lists have different cocycles")
    return holonomies_agree(ing1, ing2)


def holonomies_agree(ing1, ing2):
    """``holonomy_equivalent`` for two lists already known to share their
    lattice and cocycle, without checking that again."""
    delta = []
    for j in (0, 1):
        f = ing1.basis_column(j)
        diff = _tau_at(ing2, f) - extend_tau(ing1, (1, 0)[j], (0, 1)[j])
        delta.extend(diff.coords)

    quotient_rows = ratmat.nullspace(_shift_subspace_rows(ing1))
    if not quotient_rows:
        return True
    projected = [
        sum(row[i] * delta[i] for i in range(4)) for row in quotient_rows
    ]
    generators = [
        tuple(row[i] for row in quotient_rows) for i in range(4)
    ]
    denoms = [q.denominator for vec in generators for q in vec]
    denoms += [q.denominator for q in projected]
    scale = lcm(*denoms)
    target = tuple(int(q * scale) for q in projected)
    cols = [tuple(int(q * scale) for q in vec) for vec in generators]
    return in_integer_span(target, cols)


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
