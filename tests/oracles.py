"""Slow routes kept only as oracles: the column echelon over unbounded
integers, rational lattice membership, the dense integer Smith form
with its transforms and its invariant factors, the abelianization of a
presentation by exponent sums, factoring by trial division alone, the
parse of a monodromy datum through ``Fraction`` torus points, and the
case-1 and case-3 decisions in ``Fraction`` arithmetic, read through
the public ``Fraction`` views of a polygon and an ingredient list, and
the paper's case-3 model in ``Fraction`` arithmetic: the nilpotent group
on T x t*, its cocycle, the lattice embedding iota and the flat model
form, and the box representative by a walk over every column of a
Hermite basis. No verb uses them; the tests check the fast routes against them.
"""

import sys
from fractions import Fraction
from math import gcd, lcm

from symtorus.errors import (
    OrderViolation,
    ParseError,
    SumViolation,
    ValidationError,
)
from symtorus._frozen import frozen
from symtorus.intmat import IntMatrix
from symtorus.lagrangian import iota_numerators
from symtorus.orbitcount import _TRIAL_BOUND, _is_prime
from symtorus.serialize import parse_signature
from symtorus.torus import (
    TorusElement,
    as_fraction,
    element_order,
    fractions_of,
)


class DependentBasis(ValidationError):
    """Lattice basis with linearly dependent columns."""


def column_echelon(m):
    """Unimodular column reduction to echelon form.

    Returns (h, pivots) where h = m * V for some unimodular V, each pivot
    (r, c) has h[r][c] > 0, zeros above it in its column, and pivot rows
    strictly increase with the column index.
    """
    h = [list(row) for row in m.entries]
    nr, nc = len(h), len(h[0])
    c = 0
    pivots = []
    for r in range(nr):
        if c >= nc:
            break
        while True:
            nz = [j for j in range(c, nc) if h[r][j]]
            if not nz:
                break
            jmin = min(nz, key=lambda j: abs(h[r][j]))
            if jmin != c:
                for row in h:
                    row[c], row[jmin] = row[jmin], row[c]
            if len(nz) == 1:
                break
            p = h[r][c]
            for j in range(c + 1, nc):
                if h[r][j]:
                    q = h[r][j] // p
                    for row in h:
                        row[j] -= q * row[c]
        if h[r][c]:
            if h[r][c] < 0:
                for row in h:
                    row[c] = -row[c]
            pivots.append((r, c))
            c += 1
    return h, pivots


def reduces_to_zero(vector, h, pivots):
    """Does ``vector`` lie in the span of the echelon columns of h?"""
    w = list(vector)
    for r, c in pivots:
        q, rem = divmod(w[r], h[r][c])
        if rem:
            return False
        for i in range(len(w)):
            w[i] -= q * h[i][c]
    return not any(w)


def lattice_membership(vector, basis):
    """Is the rational vector an integer combination of the basis columns?

    ``basis`` is given as rows (row-major); its columns must be linearly
    independent, otherwise DependentBasis is raised. Denominators are
    cleared before the integer test, and the rank is the number of
    pivots of the cleared basis's column echelon form.
    """
    basis_rows = [[Fraction(x) for x in row] for row in basis]
    vec = [Fraction(x) for x in vector]
    if len(vec) != len(basis_rows):
        raise ValueError("vector length does not match basis rows")
    denoms = [x.denominator for row in basis_rows for x in row]
    denoms += [x.denominator for x in vec]
    scale = lcm(*denoms)
    scaled = IntMatrix([[int(x * scale) for x in row] for row in basis_rows])
    h, pivots = column_echelon(scaled)
    if len(pivots) < scaled.cols:
        raise DependentBasis("basis columns are linearly dependent")
    return reduces_to_zero([int(x * scale) for x in vec], h, pivots)


class SmithDecomposition:
    """U * M * V = S with U, V unimodular and S in Smith normal form."""

    __slots__ = ("u", "s", "v")

    def __init__(self, u, s, v):
        self.u = u
        self.s = s
        self.v = v

    def invariant_factors(self):
        n = min(self.s.rows, self.s.cols)
        return tuple([self.s[i, i] for i in range(n)])


def smith_normal_form(m):
    """Diagonalize over Z with a divisibility chain, tracking transforms.

    Classic pivot-shrinking reduction: move the absolutely smallest entry
    to the pivot, clear its row and column by Euclidean steps, and when a
    remaining entry resists divisibility fold its row into the pivot row
    and go again. Each round strictly shrinks the pivot, so it stops.
    """
    nr, nc = m.rows, m.cols
    a = [list(row) for row in m.entries]
    u = [[1 if i == j else 0 for j in range(nr)] for i in range(nr)]
    v = [[1 if i == j else 0 for j in range(nc)] for i in range(nc)]

    def row_add(i, j, k):  # row i += k * row j
        a[i] = [x + k * y for x, y in zip(a[i], a[j])]
        u[i] = [x + k * y for x, y in zip(u[i], u[j])]

    def col_add(j, i, k):  # col j += k * col i
        for row in a:
            row[j] += k * row[i]
        for row in v:
            row[j] += k * row[i]

    def row_swap(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def col_swap(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def row_neg(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

    for t in range(min(nr, nc)):
        piv = None
        for i in range(t, nr):
            for j in range(t, nc):
                x = a[i][j]
                if x != 0 and (piv is None or abs(x) < abs(a[piv[0]][piv[1]])):
                    piv = (i, j)
        if piv is None:
            break
        row_swap(t, piv[0])
        col_swap(t, piv[1])
        while True:
            if a[t][t] < 0:
                row_neg(t)
            p = a[t][t]
            i = next((i for i in range(t + 1, nr) if a[i][t] % p), None)
            if i is not None:
                row_add(i, t, -(a[i][t] // p))
                row_swap(t, i)
                continue
            for i in range(t + 1, nr):
                if a[i][t]:
                    row_add(i, t, -(a[i][t] // p))
            j = next((j for j in range(t + 1, nc) if a[t][j] % p), None)
            if j is not None:
                col_add(j, t, -(a[t][j] // p))
                col_swap(t, j)
                continue
            for j in range(t + 1, nc):
                if a[t][j]:
                    col_add(j, t, -(a[t][j] // p))
            if any(a[i][t] for i in range(t + 1, nr)):
                continue
            bad = next((i for i in range(t + 1, nr)
                        for j in range(t + 1, nc) if a[i][j] % p), None)
            if bad is None:
                break
            row_add(t, bad, 1)
    return SmithDecomposition(IntMatrix(u), IntMatrix(a), IntMatrix(v))


def invariant_factors(m):
    return smith_normal_form(m).invariant_factors()


def exponent_matrix(pres):
    """Abelianized relators as exponent rows, or None if no relators."""
    if not pres.relators:
        return None
    index = {name: i for i, name in enumerate(pres.generators)}
    rows = []
    for word in pres.relators:
        row = [0] * len(pres.generators)
        for name, exp in word:
            row[index[name]] += exp
        rows.append(row)
    return rows


def abelianization(pres):
    """Invariants (free rank, factors) of any presentation's abelianization.

    Generic route used as a consistency oracle: exponent-sum the relators
    and reduce to Smith normal form.
    """
    ngens = len(pres.generators)
    rows = exponent_matrix(pres)
    if rows is None:
        return ngens, ()
    diag = invariant_factors(IntMatrix(rows).transpose())
    rank = ngens - sum(1 for d in diag if d != 0)
    factors = tuple(sorted(d for d in diag if d >= 2))
    return rank, factors


def trial_prime_powers(n):
    """[(p, e), ...] with n the product of the p^e: trial division below
    2^16, then the cofactor must be prime. None when it cannot be shown
    prime."""
    out, p = [], 2
    while p < _TRIAL_BOUND and p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n, e = n // p, e + 1
            out.append((p, e))
        p += 1 if p == 2 else 2
    if n > 1:
        if n >= _TRIAL_BOUND ** 2 and not _is_prime(n):
            return None
        out.append((n, 1))
    return out


def box_least(basis, x):
    """The box representative of x against the lower-triangular Hermite
    basis B (``orbitcount.Span.basis``): coordinate t reduced into
    [0, B[t][t]) by column t of B, carrying into the later ones, every
    column walked whole."""
    x = list(x)
    for t, row in enumerate(basis):
        q = x[t] // row[t]
        if q:
            for i in range(t, len(x)):
                x[i] -= q * basis[i][t]
    return tuple(x)


def _digit_limit():
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


def fraction_parse_rational(value, where=""):
    """A JSON rational as a ``Fraction``, read value by value."""
    context = " at %s" % where if where else ""
    if isinstance(value, bool) or isinstance(value, float):
        raise ParseError("expected an exact rational%s, got %r" % (context, value))
    if isinstance(value, int):
        return Fraction(value)
    if not isinstance(value, str):
        raise ParseError("expected a rational string%s, got %r" % (context, value))
    parts = value.split("/")
    try:
        if len(parts) == 1:
            return Fraction(int(parts[0]))
        if len(parts) == 2:
            num, den = int(parts[0]), int(parts[1])
            if den == 0:
                raise ParseError("zero denominator%s in %r" % (context, value))
            return Fraction(num, den)
    except ValueError:
        limit = _digit_limit()
        if limit and any(
                len(digits) > limit and digits.isdecimal()
                for digits in (part.strip().lstrip("+-").replace("_", "")
                               for part in parts)):
            raise ParseError("rational too large%s: more than %d digits"
                             % (context, limit)) from None
    raise ParseError("malformed rational%s: %r" % (context, value))


def _fraction_images(rows, where):
    if not isinstance(rows, (list, tuple)):
        raise ParseError("expected an array of points at %s" % where)
    points = []
    for i, row in enumerate(rows):
        place = "%s[%d]" % (where, i)
        if not isinstance(row, (list, tuple)):
            raise ParseError("expected an array at %s" % place)
        points.append(TorusElement([
            fraction_parse_rational(v, "%s[%d]" % (place, j))
            for j, v in enumerate(row)]))
    return tuple(points)


def fraction_parse_datum(obj, signature=None, where="datum"):
    """(signature, dim, modulus, free, torsion) of a JSON datum, read
    into ``TorusElement`` points and checked with torus arithmetic; the
    modulus is the lcm of the coordinate denominators and cone orders.
    Raises what ``serialize.parse_datum`` raises, with its messages."""
    if not isinstance(obj, dict):
        raise ParseError("expected an object at %s" % where)
    if signature is None:
        signature = parse_signature(obj.get("signature"), where + ".signature")
    dim = obj.get("dim")
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise ParseError("dim must be a positive integer at %s" % where)
    if "free" not in obj or "torsion" not in obj:
        raise ParseError("missing free/torsion arrays at %s" % where)
    free = _fraction_images(obj["free"], where + ".free")
    torsion = _fraction_images(obj["torsion"], where + ".torsion")
    if len(free) != 2 * signature.genus:
        raise ValueError("expected %d free images, got %d"
                         % (2 * signature.genus, len(free)))
    if len(torsion) != signature.num_cone_points:
        raise ValueError("expected %d torsion images, got %d"
                         % (signature.num_cone_points, len(torsion)))
    dims = {t.dim for t in free + torsion}
    if len(dims) > 1:
        raise ValueError("mixed torus dimensions in images")
    if dims and dims != {dim}:
        raise ValueError("images do not live in a %d-torus" % dim)
    bad = [k for k, (t, o) in enumerate(zip(torsion, signature.orders))
           if element_order(t) != o]
    if bad:
        raise OrderViolation(bad)
    if torsion:
        total = TorusElement.zero(dim)
        for t in torsion:
            total = total + t
        if not total.is_zero():
            raise SumViolation("torsion images sum to %r, not zero"
                               % (total,))
    denominators = [q.denominator for t in free + torsion for q in t.coords]
    modulus = lcm(*(denominators + list(signature.orders) + [1]))
    return signature, dim, modulus, free, torsion


def _fraction_primitive(dx, dy):
    """Primitive integer vector in the direction of the rational (dx, dy)."""
    scale = lcm(dx.denominator, dy.denominator)
    ix, iy = int(dx * scale), int(dy * scale)
    g = gcd(ix, iy)
    return ix // g, iy // g


def _cross(u, v):
    return u[0] * v[1] - u[1] * v[0]


def _angle_increases(u, v):
    """Does v lie strictly counterclockwise of u, within one turn?"""
    hu, hv = [0 if (w[1] > 0 or (w[1] == 0 and w[0] > 0)) else 1
              for w in (u, v)]
    if hu != hv:
        return hu < hv
    return _cross(u, v) > 0


def fraction_validate_delzant(pts):
    """``validate_delzant`` on vertices given as Fraction pairs: convex,
    one full turn, and smooth at every vertex, a clockwise list checked
    in reverse."""
    n = len(pts)
    edges = []
    for i in range(n):
        p, q = pts[i], pts[(i + 1) % n]
        if p == q:
            return False
        edges.append(_fraction_primitive(q[0] - p[0], q[1] - p[1]))
    crosses = [_cross(edges[i], edges[(i + 1) % n]) for i in range(n)]
    if any(c == 0 for c in crosses):
        return False
    if any(c < 0 for c in crosses):
        if all(c < 0 for c in crosses):
            return fraction_validate_delzant(tuple(reversed(pts)))
        return False
    wraps = sum(
        0 if _angle_increases(edges[i], edges[(i + 1) % n]) else 1
        for i in range(n))
    if wraps != 1:
        return False
    for i in range(n):
        incoming = edges[(i - 1) % n]
        outgoing = edges[i]
        back = (-incoming[0], -incoming[1])
        if abs(_cross(outgoing, back)) != 1:
            return False
    return True


def _centered(pts):
    n = len(pts)
    cx = sum(p[0] for p in pts) / n
    cy = sum(p[1] for p in pts) / n
    return sorted([(p[0] - cx, p[1] - cy) for p in pts])


def fraction_same_polygon(pts1, pts2):
    """Are two vertex lists (Fraction pairs) translates of each other?
    Compared with their centroids moved to the origin."""
    return _centered(pts1) == _centered(pts2)


def fraction_validate_cocycle(ing):
    """Is det(f1, f2) * c_value integral?"""
    f1, f2 = ing.basis_column(0), ing.basis_column(1)
    det = _cross(f1, f2)
    return all((det * c).denominator == 1 for c in ing.c_value)


def _fraction_coords(ing, vec):
    f1, f2 = ing.basis_column(0), ing.basis_column(1)
    det = _cross(f1, f2)
    m = _cross(vec, f2) / det
    k = _cross(f1, vec) / det
    if m.denominator != 1 or k.denominator != 1:
        return None
    return int(m), int(k)


def fraction_same_lattice(ing1, ing2):
    """Do the lists span the same lattice, by Cramer's rule in
    Fractions?"""
    return all(
        _fraction_coords(a, b.basis_column(j)) is not None
        for a, b in ((ing1, ing2), (ing2, ing1)) for j in (0, 1))


def fraction_extend_tau(ing, m, k):
    """tau(m f1 + k f2) = m tau1 + k tau2 - (m k / 2) c(f2, f1), in
    torus points."""
    tau1, tau2 = ing.tau
    f1, f2 = ing.basis_column(0), ing.basis_column(1)
    twist = _cross(f2, f1) * Fraction(m * k, 2)
    c = ing.c_value
    return m * tau1 + k * tau2 - TorusElement((twist * c[0], twist * c[1]))


def fraction_tau_at(ing, vec):
    """The holonomy at a lattice vector of ``ing`` (Fraction pair)."""
    coords = _fraction_coords(ing, vec)
    assert coords is not None, "vector is not in the lattice"
    return fraction_extend_tau(ing, *coords)


def fraction_holonomies_agree(ing1, ing2):
    """``holonomies_agree`` in Fractions: with c = 0, is
    <delta_2, f1> - <delta_1, f2> in g*Z, g the rational gcd of the
    basis coordinates?"""
    if any(ing1.c_value):
        return True
    f1, f2 = ing1.basis_column(0), ing1.basis_column(1)
    delta1, delta2 = ((fraction_tau_at(ing2, f) - t).coords
                      for f, t in zip((f1, f2), ing1.tau))
    antisym = (delta2[0] * f1[0] + delta2[1] * f1[1]
               - delta1[0] * f2[0] - delta1[1] * f2[1])
    values = f1 + f2
    scale = lcm(*(q.denominator for q in values))
    g = Fraction(gcd(*(q.numerator * (scale // q.denominator)
                       for q in values)), scale)
    return antisym % g == 0


def _vec2(values):
    x, y = values
    return (as_fraction(x), as_fraction(y))


def _dot(u, v):
    return u[0] * v[0] + u[1] * v[1]


def _half(vec):
    return (vec[0] / 2, vec[1] / 2)


@frozen
class NilElement:
    """Element (t, zeta) of the two-step nilpotent group on T x t*."""

    t: TorusElement
    zeta: tuple

    def __post_init__(self):
        if self.t.dim != 2:
            raise ValueError("torus part must be 2-dimensional")
        object.__setattr__(self, "zeta", _vec2(self.zeta))


def cocycle(c_value, zeta, zeta2):
    """Value of the antisymmetric map: det(zeta, zeta2) * c_value."""
    d = _cross(_vec2(zeta), _vec2(zeta2))
    return (d * c_value[0], d * c_value[1])


def group_law(x, y, c_value):
    """(t, z) * (t', z') = (t + t' - c(z, z')/2, z + z')."""
    c_half = _half(cocycle(c_value, x.zeta, y.zeta))
    t = x.t + y.t - TorusElement(c_half)
    zeta = (x.zeta[0] + y.zeta[0], x.zeta[1] + y.zeta[1])
    return NilElement(t, zeta)


def iota(ing, m, k):
    """Lattice embedding z -> (tau(z)^-1, z) into the nilpotent group,
    read from ``lagrangian.iota_numerators``."""
    t, zeta = iota_numerators(ing, m, k)
    return NilElement(TorusElement(fractions_of(t)), fractions_of(zeta))


def model_form_eval(db, dpb):
    """The flat model form: dzeta(d't) - d'zeta(dt).

    Arguments are tangent vectors (dt, dzeta) with dt in the Lie algebra
    and dzeta in its dual, each a rational pair.
    """
    dt, dzeta = _vec2(db[0]), _vec2(db[1])
    dtp, dzetap = _vec2(dpb[0]), _vec2(dpb[1])
    return _dot(dzeta, dtp) - _dot(dzetap, dt)
