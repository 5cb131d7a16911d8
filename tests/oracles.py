"""Slow routes kept only as oracles: the column echelon over unbounded
integers, rational lattice membership, the dense integer Smith form
with its transforms and its invariant factors, the abelianization of a
presentation by exponent sums, factoring by trial division alone, and
the parse of a monodromy datum through ``Fraction`` torus points. No
verb uses them; the tests check the fast routes against them.
"""

import sys
from fractions import Fraction
from math import lcm

from symtorus.errors import (
    OrderViolation,
    ParseError,
    SumViolation,
    ValidationError,
)
from symtorus.intmat import IntMatrix
from symtorus.orbitcount import _TRIAL_BOUND, _is_prime
from symtorus.serialize import parse_signature
from symtorus.torus import TorusElement, element_order


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
