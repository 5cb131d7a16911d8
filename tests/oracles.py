"""Slow integer routes kept only as oracles: the column echelon over
unbounded integers, rational lattice membership, the invariant factors
of a Smith form, and the abelianization of a presentation by exponent
sums. No verb uses them; the tests check the fast routes against them.
"""

from fractions import Fraction
from math import lcm

from symtorus.errors import ValidationError
from symtorus.intmat import IntMatrix, smith_normal_form


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
