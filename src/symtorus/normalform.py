"""Hermite and Smith normal forms modulo N, for ``orbitcount.Span``.

Every lattice here contains N Z^d, so each normal form is computed with
its entries reduced modulo N (after P. D. Domich, R. Kannan and L. E.
Trotter, Math. Oper. Res. 12, 1987), and no entry grows past N.
"""

from math import gcd


def _xgcd(a, b):
    """(g, s, t) with s a + t b = g = gcd(a, b)."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b, s0, s1, t0, t1 = b, r, s1, s0 - q * s1, t1, t0 - q * t1
    if a < 0:
        return -a, -s0, -t0
    return a, s0, t0


def _hermite(vectors, modulus, basis):
    """The Hermite basis of the lattice in Z^d that the integer vectors
    and the lattice of ``basis`` span, as the rows of a lower-triangular
    matrix whose columns are the basis: positive diagonal, and each
    entry left of the diagonal in [0, diagonal). It depends only on the
    lattice. ``basis`` is such a matrix, and its lattice contains N Z^d
    (N I for the lattice N Z^d itself).

    Built modulo N (P. D. Domich, R. Kannan and L. E. Trotter, Math.
    Oper. Res. 12, 1987; H. Cohen, GTM 138, 2.4.2): each vector is
    folded into the columns of ``basis`` row by row, an extended gcd at
    row t making column t's diagonal the gcd of the two and clearing
    the vector's entry. Each N e_i lies in the span of the untouched
    columns i, i+1, ..., so the entries below row t are kept mod N, and
    every diagonal divides N."""
    rows = [list(row) for row in basis]
    dim = len(rows)
    for vector in vectors:
        v = [x % modulus for x in vector]
        for t in range(dim):
            x = v[t]
            if not x:
                continue
            g, s, u = _xgcd(rows[t][t], x)
            p, q = rows[t][t] // g, x // g
            rows[t][t] = g
            for i in range(t + 1, dim):
                h = rows[i][t]
                rows[i][t] = (s * h + u * v[i]) % modulus
                v[i] = (p * v[i] - q * h) % modulus
    for r in range(dim):
        for c in range(r):
            q = rows[r][c] // rows[r][r]
            if q:
                for i in range(r, dim):
                    rows[i][c] -= q * rows[i][r]
    return tuple([tuple(row) for row in rows])


def _clear(t, modulus, a, *more):
    """Clear column t of ``a`` below its nonzero pivot by steps on pairs
    of rows mod N, also taken in ``more``: a subtraction when the pivot
    divides the entry, else an extended gcd, which leaves the gcd there."""
    for i in range(t + 1, len(a)):
        p, x = a[t][t], a[i][t]
        if x:
            g, s, v = (p, 1, 0) if x % p == 0 else _xgcd(p, x)
            p, x = p // g, x // g
            for rows in (a,) + more:
                top, low = rows[t], rows[i]
                rows[t] = [(s * y + v * z) % modulus for y, z in zip(top, low)]
                rows[i] = [(p * z - x * y) % modulus for y, z in zip(top, low)]


def _smith(matrix, modulus):
    """(factors, u): the invariant factors k_1 | ... | k_d of Z^d / (R Z^d
    + N Z^d), R the square integer ``matrix`` by rows, and the rows of a
    U, unimodular mod N, whose x -> U x maps it onto Z/k_1 x ... x Z/k_d.

    The pivot-shrinking reduction of ``intmat.quotient_factors``, every
    entry in [0, N). A zero pivot trades places with the block's first
    nonzero entry (none: the rest is Z/N). Row steps, kept in U, clear
    the pivot's column and the transpose's, not kept, its row (``_clear``:
    a gcd step on an entry the pivot divides would swap rows forever).
    Then a pivot p stands for gcd(p, N); while that fails to divide a
    later entry, the entry's row is added to the pivot row."""
    n = modulus
    a = [[x % n for x in row] for row in matrix]
    dim = len(a)
    u = [[(r == c) % n for c in range(dim)] for r in range(dim)]
    for t in range(dim - 1):
        if not a[t][t]:
            i, j = next(((i, j) for i in range(t, dim) for j in range(t, dim)
                         if a[i][j]), (t, None))
            if j is None:
                break
            a[t], a[i], u[t], u[i] = a[i], a[t], u[i], u[t]
            for row in a:
                row[t], row[j] = row[j], row[t]
        while True:
            _clear(t, n, a, u)
            if any(a[t][t + 1:]):
                a = [list(column) for column in zip(*a)]
                _clear(t, n, a)
                a = [list(column) for column in zip(*a)]
                continue
            k = gcd(a[t][t], n)
            bad = k > 1 and next((i for i in range(t + 1, dim)
                                  if any(y % k for y in a[i][t + 1:])), 0)
            if not bad:
                break
            for rows in a, u:
                rows[t] = [(y + z) % n for y, z in zip(rows[t], rows[bad])]
    return tuple([gcd(a[t][t], n) for t in range(dim)]), u


def _coordinates(basis, x):
    """The integer s with basis . s = x, for x in the lattice of a
    ``_hermite`` basis, by forward substitution."""
    s = []
    for r, row in enumerate(basis):
        s.append((x[r] - sum(row[c] * s[c] for c in range(r))) // row[r])
    return s
