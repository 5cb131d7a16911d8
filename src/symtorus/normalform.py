"""Hermite and Smith normal forms modulo N.

Every lattice here contains N Z^d, so each normal form is computed with
its entries reduced modulo N (after P. D. Domich, R. Kannan and L. E.
Trotter, Math. Oper. Res. 12, 1987), and no entry grows past N.
``_hermite`` serves ``orbitcount.Span``. ``_smith`` is the one Smith
reduction: with its transform for ``Span.frame``, and without it for
``intmat.quotient_factors``, the torsion of the orbifold homology.
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


def _smith(matrix, modulus, transform=True):
    """(factors, u): the invariant factors k_1 | ... | k_r of Z^r / (R Z^c
    + N Z^r), R the integer ``matrix`` by rows, and, when ``transform``
    (else u is None), the rows of a U, unimodular mod N with entries in
    [0, N), whose x -> U x maps it onto Z/k_1 x ... x Z/k_r.

    The pivot-shrinking reduction, run modulo N: unimodular row steps
    keep N Z^r inside the lattice, so every entry is kept in (-N/2, N/2]
    and never grows. Rows are sparse dicts with a column-to-rows index,
    so a step costs the nonzeros it touches, and each row step is taken
    in U's rows too. The least entry p, its row negated to make it
    positive, is the pivot. An entry of its column that p does not
    divide is reduced by p's row and becomes the pivot; so does one of
    its row, reduced by a column step, which U does not keep. Else p
    clears its column and row, and while it fails to divide a live row,
    that row is added to p's. Then p is retired with its row and column,
    and stands for Z/gcd(p, N), which divides every later one; a row
    left without a pivot stands for Z/N.
    """
    n, half = modulus, modulus // 2
    matrix = list(matrix)  # read twice; ``Span.frame`` passes a zip
    rows = [{} for _ in matrix]
    cols = [set() for _ in range(max(map(len, matrix), default=0))]

    def put(i, j, x):  # entry (i, j) = x, reduced
        x %= n
        if x:
            rows[i][j] = x - n if x > half else x
            cols[j].add(i)
        elif j in rows[i]:
            del rows[i][j]
            cols[j].discard(i)

    def row_add(i, t, k):  # row i += k * row t
        ri = rows[i]
        for j, y in rows[t].items():
            put(i, j, ri.get(j, 0) + k * y)

    for i, row in enumerate(matrix):
        for j, x in enumerate(row):
            if x:
                put(i, j, x)
    r = range(len(rows))
    u = None
    if transform:
        u, step = [[0] * len(r) for _ in r], row_add
        for i in r:
            u[i][i] = 1 % n

        def row_add(i, t, k):  # and in U, kept apart so homology skips it
            step(i, t, k)
            u[i] = [(x + k * y) % n for x, y in zip(u[i], u[t])]
    live = set(r)
    factors, order = [], []
    while live:
        piv = min(((abs(x), i, j) for i in live for j, x in rows[i].items()),
                  default=None)
        if piv is None:
            break
        _, t, c = piv
        while True:
            p = rows[t][c]
            if p < 0:
                row_add(t, t, -2)  # row t = -row t: no entry becomes 0
                p = -p
            i = None if p == 1 else next(
                (i for i in cols[c] if i != t and rows[i][c] % p), None)
            if i is not None:
                row_add(i, t, -(rows[i][c] // p))
                t = i
                continue
            for i in [i for i in cols[c] if i != t]:
                row_add(i, t, -(rows[i][c] // p))
            j = None if p == 1 else next(
                (j for j, x in rows[t].items() if j != c and x % p), None)
            if j is not None:
                put(t, j, rows[t][j] % p)  # col j -= q * col c
                c = j
                continue
            for j in [j for j in rows[t] if j != c]:
                put(t, j, 0)
            bad = None if p == 1 else next(
                (i for i in live if i != t
                 and any(x % p for x in rows[i].values())), None)
            if bad is None:
                break
            row_add(t, bad, 1)
        live.discard(t)
        cols[c].clear()
        rows[t].clear()
        factors.append(gcd(p, n))
        order.append(t)
    order += sorted(live)
    factors += [n] * len(live)
    return tuple(factors), u and [u[t] for t in order]


def _coordinates(basis, x):
    """The integer s with basis . s = x, for x in the lattice of a
    ``_hermite`` basis, by forward substitution."""
    s = []
    for r, row in enumerate(basis):
        s.append((x[r] - sum(row[c] * s[c] for c in range(r))) // row[r])
    return s
