"""Exact integer matrices: quotient factors, symplectic group, inverses.

All arithmetic is on Python ints, so pivoting never overflows. Matrices
are immutable; the reduction routines work on private row lists and wrap
the results at the end.
"""

from math import gcd

from symtorus.orbitcount import _xgcd


class IntMatrix:
    """Immutable rectangular matrix with integer entries."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        rows = tuple([tuple(row) for row in entries])
        if not rows or not rows[0]:
            raise ValueError("matrix must be nonempty")
        width = len(rows[0])
        for row in rows:
            if len(row) != width:
                raise ValueError("ragged rows")
            for x in row:
                if not isinstance(x, int):
                    raise TypeError("entries must be ints, got %r" % (x,))
        self.entries = rows

    @classmethod
    def identity(cls, n):
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, rows, cols):
        return cls([[0] * cols for _ in range(rows)])

    @property
    def rows(self):
        return len(self.entries)

    @property
    def cols(self):
        return len(self.entries[0])

    def transpose(self):
        return IntMatrix(zip(*self.entries))

    def __mul__(self, other):
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError("shape mismatch: %dx%d * %dx%d"
                             % (self.rows, self.cols, other.rows, other.cols))
        bt = list(zip(*other.entries))
        return IntMatrix(
            [[sum(a * b for a, b in zip(row, col)) for col in bt]
             for row in self.entries])

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def __eq__(self, other):
        return isinstance(other, IntMatrix) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return "IntMatrix(%r)" % (list(list(r) for r in self.entries),)


def quotient_factors(m, modulus):
    """Invariant factors >= 2 of Z^r / (m*Z^c + modulus*Z^r).

    The classic pivot-shrinking Smith reduction, run modulo
    N = ``modulus``, which must be a multiple of the quotient's exponent
    for the answer to be that of m's cokernel. Unimodular row operations
    keep N*Z^r inside the lattice, so every entry is reduced into
    (-N/2, N/2] after each operation and never grows. Rows are sparse
    dicts with a column-to-rows index, so an operation costs the
    nonzeros it touches; pivots are not moved, only retired with their
    row and column, and no transforms are kept. A finished pivot p
    stands for Z/gcd(p, N), and a row left without a pivot for Z/N.
    """
    if modulus < 1:
        raise ValueError("modulus must be at least 1")
    n, half = modulus, modulus // 2
    rows = [{} for _ in range(m.rows)]
    cols = [set() for _ in range(m.cols)]

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

    for i, row in enumerate(m.entries):
        for j, x in enumerate(row):
            if x:
                put(i, j, x)

    live = set(range(m.rows))
    factors = []
    while True:
        piv = min(((abs(x), i, j) for i in live for j, x in rows[i].items()),
                  default=None)
        if piv is None:
            break
        _, r, c = piv
        while True:
            p = rows[r][c]
            if p < 0:
                for j, x in list(rows[r].items()):
                    put(r, j, -x)
                p = rows[r][c]
            i = next((i for i in cols[c] if i != r and rows[i][c] % p), None)
            if i is not None:
                row_add(i, r, -(rows[i][c] // p))
                r = i
                continue
            for i in [i for i in cols[c] if i != r]:
                row_add(i, r, -(rows[i][c] // p))
            j = next((j for j, x in rows[r].items() if j != c and x % p),
                     None)
            if j is not None:
                put(r, j, rows[r][j] % p)  # col j -= q * col c
                c = j
                continue
            for j in [j for j in rows[r] if j != c]:
                put(r, j, 0)
            bad = None if p == 1 else next(
                (i for i in live if i != r
                 and any(x % p for x in rows[i].values())), None)
            if bad is None:
                break
            row_add(r, bad, 1)
        live.discard(r)
        cols[c].clear()
        rows[r].clear()
        g = gcd(p, n)
        if g > 1:
            factors.append(g)
    if n > 1:
        factors.extend([n] * len(live))
    return tuple(factors)


def j_form(g):
    """Block-diagonal intersection form: g copies of [[0, 1], [-1, 0]]."""
    n = 2 * g
    rows = [[0] * n for _ in range(n)]
    for k in range(g):
        rows[2 * k][2 * k + 1] = 1
        rows[2 * k + 1][2 * k] = -1
    return IntMatrix(rows)


def is_symplectic_matrix(a, g):
    """Does a * J * a^t = J hold for the 2g-dimensional intersection form?"""
    if a.rows != 2 * g or a.cols != 2 * g:
        raise ValueError("expected a %dx%d matrix, got %dx%d"
                         % (2 * g, 2 * g, a.rows, a.cols))
    j = j_form(g)
    return a * j * a.transpose() == j


def elementary_symplectic(i, j, g):
    """The ij-th elementary symplectic matrix, 1-based indices.

    With s the involution of {1,...,2g} swapping 2k-1 and 2k, this is
    I + E_ij when i = s(j), and I + E_ij - (-1)^(i+j) E_{s(j)s(i)}
    otherwise; the correction index order s(j), s(i) is what makes every
    output satisfy the J identity. These matrices generate the integer
    symplectic group.
    """
    n = 2 * g
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValueError("indices out of range for g=%d" % g)
    if i == j:
        raise ValueError("indices must differ")

    def s(k):
        return k + 1 if k % 2 == 1 else k - 1

    rows = [[1 if r == c else 0 for c in range(n)] for r in range(n)]
    rows[i - 1][j - 1] += 1
    if i != s(j):
        rows[s(j) - 1][s(i) - 1] -= (-1) ** (i + j)
    return IntMatrix(rows)


def int_inverse(m):
    """Exact inverse of an integer matrix that is invertible over Z.

    Unimodular row steps on [m | I], an extended gcd clearing each entry
    below a pivot; a pivot of +-1 is made 1 and clears its column above.
    m is singular when a pivot ends at 0, and invertible over Z exactly
    when every pivot ends at 1, with [I | m^-1] left.
    """
    if m.rows != m.cols:
        raise ValueError("matrix must be square")
    n = m.rows
    a = [list(row) + [int(r == c) for c in range(n)]
         for r, row in enumerate(m.entries)]
    for t in range(n):
        for i in range(t + 1, n):
            if a[i][t]:
                g, s, v = _xgcd(a[t][t], a[i][t])
                p, x = a[t][t] // g, a[i][t] // g
                a[t], a[i] = ([s * y + v * z for y, z in zip(a[t], a[i])],
                              [p * z - x * y for y, z in zip(a[t], a[i])])
        sign = a[t][t]
        if abs(sign) == 1:
            a[t] = [sign * y for y in a[t]]
            for i in range(t):
                q = a[i][t]
                a[i] = [y - q * z for y, z in zip(a[i], a[t])]
    diagonal = {a[t][t] for t in range(n)}
    if 0 in diagonal:
        raise ValueError("matrix is singular")
    if diagonal != {1}:
        raise ValueError("matrix is not invertible over the integers")
    return IntMatrix([row[n:] for row in a])
