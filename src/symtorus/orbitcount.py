"""Invariants and sizes of the Sp-orbits of free images in T/H.

Free images f(a_1), f(b_1), ..., f(a_g), f(b_g) in A = T[N]/H, with H the
subgroup the torsion images generate, span a subgroup K of A and define
w = sum_i f(a_i) ^ f(b_i) in the second exterior power of K. By Edmonds'
classification of abelian surface symmetries (A. L. Edmonds, "Surface
symmetry I", Michigan Math. J. 29, 1982), K and w classify the Sp-orbits
of such tuples. ``Span`` computes them, in coordinates fixed by K alone.
It is also the one model of A itself: the Hermite basis of H's preimage
lattice gives every element of A a unique box representative, the
lex-least point of its coset in T[N], and lists H as a product. Both
that basis and K's come from ``_hermite``, which works modulo N, so
no entry grows past N; K's is H's with the free images folded in.
``Span.frame`` gives K, w and K's coordinates at once, those from the
Smith reduction ``_smith``, also modulo N. When K has rank at most 2,
``count`` gives the number of tuples in K^2g that span K and have
invariant w, the size of the orbit in A^2g, with no
enumeration: by P. Hall's Moebius inversion over the subgroups L
between pK and K ("The Eulerian functions of a group", 1936), each
term the number of tuples in L^2g with invariant w, one sum over the
characters of the exterior square whose terms are Ramanujan sums.
``orbitleast`` builds the orbit's least tuple from the same frame,
which ``monodromy.Orbit`` computes once and keeps.
"""

from math import gcd, prod


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


class Span:
    """The invariants of free images in A = T[N]/H, H = <torsion images>.

    A = Z^d / L_H, with L_H spanned by the torsion numerators and N Z^d,
    and ``basis`` is the Hermite basis B of L_H (see ``_hermite``). Since
    B is lower triangular, each coset of L_H has exactly one point x with
    0 <= x_t < B[t][t] for every t, its box representative (``least``),
    which is also its lex-least point in [0, N)^d (H. Cohen, "A Course
    in Computational Algebraic Number Theory", GTM 138, 1993, 2.4).

    The free images span K = L_K / L_H, with L_K spanned by their
    numerators and the columns of B; K is kept as the Hermite basis B'
    of L_K, the numerators folded into B, which depends only on K. The
    columns of B, written in the basis B', are the relations R of K =
    Z^d / R Z^d, and x -> B'^-1 x gives the coordinates of K. As N kills
    K, the Smith form of R mod N (``_smith``), a function of K alone,
    gives K = Z/k_1 x ... x Z/k_d (k_1 | k_2 | ...) in the coordinates
    U B'^-1 x, at every d. When at most the last two k are above 1,
    K = Z/m x Z/n with (m, n) = (k_(d-1), k_d), its second exterior
    power is Z/m by the determinant of those two coordinates, and w is
    the sum of the determinants of the pairs (a_i, b_i) mod m. ``order``
    is |H|.
    """

    __slots__ = ("order", "basis", "_modulus")

    def __init__(self, torsion, modulus, dim):
        self._modulus = modulus
        self.basis = _hermite(torsion, modulus, [
            [modulus * (r == c) for c in range(dim)] for r in range(dim)])
        self.order = modulus ** dim // prod(
            row[r] for r, row in enumerate(self.basis))

    def least(self, x):
        """The box representative of x + L_H: coordinate t reduced into
        [0, B[t][t]) by column t of B, carrying into the later ones."""
        x = list(x)
        for t, row in enumerate(self.basis):
            q = x[t] // row[t]
            if q:
                for i in range(t, len(x)):
                    x[i] -= q * self.basis[i][t]
        return tuple(x)

    def subgroup(self):
        """The elements of H = L_H / N Z^d, each once: the sums of s_c
        times column c of B mod N, 0 <= s_c < N / B[c][c]. There are
        ``order`` of them."""
        n = self._modulus
        elements = [(0,) * len(self.basis)]
        for c, column in enumerate(zip(*self.basis)):
            elements = [tuple([(a + s * b) % n for a, b in zip(x, column)])
                        for x in elements for s in range(n // column[c])]
        return elements

    def frame(self, free):
        """(K, (m, n, w, rows)) of free images, or (K, None) when K has
        rank above 2: K as its Hermite basis B', K = Z/m x Z/n with m | n
        its last two invariant factors, w, and the last two rows of the
        Smith transform U of R (one for d = 1), those coordinates of K on
        B'^-1 x. Over one ``Span`` the rows depend on K alone, so two
        (K, frame) pairs are equal iff their K and w are."""
        span = _hermite(free, self._modulus, self.basis)
        relations = [_coordinates(span, col) for col in zip(*self.basis)]
        factors, u = _smith(zip(*relations), self._modulus)
        if sum(k > 1 for k in factors) > 2:
            return span, None
        m, n = ((1,) + factors)[-2:]
        rows = tuple([tuple(row) for row in u[-2:]])
        return span, (m, n, _omega(rows, span, free, m), rows)


# Below this bound the first 13 prime bases decide Miller-Rabin exactly
# (J. Sorenson and J. Webster, "Strong pseudoprimes to twelve prime
# bases", Math. Comp. 86, 2017).
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MILLER_RABIN_BOUND = 3317044064679887385961981
_TRIAL_BOUND = 1 << 16


def _is_prime(n):
    """Is n (> 41) prime, decided exactly? False also when n is too
    large for the fixed bases to decide."""
    if n >= _MILLER_RABIN_BOUND:
        return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _PRIME_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _prime_powers(n):
    """[(p, e), ...] with n the product of the p^e: trial division below
    2^16, then the cofactor must be prime. None when it cannot be shown
    prime. The cofactor is tested before the division starts and after
    each factor is found, so a prime cofactor ends it at once."""
    out, p = [], 2
    prime = n > _PRIME_BASES[-1] and _is_prime(n)
    while not prime and p < _TRIAL_BOUND and p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n, e = n // p, e + 1
            out.append((p, e))
            prime = n > _PRIME_BASES[-1] and _is_prime(n)
        p += 1 if p == 2 else 2
    if n > 1:
        if not prime and n >= _TRIAL_BOUND ** 2 and not _is_prime(n):
            return None
        out.append((n, 1))
    return out


def _valuation(x, p, top):
    """The p-adic valuation of x, at most ``top`` (x = 0 gives top)."""
    v = 0
    while v < top and x % p == 0:
        x, v = x // p, v + 1
    return v


def _ramanujan(p, a, v):
    """[(j, c_j), ...] with c_j the sum of beta(omega)^-1 over the
    characters beta of Z/p^a of order q = p^(a-j), for omega of
    valuation v: Ramanujan's sum c_q(omega), 1 for j = a, q - q/p when
    a - j <= v, -q/p when a - j - 1 = v, and 0 (left out) otherwise."""
    sums = [(a, 1)]
    for j in range(max(a - v - 1, 0), a):
        q = p ** (a - j)
        sums.append((j, q - q // p if a - j <= v else -(q // p)))
    return sums


def count(m, n, omega, genus):
    """The number of tuples in K^2g, K = Z/m x Z/n with m | n, that span
    K and have invariant ``omega`` in Z/m; None when n cannot be
    factored.

    A product over the primes p of n, with K_p = Z/p^a x Z/p^b. By
    Moebius inversion over the subgroups L with pK_p <= L <= K_p, it is
    the sum over L of mu(L) times the number of tuples in L^2g with
    invariant omega. With K_p/L of rank k out of r = rank K_p, mu =
    (-1)^k p^(k(k-1)/2) for each of the Gaussian binomial [r, k]_p such
    L. By the orthogonality of the characters beta of the exterior
    square Z/p^a, the number of tuples in L^2g is

        p^-a sum_beta beta(omega)^-1 (|L| |rad(beta|L)|)^g,

    since the pairs in L^2 sum beta(x ^ y) to |L| |rad(beta|L)|, the x
    in L with beta(x ^ y) = 1 for all y in L. On a basis of L, |L| =
    p^(a+b-k) and x ^ y = p^k det(s, s') up to a unit, with s, s' the
    coordinates of x, y, so for beta of order p^(a-j) the radical is
    the x with s = 0 mod p^e, e = max(a - j - k, 0), and |rad| = |L|
    p^-2e. Over the beta of each order, beta(omega)^-1 sums to the
    Ramanujan sum of ``_ramanujan``.
    """
    primes = _prime_powers(n)
    if primes is None:
        return None
    total = 1
    for p, b in primes:
        a = _valuation(m, p, b)
        sums = _ramanujan(p, a, _valuation(omega, p, a))
        layers = ((1, 0), (-(p + 1), 1), (p, 2)) if a else ((1, 0), (-1, 1))
        at_p = 0
        for coefficient, k in layers:
            at_p += coefficient * sum(
                c * p ** (2 * genus * (a + b - k - max(a - j - k, 0)))
                for j, c in sums)
        total *= at_p // p ** a
    return total


def _det(u, v):
    return u[0] * v[1] - u[1] * v[0]


def _apply(rows, sigma):
    """The coordinates of K of an element with coordinates sigma."""
    return tuple([sum(r * s for r, s in zip(row, sigma)) for row in rows])


def _omega(rows, span, free, m):
    """w = sum_i det(a_i, b_i) mod m, in the coordinates the rows give
    on the coordinates of the free images in the basis ``span``."""
    if m == 1:
        return 0
    images = [_apply(rows, _coordinates(span, x)) for x in free]
    return sum(map(_det, images[::2], images[1::2])) % m

