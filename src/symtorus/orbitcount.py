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
that basis and K's come from ``normalform._hermite``, modulo N, so
no entry grows past N; K's is H's with the free images folded in.
``Span.frame`` gives K, w and K's coordinates at once, those from the
row transform of the one Smith reduction ``normalform._smith``, also
modulo N (``homology`` runs it without the transform). When K has
rank at most 2, ``count`` gives the number of tuples in K^2g that span
K and have invariant w, the size of the orbit in A^2g, with no
enumeration: by P. Hall's Moebius inversion over the subgroups L
between pK and K ("The Eulerian functions of a group", 1936), each
term the number of tuples in L^2g with invariant w, one sum over the
characters of the exterior square whose terms are Ramanujan sums.
``orbitleast`` builds the orbit's least tuple from the same frame,
which ``orbitset.Orbit`` computes once and keeps.
"""

from functools import cache
from math import gcd, prod

from symtorus.normalform import _coordinates, _hermite, _smith


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

    __slots__ = ("order", "basis", "_modulus", "_steps")

    def __init__(self, torsion, modulus, dim):
        self._modulus = modulus
        self.basis = basis = _hermite(torsion, modulus, [
            [modulus * (r == c) for c in range(dim)] for r in range(dim)])
        self.order = modulus ** dim // prod(
            row[r] for r, row in enumerate(basis))
        # Column t of B as (t, B[t][t], its nonzero entries below).
        self._steps = tuple([(t, basis[t][t], tuple([
            (i, basis[i][t]) for i in range(t + 1, dim) if basis[i][t]]))
            for t in range(dim)])

    def least(self, x):
        """The box representative of x + L_H: coordinate t reduced into
        [0, B[t][t]) by column t of B, carrying into the later ones."""
        x = list(x)
        for t, pivot, below in self._steps:
            q = x[t] // pivot
            if q:
                x[t] -= q * pivot
                for i, b in below:
                    x[i] -= q * b
        return tuple(x)

    def orbit_bound(self, free):
        """A lower bound on the size of the Sp-orbit of free images in A:
        the largest ceil(ord_T(f) / |H|). Powers of the twist about a_k
        move f(b_k) to f(b_k) + j f(a_k), distinct in A for j below
        ord_A(f(a_k)), and so does the twist about b_k with a_k; as
        ord_T(f) divides ord_A(f) times the order of an element of H,
        ord_A(f) >= ord_T(f) / |H|. Needs no factoring."""
        n, h = self._modulus, self.order
        return max([(n // gcd(n, *f) + h - 1) // h for f in free],
                   default=1)

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


@cache
def _odd_sieve():
    """sieve[i] == 1 iff 2i + 1 is prime, for 2i + 1 below 2^16, built
    by slice assignments alone."""
    sieve = bytearray([1]) * (_TRIAL_BOUND // 2)
    sieve[0] = 0
    for i in range(1, 128):
        if sieve[i]:
            p = 2 * i + 1
            sieve[p * p // 2::p] = bytes(len(range(p * p // 2,
                                                   _TRIAL_BOUND // 2, p)))
    return sieve


def _trial_primes():
    """The primes below 2^16 in order, each found by a scan of the sieve
    for its next 1: 6,542 candidates in place of 32,768 odd numbers."""
    yield 2
    sieve = _odd_sieve()
    i = sieve.find(1)
    while i >= 0:
        yield 2 * i + 1
        i = sieve.find(1, i + 1)


def _prime_powers(n):
    """[(p, e), ...] with n the product of the p^e: trial division by the
    primes below 2^16, then the cofactor must be prime. None when it
    cannot be shown prime. The cofactor is tested before the division
    starts and after each factor is found, so a prime cofactor ends it
    at once."""
    out = []
    prime = n > _PRIME_BASES[-1] and _is_prime(n)
    for p in _trial_primes():
        if prime or p * p > n:
            break
        if n % p == 0:
            e = 0
            while n % p == 0:
                n, e = n // p, e + 1
            out.append((p, e))
            prime = n > _PRIME_BASES[-1] and _is_prime(n)
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

