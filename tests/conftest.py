"""Shared helpers: random valid data, random group words, oracles."""

import random
from fractions import Fraction
from math import gcd

from hypothesis import strategies as st

from oracles import cocycle, column_echelon
from symtorus.intmat import IntMatrix
from symtorus.lagrangian import LagrangianFreeIngredients, extend_tau
from symtorus.monodromy import group_generators, validate_datum
from symtorus.orbitcount import _prime_powers as factor, _valuation
from symtorus.orbisurface import FuchsianSignature
from symtorus.torus import TorusElement


def half_point(rng, dim=2, nonzero=False):
    """Random point with coordinates in {0, 1/2}."""
    while True:
        t = TorusElement([Fraction(rng.randint(0, 1), 2) for _ in range(dim)])
        if not nonzero or not t.is_zero():
            return t


def random_valid_datum(rng, dim=2):
    """Random valid datum with g <= 1, n in {0, 2, 3}, denominators | 2."""
    genus = rng.choice([0, 1])
    n = rng.choice([0, 2, 3] if genus else [2, 3])
    sig = FuchsianSignature(genus, (2,) * n)
    free = tuple(half_point(rng, dim) for _ in range(2 * genus))
    if n == 0:
        torsion = ()
    elif n == 2:
        c1 = half_point(rng, dim, nonzero=True)
        torsion = (c1, c1)
    else:
        while True:
            c1 = half_point(rng, dim, nonzero=True)
            c2 = half_point(rng, dim, nonzero=True)
            c3 = -(c1 + c2)
            if not c3.is_zero():
                break
        torsion = (c1, c2, c3)
    return validate_datum(sig, free, torsion, dim)


def random_geom_word(sig, rng, max_len=6):
    """Random product of generators and inverses, as one group element."""
    gens = group_generators(sig)
    if not gens:
        return None
    word = None
    for _ in range(rng.randint(1, max_len)):
        factor = rng.choice(gens)
        if rng.random() < 0.5:
            factor = factor.inverse()
        word = factor if word is None else word * factor
    return word


def mulclose_mod(mats, modulus, cap=200000):
    """Multiplicative closure of a set of square matrices mod N (oracle)."""
    size = len(mats[0])

    def mul(a, b):
        return tuple(
            tuple(sum(a[i][k] * b[k][j] for k in range(size)) % modulus
                  for j in range(size))
            for i in range(size)
        )

    normalized = [tuple(tuple(x % modulus for x in row) for row in m)
                  for m in mats]
    group = set(normalized)
    frontier = list(group)
    while frontier:
        fresh = []
        for a in frontier:
            for b in normalized:
                c = mul(a, b)
                if c not in group:
                    group.add(c)
                    fresh.append(c)
                    if len(group) > cap:
                        raise RuntimeError("closure oracle exceeded cap")
        frontier = fresh
    return group


def dense_action_tables(sig, modulus):
    """Oracle tables: each generator and its inverse as the dense matrix
    of x -> x o b mod N, from ``group_generators``, duplicates dropped."""
    tables = []
    for gen in group_generators(sig):
        for b in (gen, gen.inverse()):
            tables.append(tuple(tuple(x % modulus for x in row)
                                for row in b.matrix.transpose().entries))
    return list(dict.fromkeys(tables))


def apply_table(mat, state, m, d, modulus):
    """Dense action of a table: y[j*d+t] = sum_i mat[j][i] x[i*d+t]."""
    out = []
    for j in range(m):
        for t in range(d):
            out.append(
                sum(mat[j][i] * state[i * d + t] for i in range(m)) % modulus
            )
    return tuple(out)


def decode_state(state, modulus, m, d):
    """Oracle decode: m torus points whose coordinates are the state's
    ints over the modulus."""
    return tuple(
        TorusElement([Fraction(state[i * d + t], modulus) for t in range(d)])
        for i in range(m))


def encode_over(datum, modulus):
    """Integer numerators over ``modulus`` of every coordinate."""
    return tuple(int(q * modulus) for t in datum.entries for q in t.coords)


def state_closure_oracle(datum, modulus, cap):
    """Oracle orbit by BFS over states under the dense generator tables
    and their inverses, decoded; None when it has more than ``cap``
    states. Each table is applied as ``apply_table`` does, skipping its
    zero coefficients."""
    sig = datum.signature
    m, d = 2 * sig.genus + sig.num_cone_points, datum.dim
    tables = [[[(i, c) for i, c in enumerate(row) if c] for row in table]
              for table in dense_action_tables(sig, modulus)]
    seen = {encode_over(datum, modulus)}
    frontier = list(seen)
    while frontier:
        fresh = []
        for state in frontier:
            for table in tables:
                nxt = tuple(sum(c * state[i * d + t] for i, c in row)
                            % modulus for row in table for t in range(d))
                if nxt not in seen:
                    seen.add(nxt)
                    fresh.append(nxt)
        if len(seen) > cap:
            return None
        frontier = fresh
    return {decode_state(s, modulus, m, d) for s in seen}


def stepwise_tau(ing, m, k):
    """Oracle holonomy on m*f1 + k*f2, built up one lattice step at a time.

    Each step uses tau(z + z') = tau(z') + tau(z) - c(z', z)/2 with z'
    one of +-f1, +-f2; tau(-f) = -tau(f) follows from the relation.
    """
    f1 = ing.basis_column(0)
    f2 = ing.basis_column(1)
    tau1, tau2 = ing.tau
    current = TorusElement.zero(2)
    pos = (Fraction(0), Fraction(0))
    for direction, tau_value, count in ((f1, tau1, m), (f2, tau2, k)):
        sign = 1 if count > 0 else -1
        stepvec = (sign * direction[0], sign * direction[1])
        tau_step = tau_value if sign > 0 else -tau_value
        for _ in range(abs(count)):
            correction = cocycle(ing.c_value, stepvec, pos)
            current = tau_step + current - TorusElement(
                (correction[0] / 2, correction[1] / 2))
            pos = (pos[0] + stepvec[0], pos[1] + stepvec[1])
    return current


def seeded(seed):
    return random.Random(seed)


def closure_mod(torsion, modulus, dim):
    """The points of (Z/N)^d the torsion numerators generate, by BFS."""
    group = {(0,) * dim}
    frontier = list(group)
    while frontier:
        fresh = []
        for x in frontier:
            for t in torsion:
                y = tuple((a + b) % modulus for a, b in zip(x, t))
                if y not in group:
                    group.add(y)
                    fresh.append(y)
        frontier = fresh
    return group


def hermite_oracle(vectors, modulus, dim):
    """Oracle Hermite basis of the lattice the vectors and N Z^d span,
    in ``orbitcount._hermite``'s layout, over unbounded integers: the
    vectors stacked on N I, echelonned by ``oracles.column_echelon``,
    then each entry left of the diagonal reduced by the diagonal's
    column."""
    columns = list(vectors) + [tuple([modulus * (r == c)
                                      for r in range(dim)])
                               for c in range(dim)]
    h, _ = column_echelon(IntMatrix(zip(*columns)))
    rows = [row[:dim] for row in h]
    for r in range(dim):
        for c in range(r):
            q = rows[r][c] // rows[r][r]
            if q:
                for i in range(r, dim):
                    rows[i][c] -= q * rows[i][r]
    return tuple([tuple(row) for row in rows])


def _det_count(p, j, w):
    """The 2x2 matrices over Z/p^j whose determinant is one given value
    of valuation w (w = j: zero). A first column of valuation u < j
    (p^(2(j-u)) - p^(2(j-u-1)) of them) takes each multiple of p^u as
    determinant with p^(j+u) second columns; the zero column gives 0
    with all p^(2j)."""
    total = p ** (2 * j) if w == j else 0
    for u in range(min(w + 1, j)):
        total += (p ** (2 * (j - u)) - p ** (2 * (j - u - 1))) * p ** (j + u)
    return total


def _pairings(p, a, k, e):
    """How often x ^ y, over all pairs in L^2, takes each value of
    valuation v = 0..a in the exterior square Z/p^a of K_p, for L of
    order p^e and index p^k in K_p.

    Written on a basis of L, x ^ y = p^k det(s, s') up to a unit, with
    s, s' the coordinates of x, y; the value only depends on the
    coordinates mod p^(a-k), and those are uniform. The counts only
    depend on the valuation, since multiplying x by an integer prime to
    p is a bijection of L.
    """
    counts = [0] * (a + 1)
    if k >= a:
        counts[a] = p ** (2 * e)
        return counts
    j = a - k
    scale = p ** (2 * e - 4 * j)
    for w in range(j + 1):
        counts[k + w] = scale * _det_count(p, j, w)
    return counts


def _convolve(x, y, p, a):
    """Counts of sums, by valuation, of two value counts in Z/p^a.

    For a sum z of valuation v: summands of valuations v1 < v2 give
    v = v1, in |U_v2| ways (U_v: the elements of valuation v); summands
    of equal valuation w < a give v > w in |U_w| ways, and v = w in
    p^(a-w-1) (p-2) ways, avoiding the one unit class mod p that
    cancels.
    """
    def units(v):
        return 1 if v == a else p ** (a - v) - p ** (a - v - 1)

    out = [0] * (a + 1)
    for v1, c1 in enumerate(x):
        for v2, c2 in enumerate(y):
            c = c1 * c2
            if not c:
                continue
            if v1 != v2:
                out[min(v1, v2)] += c * units(max(v1, v2))
            elif v1 == a:
                out[a] += c
            else:
                out[v1] += c * p ** (a - v1 - 1) * (p - 2)
                for v in range(v1 + 1, a + 1):
                    out[v] += c * units(v1)
    return out


def count_oracle(m, n, omega, genus):
    """Oracle ``orbitcount.count``, by a g-fold convolution: the number
    of tuples in K^2g, K = Z/m x Z/n with m | n, that span K and have
    invariant ``omega`` in Z/m; None when n cannot be factored.

    A product over the primes p of n, with K_p = Z/p^a x Z/p^b. By
    Moebius inversion over the subgroups L with pK_p <= L <= K_p, it is
    the sum over L of mu(L) times the number of tuples in L^2g with
    invariant omega, the g-fold convolution of the pairing counts on
    L^2. With K_p/L of rank k out of r = rank K_p, mu = (-1)^k
    p^(k(k-1)/2) for each of the Gaussian binomial [r, k]_p such L; the
    pairing counts depend only on k and |L|.
    """
    primes = factor(n)
    if primes is None:
        return None
    total = 1
    for p, b in primes:
        a = _valuation(m, p, b)
        w = _valuation(omega, p, a)
        if a:
            layers = ((1, 0), (-(p + 1), 1), (p, 2))
        else:
            layers = ((1, 0), (-1, 1))
        at_p = 0
        for coefficient, k in layers:
            pairs = _pairings(p, a, k, a + b - k)
            power = [0] * a + [1]
            for _ in range(genus):
                power = _convolve(power, pairs, p, a)
            at_p += coefficient * power[w]
        total *= at_p
    return total


def enumerated_counts(m, n, genus):
    """{w: the tuples in K^2g, K = Z/m x Z/n with m | n, that generate K
    and have sum_i det(a_i, b_i) = w mod m}, by listing K^2g depth
    first. A tuple generates K iff its vectors, (m, 0) and (0, n) span
    Z^2, that is iff the gcd of their 2x2 minors is 1; once a prefix
    has gcd 1, every extension does."""
    elements = [(x, y) for x in range(m) for y in range(n)]
    counts = {}

    def walk(prefix, minors, w):
        if len(prefix) == 2 * genus:
            if minors == 1:
                counts[w % m] = counts.get(w % m, 0) + 1
            return
        for v in elements:
            g = minors if minors == 1 else gcd(
                minors, v[1] * m, v[0] * n,
                *[u[0] * v[1] - u[1] * v[0] for u in prefix])
            if len(prefix) % 2:
                a = prefix[-1]
                walk(prefix + [v], g, w + a[0] * v[1] - a[1] * v[0])
            else:
                walk(prefix + [v], g, w)

    walk([], m * n, 0)
    return counts


def _prime_powers(n):
    """The prime powers p^e exactly dividing n, by trial division."""
    out = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 1) * p
            n //= p
        p += 1
    if n > 1:
        out[n] = n
    return out


def torsion_oracle(orders):
    """Invariant factors of (+) Z/o_k modulo the diagonal, prime by prime.

    In the p-part (+) Z/p^e_k the diagonal spans a cyclic summand of the
    largest order p^e_max, and x -> (x_k - x_max)_k maps onto the other
    summands with exactly that kernel, so the quotient drops one largest
    p-power. The i-th factor from the top is the product over the primes
    of their i-th largest remaining power.
    """
    columns = {}
    for o in orders:
        for p, q in _prime_powers(o).items():
            columns.setdefault(p, []).append(q)
    columns = [sorted(col, reverse=True)[1:] for col in columns.values()]
    width = max(map(len, columns), default=0)
    factors = []
    for i in range(width):
        f = 1
        for col in columns:
            if i < len(col):
                f *= col[i]
        factors.append(f)
    return factors[::-1]


def _sympy_basis(ing):
    from sympy import Matrix, Rational

    return Matrix(2, 2, [Rational(q.numerator, q.denominator)
                         for row in ing.p_basis for q in row])


def lagrangian_oracle(ing1, ing2):
    """The three case-3 invariants of two ingredient lists, compared by
    rational elimination in sympy: (same lattice, same cocycle, and,
    when both hold, equivalent holonomy; else None).

    The lattices agree when the change of basis both ways is integral.
    For the holonomy, delta(f_j) = tau2(f_j) - tau1(f_j) on the basis
    columns of the first list is lifted to Q^4 and projected, together
    with Z^4, onto Q^4/A by the nullspace of the spanning rows of A
    (the contractions z -> c(z, e_i) and the symmetric maps on P). The
    lift lies in A + Z^4 iff its projection is in the integer span of
    the projected unit vectors, read off a Smith decomposition.
    """
    from sympy import Matrix, Rational, ZZ, ilcm
    from sympy.matrices.normalforms import smith_normal_decomp

    b1, b2 = _sympy_basis(ing1), _sympy_basis(ing2)
    lattice = all(x.is_integer for x in list(b1.inv() * b2)
                  + list(b2.inv() * b1))
    cocycle_match = ing1.c_value == ing2.c_value
    if not (lattice and cocycle_match):
        return lattice, cocycle_match, None
    delta = []
    for j in (0, 1):
        m, k = b2.inv() * b1[:, j]
        diff = extend_tau(ing2, int(m), int(k)) - ing1.tau[j]
        delta += [Rational(q.numerator, q.denominator) for q in diff.coords]
    f1, f2 = ing1.basis_column(0), ing1.basis_column(1)
    rows = [cocycle(ing1.c_value, f1, e) + cocycle(ing1.c_value, f2, e)
            for e in ((1, 0), (0, 1))]
    for sym in (((1, 0), (0, 0)), ((0, 0), (0, 1)), ((0, 1), (1, 0))):
        rows.append(tuple(sym[i][0] * f[0] + sym[i][1] * f[1]
                          for f in (f1, f2) for i in (0, 1)))
    rows = Matrix([[Rational(q.numerator, q.denominator) for q in row]
                   for row in rows])
    quotient = rows.nullspace()
    if not quotient:
        return True, True, True
    project = Matrix.hstack(*quotient).T
    target = project * Matrix(delta)
    scale = ilcm(*[x.q for x in list(project) + list(target)])
    smith, u, _ = smith_normal_decomp(project * scale, domain=ZZ)
    image = u * (target * scale)
    holonomy = all(image[i] % smith[i, i] == 0
                   for i in range(len(quotient)))
    return True, True, holonomy


def _matmul(a, b):
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in (0, 1)) for j in (0, 1))
                 for i in (0, 1))


def _det(b):
    return b[0][0] * b[1][1] - b[0][1] * b[1][0]


@st.composite
def unimodular(draw, shears):
    """A 2x2 integer matrix of determinant +-1: up to four shears
    [[1, K], [0, 1]] and [[1, 0], [K, 1]] with K from ``shears``, then
    perhaps a swap of the columns and a sign."""
    u = ((1, 0), (0, 1))
    for _ in range(draw(st.integers(0, 4))):
        k = draw(shears)
        u = _matmul(u, draw(st.sampled_from([((1, k), (0, 1)),
                                             ((1, 0), (k, 1))])))
    for extra in (((0, 1), (1, 0)), ((-1, 0), (0, 1))):
        if draw(st.booleans()):
            u = _matmul(u, extra)
    return u


@st.composite
def lagrangian_pairs(draw, entries, shears):
    """Two ingredient lists, the first with a cocycle integral on its
    lattice, zero or not. The second has the first's lattice in a
    unimodular basis change, a sublattice of it, or a random lattice;
    the first's cocycle or another; and the first's holonomy carried to
    its basis and then kept, shifted by a symmetric map, or shifted at
    random (on a random lattice: a random holonomy). The pair comes in
    either order."""
    def basis():
        return draw(st.tuples(st.tuples(entries, entries),
                              st.tuples(entries, entries)).filter(_det))

    def cocycle_on(b):
        if not draw(st.booleans()):
            return (0, 0)
        return tuple(Fraction(draw(st.integers(-3, 3)), _det(b))
                     for _ in (0, 1))

    def torus():
        return TorusElement((draw(entries), draw(entries)))

    basis1 = basis()
    c1 = cocycle_on(basis1)
    ing1 = LagrangianFreeIngredients(basis1, c1, (torus(), torus()))
    relation = draw(st.sampled_from(
        ["change"] * 4 + ["sublattice", "random"]))
    if relation == "random":
        basis2, tau2 = basis(), (torus(), torus())
    else:
        change = draw(unimodular(shears))
        if relation == "sublattice":
            index = draw(st.sampled_from([-3, -2, 2, 3]))
            change = _matmul(change, draw(st.sampled_from(
                [((index, 0), (0, 1)), ((1, 0), (0, index))])))
        basis2 = _matmul(basis1, change)
        shift = draw(st.sampled_from(["none", "symmetric", "random"]))
        a, b, c = draw(entries), draw(entries), draw(entries)
        tau2 = []
        for j in (0, 1):
            t = extend_tau(ing1, change[0][j], change[1][j])
            x, y = basis2[0][j], basis2[1][j]
            if shift == "symmetric":  # the map [[a, b], [b, c]] on f'_j
                t += TorusElement((a * x + b * y, b * x + c * y))
            elif shift == "random":
                t += torus()
            tau2.append(t)
    c2 = cocycle_on(basis2) if draw(st.integers(0, 3)) == 0 else c1
    ing2 = LagrangianFreeIngredients(basis2, c2, tuple(tau2))
    return (ing2, ing1) if draw(st.booleans()) else (ing1, ing2)
