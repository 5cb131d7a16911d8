"""Shared helpers: random valid data, random group words, oracles."""

import random
from fractions import Fraction

from symtorus.lagrangian import cocycle
from symtorus.monodromy import group_generators, validate_datum
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
