"""Orbisurfaces: signatures, fundamental group presentations, homology.

A compact connected orientable orbisurface is classified by its genus
together with the nondecreasing list of cone point orders. Its first
orbifold homology is Z^2g plus the finite group generated by the cone
loop classes g_k with relations o_k*g_k = 0 and sum g_k = 0.
"""

from math import lcm

from symtorus._frozen import frozen


@frozen
class FuchsianSignature:
    """Genus plus sorted cone orders; a complete orbisurface invariant."""

    genus: int
    orders: tuple

    def __post_init__(self):
        if self.genus < 0:
            raise ValueError("genus must be nonnegative")
        object.__setattr__(self, "orders", tuple(self.orders))
        for o in self.orders:
            if not isinstance(o, int) or o < 2:
                raise ValueError("cone orders must be integers >= 2")
        if list(self.orders) != sorted(self.orders):
            raise ValueError("cone orders must be nondecreasing")

    @property
    def num_cone_points(self):
        return len(self.orders)


def normalize_signature(genus, raw_orders):
    """Sort the orders and drop 1s (an order-1 cone point is regular)."""
    orders = []
    for o in raw_orders:
        if not isinstance(o, int) or o <= 0:
            raise ValueError("cone orders must be positive integers, got %r" % (o,))
        if o > 1:
            orders.append(o)
    return FuchsianSignature(genus, tuple(sorted(orders)))


def is_good(sig):
    """Everything is good except (0; o) and (0; o1, o2) with o1 != o2."""
    if sig.genus > 0:
        return True
    n = sig.num_cone_points
    if n == 1:
        return False
    if n == 2 and sig.orders[0] != sig.orders[1]:
        return False
    return True


@frozen
class Presentation:
    """Finite presentation: generator names plus relator words.

    A word is a tuple of (generator name, exponent) pairs.
    """

    generators: tuple
    relators: tuple

    def __post_init__(self):
        names = set(self.generators)
        for word in self.relators:
            for name, _ in word:
                if name not in names:
                    raise ValueError("relator uses unknown generator %r" % name)


def _commutator(x, y):
    return ((x, 1), (y, 1), (x, -1), (y, -1))


def _inverse_word(word):
    return tuple([(name, -exp) for name, exp in reversed(word)])


def orbifold_presentation(sig):
    """Standard presentation: handle pairs a_i, b_i and cone loops g_k.

    Relators: (g_1...g_n) * (prod [a_i, b_i])^-1 and g_k^(o_k).
    """
    g, n = sig.genus, sig.num_cone_points
    handles = []
    for i in range(1, g + 1):
        handles.extend(("a%d" % i, "b%d" % i))
    cones = ["g%d" % k for k in range(1, n + 1)]
    generators = tuple(handles + cones)

    relators = []
    if generators:
        main = tuple([(c, 1) for c in cones])
        comms = ()
        for i in range(1, g + 1):
            comms += _commutator("a%d" % i, "b%d" % i)
        relators.append(main + _inverse_word(comms))
    for k, o in enumerate(sig.orders, start=1):
        relators.append((("g%d" % k, o),))
    return Presentation(generators, tuple(relators))


@frozen
class FinAbGroup:
    """Finitely generated abelian group, torsion in invariant-factor form."""

    free_rank: int
    factors: tuple

    def __post_init__(self):
        for i, d in enumerate(self.factors):
            if d < 2:
                raise ValueError("invariant factors must be >= 2")
            if i and self.factors[i] % self.factors[i - 1]:
                raise ValueError("factors must form a divisibility chain")


def _cone_relations(sig):
    """The relations of the cone loop classes, one column each: o_k*e_k,
    and (1,...,1). The torsion of the homology is their cokernel. Row k
    is o_k*e_k followed by a 1, built one row at a time."""
    from symtorus.intmat import IntMatrix

    n = sig.num_cone_points
    return IntMatrix([0] * k + [o] + [0] * (n - k - 1) + [1]
                     for k, o in enumerate(sig.orders))


def first_orbifold_homology(sig):
    """Abelianization of the orbifold fundamental group.

    Free rank 2g; the torsion subgroup is Z^n modulo the rows o_k*e_k
    and (1,...,1). Its factors are reduced modulo N = lcm(o_k), which
    the group's exponent divides since N*e_k = (N/o_k)*o_k*e_k, so no
    entry grows past N.
    """
    if not sig.orders:
        return FinAbGroup(2 * sig.genus, ())
    from symtorus.intmat import quotient_factors

    factors = quotient_factors(_cone_relations(sig), lcm(*sig.orders))
    return FinAbGroup(2 * sig.genus, factors)
