"""Monodromy tuples and their orbit invariants.

A monodromy datum for signature (g; o_1..o_n) and a d-torus is a tuple
of 2g free images (on a symplectic basis of a maximal free subgroup of
the first orbifold homology) followed by n torsion images (on the cone
loop classes). The images of the cone loops must have order exactly o_k
and sum to zero, since o_k g_k = 0 and sum g_k = 0 in homology.

The block lower-triangular group acting on such tuples has a symplectic
upper block, an arbitrary integer lower-left block, and an order
preserving permutation in the lower right; it is exactly the group of
isomorphisms induced by orbifold diffeomorphisms. Two data describe the
same manifold iff they lie in the same orbit.

Every coordinate of an orbit lies in T[N] = (1/N)Z^d / Z^d for the
state modulus N, the lcm of the image orders, and a datum is stored as
N and the integer numerators of its images over N (``symtorus.datum``;
``MonodromyDatum``, ``validate_datum`` and ``torsion_monodromy_trivial``
are importable from here too, and ``DEFAULT_MAX_STATES`` from
``errors``), on which the orbit is computed.
The orbit of (f, t) is the product

    (Sp.f + H^2g) x Perm.t,    H = <torsion images>,

since the lower-left block adds any element of H to each free image
and the permutations only rearrange t inside runs of equal consecutive
orders. So the torsion factor is kept as its sorted runs, and the free
images only matter through their projection to A = T[N]/H.

The Sp-orbits of 2g-tuples in A are classified by the subgroup K the
tuple spans and w = sum_i f(a_i) ^ f(b_i) in the second exterior power
of K (``orbitcount``). Whenever K has rank at most 2, which always holds
for d <= 2, ``orbit`` answers length and membership and ``equivalent``
answers from (runs, |H|, K, w): the orbit size is the number of
arrangements times |H|^2g times ``orbitcount.count(K, w)``, the number
of tuples in K^2g that span K and have invariant w.

The canonical form is the least state, each free image its box
representative against the Hermite basis of H's preimage lattice
(``orbitcount.Span``), the least point of its coset, followed by the
sorted runs. While K has rank at most 2 that state is built from (K, w)
one box coordinate at a time (``orbitleast.least_tuple``), so its
cost does not grow with the orbit.

The quotient orbit itself is closed only for iteration, and when K has
rank above 2 or its order cannot be factored: by breadth-first search
over the box representatives of the free images in A under the 2g+1
twists of Humphries' generators (``orbitset._twists``). ``Orbit``
(``symtorus.orbitset``) is a read-only set view of the product that
decodes states into torus points only as they are iterated, and encodes
torus points only to answer ``in``.
"""

from symtorus._frozen import frozen
from symtorus.datum import (
    MonodromyDatum,
    torsion_monodromy_trivial,
    validate_datum,
)
from symtorus.errors import DEFAULT_MAX_STATES
from symtorus.intmat import (
    IntMatrix,
    elementary_symplectic,
    int_inverse,
    is_symplectic_matrix,
)
from symtorus.orbisurface import FuchsianSignature
from symtorus.orbitset import Orbit
from symtorus.torus import TorusElement


@frozen
class GeomMatrix:
    """Element of the geometric matrix group of a signature."""

    matrix: IntMatrix
    signature: FuchsianSignature

    def __post_init__(self):
        if not is_geometric_matrix(self.matrix, self.signature):
            raise ValueError("matrix is not geometric for %s" % (self.signature,))

    def __mul__(self, other):
        if self.signature != other.signature:
            raise ValueError("signature mismatch")
        return GeomMatrix(self.matrix * other.matrix, self.signature)

    def inverse(self):
        return GeomMatrix(int_inverse(self.matrix), self.signature)


def is_geometric_matrix(b, sig):
    """Membership test for the block lower-triangular group.

    Upper-right block zero, upper-left in the integer symplectic group,
    lower-right a permutation matrix preserving the order tuple.
    """
    g, n = sig.genus, sig.num_cone_points
    m = 2 * g + n
    if b.rows != m or b.cols != m:
        raise ValueError("expected a %dx%d matrix, got %dx%d"
                         % (m, m, b.rows, b.cols))
    for i in range(2 * g):
        for j in range(2 * g, m):
            if b[i, j] != 0:
                return False
    if g > 0:
        a_block = IntMatrix([row[: 2 * g] for row in b.entries[: 2 * g]])
        if not is_symplectic_matrix(a_block, g):
            return False
    for i in range(n):
        row = b.entries[2 * g + i][2 * g:]
        if sum(1 for x in row if x == 1) != 1 or any(x not in (0, 1) for x in row):
            return False
    for j in range(n):
        col = [b[2 * g + i, 2 * g + j] for i in range(n)]
        if sum(col) != 1:
            return False
    for i in range(n):
        permuted = sum(b[2 * g + i, 2 * g + j] * sig.orders[j] for j in range(n))
        if permuted != sig.orders[i]:
            return False
    return True


def _embed_sp(a, sig):
    """diag(a, identity) as a geometric matrix."""
    g, n = sig.genus, sig.num_cone_points
    m = 2 * g + n
    rows = [[0] * m for _ in range(m)]
    for i in range(2 * g):
        for j in range(2 * g):
            rows[i][j] = a[i, j]
    for k in range(n):
        rows[2 * g + k][2 * g + k] = 1
    return GeomMatrix(IntMatrix(rows), sig)


def group_generators(sig):
    """Generators of the geometric matrix group.

    Elementary symplectic embeddings, the unit lower-left matrices, and
    adjacent transpositions inside each run of equal orders. Any group
    element factors through these three block types, so together with
    their inverses they generate the whole group.
    """
    g, n = sig.genus, sig.num_cone_points
    m = 2 * g + n
    gens = []
    for i in range(1, 2 * g + 1):
        for j in range(1, 2 * g + 1):
            if i != j:
                gens.append(_embed_sp(elementary_symplectic(i, j, g), sig))
    for k in range(n):
        for j in range(2 * g):
            rows = [[1 if r == c else 0 for c in range(m)] for r in range(m)]
            rows[2 * g + k][j] = 1
            gens.append(GeomMatrix(IntMatrix(rows), sig))
    for k in range(n - 1):
        if sig.orders[k] == sig.orders[k + 1]:
            rows = [[1 if r == c else 0 for c in range(m)] for r in range(m)]
            a, b = 2 * g + k, 2 * g + k + 1
            rows[a][a] = rows[b][b] = 0
            rows[a][b] = rows[b][a] = 1
            gens.append(GeomMatrix(IntMatrix(rows), sig))
    return gens


def act(b, datum):
    """Image of the datum under a geometric matrix.

    The tuple is a homomorphism x from Z^(2g+n) to the torus; the matrix
    sends x to x o b^-1, i.e. entry j becomes sum_i (b^-1)[i][j] * x_i.
    """
    if b.signature != datum.signature:
        raise ValueError("matrix signature does not match datum")
    binv = int_inverse(b.matrix)
    entries = datum.entries
    m = len(entries)
    dim = datum.dim
    new = []
    for j in range(m):
        total = TorusElement.zero(dim)
        for i in range(m):
            k = binv[i, j]
            if k:
                total = total + k * entries[i]
        new.append(total)
    g2 = 2 * datum.signature.genus
    return validate_datum(datum.signature, new[:g2], new[g2:], dim)


def orbit(datum, max_states=DEFAULT_MAX_STATES):
    """The orbit of the datum, as a product of its torsion arrangements
    and the preimage of the Sp-orbit of its free images in T/H.

    ``OrbitSizeExceeded`` is raised by this call, exactly when the orbit
    has more than ``max_states`` states. While K has rank at most 2 the
    size is counted and the error carries it; otherwise the quotient
    orbit is closed here, under the cap (see ``Orbit._closed``).
    """
    view = Orbit(datum, max_states)
    view._measure()
    return view


def orbit_size(datum, max_states=DEFAULT_MAX_STATES):
    """The number of points in the orbit, exact also beyond
    ``sys.maxsize``, where ``len`` of the view cannot report it."""
    return orbit(datum, max_states)._size


def comparison(d1, d2, max_states=DEFAULT_MAX_STATES):
    """Do the two data lie in the same orbit, and which invariants
    agree: (matches, verdict).

    The verdict is False when the signatures, dimensions or state moduli
    differ (for equal signatures the modulus is the lcm of the cone
    orders and the exponent of the subgroup the entries generate), or
    when the sorted torsion runs, the span K or the invariant w differ:
    the group preserves each of these. When they all agree the data are
    equivalent, and ``OrbitSizeExceeded`` is raised exactly when the
    orbit has more than ``max_states`` states. When K has rank above 2,
    d2 is looked up in the closed orbit of d1.

    ``matches`` holds "k_match" once the runs agree, and "omega_match"
    once K agrees and has rank at most 2, read off the keys the verdict
    compares.
    """
    matches = {}
    if (d1.signature != d2.signature or d1.dim != d2.dim
            or d1.modulus != d2.modulus):
        return matches, False
    view = Orbit(d1, max_states)
    key = view._invariants(d2.numerators)
    if len(key) > 1:
        matches["k_match"] = key[1] == view._key[1]
        if matches["k_match"] and key[2] is not None:
            matches["omega_match"] = key[2] == view._key[2]
    if key != view._key:
        return matches, False
    view._measure()
    return matches, (view._key[2] is not None
                     or view._in_closure(d2.numerators))


def equivalent(d1, d2, max_states=DEFAULT_MAX_STATES):
    """Do the two data lie in the same orbit? The verdict of
    ``comparison``."""
    return comparison(d1, d2, max_states)[1]


def canonical_datum(datum, max_states=DEFAULT_MAX_STATES):
    """The datum of the lexicographically least tuple in the orbit,
    over the same modulus.

    While K has rank at most 2 and its order factors, the least free
    images are built from (K, w), each value tried counting against
    ``max_states`` (``orbitleast.least_tuple``), whatever the size
    of the orbit. Otherwise the quotient orbit is closed under the cap,
    as in ``Orbit._closed``. All orbit entries share one denominator, so
    comparing the integer states coordinatewise agrees with comparing
    rationals; the free and torsion factors are independent, so each is
    least on its own.
    """
    view = Orbit(datum, max_states)
    return MonodromyDatum(datum.signature, datum.dim, datum.modulus,
                          tuple(view._least()))


def canonical_form(datum, max_states=DEFAULT_MAX_STATES):
    """Lexicographically least tuple in the orbit, as torus points (see
    ``canonical_datum``)."""
    return canonical_datum(datum, max_states).entries

