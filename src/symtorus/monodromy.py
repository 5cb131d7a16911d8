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
same manifold iff they lie in the same orbit, decided here by explicit
breadth-first closure over a finite state space. The closure keeps each
state as packed ints, and ``orbit`` returns it as a read-only set view
that decodes states into torus points only as they are iterated.
"""

from collections.abc import Set
from fractions import Fraction
from math import lcm

from symtorus._frozen import frozen
from symtorus.errors import OrderViolation, SumViolation
from symtorus.intmat import (
    IntMatrix,
    elementary_symplectic,
    int_inverse,
    is_symplectic_matrix,
)
from symtorus.orbisurface import FuchsianSignature
from symtorus.torus import TorusElement, element_order
from symtorus import _orbitpy

DEFAULT_MAX_STATES = 10 ** 6


@frozen
class MonodromyDatum:
    """A monodromy tuple; building one checks the image counts and
    dimension, and the order and zero-sum constraints."""

    signature: FuchsianSignature
    dim: int
    free: tuple
    torsion: tuple

    def __post_init__(self):
        sig, free, torsion = self.signature, self.free, self.torsion
        if len(free) != 2 * sig.genus:
            raise ValueError("expected %d free images, got %d"
                             % (2 * sig.genus, len(free)))
        if len(torsion) != sig.num_cone_points:
            raise ValueError("expected %d torsion images, got %d"
                             % (sig.num_cone_points, len(torsion)))
        dims = {t.dim for t in free + torsion}
        if len(dims) > 1:
            raise ValueError("mixed torus dimensions in images")
        if dims and dims != {self.dim}:
            raise ValueError("images do not live in a %d-torus" % self.dim)
        bad = [k for k, (t, o) in enumerate(zip(torsion, sig.orders))
               if element_order(t) != o]
        if bad:
            raise OrderViolation(bad)
        if torsion:
            total = TorusElement.zero(self.dim)
            for t in torsion:
                total = total + t
            if not total.is_zero():
                raise SumViolation("torsion images sum to %r, not zero"
                                   % (total,))

    @property
    def entries(self):
        return self.free + self.torsion


def validate_datum(sig, free, torsion, dim=None):
    """Build a datum, which checks the order and zero-sum constraints.

    Without ``dim`` the torus dimension is read off the images.
    """
    free, torsion = tuple(free), tuple(torsion)
    if dim is None:
        if not free + torsion:
            raise ValueError("empty datum needs an explicit torus dimension")
        dim = (free + torsion)[0].dim
    return MonodromyDatum(sig, dim, free, torsion)


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


def _state_modulus(datum):
    denoms = [q.denominator for t in datum.entries for q in t.coords]
    return lcm(*(denoms + list(datum.signature.orders) + [1]))


def _encode(entries, modulus, dim):
    """Packed state of a tuple of torus points: each coordinate as its
    numerator over ``modulus``. None when the tuple has no such state:
    an entry that is not a ``TorusElement`` or not of dimension ``dim``,
    or a denominator that does not divide the modulus."""
    state = []
    for t in entries:
        if not isinstance(t, TorusElement) or t.dim != dim:
            return None
        for q in t.coords:
            if modulus % q.denominator:
                return None
            state.append(q.numerator * (modulus // q.denominator))
    return tuple(state)


def _action_tables(sig, modulus):
    """The generators of ``group_generators`` as sparse moves mod N.

    Each generator b acts on states by x -> x o b, i.e. entry j becomes
    sum_i b[i][j] * x_i. A move lists only the entries it changes, as
    rows ``(j, ((i, c), ...))`` meaning new x_j = sum c * x_i (mod N),
    built from the closed forms of the three generator types:

    - elementary symplectic (i, j): x_j += x_i, and when i != s(j) also
      x_s(i) += -(-1)^(i+j) x_s(j), with s swapping 2k and 2k+1;
    - unit lower-left (k, j): x_j += x_(2g+k);
    - equal-order transposition: swap two torsion entries.

    No inverses are needed: the moves permute the finite state set, so
    forward closure reaches the whole orbit.
    """
    g, orders = sig.genus, sig.orders
    m = 2 * g + len(orders)
    if modulus == 1 or m == 0:
        return []

    def add(*pairs):
        """Move for the transvections x_j += c x_i, given as (j, i, c)."""
        return tuple(sorted(
            (j, tuple(sorted(((j, 1), (i, c % modulus)))))
            for j, i, c in pairs))

    moves = []
    for i in range(2 * g):
        for j in range(2 * g):
            if i == j:
                continue
            if i == j ^ 1:
                moves.append(add((j, i, 1)))
            else:
                moves.append(add((j, i, 1),
                                 (i ^ 1, j ^ 1, -(-1) ** (i + j))))
    for k in range(len(orders)):
        for j in range(2 * g):
            moves.append(add((j, 2 * g + k, 1)))
    for k in range(len(orders) - 1):
        if orders[k] == orders[k + 1]:
            a, b = 2 * g + k, 2 * g + k + 1
            moves.append(((a, ((b, 1),)), (b, ((a, 1),))))
    return list(dict.fromkeys(moves))


class Orbit(Set):
    """Read-only set view of an orbit over the closure's packed states.

    Holds the frozenset of int states (see ``_encode``) with their
    modulus. The length is that of the frozenset, membership encodes the
    query once and looks it up, and iteration decodes one state at a
    time into a tuple of ``m`` torus points of dimension ``dim``.
    """

    __slots__ = ("_states", "_modulus", "_m", "_dim")

    def __init__(self, states, modulus, m, dim):
        self._states = states
        self._modulus = modulus
        self._m = m
        self._dim = dim

    @classmethod
    def _from_iterable(cls, iterable):
        """Results of ``&``, ``|``, ``-`` and ``^`` are plain sets."""
        return set(iterable)

    def __len__(self):
        return len(self._states)

    def __contains__(self, point):
        if not isinstance(point, tuple) or len(point) != self._m:
            return False
        state = _encode(point, self._modulus, self._dim)
        return state is not None and state in self._states

    def __iter__(self):
        return map(self._decode, self._states)

    def _decode(self, state):
        dim, modulus = self._dim, self._modulus
        return tuple(
            TorusElement(Fraction(x, modulus) for x in state[i:i + dim])
            for i in range(0, len(state), dim)
        )


def orbit(datum, max_states=DEFAULT_MAX_STATES):
    """The orbit of the datum, closed by BFS over packed int states.

    The closure runs here, so ``OrbitSizeExceeded`` is raised by this
    call; the returned ``Orbit`` decodes states only as it is iterated.
    """
    sig = datum.signature
    m = 2 * sig.genus + sig.num_cone_points
    modulus = _state_modulus(datum)
    start = _encode(datum.entries, modulus, datum.dim)
    moves = _action_tables(sig, modulus)
    if moves:
        states = _orbitpy.bfs_orbit(
            start, moves, m, datum.dim, modulus, max_states)
    else:
        states = frozenset([start])
    return Orbit(states, modulus, m, datum.dim)


def orbit_size(datum, max_states=DEFAULT_MAX_STATES):
    return len(orbit(datum, max_states))


def equivalent(d1, d2, max_states=DEFAULT_MAX_STATES):
    """Do the two data lie in the same orbit?

    Signature, dimension or state modulus mismatch yields False without
    a closure. For equal signatures the modulus is the lcm of the cone
    orders and the exponent of the subgroup the entries generate, and
    the group, acting by automorphisms, preserves that subgroup.
    """
    if (d1.signature != d2.signature or d1.dim != d2.dim
            or _state_modulus(d1) != _state_modulus(d2)):
        return False
    return d2.entries in orbit(d1, max_states)


def canonical_form(datum, max_states=DEFAULT_MAX_STATES):
    """Lexicographically least tuple in the orbit.

    All orbit entries share one denominator, so comparing the integer
    states coordinatewise agrees with comparing rationals.
    """
    view = orbit(datum, max_states)
    return view._decode(min(view._states))


def free_invariant(genus, free, max_states=DEFAULT_MAX_STATES):
    """Canonical form under the symplectic action alone (no cone points)."""
    sig = FuchsianSignature(genus, ())
    datum = validate_datum(sig, tuple(free), ())
    return canonical_form(datum, max_states)


def torsion_monodromy_trivial(datum):
    """True iff every cone loop image is the identity.

    Cone loop images of a valid datum have order exactly o_k >= 2, so
    this holds exactly when there are no cone points; then the manifold
    splits as (orbit space) x (torus).
    """
    return all(t.is_zero() for t in datum.torsion)
