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
``MonodromyDatum`` and ``validate_datum`` are importable from here too),
on which the orbit is computed.
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
twists of Humphries' generators (``_twists``). ``Orbit`` is a
read-only set view of the product that decodes states into torus
points only as they are iterated, and encodes torus points only to
answer ``in``.
"""

import sys
from collections import Counter
from collections.abc import Set
from itertools import groupby, permutations, product
from math import factorial, prod

from symtorus._frozen import frozen
from symtorus.datum import MonodromyDatum, points, validate_datum
from symtorus.errors import OrbitSizeExceeded
from symtorus.intmat import (
    IntMatrix,
    elementary_symplectic,
    int_inverse,
    is_symplectic_matrix,
)
from symtorus.orbisurface import FuchsianSignature
from symtorus.torus import TorusElement
from symtorus import orbitcount, orbitleast

DEFAULT_MAX_STATES = 10 ** 6


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


def _encode(entries, modulus, dim):
    """The images of a tuple of torus points as int tuples, each
    coordinate its numerator over ``modulus``. None when the tuple has
    no such encoding: an entry that is not a ``TorusElement`` or not of
    dimension ``dim``, or a denominator that does not divide the
    modulus."""
    images = []
    for t in entries:
        if not isinstance(t, TorusElement) or t.dim != dim:
            return None
        image = []
        for q in t.coords:
            if modulus % q.denominator:
                return None
            image.append(q.numerator * (modulus // q.denominator))
        images.append(tuple(image))
    return images


def _sorted_runs(torsion, orders):
    """The torsion entries cut into runs of equal consecutive orders,
    each run sorted: an orbit invariant, and the lex-least arrangement."""
    runs, start = [], 0
    for _, group in groupby(orders):
        stop = start + len(list(group))
        runs.append(tuple(sorted(torsion[start:stop])))
        start = stop
    return tuple(runs)


def _arrangements(run):
    """The number of distinct rearrangements of a run: a multinomial."""
    count = factorial(len(run))
    for k in Counter(run).values():
        count //= factorial(k)
    return count


def _twists(genus):
    """Humphries' generators of Sp(2g, Z), as (v, moved) for each twist.

    Free image i is the image of basis class e_i, with a_k = e_(2k) and
    b_k = e_(2k+1) and w(a_k, b_k) = 1. The Dehn twist about a curve of
    class v acts on homology by the transvection x -> x + w(v, x) v, so
    on the free images by f(e_i) -> f(e_i) + w(v, e_i) f(v). Humphries'
    2g+1 twists about b1, a1, b1 - b2, a2, ..., b_(g-1) - b_g, a_g and
    b2 generate the mapping class group, which maps onto Sp(2g, Z) (for
    g = 1, b1 and a1 generate SL(2, Z)). Each v is given as pairs
    (j, c) with v = sum c e_j, and ``moved`` holds a pair (i, w(v, e_i))
    for each image the twist changes: w(v, e_i) is nonzero only for
    i = j ^ 1, the partner of an index j of v, as w(a_k, b_k) = 1 and
    w(b_k, a_k) = -1. No index of v is moved, so f(v) is read before
    the move.

    No inverses are needed: the twists permute the finite orbit, so
    forward closure reaches all of it.
    """
    if not genus:
        return []
    curves = [((1, 1),), ((0, 1),)]
    for k in range(1, genus):
        curves += [((2 * k - 1, 1), (2 * k + 1, -1)), ((2 * k, 1),)]
    if genus > 1:
        curves.append(((3, 1),))
    return [(v, tuple([(j ^ 1, c if j % 2 == 0 else -c) for j, c in v]))
            for v in curves]


class Orbit(Set):
    """Read-only set view of an orbit, kept as a product of factors.

    The orbit of (f, t) is (Sp.f + H^2g) x Perm.t. The torsion factor,
    every rearrangement of t inside each run of equal consecutive
    orders, is held as its sorted runs. The free factor is the preimage
    in T[N]^2g of the quotient orbit, the Sp-orbit of the free images
    in A = T[N]/H, each image written as its box representative
    (``orbitcount.Span.least``), the least point of its coset.
    Membership compares the query's runs, K and w with the orbit's (see
    ``orbitcount.Span``), and while K has rank at most 2 the length is
    counted and that comparison decides, and the least point is built
    from (K, w) (``_least``). The quotient orbit is closed when the view
    is iterated, and when K has rank above 2 to size it, look the
    query's representatives up and take its least point. Iteration adds
    each element of H^2g to the representatives and decodes the product
    one point at a time into tuples of torus points. Without free images
    (genus 0) the orbit is its torsion arrangements alone, and no
    ``Span`` is built.
    """

    __slots__ = ("_signature", "_modulus", "_dim", "_cap", "_entries",
                 "_runs", "_span", "_factor", "_key", "_size", "_closure")

    def __init__(self, datum, max_states):
        sig = datum.signature
        self._signature, self._dim, self._cap = sig, datum.dim, max_states
        self._modulus = datum.modulus
        self._entries = datum.numerators
        torsion = self._entries[2 * sig.genus:]
        self._runs = _sorted_runs(torsion, sig.orders)
        self._factor = prod(map(_arrangements, self._runs))
        self._span = None
        if sig.genus:
            self._span = orbitcount.Span(torsion, self._modulus, self._dim)
            self._factor *= self._span.order ** (2 * sig.genus)
        self._key = self._invariants(self._entries)
        self._size = self._closure = None

    @classmethod
    def _from_iterable(cls, iterable):
        """Results of ``&``, ``|``, ``-`` and ``^`` are plain sets."""
        return set(iterable)

    def _entries_of(self, point):
        """The entries of a tuple of torus points as int tuples over the
        orbit's modulus, or None when it has no such encoding: how a
        query made with torus points is read."""
        sig = self._signature
        m = 2 * sig.genus + sig.num_cone_points
        if not isinstance(point, tuple) or len(point) != m:
            return None
        return _encode(point, self._modulus, self._dim)

    def _invariants(self, entries):
        """(runs, K, frame) of encoded entries, the frame (m, n, w, ...)
        or None (see ``orbitcount.Span.frame``), or (runs,) when the runs
        differ from the orbit's. K is taken modulo the orbit's H, which
        is the entries' own H when the runs agree. Without free images
        K = 0, and its one tuple is counted."""
        sig = self._signature
        runs = _sorted_runs(entries[2 * sig.genus:], sig.orders)
        if runs != self._runs:
            return (runs,)
        if self._span is None:
            return (runs, (), (1, 1, 0))
        return (runs,) + self._span.frame(entries[:2 * sig.genus])

    def _measure(self):
        """Size the orbit, or raise ``OrbitSizeExceeded`` when it has more
        than the cap: counted, with the size in the error, when K has
        rank at most 2 and its order factors; else closed."""
        frame = self._key[2]
        count = frame and orbitcount.count(*frame[:3],
                                             self._signature.genus)
        if count is None:
            self._size = self._factor * len(self._closed())
            return
        self._size = self._factor * count
        if self._size > self._cap:
            raise OrbitSizeExceeded(self._cap, 0, 0, self._size)

    def _representatives(self, free):
        """The box representatives of free images, as a tuple."""
        return tuple(map(self._span.least, free))

    def _closed(self):
        """The quotient orbit as a set of tuples of box representatives,
        closed on first use by breadth-first search under the twists,
        each changed image reduced into its box (``Span.least``), and
        kept as built (a frozen copy would double its peak memory). The
        search is capped at the cap over the size of the other factors.
        ``OrbitSizeExceeded`` gives the depth that search reached and the
        number of orbit states its quotient states stand for (0 at depth
        0 when the other factors alone exceed the cap).
        """
        if self._closure is not None:
            return self._closure
        genus = self._signature.genus
        cap = self._cap // self._factor
        if cap < 1:
            raise OrbitSizeExceeded(self._cap, 0, 0)
        start = ()
        if genus:
            start = self._representatives(self._entries[:2 * genus])
        seen, frontier, depth = {start}, [], 0
        # With H all of T[N], A = 0 and the start is the whole orbit.
        if genus and self._span.order < self._modulus ** self._dim:
            frontier, twists = [start], _twists(genus)
            least, modulus = self._span.least, self._modulus
            dim = range(self._dim)
            # With H = 0 the box is [0, N)^d, and mod N reduces into it.
            boxed = self._span.order > 1
        while frontier:
            depth += 1
            fresh = []
            for state in frontier:
                for v, moved in twists:
                    out = list(state)
                    for i, s in moved:
                        image = list(state[i])
                        for j, c in v:
                            f = state[j]
                            for t in dim:
                                image[t] = (image[t] + s * c * f[t]) % modulus
                        out[i] = least(image) if boxed else tuple(image)
                    out = tuple(out)
                    if out not in seen:
                        if len(seen) >= cap:
                            raise OrbitSizeExceeded(
                                self._cap, depth, len(seen) * self._factor)
                        seen.add(out)
                        fresh.append(out)
            frontier = fresh
        self._closure = seen
        return seen

    def __bool__(self):
        """True: an orbit always holds its datum. Unlike ``len``, this
        holds for orbits of more than ``sys.maxsize`` points."""
        return True

    def __len__(self):
        if self._size > sys.maxsize:
            raise OverflowError(
                "the orbit has %d points, more than len() can report; "
                "monodromy.orbit_size gives the exact size" % self._size)
        return self._size

    def __contains__(self, point):
        entries = self._entries_of(point)
        if entries is None or self._invariants(entries) != self._key:
            return False
        return self._key[2] is not None or self._in_closure(entries)

    def _in_closure(self, entries):
        """Are the representatives of encoded entries, whose invariants
        match the orbit's, in the closed quotient orbit?"""
        return self._representatives(
            entries[:2 * self._signature.genus]) in self._closed()

    def __iter__(self):
        states = self._closed()
        modulus, free = self._modulus, 2 * self._signature.genus
        subgroup = self._span.subgroup() if free else ()
        arrangements = list(product(*(
            sorted(set(permutations(run))) for run in self._runs)))

        def coset(rep):
            return [tuple([(a + b) % modulus for a, b in zip(rep, h)])
                    for h in subgroup]

        for state in states:
            cosets = map(coset, state)
            for free_images in product(*cosets):
                for runs in arrangements:
                    yield self._decode(free_images + sum(runs, ()))

    def _decode(self, entries):
        return points(entries, self._modulus)

    def _least(self):
        """Entries of the lex-least point: the least quotient state,
        whose entries are already the least points of their cosets,
        followed by the sorted runs. While K has rank at most 2 and its
        order factors, the state is built from the invariants
        (``orbitleast.least_tuple``) and the frame the key holds;
        otherwise it is the least state of the closure."""
        genus = self._signature.genus
        free = 2 * genus
        images = []
        if free:
            images = orbitleast.least_tuple(self._span, *self._key[1:],
                                            genus, self._cap)
            if images is None:
                images = list(min(self._closed()))
        return images + [entry for run in self._runs for entry in run]


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


def torsion_monodromy_trivial(datum):
    """True iff every cone loop image is the identity.

    Cone loop images of a valid datum have order exactly o_k >= 2, so
    this holds exactly when there are no cone points; then the manifold
    splits as (orbit space) x (torus).
    """
    return not any(map(any, datum.numerators[2 * datum.signature.genus:]))
