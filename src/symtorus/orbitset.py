"""The orbit of a monodromy datum, as a read-only set view.

The orbit of (f, t) is (Sp.f + H^2g) x Perm.t, H the subgroup the
torsion images generate (see ``monodromy``). ``Orbit`` keeps it as a
product: the torsion factor as its sorted runs, and the free factor as
the Sp-orbit of the free images in A = T[N]/H, sized and tested from
the invariants K and w (``orbitcount``) while K has rank at most 2, and
otherwise closed by breadth-first search over box representatives under
Humphries' twists (``_twists``).
"""

import sys
from collections import Counter
from collections.abc import Set
from itertools import groupby, permutations, product
from math import factorial, prod

from symtorus.datum import points
from symtorus.errors import OrbitSizeExceeded
from symtorus.torus import TorusElement
from symtorus import orbitcount, orbitleast


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
        size = self._factor * count
        if size > self._cap:
            raise OrbitSizeExceeded(self._cap, 0, 0, size)
        self._size = size

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
        0 when the other factors alone exceed the cap), or, with no
        search, the least size ``Span.orbit_bound`` shows is over it.
        """
        if self._closure is not None:
            return self._closure
        genus = self._signature.genus
        cap = self._cap // self._factor
        if cap < 1:
            raise OrbitSizeExceeded(self._cap, 0, 0)
        bound = genus and self._span.orbit_bound(self._entries[:2 * genus])
        if bound > cap:
            raise OrbitSizeExceeded(self._cap, 0, 0,
                                    bound=bound * self._factor)
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
        if self._size is None:
            self._measure()
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
