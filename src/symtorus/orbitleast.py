"""The least tuple of an Sp-orbit of free images, from its invariants.

By Edmonds' theorem (see ``orbitcount``) the Sp-orbit of free images in
A = T[N]/H is every 2g-tuple of A that spans K and has invariant w. While
K has rank at most 2 its lex-least tuple of box representatives is
therefore built one box coordinate at a time: each coordinate takes the
least value for which an exact completion test still finds a tuple of
the orbit with that prefix. The test splits over the primes p of |K|:
at each it reads the candidate coset in W = K_p / p^a K_p = (Z/p^a)^2,
p^a the part of m, where both the pairing and the spanning condition
can be read, as memberships in subgroups of W decided from 2x2 Hermite
forms. Those come from ``_plane``, the 2-D case of
``orbitcount._hermite`` with a modulus per row, which the hot loop of
the completion tests calls directly. The search reads K, w and the
coordinates of K off the frame ``orbitcount.Span.frame`` gave, and
recomputes none of them.
"""

from math import gcd

from symtorus.errors import OrbitSizeExceeded
from symtorus.orbitcount import (
    _apply,
    _det,
    _prime_powers,
    _valuation,
    _xgcd,
)


def least_tuple(quotient, span, frame, genus, cap):
    """The least 2g-tuple of box representatives, as int tuples, in the
    Sp-orbit of genus g with the K and frame that ``quotient.frame``
    gave, ``quotient`` being the ``orbitcount.Span`` that models A; None
    when K has rank above 2 or |K| cannot be factored.

    Once two full pairs remain after an image, any prefix completes:
    with u, v generating K and det(u, v) = l a unit mod m, the pairs
    (u, c l^-1 v) and (v, 0) span K and add c to w. So the first 2g - 3
    images are 0, and only b_(g-1), a_g and b_g (a_1 and b_1 for g = 1)
    are searched, by ``_opens``, ``_pairs`` and ``_closes``. Each value
    tried counts against ``cap``; past it ``OrbitSizeExceeded`` names
    the image.
    """
    if frame is None:
        return None
    m, n, omega, rows = frame
    dim = len(span)
    zero = (0,) * dim
    if n == 1:
        return [zero] * (2 * genus)
    primes = _prime_powers(n)
    if primes is None:
        return None
    places = [_Place(p, _valuation(m, p, b), omega, rows)
              for p, b in primes]
    tried = 0

    def choose(name, test, fixed=()):
        """The box representative and the coordinates of the least
        next image for which ``test`` finds a completion at every
        place, given the coordinates of the ``fixed`` images. For
        the last image, which closes the pair of fixed[-1], only the
        values that solve det(fixed[-1], x) = w mod m are tried."""
        nonlocal tried
        known = [[_image(place, v) for v in fixed] for place in places]
        closing = test is _closes and m > 1
        if closing:
            paired = _apply(rows, fixed[-1])
            kappa = [_det(paired, column) % m for column in zip(*rows)]
        sigma, point = [], []
        for t in range(dim):
            step = span[t][t]
            fixed_part = sum(span[t][c] * sigma[c] for c in range(t))
            first = fixed_part % step
            lowest = (first - fixed_part) // step
            count = quotient.basis[t][t] // step
            k = 0
            if count > 1:
                values = range(count)
                if closing:
                    values = _solutions(kappa, sigma, lowest, omega, m,
                                        count)
                for k in values:
                    if tried >= cap:
                        raise OrbitSizeExceeded(cap, 0, tried,
                                                image=name)
                    tried += 1
                    prefix = sigma + [lowest + k]
                    if all(test(place, _image(place, prefix),
                                place.columns[t + 1:], *fixed_here)
                           for place, fixed_here in zip(places, known)):
                        break
                else:
                    # The tests are exact, so some value completes.
                    raise AssertionError("no completion of " + name)
            sigma.append(lowest + k)
            point.append(first + k * step)
        return tuple(point), sigma

    images = [zero] * max(2 * genus - 3, 0)
    x = [0] * dim
    if genus > 1:
        point, x = choose("b_%d" % (genus - 1), _opens)
        images.append(point)
    point, y = choose("a_%d" % genus, _pairs, [x])
    images.append(point)
    point, _ = choose("b_%d" % genus, _closes, [x, y])
    images.append(point)
    return images


def _solutions(kappa, sigma, lowest, omega, m, count):
    """The steps k < count for which coordinate t = len(sigma) of the
    last image, lowest + k, still lets det(a, x) = w mod m be solved by
    the later coordinates; kappa_c = det(a, e_c) mod m."""
    t = len(sigma)
    g = gcd(m, *kappa[t + 1:])
    rest = omega - sum(c * s for c, s in zip(kappa, sigma)) - kappa[t] * lowest
    h = gcd(kappa[t], g)
    if rest % h:
        return range(0)
    stride = g // h
    start = (rest // h) * pow(kappa[t] // h, -1, stride) % stride
    return range(start, count, stride)


class _Place:
    """K at one prime p of n, for the completion test: the quotient
    W = K_p / p^a K_p = (Z/p^a)^2 with its determinant, a = v_p(m) >= 1,
    where both the pairing and the spanning condition can be read (K_p
    is spanned iff W / pW = (Z/p)^2 is); or, when a = 0, the line
    K_p / pK_p = Z/p alone, read by the last row. ``columns`` are the
    images of the unit coordinates of K, mod q = p^a (or p)."""

    __slots__ = ("p", "a", "q", "omega", "w", "columns")

    def __init__(self, p, a, omega, rows):
        self.p, self.a = p, a
        self.q = p ** a if a else p
        self.omega = omega % self.q
        self.w = _valuation(self.omega, p, a)
        self.columns = [tuple([x % self.q for x in column])
                        for column in zip(*(rows if a else rows[-1:]))]


def _image(place, sigma):
    """The image at a place of the element with coordinates sigma (the
    later coordinates 0)."""
    return tuple([sum(col[i] * s for col, s in zip(place.columns, sigma))
                  % place.q for i in range(len(place.columns[0]))])


def _plane(vectors, q0, q1):
    """The Hermite basis (h0, h1, h2) of the lattice in Z^2 that the
    vectors, (q0, 0) and (0, q1) span: its columns are (h0, h1) and
    (0, h2) with 0 <= h1 < h2, so (u, v) lies in it iff h0 | u and
    v = (u / h0) h1 mod h2, and its index is h0 h2."""
    a, b, c = q0, 0, q1
    for x, y in vectors:
        g, s, t = _xgcd(a, x)
        c = gcd(c, (x // g) * b - (a // g) * y)
        a, b = g, (s * b + t * y) % c
    return a, b, c


def _in_plane(lattice, point):
    a, b, c = lattice
    return point[0] % a == 0 and (point[1] - point[0] // a * b) % c == 0


def _meets(point, vectors, inner, outer=None):
    """Does the coset point + G of W = (Z/q)^2, G spanned by the vectors,
    meet D(inner) but not only inside D(outer)? Here D(s0, s1) is
    s0 Z/q x s1 Z/q, and D(outer) <= D(inner). A coset meets a subgroup
    D in 0 or |G n D| = |G| |D| / |G + D| points."""
    lattice = _plane(vectors, *inner)
    if not _in_plane(lattice, point):
        return False
    if outer is None:
        return True
    smaller = _plane(vectors, *outer)
    if not _in_plane(smaller, point):
        return True
    return (lattice[0] * lattice[2] * outer[0] * outer[1]
            > smaller[0] * smaller[2] * inner[0] * inner[1])


# The completion tests, one place at a time. The first 2g - 3 images are
# 0, b_(g-1) is x, and the last pair is (y, z); for g = 1, x = 0. Each
# test asks whether some point of the coset base + <gens> of W, the
# image being chosen, extends to free images after it such that the
# whole tuple spans K_p and sum det(a_i, b_i) = w. A tuple spans K_p iff
# its images mod p span W / pW (Frattini), the mod-p span of a pair is
# (Z/p)^2 iff its det is a unit, and det(y, W) = p^l W for the level
# l = l(y), y in p^l W \ p^(l+1) W. At a place with a = 0 only the last
# image is constrained: some image must be nonzero mod p.


def _opens(place, base, gens):
    """x, paired with a_(g-1) = 0, then one free pair (y, z): when
    v(w) = 0 any x does (y, z a basis); otherwise det(y, z) = 0 mod p,
    so x must be nonzero mod p, and then y outside x mod p and z in pW
    give any w in pZ."""
    if not place.a or not place.w:
        return True
    p = place.p
    return _meets(base, gens, (1, 1), (p, p))


def _pairs(place, base, gens, x):
    """y = a_g after x, then z free: a z with det(y, z) = w exists iff
    l(y) <= v(w). If l(y) = 0 the solutions z run along y, so x, y must
    span mod p or w be a unit. If l(y) >= 1, x must be nonzero mod p and
    z outside it mod p: the solutions z = z0 + <y / p^l> + p^(a-l) W
    leave x's line unless y / p^l lies on it and v(w) > l. With x = 0
    mod p only l(y) = 0 = v(w) does.

    In coordinates y = alpha x + beta e with det(x, e) = 1 (so
    beta = det(x, y) and l(y) = min(v(alpha), v(beta))) that reads:
    v(beta) = k <= v(alpha) for some k < v(w), or min(v(alpha),
    v(beta)) = v(w); pieces of the form D(inner) \\ D(outer)."""
    if not place.a:
        return True
    p, q, a, w = place.p, place.q, place.a, place.w
    x0, x1 = x
    if not (x0 % p or x1 % p):
        return not w and _meets(base, gens, (1, 1), (p, p))
    e0, e1 = (0, pow(x0, -1, q)) if x0 % p else (-pow(x1, -1, q), 0)

    def coords(v):
        return ((v[0] * e1 - v[1] * e0) % q, (x0 * v[1] - x1 * v[0]) % q)

    base, gens = coords(base), [coords(v) for v in gens]
    for k in range(w):
        if _meets(base, gens, (p ** k, p ** k), (p ** k, p ** (k + 1))):
            return True
    if w == a:
        return _meets(base, gens, (q, q))
    return _meets(base, gens, (p ** w, p ** w), (p ** (w + 1),) * 2)


def _closes(place, base, gens, x, y):
    """z = b_g, the last image: det(y, z) = w, and x, y, z span mod p.
    When x, y span, that is all; when y alone is nonzero mod p, z must
    leave y's line, that is det(y, z) = w must be a unit; when only x
    is, z must leave x's line: det(x, z) nonzero mod p, on the image of
    the coset under (det(y, .) mod q, det(x, .) mod p)."""
    p, q = place.p, place.q
    if not place.a:
        return any(v[0] % p for v in [x, y, base] + gens)
    target = (place.omega - _det(y, base)) % q
    if _det(x, y) % p or ((y[0] % p or y[1] % p) and not place.w):
        return target % gcd(q, *(_det(y, v) for v in gens)) == 0
    if y[0] % p or y[1] % p or not (x[0] % p or x[1] % p):
        return False
    a, b, c = _plane([(_det(y, v), _det(x, v)) for v in gens], q, p)
    return target % a == 0 and (
        c == 1 or (_det(x, base) + target // a * b) % p != 0)
