"""Monodromy data in their one stored form.

A monodromy datum for signature (g; o_1..o_n) and a d-torus is a tuple
of 2g free images followed by n torsion images in T = (R/Z)^d (see
``monodromy``). Every image lies in T[N] = (1/N)Z^d / Z^d for the state
modulus N, the lcm of the image orders, so a datum is stored as N and
the integer numerators of its images over N. Its constraints, exact
cone orders and a zero torsion sum, are checked on those integers, the
orbit computations of ``monodromy`` read them directly, and torus points
are decoded only when asked for. ``datum_from_ratios`` builds a datum
from coordinates read as integer pairs (``serialize`` parses into
them), and ``validate_datum`` from torus points.
"""

from fractions import Fraction
from math import gcd, lcm

from symtorus._frozen import frozen
from symtorus.errors import OrderViolation, SumViolation
from symtorus.orbisurface import FuchsianSignature
from symtorus.torus import TorusElement, format_numerators


@frozen
class MonodromyDatum:
    """A monodromy tuple in its one stored form: the state modulus N,
    the lcm of the image orders (1 without images), and each image as
    the integer numerators over N of its coordinates, each in [0, N).

    Building one checks, in integers, the image count and dimension,
    that N is that lcm, that each torsion image has exactly its cone
    order, and that the torsion images sum to zero. Equality and hash go
    by the stored form. ``free``, ``torsion`` and ``entries`` decode the
    images into torus points on each read; ``datum_from_ratios`` and
    ``validate_datum`` build a datum from rational coordinates.
    """

    signature: FuchsianSignature
    dim: int
    modulus: int
    numerators: tuple

    def __post_init__(self):
        sig, dim, modulus = self.signature, self.dim, self.modulus
        images = tuple([tuple(image) for image in self.numerators])
        object.__setattr__(self, "numerators", images)
        count = 2 * sig.genus + sig.num_cone_points
        if len(images) != count:
            raise ValueError("expected %d images, got %d"
                             % (count, len(images)))
        dims = {len(image) for image in images}
        if len(dims) > 1:
            raise ValueError("mixed torus dimensions in images")
        if dims and dims != {dim}:
            raise ValueError("images do not live in a %d-torus" % dim)
        flat = [x for image in images for x in image]
        if modulus < 1 or flat and (min(flat) < 0 or max(flat) >= modulus):
            raise ValueError("numerators must lie in [0, %d)" % modulus)
        orders = [modulus // gcd(modulus, *image) for image in images]
        if lcm(*orders) != modulus:
            raise ValueError("modulus %d is not %d, the lcm of the image "
                             "orders" % (modulus, lcm(*orders)))
        torsion = images[2 * sig.genus:]
        bad = [k for k, (order, o) in enumerate(
            zip(orders[2 * sig.genus:], sig.orders)) if order != o]
        if bad:
            raise OrderViolation(bad)
        total = [sum(column) % modulus for column in zip(*torsion)]
        if any(total):
            raise SumViolation(
                "torsion images sum to TorusElement(%s), not zero"
                % ", ".join(format_numerators(total, modulus)))

    @property
    def entries(self):
        """The images as torus points, free then torsion."""
        return points(self.numerators, self.modulus)

    @property
    def free(self):
        return points(self.numerators[:2 * self.signature.genus],
                      self.modulus)

    @property
    def torsion(self):
        return points(self.numerators[2 * self.signature.genus:],
                      self.modulus)


def points(images, modulus):
    """Images given by their numerators over ``modulus``, as torus
    points."""
    return tuple([TorusElement([Fraction(x, modulus) for x in image])
                  for image in images])


def datum_from_ratios(sig, dim, free, torsion):
    """Build a datum from images given as lists of coordinates, each a
    pair (p, q) with p / q in [0, 1) in lowest terms. Checks the number
    of free and of torsion images, then the constructor's checks; N is
    the lcm of the denominators."""
    if len(free) != 2 * sig.genus:
        raise ValueError("expected %d free images, got %d"
                         % (2 * sig.genus, len(free)))
    if len(torsion) != sig.num_cone_points:
        raise ValueError("expected %d torsion images, got %d"
                         % (sig.num_cone_points, len(torsion)))
    images = free + torsion
    modulus = lcm(*[q for image in images for _, q in image])
    return MonodromyDatum(sig, dim, modulus, tuple([
        tuple([p * (modulus // q) for p, q in image]) for image in images]))


def validate_datum(sig, free, torsion, dim=None):
    """Build a datum from torus points, which checks the order and
    zero-sum constraints.

    Without ``dim`` the torus dimension is read off the images.
    """
    free, torsion = list(free), list(torsion)
    if dim is None:
        if not free + torsion:
            raise ValueError("empty datum needs an explicit torus dimension")
        dim = (free + torsion)[0].dim

    def ratios(elements):
        return [[(q.numerator, q.denominator) for q in t.coords]
                for t in elements]

    return datum_from_ratios(sig, dim, ratios(free), ratios(torsion))
