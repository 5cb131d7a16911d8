"""Exception types shared across the package."""

import sys


class SymtorusError(Exception):
    """Base class for all package-specific errors."""


class ParseError(SymtorusError):
    """Malformed input: unknown tag, bad rational, wrong shape."""


class NumeralTooLarge(SymtorusError):
    """An answer with an integer longer than the interpreter's digit
    limit, which ``str`` refuses to print."""


class ValidationError(SymtorusError):
    """Structurally well-formed data violating a domain invariant."""


class OrderViolation(ValidationError):
    """A torsion image whose order differs from its cone order.

    ``indices`` lists the offending (0-based) torsion slots.
    """

    def __init__(self, indices, message=None):
        self.indices = tuple(indices)
        if message is None:
            message = "torsion image order mismatch at slots %s" % (self.indices,)
        super().__init__(message)


class SumViolation(ValidationError):
    """Torsion images whose sum is not the identity."""


class PrerequisiteMismatch(ValidationError):
    """Two ingredient lists do not share the data required for comparison."""


# The default --max-states: the most orbit states a verb answers for.
DEFAULT_MAX_STATES = 10 ** 6


class OrbitSizeExceeded(SymtorusError):
    """An orbit, or a search for its least point, larger than the
    configured state cap.

    ``size`` is the orbit's exact size when it was counted, with no
    search; then ``depth`` and ``states`` are 0. When ``image`` is given,
    the least tuple was being built from the invariants, one box
    coordinate at a time: ``states`` values had been tried, and ``image``
    names the free image (such as ``b_2``) being chosen. Otherwise
    ``size`` is None, ``depth`` is the BFS depth at which the search
    found one state more than the cap allows, and ``states`` is how many
    states it had reached, unless ``bound`` is given: a lower bound on
    the orbit's size, above the cap, shown with no search (``depth`` and
    ``states`` 0).
    """

    def __init__(self, cap, depth, states, size=None, image=None,
                 bound=None):
        self.cap = cap
        self.depth = depth
        self.states = states
        self.size = size
        self.image = image
        self.bound = bound
        if bound is not None:
            message = ("orbit has at least %s states, more than the cap "
                       "of %d states" % (_count(bound), cap))
        elif image is not None:
            message = ("canonical form search exceeded the cap of %d "
                       "candidates after trying %d candidates at image %s"
                       % (cap, states, image))
        elif size is None:
            message = ("orbit enumeration exceeded the cap of %d states "
                       "after reaching %d states at BFS depth %d"
                       % (cap, states, depth))
        else:
            message = ("orbit has %s states, more than the cap of %d "
                       "states" % (_count(size), cap))
        super().__init__(message)


def _digit_limit():
    """The interpreter's limit on the digits of a numeral; 0, for none,
    before Python 3.11, where ``int`` reads numerals of any length."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


def _count(n):
    """str(n), or "at least 10^k" past the interpreter's digit limit k."""
    try:
        return str(n)
    except ValueError:
        return "at least 10^%d" % _digit_limit()
