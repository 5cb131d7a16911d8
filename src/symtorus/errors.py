"""Exception types shared across the package."""


class SymtorusError(Exception):
    """Base class for all package-specific errors."""


class ParseError(SymtorusError):
    """Malformed input: unknown tag, bad rational, wrong shape."""


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
    states it had reached.
    """

    def __init__(self, cap, depth, states, size=None, image=None):
        self.cap = cap
        self.depth = depth
        self.states = states
        self.size = size
        self.image = image
        if image is not None:
            message = ("canonical form search exceeded the cap of %d "
                       "candidates after trying %d candidates at image %s"
                       % (cap, states, image))
        elif size is None:
            message = ("orbit enumeration exceeded the cap of %d states "
                       "after reaching %d states at BFS depth %d"
                       % (cap, states, depth))
        else:
            message = ("orbit has %d states, more than the cap of %d "
                       "states" % (size, cap))
        super().__init__(message)
