"""Immutable value classes: the part of ``dataclasses`` symtorus uses.

Importing ``dataclasses`` imports ``inspect`` and with it ``ast``,
``dis`` and ``tokenize``, about 1 MB of resident memory in every process
that imports symtorus.
"""


def frozen(cls):
    """Make ``cls`` an immutable value class over its annotated fields.

    The constructor takes the fields positionally, in order, then calls
    ``__post_init__`` if the class has one (which may replace a field
    with ``object.__setattr__``). Equality and hash go by the fields.
    """
    names = tuple(cls.__annotations__)
    post_init = hasattr(cls, "__post_init__")

    def __init__(self, *values):
        if len(values) != len(names):
            raise TypeError("%s takes %d fields, got %d"
                            % (cls.__name__, len(names), len(values)))
        for name, value in zip(names, values):
            object.__setattr__(self, name, value)
        if post_init:
            self.__post_init__()

    def fields(self):
        return tuple([getattr(self, name) for name in names])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return fields(self) == fields(other)

    def __hash__(self):
        return hash(fields(self))

    def __repr__(self):
        return "%s(%s)" % (cls.__qualname__, ", ".join(
            "%s=%r" % pair for pair in zip(names, fields(self))))

    def immutable(self, name, *value):
        raise AttributeError("cannot change field %r" % name)

    cls.__init__, cls.__eq__, cls.__hash__ = __init__, __eq__, __hash__
    cls.__repr__ = __repr__
    cls.__setattr__ = cls.__delattr__ = immutable
    return cls
