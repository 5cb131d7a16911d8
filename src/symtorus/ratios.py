"""Rationals as JSON values, read into integers.

A rational is an int, or a string "p" or "p/q" of numerals ``int``
reads. ``_ratio`` reads one into a pair (p, q) with q nonzero, not
reduced, and every error names its place in the document.
"""

from fractions import Fraction

from symtorus.errors import ParseError, _digit_limit


def _ratio(value, where, *index):
    """The rational a JSON value spells, as integers (p, q) with q
    nonzero, not reduced: an int, or a string "p" or "p/q" of numerals
    ``int`` reads. A ParseError names the place, ``where`` followed by
    ``[i]`` for each index, formatted only when one is raised."""
    if isinstance(value, str):
        parts = value.split("/")
        try:
            if len(parts) == 1:
                return int(parts[0]), 1
            if len(parts) == 2:
                num, den = int(parts[0]), int(parts[1])
                if den:
                    return num, den
                raise ParseError("zero denominator%s in %r"
                                 % (_at(where, index), value))
        except ValueError:
            # int() also refuses a well-formed numeral longer than the
            # interpreter's digit limit.
            limit = _digit_limit()
            if limit and any(
                    len(digits) > limit and digits.isdecimal()
                    for digits in (part.strip().lstrip("+-").replace("_", "")
                                   for part in parts)):
                raise ParseError("rational too large%s: more than %d digits"
                                 % (_at(where, index), limit)) from None
        raise ParseError("malformed rational%s: %r"
                         % (_at(where, index), value))
    if isinstance(value, bool) or isinstance(value, float):
        raise ParseError("expected an exact rational%s, got %r"
                         % (_at(where, index), value))
    if isinstance(value, int):
        return value, 1
    raise ParseError("expected a rational string%s, got %r"
                     % (_at(where, index), value))


def _at(where, index):
    """The place a ParseError names, as " at <place>", or "" for none."""
    where += "".join(["[%d]" % i for i in index])
    return " at %s" % where if where else ""


def parse_rational(value, where=""):
    return Fraction(*_ratio(value, where))


def _ratios(values, where, *index):
    """The rationals of a JSON array, each as ``_ratio`` reads it."""
    if not isinstance(values, (list, tuple)):
        raise ParseError("expected an array%s" % _at(where, index))
    return [_ratio(v, where, *index, i) for i, v in enumerate(values)]


def _ratio_rows(rows, where):
    """The rows of a nonempty JSON matrix, each as ``_ratios`` reads
    it."""
    if not isinstance(rows, (list, tuple)) or not rows:
        raise ParseError("expected a matrix at %s" % where)
    return [_ratios(row, where, i) for i, row in enumerate(rows)]
