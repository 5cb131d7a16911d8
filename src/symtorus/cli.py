"""Command-line front end.

Exit codes: 0 on success, 1 when a domain-level answer is negative or a
file fails validation, 2 on I/O or parse errors, when an orbit search
hits the --max-states cap, and when a verb fails with any other error,
whose traceback goes to stderr. That way scripts can tell "computed
false" apart from "could not compute", and a crash never reads as "not
equivalent".

--max-states bounds the orbit a verb answers for, except that
``canonical`` answers for an orbit of any size whose free images span a
subgroup of rank at most 2: it builds the least tuple from the orbit
invariants, and the cap bounds the candidate values that search tries.

``monodromy`` and the orbit modules under it are imported by the verbs
that compute an orbit (``canonical``, ``orbit-size``, and ``compare`` of
two case-4 documents), so that every other call leaves them unloaded.
"""

import argparse
import json
import sys

from symtorus import classify4d, serialize
from symtorus.errors import (
    DEFAULT_MAX_STATES,
    OrbitSizeExceeded,
    ParseError,
    SymtorusError,
    ValidationError,
)
from symtorus.orbisurface import first_orbifold_homology, normalize_signature
from symtorus.torus import format_numerators, numeral


def _read(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise ParseError("cannot read %s: %s" % (path, exc)) from None
    except UnicodeDecodeError as exc:
        raise ParseError("%s: not UTF-8: %s" % (path, exc)) from None


def _description(path):
    """The parsed, and so validated, description in a file."""
    return serialize.parse_description(_read(path), path)


def _emit(args, payload, text_lines):
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        for line in text_lines:
            print(line)


def _parse_signature_flag(raw):
    head, _, tail = raw.partition(":")
    try:
        genus = int(head)
        orders = [int(x) for x in tail.split(",") if x.strip() != ""]
        return normalize_signature(genus, orders)
    except ValueError as exc:
        raise ParseError(
            "signature flag must look like G:o1,o2 (e.g. 1:2 or 0:10,15): %s"
            % exc
        ) from None


def _positive_int(raw):
    """An argparse type: an int of at least 1."""
    try:
        value = int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(
            "expected an integer, got %r" % raw) from None
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1, got %d" % value)
    return value


def cmd_validate(args):
    _, tag = classify4d.case_of(_description(args.paths[0]))
    _emit(args, {"valid": True, "case": tag},
          ["valid: true", "case: %s" % tag])
    return 0


def cmd_classify(args):
    case, tag = classify4d.case_of(_description(args.paths[0]))
    _emit(args, {"case": case, "label": tag}, ["case %d (%s)" % (case, tag)])
    return 0


def cmd_compare(args):
    breakdown = classify4d.comparison(
        _description(args.paths[0]), _description(args.paths[1]),
        max_states=args.max_states)
    lines = ["case: %s vs %s" % tuple(breakdown["case"])]
    lines += ["%s: %s" % (key.replace("_", " "), value)
              for key, value in breakdown.items()
              if key not in ("case", "case_match", "equivalent")]
    verdict = breakdown["equivalent"]
    lines.append("equivalent: %s" % str(verdict).lower())
    _emit(args, breakdown, lines)
    return 0 if verdict else 1


def cmd_canonical(args):
    from symtorus import monodromy

    datum = serialize.parse_datum_document(_read(args.paths[0]), args.paths[0])
    form = monodromy.canonical_datum(datum, max_states=args.max_states)
    coords = [format_numerators(image, form.modulus)
              for image in form.numerators]
    _emit(args, {"canonical": coords},
          ["canonical form:"] + ["  %s" % row for row in coords])
    return 0


def cmd_orbit_size(args):
    from symtorus import monodromy

    datum = serialize.parse_datum_document(_read(args.paths[0]), args.paths[0])
    size = monodromy.orbit_size(datum, max_states=args.max_states)
    _emit(args, {"orbit_size": size}, ["orbit size: %d" % size])
    return 0


def cmd_homology(args):
    if args.signature is None:
        raise ParseError("homology needs --signature G:o1,o2,...")
    sig = _parse_signature_flag(args.signature)
    group = first_orbifold_homology(sig)
    factors = list(group.factors)
    _emit(args, {"rank": group.free_rank, "torsion": factors},
          ["rank %d, torsion [%s]" % (group.free_rank,
                                      ", ".join(map(numeral, factors)))])
    return 0


def cmd_model(args):
    report = classify4d.construct_model_report(_description(args.paths[0]))
    _emit(args, report, report["lines"])
    return 0


def cmd_splits(args):
    desc = _description(args.paths[0])
    verdict = classify4d.splits_as_product(desc)
    if verdict is None:
        _, tag = classify4d.case_of(desc)
        _emit(args, {"splits": None},
              ["not applicable: case %s has no splitting criterion" % tag])
        return 1
    _emit(args, {"splits": verdict}, ["splits as product: %s"
                                      % str(verdict).lower()])
    return 0 if verdict else 1


COMMANDS = {
    "validate": (cmd_validate, 1),
    "classify": (cmd_classify, 1),
    "compare": (cmd_compare, 2),
    "canonical": (cmd_canonical, 1),
    "orbit-size": (cmd_orbit_size, 1),
    "homology": (cmd_homology, 0),
    "model": (cmd_model, 1),
    "splits": (cmd_splits, 1),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="symtorus",
        description="Exact invariants of symplectic 2-torus actions on "
                    "compact 4-manifolds",
    )
    parser.add_argument("verb", choices=sorted(COMMANDS))
    parser.add_argument("paths", nargs="*", help="input JSON files")
    parser.add_argument("--signature", help="inline signature G:o1,o2,...")
    parser.add_argument("--max-states", type=_positive_int,
                        default=DEFAULT_MAX_STATES,
                        help="largest orbit to answer for, and for "
                             "canonical from invariants the most candidate "
                             "values to try (default %(default)s)")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    handler, npaths = COMMANDS[args.verb]
    try:
        if len(args.paths) != npaths:
            raise ParseError("%s takes exactly %d file argument(s)"
                             % (args.verb, npaths))
        return handler(args)
    except ParseError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except OrbitSizeExceeded as exc:
        print("resource limit: %s (raise --max-states)" % exc, file=sys.stderr)
        return 2
    except ValidationError as exc:
        print("invalid: %s" % exc, file=sys.stderr)
        return 1
    except SymtorusError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except Exception:
        import traceback

        traceback.print_exc()
        return 2


if __name__ == "__main__":
    sys.exit(main())
