#!/usr/bin/env python3
"""Record the expected answers of the ``orbit`` workload in orbits.json.

For each shape of workloads.ORBIT_SHAPES, this script closes the base
datum under the group with symtorus.monodromy (breadth-first closure) and
writes the orbit size and the canonical form. It also checks that the
partner datum generates a different subgroup of the torus, so that it
lies in another orbit. Run it only when a shape changes:

    PYTHONPATH=src python3 perfbench/build_orbits.py
"""

import json
import os
import sys
from fractions import Fraction

import workloads

from symtorus import monodromy
from symtorus.orbisurface import FuchsianSignature
from symtorus.torus import TorusElement


def to_datum(shape, entries):
    n = shape.modulus
    points = [TorusElement((Fraction(x, n), Fraction(y, n)))
              for x, y in entries]
    g2 = 2 * shape.genus
    sig = FuchsianSignature(shape.genus, shape.orders)
    return monodromy.validate_datum(sig, points[:g2], points[g2:], 2)


def main():
    table = {}
    for shape in workloads.ORBIT_SHAPES:
        if shape.partner:
            partner = shape.partner[0] + shape.partner[1]
            to_datum(shape, partner)
            assert (workloads.image_span(partner, shape.modulus)
                    != workloads.image_span(shape.entries, shape.modulus))
        datum = to_datum(shape, shape.entries)
        size = monodromy.orbit_size(datum)
        form = monodromy.canonical_form(datum)
        canon = [[int(q * shape.modulus) for q in t.coords] for t in form]
        print("%-8s states %6d" % (shape.name, size), file=sys.stderr)
        table[shape.name] = {"size": size, "canonical": canon}
    path = os.path.join(workloads.HERE, "orbits.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(table, fh, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
