"""Seeded inputs and expected answers for the symtorus benchmark.

Nothing here imports symtorus. Inputs are built from the seed with the
benchmark's own exact arithmetic, so one seed gives byte-identical files
on every commit, and expected answers do not come from the code under
test. The one exception is the orbit size and canonical form of each
case-4 orbit in the ``orbit`` workload: those are read from orbits.json,
which build_orbits.py recorded once with the breadth-first closure.

A workload is a list of cycles. Every cycle of a workload holds the same
mix of requests (same verbs on inputs of the same cost), with fresh
documents, so a run that measures whole cycles measures the same mix
whatever its length. A request is a dict:

    kind      "cli" (symtorus.cli.main) or "orbit" (monodromy.orbit)
    argv      CLI arguments; file names are relative to the input dir
    expect    {"exit": code, "json": {key: value}} for "cli", where every
              listed key must appear in the JSON output with that value;
              {"size": n, "contains": [...]} for "orbit"
    subject   what the answer is about (an orbit or a document); used to
              count requests whose subject was already asked about

Every representative of one orbit carries the same expected orbit size
and canonical form, so the answers for the two members of an equivalent
pair are cross-checked through it.
"""

import json
import os
import random
from fractions import Fraction
from math import gcd, lcm

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("orbit", "catalog", "growth")
# Cycles written per run. A run measures whole cycles and reuses them in
# turn when it needs more than this many.
CYCLES = {"orbit": 8, "catalog": 8, "growth": 4}
# Depth of the nested-array document sent to the CLI once per catalog run,
# outside the measured loop (see worker.nested_json_probe).
DEEP_NESTING = 100000


# ---------------------------------------------------------------- rationals

def fmt(q):
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return "%d/%d" % (q.numerator, q.denominator)


def point_json(point, modulus):
    """Integer numerators over ``modulus`` as reduced "p/q" strings."""
    return [fmt(Fraction(x % modulus, modulus)) for x in point]


def rand_frac(rng, lo=1, hi=9, den=(1, 2, 3, 4, 5, 6, 7)):
    return Fraction(rng.randint(lo, hi), rng.choice(den))


# ------------------------------------------------------- case 4: the group

class Shape:
    """A case-4 datum given by integer numerators over one modulus.

    ``partner`` is a second datum (free, torsion) of the same signature
    and modulus whose images generate a different subgroup of the torus,
    so it lies in a different orbit. ``kinds`` are the requests that one
    cycle sends about the orbit of the datum, each on a fresh random
    representative.
    """

    def __init__(self, name, genus, orders, modulus, free, torsion,
                 partner=None, kinds=("canonical",)):
        self.name = name
        self.genus = genus
        self.orders = tuple(orders)
        self.modulus = modulus
        self.free = tuple(free)
        self.torsion = tuple(torsion)
        self.partner = partner
        self.kinds = tuple(kinds)

    @property
    def entries(self):
        return self.free + self.torsion


# The ``orbit`` workload. The first three are the data of the earlier
# kernel benchmark (6, 486 and 11,520 states); the others fill the range
# in between over moduli 2-6, genus 1-2 and up to four cone points.
ORBIT_SHAPES = (
    Shape("half3", 0, (2, 2, 2), 2, (), ((1, 0), (0, 1), (1, 1)),
          kinds=("canonical",)),
    Shape("g1_333", 1, (3, 3, 3), 3, ((1, 1), (0, 2)),
          ((1, 0), (0, 1), (2, 2)),
          partner=(((1, 0), (0, 0)), ((1, 0), (1, 0), (1, 0))),
          kinds=("compare_eq", "orbit_size", "canonical")),
    Shape("g2_N4", 2, (), 4, ((1, 0), (0, 1), (2, 1), (1, 3)), (),
          kinds=("orbit",)),
    Shape("g2_N3", 2, (), 3, ((1, 0), (0, 1), (0, 0), (0, 0)), (),
          partner=(((1, 0), (0, 0), (0, 0), (2, 0)), ()),
          kinds=("compare_ne", "orbit_size")),
    Shape("g2_N4c", 2, (), 4, ((1, 0), (0, 2), (0, 0), (0, 0)), (),
          partner=(((1, 0), (0, 0), (0, 0), (0, 0)), ()),
          kinds=("compare_eq", "canonical")),
    Shape("g2_N6", 2, (), 6, ((1, 0), (0, 0), (0, 0), (0, 0)), (),
          partner=(((3, 0), (0, 2), (0, 0), (0, 0)), ()),
          kinds=("compare_ne", "canonical", "orbit")),
    Shape("g2_N5", 2, (), 5, ((1, 0), (0, 0), (0, 0), (0, 0)), (),
          partner=(((0, 1), (0, 0), (0, 0), (0, 0)), ()),
          kinds=("compare_eq", "orbit_size", "orbit")),
    Shape("g2_N4b", 2, (), 4, ((1, 0), (0, 0), (0, 0), (0, 0)), (),
          partner=(((0, 1), (0, 0), (0, 0), (0, 0)), ()),
          kinds=("compare_ne", "canonical", "orbit_size")),
    Shape("g2_N3c", 2, (), 3, ((1, 0), (0, 0), (0, 0), (0, 0)), (),
          partner=(((0, 1), (0, 0), (0, 0), (0, 0)), ()),
          kinds=("compare_eq", "canonical", "orbit")),
    Shape("g1_66", 1, (6, 6), 6, ((1, 0), (0, 3)), ((1, 2), (5, 4)),
          partner=(((3, 0), (0, 0)), ((1, 0), (5, 0))),
          kinds=("compare_ne", "orbit_size", "canonical")),
    Shape("g1_236", 1, (2, 3, 6), 6, ((1, 0), (0, 1)),
          ((3, 0), (0, 2), (3, 4)),
          partner=(((1, 0), (0, 0)), ((3, 0), (2, 0), (1, 0))),
          kinds=("compare_eq", "canonical", "orbit")),
    Shape("g1_44", 1, (4, 4), 4, ((1, 0), (0, 1)), ((1, 2), (3, 2)),
          partner=(((2, 0), (0, 0)), ((1, 0), (3, 0))),
          kinds=("compare_ne", "orbit_size", "orbit")),
    Shape("g1_2222", 1, (2, 2, 2, 2), 2, ((1, 0), (0, 0)),
          ((0, 1), (0, 1), (1, 0), (1, 0)),
          partner=(((0, 0), (0, 0)), ((1, 0), (1, 0), (1, 0), (1, 0))),
          kinds=("compare_eq", "orbit_size", "canonical")),
)

# Small case-4 data for the ``catalog`` workload (at most 96 states).
CATALOG_SHAPES = (
    Shape("half3", 0, (2, 2, 2), 2, (), ((1, 0), (0, 1), (1, 1))),
    Shape("g1_22", 1, (2, 2), 2, ((1, 0), (0, 0)), ((0, 1), (0, 1)),
          partner=(((0, 0), (0, 0)), ((0, 1), (0, 1)))),
    Shape("g0_3333", 0, (3, 3, 3, 3), 3, (),
          ((1, 0), (0, 1), (2, 0), (0, 2)),
          partner=((), ((1, 0), (1, 0), (2, 0), (2, 0)))),
    Shape("g1_2222", 1, (2, 2, 2, 2), 2, ((1, 0), (0, 0)),
          ((0, 1), (0, 1), (1, 0), (1, 0)),
          partner=(((0, 0), (0, 0)), ((1, 0), (1, 0), (1, 0), (1, 0)))),
    Shape("g1_N2", 1, (), 2, ((1, 0), (0, 1)), (),
          partner=(((1, 0), (0, 0)), ())),
)


def elementary_symplectic(i, j, genus):
    """I + E_ij, corrected so that the matrix preserves the symplectic
    form; 1-based indices with i != j (the usual generators of Sp(2g, Z))."""
    n = 2 * genus

    def s(k):
        return k + 1 if k % 2 == 1 else k - 1

    rows = [[1 if r == c else 0 for c in range(n)] for r in range(n)]
    rows[i - 1][j - 1] += 1
    if i != s(j):
        rows[s(j) - 1][s(i) - 1] -= (-1) ** (i + j)
    return rows


def generators(genus, orders):
    """Generators of the group of block matrices [[A, 0], [C, D]].

    Elementary symplectic A blocks, unit entries in C, and swaps of
    adjacent cone points of equal order in D.
    """
    n = len(orders)
    m = 2 * genus + n

    def identity():
        return [[1 if r == c else 0 for c in range(m)] for r in range(m)]

    gens = []
    for i in range(1, 2 * genus + 1):
        for j in range(1, 2 * genus + 1):
            if i != j:
                rows = identity()
                block = elementary_symplectic(i, j, genus)
                for r in range(2 * genus):
                    rows[r][:2 * genus] = block[r]
                gens.append(rows)
    for k in range(n):
        for j in range(2 * genus):
            rows = identity()
            rows[2 * genus + k][j] = 1
            gens.append(rows)
    for k in range(n - 1):
        if orders[k] == orders[k + 1]:
            rows = identity()
            a, b = 2 * genus + k, 2 * genus + k + 1
            rows[a][a] = rows[b][b] = 0
            rows[a][b] = rows[b][a] = 1
            gens.append(rows)
    return gens


def apply_matrix(rows, entries, modulus):
    """Entry j becomes sum_i rows[i][j] * entry_i (mod the modulus).

    This is the action of the inverse of ``rows`` on the tuple, so it maps
    a datum to another datum of the same orbit.
    """
    m = len(entries)
    out = []
    for j in range(m):
        x = y = 0
        for i in range(m):
            k = rows[i][j]
            if k:
                x += k * entries[i][0]
                y += k * entries[i][1]
        out.append((x % modulus, y % modulus))
    return tuple(out)


def random_representative(rng, gens, entries, modulus, steps=24):
    """Image of the tuple under a random product of ``steps`` generators."""
    for _ in range(steps if gens else 0):
        entries = apply_matrix(rng.choice(gens), entries, modulus)
    return entries


def image_span(entries, modulus):
    """The subgroup of (Z/N)^2 generated by the images: an orbit invariant."""
    span = {(0, 0)}
    frontier = [(0, 0)]
    while frontier:
        fresh = []
        for x, y in frontier:
            for ex, ey in entries:
                nxt = ((x + ex) % modulus, (y + ey) % modulus)
                if nxt not in span:
                    span.add(nxt)
                    fresh.append(nxt)
        frontier = fresh
    return frozenset(span)


def datum_json(shape, entries):
    g2 = 2 * shape.genus
    return {
        "signature": {"genus": shape.genus, "orders": list(shape.orders)},
        "dim": 2,
        "free": [point_json(p, shape.modulus) for p in entries[:g2]],
        "torsion": [point_json(p, shape.modulus) for p in entries[g2:]],
    }


def orbit_description(shape, entries, area, sigma):
    data = datum_json(shape, entries)
    data["area"] = fmt(area)
    data["sigma_t"] = [["0", fmt(sigma)], [fmt(-sigma), "0"]]
    return {"case": "symplectic_orbits", "data": data}


def load_orbit_table():
    with open(os.path.join(HERE, "orbits.json"), encoding="utf-8") as fh:
        return json.load(fh)


# ------------------------------------------------------- case 3: Lagrangian

def det2(u, v):
    return u[0] * v[1] - u[1] * v[0]


def tau_closed_form(basis_cols, c_value, tau, m, k):
    """tau(m f1 + k f2) = m tau1 + k tau2 - (m k / 2) det(f2, f1) c.

    Returned as a pair of rationals reduced into [0, 1).
    """
    f1, f2 = basis_cols
    twist = det2(f2, f1) * Fraction(m * k, 2)
    return tuple((m * tau[0][i] + k * tau[1][i] - twist * c_value[i]) % 1
                 for i in (0, 1))


def lagrangian_doc(basis_cols, c_value, tau):
    f1, f2 = basis_cols
    return {"case": "lagrangian_free", "data": {
        "P_basis": [[fmt(f1[0]), fmt(f2[0])], [fmt(f1[1]), fmt(f2[1])]],
        "c": [fmt(x) for x in c_value],
        "tau": [[fmt(x % 1) for x in t] for t in tau]}}


def random_lagrangian(rng, zero_cocycle):
    """A lattice basis, a cocycle integral on it, and a holonomy."""
    while True:
        f1 = (rng.randint(-3, 3), rng.randint(-3, 3))
        f2 = (rng.randint(-3, 3), rng.randint(-3, 3))
        if det2(f1, f2):
            break
    if zero_cocycle:
        c_value = (Fraction(0), Fraction(0))
    else:
        c_value = (Fraction(rng.randint(-3, 3)), Fraction(rng.randint(1, 3)))
    tau = tuple((rand_frac(rng) % 1, rand_frac(rng) % 1) for _ in range(2))
    return (f1, f2), c_value, tau


def basis_change(basis_cols, c_value, tau, k):
    """The same ingredients in the basis f1, K f1 + f2."""
    f1, f2 = basis_cols
    g2 = (k * f1[0] + f2[0], k * f1[1] + f2[1])
    tau2 = tau_closed_form(basis_cols, c_value, tau, k, 1)
    return (f1, g2), c_value, (tau[0], tau2)


# ----------------------------------------------------- case 1: polygons

def primitive_and_length(dx, dy):
    scale = lcm(Fraction(dx).denominator, Fraction(dy).denominator)
    ix, iy = int(dx * scale), int(dy * scale)
    g = gcd(ix, iy)
    return (ix // g, iy // g), Fraction(g, scale)


def delzant_polygon(rng, nverts):
    """Counterclockwise Delzant polygon with ``nverts`` vertices (3-12).

    Start from a triangle or rectangle and cut corners: cutting a smooth
    corner by a short enough edge keeps every corner smooth.
    """
    a = rand_frac(rng, 3, 9, (1, 2, 3))
    if nverts % 2:
        verts = [(Fraction(0), Fraction(0)), (a, Fraction(0)),
                 (Fraction(0), a)]
    else:
        b = rand_frac(rng, 3, 9, (1, 2, 3))
        verts = [(Fraction(0), Fraction(0)), (a, Fraction(0)), (a, b),
                 (Fraction(0), b)]
    while len(verts) < nverts:
        n = len(verts)
        i = rng.randrange(n)
        p, v, q = verts[i - 1], verts[i], verts[(i + 1) % n]
        u_in, len_in = primitive_and_length(v[0] - p[0], v[1] - p[1])
        u_out, len_out = primitive_and_length(q[0] - v[0], q[1] - v[1])
        eps = min(len_in, len_out) * rng.choice(
            (Fraction(1, 3), Fraction(1, 4), Fraction(2, 5)))
        cut = [(v[0] - eps * u_in[0], v[1] - eps * u_in[1]),
               (v[0] + eps * u_out[0], v[1] + eps * u_out[1])]
        verts[i:i + 1] = cut
    return verts


def polygon_doc(verts):
    return {"case": "delzant",
            "data": {"vertices": [[fmt(x), fmt(y)] for x, y in verts]}}


def moved_polygon(rng, verts):
    """The same polygon translated, relabelled from another vertex, and
    sometimes listed clockwise."""
    tx, ty = rand_frac(rng, -9, 9), rand_frac(rng, -9, 9)
    moved = [(x + tx, y + ty) for x, y in verts]
    r = rng.randrange(len(moved))
    moved = moved[r:] + moved[:r]
    if rng.random() < 0.5:
        moved.reverse()
    return moved


# ----------------------------------------------------- homology oracle

def _valuation(n, p):
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e


def homology_oracle(genus, orders):
    """(rank, torsion) of the first orbifold homology, independently.

    The torsion is (+) Z/o_k modulo the diagonal. In each p-part the
    diagonal generates a cyclic summand of the largest order, so the
    quotient drops one largest prime power per prime.
    """
    orders = [o for o in orders if o > 1]
    primes = sorted({p for o in orders for p in range(2, o + 1)
                     if o % p == 0 and all(p % d for d in range(2, p))})
    powers = []
    for p in primes:
        exps = sorted(_valuation(o, p) for o in orders if o % p == 0)
        powers.append(sorted((p ** e for e in exps[:-1]), reverse=True))
    width = max((len(col) for col in powers), default=0)
    factors = []
    for i in range(width):
        f = 1
        for col in powers:
            if i < len(col):
                f *= col[i]
        factors.append(f)
    return 2 * genus, sorted(factors)


def signature_flag(genus, orders):
    return "%d:%s" % (genus, ",".join(str(o) for o in orders))


# ----------------------------------------------------- writing a workload

class Writer:
    """Collects documents and requests for one workload and one seed."""

    def __init__(self, outdir):
        self.outdir = outdir
        self.docs = {}

    def doc(self, name, obj):
        if isinstance(obj, str):
            text = obj
        else:
            text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
        self.docs["docs/%s.json" % name] = text
        return "docs/%s.json" % name

    def flush(self, manifest):
        os.makedirs(os.path.join(self.outdir, "docs"), exist_ok=True)
        for rel, text in sorted(self.docs.items()):
            with open(os.path.join(self.outdir, rel), "w",
                      encoding="utf-8") as fh:
                fh.write(text)
        with open(os.path.join(self.outdir, "manifest.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(manifest, fh, sort_keys=True, indent=1)


def cli(argv, exit_code, payload=None, subject=None):
    return {"kind": "cli", "argv": list(argv),
            "expect": {"exit": exit_code, "json": payload or {}},
            "subject": subject or " ".join(argv)}


def orbit_cycles(rng, w):
    table = load_orbit_table()
    shapes = [(shape, generators(shape.genus, shape.orders),
               table[shape.name], rand_frac(rng), rng.randint(1, 5))
              for shape in ORBIT_SHAPES]
    cycles = []
    for c in range(CYCLES["orbit"]):
        cycle = []
        for shape, gens, known, area, sigma in shapes:
            size = known["size"]
            canon_json = [point_json(p, shape.modulus)
                          for p in known["canonical"]]

            def rep(entries=shape.entries):
                return random_representative(rng, gens, entries,
                                             shape.modulus)

            for kind in shape.kinds:
                tag = "c%d_%s_%s" % (c, shape.name, kind)
                if kind in ("compare_eq", "compare_ne"):
                    first = w.doc(tag + "_a", orbit_description(
                        shape, rep(), area, sigma))
                    if kind == "compare_eq":
                        other, code = rep(), 0
                    else:
                        other, code = rep(shape.partner[0]
                                          + shape.partner[1]), 1
                    second = w.doc(tag + "_b", orbit_description(
                        shape, other, area, sigma))
                    cycle.append(cli(["compare", first, second], code,
                                     {"equivalent": code == 0}, shape.name))
                elif kind == "orbit_size":
                    path = w.doc(tag, datum_json(shape, rep()))
                    cycle.append(cli(["orbit-size", path], 0,
                                     {"orbit_size": size}, shape.name))
                elif kind == "canonical":
                    path = w.doc(tag, datum_json(shape, rep()))
                    cycle.append(cli(["canonical", path], 0,
                                     {"canonical": canon_json}, shape.name))
                else:
                    start = rep()
                    path = w.doc(tag, datum_json(shape, start))
                    cycle.append({
                        "kind": "orbit", "argv": [path],
                        "subject": shape.name,
                        "expect": {"size": size, "contains": [
                            [point_json(p, shape.modulus) for p in start],
                            canon_json]}})
        rng.shuffle(cycle)
        cycles.append(cycle)
    return cycles


def catalog_cycle(rng, w, c):
    out = []
    tag = "c%d_" % c

    # case 1: Delzant polygons with 3-12 vertices
    nverts = 3 + c * 9 // (CYCLES["catalog"] - 1)
    poly = delzant_polygon(rng, nverts)
    other = delzant_polygon(rng, nverts + 1 if nverts < 12 else nverts - 1)
    p = w.doc(tag + "poly", polygon_doc(poly))
    moved = w.doc(tag + "poly_moved", polygon_doc(moved_polygon(rng, poly)))
    q = w.doc(tag + "poly_other", polygon_doc(other))
    labels = {"valid": True, "case": "delzant"}
    out += [
        cli(["validate", p], 0, labels),
        cli(["classify", moved], 0, {"case": 1, "label": "delzant"}),
        cli(["compare", p, moved], 0, {"equivalent": True}),
        cli(["compare", p, q], 1, {"equivalent": False}),
        cli(["model", p], 0, {"case": 1, "vertices": [
            [fmt(x), fmt(y)] for x, y in poly]}),
        cli(["splits", q], 1, {"splits": None}),
    ]

    # case 2: products
    ta, sa = rand_frac(rng), rand_frac(rng)
    prod = {"case": "product_t2s2",
            "data": {"torus_area": fmt(ta), "sphere_area": fmt(sa)}}
    diff = {"case": "product_t2s2",
            "data": {"torus_area": fmt(ta), "sphere_area": fmt(sa + 1)}}
    a = w.doc(tag + "prod", prod)
    b = w.doc(tag + "prod_same", prod)
    d = w.doc(tag + "prod_other", diff)
    out += [
        cli(["validate", a], 0, {"valid": True, "case": "product_t2s2"}),
        cli(["classify", d], 0, {"case": 2, "label": "product_t2s2"}),
        cli(["compare", a, b], 0, {"equivalent": True}),
        cli(["compare", a, d], 1, {"equivalent": False}),
        cli(["model", a], 0, {"case": 2, "torus_area": fmt(ta),
                              "sphere_area": fmt(sa)}),
    ]

    # case 3: a basis change with |K| <= 5, and an antisymmetric shift of
    # the holonomy with c = 0 and P = Z^2, which is never a shift by a
    # symmetric map plus an integral one.
    cols, cval, tau = random_lagrangian(rng, zero_cocycle=(c % 2 == 0))
    k = rng.choice((-5, -4, -3, -2, -1, 1, 2, 3, 4, 5))
    lag = w.doc(tag + "lag", lagrangian_doc(cols, cval, tau))
    lag_k = w.doc(tag + "lag_k", lagrangian_doc(*basis_change(cols, cval,
                                                              tau, k)))
    std = ((1, 0), (0, 1))
    zero = (Fraction(0), Fraction(0))
    shift = Fraction(rng.randint(1, 4), 5)
    sym = rand_frac(rng)
    lag_std = w.doc(tag + "lag_std", lagrangian_doc(std, zero, tau))
    lag_shift = w.doc(tag + "lag_shift", lagrangian_doc(std, zero, (
        (tau[0][0] + sym, tau[0][1] + shift), (tau[1][0], tau[1][1]))))
    out += [
        cli(["validate", lag_k], 0, {"valid": True,
                                     "case": "lagrangian_free"}),
        cli(["classify", lag], 0, {"case": 3, "label": "lagrangian_free"}),
        cli(["compare", lag, lag_k], 0, {"equivalent": True,
                                         "lattice_match": True}),
        cli(["compare", lag_std, lag_shift], 1, {"equivalent": False}),
        cli(["model", lag], 0, {"case": 3, "form_matrix": [
            [0, 0, -1, 0], [0, 0, 0, -1], [1, 0, 0, 0], [0, 1, 0, 0]]}),
        cli(["splits", lag_std], 1, {"splits": None}),
    ]

    # case 4: small orbits
    shape = CATALOG_SHAPES[c % len(CATALOG_SHAPES)]
    gens = generators(shape.genus, shape.orders)
    area, sigma = rand_frac(rng), rng.randint(1, 5)

    def rep(entries):
        return random_representative(rng, gens, entries, shape.modulus)

    x = w.doc(tag + "orb", orbit_description(shape, rep(shape.entries),
                                             area, sigma))
    y = w.doc(tag + "orb_eq", orbit_description(shape, rep(shape.entries),
                                                area, sigma))
    if shape.partner:
        z = w.doc(tag + "orb_ne", orbit_description(
            shape, rep(shape.partner[0] + shape.partner[1]), area, sigma))
    else:
        z = w.doc(tag + "orb_ne", orbit_description(
            shape, rep(shape.entries), area + 1, sigma))
    splits = not shape.orders
    out += [
        cli(["validate", y], 0, {"valid": True, "case": "symplectic_orbits"}),
        cli(["classify", z], 0, {"case": 4, "label": "symplectic_orbits"}),
        cli(["compare", x, y], 0, {"equivalent": True}),
        cli(["compare", x, z], 1, {"equivalent": False}),
        cli(["model", x], 0, {"case": 4, "splits_as_product": splits}),
        cli(["splits", x], 0 if splits else 1, {"splits": splits}),
    ]

    # homology of small signatures
    for _ in range(2):
        genus = rng.randint(0, 3)
        orders = sorted(rng.randint(2, 12) for _ in range(rng.randint(0, 6)))
        rank, torsion = homology_oracle(genus, orders)
        out.append(cli(["homology", "--signature",
                        signature_flag(genus, orders)], 0,
                       {"rank": rank, "torsion": torsion}))

    # malformed documents: 2 = could not parse, 1 = invalid description
    bad = [
        ("bad_json", '{"case": "delzant", "data": {"vertices": [[0, 0]',
         "validate", 2),
        ("bad_tag", {"case": "toric", "data": {}}, "classify", 2),
        ("bad_float", {"case": "product_t2s2",
                       "data": {"torus_area": 0.5, "sphere_area": "1"}},
         "validate", 2),
        ("bad_nested", "[" * 64 + "]" * 64, "classify", 2),
        ("bad_smooth", polygon_doc([(0, 0), (2, 0), (0, 1)]), "validate", 1),
        ("bad_area", {"case": "product_t2s2",
                      "data": {"torus_area": "-%s" % fmt(ta),
                               "sphere_area": "1"}}, "classify", 1),
        ("bad_order", {"case": "symplectic_orbits", "data": {
            "signature": {"genus": 0, "orders": [2, 2, 2]}, "dim": 2,
            "area": "1", "sigma_t": [["0", "1"], ["-1", "0"]], "free": [],
            "torsion": [["1/3", "0"], ["0", "1/2"], ["1/2", "1/2"]]}},
         "validate", 1),
        ("bad_orbifold", {"case": "symplectic_orbits", "data": {
            "signature": {"genus": 0, "orders": [2, 3]}, "dim": 2,
            "area": "1", "sigma_t": [["0", "1"], ["-1", "0"]], "free": [],
            "torsion": [["1/2", "0"], ["0", "1/3"]]}}, "validate", 1),
        ("bad_cocycle", lagrangian_doc(((2, 0), (0, 1)),
                                       (Fraction(1, 4), Fraction(0)), tau),
         "validate", 1),
        ("bad_singular", lagrangian_doc(((1, 2), (2, 4)), zero, tau),
         "validate", 1),
    ]
    for name, obj, verb, code in bad:
        path = w.doc(tag + name, obj)
        out.append(cli([verb, path], code))
    out.append(cli(["homology", "--signature", "x:2"], 2))
    out.append(cli(["compare", p], 2))
    rng.shuffle(out)
    return out


# Requests whose cost grows with the input rather than the answer. Every
# cycle holds the same mix; the seed changes values, not sizes. The counts
# put the median latency among the genus-3 requests, and the 90th
# percentile inside the cluster of genus-4 requests and the K = 3000 basis
# change, which cost about the same, not on the edge between two kinds of
# request of different cost. The one genus-5 request lies above it. Five
# requests in that cluster give many samples near p90 in a run.
GROWTH_ZERO = ((3, 1, "orbit-size"), (3, 2, "orbit-size"),
               (3, 1, "canonical"), (3, 2, "canonical"),
               (4, 1, "orbit-size"), (4, 2, "orbit-size"),
               (4, 1, "canonical"), (4, 2, "canonical"),
               (5, 2, "canonical"))
GROWTH_K = (100, 300, 1000, 3000)
GROWTH_CONES = (30, 30, 45, 45, 60, 80)


def growth_cycle(rng, w, c):
    out = []
    tag = "c%d_" % c
    for i, (genus, dim, verb) in enumerate(GROWTH_ZERO):
        zero = ["0"] * dim
        datum = {"signature": {"genus": genus, "orders": []}, "dim": dim,
                 "free": [zero] * (2 * genus), "torsion": []}
        path = w.doc(tag + "zero_g%d_d%d_%d" % (genus, dim, i), datum)
        payload = ({"orbit_size": 1} if verb == "orbit-size"
                   else {"canonical": [zero] * (2 * genus)})
        out.append(cli([verb, path], 0, payload))
    for i, k in enumerate(GROWTH_K):
        cols, cval, tau = random_lagrangian(rng, zero_cocycle=i % 2 == 0)
        k = k if rng.random() < 0.5 else -k
        a = w.doc(tag + "lag_%d" % abs(k), lagrangian_doc(cols, cval, tau))
        b = w.doc(tag + "lag_%d_k" % abs(k),
                  lagrangian_doc(*basis_change(cols, cval, tau, k)))
        out.append(cli(["compare", a, b], 0, {"equivalent": True}))
    for n in GROWTH_CONES:
        genus = rng.randint(0, 2)
        orders = sorted(2 + (i * 7) % 11 for i in range(n))
        rank, torsion = homology_oracle(genus, orders)
        out.append(cli(["homology", "--signature",
                        signature_flag(genus, orders)], 0,
                       {"rank": rank, "torsion": torsion}))
    rng.shuffle(out)
    return out


def generate(workload, seed, outdir):
    """Write the documents and the manifest of one workload and seed."""
    if workload not in WORKLOADS:
        raise ValueError("unknown workload %r" % workload)
    rng = random.Random("%s:%d" % (workload, seed))
    w = Writer(outdir)
    if workload == "orbit":
        cycles = orbit_cycles(rng, w)
    elif workload == "catalog":
        cycles = [catalog_cycle(rng, w, c) for c in range(CYCLES[workload])]
    else:
        cycles = [growth_cycle(rng, w, c) for c in range(CYCLES[workload])]
    shapes = ORBIT_SHAPES if workload == "orbit" else CATALOG_SHAPES
    moduli = [1] if workload == "growth" else sorted(
        {s.modulus for s in shapes})
    manifest = {"workload": workload, "seed": seed, "cycles": cycles,
                "moduli": moduli}
    if workload == "catalog":
        manifest["nested_probe"] = w.doc(
            "deep_nested", "[" * DEEP_NESTING + "]" * DEEP_NESTING)
    w.flush(manifest)
    return manifest
