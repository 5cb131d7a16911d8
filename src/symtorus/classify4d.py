"""The four-case classification of 2-torus actions on 4-manifolds.

Every compact connected symplectic 4-manifold with an effective
symplectic 2-torus action falls in exactly one case:

  1. toric (Hamiltonian): classified by its momentum polygon;
  2. free Lagrangian orbits over a sphere base: a product T^2 x S^2,
     classified by the two areas;
  3. free Lagrangian orbits over a torus base: classified by the
     lattice/cocycle/holonomy ingredient list;
  4. symplectic orbits: classified by the base signature, total area,
     the vertical form, and the monodromy orbit invariant.

This module holds the case table, validates each description, decides
equivariant equivalence of two descriptions, and prints model reports.
"""

from fractions import Fraction
from math import gcd, lcm

from symtorus._frozen import frozen
from symtorus.errors import ValidationError
from symtorus.lagrangian import (
    DIM,
    LagrangianFreeIngredients,
    cocycle,
    holonomies_agree,
    iota,
    model_form_matrix,
    same_lattice,
    validate_cocycle,
)
from symtorus.monodromy import (
    DEFAULT_MAX_STATES,
    MonodromyDatum,
    torsion_monodromy_trivial,
)
from symtorus import monodromy
from symtorus.orbisurface import FuchsianSignature, is_good, orbifold_presentation
from symtorus.torus import as_fraction, format_numerators, format_rational


@frozen
class DelzantPolygon:
    """Convex rational polygon with a smooth corner at every vertex."""

    vertices: tuple

    def __post_init__(self):
        pts = tuple([(as_fraction(x), as_fraction(y))
                     for x, y in self.vertices])
        if len(pts) < 3:
            raise ValidationError("a polygon needs at least 3 vertices")
        object.__setattr__(self, "vertices", pts)

    def centered(self):
        n = len(self.vertices)
        cx = sum(p[0] for p in self.vertices) / n
        cy = sum(p[1] for p in self.vertices) / n
        return tuple([(p[0] - cx, p[1] - cy) for p in self.vertices])


@frozen
class ProductT2S2:
    """Product of a symplectic 2-torus and a rotation-invariant sphere."""

    torus_area: Fraction
    sphere_area: Fraction

    def __post_init__(self):
        object.__setattr__(self, "torus_area", as_fraction(self.torus_area))
        object.__setattr__(self, "sphere_area", as_fraction(self.sphere_area))


@frozen
class SymplecticOrbitIngredients:
    """Signature, total base area, vertical form, and monodromy datum."""

    signature: FuchsianSignature
    area: Fraction
    sigma_t: tuple
    datum: MonodromyDatum

    def __post_init__(self):
        object.__setattr__(self, "area", as_fraction(self.area))
        rows = tuple([tuple([as_fraction(x) for x in row])
                      for row in self.sigma_t])
        if len(rows) != 2 or any(len(r) != 2 for r in rows):
            raise ValidationError("vertical form must be a 2x2 matrix")
        object.__setattr__(self, "sigma_t", rows)


# The case table: a manifold description is one of the four ingredient
# types, each with its case number and its JSON tag.
CASES = {
    DelzantPolygon: (1, "delzant"),
    ProductT2S2: (2, "product_t2s2"),
    LagrangianFreeIngredients: (3, "lagrangian_free"),
    SymplecticOrbitIngredients: (4, "symplectic_orbits"),
}


def case_of(desc):
    """(case number, JSON tag) of a description, without validating it."""
    if type(desc) not in CASES:
        raise ValidationError("unknown description type %r" % type(desc))
    return CASES[type(desc)]


def _primitive(dx, dy):
    """Primitive integer vector in the direction of the rational (dx, dy)."""
    scale = lcm(dx.denominator, dy.denominator)
    ix, iy = int(dx * scale), int(dy * scale)
    g = gcd(ix, iy)
    return ix // g, iy // g


def _cross(u, v):
    return u[0] * v[1] - u[1] * v[0]


def _angular_key(u):
    """0 for the upper half turn [0, pi), 1 for the lower [pi, 2pi)."""
    return 0 if (u[1] > 0 or (u[1] == 0 and u[0] > 0)) else 1


def _angle_increases(u, v):
    """Does v lie strictly counterclockwise of u, within one turn?"""
    hu, hv = _angular_key(u), _angular_key(v)
    if hu != hv:
        return hu < hv
    return _cross(u, v) > 0


def validate_delzant(polygon):
    """Convex, simple (one full turn), smooth at every vertex.

    Smooth means the primitive integer vectors along the two edges at
    each vertex form a basis of Z^2 (determinant +-1).
    """
    pts = polygon.vertices
    n = len(pts)
    if n < 3:
        raise ValidationError("a polygon needs at least 3 vertices")
    edges = []
    for i in range(n):
        p, q = pts[i], pts[(i + 1) % n]
        if p == q:
            return False
        edges.append(_primitive(q[0] - p[0], q[1] - p[1]))
    crosses = [_cross(edges[i], edges[(i + 1) % n]) for i in range(n)]
    if any(c == 0 for c in crosses):
        return False
    if any(c < 0 for c in crosses):
        if all(c < 0 for c in crosses):
            return validate_delzant(DelzantPolygon(tuple(reversed(pts))))
        return False
    # Counterclockwise local turns; one full turn means a simple polygon.
    wraps = sum(
        0 if _angle_increases(edges[i], edges[(i + 1) % n]) else 1
        for i in range(n)
    )
    if wraps != 1:
        return False
    for i in range(n):
        incoming = edges[(i - 1) % n]
        outgoing = edges[i]
        back = (-incoming[0], -incoming[1])
        if abs(_cross(outgoing, back)) != 1:
            return False
    return True


def validate_description(desc):
    """Raise ValidationError unless the description is self-consistent;
    parsing runs this once per document."""
    case, _ = case_of(desc)
    if case == 1:
        if not validate_delzant(desc):
            raise ValidationError("polygon is not Delzant "
                                  "(convexity or vertex smoothness fails)")
    elif case == 2:
        if desc.torus_area <= 0 or desc.sphere_area <= 0:
            raise ValidationError("areas must be positive")
    elif case == 3:
        if not validate_cocycle(desc):
            raise ValidationError("cocycle is not integral on the lattice")
    else:
        if not is_good(desc.signature):
            raise ValidationError(
                "bad orbifold: excluded signature (0; o1) or (0; o1, o2) "
                "with distinct orders")
        if desc.area <= 0:
            raise ValidationError("total area must be positive")
        s = desc.sigma_t
        if s[0][0] != 0 or s[1][1] != 0 or s[0][1] != -s[1][0]:
            raise ValidationError("vertical form must be antisymmetric")
        if s[0][1] == 0:
            raise ValidationError("vertical form must be nondegenerate")
        if desc.datum.signature != desc.signature:
            raise ValidationError("datum signature does not match")
        if desc.datum.dim != DIM:
            raise ValidationError("datum must live in a 2-torus")


def classify(desc):
    """Case label 1-4 of a description, validating it first."""
    validate_description(desc)
    return case_of(desc)[0]


def comparison(d1, d2, max_states=DEFAULT_MAX_STATES):
    """Which invariants of two validated descriptions agree, in order:
    "case" (the two tags), "case_match", the invariants of an equal
    case, and last "equivalent", the verdict.

    Polygons are compared after translating their centroid to the
    origin (momentum maps are unique up to a translation); products by
    their area pairs; Lagrangian lists by lattice, cocycle, and holonomy
    class; symplectic-orbit lists by signature, area, vertical form, and
    monodromy orbit. The polygon, holonomy and orbit checks run only
    when every listed invariant matches, and enter only the verdict,
    except that the orbit check of symplectic-orbit lists adds
    "k_match" and "omega_match", whether the free images span the same
    K in T/H and have the same w (see ``monodromy.comparison``).
    """
    (c1, tag1), (c2, tag2) = case_of(d1), case_of(d2)
    result = {"case": [tag1, tag2], "case_match": c1 == c2}
    if c1 == c2 == 2:
        result["torus_area_match"] = d1.torus_area == d2.torus_area
        result["sphere_area_match"] = d1.sphere_area == d2.sphere_area
    elif c1 == c2 == 3:
        result["lattice_match"] = same_lattice(d1, d2)
        result["cocycle_match"] = d1.c_value == d2.c_value
    elif c1 == c2 == 4:
        result["signature_match"] = d1.signature == d2.signature
        result["area_match"] = d1.area == d2.area
        result["vertical_form_match"] = d1.sigma_t == d2.sigma_t
    verdict = all(v for k, v in result.items() if k != "case")
    if verdict and c1 == 1:
        verdict = sorted(d1.centered()) == sorted(d2.centered())
    elif verdict and c1 == 3:
        verdict = holonomies_agree(d1, d2)
    elif verdict and c1 == 4:
        matches, verdict = monodromy.comparison(d1.datum, d2.datum,
                                                max_states)
        result.update(matches)
    result["equivalent"] = verdict
    return result


def equivalent(d1, d2, max_states=DEFAULT_MAX_STATES):
    """Equivariant equivalence of two validated descriptions: the
    verdict of ``comparison``."""
    return comparison(d1, d2, max_states)["equivalent"]


def splits_as_product(desc):
    """Does the manifold split as (orbit space) x (torus)?

    Only meaningful in the symplectic-orbit case; returns None for the
    other cases. True exactly when the torsion monodromy is trivial,
    which for valid data means no cone points at all.
    """
    if case_of(desc)[0] != 4:
        return None
    return torsion_monodromy_trivial(desc.datum)


def _format_point(p):
    return "(%s)" % ", ".join(map(format_rational, p))


def _format_word(word):
    parts = []
    for name, exp in word:
        parts.append(name if exp == 1 else "%s^%d" % (name, exp))
    return " ".join(parts) if parts else "1"


def construct_model_report(desc):
    """Structured, human-readable summary of the classifying model of a
    validated description."""
    case, _ = case_of(desc)
    report = {"case": case}
    lines = []
    if case == 1:
        lines.append("toric manifold determined by its momentum polygon")
        lines.append("%d vertices, all smooth:" % len(desc.vertices))
        for p in desc.vertices:
            lines.append("  vertex %s" % _format_point(p))
        report["vertices"] = [
            [format_rational(x) for x in p] for p in desc.vertices
        ]
    elif case == 2:
        lines.append("product of a 2-torus and a sphere")
        lines.append("  torus area  %s" % format_rational(desc.torus_area))
        lines.append("  sphere area %s" % format_rational(desc.sphere_area))
        report["torus_area"] = format_rational(desc.torus_area)
        report["sphere_area"] = format_rational(desc.sphere_area)
    elif case == 3:
        lines.append("quotient of the nilpotent group T x t* by the "
                     "embedded lattice")
        f1, f2 = desc.basis_column(0), desc.basis_column(1)
        lines.append("  lattice basis f1 = %s, f2 = %s"
                     % (_format_point(f1), _format_point(f2)))
        on_basis = cocycle(desc.c_value, f1, f2)
        lines.append("  cocycle on dual basis: %s; on (f1, f2): %s"
                     % (_format_point(desc.c_value), _format_point(on_basis)))
        if desc.c_value == (0, 0):
            lines.append("  cocycle vanishes: the embedding is a homomorphism "
                         "into the abelian group T x t*")
        i1, i2 = iota(desc, 1, 0), iota(desc, 0, 1)
        lines.append("  embedded generators iota(f1) = (%s, %s)"
                     % (_format_point(i1.t.coords), _format_point(i1.zeta)))
        lines.append("                      iota(f2) = (%s, %s)"
                     % (_format_point(i2.t.coords), _format_point(i2.zeta)))
        lines.append("  flat form matrix rows: %s"
                     % "; ".join(str(list(r)) for r in model_form_matrix()))
        report["iota"] = [
            [[format_rational(q) for q in i.t.coords],
             [format_rational(q) for q in i.zeta]]
            for i in (i1, i2)
        ]
        report["form_matrix"] = [list(r) for r in model_form_matrix()]
    else:
        sig = desc.signature
        pres = orbifold_presentation(sig)
        lines.append("associated bundle: (orbisurface universal cover) "
                     "x_pi1orb T over signature (%d; %s)"
                     % (sig.genus, ", ".join(map(str, sig.orders))))
        lines.append("  base group generators: %s"
                     % ", ".join(pres.generators))
        relations = []
        if pres.relators:
            g, n = sig.genus, sig.num_cone_points
            comm = " ".join("[a%d, b%d]" % (i, i) for i in range(1, g + 1))
            prod = " ".join("g%d" % k for k in range(1, n + 1))
            if comm and prod:
                relations.append("%s = %s" % (comm, prod))
            elif comm:
                relations.append("%s = 1" % comm)
            elif prod:
                relations.append("%s = 1" % prod)
            for k, o in enumerate(sig.orders, start=1):
                relations.append("g%d^%d = 1" % (k, o))
        for rel in relations:
            lines.append("  relation: %s" % rel)
        names = list(pres.generators)
        datum = desc.datum
        images = [format_numerators(image, datum.modulus)
                  for image in datum.numerators]
        for name, img in zip(names, images):
            lines.append("  monodromy(%s) = (%s)" % (name, ", ".join(img)))
        lines.append("  total base area %s" % format_rational(desc.area))
        lines.append("  vertical form value %s"
                     % format_rational(desc.sigma_t[0][1]))
        report["presentation"] = {
            "generators": list(pres.generators),
            "relations": relations,
            "relators": [_format_word(w) for w in pres.relators],
        }
        report["monodromy"] = dict(zip(names, images))
        report["splits_as_product"] = torsion_monodromy_trivial(desc.datum)
    report["lines"] = lines
    return report
