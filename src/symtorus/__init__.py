"""Exact invariants classifying symplectic 2-torus actions on compact
connected symplectic 4-manifolds.

Subpackages by topic:

  torus        points of (R/Z)^d and of Q^2 with rational coordinates
  intmat       integer matrices (symplectic group, quotient invariant factors)
  orbisurface  signatures, orbifold fundamental groups, homology
  datum        monodromy data as integer numerators over one modulus
  monodromy    monodromy tuples and their orbit invariants
  orbitset     the orbit of a datum as a read-only set view
  orbitcount   the invariants K and w of free images, and orbit counts
  normalform   Hermite normal form and the one Smith reduction, modulo N
  orbitleast   the least tuple of an orbit, from K and w
  polygon      Delzant polygons (case 1)
  lagrangian   lattice / cocycle / holonomy ingredient lists (case 3)
  classify4d   the four-case dispatcher and equivalence decisions
  ratios       rationals in JSON, read into integers
  serialize    JSON interchange
  cli          command-line front end

Importing the package imports none of them: a public name below, or a
listed module, is imported on first use (PEP 562) and kept here.
"""

_PUBLIC = {
    "torus": ("TorusElement", "element_order"),
    "intmat": ("IntMatrix", "elementary_symplectic", "is_symplectic_matrix",
               "j_form", "quotient_factors"),
    "orbisurface": ("FinAbGroup", "FuchsianSignature", "Presentation",
                    "first_orbifold_homology", "is_good",
                    "normalize_signature", "orbifold_presentation"),
    "datum": ("MonodromyDatum", "torsion_monodromy_trivial",
              "validate_datum"),
    "orbitset": ("Orbit",),
    "monodromy": ("GeomMatrix", "act", "canonical_form", "group_generators",
                  "is_geometric_matrix", "orbit"),
    "polygon": ("DelzantPolygon", "validate_delzant"),
    "lagrangian": ("LagrangianFreeIngredients", "extend_tau",
                   "validate_cocycle"),
    "classify4d": ("ProductT2S2", "SymplecticOrbitIngredients", "classify",
                   "construct_model_report", "splits_as_product"),
    "errors": (), "normalform": (), "orbitcount": (), "orbitleast": (),
}
_MODULE_OF = {name: module for module, names in _PUBLIC.items()
              for name in names}

__version__ = "0.1.0"

__all__ = sorted([*_PUBLIC, *_MODULE_OF])


def __getattr__(name):
    if name in _PUBLIC:
        # Importing a submodule binds it in this module's globals.
        __import__(__name__ + "." + name)
        return globals()[name]
    if name not in _MODULE_OF:
        raise AttributeError("module %r has no attribute %r"
                             % (__name__, name))
    module = __import__(__name__ + "." + _MODULE_OF[name], None, None, [name])
    value = globals()[name] = getattr(module, name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
