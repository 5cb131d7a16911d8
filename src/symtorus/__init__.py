"""Exact invariants classifying symplectic 2-torus actions on compact
connected symplectic 4-manifolds.

Subpackages by topic:

  torus        points of (R/Z)^d and of Q^2 with rational coordinates
  intmat       integer matrices (quotient invariant factors, symplectic group)
  orbisurface  signatures, orbifold fundamental groups, homology
  datum        monodromy data as integer numerators over one modulus
  monodromy    monodromy tuples and their orbit invariants
  orbitset     the orbit of a datum as a read-only set view
  orbitcount   the invariants K and w of free images, and orbit counts
  normalform   Hermite and Smith normal forms modulo N
  orbitleast   the least tuple of an orbit, from K and w
  polygon      Delzant polygons (case 1)
  lagrangian   lattice / cocycle / holonomy ingredient lists (case 3)
  classify4d   the four-case dispatcher and equivalence decisions
  ratios       rationals in JSON, read into integers
  serialize    JSON interchange
  cli          command-line front end
"""

from symtorus.torus import TorusElement, element_order
from symtorus.intmat import (
    IntMatrix,
    elementary_symplectic,
    is_symplectic_matrix,
    j_form,
    quotient_factors,
)
from symtorus.orbisurface import (
    FinAbGroup,
    FuchsianSignature,
    Presentation,
    first_orbifold_homology,
    is_good,
    normalize_signature,
    orbifold_presentation,
)
from symtorus.monodromy import (
    GeomMatrix,
    MonodromyDatum,
    Orbit,
    act,
    canonical_form,
    group_generators,
    is_geometric_matrix,
    orbit,
    torsion_monodromy_trivial,
    validate_datum,
)
from symtorus.lagrangian import (
    LagrangianFreeIngredients,
    NilElement,
    extend_tau,
    group_law,
    holonomy_equivalent,
    iota,
    lagrangian_equal,
    model_form_eval,
    validate_cocycle,
)
from symtorus.classify4d import (
    DelzantPolygon,
    ProductT2S2,
    SymplecticOrbitIngredients,
    classify,
    construct_model_report,
    splits_as_product,
    validate_delzant,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
