"""The package imports a module only when a name from it is asked for,
and the README's Layout block lists the modules there are."""

import json
import os
import re
import subprocess
import sys
import types

import pytest

import symtorus

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
MODULES = sorted(name for name in os.listdir(os.path.join(SRC, "symtorus"))
                 if name.endswith(".py") and name != "__init__.py")

# ``symtorus.__all__`` before the package became lazy, less the group
# model and the two case-3 verdict routes that left ``lagrangian``.
PUBLIC = [
    "DelzantPolygon", "FinAbGroup", "FuchsianSignature", "GeomMatrix",
    "IntMatrix", "LagrangianFreeIngredients", "MonodromyDatum", "Orbit",
    "Presentation", "ProductT2S2", "SymplecticOrbitIngredients",
    "TorusElement", "act", "canonical_form", "classify", "classify4d",
    "construct_model_report", "datum", "element_order",
    "elementary_symplectic", "errors", "extend_tau",
    "first_orbifold_homology", "group_generators", "intmat",
    "is_geometric_matrix", "is_good", "is_symplectic_matrix", "j_form",
    "lagrangian", "monodromy", "normalform", "normalize_signature",
    "orbifold_presentation", "orbisurface", "orbit", "orbitcount",
    "orbitleast", "orbitset", "polygon", "quotient_factors",
    "splits_as_product", "torsion_monodromy_trivial", "torus",
    "validate_cocycle", "validate_datum", "validate_delzant",
]


def test_all_is_the_old_list_without_the_removed_names():
    assert symtorus.__all__ == PUBLIC
    for name in ("NilElement", "group_law", "iota", "model_form_eval",
                 "holonomy_equivalent", "lagrangian_equal"):
        assert not hasattr(symtorus, name)


def test_every_public_name_is_the_object_in_its_module():
    for name in symtorus.__all__:
        value = getattr(symtorus, name)
        if isinstance(value, types.ModuleType):
            assert value is sys.modules["symtorus." + name]
        else:
            assert value is getattr(sys.modules[value.__module__], name)
        assert vars(symtorus)[name] is value


def test_dir_lists_every_public_name():
    assert set(symtorus.__all__) <= set(dir(symtorus))


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        symtorus.no_such_name
    with pytest.raises(ImportError):
        from symtorus import no_such_name  # noqa: F401


def loaded_by(statement):
    """The modules a bare interpreter (no site packages) loads for
    ``statement``."""
    code = ("import json, sys\nbefore = set(sys.modules)\n%s\n"
            "print(json.dumps(sorted(set(sys.modules) - before)))"
            % statement)
    proc = subprocess.run([sys.executable, "-S", "-c", code],
                          capture_output=True, text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=SRC), check=True)
    return json.loads(proc.stdout)


def ours(modules):
    return [m for m in modules if m.split(".")[0] == "symtorus"]


def test_importing_the_package_loads_no_module():
    assert ours(loaded_by("import symtorus")) == ["symtorus"]


def test_the_orbit_path_loads_only_its_own_imports():
    assert ours(loaded_by("import symtorus.orbitleast")) == [
        "symtorus", "symtorus.errors", "symtorus.normalform",
        "symtorus.orbitcount", "symtorus.orbitleast"]


def test_the_cli_loads_what_the_whole_package_loads():
    """The CLI's imports reach every module, so it loads what importing
    every module loads, standard library included."""
    names = ["symtorus." + name[:-3] for name in MODULES]
    everything = loaded_by("\n".join("import " + n for n in names))
    cli = loaded_by("import symtorus.cli")
    assert cli == everything
    assert len(ours(cli)) == len(names) + 1


def test_the_readme_layout_names_every_module():
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as f:
        readme = f.read()
    block = readme.split("## Layout", 1)[1].split("```")[1]
    assert sorted(re.findall(r"^  (\w+\.py)\b", block, re.M)) == MODULES
