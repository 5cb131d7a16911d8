"""The package imports a module only when a name from it is asked for,
the README's Layout block lists the modules there are, and no module
is over the size limit."""

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


DEFERRED = {"intmat", "monodromy", "normalform", "orbitcount", "orbitleast",
            "orbitset"}
DATA = os.path.join(ROOT, "tests", "data")


def verbs(*argvs):
    """Statements that run ``cli.main`` on each argv, output discarded,
    each answering with exit 0 or 1."""
    return "\n".join(
        ["import contextlib, io", "from symtorus.cli import main",
         "with contextlib.redirect_stdout(io.StringIO()):"]
        + ["    assert main(%r) in (0, 1)" % (argv,) for argv in argvs])


def deferred(modules):
    """The deferred modules among those loaded."""
    return {m.split(".", 1)[-1] for m in ours(modules)} & DEFERRED


def test_the_cli_loads_twelve_modules():
    assert ours(loaded_by("import symtorus.cli")) == ["symtorus"] + [
        "symtorus." + name for name in (
            "_frozen", "classify4d", "cli", "datum", "errors", "lagrangian",
            "orbisurface", "polygon", "ratios", "serialize", "torus")]


def test_verbs_without_an_orbit_load_no_orbit_module_nor_intmat():
    paths = sorted(os.path.join(DATA, name) for name in os.listdir(DATA))
    argvs = [[verb, path] for path in paths
             for verb in ("validate", "classify", "model", "splits")]
    case1 = os.path.join(DATA, "case1_delzant.json")
    argvs.append(["compare", case1, case1])
    assert deferred(loaded_by(verbs(*argvs))) == set()


def test_homology_loads_intmat_and_no_orbit_module():
    loaded = loaded_by(verbs(["homology", "--signature", "1:2,3,4"]))
    assert deferred(loaded) == {"intmat", "normalform"}


def test_orbit_size_loads_monodromy():
    loaded = loaded_by(verbs(
        ["orbit-size", os.path.join(DATA, "case4_orbits.json")]))
    assert "symtorus.monodromy" in loaded


def test_the_readme_layout_names_every_module():
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as f:
        readme = f.read()
    block = readme.split("## Layout", 1)[1].split("```")[1]
    assert sorted(re.findall(r"^  (\w+\.py)\b", block, re.M)) == MODULES


def test_no_module_is_over_300_lines():
    """The compile heap of the largest module stays resident in every
    interpreter that loads it, so modules are split before they grow
    past 300 lines."""
    for name in MODULES + ["__init__.py"]:
        with open(os.path.join(SRC, "symtorus", name), encoding="utf-8") as f:
            assert len(f.readlines()) <= 300, name
