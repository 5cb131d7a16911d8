import json
import time
from fractions import Fraction
from pathlib import Path

import pytest

from symtorus import classify4d, lagrangian
from symtorus.classify4d import (
    DelzantPolygon,
    ProductT2S2,
    SymplecticOrbitIngredients,
)
from symtorus.cli import main
from symtorus.lagrangian import LagrangianFreeIngredients
from symtorus.monodromy import validate_datum
from symtorus.orbisurface import FuchsianSignature
from symtorus.serialize import dumps_description
from symtorus.torus import TorusElement

HALF = Fraction(1, 2)


def T(*coords):
    return TorusElement(coords)


@pytest.fixture
def files(tmp_path):
    sig = FuchsianSignature(0, (2, 2, 2))
    datum = validate_datum(sig, (), (T(HALF, 0), T(0, HALF), T(HALF, HALF)))
    permuted = validate_datum(sig, (), (T(0, HALF), T(HALF, HALF), T(HALF, 0)))
    sigma = ((0, Fraction(1)), (Fraction(-1), 0))
    paths = {}
    descriptions = {
        "delzant": DelzantPolygon(((0, 0), (1, 0), (1, 1), (0, 1))),
        "product": ProductT2S2(1, 2),
        "lagrangian": LagrangianFreeIngredients(
            ((1, 0), (0, 1)), (0, 0), (T(0, 0), T(0, 0))),
        "orbits": SymplecticOrbitIngredients(sig, Fraction(1), sigma, datum),
        "orbits_permuted": SymplecticOrbitIngredients(
            sig, Fraction(1), sigma, permuted),
    }
    for name, desc in descriptions.items():
        p = tmp_path / (name + ".json")
        p.write_text(dumps_description(desc))
        paths[name] = str(p)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "case": "symplectic_orbits",
        "data": {"signature": {"genus": 0, "orders": [5]}, "area": "1",
                 "sigma_t": [["0", "1"], ["-1", "0"]],
                 "dim": 2, "free": [], "torsion": [["1/5", "0"]]}}))
    paths["bad"] = str(bad)
    bogus = tmp_path / "bogus.json"
    bogus.write_text('{"case": "bogus"}')
    paths["bogus"] = str(bogus)
    return paths


def test_classify_exit_zero(files, capsys):
    assert main(["classify", files["orbits"]]) == 0
    assert "case 4" in capsys.readouterr().out


def test_compare_equivalent_permuted_torsion(files, capsys):
    code = main(["compare", files["orbits"], files["orbits_permuted"]])
    out = capsys.readouterr().out
    assert code == 0
    assert "equivalent: true" in out
    assert "signature match: True" in out


def test_compare_mismatch_exits_one(files, capsys):
    assert main(["compare", files["delzant"], files["product"]]) == 1
    assert "equivalent: false" in capsys.readouterr().out


def test_validate_bad_signature_exit_one(files, capsys):
    assert main(["validate", files["bad"]]) == 1
    err = capsys.readouterr().err
    assert "bad orbifold" in err


def test_parse_error_exit_two(files, capsys):
    assert main(["validate", files["bogus"]]) == 2
    assert "bogus" in capsys.readouterr().err


def test_missing_file_exit_two(tmp_path, capsys):
    assert main(["classify", str(tmp_path / "nope.json")]) == 2


@pytest.mark.parametrize("error", [AssertionError, MemoryError])
def test_a_crash_exits_two_with_its_traceback(files, monkeypatch, capsys,
                                              error):
    """A verb that raises an error outside the domain exits 2, "could
    not compute", never 1, which ``compare`` gives for "not equivalent";
    the traceback still reaches stderr."""
    def crash(*args, **kwargs):
        raise error("injected")

    monkeypatch.setattr(classify4d, "comparison", crash)
    assert main(["compare", files["orbits"], files["orbits_permuted"]]) == 2
    captured = capsys.readouterr()
    assert "equivalent" not in captured.out
    assert "Traceback" in captured.err
    assert "%s: injected" % error.__name__ in captured.err


def test_homology_inline_signature(capsys):
    assert main(["homology", "--signature", "0:10,15"]) == 0
    assert "rank 0, torsion [5]" in capsys.readouterr().out


def test_homology_torus_with_cone_point(capsys):
    assert main(["homology", "--signature", "1:2"]) == 0
    assert "rank 2, torsion []" in capsys.readouterr().out


def test_homology_of_twenty_cone_points_is_quick(capsys):
    """Over the integers the Smith form of this relation matrix takes
    about 80 s on a 2-vCPU host; modulo the lcm of the orders it takes
    milliseconds."""
    flag = "0:2,3,4,6,11,12,16,21,26,35,39,42,44,49,50,51,51,54,57,57"
    start = time.perf_counter()
    assert main(["homology", "--signature", flag, "--format", "json"]) == 0
    assert time.perf_counter() - start < 1
    assert json.loads(capsys.readouterr().out) == {
        "rank": 0, "torsion": [3, 6, 6, 6, 6, 6, 6, 84, 84, 19399380]}


def test_homology_bad_flag(capsys):
    assert main(["homology", "--signature", "nope"]) == 2


def test_orbit_size(files, capsys):
    assert main(["orbit-size", files["orbits"]]) == 0
    assert "orbit size: 6" in capsys.readouterr().out


def test_orbit_size_respects_cap(files, capsys):
    assert main(["orbit-size", files["orbits"], "--max-states", "2"]) == 2
    assert "resource limit" in capsys.readouterr().err


def test_canonical_cap_reports_how_far_the_search_got(tmp_path, capsys):
    # K = (Z/3)^3 has rank 3, so canonical still closes the orbit.
    datum = tmp_path / "thirds_rank3.json"
    datum.write_text(json.dumps({
        "signature": {"genus": 2, "orders": []}, "dim": 3,
        "free": [["1/3", "0", "0"], ["0", "1/3", "0"], ["0", "0", "1/3"],
                 ["0", "0", "0"]],
        "torsion": []}))
    assert main(["canonical", str(datum), "--max-states", "100"]) == 2
    err = capsys.readouterr().err
    assert "cap of 100 states" in err
    # The depth of the closure under the 2g+1 transvections, checked by a
    # plain BFS in tests/test_monodromy.py.
    assert "reaching 100 states at BFS depth 4" in err


GENUS2_MOD4 = {
    "signature": {"genus": 2, "orders": []}, "dim": 2,
    "free": [["1/4", "0"], ["0", "1/4"], ["1/2", "1/4"], ["1/4", "3/4"]],
    "torsion": []}


def test_orbit_size_cap_names_the_counted_size(tmp_path, capsys):
    datum = tmp_path / "genus2_mod4.json"
    datum.write_text(json.dumps(GENUS2_MOD4))
    assert main(["orbit-size", str(datum), "--max-states", "100"]) == 2
    assert ("orbit has 11520 states, more than the cap of 100 states"
            in capsys.readouterr().err)
    assert main(["orbit-size", str(datum), "--max-states", "11520"]) == 0
    assert "orbit size: 11520" in capsys.readouterr().out


def test_orbit_size_counts_a_genus1_orbit_of_order_1009(tmp_path, capsys):
    datum = tmp_path / "genus1_1009.json"
    datum.write_text(json.dumps({
        "signature": {"genus": 1, "orders": []}, "dim": 2,
        "free": [["1/1009", "0"], ["0", "1/1009"]], "torsion": []}))
    start = time.perf_counter()
    assert main(["orbit-size", str(datum),
                 "--max-states", "2000000000"]) == 0
    assert time.perf_counter() - start < 1
    # |SL(2, Z/1009)|: the generating pairs of (Z/1009)^2 of determinant 1.
    assert ("orbit size: %d" % (1009 * (1009 ** 2 - 1))
            in capsys.readouterr().out)


def test_genus0_datum_without_cone_points_is_instant(tmp_path, capsys):
    """No free images and no torsion: the orbit is one point whatever
    the torus dimension, and nothing of size d x d is built."""
    doc = tmp_path / "empty.json"
    doc.write_text(json.dumps({"signature": {"genus": 0, "orders": []},
                               "dim": 10 ** 6, "free": [], "torsion": []}))
    start = time.perf_counter()
    assert main(["orbit-size", str(doc)]) == 0
    assert capsys.readouterr().out == "orbit size: 1\n"
    assert main(["canonical", str(doc), "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out) == {"canonical": []}
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("value", ["0", "-5"])
def test_max_states_below_one_is_a_parse_error(files, capsys, value):
    with pytest.raises(SystemExit) as info:
        main(["orbit-size", files["orbits"], "--max-states", value])
    assert info.value.code == 2
    assert "must be at least 1" in capsys.readouterr().err


def test_huge_numbers_are_parse_errors(files, tmp_path, capsys):
    doc = json.loads(Path(files["orbits"]).read_text())
    unused = tmp_path / "unused.json"
    unused.write_text(json.dumps(doc)[:-1] + ', "unused": %s}' % ("9" * 5000))
    doc["data"]["area"] = "9" * 5000 + "/7"
    area = tmp_path / "area.json"
    area.write_text(json.dumps(doc))
    for path, message in ((unused, "number too large"),
                          (area, "rational too large at area")):
        assert main(["compare", str(path), str(path)]) == 2
        assert message in capsys.readouterr().err


def test_canonical_json_output(files, capsys):
    assert main(["canonical", files["orbits"], "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["canonical"] == [["0", "1/2"], ["1/2", "0"], ["1/2", "1/2"]]


def test_canonical_identical_for_permuted_inputs(files, capsys):
    main(["canonical", files["orbits"], "--format", "json"])
    first = capsys.readouterr().out
    main(["canonical", files["orbits_permuted"], "--format", "json"])
    second = capsys.readouterr().out
    assert first == second


def test_splits_false_for_torsion_case(files, capsys):
    assert main(["splits", files["orbits"]]) == 1
    assert "splits as product: false" in capsys.readouterr().out


def test_splits_not_applicable(files, capsys):
    assert main(["splits", files["delzant"]]) == 1
    assert "not applicable" in capsys.readouterr().out


def test_model_report(files, capsys):
    assert main(["model", files["lagrangian"]]) == 0
    assert "abelian group" in capsys.readouterr().out


def test_compare_huge_basis_change_is_fast(tmp_path, capsys):
    # The same ingredients in the basis f1, K f1 + f2 (zero cocycle, so
    # tau(K f1 + f2) = K tau1 + tau2), and with tau2 moved off its class.
    big = 10 ** 12
    t1, t2 = T(Fraction(1, 3), Fraction(2, 7)), T(Fraction(1, 5), 0)
    paths = {}
    for name, basis, tau in (
            ("base", ((1, 0), (0, 1)), (t1, t2)),
            ("same", ((1, big), (0, 1)), (t1, big * t1 + t2)),
            ("other", ((1, big), (0, 1)),
             (t1, big * t1 + t2 + T(Fraction(1, 11), 0)))):
        path = tmp_path / (name + ".json")
        path.write_text(dumps_description(
            LagrangianFreeIngredients(basis, (0, 0), tau)))
        paths[name] = str(path)
    start = time.perf_counter()
    assert main(["compare", paths["base"], paths["same"]]) == 0
    assert main(["compare", paths["base"], paths["other"]]) == 1
    assert time.perf_counter() - start < 1.0


def test_wrong_path_count(files, capsys):
    assert main(["compare", files["delzant"]]) == 2


def test_json_format_classify(files, capsys):
    assert main(["classify", files["product"], "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"case": 2, "label": "product_t2s2"}


def test_deeply_nested_json_exit_two(files, tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000 + "]" * 100000)
    assert main(["classify", str(deep)]) == 2
    assert main(["compare", files["orbits"], str(deep)]) == 2
    assert "invalid JSON" in capsys.readouterr().err


DESCRIPTION_VERBS = ("validate", "classify", "model", "splits", "compare")
DATA_DIR = Path(__file__).parent / "data"
DATA = sorted(DATA_DIR.glob("*.json"))


def test_non_string_case_tag_exit_two(files, tmp_path, capsys):
    doc = tmp_path / "list_tag.json"
    doc.write_text(json.dumps({"case": ["delzant"], "data": {}}))
    for verb in DESCRIPTION_VERBS:
        argv = [verb, str(doc)] + ([files["orbits"]] if verb == "compare"
                                   else [])
        assert main(argv) == 2, verb
        assert "unknown case tag" in capsys.readouterr().err


@pytest.mark.parametrize("data", [[1], "x"], ids=["list", "string"])
def test_datum_verbs_reject_non_object_data(tmp_path, capsys, data):
    doc = tmp_path / "orbits.json"
    doc.write_text(json.dumps({"case": "symplectic_orbits", "data": data}))
    for verb in ("orbit-size", "canonical"):
        assert main([verb, str(doc)]) == 2, verb
        assert "missing data object" in capsys.readouterr().err


def test_compare_differing_moduli_under_cap_exits_one(tmp_path, capsys):
    # The genus-2 datum over (Z/4)^2 has 11,520 states; data of halves
    # have modulus 2, so the answer is "no" without closing either orbit.
    paths = []
    for name, free in (
            ("quarters", [["1/4", "0"], ["0", "1/4"], ["1/2", "1/4"],
                          ["1/4", "3/4"]]),
            ("halves", [["1/2", "0"], ["0", "0"], ["0", "1/2"],
                        ["0", "0"]])):
        path = tmp_path / (name + ".json")
        path.write_text(json.dumps({"case": "symplectic_orbits", "data": {
            "signature": {"genus": 2, "orders": []}, "dim": 2, "area": "1",
            "sigma_t": [["0", "1"], ["-1", "0"]], "free": free,
            "torsion": []}}))
        paths.append(str(path))
    assert main(["compare", *paths, "--max-states", "100"]) == 1
    assert "equivalent: false" in capsys.readouterr().out


def test_each_description_file_is_validated_once(monkeypatch, capsys):
    calls = []
    validate = classify4d.validate_description

    def counting(desc):
        calls.append(desc)
        return validate(desc)

    monkeypatch.setattr(classify4d, "validate_description", counting)
    for path in DATA:
        for verb in DESCRIPTION_VERBS:
            argv = [verb, str(path)] + ([str(path)] if verb == "compare"
                                        else [])
            calls.clear()
            main(argv)
            assert len(calls) == len(argv) - 1, argv
    capsys.readouterr()


# Per-case invariants that compare lists between "case_match" and
# "equivalent" when both files have the same case.
BREAKDOWN_KEYS = {
    "delzant": [],
    "product_t2s2": ["torus_area_match", "sphere_area_match"],
    "lagrangian_free": ["lattice_match", "cocycle_match"],
    "symplectic_orbits": ["signature_match", "area_match",
                          "vertical_form_match"],
}


def test_compare_breakdown_on_every_pair_of_sample_files(capsys):
    for first in DATA:
        for second in DATA:
            code = main(["compare", str(first), str(second),
                         "--format", "json"])
            doc = json.loads(capsys.readouterr().out)
            tags = [json.loads(p.read_text())["case"]
                    for p in (first, second)]
            same = tags[0] == tags[1]
            middle = BREAKDOWN_KEYS[tags[0]] if same else []
            if first == second and tags[0] == "symplectic_orbits":
                # The orbit check ran, and names the invariants it read.
                middle = middle + ["k_match", "omega_match"]
            assert list(doc) == ["case", "case_match"] + middle + [
                "equivalent"], (first.name, second.name)
            assert doc["case"] == tags
            assert doc["case_match"] is same
            # The sample files are pairwise inequivalent.
            assert doc["equivalent"] is (first == second)
            assert code == (0 if first == second else 1)


def test_datum_verbs_validate_the_whole_description(tmp_path, capsys):
    doc = json.loads((DATA_DIR / "case4_orbits.json").read_text())
    doc["data"]["area"] = "-1"
    path = tmp_path / "negative_area.json"
    path.write_text(json.dumps(doc))
    for verb in ("validate", "orbit-size", "canonical"):
        assert main([verb, str(path)]) == 1, verb
        assert "total area must be positive" in capsys.readouterr().err


def test_back_to_back_calls_leak_no_values(files, capsys):
    assert main(["orbit-size", files["orbits"], "--max-states", "2"]) == 2
    assert "resource limit" in capsys.readouterr().err
    assert main(["orbit-size", files["orbits"]]) == 0
    assert capsys.readouterr().out == "orbit size: 6\n"
    assert main(["classify", files["orbits"], "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["case"] == 4
    assert main(["classify", files["orbits"]]) == 0
    assert capsys.readouterr().out == "case 4 (symplectic_orbits)\n"
    assert main(["homology", "--signature", "1:2"]) == 0
    capsys.readouterr()
    assert main(["homology"]) == 2
    assert "needs --signature" in capsys.readouterr().err


def test_lagrangian_compare_checks_the_lattice_once(monkeypatch, capsys):
    calls = []
    same_lattice = lagrangian.same_lattice

    def counting(ing1, ing2):
        calls.append(1)
        return same_lattice(ing1, ing2)

    monkeypatch.setattr(lagrangian, "same_lattice", counting)
    monkeypatch.setattr(classify4d, "same_lattice", counting)
    path = str(DATA_DIR / "case3_lagrangian.json")
    assert main(["compare", path, path]) == 0
    assert "lattice match: True" in capsys.readouterr().out
    assert len(calls) == 1


@pytest.mark.parametrize("argv", [
    ["validate", "{bad}"], ["classify", "{bad}"], ["model", "{bad}"],
    ["splits", "{bad}"], ["canonical", "{bad}"], ["orbit-size", "{bad}"],
    ["compare", "{bad}", "{good}"], ["compare", "{good}", "{bad}"],
])
def test_non_utf8_file_is_a_parse_error(files, tmp_path, capsys, argv):
    bad = tmp_path / "not_utf8.json"
    bad.write_bytes(b'{"case": "product_t2s2", "data": {"torus_area": "1\xff'
                    b'\xfe", "sphere_area": "2"}}')
    argv = [a.format(bad=bad, good=files["product"]) for a in argv]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "not UTF-8" in err and str(bad) in err


def _orbits_file(path, genus, free, dim=2):
    path.write_text(json.dumps({"case": "symplectic_orbits", "data": {
        "signature": {"genus": genus, "orders": []}, "dim": dim,
        "area": "1", "sigma_t": [["0", "1"], ["-1", "0"]], "free": free,
        "torsion": []}}))
    return str(path)


def test_compare_names_the_span_and_omega(tmp_path, capsys):
    """Genus-2 data over (Z/7)^2: w = 1 against w = 3 on the same K, and
    against a cyclic K, where w is not compared."""
    zero = ["0", "0"]
    one, three, cyclic = (
        _orbits_file(tmp_path / (name + ".json"), 2,
                     [["1/7", "0"], second, zero, zero])
        for name, second in (("one", ["0", "1/7"]), ("three", ["0", "3/7"]),
                             ("cyclic", ["2/7", "0"])))
    assert main(["compare", one, three]) == 1
    assert "k match: True\nomega match: False\nequivalent: false\n" in (
        capsys.readouterr().out)
    assert main(["compare", one, cyclic, "--format", "json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["k_match"] is False and "omega_match" not in doc
    assert main(["compare", one, one, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["k_match"] is doc["omega_match"] is doc["equivalent"] is True


def test_canonical_gate_answers_at_the_default_cap(tmp_path, capsys):
    """Orbits of 4,128,768 (g = 3) and 1,069,547,520 (g = 4) points:
    the least tuple is zeros and then the least genus-1 pair."""
    for genus in (3, 4):
        path = _orbits_file(tmp_path / "gate.json", genus,
                            [["1/4", "0"], ["0", "1/4"]]
                            + [["0", "0"]] * (2 * genus - 2))
        start = time.perf_counter()
        assert main(["canonical", path, "--format", "json"]) == 0
        assert time.perf_counter() - start < 1
        assert json.loads(capsys.readouterr().out)["canonical"] == (
            [["0", "0"]] * (2 * genus - 2) + [["0", "1/4"], ["3/4", "0"]])


def test_canonical_over_a_large_prime_is_bounded(tmp_path, capsys):
    """K = (Z/p)^2 for p = 1,000,003: the last image solves
    det(a_1, b_1) = w mod p directly rather than trying p values."""
    p = 1000003
    path = _orbits_file(tmp_path / "prime.json", 1,
                        [["1/%d" % p, "0"], ["0", "12345/%d" % p]])
    start = time.perf_counter()
    code = main(["canonical", path, "--format", "json"])
    assert time.perf_counter() - start < 15
    assert code in (0, 2)
    out = capsys.readouterr().out
    if code == 0:
        assert json.loads(out)["canonical"] == [
            ["0", "1/%d" % p], ["%d/%d" % (p - 12345, p), "0"]]


def _orbits_doc(signature=None, **data):
    """A valid genus-0 symplectic_orbits document, with ``data`` keys
    replaced."""
    doc = {"case": "symplectic_orbits", "data": {
        "signature": {"genus": 0, "orders": [2, 2]}, "area": "1",
        "sigma_t": [["0", "1"], ["-1", "0"]], "dim": 2, "free": [],
        "torsion": [["1/2", "0"], ["1/2", "0"]]}}
    if signature is not None:
        doc["data"]["signature"] = signature
    doc["data"].update(data)
    return doc


def _lagrangian_doc(**data):
    """A valid lagrangian_free document, with ``data`` keys replaced."""
    doc = {"case": "lagrangian_free", "data": {
        "P_basis": [["1", "0"], ["0", "1"]], "c": ["0", "0"],
        "tau": [["0", "0"], ["0", "0"]]}}
    doc["data"].update(data)
    return doc


@pytest.mark.parametrize("doc,flags,exit_code,message", [
    (_orbits_doc(dim=3, torsion=[["1/2", "0", "0"], ["1/2", "0", "0"]]),
     [], 1, "datum must live in a 2-torus"),
    (_orbits_doc(sigma_t=[["0", "1", "0"], ["-1", "0", "0"],
                          ["0", "0", "0"]]),
     [], 1, "vertical form must be a 2x2 matrix"),
    (_lagrangian_doc(c=["0", "0", "0"]), [], 2, "c must be a 2-vector"),
    (_lagrangian_doc(P_basis=[["1", "0"], ["0", "1"], ["0", "0"]]), [], 2,
     "P_basis must be a 2x2 matrix"),
    (_lagrangian_doc(tau=[["0", "0"]]), [], 2,
     "tau must hold two 2-vectors"),
    (_orbits_doc(signature={"orders": [2, 2]}), [], 2,
     "missing 'genus' in signature"),
    (_orbits_doc(signature={"genus": "0", "orders": [2, 2]}), [], 2,
     "genus must be an integer at signature"),
    (_orbits_doc(), ["--max-states", "abc"], SystemExit(2),
     "expected an integer"),
], ids=["dim-3", "sigma-3x3", "c-3", "basis-3x2", "tau-1", "no-genus",
        "string-genus", "max-states-abc"])
def test_malformed_input_exit_codes(tmp_path, capsys, doc, flags, exit_code,
                                    message):
    """Each malformed document or flag fails with its exit code: 1 for a
    description that parses but is invalid, 2 for one that does not
    parse, and argparse's SystemExit(2) for a bad flag value."""
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    argv = ["orbit-size" if flags else "validate", str(path), *flags]
    if isinstance(exit_code, SystemExit):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == exit_code.code
    else:
        assert main(argv) == exit_code
    assert message in capsys.readouterr().err
