"""Tests of the benchmark itself: inputs, expected answers, metric names.

Run with the rest of the suite:

    PYTHONPATH=src python -m pytest -q perfbench
"""

import contextlib
import io
import json
import os
import random
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402
from worker import Loop  # noqa: E402

ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def read_tree(path):
    out = {}
    for base, _, files in os.walk(path):
        for name in files:
            full = os.path.join(base, name)
            with open(full, "rb") as fh:
                out[os.path.relpath(full, path)] = fh.read()
    return out


def benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(workload, tmp_path):
    workloads.generate(workload, 7, str(tmp_path / "a"))
    workloads.generate(workload, 7, str(tmp_path / "b"))
    workloads.generate(workload, 8, str(tmp_path / "c"))
    first = read_tree(str(tmp_path / "a"))
    assert first == read_tree(str(tmp_path / "b"))
    assert first != read_tree(str(tmp_path / "c"))


def cheap(req):
    """Requests that take well under a tenth of a second at the seed."""
    table = workloads.load_orbit_table()
    if req["subject"] in table:
        return table[req["subject"]]["size"] <= 500
    return not any(s in " ".join(req["argv"])
                   for s in ("zero_g4", "zero_g5", "lag_1000", "lag_3000"))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_expected_answers_hold_on_a_small_seed(workload, tmp_path):
    manifest = workloads.generate(workload, 3, str(tmp_path))
    cycle = [req for req in manifest["cycles"][0] if cheap(req)]
    assert len(cycle) >= 8
    loop = Loop(manifest, str(tmp_path))
    for req in cycle:
        _, problem = loop.execute(req)
        assert problem is None, (req["argv"], problem)


def test_catalog_mixes_every_case_verb_and_exit_code(tmp_path):
    manifest = workloads.generate("catalog", 3, str(tmp_path))
    cycle = manifest["cycles"][0]
    verbs = {req["argv"][0] for req in cycle}
    assert verbs == {"validate", "classify", "compare", "model", "splits",
                     "homology"}
    assert {req["expect"]["exit"] for req in cycle} == {0, 1, 2}


def test_every_orbit_cycle_holds_the_same_mix(tmp_path):
    manifest = workloads.generate("orbit", 5, str(tmp_path))

    def mix(cycle):
        return sorted((req["subject"],
                       req["argv"][0] if req["kind"] == "cli" else "orbit")
                      for req in cycle)

    mixes = [mix(cycle) for cycle in manifest["cycles"]]
    assert all(m == mixes[0] for m in mixes)


def test_generators_are_geometric_and_act_like_monodromy_act():
    from symtorus.intmat import IntMatrix, int_inverse
    from symtorus.monodromy import GeomMatrix, act, is_geometric_matrix
    from symtorus.orbisurface import FuchsianSignature
    from build_orbits import to_datum

    rng = random.Random(1)
    for shape in workloads.ORBIT_SHAPES + workloads.CATALOG_SHAPES:
        sig = FuchsianSignature(shape.genus, shape.orders)
        start = workloads.random_representative(rng, workloads.generators(
            shape.genus, shape.orders), shape.entries, shape.modulus)
        for rows in workloads.generators(shape.genus, shape.orders):
            assert is_geometric_matrix(IntMatrix(rows), sig)
            mine = workloads.apply_matrix(rows, start, shape.modulus)
            theirs = act(GeomMatrix(int_inverse(IntMatrix(rows)), sig),
                         to_datum(shape, start))
            assert theirs == to_datum(shape, mine)


def test_partners_differ_in_the_image_subgroup():
    for shape in workloads.ORBIT_SHAPES + workloads.CATALOG_SHAPES:
        if shape.partner is None:
            continue
        partner = shape.partner[0] + shape.partner[1]
        assert (workloads.image_span(shape.entries, shape.modulus)
                != workloads.image_span(partner, shape.modulus))


def test_orbit_table_covers_every_shape():
    table = workloads.load_orbit_table()
    assert set(table) == {shape.name for shape in workloads.ORBIT_SHAPES}
    for shape in workloads.ORBIT_SHAPES:
        known = table[shape.name]
        assert len(known["canonical"]) == len(shape.entries)
        assert known["size"] >= 1


def test_tau_closed_form_matches_extend_tau():
    from symtorus.lagrangian import LagrangianFreeIngredients, extend_tau
    from symtorus.torus import TorusElement

    rng = random.Random(2)
    for _ in range(20):
        cols, cval, tau = workloads.random_lagrangian(rng, rng.random() < .5)
        f1, f2 = cols
        ing = LagrangianFreeIngredients(
            ((f1[0], f2[0]), (f1[1], f2[1])), cval,
            tuple(TorusElement(t) for t in tau))
        m, k = rng.randint(-6, 6), rng.randint(-6, 6)
        closed = workloads.tau_closed_form(cols, cval, tau, m, k)
        assert extend_tau(ing, m, k).coords == closed


def test_homology_oracle_matches_first_orbifold_homology():
    from symtorus.orbisurface import first_orbifold_homology, \
        normalize_signature

    rng = random.Random(3)
    for _ in range(40):
        genus = rng.randint(0, 3)
        orders = [rng.randint(2, 30) for _ in range(rng.randint(0, 8))]
        group = first_orbifold_homology(normalize_signature(genus, orders))
        assert workloads.homology_oracle(genus, orders) == (
            group.free_rank, list(group.factors))


def test_delzant_polygons_are_valid():
    from symtorus.classify4d import DelzantPolygon, validate_delzant

    rng = random.Random(4)
    for n in range(3, 13):
        verts = workloads.delzant_polygon(rng, n)
        assert len(verts) == n
        assert validate_delzant(DelzantPolygon(tuple(verts)))
        assert validate_delzant(DelzantPolygon(tuple(
            workloads.moved_polygon(rng, verts))))


def test_tracer_wraps_every_binding_and_restores_them():
    from symtorus import intmat, monodromy

    original = intmat.int_inverse
    tracer = Tracer()
    tracer.install()
    try:
        assert monodromy.int_inverse is intmat.int_inverse
        assert intmat.int_inverse is not original
        monodromy.group_generators(monodromy.FuchsianSignature(1, (2, 2)))
    finally:
        tracer.uninstall()
    assert intmat.int_inverse is original
    assert monodromy.int_inverse is original
    names = {span[0] for span in tracer.spans}
    assert "monodromy.group_generators" in names
    assert "intmat.elementary_symplectic" in names
    summary = tracer.summary(1)
    assert summary["monodromy.generators"][0] == 7


def test_tracer_wraps_dispatch_tables_and_class_methods():
    from symtorus import cli
    from symtorus.intmat import IntMatrix

    handler = cli.COMMANDS["homology"][0]
    init = IntMatrix.__init__
    tracer = Tracer()
    tracer.install()
    try:
        assert cli.COMMANDS["homology"][0] is not handler
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["homology", "--signature", "1:2,4",
                             "--format", "json"]) == 0
    finally:
        tracer.uninstall()
    assert cli.COMMANDS["homology"][0] is handler
    assert IntMatrix.__init__ is init
    names = {span[0] for span in tracer.spans}
    assert {"cli.main", "cli.cmd_homology",
            "intmat.IntMatrix.__init__"} <= names


def test_benchmark_json_names():
    spec = benchmark_json()
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert all(NAME.match(n) for n in names)
    assert len(names) == len(set(names))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_every_named_metric_is_emitted_with_its_unit(trace, key):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         "catalog", "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in benchmark_json()[key]}
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == expected
    assert all(isinstance(m["value"], float) for m in
               result["metrics"].values())


def test_exits_nonzero_without_the_program(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in os.listdir(HERE):
        if name.endswith((".py", ".json")):
            (bench / name).write_bytes(open(os.path.join(HERE, name),
                                            "rb").read())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "orbit", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout == ""
