"""Tests of the benchmark harness itself (not of genlab).

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import run
from tracer import BOUNDARIES, Tracer, metric_unit

from genlab import alignment, balls, census, cli, groups, spaces

ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture
def tracer():
    t = Tracer()
    t.install()
    try:
        yield t
    finally:
        if t.patched:
            t.uninstall()


def test_install_patches_by_name_imports_and_uninstall_restores_all():
    originals = {
        "census.geodesic_representative": census.geodesic_representative,
        "contraction.word_distance": sys.modules["genlab.contraction"].word_distance,
        "FreeGroup.mul_keys": vars(groups.FreeGroup)["mul_keys"],
        "CayleyTree.distance": vars(spaces.CayleyTree)["distance"],
    }
    t = Tracer()
    t.install()
    try:
        patched = t.patched
        assert census.geodesic_representative is balls.geodesic_representative
        assert census.geodesic_representative.__wrapped__ is originals["census.geodesic_representative"]
        assert vars(groups.FreeGroup)["mul_keys"] is not originals["FreeGroup.mul_keys"]
        cli.run({"experiments": [{"kind": "enumerate", "name": "b", "model": "free:2", "radius": 2}]},
                Path(ROOT / ".perfbench" / "test-out"), 0, "scaled", None)
    finally:
        t.uninstall()
    assert len(patched) >= len(BOUNDARIES)
    for owner, attr, original in patched:
        assert vars(owner)[attr] is original, f"{owner!r}.{attr}"
    assert census.geodesic_representative is originals["census.geodesic_representative"]
    assert sys.modules["genlab.contraction"].word_distance is originals["contraction.word_distance"]
    assert vars(groups.FreeGroup)["mul_keys"] is originals["FreeGroup.mul_keys"]
    assert vars(spaces.CayleyTree)["distance"] is originals["CayleyTree.distance"]
    assert not t.patched


def test_dedup_ratio_and_nodes_match_sphere_counts(tracer):
    f2 = groups.FreeGroup(2)
    balls.enumerate_ball(f2, f2.standard_gens(), 3)
    tracer.uninstall()
    spheres = [checks.free_sphere_count(2, r) for r in range(4)]  # 1, 4, 12, 36
    new = sum(spheres) - 1
    candidates = 4 * sum(spheres[:-1])  # every element of B(2) times 4 generators
    got = tracer.results()
    assert got["balls.enumerate_ball.nodes"] == sum(spheres) == 53
    assert got["balls.enumerate_ball.dedup_ratio"] == new / candidates == 52 / 68
    # every candidate product is one mul_keys call made by the BFS itself
    assert got["groups.mul_keys.calls"] == candidates


def test_closed_form_ratio_counts_calls_without_search(tracer):
    f2 = groups.FreeGroup(2)
    b3 = groups.make_model("braid3")
    a, b = f2.element("a"), f2.element("abAB")
    assert balls.word_distance(f2, f2.standard_gens(), a, b, 10) == 3  # a^-1 abAB = bAB
    assert balls.word_distance(f2, f2.standard_gens(), a, a, 10) == 0
    x, y = b3.element("a"), b3.element("aba")
    assert balls.word_distance(b3, b3.standard_gens(), x, y, 10) == 2
    tracer.uninstall()
    got = tracer.results()
    assert got["balls.word_distance.calls"] == 3
    # the two F2 calls need no search; the braid3 one runs the bidirectional BFS
    assert got["balls.word_distance.closed_form_ratio"] == 2 / 3


def test_distance_per_call_is_two_on_tree_projections(tracer):
    tree = spaces.CayleyTree(2)
    g1 = tree.geodesic((), (1, 1, 2))
    g2 = tree.geodesic((1, 2), (1, 2, -1, -2, -2))
    report = alignment.check_alignment(tree, [g1, g2], 3)
    for x in [(2,), (1, 1, 1), (-1, 2)]:
        alignment.project(tree, x, g1)
    tracer.uninstall()
    got = tracer.results()
    assert got["alignment.project.calls"] == 4 + 3
    assert got["alignment.project.distance_per_call"] == 2
    assert got["alignment.check_alignment.calls"] == 1
    assert got["alignment.check_alignment.aligned_ratio"] == (1.0 if report.aligned else 0.0)


def test_self_time_excludes_timed_callees(tracer):
    f2 = groups.FreeGroup(2)
    census.genericity_experiment(f2, spaces.build_cayley_tree(2)[1], f2.standard_gens(), 4)
    tracer.uninstall()
    got = tracer.results()
    assert got["census.genericity_experiment.calls"] == 1
    inner = got["balls.enumerate_ball.total_s"]
    outer = got["census.genericity_experiment.total_s"]
    assert got["census.genericity_experiment.self_s"] == pytest.approx(outer - inner, abs=1e-6)
    spans = tracer.span_records()
    parent = next(s for s in spans if s["name"] == "census.genericity_experiment")
    child = next(s for s in spans if s["name"] == "balls.enumerate_ball")
    assert child["parent"] == parent["id"] and parent["start"] <= child["start"] <= child["end"] <= parent["end"]


def test_traced_outputs_are_byte_identical(tmp_path):
    doc = {"experiments": [
        {"kind": "fibers", "name": "fib", "model": "zz23", "phi": "xy", "n_values": [8],
         "ledger": {"dominating": "1", "segment_length": 2, "window": ["1/4", "2/5"], "cut_window": ["1/4", "2/5"]}},
        {"kind": "genericity", "name": "gen", "model": "braid3", "radius": 5},
    ]}
    assert cli.run(doc, tmp_path / "plain", 3, "scaled", None) == 0
    t = Tracer()
    t.install()
    try:
        assert cli.run(doc, tmp_path / "traced", 3, "scaled", None) == 0
    finally:
        t.uninstall()
    assert run._digests(tmp_path / "plain") == run._digests(tmp_path / "traced")
    assert t.results()["census.fiber_census.calls"] == 1


def test_benchmark_json_lists_every_layer_metric():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    t = Tracer()
    names = list(t.results()) + ["trace.overhead_ratio"]
    assert [m["name"] for m in doc["per_layer"]] == names
    assert all(m["unit"] == metric_unit(m["name"]) for m in doc["per_layer"])
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    for w in run.WORKLOADS:
        experiments = json.loads((ROOT / "perfbench" / "workloads" / f"{w}.json").read_text())["experiments"]
        assert all(e["kind"] in checks.OUTPUT_SUFFIXES for e in experiments)


def test_checks_free_sphere_count_matches_genlab():
    assert all(checks.free_sphere_count(k, r) == balls.free_sphere_count(k, r)
               for k in (1, 2, 3) for r in range(8))


def test_check_experiment_flags_missing_and_wrong_outputs(tmp_path):
    exp = {"kind": "fibers", "name": "braid3-aB"}
    assert checks.check_experiment(tmp_path, exp) == ["missing output braid3-aB.json", "missing output braid3-aB.csv"]
    reports = [{"n": 6, "domain": 309, "image": 12, "max_fiber": 47},
               {"n": 7, "domain": 640, "image": 38, "max_fiber": 30}]
    (tmp_path / "braid3-aB.csv").write_text("")
    (tmp_path / "braid3-aB.json").write_text(json.dumps({"reports": reports}))
    assert checks.check_experiment(tmp_path, exp) == []
    reports[1]["max_fiber"] = 31
    (tmp_path / "braid3-aB.json").write_text(json.dumps({"reports": reports}))
    assert len(checks.check_experiment(tmp_path, exp)) == 1


def test_highest_percentile_keeps_ten_samples_beyond():
    assert run.highest_percentile(list(range(10))) is None
    assert run.highest_percentile(list(range(1, 21))) == (50, 10)
    p, value = run.highest_percentile(list(range(1, 101)))
    assert p == 90 and value == 90 and sum(x > value for x in range(1, 101)) == 10


def test_run_fails_without_genlab_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "ball", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
