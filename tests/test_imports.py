"""What importing genlab loads: the package is lazy, and a run imports each
experiment kind's modules when it validates that kind, before any worker
forks.  Every check runs in a fresh interpreter, whose ``sys.modules``
nothing else has filled."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# every name the package re-exported when it imported all its modules eagerly
EXPORTED = {
    "groups": ["Braid3", "FiniteSample", "FreeGroup", "FreeProductZ2Z3", "GeneratingSet", "GeneratorAlphabet",
               "GroupElement", "GroupModel", "make_model"],
    "balls": ["BallCensus", "BallIndex", "center_coset_census", "enumerate_ball", "free_ball_count",
              "free_sphere_count", "geodesic_representative", "translation_length", "word_distance"],
    "spaces": ["BassSerreTree", "CayleyTree", "FiniteGraph", "Geodesic", "GroupAction", "MetricSpaceModel",
               "OrbitSegment", "axis_basepoint", "build_bass_serre_tree", "build_cayley_tree", "cycle_graph",
               "grid_graph", "load_edge_list", "measure_delta"],
    "ledger": ["ConstantLedger"],
    "alignment": ["AlignmentReport", "ProjectionSet", "aligned_subsegments", "behrstock_dichotomy",
                  "chain_alignment", "check_alignment", "fellow_traveling", "gromov_product", "hausdorff_distance",
                  "project"],
    "contraction": ["ContractionProfile", "WpdCensus", "lipschitz_projection_bound", "measure_scaled_ledger",
                    "select_linkage", "strong_contraction_check", "weak_contraction_profile", "wpd_census"],
    "census": ["Classification", "FiberReport", "GenericityCurve", "SegmentTable", "a_thick_certify",
               "a_thick_search", "classify", "exponential_negligibility_probe",
               "fiber_census", "free_group_threshold_count", "genericity_experiment", "replacement_map",
               "single_replacement_fibers"],
}

# one small experiment of each kind
SMALL = {
    "enumerate": {"model": "free:2", "radius": 3},
    "classify": {"model": "braid3", "words": ["a", "aB"]},
    "genericity": {"model": "braid3", "radius": 3},
    "fibers": {"model": "zz23", "phi": "xy", "n_values": [4]},
    "verify-lemmas": {"trials": 4},
    "probe-negligibility": {"model": "free:2", "n_values": [3]},
}

PRELUDE = """
import json, sys

def loaded():
    return sorted(m for m in sys.modules if m == "genlab" or m.startswith("genlab."))
"""


def _fresh(script: str, *args: str):
    """Run ``script`` in a new interpreter on the package in ``src`` and
    return the JSON it prints last."""
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", PRELUDE + textwrap.dedent(script), *args], cwd=ROOT,
                          env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_ball_workload_validates_without_the_census_modules():
    loaded = _fresh("""
        import genlab.cli
        with open("perfbench/workloads/ball.json") as fh:
            genlab.cli.validate_config(json.load(fh))
        print(json.dumps(loaded()))
    """)
    assert "genlab.balls" in loaded
    for name in ("census", "lemmas", "contraction", "alignment", "ledger", "spaces"):
        assert f"genlab.{name}" not in loaded


@pytest.mark.parametrize("kind", sorted(SMALL))
def test_a_run_imports_nothing_that_validation_did_not(kind, tmp_path):
    doc = {"experiments": [{"kind": kind, "name": "x", **SMALL[kind]}]}
    validated, ran = _fresh("""
        from pathlib import Path
        from genlab import cli
        doc = json.loads(sys.argv[1])
        cli.validate_config(doc)
        validated = loaded()
        code = cli.run(doc, Path(sys.argv[2]), 0, "scaled", None, workers=1)
        assert code == 0, code
        print(json.dumps([validated, loaded()]))
    """, json.dumps(doc), str(tmp_path / "out"))
    assert ran == validated
    assert "genlab.groups" in validated


def test_the_package_exports_resolve_on_first_access():
    report = _fresh("""
        import importlib
        import genlab
        bare = loaded()
        submodules = [genlab.census.__name__]  # not loaded yet
        exported = json.loads(sys.argv[1])
        missing = []
        for module, names in exported.items():
            home = importlib.import_module(f"genlab.{module}")
            for name in names:
                bound = {}
                exec(f"from genlab import {name}", bound)
                if not getattr(genlab, name) is bound[name] is getattr(home, name):
                    missing.append(name)
        star = {}
        exec("from genlab import *", star)
        try:
            genlab.no_such_name
        except AttributeError:
            unknown = "AttributeError"
        else:
            unknown = None
        print(json.dumps({"bare": bare, "missing": missing, "dir": dir(genlab), "star": sorted(star),
                          "submodules": submodules, "unknown": unknown}))
    """, json.dumps(EXPORTED))
    names = {name for names in EXPORTED.values() for name in names}
    assert report["bare"] == ["genlab"]  # importing the package loads none of its modules
    assert report["missing"] == []
    assert names <= set(report["dir"])
    assert names <= set(report["star"])
    assert report["submodules"] == ["genlab.census"]
    assert report["unknown"] == "AttributeError"


def test_a_run_in_workers_imports_no_process_pool(tmp_path):
    doc = {"experiments": [{"kind": "enumerate", "name": f"e{r}", "model": "free:2", "radius": r} for r in (3, 4)]}
    sizes, code, pools = _fresh("""
        from pathlib import Path
        from genlab import cli
        sizes, fork_map = [], cli._fork_map
        cli._fork_map = lambda size, fn, items: sizes.append(size) or fork_map(size, fn, items)
        cli._usable_cores = lambda: 2  # workers even on one core
        code = cli.run(json.loads(sys.argv[1]), Path(sys.argv[2]), 0, "scaled", None, workers=2)
        print(json.dumps([sizes, code, [m for m in ("multiprocessing", "concurrent.futures") if m in sys.modules]]))
    """, json.dumps(doc), str(tmp_path / "out"))
    assert (sizes, code) == ([2], 0)
    assert pools == []


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("kind", sorted(SMALL))
def test_a_run_never_loads_hashlib(kind, workers, tmp_path):
    # hashlib loads OpenSSL's libcrypto; the manifest's digests come from
    # the interpreter's built-in SHA-256.  Two experiments, so that two
    # workers fork; each worker checks its own modules too.
    doc = {"experiments": [{"kind": kind, "name": f"x{i}", **SMALL[kind]} for i in range(2)]}
    before, sizes, code, after = _fresh("""
        from pathlib import Path
        HASHLIB = ("hashlib", "_hashlib")
        before = [m for m in HASHLIB if m in sys.modules]
        from genlab import cli
        run_one, fork_map, sizes = cli._run_one, cli._fork_map, []

        def checked(exp, seed, budget):
            outcome = run_one(exp, seed, budget)
            loaded = [m for m in HASHLIB if m in sys.modules and m not in before]
            assert not loaded, f"{exp.name} loaded {loaded}"
            return outcome

        cli._run_one = checked
        cli._fork_map = lambda size, fn, items: sizes.append(size) or fork_map(size, fn, items)
        cli._usable_cores = lambda: 2  # workers even on one core
        code = cli.run(json.loads(sys.argv[1]), Path(sys.argv[2]), 0, "scaled", None, workers=int(sys.argv[3]))
        print(json.dumps([before, sizes, code, [m for m in HASHLIB if m in sys.modules]]))
    """, json.dumps(doc), str(tmp_path / "out"), str(workers))
    assert (sizes, code) == ([2] if workers == 2 else [], 0)
    assert set(after) <= set(before)
