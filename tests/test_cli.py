"""Config validation, experiment runs, manifests, reproducibility."""

import hashlib
import json
import os
import pickle
import resource
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import genlab
from genlab import cli
from genlab.cli import ConfigError, main, run, validate_config


def _hashes(out_dir: Path) -> dict:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.iterdir())
    }


def test_empty_experiment_list(tmp_path):
    assert run({"experiments": []}, tmp_path, 0, "scaled", None) == 0
    doc = json.loads((tmp_path / "manifest.json").read_text())
    assert doc["outputs"] == []


def test_validation_errors(tmp_path):
    with pytest.raises(ConfigError) as err:
        validate_config({"experiments": [{"kind": "nope"}]})
    assert "$.experiments[0].kind" in str(err.value)
    with pytest.raises(ConfigError):
        validate_config({"experiments": "x"})
    # invalid generator word surfaces the word and exits 2 through main
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"experiments": [
        {"kind": "enumerate", "model": "free:2", "gens": ["aA"], "radius": 2}
    ]}))
    assert main(["--config", str(cfg), "--out-dir", str(tmp_path / "o")]) == 2


def test_identity_generator_word_rejected(tmp_path):
    cfg = {"experiments": [{"kind": "classify", "model": "braid3", "words": ["xq"]}]}
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    assert main(["--config", str(path), "--out-dir", str(tmp_path / "o")]) == 2


def test_enumerate_and_manifest(tmp_path):
    doc = {"experiments": [
        {"kind": "enumerate", "name": "f2ball", "model": "free:2", "radius": 5},
        {"kind": "classify", "name": "braids", "model": "braid3", "words": ["a", "aB", "ab"]},
    ]}
    assert run(doc, tmp_path, 1, "scaled", None) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert {o["path"] for o in manifest["outputs"]} >= {"f2ball.csv", "f2ball.json", "braids.json"}
    for entry in manifest["outputs"]:
        if entry["path"] == "manifest.json":
            continue
        digest = hashlib.sha256((tmp_path / entry["path"]).read_bytes()).hexdigest()
        assert digest == entry["sha256"]
    verdicts = json.loads((tmp_path / "braids.json").read_text())
    assert [v["verdict"] for v in verdicts] == ["reducible", "pseudoAnosov", "periodic"]


@pytest.mark.parametrize("size", [0, 1, 55, 56, 64, 65, 1 << 20])
def test_manifest_digests_are_hashlib_sha256(size):
    # the built-in SHA-256 around SHA-256's 64-byte block and its padding
    # boundary (55/56 bytes), and on a megabyte
    data = bytes((i * 131 + size) % 256 for i in range(size))
    assert cli.sha256(data).hexdigest() == hashlib.sha256(data).hexdigest()


def test_budget_truncation_exit_code(tmp_path):
    doc = {"experiments": [{"kind": "enumerate", "model": "free:2", "radius": 9}]}
    assert run(doc, tmp_path, 0, "scaled", 64) == 3
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["partial"]


def test_reproducible_bytes_and_workers(tmp_path):
    doc = {"experiments": [
        {"kind": "enumerate", "name": "ball", "model": "free:2", "radius": 5, "keep_elements": True},
        {"kind": "genericity", "name": "curve", "model": "braid3", "radius": 5},
        {"kind": "probe-negligibility", "name": "probe", "model": "free:2", "n_values": [2, 4]},
    ]}
    out1, out2, out3 = tmp_path / "r1", tmp_path / "r2", tmp_path / "r3"
    assert run(doc, out1, 7, "scaled", None, workers=1) == 0
    assert run(doc, out2, 7, "scaled", None, workers=1) == 0
    assert run(doc, out3, 7, "scaled", None, workers=4) == 0
    assert _hashes(out1) == _hashes(out2) == _hashes(out3)


def test_fibers_experiment(tmp_path):
    doc = {"experiments": [{
        "kind": "fibers", "name": "fib", "model": "zz23", "phi": "xy",
        "n_values": [8],
        "ledger": {"dominating": "1", "segment_length": 2,
                   "window": ["1/4", "2/5"], "cut_window": ["1/4", "2/5"]},
    }]}
    assert run(doc, tmp_path, 0, "scaled", None) == 0
    report = json.loads((tmp_path / "fib.json").read_text())
    assert report["reports"][0]["n"] == 8
    assert (tmp_path / "fib.csv").read_text().startswith("n,domain,image,max_fiber")


def test_verify_lemmas_experiment(tmp_path):
    doc = {"experiments": [{"kind": "verify-lemmas", "name": "vl", "trials": 30}]}
    assert run(doc, tmp_path, 2, "scaled", None) == 0
    out = json.loads((tmp_path / "vl.json").read_text())
    assert out["appendix"]["failures"] == {}
    assert out["concatenation"]["failures"] == 0
    assert "suite" in (tmp_path / "vl.txt").read_text()


def test_faithful_profile_rejected_for_fibers(tmp_path):
    doc = {"experiments": [{
        "kind": "fibers", "model": "zz23", "phi": "xy", "n_values": [8],
    }]}
    with pytest.raises(ConfigError):
        run(doc, tmp_path, 0, "faithful", None)


def test_faithful_profile_rejected_before_any_experiment_runs(tmp_path, capsys):
    # the enumerate experiment listed first must not write its outputs
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiments": [
        {"kind": "enumerate", "name": "e", "model": "free:2", "radius": 2},
        {"kind": "fibers", "name": "f", "model": "zz23", "phi": "xy", "n_values": [8]},
    ]}))
    out = tmp_path / "out"
    out.mkdir()
    assert main(["--config", str(cfg), "--profile", "faithful", "--out-dir", str(out), "run"]) == 2
    assert "faithful" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_faithful_profile_rejected_for_verify_lemmas(tmp_path, capsys):
    # the suite's ledgers are measured, so a "faithful" label would be false
    out = tmp_path / "out"
    assert main(["--profile", "faithful", "--out-dir", str(out), "verify-lemmas", "--trials", "5"]) == 2
    assert "faithful" in capsys.readouterr().err
    assert not out.exists()


def test_elliptic_phi_is_a_config_error(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["--out-dir", str(out), "fibers", "--model", "zz23", "--phi", "x", "--n-values", "4"]) == 2
    assert "config error at $.experiments[0].phi" in capsys.readouterr().err
    assert not out.exists()
    # the model's default phi is loxodromic, so a config may leave it out
    for model in ("free:2", "zz23", "braid3"):
        validate_config({"experiments": [{"kind": "fibers", "model": model, "n_values": [4]}]})


def test_ledger_budget_overrun_exits_3(tmp_path):
    # under gens {a, b, c, ab} no closed form hides the ledger's searches:
    # an unbounded ledger runs for minutes and gigabytes, a bounded one stops
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiments": [{
        "kind": "fibers", "name": "fib", "model": "free:3", "gens": ["a", "b", "c", "ab"],
        "phi": "acbcac", "n_values": [6],
    }]}))
    out = tmp_path / "out"
    src = str(Path(genlab.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    limit = 1536 * 2**20

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    proc = subprocess.run([sys.executable, "-m", "genlab.cli", "--config", str(cfg), "--out-dir", str(out),
                           "--budget-nodes", "10", "run"],
                          env=env, capture_output=True, text=True, timeout=60, preexec_fn=cap_memory)
    assert proc.returncode == 3, proc.stderr
    assert json.loads((out / "manifest.json").read_text())["partial"]
    assert json.loads((out / "fib.json").read_text()) == {"ledger": None, "reports": []}
    assert (out / "fib.csv").read_text() == "n,domain,image,max_fiber,sqrt_ratio\n"


def test_orbit_segment_beyond_the_budget_exits_3(tmp_path):
    # a segment of 10^8 points outgrows the budget before it is built; run
    # capped, so a segment that is built fails the test, not the machine
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiments": [{
        "kind": "fibers", "name": "fib", "model": "zz23", "phi": "xy", "n_values": [4],
        "ledger": {"segment_length": 10**8},
    }]}))
    out = tmp_path / "out"
    src = str(Path(genlab.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    limit = 1024 * 2**20

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    proc = subprocess.run([sys.executable, "-m", "genlab.cli", "--config", str(cfg), "--out-dir", str(out),
                           "--budget-nodes", "1000", "run"],
                          env=env, capture_output=True, text=True, timeout=60, preexec_fn=cap_memory)
    assert proc.returncode == 3, proc.stderr
    assert json.loads((out / "manifest.json").read_text())["partial"]
    assert json.loads((out / "fib.json").read_text()) == {"ledger": None, "reports": []}


@pytest.mark.parametrize("rank", [128, 200, 10**6])
def test_lemma_rank_beyond_byte_keys_exits_2(tmp_path, capsys, rank):
    assert _main_with_config(tmp_path, {"experiments": [{"kind": "verify-lemmas", "rank": rank}]}) == 2
    assert f"config error at $.experiments[0].rank: must be <= 127, got {rank}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()
    validate_config({"experiments": [{"kind": "verify-lemmas", "rank": 127}]})


def test_free_model_rank_beyond_byte_keys_is_a_config_error(tmp_path, capsys):
    doc = {"experiments": [{"kind": "enumerate", "model": "free:200", "radius": 1}]}
    assert _main_with_config(tmp_path, doc) == 2
    assert "config error at $.experiments[0].model: rank must be <= 127" in capsys.readouterr().err


@pytest.mark.parametrize("model_id", ["free: 2", "free:+2", "free:02", "free:\u0662", "free:2 ", "free:2\n",
                                      "Free:2", "free:0", "free:-2", "free:", "free:2.0", "free:27", "free:30",
                                      "free:127", "zz23 ", "BRAID3"])
def test_model_id_has_one_spelling(tmp_path, capsys, model_id):
    # only free:[1-9][0-9]* (rank at most 26), zz23 and braid3 name a model
    doc = {"experiments": [{"kind": "enumerate", "model": model_id, "radius": 1}]}
    assert _main_with_config(tmp_path, doc) == 2
    assert "config error at $.experiments[0].model: " in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_config_error_survives_pickling():
    err = pickle.loads(pickle.dumps(ConfigError("$.x", "m")))
    assert (type(err), str(err), err.path) == (ConfigError, "config error at $.x: m", "$.x")


@pytest.mark.parametrize("workers", [0, -3])
def test_workers_below_one_exits_2(tmp_path, capsys, workers):
    out = tmp_path / "out"
    assert main(["--out-dir", str(out), "--workers", str(workers), "verify-lemmas", "--trials", "5"]) == 2
    assert "config error at --workers" in capsys.readouterr().err
    assert not out.exists()


def test_negative_node_budget_exits_2(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["--out-dir", str(out), "--budget-nodes", "-5", "enumerate", "--model", "free:2", "--radius", "3"]) == 2
    assert "config error at --budget-nodes: must be >= 0, got -5" in capsys.readouterr().err
    assert not out.exists()


def test_zero_node_budget_is_partial(tmp_path):
    out = tmp_path / "out"
    assert main(["--out-dir", str(out), "--budget-nodes", "0", "enumerate", "--model", "free:2", "--radius", "3"]) == 3
    assert json.loads((out / "manifest.json").read_text())["partial"]


def _assert_no_child_left():
    # waitpid(-1) raises only when this process has no child, running or not reaped
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_pool_is_bounded_by_the_experiment_count(tmp_path, monkeypatch):
    sizes = []
    fork_map = cli._fork_map

    def spy(size, fn, items):
        sizes.append(size)
        assert size <= 2  # checked before any process starts
        return fork_map(size, fn, items)

    monkeypatch.setattr(cli, "_fork_map", spy)
    monkeypatch.setattr(cli, "_usable_cores", lambda: 64)  # so the experiment count is the bound
    doc = {"experiments": [
        {"kind": "enumerate", "name": "ball", "model": "free:2", "radius": 4},
        {"kind": "genericity", "name": "curve", "model": "braid3", "radius": 4},
    ]}
    assert run(doc, tmp_path / "one", 3, "scaled", None, workers=1) == 0
    assert sizes == []  # one worker runs in this process
    assert run(doc, tmp_path / "many", 3, "scaled", None, workers=10**6) == 0
    assert sizes == [2]
    _assert_no_child_left()
    assert _hashes(tmp_path / "one") == _hashes(tmp_path / "many")


@pytest.mark.parametrize("error", [ConfigError("$.x", "boom"), RuntimeError("boom")], ids=["config", "runtime"])
def test_runner_failure_is_the_same_in_workers(tmp_path, monkeypatch, error):
    def fail(*args):
        raise error

    monkeypatch.setitem(cli._RUNNERS, "genericity", fail)  # forked workers inherit it
    monkeypatch.setattr(cli, "_usable_cores", lambda: 2)  # a pool even on one core
    doc = {"experiments": [
        {"kind": "enumerate", "name": "before", "model": "free:2", "radius": 3},
        {"kind": "genericity", "name": "curve", "model": "braid3", "radius": 4},
        {"kind": "enumerate", "name": "after", "model": "free:2", "radius": 3},
    ]}
    files = []
    for workers in (1, 2):
        out = tmp_path / f"w{workers}"
        with pytest.raises(type(error), match="boom"):
            run(doc, out, 0, "scaled", None, workers=workers)
        _assert_no_child_left()
        files.append(sorted(p.name for p in out.iterdir()))
    assert files[0] == files[1] == ["before.csv", "before.json"]


def test_a_worker_that_dies_makes_the_run_raise(tmp_path, monkeypatch):
    monkeypatch.setitem(cli._RUNNERS, "genericity", lambda *args: os._exit(3))
    monkeypatch.setattr(cli, "_usable_cores", lambda: 2)
    doc = {"experiments": [
        {"kind": "enumerate", "name": "before", "model": "free:2", "radius": 3},
        {"kind": "genericity", "name": "curve", "model": "braid3", "radius": 4},
        {"kind": "enumerate", "name": "after", "model": "free:2", "radius": 3},
    ]}
    with pytest.raises(RuntimeError, match="without sending its result"):
        run(doc, tmp_path, 0, "scaled", None, workers=2)
    _assert_no_child_left()
    assert not (tmp_path / "manifest.json").exists()


def test_fork_map_yields_in_order_and_kills_its_workers_when_closed():
    items = list(range(20000))  # more indices than a pipe holds at once
    results = cli._fork_map(2, lambda i: i * i, items)
    assert [next(results) for _ in range(10)] == [i * i for i in range(10)]
    results.close()  # both workers are still running or not yet reaped
    _assert_no_child_left()
    assert list(cli._fork_map(2, lambda i: -i, items)) == [-i for i in items]
    _assert_no_child_left()
    sizes = [3 * 2**20, 3, 2**21]  # results far larger than a pipe holds
    assert list(cli._fork_map(2, lambda n: "x" * n, sizes)) == ["x" * n for n in sizes]
    _assert_no_child_left()


def test_cli_single_subcommand(tmp_path):
    code = main([
        "--out-dir", str(tmp_path), "--seed", "2",
        "genericity", "--model", "braid3", "--radius", "4", "--name", "g",
    ])
    assert code == 0
    assert (tmp_path / "g.dat").exists()


def _main_with_config(tmp_path, doc) -> int:
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    return main(["--config", str(cfg), "--out-dir", str(tmp_path / "o")])


@pytest.mark.parametrize("doc", [
    [{"kind": "enumerate", "model": "free:2", "radius": 2}],
    {"experiments": [{"kind": "enumerate", "model": "free:2", "radius": "x"}]},
    {"experiments": [{"kind": "enumerate", "model": "free:2", "radius": -1}]},
    {"experiments": [{"kind": "genericity", "model": "braid3", "radius": -3}]},
    {"experiments": [{"kind": "genericity", "model": "free:2", "radius": 4, "word_threshold": "abc"}]},
    {"experiments": [{"kind": "genericity", "model": "free:2", "radius": 4, "word_threshold": float("inf")}]},
    {"experiments": [{"kind": "fibers", "model": "zz23", "n_values": [8, 2.5]}]},
    {"experiments": [{"kind": "probe-negligibility", "model": "free:2", "n_values": ["x"]}]},
    {"experiments": [{"kind": "probe-negligibility", "model": "free:2", "n_values": 6}]},
    {"experiments": ["enumerate"]},
    {"seed": [1], "experiments": []},
    {"seed": "abc", "experiments": []},
    {"seed": "1.5", "experiments": []},
    {"experiments": [{"kind": "fibers", "model": "zz23", "n_values": [8], "ledger": {"window": ["1/4"]}}]},
    {"experiments": [{"kind": "fibers", "model": "zz23", "n_values": [8], "ledger": {"dominating": "x"}}]},
    {"experiments": [{"kind": "enumerate", "model": "free:2", "radius": 2}, {"kind": "enumerate", "model": "nope", "radius": 2}]},
    {"experiments": [{"kind": "enumerate", "model": "free:2", "radius": 2, "gens": 5}]},
    {"experiments": [{"kind": "enumerate", "model": "free:2", "radius": 2, "gens": [5]}]},
    {"experiments": [{"kind": "fibers", "model": "zz23", "n_values": [8], "phi": 5}]},
    {"experiments": [{"kind": "classify", "model": "braid3", "words": 5}]},
    {"experiments": [{"kind": "classify", "model": "braid3", "words": ["a", 5]}]},
    {"experiments": [{"kind": "enumerate", "model": "free:2", "radius": 2},
                     {"kind": "fibers", "model": "free:1", "n_values": [4]}]},
    {"experiments": [{"kind": "enumerate", "model": "free:2", "radius": 2},
                     {"kind": "verify-lemmas", "rank": 1}]},
], ids=["top-level-list", "radius-string", "radius-negative", "genericity-radius-negative",
        "word-threshold", "word-threshold-infinite", "n-values-float", "n-values-string", "n-values-scalar",
        "experiment-not-object", "seed-list", "seed-word", "seed-decimal", "ledger-window", "ledger-dominating",
        "second-model-unknown", "gens-scalar", "gens-int-word", "phi-int", "words-scalar", "words-int",
        "fibers-rank-1", "lemmas-rank-1"])
def test_malformed_config_exits_2(tmp_path, doc, capsys):
    assert _main_with_config(tmp_path, doc) == 2
    assert "config error at $" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()  # rejected before any work starts


def test_rank_one_genericity_runs(tmp_path):
    doc = {"experiments": [{"kind": "genericity", "name": "curve", "model": "free:1", "radius": 4}]}
    assert _main_with_config(tmp_path, doc) == 0
    assert json.loads((tmp_path / "o" / "curve.json").read_text())["mode"] == "tree"


def test_string_seed_is_the_integer_seed(tmp_path):
    outputs = []
    for seed in ("7", 7):
        d = tmp_path / type(seed).__name__
        d.mkdir()
        doc = {"seed": seed, "experiments": [{"kind": "verify-lemmas", "name": "vl", "trials": 10}]}
        assert _main_with_config(d, doc) == 0
        manifest = json.loads((d / "o" / "manifest.json").read_text())
        assert manifest["seed"] == 7
        outputs.append(manifest["outputs"])
    assert outputs[0] == outputs[1]


def test_unreadable_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"experiments": [')
    assert main(["--config", str(cfg), "--out-dir", str(tmp_path / "o")]) == 2
    assert main(["--config", str(tmp_path / "missing.json"), "--out-dir", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.count("config error at $") == 2


def test_an_integer_past_the_digit_limit_exits_2(tmp_path, capsys):
    # json.loads raises a plain ValueError on an integer of more than 4300 digits
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"experiments": [{"kind": "enumerate", "model": "free:2", "radius": ' + "9" * 5000 + "}]}")
    assert main(["--config", str(cfg), "--out-dir", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith(f"config error at $: cannot read {cfg}: ")


_FIBERS = {"kind": "fibers", "model": "zz23", "n_values": [8]}


@pytest.mark.parametrize("exponent", ["1e999999999", "1e-999999999", "1E+1001"])
@pytest.mark.parametrize("field, exp", [
    ("word_threshold", {"kind": "genericity", "model": "free:2", "radius": 4, "word_threshold": "E"}),
    ("ledger.dominating", {**_FIBERS, "ledger": {"dominating": "E"}}),
    ("ledger.coeff", {**_FIBERS, "ledger": {"coeff": "E"}}),
    ("ledger.window[1]", {**_FIBERS, "ledger": {"window": ["1/4", "E"]}}),
    ("ledger.cut_window[0]", {**_FIBERS, "ledger": {"cut_window": ["E", "2/5"]}}),
], ids=["word-threshold", "dominating", "coeff", "window", "cut-window"])
def test_a_rational_with_a_long_exponent_exits_2(tmp_path, capsys, exponent, field, exp):
    # Fraction would build 10**exponent, so validation rejects the exponent
    # first; "E" marks the field that gets it
    doc = json.loads(json.dumps({"experiments": [exp]}).replace('"E"', json.dumps(exponent)))
    assert _main_with_config(tmp_path, doc) == 2
    assert capsys.readouterr().err.startswith(f"config error at $.experiments[0].{field}: must have an exponent ")


def test_a_rational_with_a_short_exponent_is_its_value():
    exp = {"kind": "genericity", "model": "free:2", "radius": 4}
    for text, value in (("1e1000", 10**1000), ("25e-2", Fraction(1, 4)), ("1E-1000", Fraction(1, 10**1000))):
        spec = validate_config({"experiments": [{**exp, "word_threshold": text}]})[0]
        assert spec.thresholds["word_threshold"] == value


def test_fibers_budget_is_partial(tmp_path):
    out = tmp_path / "o"
    code = main(["--out-dir", str(out), "--budget-nodes", "10", "fibers", "--model", "free:2", "--n-values", "6"])
    assert code == 3
    assert json.loads((out / "manifest.json").read_text())["partial"]
    assert json.loads((out / "fibers.json").read_text())["reports"] == []


def test_fibers_budget_skips_larger_n(tmp_path):
    doc = {"experiments": [{
        "kind": "fibers", "name": "fib", "model": "zz23", "phi": "xy",
        "n_values": [8, 12, 14, 9],
        "ledger": {"dominating": "1", "segment_length": 2,
                   "window": ["1/4", "2/5"], "cut_window": ["1/4", "2/5"]},
    }]}
    # a budget of 300 admits the zz23 balls #B(9) = 154 but not #B(12) = 442
    assert run(doc, tmp_path, 0, "scaled", 300) == 3
    reports = json.loads((tmp_path / "fib.json").read_text())["reports"]
    assert [r["n"] for r in reports] == [8, 9]
    assert json.loads((tmp_path / "manifest.json").read_text())["partial"]


def test_genericity_budget_is_partial(tmp_path):
    out = tmp_path / "o"
    code = main(["--out-dir", str(out), "--budget-nodes", "10", "genericity", "--model", "braid3", "--radius", "6"])
    assert code == 3
    assert json.loads((out / "manifest.json").read_text())["partial"]
    # #B(1) = 5 fits the budget, #B(2) does not: the curve stops at radius 1
    assert json.loads((out / "genericity.json").read_text())["radii"] == [0, 1]


def test_probe_budget_skips_larger_n(tmp_path):
    out = tmp_path / "o"
    # a budget of 100 admits the F2 ball #B(3) = 53 but not #B(4) = 161
    code = main(["--out-dir", str(out), "--budget-nodes", "100", "probe-negligibility", "--model", "free:2",
                 "--n-values", "3", "4", "2"])
    assert code == 3
    assert json.loads((out / "manifest.json").read_text())["partial"]
    points = json.loads((out / "probe-negligibility.json").read_text())["points"]
    assert [p["n"] for p in points] == [3, 2]


def test_unbudgeted_genericity_and_probe_are_not_partial(tmp_path):
    doc = {"experiments": [
        {"kind": "genericity", "name": "curve", "model": "braid3", "radius": 4},
        {"kind": "probe-negligibility", "name": "probe", "model": "free:2", "n_values": [3, 4]},
    ]}
    assert run(doc, tmp_path / "a", 0, "scaled", None) == 0
    assert run(doc, tmp_path / "b", 0, "scaled", 10**6) == 0
    assert not json.loads((tmp_path / "a" / "manifest.json").read_text())["partial"]
    assert _hashes(tmp_path / "a") == _hashes(tmp_path / "b")


def test_fibers_budget_binds_fallback_searches(tmp_path):
    doc = {"experiments": [{
        "kind": "fibers", "name": "fib", "model": "braid3", "phi": "aB", "n_values": [6],
        "ledger": {"dominating": "1", "segment_length": 2,
                   "window": ["1/4", "2/5"], "cut_window": ["1/4", "2/5"]},
    }]}
    # a census holds its ball and nothing next to it: every norm and
    # geodesic it asks for lies in the ball, so #B(6) = 577 nodes suffice
    # and one node less leaves n = 6 out
    assert run(doc, tmp_path / "tight", 0, "scaled", 576) == 3
    assert json.loads((tmp_path / "tight" / "fib.json").read_text())["reports"] == []
    assert json.loads((tmp_path / "tight" / "manifest.json").read_text())["partial"]
    assert run(doc, tmp_path / "a", 0, "scaled", None) == 0
    assert run(doc, tmp_path / "b", 0, "scaled", 577) == 0
    assert [r["n"] for r in json.loads((tmp_path / "a" / "fib.json").read_text())["reports"]] == [6]
    assert _hashes(tmp_path / "a") == _hashes(tmp_path / "b")


_WIDE = {"dominating": "1", "segment_length": 2, "window": ["1/2", "3/2"], "cut_window": ["1/4", "2/5"]}


@pytest.mark.parametrize("model,gens,n_values,budget,code,domains", [
    ("braid3", None, [7, 6], 2600, 0, {7: 656, 6: 314}),
    ("braid3", None, [6, 7], 3000, 0, {6: 314, 7: 656}),
    ("zz23", ["x", "y", "xy"], [8, 6], 1100, 0, {8: 312, 6: 61}),
    ("zz23", ["x", "y", "xy"], [7, 5, 8], 700, 3, {7: 107, 5: 0}),
    ("zz23", ["x", "y", "xy"], [9, 7], 700, 3, {7: 107}),
], ids=["braid3-7-6", "braid3-6-7", "zz23-8-6", "zz23-7-5-8", "zz23-9-7"])
def test_fibers_budget_leaves_out_the_n_a_ball_of_radius_n_would(tmp_path, model, gens, n_values, budget, code,
                                                                  domains):
    # a thick window reaching 1 makes each census search norms next to its
    # ball; the ledgers grow the experiment's index to B(10), and a larger n
    # may come first, yet each census holds B(n) and searches within what
    # it leaves, so the reports are those of a fresh ball per n (these
    # values were read from runs that built one)
    doc = {"experiments": [{"kind": "fibers", "name": "fib", "model": model, "phi": "aB" if model == "braid3" else "xy",
                            "n_values": n_values, "ledger": _WIDE}]}
    if gens:
        doc["experiments"][0]["gens"] = gens
    assert run(doc, tmp_path, 7, "scaled", budget) == code
    reports = json.loads((tmp_path / "fib.json").read_text())["reports"]
    assert {r["n"]: r["domain"] for r in reports} == domains
    assert [r["n"] for r in reports] == [n for n in n_values if n in domains]


def test_verify_lemmas_budget_binds_the_concatenation_ledgers(tmp_path):
    # the concatenation suite measures an F2 and a B3 ledger; a ledger that
    # outgrows the budget leaves the suite out, and the run is partial
    args = ["verify-lemmas", "--trials", "20"]
    assert main(["--out-dir", str(tmp_path / "tight"), "--budget-nodes", "10"] + args) == 3
    doc = json.loads((tmp_path / "tight" / "verify-lemmas.json").read_text())
    assert doc["concatenation"] is None and doc["appendix"]
    assert json.loads((tmp_path / "tight" / "manifest.json").read_text())["partial"]
    assert main(["--out-dir", str(tmp_path / "a")] + args) == 0
    assert main(["--out-dir", str(tmp_path / "b"), "--budget-nodes", "100000"] + args) == 0
    assert json.loads((tmp_path / "a" / "verify-lemmas.json").read_text())["concatenation"]["failures"] == 0
    assert _hashes(tmp_path / "a") == _hashes(tmp_path / "b")


def test_outputs_do_not_depend_on_the_hash_seed(tmp_path):
    # byte keys hash with a per-process seed; no output may follow hash order
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"seed": 7, "experiments": [
        {"kind": "enumerate", "name": "ball", "model": "free:2", "radius": 4, "keep_elements": True},
        {"kind": "genericity", "name": "curve", "model": "free:2", "radius": 6},
        {"kind": "probe-negligibility", "name": "probe", "model": "free:2", "n_values": [6, 8]},
        {"kind": "verify-lemmas", "name": "lemmas", "trials": 25},
    ]}))
    src = str(Path(genlab.__file__).resolve().parent.parent)
    digests = []
    for hash_seed in ("1", "2"):
        out = tmp_path / f"out{hash_seed}"
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-m", "genlab.cli", "--config", str(cfg), "--out-dir", str(out), "run"],
                              env=env, capture_output=True, text=True, timeout=600)
        assert proc.returncode == 0, proc.stderr
        digests.append(_hashes(out))
    assert len(digests[0]) == 10  # nine outputs and the manifest
    assert digests[0] == digests[1]


def _ball_experiment(name=None) -> dict:
    exp = {"kind": "enumerate", "model": "free:2", "radius": 1}
    return exp if name is None else {**exp, "name": name}


@pytest.mark.parametrize("experiments", [
    [_ball_experiment("dup"), _ball_experiment("dup")],
    [_ball_experiment("../escaped")],
    [_ball_experiment(["x"])],
    [_ball_experiment("manifest")],
    [_ball_experiment("a\0b")],
    [_ball_experiment("")],
    [_ball_experiment(".")],
    [_ball_experiment("..")],
    [_ball_experiment("a/b")],
    [_ball_experiment("enumerate-1"), _ball_experiment()],  # the default name of the second
    [_ball_experiment("a" * 251)],
    [_ball_experiment("x\ud800")],  # a lone surrogate, which no file name encodes
], ids=["duplicate", "parent-dir", "list", "manifest", "nul", "empty", "dot", "dot-dot", "slash", "default-taken",
        "too-long", "surrogate"])
def test_a_name_that_is_not_one_unique_file_name_exits_2(tmp_path, capsys, experiments):
    # every kind writes {name}.json next to manifest.json in --out-dir
    out = tmp_path / "sub" / "o"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiments": experiments}))
    assert main(["--config", str(cfg), "--out-dir", str(out)]) == 2
    assert f"config error at $.experiments[{len(experiments) - 1}].name: " in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["cfg.json"]
    validate_config({"experiments": [_ball_experiment("a" * 250), _ball_experiment(".a"), _ball_experiment("manifest.x")]})


def test_keep_elements_is_a_json_boolean(tmp_path, capsys):
    doc = {"experiments": [{**_ball_experiment("e"), "keep_elements": "false"}]}
    assert _main_with_config(tmp_path, doc) == 2
    assert "config error at $.experiments[0].keep_elements: must be true or false" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()
    for keep in (True, False):
        doc["experiments"][0]["keep_elements"] = keep
        assert validate_config(doc)[0].keep_elements is keep


@pytest.mark.parametrize("workload, models", [("ball", 4), ("fibers", 3), ("survey", 5)])
def test_a_run_builds_each_model_once(tmp_path, monkeypatch, workload, models):
    # validation parses each experiment once and the runners read its spec;
    # a zero budget cuts every run short without changing what is parsed
    calls = []
    make_model = cli.make_model
    monkeypatch.setattr(cli, "make_model", lambda model_id: calls.append(model_id) or make_model(model_id))
    doc = json.loads((Path(__file__).resolve().parent.parent / "perfbench" / "workloads" / f"{workload}.json")
                     .read_text())
    assert run(doc, tmp_path, 7, "scaled", 0, workers=1) == 3
    assert calls == [exp["model"] for exp in doc["experiments"] if exp["kind"] != "verify-lemmas"]
    assert len(calls) == models


@pytest.mark.parametrize("trials", [20, None])
def test_the_lemma_subcommand_and_its_config_write_the_same_bytes(tmp_path, trials):
    # each default is stated once, in the spec builder: the subcommand
    # leaves an unset --trials out of its config, as a config file does
    args = [] if trials is None else ["--trials", str(trials)]
    exp = {"kind": "verify-lemmas", "name": "verify-lemmas"}
    if trials is not None:
        exp["trials"] = trials
    assert main(["--out-dir", str(tmp_path / "sub"), "verify-lemmas"] + args) == 0
    assert _main_with_config(tmp_path, {"experiments": [exp]}) == 0
    assert _hashes(tmp_path / "sub") == _hashes(tmp_path / "o")


def test_the_readme_config_example_validates():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    example = readme.split("A config is a JSON object", 1)[1].split("```json\n", 1)[1].split("```", 1)[0]
    specs = validate_config(json.loads(example))
    assert [(s.kind, s.name) for s in specs] == [("enumerate", "f3ball"), ("genericity", "braid"), ("fibers", "fib")]


def test_fibers_gens_of_a_finite_subgroup_exit_2(tmp_path, capsys):
    # zz23's x and y generate subgroups of order 2 and 3 without phi = xy,
    # where the ledger's search for phi would run dry
    for gens in (["x"], ["y"], ["Y", "y"]):
        doc = {"experiments": [{"kind": "fibers", "model": "zz23", "gens": gens, "n_values": [4]}]}
        assert _main_with_config(tmp_path, doc) == 2
        assert "config error at $.experiments[0].gens: generates a finite subgroup" in capsys.readouterr().err
    for gens in (["x", "y"], ["xy"]):  # infinite: validation lets them through
        validate_config({"experiments": [{"kind": "fibers", "model": "zz23", "gens": gens, "n_values": [4]}]})


def test_fibers_gens_without_phi_exit_2(tmp_path, capsys):
    # free:2's ab generates an infinite cyclic subgroup without phi = a, so
    # the ledger's search for |phi|_S would never end
    for gens in (["ab"], [[1, 2]]):
        doc = {"experiments": [{"kind": "fibers", "model": "free:2", "gens": gens, "phi": "a", "n_values": [4]}]}
        assert _main_with_config(tmp_path, doc) == 2
        assert "config error at $.experiments[0].gens: generates a subgroup that does not contain phi" in (
            capsys.readouterr().err)
    doc = {"experiments": [{"kind": "fibers", "name": "fib", "model": "free:2", "gens": ["ab", "b"], "phi": "a",
                            "n_values": [4]}]}
    assert run(doc, tmp_path / "out", 0, "scaled", None) == 0


@pytest.mark.parametrize("model_id, gens, phi", [
    ("zz23", ["xyxy"], "xy"), ("zz23", ["x", "yxY"], "xy"), ("braid3", ["aa", "bb"], "a"),
])
def test_fibers_gens_whose_abelian_image_lacks_phi_exit_2(tmp_path, capsys, model_id, gens, phi):
    # phi's image in the abelianization (Z/6 for zz23: xy -> 5, xyxy -> 4,
    # yxY -> 3; the exponent sum for braid3) is not generated by the gens'
    # images, so the gens cannot generate phi and the ledger's search for
    # |phi|_S would never end; validation says so first, with no budget
    doc = {"experiments": [{"kind": "fibers", "model": model_id, "gens": gens, "phi": phi, "n_values": [4]}]}
    with pytest.raises(ConfigError) as raised:
        validate_config(doc)
    assert raised.value.path == "$.experiments[0].gens"
    assert _main_with_config(tmp_path, doc) == 2
    assert "config error at $.experiments[0].gens: generates a subgroup that does not contain phi" in (
        capsys.readouterr().err)


def test_fibers_gens_whose_abelian_image_holds_phi_validate():
    for model_id, gens, phi in (("zz23", ["xyxy", "xy"], "xy"), ("braid3", ["a", "bb"], "a"), ("braid3", ["ab"], "aB")):
        validate_config({"experiments": [{"kind": "fibers", "model": model_id, "gens": gens, "phi": phi,
                                          "n_values": [4]}]})


def test_a_thick_window_ending_beyond_the_geodesic_runs(tmp_path):
    doc = {"experiments": [{
        "kind": "fibers", "name": "fib", "model": "zz23", "phi": "xy", "n_values": [8],
        "ledger": {"dominating": "1", "segment_length": 2, "window": ["1/4", "3"], "cut_window": ["1/4", "2/5"]},
    }]}
    assert run(doc, tmp_path, 0, "scaled", None) == 0
    assert [r["n"] for r in json.loads((tmp_path / "fib.json").read_text())["reports"]] == [8]


@pytest.mark.parametrize("argv, doc, error", [
    (["enumerate", "--model", "free:2", "--gens", "--radius", "2"],
     {"kind": "enumerate", "model": "free:2", "gens": [], "radius": 2}, "gens: empty generating set"),
    (["fibers", "--model", "zz23", "--phi", "", "--n-values", "6"],
     {"kind": "fibers", "model": "zz23", "phi": "", "n_values": [6]}, "phi: element does not act loxodromically"),
], ids=["empty-gens", "empty-phi"])
def test_an_empty_option_is_validated_as_its_config_field(tmp_path, capsys, argv, doc, error):
    # an option given empty is kept, so the subcommand exits 2 with the
    # error of the same field in a config, not a run on the default
    assert _main_with_config(tmp_path, {"experiments": [doc]}) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error at $.experiments[0].{error}")
    assert main(["--out-dir", str(tmp_path / "sub")] + argv) == 2
    assert capsys.readouterr().err == err
    assert not (tmp_path / "sub").exists()
