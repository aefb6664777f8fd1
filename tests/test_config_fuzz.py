"""Seeded mutations of the benchmark workloads' experiments: a run exits 0,
2 or 3, and a malformed field is a config error, never a traceback (``main``
catches only ConfigError, so any other exception fails the test)."""

import itertools
import json
import random
from pathlib import Path

from genlab.cli import ConfigError, main, validate_config

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads"
# None, bools, a negative and a huge int, a float, a word, a malformed
# fraction, an empty and an ill-typed list
VALUES = (None, True, False, -1, 10**12, 2.5, "x", "1/0", [], [1.5, "a"])
# the work a run may ask for; the node budget bounds what else it holds
CAPS = {"radius": 4, "trials": 10, "n_values": 6}
MUTANTS = 120


def _capped(value, cap):
    if isinstance(value, list):
        return [_capped(v, cap) for v in value]
    return min(value, cap) if isinstance(value, int) and not isinstance(value, bool) else value


def _mutant(rng: random.Random, experiments: list) -> dict:
    """One or two of a workload's experiments, each with one field dropped
    or set to one of ``VALUES``, then capped."""
    picked = []
    for _ in range(rng.randint(1, 2)):
        exp = rng.choice(experiments)
        key = rng.choice(sorted(exp))
        if rng.random() < 0.2:
            del exp[key]
        else:
            exp[key] = rng.choice(VALUES)
        if exp not in picked:
            picked.append(exp)
    for exp in picked:
        for key in CAPS.keys() & exp.keys():
            exp[key] = _capped(exp[key], CAPS[key])
    return {"experiments": picked}


def test_mutated_workload_configs_exit_cleanly(tmp_path, capsys):
    workloads = [json.loads(p.read_text())["experiments"] for p in sorted(WORKLOADS.glob("*.json"))]
    assert len(workloads) == 3
    rng = random.Random(18)
    codes = []
    for i in range(MUTANTS):
        doc = _mutant(rng, json.loads(json.dumps(rng.choice(workloads))))
        cfg = tmp_path / f"{i}.json"
        cfg.write_text(json.dumps(doc))
        code = main(["--config", str(cfg), "--out-dir", str(tmp_path / f"out{i}"), "--budget-nodes", "200000", "run"])
        err = capsys.readouterr().err
        assert code in (0, 2, 3), (doc, code)
        assert (code == 2) == err.startswith("config error at "), (doc, err)
        codes.append(code)
    assert {0, 2} <= set(codes)  # mutants reach the runners, and validation rejects others


# an integer of 5,000 digits, past the 4,300 that json.loads converts;
# json.dumps cannot write it either, so _config_text writes these digits
# unquoted
LONG_INT = "9" * 5000
# nested values: words (one that normalizes to the identity, one outside
# every alphabet), letter lists, numbers, fractions (one whose power of
# ten Fraction would stall on), None and lists
NESTED = (None, True, False, -1, 0, 10**12, 2.5, "x", "aA", "Q", "", "ab", "1/0", "3/4", "1e999999999", LONG_INT,
          [], [1, 2], [1.5, "a"])
MODELS = ("free:1", "free:2", "free:3", "free:27", "free:02", "zz23", "braid3", "BRAID3", "", 5)
NAMES = ("", ".", "..", "manifest", "a/b", "x\0y", "../up", ["x"], 5, None, "ok")
LEDGER_KEYS = ("dominating", "coeff", "segment_length", "power", "window", "cut_window")
SITES = ("ledger", "gens", "words", "n_values", "model", "name", "keep_elements")
NESTED_MUTANTS = 100


def _nested_mutant(rng: random.Random, experiments: list) -> dict:
    """One or two of a workload's experiments, each with one nested field
    changed: a ledger entry, an item of ``gens``, ``words`` or ``n_values``
    (a one-item list where the experiment has none), the model id, the name
    (possibly another experiment's) or ``keep_elements``; then capped."""
    picked = []
    for _ in range(rng.randint(1, 2)):
        exp = rng.choice(experiments)
        site = rng.choice(SITES)
        if site in ("gens", "words", "n_values"):
            items = exp.get(site)
            if isinstance(items, list) and items:
                items[rng.randrange(len(items))] = rng.choice(NESTED)
            else:
                exp[site] = [rng.choice(NESTED)]
        elif site == "ledger":
            key = rng.choice(LEDGER_KEYS)
            window = ["1/4", "2/5"]
            window[rng.randrange(2)] = rng.choice(NESTED)
            exp.setdefault("ledger", {})[key] = window if key.endswith("window") else rng.choice(NESTED)
        elif site == "model":
            exp["model"] = rng.choice(MODELS)
        elif site == "name":
            exp["name"] = rng.choice(NAMES + tuple(e.get("name") for e in experiments))
        else:
            exp["keep_elements"] = rng.choice(NESTED)
        if exp not in picked:
            picked.append(exp)
    for exp in picked:
        for key in CAPS.keys() & exp.keys():
            exp[key] = _capped(exp[key], CAPS[key])
    return {"experiments": picked}


def _config_text(doc: dict) -> str:
    return json.dumps(doc).replace(f'"{LONG_INT}"', LONG_INT)


def test_nested_field_mutants_exit_cleanly(tmp_path, capsys):
    workloads = [json.loads(p.read_text())["experiments"] for p in sorted(WORKLOADS.glob("*.json"))]
    rng = random.Random(23)
    codes = []
    for i in range(NESTED_MUTANTS):
        doc = _nested_mutant(rng, json.loads(json.dumps(rng.choice(workloads))))
        cfg = tmp_path / f"{i}.json"
        cfg.write_text(_config_text(doc))
        code = main(["--config", str(cfg), "--out-dir", str(tmp_path / f"out{i}"), "--budget-nodes", "200000", "run"])
        err = capsys.readouterr().err
        assert code in (0, 2, 3), (doc, code)
        assert (code == 2) == err.startswith("config error at "), (doc, err)
        codes.append(code)
    assert {0, 2} <= set(codes)


def test_every_nested_value_in_every_ledger_field_validates_or_exits_2():
    # the seeded mutants above seldom reach a ledger rational, so each
    # value goes into each ledger field (each end of a window) of each
    # fibers workload experiment: validation returns its spec or raises a
    # ConfigError, and never stalls on a long exponent
    experiments = json.loads((WORKLOADS / "fibers.json").read_text())["experiments"]
    for exp, key, value in itertools.product(experiments, LEDGER_KEYS, NESTED):
        for entry in ([value, "2/5"], ["1/4", value]) if key.endswith("window") else [value]:
            try:
                validate_config({"experiments": [{**exp, "ledger": {**exp["ledger"], key: entry}}]})
            except ConfigError as e:
                assert e.path.startswith(f"$.experiments[0].ledger.{key}"), (key, entry, e)
