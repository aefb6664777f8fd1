"""Seeded mutations of the benchmark workloads' experiments: a run exits 0,
2 or 3, and a malformed field is a config error, never a traceback (``main``
catches only ConfigError, so any other exception fails the test)."""

import json
import random
from pathlib import Path

from genlab.cli import main

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
