"""Exact checks of genlab's outputs, one per experiment of each workload.

Every expected value below is either a closed form or was frozen from the
program's own output; none of them depends on the run seed (the fiber
triples, genericity ratios and probe pairs were confirmed equal across
ten seeds).  A check returns a list of problems; an empty list is a pass.
"""

from __future__ import annotations

import json
from pathlib import Path

# files each experiment kind writes, besides the run's manifest.json
OUTPUT_SUFFIXES = {
    "enumerate": (".csv", ".json"),
    "classify": (".json",),
    "genericity": (".csv", ".json", ".dat"),
    "fibers": (".json", ".csv"),
    "verify-lemmas": (".json", ".txt"),
    "probe-negligibility": (".json", ".dat"),
}


def free_sphere_count(rank: int, radius: int) -> int:
    """#S(radius) in the rank-k free group with standard generators
    (the closed form that ``genlab.balls.free_sphere_count`` implements)."""
    return 1 if radius == 0 else 2 * rank * (2 * rank - 1) ** (radius - 1)


SPHERE_COUNTS = {
    "free3-r8": [free_sphere_count(3, r) for r in range(9)],
    "braid3-r12": [1, 4, 12, 30, 68, 148, 314, 656, 1356, 2782, 5676, 11532, 23354],
    "zz23-r24": [1, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128, 192, 256, 384,
                 512, 768, 1024, 1536, 2048, 3072, 4096, 6144, 8192],
    "free2-aBab-r9": [1, 6, 24, 96, 384, 1536, 6144, 24576, 98304, 393216],
}

# n -> (domain, image, max fiber)
FIBER_TRIPLES = {
    # acceptance criterion 8's frozen table
    "zz23-xy": {8: (48, 10, 6), 9: (40, 12, 4), 10: (96, 20, 6), 11: (144, 28, 6),
                12: (192, 40, 6), 13: (288, 64, 6), 14: (384, 80, 6)},
    "free2-a": {8: (15066, 235, 114)},
    "braid3-aB": {6: (309, 12, 47), 7: (640, 38, 30)},
}

GENERICITY_RATIOS = {
    "braid3-r11": ["1", "1", "13/17", "13/21", "7/15", "11/31", "7/27", "73/381",
                   "7/51", "51/511", "7/99", "313/6141"],
    "braid3-aba-r8": ["1", "1", "7/9", "13/21", "7/15", "11/31", "7/27", "73/381", "7/51"],
    "free2-r10": ["1", "1/5", "1/17", "1/53", "1/161", "1/485", "1/1457", "1/4373",
                  "1/13121", "1/39365", "1/118097"],
}

# n -> (shell, decomposable)
PROBE_PAIRS = {"probe-free2": {6: (972, 0), 8: (8748, 720), 9: (26244, 2184)}}

CLASSIFY_VERDICTS = {
    "classify-braid3": {"a": "reducible", "aB": "pseudoAnosov", "ab": "periodic",
                        "abAB": "pseudoAnosov", "aaBBab": "periodic"},
}


def _load(out_dir: Path, name: str):
    return json.loads((out_dir / f"{name}.json").read_text())


def _check_enumerate(doc, name):
    got = doc["sphere_counts"]
    want = SPHERE_COUNTS[name]
    return [] if got == want else [f"sphere counts {got} != {want}"]


def _check_fibers(doc, name):
    got = {r["n"]: (r["domain"], r["image"], r["max_fiber"]) for r in doc["reports"]}
    want = FIBER_TRIPLES[name]
    return [] if got == want else [f"fiber triples {got} != {want}"]


def _check_genericity(doc, name):
    got = doc["ratios"]
    want = GENERICITY_RATIOS[name]
    return [] if got == want else [f"ratios {got} != {want}"]


def _check_lemmas(doc, name):
    failures = doc["concatenation"]["failures"]
    failures += sum(doc["appendix"]["failures"].values())
    return [] if failures == 0 else [f"{failures} lemma failures"]


def _check_probe(doc, name):
    got = {p["n"]: (p["shell"], p["decomposable"]) for p in doc["points"]}
    want = PROBE_PAIRS[name]
    return [] if got == want else [f"probe pairs {got} != {want}"]


def _check_classify(doc, name):
    got = {v["word"]: v["verdict"] for v in doc}
    want = CLASSIFY_VERDICTS[name]
    return [] if got == want else [f"verdicts {got} != {want}"]


_CHECKS = {
    "enumerate": _check_enumerate,
    "fibers": _check_fibers,
    "genericity": _check_genericity,
    "verify-lemmas": _check_lemmas,
    "probe-negligibility": _check_probe,
    "classify": _check_classify,
}


def check_experiment(out_dir: Path, experiment: dict) -> list[str]:
    """Problems with one experiment's outputs in ``out_dir``: a missing
    output file, or a value that differs from the expected one."""
    kind, name = experiment["kind"], experiment["name"]
    missing = [name + s for s in OUTPUT_SUFFIXES[kind] if not (out_dir / (name + s)).is_file()]
    if missing:
        return [f"missing output {m}" for m in missing]
    try:
        return _CHECKS[kind](_load(out_dir, name), name)
    except (KeyError, TypeError, ValueError) as e:
        return [f"unreadable output: {e!r}"]
