"""Batch experiment runner.

Reads a JSON config describing experiments, runs them with explicit seeds
and budgets, and emits CSV/JSON/plot-data reports plus a manifest with
content hashes, so identical config and seed reproduce identical bytes.

Each experiment kind has one runner, which returns its output texts and
writes nothing.  With ``--workers N`` above 1, up to N experiments run at
once in worker processes forked with ``os.fork`` (never more than there
are experiments or usable cores): each takes the next experiment's index
from a pipe and sends its outcome back pickled, and ``multiprocessing`` is
never imported.  This process writes every output and the manifest in
config order either way.  ``--budget-nodes`` bounds each experiment on
its own, and only the scaled profile is accepted.

The manifest hashes every output, and the config, with the interpreter's
built-in SHA-256 (``_sha2``, or ``_sha256`` before Python 3.12): the same
digests ``hashlib`` gives, without loading OpenSSL's libcrypto.

Of genlab's modules, importing this one loads only ``balls`` and
``groups`` (and the ``words`` they read).  A run imports each kind's
other modules while it validates an experiment of that kind, before any
worker forks, so it compiles only what its kinds use.

Exit codes: 0 success, 2 config validation error, 3 budget-partial
outputs, 4 verification-suite failure.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import random
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from pathlib import Path

from . import balls
from .groups import Braid3, FreeGroup, GeneratingSet, make_model

# hashlib loads OpenSSL's libcrypto; the interpreter's own SHA-256 gives
# the same digests, as random.py takes its sha512
try:
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10 and 3.11
    except ImportError:
        from hashlib import sha256


class ConfigError(ValueError):
    def __init__(self, path: str, message: str):
        super().__init__(f"config error at {path}: {message}")
        self.path, self.message = path, message

    def __reduce__(self):  # pickle the two arguments, so a worker's error reaches the parent
        return ConfigError, (self.path, self.message)


@dataclass
class ExperimentConfig:
    """One validated experiment: a kind plus its resolved inputs."""

    kind: str
    name: str
    raw: dict

    @property
    def path(self) -> str:
        return f"$.experiments[{self.name}]"


def _require(raw: dict, key: str, path: str):
    if key not in raw:
        raise ConfigError(f"{path}.{key}", "missing required field")
    return raw[key]


def _build_model_gens(raw: dict, path: str):
    model_id = _require(raw, "model", path)
    try:
        model = make_model(model_id)
    except ValueError as e:
        raise ConfigError(f"{path}.model", str(e))
    gens_words = raw.get("gens")
    if gens_words is None:
        gens = model.standard_gens()
    else:
        try:
            std = [model.alphabet.parse(w) if isinstance(w, str) else tuple(w) for w in gens_words]
            is_std = sorted(std) == sorted((i,) for i in range(1, model.alphabet.size + 1))
            gens = GeneratingSet(model, gens_words, standard=is_std)
        except (TypeError, ValueError) as e:
            raise ConfigError(f"{path}.gens", str(e))
    return model, gens


def _build_ledger(model, gens, action, raw: dict, path: str, seed: int, node_budget: int | None):
    from .contraction import measure_scaled_ledger

    lraw = raw.get("ledger", {})
    phi_word = raw.get("phi", model.default_phi)
    try:
        phi = model.element(phi_word)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"{path}.phi", str(e))
    kwargs = {}
    for key in ("dominating", "coeff"):
        if key in lraw:
            kwargs[key] = Fraction(lraw[key])
    if "segment_length" in lraw:
        kwargs["segment_length"] = int(lraw["segment_length"])
    if "power" in lraw:
        kwargs["power"] = int(lraw["power"])
    for key in ("window", "cut_window"):
        if key in lraw:
            kwargs[key] = tuple(Fraction(x) for x in lraw[key])
    ledger = measure_scaled_ledger(model, gens, action, phi, random.Random(seed), node_budget=node_budget, **kwargs)
    return phi, ledger


def _check_int(value, path: str, minimum: int | None = 0, maximum: int | None = None) -> None:
    """An integer field (an int, or a string of one) of at least ``minimum``
    and at most ``maximum`` (unbounded on a side given None)."""
    try:
        if isinstance(value, bool) or not isinstance(value, (int, str)):
            raise ValueError
        n = int(value)
    except ValueError:
        raise ConfigError(path, f"must be an integer, got {value!r}")
    if minimum is not None and n < minimum:
        raise ConfigError(path, f"must be >= {minimum}, got {n}")
    if maximum is not None and n > maximum:
        raise ConfigError(path, f"must be <= {maximum}, got {n}")


def _check_fraction(value, path: str) -> None:
    """A rational field: a number, or a string such as ``"35/100"``."""
    try:
        if isinstance(value, bool):
            raise TypeError
        Fraction(value)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError):
        raise ConfigError(path, f"must be a rational number, got {value!r}")


def _check_ledger(lraw, path: str) -> None:
    if not isinstance(lraw, dict):
        raise ConfigError(path, "must be an object")
    for key in ("dominating", "coeff"):
        if key in lraw:
            _check_fraction(lraw[key], f"{path}.{key}")
    for key in ("segment_length", "power"):
        if key in lraw:
            _check_int(lraw[key], f"{path}.{key}", 1)
    for key in ("window", "cut_window"):
        if key in lraw:
            if not isinstance(lraw[key], list) or len(lraw[key]) != 2:
                raise ConfigError(f"{path}.{key}", "must be a list of two rationals")
            for j, x in enumerate(lraw[key]):
                _check_fraction(x, f"{path}.{key}[{j}]")


# integer fields of each kind: (field, required, minimum, maximum)
_INT_FIELDS = {
    "enumerate": (("radius", True, 0, None),),
    "genericity": (("radius", True, 0, None), ("tree_threshold", False, 0, None)),
    "verify-lemmas": (("trials", False, 0, None), ("rank", False, 2, FreeGroup.max_rank)),
}


def _check_experiment(kind: str, raw: dict, path: str) -> None:
    """Type-check the fields ``run`` reads, so that a malformed value is a
    config error before any experiment starts."""
    if kind != "verify-lemmas":
        if not isinstance(_require(raw, "model", path), str):
            raise ConfigError(f"{path}.model", "must be a string")
        model, _ = _build_model_gens(raw, path)
        words = [("phi", raw["phi"])] if "phi" in raw else []
        if kind == "classify":
            listed = _require(raw, "words", path)
            if not isinstance(listed, list) or not listed:
                raise ConfigError(f"{path}.words", "must be a non-empty list of words")
            words += [(f"words[{j}]", w) for j, w in enumerate(listed)]
        for key, w in words:
            try:
                model.element(w)
            except (TypeError, ValueError) as e:
                raise ConfigError(f"{path}.{key}", str(e))
        if kind == "fibers":
            from .contraction import NonLoxodromicError, require_loxodromic

            action = model.tree_action()
            if action is None:
                raise ConfigError(f"{path}.model", f"no tree action for {model.name}")
            try:
                require_loxodromic(action, model.element(raw.get("phi", model.default_phi)))
            except NonLoxodromicError as e:
                raise ConfigError(f"{path}.phi", str(e))
    for key, required, minimum, maximum in _INT_FIELDS.get(kind, ()):
        if required or key in raw:
            _check_int(_require(raw, key, path), f"{path}.{key}", minimum, maximum)
    if kind in ("fibers", "probe-negligibility"):
        n_values = _require(raw, "n_values", path)
        if not isinstance(n_values, list) or not n_values:
            raise ConfigError(f"{path}.n_values", "must be a non-empty list of integers")
        for j, n in enumerate(n_values):
            _check_int(n, f"{path}.n_values[{j}]")
    if kind == "fibers":
        _check_ledger(raw.get("ledger", {}), f"{path}.ledger")
    if kind == "genericity" and "word_threshold" in raw:
        _check_fraction(raw["word_threshold"], f"{path}.word_threshold")


def validate_config(doc: dict) -> list[ExperimentConfig]:
    if not isinstance(doc, dict):
        raise ConfigError("$", "top level must be an object")
    if "seed" in doc:
        _check_int(doc["seed"], "$.seed", None)
    experiments = doc.get("experiments", [])
    if not isinstance(experiments, list):
        raise ConfigError("$.experiments", "must be a list")
    out = []
    for idx, raw in enumerate(experiments):
        path = f"$.experiments[{idx}]"
        if not isinstance(raw, dict):
            raise ConfigError(path, "must be an object")
        kind = _require(raw, "kind", path)
        if kind not in _KINDS:
            raise ConfigError(f"{path}.kind", f"unknown kind {kind!r} (choose from {_KINDS})")
        for module in _KIND_MODULES[kind]:
            importlib.import_module(f".{module}", __package__)
        _check_experiment(kind, raw, path)
        name = raw.get("name", f"{kind}-{idx}")
        out.append(ExperimentConfig(kind, name, raw))
    return out


def _write(out_dir: Path, rel: str, text: str, manifest: dict, flags: dict | None = None):
    path = out_dir / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    data = text.encode()
    path.write_bytes(data)
    entry = {"path": rel, "sha256": sha256(data).hexdigest()}
    if flags:
        entry.update(flags)
    manifest["outputs"].append(entry)


def _json_text(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


@dataclass
class Outcome:
    """What one experiment produced; ``run`` alone writes it.

    ``outputs`` lists (relative path, text, manifest flags or None) in the
    order the files are written.
    """

    outputs: list
    partial: bool = False
    suite_failed: bool = False


def _run_enumerate(exp: ExperimentConfig, seed: int, budget: int | None) -> Outcome:
    raw, name, path = exp.raw, exp.name, exp.path
    model, gens = _build_model_gens(raw, path)
    radius = int(_require(raw, "radius", path))
    cen = balls.enumerate_ball(model, gens, radius, keep_elements=bool(raw.get("keep_elements", False)),
                               node_budget=budget)
    flags = {"truncated": cen.truncated}
    return Outcome([(f"{name}.csv", cen.to_csv(), flags), (f"{name}.json", _json_text(cen.to_json()), flags)],
                   partial=cen.truncated)


def _run_classify(exp: ExperimentConfig, seed: int, budget: int | None) -> Outcome:
    from . import census

    raw, name, path = exp.raw, exp.name, exp.path
    model, _ = _build_model_gens(raw, path)
    verdicts = []
    for w in _require(raw, "words", path):  # each word parsed in validation
        c = census.classify(model, None, model.element(w))
        verdicts.append({"word": w, "verdict": c.verdict, "evidence": {k: str(v) for k, v in c.evidence.items()}})
    return Outcome([(f"{name}.json", _json_text(verdicts), None)])


def _run_genericity(exp: ExperimentConfig, seed: int, budget: int | None) -> Outcome:
    from . import census

    raw, name, path = exp.raw, exp.name, exp.path
    model, gens = _build_model_gens(raw, path)
    radius = int(_require(raw, "radius", path))
    curve = census.genericity_experiment(
        model, None, gens, radius,
        tree_threshold=int(raw.get("tree_threshold", 0)),
        word_threshold=Fraction(raw.get("word_threshold", "35/100")),
        node_budget=budget,
    )
    return Outcome([(f"{name}.csv", curve.to_csv(), None), (f"{name}.json", _json_text(curve.to_json()), None),
                    (f"{name}.dat", curve.plot_data(), None)], partial=curve.truncated)


def _run_fibers(exp: ExperimentConfig, seed: int, budget: int | None) -> Outcome:
    from . import census

    raw, name, path = exp.raw, exp.name, exp.path
    model, gens = _build_model_gens(raw, path)
    action = model.tree_action()
    reports = []
    try:
        phi, ledger = _build_ledger(model, gens, action, raw, path, seed, budget)
    except balls.BudgetExceeded:
        ledger, over_budget = None, True  # no ledger, so no census
    else:
        over_budget = False
        too_big = None  # the least n whose ball outgrew the node budget
        for n in (int(n) for n in _require(raw, "n_values", path)):
            if too_big is not None and n >= too_big:
                continue
            try:
                reports.append(census.fiber_census(model, gens, action, phi, ledger, n, node_budget=budget).to_json())
            except balls.BudgetExceeded:
                too_big = n
                over_budget = True
    doc = {"ledger": None if ledger is None else ledger.to_json(), "reports": reports}
    rows = ["n,domain,image,max_fiber,sqrt_ratio"]
    rows += [f"{r['n']},{r['domain']},{r['image']},{r['max_fiber']},{r['sqrt_ratio']!r}" for r in reports]
    return Outcome([(f"{name}.json", _json_text(doc), None), (f"{name}.csv", "\n".join(rows) + "\n", None)],
                   partial=over_budget)


def _run_verify_lemmas(exp: ExperimentConfig, seed: int, budget: int | None) -> Outcome:
    from . import lemmas

    raw, name = exp.raw, exp.name
    trials = int(raw.get("trials", 200))
    rng = random.Random(seed)
    suite = lemmas.appendix_suite_tree(int(raw.get("rank", 2)), trials, rng)
    try:
        concat = _run_concat_suite(rng, trials=max(20, trials // 10), node_budget=budget)
    except balls.BudgetExceeded:
        concat = None  # a ledger outgrew the budget, so no concatenation suite
    doc_out = {"appendix": suite.to_json(), "concatenation": concat, "profile": "scaled"}
    return Outcome([(f"{name}.json", _json_text(doc_out), None),
                    (f"{name}.txt", suite.summary() + "\n" + _concat_summary(concat) + "\n", None)],
                   partial=concat is None,
                   suite_failed=not (suite.all_green() and (concat is None or concat["failures"] == 0)))


def _run_probe(exp: ExperimentConfig, seed: int, budget: int | None) -> Outcome:
    from . import census

    raw, name, path = exp.raw, exp.name, exp.path
    model, gens = _build_model_gens(raw, path)
    n_values = [int(n) for n in _require(raw, "n_values", path)]
    probe = census.exponential_negligibility_probe(model, gens, n_values, node_budget=budget)
    return Outcome([(f"{name}.json", _json_text(probe.to_json()), None),
                    (f"{name}.dat", "".join(f"{p.n} {float(p.ratio)!r}\n" for p in probe.points), None)],
                   partial=probe.truncated)


_RUNNERS = {
    "enumerate": _run_enumerate,
    "classify": _run_classify,
    "genericity": _run_genericity,
    "fibers": _run_fibers,
    "verify-lemmas": _run_verify_lemmas,
    "probe-negligibility": _run_probe,
}
_KINDS = tuple(_RUNNERS)
# the modules each kind's runner imports besides balls and groups;
# validate_config imports them, so a runner's own import statements only
# look them up
_KIND_MODULES = {
    "enumerate": (),
    "classify": ("census",),
    "genericity": ("census",),
    "fibers": ("census", "contraction"),
    "verify-lemmas": ("contraction", "lemmas", "spaces"),
    "probe-negligibility": ("census",),
}


def _run_one(exp: ExperimentConfig, seed: int, budget: int | None) -> Outcome:
    # the runner is looked up where the experiment runs, in a worker too
    return _RUNNERS[exp.kind](exp, seed, budget)


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


@contextmanager
def _experiment_map(workers: int, fn, items: list):
    """The results of ``fn`` on ``items`` in input order: from the builtin
    map in this process when one process suffices, else from a fork map of
    no more workers than there are items or usable cores.  On exit every
    worker is killed and reaped."""
    size = min(workers, len(items), _usable_cores())
    if size <= 1:
        yield map(fn, items)
        return
    results = _fork_map(size, fn, items)
    try:
        yield results
    finally:
        results.close()


def _fork_map(size: int, fn, items: list):
    """Yield ``fn`` of each item, in order, from ``size`` forked workers.

    Workers start from this process's memory, so neither ``fn`` nor the
    items are pickled; forking is safe because genlab starts no threads.
    Each worker takes the next index from one shared pipe and sends back
    ``(index, ok, value)`` on a pipe of its own.  A worker's exception is
    raised here when its item's turn comes, and a worker that exits without
    sending its result raises RuntimeError.
    """
    import pickle  # imported only when workers fork
    import select

    # four bytes an index, written at most PIPE_BUF at a time: each write
    # lands whole, so a worker's four-byte read takes exactly one index
    tasks = b"".join(i.to_bytes(4, "big") for i in range(len(items)))
    task_r, task_w = os.pipe()
    pipes = {}  # result pipe -> its worker's pid
    try:
        for _ in range(size):
            r, w = os.pipe()
            pid = os.fork()
            if pid == 0:
                _work(fn, items, task_r, w, inherited=(task_w, r, *pipes))
            os.close(w)
            pipes[r] = pid
        done = {}
        for i in range(len(items)):
            while i not in done:
                if not pipes:
                    raise RuntimeError(f"no worker sent the result of item {i}")
                readable, writable, _ = select.select(list(pipes), [task_w] if tasks else [], [])
                if writable:  # a pipe with room takes PIPE_BUF bytes without blocking
                    tasks = tasks[os.write(task_w, tasks[: select.PIPE_BUF]):]
                    if not tasks:
                        os.close(task_w)  # so the workers read the end of it
                for r in readable:
                    data = _receive(r)
                    if data is None:  # the worker has exited
                        os.close(r)
                        pid = pipes.pop(r)
                        if os.waitpid(pid, 0)[1]:
                            raise RuntimeError(f"worker {pid} died without sending its result")
                    else:
                        j, ok, value = pickle.loads(data)
                        done[j] = ok, value
            ok, value = done.pop(i)
            if not ok:
                raise value
            yield value
    finally:
        os.close(task_r)
        if tasks:
            os.close(task_w)
        for r, pid in pipes.items():
            os.close(r)
            os.kill(pid, 9)  # SIGKILL
            os.waitpid(pid, 0)


def _work(fn, items: list, tasks: int, out: int, inherited: tuple):
    """A forked worker's life: close the ``inherited`` descriptors it has no
    use for, then run ``fn`` on the item of each index read from ``tasks``
    and send ``(index, ok, value)`` on ``out``, pickled and length first,
    until ``tasks`` ends.  It never returns."""
    import pickle

    status = 1
    try:
        for fd in inherited:
            os.close(fd)
        with os.fdopen(out, "wb") as sink:
            while index := os.read(tasks, 4):
                i = int.from_bytes(index, "big")
                try:
                    message = (i, True, fn(items[i]))
                except Exception as e:  # the parent raises it
                    message = (i, False, e)
                data = pickle.dumps(message)
                sink.write(len(data).to_bytes(8, "big") + data)
                sink.flush()
        status = 0
    finally:
        os._exit(status)


def _receive(fd: int):
    """The next message on ``fd``, sent length first, or None once its
    writer has closed it (also partway through a message)."""
    data, size = bytearray(), 8  # a bytearray grows in place, chunk by chunk
    while len(data) < size:
        chunk = os.read(fd, size - len(data))
        if not chunk:
            return None
        data += chunk
        if len(data) == 8:  # the length has arrived
            size += int.from_bytes(data, "big")
    return memoryview(data)[8:]


def run(doc: dict, out_dir: Path, seed: int, profile: str, budget_nodes: int | None, workers: int = 1) -> int:
    """Execute every experiment in the config; returns the process exit code.

    With ``workers`` above 1, up to that many experiments run at once in
    forked worker processes; their outputs are written here in config
    order, so the bytes are the same for every worker count.
    """
    experiments = validate_config(doc)
    if profile != "scaled":  # no code path computes with the faithful constants
        raise ConfigError("$", f"{profile}-profile constants are out of desk-scale reach; use scaled")
    if workers < 1:
        raise ConfigError("--workers", f"must be >= 1, got {workers}")
    if budget_nodes is not None and budget_nodes < 0:
        raise ConfigError("--budget-nodes", f"must be >= 0, got {budget_nodes}")
    seed = int(seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    # the worker count is deliberately absent: results are contracted to be
    # identical for every worker setting, manifests included
    manifest = {
        "config_sha256": sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest(),
        "seed": seed,
        "profile": profile,
        "outputs": [],
        "partial": False,
        "suite_failures": 0,
    }
    status = 0
    with _experiment_map(workers, partial(_run_one, seed=seed, budget=budget_nodes), experiments) as outcomes:
        for outcome in outcomes:
            for rel, text, flags in outcome.outputs:
                _write(out_dir, rel, text, manifest, flags)
            manifest["partial"] |= outcome.partial
            if outcome.suite_failed:
                manifest["suite_failures"] += 1
                status = 4
    (out_dir / "manifest.json").write_bytes(_json_text(manifest).encode())
    if manifest["partial"]:
        status = max(status, 3)
    return status


def _run_concat_suite(rng: random.Random, trials: int, node_budget: int | None) -> dict:
    """The concatenation lemmas on random instances over measured F2 and B3
    ledgers; raises :class:`~genlab.balls.BudgetExceeded` if a ledger's
    ball or distance search outgrows ``node_budget``."""
    from . import lemmas
    from .contraction import measure_scaled_ledger
    from .spaces import build_cayley_tree

    counts = {"midpoint": 0, "chain": 0, "distance-sum": 0, "quadratic": 0}
    failures = skipped = 0
    tree, action = build_cayley_tree(2)
    free = tree.group
    chain_ledger = measure_scaled_ledger(free, free.standard_gens(), action, free.element("a"), random.Random(0),
                                         segment_length=4, node_budget=node_budget)
    for _ in range(trials):
        inst = lemmas.random_chain_instance(rng, n_segments=1, level=2, ledger=chain_ledger)
        v = lemmas.verify_midpoint_capture(inst)
        if isinstance(v, lemmas.SkippedInstance):
            skipped += 1
        else:
            counts["midpoint"] += 1
            failures += 0 if v.passed else 1
        inst = lemmas.random_chain_instance(rng, n_segments=rng.randrange(2, 5), level=2, ledger=chain_ledger)
        vs = lemmas.verify_chain_capture(inst)
        if isinstance(vs, lemmas.SkippedInstance):
            skipped += 1
        else:
            counts["chain"] += 1
            failures += sum(0 if v.passed else 1 for v in vs)
        vd = lemmas.verify_distance_sum(inst)
        if isinstance(vd, lemmas.SkippedInstance):
            skipped += 1
        else:
            counts["distance-sum"] += 1
            failures += 0 if vd.passed else 1
    braid = Braid3()
    gens = braid.standard_gens()
    ledger = measure_scaled_ledger(braid, gens, braid.tree_action(), braid.element("aB"),
                                   random.Random(rng.randrange(10**9)), segment_length=4, sample_radius=4,
                                   node_budget=node_budget)
    m = int(ledger.chain_threshold(2)) + 1
    for _ in range(max(5, trials // 4)):
        qi = lemmas.random_quadratic_instance(rng, n_segments=m + rng.randrange(3, 6),
                                              segment_length=m, ledger=ledger, level=2)
        vq = lemmas.verify_quadratic_length(qi)
        if isinstance(vq, lemmas.SkippedInstance):
            skipped += 1
        else:
            counts["quadratic"] += 1
            failures += 0 if vq.passed else 1
    return {"trials": counts, "failures": failures, "skipped": skipped}


def _concat_summary(concat: dict | None) -> str:
    if concat is None:
        return "concatenation suite: not run, a ledger outgrew the node budget"
    parts = [f"{k}: {v}" for k, v in sorted(concat["trials"].items())]
    return f"concatenation suite: {', '.join(parts)}; failures {concat['failures']}, skipped {concat['skipped']}"


def _single_experiment_doc(args) -> dict:
    raw = {"kind": args.command, "name": args.name}
    if getattr(args, "model", None):
        raw["model"] = args.model
    if getattr(args, "gens", None):
        raw["gens"] = args.gens
    if getattr(args, "radius", None) is not None:
        raw["radius"] = args.radius
    if getattr(args, "words", None):
        raw["words"] = args.words
    if getattr(args, "n_values", None):
        raw["n_values"] = args.n_values
    if getattr(args, "trials", None) is not None:
        raw["trials"] = args.trials
    if getattr(args, "phi", None):
        raw["phi"] = args.phi
    return {"experiments": [raw]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="genlab", description=__doc__)
    parser.add_argument("--config", type=Path, help="JSON config file")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--profile", default="scaled", choices=["scaled", "faithful"])
    parser.add_argument("--out-dir", type=Path, default=Path("out"))
    parser.add_argument("--budget-nodes", type=int, default=None)
    parser.add_argument("--workers", type=int, default=1)
    sub = parser.add_subparsers(dest="command")

    sub.add_parser("run", help="run every experiment in the config")

    for kind in _KINDS:
        p = sub.add_parser(kind)
        p.add_argument("--name", default=kind)
        p.add_argument("--model")
        p.add_argument("--gens", nargs="*")
        p.add_argument("--phi")
        if kind == "enumerate" or kind == "genericity":
            p.add_argument("--radius", type=int)
        if kind == "classify":
            p.add_argument("--words", nargs="+")
        if kind in ("fibers", "probe-negligibility"):
            p.add_argument("--n-values", dest="n_values", type=int, nargs="+")
        if kind == "verify-lemmas":
            p.add_argument("--trials", type=int, default=200)

    args = parser.parse_args(argv)
    try:
        if args.config is not None:
            try:
                doc = json.loads(args.config.read_text())
            except (OSError, json.JSONDecodeError) as e:
                raise ConfigError("$", f"cannot read {args.config}: {e}")
        elif args.command and args.command != "run":
            doc = _single_experiment_doc(args)
        else:
            doc = {"experiments": []}
        seed = doc.get("seed", args.seed) if args.config and isinstance(doc, dict) else args.seed
        return run(doc, args.out_dir, seed, args.profile, args.budget_nodes, args.workers)
    except ConfigError as e:
        print(str(e), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
