"""Batch experiment runner.

Reads a JSON config describing experiments, runs them with explicit seeds
and budgets, and emits CSV/JSON/plot-data reports plus a manifest with
content hashes, so identical config and seed reproduce identical bytes.

``validate_config`` parses a config once, into one spec per experiment:
its kind, its name, and every input its kind's runner reads.  A name is
the stem of the experiment's output files, so it is one path component
of at most 250 bytes (no ``/`` or NUL; not ``.``, ``..`` or
``manifest``), unique in the config.  Each kind has one runner, which reads only its spec, returns its
output texts and writes nothing; ledgers and tree actions are built
there, one experiment at a time.  With ``--workers N`` above 1, up to N
experiments run at once in worker processes forked with ``os.fork``
(never more than there are experiments or usable cores): each takes the
next experiment's index from a pipe and sends its outcome back pickled,
and ``multiprocessing`` is never imported.  This process writes every
output and the manifest in config order either way.  ``--budget-nodes`` bounds each experiment on
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
from types import SimpleNamespace

from . import balls
from .groups import FreeGroup, GeneratingSet, make_model

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


def _require(raw: dict, key: str, path: str):
    if key not in raw:
        raise ConfigError(f"{path}.{key}", "missing required field")
    return raw[key]


def _int(value, path: str, minimum: int | None = 0, maximum: int | None = None) -> int:
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
    return n


_MAX_EXPONENT = 1000  # Fraction builds 10**exponent: "1e7" takes seconds


def _fraction(value, path: str) -> Fraction:
    """A rational field: a number, or a string such as ``"35/100"`` or
    ``"1e-3"`` whose exponent is at most ``_MAX_EXPONENT`` in size."""
    try:
        if isinstance(value, bool):
            raise TypeError
        if isinstance(value, str) and abs(int(value.lower().partition("e")[2] or 0)) > _MAX_EXPONENT:
            raise ConfigError(path, f"must have an exponent within +-{_MAX_EXPONENT}, got {value!r}")
        return Fraction(value)
    except ConfigError:
        raise
    except (TypeError, ValueError, ZeroDivisionError, OverflowError):
        raise ConfigError(path, f"must be a rational number, got {value!r}")


def _ints(raw: dict, key: str, path: str) -> list[int]:
    values = _require(raw, key, path)
    if not isinstance(values, list) or not values:
        raise ConfigError(f"{path}.{key}", "must be a non-empty list of integers")
    return [_int(n, f"{path}.{key}[{j}]") for j, n in enumerate(values)]


def _element(model, word, path: str):
    try:
        return model.element(word)
    except (TypeError, ValueError) as e:
        raise ConfigError(path, str(e))


def _model_spec(raw: dict, path: str) -> dict:
    """The ``model``, its generating set ``gens`` (the standard one unless
    listed) and ``phi`` (the model's default unless given)."""
    model_id = _require(raw, "model", path)
    if not isinstance(model_id, str):
        raise ConfigError(f"{path}.model", "must be a string")
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
    return {"model": model, "gens": gens, "phi": _element(model, raw.get("phi", model.default_phi), f"{path}.phi")}


# One builder per kind: the inputs its runner reads, parsed from the raw
# experiment at ``path``.  A field left out takes the default of the
# function that reads it, unless the builder states one.

def _spec_enumerate(raw: dict, path: str) -> dict:
    spec = _model_spec(raw, path)
    spec["radius"] = _int(_require(raw, "radius", path), f"{path}.radius")
    keep = spec["keep_elements"] = raw.get("keep_elements", False)
    if not isinstance(keep, bool):
        raise ConfigError(f"{path}.keep_elements", f"must be true or false, got {keep!r}")
    return spec


def _spec_classify(raw: dict, path: str) -> dict:
    spec = _model_spec(raw, path)
    words = _require(raw, "words", path)
    if not isinstance(words, list) or not words:
        raise ConfigError(f"{path}.words", "must be a non-empty list of words")
    spec["words"] = [(w, _element(spec["model"], w, f"{path}.words[{j}]")) for j, w in enumerate(words)]
    return spec


def _spec_genericity(raw: dict, path: str) -> dict:
    spec = _model_spec(raw, path)
    spec["radius"] = _int(_require(raw, "radius", path), f"{path}.radius")
    spec["thresholds"] = thresholds = {}  # census.genericity_experiment's keywords
    if "tree_threshold" in raw:
        thresholds["tree_threshold"] = _int(raw["tree_threshold"], f"{path}.tree_threshold")
    if "word_threshold" in raw:
        thresholds["word_threshold"] = _fraction(raw["word_threshold"], f"{path}.word_threshold")
    return spec


def _spec_fibers(raw: dict, path: str) -> dict:
    from .contraction import NonLoxodromicError, require_loxodromic

    spec = _model_spec(raw, path)
    action = spec["model"].tree_action()  # checked here, built again by the runner
    if action is None:
        raise ConfigError(f"{path}.model", f"no tree action for {spec['model'].name}")
    try:
        require_loxodromic(action, spec["phi"])
    except NonLoxodromicError as e:
        raise ConfigError(f"{path}.phi", str(e))
    # a finite subgroup of these models has at most 3 elements, and cannot
    # hold phi, which has infinite order
    if not balls.enumerate_ball(spec["model"], spec["gens"], 3, node_budget=3).truncated:
        raise ConfigError(f"{path}.gens", "generates a finite subgroup, which does not contain phi")
    # otherwise the ledger's search for |phi|_S would never end
    if spec["model"].subgroup_contains([g.key for g in spec["gens"]], spec["phi"].key) is False:
        raise ConfigError(f"{path}.gens", "generates a subgroup that does not contain phi")
    spec["n_values"] = _ints(raw, "n_values", path)
    lraw, path = raw.get("ledger", {}), f"{path}.ledger"
    if not isinstance(lraw, dict):
        raise ConfigError(path, "must be an object")
    spec["ledger"] = ledger = {}  # contraction.measure_scaled_ledger's keywords
    for key in ("dominating", "coeff"):
        if key in lraw:
            ledger[key] = _fraction(lraw[key], f"{path}.{key}")
    for key in ("segment_length", "power"):
        if key in lraw:
            ledger[key] = _int(lraw[key], f"{path}.{key}", 1)
    for key in ("window", "cut_window"):
        if key in lraw:
            if not isinstance(lraw[key], list) or len(lraw[key]) != 2:
                raise ConfigError(f"{path}.{key}", "must be a list of two rationals")
            ledger[key] = tuple(_fraction(x, f"{path}.{key}[{j}]") for j, x in enumerate(lraw[key]))
    return spec


def _spec_verify_lemmas(raw: dict, path: str) -> dict:
    return {"trials": _int(raw.get("trials", 200), f"{path}.trials"),
            "rank": _int(raw.get("rank", 2), f"{path}.rank", 2, FreeGroup.max_rank)}


def _spec_probe(raw: dict, path: str) -> dict:
    spec = _model_spec(raw, path)
    spec["n_values"] = _ints(raw, "n_values", path)
    return spec


def validate_config(doc: dict) -> list[SimpleNamespace]:
    """One spec per experiment, in config order: its ``kind``, its ``name``
    and every input its kind's runner reads, each parsed once.  The first
    malformed field raises ConfigError."""
    if not isinstance(doc, dict):
        raise ConfigError("$", "top level must be an object")
    if "seed" in doc:
        _int(doc["seed"], "$.seed", None)
    experiments = doc.get("experiments", [])
    if not isinstance(experiments, list):
        raise ConfigError("$.experiments", "must be a list")
    specs = []
    for idx, raw in enumerate(experiments):
        path = f"$.experiments[{idx}]"
        if not isinstance(raw, dict):
            raise ConfigError(path, "must be an object")
        kind = _require(raw, "kind", path)
        if kind not in _KINDS:
            raise ConfigError(f"{path}.kind", f"unknown kind {kind!r} (choose from {_KINDS})")
        # every output is the name and a suffix of at most 5 bytes, written
        # next to manifest.json, and a file name holds at most 255 bytes
        name = raw.get("name", f"{kind}-{idx}")
        try:
            stem = os.fsencode(name)
        except (TypeError, UnicodeEncodeError):  # not a string, or not a file name's
            stem = b""
        if stem in (b"", b".", b"..", b"manifest") or b"/" in stem or b"\0" in stem or len(stem) > 250:
            raise ConfigError(f"{path}.name", "must be one file name of at most 250 bytes, other than '.', '..' "
                                              f"and 'manifest', got {name!r}")
        if any(spec.name == name for spec in specs):
            raise ConfigError(f"{path}.name", f"{name!r} names an earlier experiment")
        build, modules = _SPECS[kind]
        for module in modules:
            importlib.import_module(f".{module}", __package__)
        specs.append(SimpleNamespace(kind=kind, name=name, **build(raw, path)))
    return specs


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


def _run_enumerate(spec, seed: int, budget: int | None) -> Outcome:
    cen = balls.enumerate_ball(spec.model, spec.gens, spec.radius, keep_elements=spec.keep_elements,
                               node_budget=budget)
    flags = {"truncated": cen.truncated}
    return Outcome([(f"{spec.name}.csv", cen.to_csv(), flags), (f"{spec.name}.json", _json_text(cen.to_json()), flags)],
                   partial=cen.truncated)


def _run_classify(spec, seed: int, budget: int | None) -> Outcome:
    from . import census

    verdicts = []
    for w, g in spec.words:
        c = census.classify(spec.model, None, g)
        verdicts.append({"word": w, "verdict": c.verdict, "evidence": {k: str(v) for k, v in c.evidence.items()}})
    return Outcome([(f"{spec.name}.json", _json_text(verdicts), None)])


def _run_genericity(spec, seed: int, budget: int | None) -> Outcome:
    from . import census

    curve = census.genericity_experiment(spec.model, None, spec.gens, spec.radius, node_budget=budget,
                                         **spec.thresholds)
    name = spec.name
    return Outcome([(f"{name}.csv", curve.to_csv(), None), (f"{name}.json", _json_text(curve.to_json()), None),
                    (f"{name}.dat", curve.plot_data(), None)], partial=curve.truncated)


def _run_fibers(spec, seed: int, budget: int | None) -> Outcome:
    from . import census
    from .contraction import measure_scaled_ledger

    model, gens, phi = spec.model, spec.gens, spec.phi
    action = model.tree_action()
    reports = []
    try:
        ledger = measure_scaled_ledger(model, gens, action, phi, random.Random(seed), node_budget=budget,
                                       **spec.ledger)
    except balls.BudgetExceeded:
        ledger, over_budget = None, True  # no ledger, so no census
    else:
        over_budget = False
        too_big = None  # the least n whose ball outgrew the node budget
        for n in spec.n_values:
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
    return Outcome([(f"{spec.name}.json", _json_text(doc), None), (f"{spec.name}.csv", "\n".join(rows) + "\n", None)],
                   partial=over_budget)


def _run_verify_lemmas(spec, seed: int, budget: int | None) -> Outcome:
    from . import lemmas

    rng = random.Random(seed)
    suite = lemmas.appendix_suite_tree(spec.rank, spec.trials, rng)
    try:
        concat = lemmas.concatenation_suite(rng, trials=max(20, spec.trials // 10), node_budget=budget)
    except balls.BudgetExceeded:
        concat = None  # a ledger outgrew the budget, so no concatenation suite
    doc_out = {"appendix": suite.to_json(), "concatenation": concat, "profile": "scaled"}
    return Outcome([(f"{spec.name}.json", _json_text(doc_out), None),
                    (f"{spec.name}.txt", suite.summary() + "\n" + lemmas.concatenation_summary(concat) + "\n", None)],
                   partial=concat is None,
                   suite_failed=not (suite.all_green() and (concat is None or concat["failures"] == 0)))


def _run_probe(spec, seed: int, budget: int | None) -> Outcome:
    from . import census

    probe = census.exponential_negligibility_probe(spec.model, spec.gens, spec.n_values, node_budget=budget)
    return Outcome([(f"{spec.name}.json", _json_text(probe.to_json()), None),
                    (f"{spec.name}.dat", "".join(f"{p.n} {float(p.ratio)!r}\n" for p in probe.points), None)],
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
# each kind's spec builder, and the modules its runner imports besides
# balls and groups: validate_config imports them, so a runner's own import
# statements only look them up
_SPECS = {
    "enumerate": (_spec_enumerate, ()),
    "classify": (_spec_classify, ("census",)),
    "genericity": (_spec_genericity, ("census",)),
    "fibers": (_spec_fibers, ("census", "contraction")),
    "verify-lemmas": (_spec_verify_lemmas, ("lemmas",)),
    "probe-negligibility": (_spec_probe, ("census",)),
}


def _run_one(spec, seed: int, budget: int | None) -> Outcome:
    # the runner is looked up where the experiment runs, in a worker too
    return _RUNNERS[spec.kind](spec, seed, budget)


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
            p.add_argument("--trials", type=int)

    args = parser.parse_args(argv)
    try:
        if args.config is not None:
            try:
                doc = json.loads(args.config.read_text())
            except (OSError, ValueError) as e:  # ValueError: bad JSON, bad UTF-8, or an int past 4300 digits
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
