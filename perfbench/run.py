"""The genlab benchmark: runs one workload end to end and prints its metrics.

    python3 perfbench/run.py --workload ball|fibers|survey --seed N \
        --seconds S --trace 0|1 [--against RECORD]

Each pass runs ``genlab.cli.main`` on the workload's config in a fresh
interpreter (``perfbench/child.py``), one pass at a time, with the seed
passed as ``--seed`` and ``--workers`` capped at the cores this process
may use (1 in a traced run, whose tallies are not thread-safe).  The
set-up-only launches and the passes share the ``--seconds`` budget:
passes repeat while another one still fits in it, and there is always at
least one.  Every experiment's outputs are checked
exactly (``perfbench/checks.py``) and every output file is hashed.

With ``--trace 0`` the last stdout line carries the end-to-end metrics:
``run_s`` (median wall seconds of ``cli.main``), ``setup_s`` (median
seconds from launch until ``genlab.cli`` is imported and the config is
validated, over a few set-up-only launches and every pass), ``peak_rss_mb``
(median peak resident memory of a pass) and ``pass_rate`` (experiments
passed over attempted; the error rate is one minus it).  With ``--trace 1``
the run makes one untraced and one traced pass, checks that their outputs
are byte-identical, and reports the per-layer metrics of
``perfbench/tracer.py`` plus ``trace.overhead_ratio``.

A run record (seed, workers, machine, digests, samples) is written to
``.perfbench/records/``; ``--against`` names the record of another run,
such as the parent commit's with the same seed, and lists the output files
whose digest differs from it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import check_experiment
from tracer import metric_unit

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
OUT = ROOT / ".perfbench"
WORKLOADS = ("ball", "fibers", "survey")
SETUP_LAUNCHES = 30
PASS_TIMEOUT_S = 170
MAX_WORKERS = 2  # the ball workload's --workers, capped at the usable cores


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _git_sha() -> str:
    """HEAD's sha, or "unknown" outside a git checkout."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _digests(out_dir: Path) -> dict:
    return {
        p.relative_to(out_dir).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.rglob("*")) if p.is_file()
    }


def _launch(config: Path, out_dir: Path, seed: int, workers: int, result: Path, *extra: str):
    """Run child.py once and return its result dict, or None if it failed."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    result.unlink(missing_ok=True)
    cmd = [sys.executable, str(BENCH / "child.py"), "--config", str(config), "--out-dir", str(out_dir),
           "--seed", str(seed), "--workers", str(workers), "--result", str(result), *extra]
    launched = _now()
    proc = subprocess.Popen(cmd + ["--launched", repr(launched)], cwd=ROOT, env=env,
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    try:
        _, err = proc.communicate(timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        _, err = proc.communicate()
        err = f"killed after {PASS_TIMEOUT_S} s\n{err}"
    if proc.returncode != 0 or not result.is_file():
        sys.stderr.write(f"pass failed (exit {proc.returncode}):\n{err}")
        return None
    return json.loads(result.read_text())


def _run_pass(config: Path, experiments: list, pass_dir: Path, seed: int, workers: int, *extra: str):
    """One pass: returns (child result or None, digests, failed experiment names)."""
    out_dir = pass_dir / "out"
    res = _launch(config, out_dir, seed, workers, pass_dir / "result.json", *extra)
    failed = []
    for exp in experiments:
        problems = ["pass failed"] if res is None else check_experiment(out_dir, exp)
        if res is not None and res["exit_code"] != 0:
            problems.append(f"genlab exit code {res['exit_code']}")
        if problems:
            failed.append(exp["name"])
            sys.stderr.write(f"experiment {exp['name']} failed: {'; '.join(problems)}\n")
    digests = _digests(out_dir) if out_dir.is_dir() else {}
    return res, digests, failed


def highest_percentile(samples: list):
    """(p, value): the highest whole percentile with at least ten samples
    beyond it (nearest rank), or None with fewer than eleven samples."""
    n = len(samples)
    if n <= 10:
        return None
    p = math.floor(100 * (n - 10) / n)
    rank = max(1, math.ceil(p / 100 * n))
    return p, sorted(samples)[rank - 1]


def _record_base(args, workers: int) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "workers": workers,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "affinity_cores": len(os.sched_getaffinity(0)),
        "git_sha": _git_sha(),
        "loadavg_at_start": list(os.getloadavg()),
    }


def _differing(old: dict, new: dict) -> list[str]:
    """Output files whose digest differs between two digest maps, or that
    only one of them has."""
    return sorted(f for f in set(old) | set(new) if old.get(f) != new.get(f))


def _measure(args, config: Path, experiments: list, run_dir: Path, workers: int):
    """Run the passes; returns ([(child result, digests, failed experiment
    names) per pass], set-up-only samples)."""
    # one untimed launch compiles bytecode and warms the file cache
    _launch(config, run_dir / "warm", args.seed, workers, run_dir / "warm.json", "--setup-only")
    if args.trace:
        passes = [_run_pass(config, experiments, run_dir / "pass0", args.seed, workers),
                  _run_pass(config, experiments, run_dir / "pass1", args.seed, workers,
                            "--trace", str(run_dir / "spans.jsonl"))]
        return passes, []
    setups = []
    start = _now()
    for i in range(SETUP_LAUNCHES):
        res = _launch(config, run_dir / "setup", args.seed, workers, run_dir / f"setup{i}.json", "--setup-only")
        if res is not None:
            setups.append(res["setup_s"])
    passes = []
    while True:
        t0 = _now()
        passes.append(_run_pass(config, experiments, run_dir / f"pass{len(passes)}", args.seed, workers))
        if _now() - start + (_now() - t0) > args.seconds:
            return passes, setups


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="genlab benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--against", type=Path, help="run record to diff output digests against")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "genlab" / "cli.py").is_file():
        sys.stderr.write(f"genlab sources not found under {ROOT / 'src'}\n")
        return 2
    config = BENCH / "workloads" / f"{args.workload}.json"
    experiments = json.loads(config.read_text())["experiments"]
    workers = 1 if args.trace else min(MAX_WORKERS, len(os.sched_getaffinity(0)))
    record = _record_base(args, workers)
    run_dir = OUT / "runs" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)

    passes, setups = _measure(args, config, experiments, run_dir, workers)
    results = [res for res, _, _ in passes]
    digests = passes[0][1]
    failed_names = [name for _, _, failed in passes for name in failed]
    attempted, failed = len(passes) * len(experiments), len(failed_names)
    ok = [res for res in results if res is not None]
    pass_diffs = sorted({f for _, d, _ in passes[1:] for f in _differing(digests, d)})
    correct = failed == 0 and not pass_diffs
    record.update(passes=len(passes), attempted=attempted, failed=failed, failed_experiments=failed_names,
                  digests=digests, digests_differing_between_passes=pass_diffs, samples=results,
                  setup_samples=setups)

    lines = [f"perfbench {args.workload}: seed {args.seed}, workers {workers}, {len(passes)} pass(es), "
             f"python {record['python']}, cores {record['affinity_cores']}/{record['cpu_count']}, "
             f"load {' '.join(f'{x:.2f}' for x in record['loadavg_at_start'])}, sha {record['git_sha'][:12]}"]
    if pass_diffs:
        lines.append(f"  outputs differ between passes: {pass_diffs}")
    if len(ok) < (len(results) if args.trace else 1):
        print("\n".join(lines))
        sys.stderr.write("no metrics: a needed pass did not complete\n")
        return 1

    if args.trace:
        untraced, traced = results
        metrics = {name: {"value": value, "unit": metric_unit(name)} for name, value in traced["layers"].items()}
        metrics["trace.overhead_ratio"] = {"value": traced["run_s"] / untraced["run_s"], "unit": "ratio"}
        record["layers"] = metrics
        lines += [f"  traced run_s {traced['run_s']:.4f} s, untraced {untraced['run_s']:.4f} s, "
                  f"spans in {(run_dir / 'spans.jsonl').relative_to(ROOT)}",
                  f"  traced outputs {'DIFFER from' if pass_diffs else 'byte-identical to'} the untraced run's"]
    else:
        run_samples = [res["run_s"] for res in ok]
        setups += [res["setup_s"] for res in ok]
        pct = highest_percentile(run_samples)
        metrics = {
            "run_s": {"value": statistics.median(run_samples), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(res["peak_rss_mb"] for res in ok), "unit": "MB"},
            "pass_rate": {"value": (attempted - failed) / attempted, "unit": "ratio"},
        }
        pct_text = (f"p{pct[0]} {pct[1]:.4f} s" if pct else "no percentile has ten samples beyond it")
        lines += [
            f"  run_s        {metrics['run_s']['value']:.4f} s   median of {len(run_samples)}; {pct_text}",
            f"  setup_s      {metrics['setup_s']['value']:.4f} s   median of {len(setups)}",
            f"  peak_rss_mb  {metrics['peak_rss_mb']['value']:.1f} MB",
            f"  pass_rate    {metrics['pass_rate']['value']:.4f}     error_rate {failed / attempted:.4f} "
            f"({failed} of {attempted} experiments failed)",
        ]
        record["metrics"] = metrics
        record["run_s_percentile"] = pct

    if args.against is not None:
        other = json.loads(args.against.read_text())
        differing = _differing(other["digests"], digests)
        note = "" if other.get("seed") == args.seed else f" (recorded with seed {other.get('seed')}, not {args.seed})"
        lines.append(f"  digests differing from {args.against}{note}: {differing if differing else 'none'}")
    rec_path = OUT / "records" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    rec_path.parent.mkdir(parents=True, exist_ok=True)
    rec_path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    lines.append(f"  {len(digests)} output files hashed; record {rec_path.relative_to(ROOT)}")
    print("\n".join(lines))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
