"""One benchmark pass in a fresh interpreter: import genlab, validate the
workload config, then (unless --setup-only) run ``genlab.cli.main`` on it.

The launching process passes its CLOCK_MONOTONIC reading from just before
the launch, so ``setup_s`` covers interpreter start, the import of
``genlab.cli`` and config validation.  The result (times, exit code, own
peak RSS, and with --trace the layer metrics) goes to --result as JSON.

    python3 perfbench/child.py --config C --out-dir D --seed N --workers W \
        --launched T --result R [--setup-only | --trace SPANS]
"""

import argparse
import json
import resource
import sys
import time

import genlab.cli


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--seed", required=True)
    p.add_argument("--workers", required=True)
    p.add_argument("--launched", type=float, required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--trace", help="write the traced run's spans to this JSON-lines file")
    args = p.parse_args()
    if args.trace and args.workers != "1":
        p.error("--trace needs --workers 1: the tracer's tallies are not thread-safe")

    with open(args.config) as fh:
        genlab.cli.validate_config(json.load(fh))
    result = {"setup_s": time.clock_gettime(time.CLOCK_MONOTONIC) - args.launched}
    if not args.setup_only:
        argv = ["--config", args.config, "--out-dir", args.out_dir, "--seed", args.seed,
                "--workers", args.workers, "run"]
        tracer = None
        if args.trace:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        start = time.perf_counter()
        try:
            code = genlab.cli.main(argv)
        finally:
            run_s = time.perf_counter() - start
            if tracer is not None:
                tracer.uninstall()
        result.update(run_s=run_s, exit_code=code,
                      peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
        if tracer is not None:
            result["layers"] = tracer.results()
            with open(args.trace, "w") as fh:
                for span in tracer.span_records():
                    fh.write(json.dumps(span) + "\n")
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
