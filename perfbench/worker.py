"""One cold run of a workload in a fresh process.

qmodalg keeps its algebra handles in process-global lru_caches and its
rewrite memos inside them, so a warm process would time a different program;
run.py starts this script once per measurement.  It prints one JSON line:
setup and verdict wall seconds with the speedometer probes made during each
(perfbench/speedometer.py), checks and failures, peak RSS, and with --trace 1
the per-layer metrics, after writing the spans to WORKDIR/spans-WORKLOAD.json.

    python3 perfbench/worker.py --workload grid --seed 1 --t0 <monotonic> \
        --workdir .perfbench [--setup-only] [--trace 1]

--t0 is the parent's time.monotonic() just before it started this process.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

import speedometer
from workloads import WORKLOADS


def main(argv=None):
    speedometer.start(speedometer.SETUP_INTERVAL)
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    setup, verdict = WORKLOADS[args.workload]

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer(f"{args.workload}-{args.seed}-{args.t0!r}")
        tracing.install(tracer)
        span = tracer.open("setup")
    state = setup(args.seed, args.workdir)
    t_setup = time.monotonic()
    out = {"setup_s": t_setup - args.t0, "setup_probes": speedometer.stop()}
    if tracer:
        tracer.close(span)
    if not args.setup_only:
        if tracer:
            span = tracer.open("verdict")
        speedometer.start(speedometer.VERDICT_INTERVAL)
        t_start = time.monotonic()
        checks, failed = verdict(state)
        out["verdict_s"] = time.monotonic() - t_start
        out["verdict_probes"] = speedometer.stop()
        if tracer:
            tracer.close(span)
        out["checks"] = checks
        out["failed"] = failed
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer:
        out["layers"] = tracer.metrics()
        tracer.write(args.workdir / f"spans-{args.workload}.json")
    sys.stdout.write(json.dumps(out) + "\n")


if __name__ == "__main__":
    main()
