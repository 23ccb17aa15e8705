"""The repository benchmark: cold qmodalg runs, checked, timed end to end.

    python3 perfbench/run.py --workload grid --seed 1 --seconds 40 --trace 0

Workloads (perfbench/workloads.py):
  grid        `qmodalg grid`, 942 checks, report sha256 pinned;
  invariants  invariant_basis, psi_monomial_span and span_contained_in on
              A_2(D2) and A_2(B1) at multidegree (4,4), bases pinned;
  straighten  relation suites of A_6(D2), A_6(B1), A_6(C2), plus seeded
              3x3 word pairs in A_3(D2) checked against the tensor route.

A run starts one fresh worker process at a time (perfbench/worker.py) until
the next one would overrun --seconds, each after two set-up-only workers.  With
--trace 0 it reports, as medians over its workers, setup_s, verdict_s,
checks_per_s and peak_rss_mb.  Times are wall times corrected to full CPU
speed by the probes each worker made while it ran (perfbench/speedometer.py).
With --trace 1 it alternates untraced and traced workers and reports the
per-layer metrics of the traced ones (perfbench/tracing.py) and the tracing
overhead.  Every output is checked;
any failed check or crashed worker makes the exit code 1.  The last line of
stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from speedometer import corrected_s  # noqa: E402
from tracing import PER_LAYER  # noqa: E402
from workloads import CHECKS, WORKLOADS  # noqa: E402

PROBES_PER_ROUND = 2  # set-up-only workers before each full one, for more setup_s samples
HARD_LIMIT_S = 170  # the whole run ends within this, whatever --seconds says
END_TO_END = [
    ("setup_s", "s"),
    ("verdict_s", "s"),
    ("checks_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
]


def run_worker(workload, seed, workdir, env, timeout, trace=False, setup_only=False):
    """Start one worker and wait for it; None if it crashed or timed out."""
    t0 = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--t0", repr(t0), "--workdir", str(workdir)]
    if setup_only:
        cmd.append("--setup-only")
    if trace:
        cmd += ["--trace", "1"]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True)
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        sys.stderr.write(f"worker timed out after {timeout:.0f} s\n")
        return None
    if proc.returncode != 0:
        sys.stderr.write(f"worker exited with {proc.returncode}\n")
        return None
    try:
        return json.loads(stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        sys.stderr.write("worker printed no result\n")
        return None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "qmodalg" / "__init__.py").is_file():
        sys.stderr.write(f"error: no qmodalg sources under {src}\n")
        return 2
    workdir = ROOT / ".perfbench"
    workdir.mkdir(exist_ok=True)
    # Compile before timing, so the first run after a source change carries
    # no bytecode compile in its setup_s.
    if not all(compileall.compile_dir(d, quiet=1) for d in (src, HERE)):
        sys.stderr.write("error: compiling the sources failed\n")
        return 2
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED=str(args.seed % 2 ** 32))

    start = time.monotonic()
    deadline = start + args.seconds
    attempted = failed = 0

    def worker(**kw):
        nonlocal attempted, failed
        timeout = start + HARD_LIMIT_S - time.monotonic()
        res = run_worker(args.workload, args.seed, workdir, env, timeout, **kw)
        if kw.get("setup_only"):
            if res is None:
                attempted += 1
                failed += 1
            return res
        if res is None:
            attempted += CHECKS[args.workload]
            failed += CHECKS[args.workload]
        else:
            attempted += res["checks"]
            failed += res["failed"]
        return res

    # Rounds of set-up-only probes and full workers, so that the samples of
    # each metric spread over the whole run, not over one burst of it.
    setups, plain, traced = [], [], []
    while True:
        t = time.monotonic()
        for _ in range(0 if args.trace else PROBES_PER_ROUND):
            res = worker(setup_only=True)
            if res is not None:
                setups.append(res)
        res = worker()
        if res is not None:
            plain.append(res)
        if args.trace:
            res = worker(trace=True)
            if res is not None:
                traced.append(res)
        now = time.monotonic()
        if failed or now + (now - t) > deadline:
            break

    print(f"workload {args.workload}, seed {args.seed}: {len(plain)} untraced and "
          f"{len(traced)} traced workers, {len(setups)} set-up probes")
    # Every time below is at full CPU speed, judged by the worker's own probes.
    workers = setups + plain + traced
    for r in workers:
        r["setup_wall_s"], r["setup_s"] = r["setup_s"], corrected_s(
            r["setup_s"], r["setup_probes"])
        if "verdict_s" in r:
            r["verdict_wall_s"], r["verdict_s"] = r["verdict_s"], corrected_s(
                r["verdict_s"], r["verdict_probes"])
    probes = [p for r in workers for p in r["setup_probes"] + r.get("verdict_probes", [])]
    if plain and probes:
        print(f"median probe {statistics.median(probes) * 1e3:.4f} ms over {len(probes)}; "
              f"median wall time: set-up "
              f"{statistics.median(r['setup_wall_s'] for r in setups + plain):.4f} s, "
              f"verdict {statistics.median(r['verdict_wall_s'] for r in plain):.4f} s")
    fail_frac = failed / attempted if attempted else 1.0
    print(f"fail_frac = {fail_frac!r} ({failed} of {attempted} checks)")
    metrics = {}
    if plain and not args.trace:
        values = {
            "setup_s": statistics.median(r["setup_s"] for r in setups + plain),
            "verdict_s": statistics.median(r["verdict_s"] for r in plain),
            "checks_per_s": statistics.median(
                (r["checks"] - r["failed"]) / r["verdict_s"] for r in plain),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        }
        for name, unit in END_TO_END:
            metrics[name] = {"value": values[name], "unit": unit}
    elif plain and traced:
        # Layer times get their worker's verdict correction: the probes inside
        # a span take about the same share of it as of the whole verdict.
        units = {name: unit for name, unit, _ in PER_LAYER}
        for r in traced:
            factor = r["verdict_s"] / r["verdict_wall_s"]
            for name in r["layers"]:
                if units[name] == "s":
                    r["layers"][name] *= factor
        layers = {name: statistics.median(r["layers"][name] for r in traced)
                  for name in traced[0]["layers"]}
        layers["trace.overhead_frac"] = (
            statistics.median(r["verdict_s"] for r in traced)
            / statistics.median(r["verdict_s"] for r in plain) - 1
        )
        for name, unit, _ in PER_LAYER:
            metrics[name] = {"value": layers[name], "unit": unit}
    for name, m in metrics.items():
        print(f"{name} = {m['value']!r} {m['unit']}")
    if not metrics:
        failed = max(failed, 1)
        attempted = max(attempted, 1)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
