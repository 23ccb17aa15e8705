"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/spread.py --seeds 1-10 [--workload grid ...] [--trace 0|1] \
        [--out perfbench/baseline.json]

For every workload and metric it prints the median, the quartiles of
`statistics.quantiles(values, n=4)` and their distance as a share of the
median, against the bound in BENCHMARK.json.  With --out it also writes that
summary as JSON.  Run length comes from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--workload", action="append")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    names = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    summary = {}
    for name in names:
        values = {}
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True,
            )
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if proc.returncode != 0 or not result["correct"]:
                sys.exit(f"{name} seed {seed}: exit {proc.returncode}, {result}")
            for metric, m in result["metrics"].items():
                values.setdefault(metric, []).append(m["value"])
            print(f"{name} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in list(result["metrics"].items())[:4]),
                flush=True)
        summary[name] = {}
        for metric, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            summary[name][metric] = {"median": med, "q1": q1, "q3": q3,
                                     "iqr_frac": spread, "runs": len(vals)}
            bound = bounds.get(metric)
            flag = "" if bound is None else f"  bound {bound}" + (
                "  OVER A THIRD" if spread > bound / 3 else "")
            print(f"  {name:10s} {metric:38s} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}"
                  f"  iqr/median {spread:.4f}{flag}")
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
