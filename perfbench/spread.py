#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

Usage (from the root of a checkout):

    python3 perfbench/spread.py --workload desk --seeds 1-10

For every metric it prints the median over the seeds and the distance
between the first and third quartiles (``statistics.quantiles(n=4)``) as a
share of the median, next to the metric's bound from BENCHMARK.json.  The
raw results are kept in .perfbench_work/spread-<workload>.json.  The runs are
untraced (``--trace 0``): they give the end-to-end metrics.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import WORK_DIR

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=seed_list, help="e.g. 1-10")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}

    runs = []
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
             "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, **result})
        print(f"seed {seed}: attempted {result['attempted']} failed {result['failed']} "
              + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
              flush=True)

    print(f"{'metric':<40} {'median':>12} {'iqr/median':>11} {'bound':>6}")
    summary = {}
    for name, first in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else None
        summary[name] = {"unit": first["unit"], "median": med, "q1": q1, "q3": q3,
                         "iqr_over_median": spread, "bound": bounds.get(name)}
        print(f"{name:<40} {med:>12.6g} {spread if spread is not None else float('nan'):>11.4f} "
              f"{'' if bounds.get(name) is None else bounds[name]:>6}")
    path = ROOT / WORK_DIR / f"spread-{args.workload}.json"
    path.write_text(json.dumps({"workload": args.workload, "seeds": args.seeds, "summary": summary, "runs": runs},
                               indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
