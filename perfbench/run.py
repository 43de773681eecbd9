#!/usr/bin/env python3
"""Benchmark of the dkoopman CLI, run one workload at a time.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload {desk,paper,sweep} --seed N \\
        --seconds S --trace {0,1}

Every run of the workload is a fresh interpreter that calls
``dkoopman.cli.main(argv)`` once, closed loop, with BLAS pinned to at most
two threads.  Its outputs are checked after the timed region; a run whose
exit code or checks fail counts as failed.  ``--seed`` picks the scenario
seeds of the workload's instances (see workloads.py).

``--trace 0`` measures set-up five times, then runs passes over the
workload's instances for about ``--seconds`` (at least one pass), and
reports the end-to-end metrics of BENCHMARK.json: the time per round over
all passes, and medians of peak memory and set-up time.
``--trace 1`` makes one traced and up to three untraced runs of the first
instance, times the package import with ``-X importtime``, repeats the
eigensolves on one BLAS thread, and reports the per-layer metrics.  The
last line of standard output is the JSON result; everything the run
measured, spans included, is also written under .perfbench_work/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import THREAD_VARS, WORKLOADS, instance_seeds, run_dir, write_config

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
TIME_LIMIT_S = 170.0
SETUP_REPEATS = 5
UNTRACED_REPEATS = 3
MAX_BLAS_THREADS = 2


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


class Runner:
    """Child processes of one benchmark run, all bounded by one deadline."""

    def __init__(self, workload: str, seed: int):
        self.wl = WORKLOADS[workload]
        self.seeds = instance_seeds(self.wl, seed)
        self.work = run_dir(ROOT, workload, seed)
        self.config = write_config(ROOT, self.wl, self.work / "config.json")
        self.deadline = time.monotonic() + TIME_LIMIT_S
        self.threads = min(MAX_BLAS_THREADS, len(os.sched_getaffinity(0)))

    def _argv(self, mode: str, seed: int, *extra: str, flags=()) -> list[str]:
        return [sys.executable, *flags, str(CHILD), mode, str(ROOT), self.wl.name,
                str(seed), str(self.config), str(self.work / f"out-{seed}"), *extra]

    def _env(self, threads: int) -> dict:
        env = dict(os.environ, PYTHONHASHSEED="0")
        env.update({var: str(threads) for var in THREAD_VARS})
        return env

    def time_left(self) -> float:
        return self.deadline - time.monotonic()

    def _timeout(self) -> float:
        left = self.time_left()
        if left <= 0:
            raise BenchError(f"time limit of {TIME_LIMIT_S:g} s reached")
        return left

    def call(self, mode: str, seed: int, *extra: str, threads: int | None = None,
             flags=()) -> subprocess.CompletedProcess:
        proc = subprocess.run(self._argv(mode, seed, *extra, flags=flags),
                              env=self._env(threads or self.threads), cwd=ROOT,
                              capture_output=True, text=True, timeout=self._timeout())
        if proc.returncode != 0:
            raise BenchError(f"child {mode} exited with {proc.returncode}:\n"
                             f"{proc.stderr[-4000:]}")
        return proc

    def result(self, mode: str, seed: int, *extra: str, threads: int | None = None) -> dict:
        proc = self.call(mode, seed, *extra, threads=threads)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if "check" in result:
            result["seed"] = seed
            if not result["check"]["ok"]:
                sys.stderr.write(proc.stderr[-4000:])
        return result

    def setup_time(self) -> float:
        """Seconds from spawning an interpreter until it has resolved the config."""
        t0 = time.perf_counter()
        proc = subprocess.Popen(self._argv("ready", self.seeds[0]),
                                env=self._env(self.threads), cwd=ROOT,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            _, err = proc.communicate(timeout=self._timeout())
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if proc.returncode != 0 or line.strip() != "ready":
            raise BenchError(f"set-up child failed:\n{err[-4000:]}")
        return elapsed

    def import_times(self) -> dict:
        """Cumulative import times of dkoopman and scipy.optimize in a fresh interpreter."""
        proc = self.call("ready", self.seeds[0], flags=("-X", "importtime"))
        cumulative = {}
        for line in proc.stderr.splitlines():
            if line.startswith("import time:") and "|" in line:
                _, cum, name = line.split("|")
                if cum.strip().isdigit():
                    cumulative[name.strip()] = int(cum) * 1e-6
        return {"setup.import_dkoopman_s": cumulative["dkoopman"],
                "setup.import_scipy_optimize_s": cumulative.get("scipy.optimize", 0.0)}


def describe(op: dict, note: str = "") -> str:
    check = op["check"]
    rounds = check.get("rounds")
    text = f"seed={op['seed']}: wall_s={op['wall_s']:.4f} rounds={rounds}"
    if rounds:
        text += f" wall_us_per_round={1e6 * op['wall_s'] / rounds:.3f}"
    if "peak_rss_mb" in op:
        text += f" peak_rss_mb={op['peak_rss_mb']:.1f}"
    text += " ok" if check["ok"] else " FAILED: " + "; ".join(check["problems"])
    return text + note


def measure(runner: Runner, seconds: int) -> tuple[dict, list]:
    runner.setup_time()  # warm-up: byte-code compilation and page cache
    setups = [runner.setup_time() for _ in range(SETUP_REPEATS)]
    passes = []
    start = time.monotonic()
    while True:
        passes.append([runner.result("op", seed) for seed in runner.seeds])
        for op in passes[-1]:
            print(describe(op, f" (pass {len(passes)})"), flush=True)
        elapsed = time.monotonic() - start
        # start another pass only if the run then ends nearer the deadline
        # than it does now: a run lasts `seconds` give or take half a pass
        if elapsed + 0.5 * elapsed / len(passes) >= seconds:
            break
    ops = [op for ops in passes for op in ops]
    counted = [op for op in ops if op["check"].get("rounds")]
    if not counted:
        raise BenchError("no run produced a round count")
    # rounds per unit time over the whole run: host slowdowns last seconds,
    # and the run's total averages over more of them than a median of passes
    metrics = {
        "wall_us_per_round": 1e6 * sum(op["wall_s"] for op in counted)
                             / sum(op["check"]["rounds"] for op in counted),
        "peak_rss_mb": statistics.median(op["peak_rss_mb"] for op in ops),
        "setup_s": statistics.median(setups),
    }
    return metrics, ops


def trace(runner: Runner) -> tuple[dict, list]:
    seed = runner.seeds[0]
    base = [runner.result("op", seed)]
    print(describe(base[0]), flush=True)
    traced = runner.result("trace", seed)
    print(describe(traced, " (traced)"), flush=True)
    if "metrics" not in traced:
        raise BenchError("traced run failed before its spans could be read")
    metrics = dict(traced["metrics"])
    metrics.update(runner.import_times())
    kinds = [k for k in ("M_tilde", "M") if metrics[f"consensus.eigvals_{k}_s"] > 0]
    metrics.update(runner.result("eig1", seed, *kinds, threads=1))
    # more untraced runs of the same instance, as many as fit in the time limit
    while (len(base) < UNTRACED_REPEATS
           and runner.time_left() > 2.0 * max(op["wall_s"] for op in base) + 5.0):
        base.append(runner.result("op", seed))
        print(describe(base[-1]), flush=True)
    walls = [op["wall_s"] for op in base]
    metrics["trace.untraced_wall_s"] = statistics.median(walls)
    metrics["trace.untraced_range_s"] = max(walls) - min(walls)
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - metrics["trace.untraced_wall_s"]
    print(f"{'layer':<12} {'span_s':>10} {'self_s':>10} {'share':>8}")
    for row in traced["layers"]:
        print(f"{row['layer']:<12} {row['span_s']:>10.4f} {row['self_s']:>10.4f} "
              f"{row['share_pct']:>7.2f}%")
    print(f"{'uncovered':<12} {'':>10} {'':>10} {metrics['trace.uncovered_pct']:>7.2f}%")
    overhead, noise = metrics["trace.overhead_s"], metrics["trace.untraced_range_s"]
    # tracing only adds work, so an overhead below the untraced runs' range,
    # negative ones included, is host noise
    verdict = ("resolved" if len(base) > 1 and overhead > noise
               else "unresolved: not above the range of the untraced runs")
    print(f"tracing overhead: {overhead:+.4f} s against the median wall_s "
          f"{metrics['trace.untraced_wall_s']:.4f} s of {len(base)} untraced runs "
          f"(range {noise:.4f} s); {verdict}", flush=True)
    return metrics, [*base, traced]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "dkoopman" / "cli.py").is_file():
        print(f"perfbench: no dkoopman source tree under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    runner = Runner(args.workload, args.seed)
    try:
        metrics, ops = (trace(runner) if args.trace
                        else measure(runner, max(1, args.seconds)))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"perfbench: metrics not measured: {missing}", file=sys.stderr)
        return 1

    failed = sum(1 for op in ops if not op["check"]["ok"])
    print(f"env: {json.dumps(ops[0]['env'], sort_keys=True)}")
    print(f"workload {args.workload}, seed {args.seed} (instances "
          f"{', '.join(map(str, runner.seeds))}): {failed} of {len(ops)} runs failed")
    for m in wanted:
        print(f"{m['name']} = {metrics[m['name']]:.6g} {m['unit']}")
    result = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    (runner.work / f"result-trace{args.trace}.json").write_text(
        json.dumps({"workload": args.workload, "seed": args.seed, "runs": ops, **result},
                   indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
