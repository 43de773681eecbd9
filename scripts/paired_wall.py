#!/usr/bin/env python3
"""Wall time of one workload's CLI command in two checkouts, in alternating pairs.

    python3 scripts/paired_wall.py PARENT CHANGE {desk,paper,sweep} [--pairs N]

Each run is a fresh interpreter that imports ``dkoopman.cli`` from the
checkout's ``src`` and times one ``cli.main`` call of the workload's command
on the checkout's own config:

* ``desk``: ``experiment --config configs/desk.json``;
* ``paper``: ``experiment --config configs/paper.json``;
* ``sweep``: ``alpha-sweep --config configs/sweep.json``.

The import is not timed.  Pairs 1, 3, 5, … run PARENT first and pairs
2, 4, 6, … CHANGE first, because the host's speed drifts over seconds.
Every run gets the same environment: the caller's ``PATH`` and ``HOME``,
``PYTHONHASHSEED=0`` and two BLAS threads, whatever the caller's own
environment holds.  Give the two checkouts paths of equal length.  The
outputs go to a temporary directory.  Prints each pair's seconds, then each
side's median and quartiles, the median of the paired ratios change /
parent, and the number of pairs the change ran faster.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

WORKLOADS = {
    "desk": ("experiment", "configs/desk.json"),
    "paper": ("experiment", "configs/paper.json"),
    "sweep": ("alpha-sweep", "configs/sweep.json"),
}
BLAS_THREADS = "2"

_CHILD = """import sys, time
from dkoopman import cli
t0 = time.perf_counter()
code = cli.main(sys.argv[1:])
print(time.perf_counter() - t0)
sys.exit(code)
"""


def _env(checkout: Path) -> dict:
    env = {key: os.environ[key] for key in ("PATH", "HOME") if key in os.environ}
    env.update(PYTHONHASHSEED="0", PYTHONPATH=str(checkout / "src"),
               OPENBLAS_NUM_THREADS=BLAS_THREADS, OMP_NUM_THREADS=BLAS_THREADS,
               MKL_NUM_THREADS=BLAS_THREADS)
    return env


def wall_s(checkout: Path, workload: str, out_dir: Path) -> float:
    """Seconds of one ``cli.main`` call in a fresh interpreter."""
    command, config = WORKLOADS[workload]
    argv = [sys.executable, "-c", _CHILD, command, "--config", str(checkout / config),
            "--out", str(out_dir)]
    done = subprocess.run(argv, cwd=checkout, env=_env(checkout), capture_output=True,
                          text=True, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"{checkout}: exit {done.returncode}\n{done.stderr}")
    return float(done.stdout.splitlines()[-1])


def summary(parent: list[float], change: list[float]) -> dict:
    """Medians and quartiles of each side, the median paired ratio change /
    parent, and the pairs the change ran faster (a tie counts for neither),
    from at least two pairs."""
    pairs = list(zip(parent, change, strict=True))
    result = {"pairs": len(pairs)}
    for side, times in (("parent", parent), ("change", change)):
        result[f"{side}_median"] = statistics.median(times)
        result[f"{side}_quartiles"] = tuple(statistics.quantiles(times, n=4))
    result["ratio_median"] = statistics.median(c / p for p, c in pairs)
    result["wins"] = sum(c < p for p, c in pairs)
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("workload", choices=sorted(WORKLOADS))
    ap.add_argument("--pairs", type=int, default=10)
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2")
    sides = (args.parent.resolve(), args.change.resolve())
    times = ([], [])
    with tempfile.TemporaryDirectory(prefix="paired_wall.") as tmp:
        for k in range(args.pairs):
            for side in ((0, 1) if k % 2 == 0 else (1, 0)):
                times[side].append(wall_s(sides[side], args.workload, Path(tmp) / "out"))
            print(f"pair {k + 1}: parent {times[0][-1]:.4f} s, change {times[1][-1]:.4f} s",
                  flush=True)
    s = summary(*times)
    for side in ("parent", "change"):
        q1, _, q3 = s[f"{side}_quartiles"]
        print(f"{side}: median {s[f'{side}_median']:.4f} s, quartiles {q1:.4f}-{q3:.4f} s")
    print(f"paired ratio change/parent: median {s['ratio_median']:.4f}; "
          f"change faster in {s['wins']} of {s['pairs']} pairs")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
