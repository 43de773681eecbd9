"""Workload table shared by the benchmark driver and its child processes.

Each workload is one ``dkoopman`` CLI command on one of the repository's
configs.  The benchmark's seed is passed through the CLI's ``--seed`` (the
scenario seed), so a seed picks the instance.  Two workloads carry a
benchmark-owned override of their config, both so that every seed gives a
valid run of a size that does not depend on the seed:

* ``desk`` raises ``t_max``.  At 20,000 rounds about a third of the
  scenario seeds stop before they converge (seed 15 needs 50,909 rounds).
  400,000 covers every seed in 0..399: by the estimate 23 / (1 - rho_max)
  the slowest, seed 280, needs about 114,000.  The seed-5 run stays the
  same 8,109-round run.  The round count still moves with the instance
  (quartiles 13,000 and 24,000 over seeds 0..399), and with it the memory
  the traces take and the share of fixed costs in the time per round, so
  a pass runs a panel of four instances.
* ``sweep`` sets ``stop_tol`` to 0 and ``t_max`` to 8,000, so each of the
  three stable step sizes runs exactly 8,000 rounds (24,069 rounds in all,
  near the 26,244 the stock config runs on seed 5).  With early stopping
  the round count, and with it the ``record_mean`` history buffer that
  sets the sweep's peak memory, moves with the seed by a third.  At
  20,000 rounds a run takes about 9 s, only two or three fit in a
  measurement, and the spread over seeds reached 24 %.

This module imports only the standard library: the driver stays light.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

WORK_DIR = ".perfbench_work"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    config: str
    overrides: dict
    # instances per pass: the driver seed picks this many scenario seeds
    panel: int
    default_seed: int
    # alpha_max the seed code gives at default_seed; a run on that seed must
    # reproduce it to 1e-10 relative error
    alpha_max: float


WORKLOADS = {
    "desk": Workload(
        "desk", "experiment", "configs/desk.json", {"t_max": 400_000}, 4, 5,
        0.038148658642921454),
    "paper": Workload(
        "paper", "experiment", "configs/paper.json", {}, 1, 7,
        0.0024879030097959445),
    "sweep": Workload(
        "sweep", "alpha-sweep", "configs/sweep.json", {"stop_tol": 0.0, "t_max": 8000},
        1, 5,
        0.038148658642921454),
}


def instance_seeds(wl: Workload, seed: int) -> list[int]:
    """Scenario seeds the CLI receives for one benchmark seed.

    Panels of different benchmark seeds are disjoint, so runs on different
    seeds share no instance; the scenario needs seeds to be nonnegative.
    """
    return [(seed * wl.panel + k) % 2**32 for k in range(wl.panel)]


def run_dir(root: Path, name: str, seed: int) -> Path:
    return root / WORK_DIR / f"{name}-seed{seed}"


def write_config(root: Path, wl: Workload, path: Path) -> Path:
    """The workload's repo config with the benchmark's overrides applied."""
    raw = json.loads((root / wl.config).read_text(encoding="utf-8"))
    raw.update(wl.overrides)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(raw, indent=2) + "\n", encoding="utf-8")
    return path


def cli_argv(wl: Workload, config: Path, seed: int, out_dir: Path) -> list[str]:
    return [wl.command, "--config", str(config), "--seed", str(seed),
            "--out", str(out_dir)]
