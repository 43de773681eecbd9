"""The benchmark harness in perfbench/ still runs against the package.

perfbench wraps package functions at the names their callers bind, imports
others directly, and checks output files and report keys by name.  A
rename or a moved output would make every benchmark run fail its checks,
so this runs the harness's own child process on each workload, the way
``perfbench/run.py`` does, and reads nothing but its result.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
CHILD = ROOT / "perfbench" / "child.py"

_spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                               ROOT / "perfbench" / "workloads.py")
workloads = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)


def _is_child_metric(name: str) -> bool:
    """False for the per-layer metrics run.py measures itself, outside the child."""
    return not (name.startswith(("setup.", "trace.untraced_"))
                or name == "trace.overhead_s" or name.endswith("_1thread_s"))


def _child(tmp_path, mode, workload, seed, *extra, flags=()):
    config = workloads.write_config(ROOT, workloads.WORKLOADS[workload],
                                    tmp_path / "config.json")
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.update({var: "1" for var in workloads.THREAD_VARS})
    return subprocess.run(
        [sys.executable, *flags, str(CHILD), mode, str(ROOT), workload, str(seed),
         str(config), str(tmp_path / "out"), *extra],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("workload, seed", [("desk", 5), ("paper", 7), ("sweep", 5)])
def test_traced_run_passes_checks(tmp_path, workload, seed):
    proc = _child(tmp_path, "trace", workload, seed)
    assert proc.returncode == 0, proc.stderr[-4000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["rc"] == 0 and result["check"]["ok"], (result["check"], proc.stderr[-4000:])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = [m["name"] for m in spec["per_layer"] if _is_child_metric(m["name"])]
    assert [name for name in wanted if name not in result["metrics"]] == []


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_setup_and_eigensolve_modes(tmp_path, workload):
    seed = workloads.WORKLOADS[workload].default_seed
    ready = _child(tmp_path, "ready", workload, seed, flags=("-X", "importtime"))
    assert ready.returncode == 0, ready.stderr[-4000:]
    assert ready.stdout.strip() == "ready"
    assert any(line.startswith("import time:") and line.split("|")[-1].strip() == "dkoopman"
               for line in ready.stderr.splitlines())
    eig1 = _child(tmp_path, "eig1", workload, seed)
    assert eig1.returncode == 0, eig1.stderr[-4000:]
    times = json.loads(eig1.stdout.strip().splitlines()[-1])
    assert set(times) == {"consensus.eigvals_M_tilde_1thread_s",
                          "consensus.eigvals_M_1thread_s"}
