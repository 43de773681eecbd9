"""One benchmark job in a fresh interpreter; prints its result as the last line.

Usage: child.py MODE ROOT WORKLOAD SEED CONFIG OUT [KIND ...]

Modes:
  ready   import dkoopman, resolve the config, print "ready" (set-up time;
          run under ``-X importtime`` for the import times)
  op      run the workload's CLI command untraced, then check its outputs
  trace   the same with every layer wrapped, then replay the kernel
  eig1    repeat the eigensolves named by KIND (M_tilde, M); the caller pins
          BLAS to one thread
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import time
import traceback
from pathlib import Path

from spans import Tracer, max_rss_mb
from workloads import THREAD_VARS, WORKLOADS, cli_argv

LAYERS = {
    "scenario": ("scenario.simulate_frames",),
    "lifting": ("edmd.lift",),
    "spectral": ("consensus.spectral_report", "consensus.assemble_M_tilde",
                 "linalg.psd_sqrt", "consensus.assemble_M", "consensus.eigvals_M_tilde",
                 "consensus.eigvals_M"),
    "centralized": ("edmd.centralized_solve",),
    "consensus": ("consensus.run",),
    "postprocess": ("edmd.rollout", "scenario.eigvals_K", "consensus.tail_contraction"),
    "output": ("dataio.write",),
}


def import_dkoopman(root: Path) -> None:
    """Import the package from the checkout's source tree and nowhere else."""
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import dkoopman

    if Path(dkoopman.__file__).resolve().parent != src / "dkoopman":
        raise SystemExit(f"dkoopman was imported from {dkoopman.__file__}, not {src}")


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": {k: os.environ.get(k) for k in THREAD_VARS},
    }


def run_cli(argv: list[str]) -> tuple[int | None, float]:
    """Time one CLI command; an exception counts as a failed run, not a crash."""
    from dkoopman import cli

    t0 = time.perf_counter()
    try:
        rc = cli.main(argv)
    except Exception:  # the benchmark reports the failure and keeps going
        traceback.print_exc()
        rc = None
    return rc, time.perf_counter() - t0


class Probe:
    """Counts the wrappers collect next to their spans."""

    def __init__(self):
        self.frames = 0
        self.data = None
        self.spectral_dim = 0
        self.n_zero = 0
        self.matrix_kind: dict[int, str] = {}
        self.runs: list[tuple] = []
        self.bytes = 0
        self.files = 0


def install(tracer: Tracer, probe: Probe) -> None:
    """Wrap each layer's public functions at the names their callers bind."""
    from dkoopman import cli, consensus, dataio, scenario

    def frames(span, args, kwargs, result):
        probe.frames += int(result.shape[0])

    def lifted(span, args, kwargs, result):
        probe.data = result

    def reported(span, args, kwargs, result):
        probe.n_zero = int(result.n_zero)
        probe.matrix_kind.clear()

    def assembled(kind):
        def after(span, args, kwargs, result):
            probe.matrix_kind[id(result)] = kind
            probe.spectral_dim = int(result.shape[0])
        return after

    def ran(span, args, kwargs, result):
        trace = result[1]
        probe.runs.append((args[:5], trace.iterations, trace.diverged))

    tracer.wrap(scenario, "simulate_frames", "scenario.simulate_frames", after=frames)
    tracer.wrap(scenario, "lift", "edmd.lift", after=lifted)
    tracer.wrap(consensus, "assemble_M_tilde", "consensus.assemble_M_tilde",
                after=assembled("M_tilde"))
    tracer.wrap(consensus, "assemble_M", "consensus.assemble_M", after=assembled("M"))
    tracer.wrap(consensus, "psd_sqrt", "linalg.psd_sqrt")
    tracer.wrap(consensus, "eigenvalues",
                lambda a, *rest, **kw: "consensus.eigvals_" + probe.matrix_kind.get(id(a), "other"))
    tracer.wrap(scenario, "centralized_solve", "edmd.centralized_solve")
    tracer.wrap(scenario, "rollout", "edmd.rollout")
    tracer.wrap(scenario, "eigenvalues", "scenario.eigvals_K")
    tracer.wrap(cli, "tail_contraction", "consensus.tail_contraction")
    for module in (cli, scenario):
        tracer.wrap(module, "spectral_report", "consensus.spectral_report",
                    after=reported, memory=True)
        tracer.wrap(module, "run", "consensus.run", after=ran, memory=True)
    for attr in ("write_spectrum_csv", "write_matrix_csv", "write_trace_csv",
                 "write_json", "atomic_write_text"):
        tracer.wrap(dataio, attr, "dataio.write")

    write_bytes = dataio.atomic_write_bytes

    def counted(path, data):
        probe.bytes += len(data)
        probe.files += 1
        return write_bytes(path, data)

    dataio.atomic_write_bytes = counted


def replay_kernel(probe: Probe) -> dict:
    """Time ``iterate_rounds`` on each run's own inputs and round count."""
    from dkoopman.consensus import iterate_rounds

    kernel_s = 0.0
    for (init, graph, gains, part, data), rounds, _ in probe.runs:
        t0 = time.perf_counter()
        iterate_rounds(init, graph, gains, part, data, rounds)
        kernel_s += time.perf_counter() - t0
    rounds = sum(r for _, r, _ in probe.runs)
    (_, graph, _, _, data), _, _ = probe.runs[0]
    n, N, p = data.feature_dim, data.num_samples, graph.p
    return {
        "consensus.kernel_s": kernel_s,
        "consensus.rounds": rounds,
        "consensus.kernel_us_per_round": 1e6 * kernel_s / rounds,
        # computed from array sizes: the p gradients (K_i X_i - Y_i) X_i^T,
        # the Laplacian contraction over agents, and the elementwise updates
        "consensus.kernel_flops_per_round": 4 * n * n * N + n * N + 2 * p * p * n * n
                                            + 8 * p * n * n,
        # computed from array sizes: read K, R, X, Y, L once and write K', R'
        # once; temporaries and cache misses are not counted
        "consensus.kernel_bytes_per_round": 8 * (4 * p * n * n + 2 * n * N + p * p),
    }


def traced_metrics(tracer: Tracer, probe: Probe, wall: float) -> tuple[dict, list]:
    from checks import data_rank

    m = {
        "scenario.simulate_frames_s": tracer.total("scenario.simulate_frames"),
        "scenario.frames": probe.frames,
        "edmd.lift_s": tracer.total("edmd.lift"),
        "edmd.n": probe.data.feature_dim,
        "edmd.rank": data_rank(probe.data.X),
        "consensus.spectral_report_s": tracer.total("consensus.spectral_report"),
        "consensus.spectral_report_self_s": tracer.self_total("consensus.spectral_report"),
        "consensus.assemble_M_tilde_s": tracer.total("consensus.assemble_M_tilde"),
        "linalg.psd_sqrt_s": tracer.total("linalg.psd_sqrt"),
        "consensus.assemble_M_s": tracer.total("consensus.assemble_M"),
        "consensus.eigvals_M_tilde_s": tracer.total("consensus.eigvals_M_tilde"),
        "consensus.eigvals_M_s": tracer.total("consensus.eigvals_M"),
        "consensus.spectral_dim": probe.spectral_dim,
        "consensus.n_zero": probe.n_zero,
        "consensus.spectral_peak_mb": tracer.peak_rise("consensus.spectral_report"),
        "edmd.centralized_solve_s": tracer.total("edmd.centralized_solve"),
        "consensus.run_s": tracer.total("consensus.run"),
        "consensus.runs": tracer.count("consensus.run"),
        "consensus.runs_diverged": sum(1 for _, _, diverged in probe.runs if diverged),
        "consensus.run_peak_mb": tracer.peak_rise("consensus.run"),
        "edmd.rollout_s": tracer.total("edmd.rollout"),
        "scenario.eigvals_K_s": tracer.total("scenario.eigvals_K"),
        "consensus.tail_contraction_s": tracer.total("consensus.tail_contraction"),
        "dataio.write_s": tracer.total("dataio.write"),
        "dataio.bytes_written": probe.bytes,
        "dataio.files_written": probe.files,
        "trace.wall_s": wall,
        "trace.uncovered_pct": 100.0 * (wall - tracer.covered()) / wall,
    }
    m.update(replay_kernel(probe))
    m["consensus.diagnostics_s"] = m["consensus.run_s"] - m["consensus.kernel_s"]
    layers = []
    for layer, names in LAYERS.items():
        span_s = tracer.outer_total(names)
        self_s = sum(tracer.self_total(n) for n in names)
        m[f"share.{layer}_pct"] = 100.0 * self_s / wall
        layers.append({"layer": layer, "span_s": span_s, "self_s": self_s,
                       "share_pct": m[f"share.{layer}_pct"]})
    return m, layers


def eig1(config: Path, seed: int, kinds: list[str]) -> dict:
    from dkoopman.config import load_config
    from dkoopman.consensus import ZERO_TOL_FACTOR, assemble_M, assemble_M_tilde
    from dkoopman.graphs import laplacian
    from dkoopman.linalg import eigenvalues, frobenius_norm
    from dkoopman.scenario import build_instance

    cfg = load_config(config, seed=seed)
    inst = build_instance(cfg.scenario, cfg.graph.preset, cfg.dictionary)
    lap = laplacian(inst.graph)
    gains = cfg.solver_gains()
    out = {"consensus.eigvals_M_tilde_1thread_s": 0.0, "consensus.eigvals_M_1thread_s": 0.0}
    for kind, assemble in (("M_tilde", assemble_M_tilde), ("M", assemble_M)):
        if kind in kinds:
            A = assemble(inst.partition, inst.data, lap, gains.k_P, gains.k_I)
            tol = ZERO_TOL_FACTOR * frobenius_norm(A)
            t0 = time.perf_counter()
            eigenvalues(A, zero_tol=tol)
            out[f"consensus.eigvals_{kind}_1thread_s"] = time.perf_counter() - t0
            del A
    return out


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=["ready", "op", "trace", "eig1"])
    parser.add_argument("root", type=Path)
    parser.add_argument("workload", choices=sorted(WORKLOADS), nargs="?")
    parser.add_argument("seed", type=int, nargs="?")
    parser.add_argument("config", type=Path, nargs="?")
    parser.add_argument("out", type=Path, nargs="?")
    parser.add_argument("kinds", nargs="*")
    args = parser.parse_args()

    import_dkoopman(args.root)
    if args.mode == "ready":
        from dkoopman.config import load_config

        load_config(args.config, seed=args.seed, out_dir=str(args.out))
        print("ready", flush=True)
        return 0
    if args.mode == "eig1":
        print(json.dumps(eig1(args.config, args.seed, args.kinds)))
        return 0

    wl = WORKLOADS[args.workload]
    argv = cli_argv(wl, args.config, args.seed, args.out)
    shutil.rmtree(args.out, ignore_errors=True)
    import dkoopman.cli  # noqa: F401  set-up stays outside the timed region

    result = {}
    if args.mode == "op":
        rc, wall = run_cli(argv)
        result["peak_rss_mb"] = max_rss_mb()
    else:
        tracer, probe = Tracer(), Probe()
        install(tracer, probe)
        origin = time.perf_counter()
        rc, wall = run_cli(argv)
        if rc == 0:
            result["metrics"], result["layers"] = traced_metrics(tracer, probe, wall)
        result["spans"] = tracer.dump(origin)
    from checks import check_outputs

    check = (check_outputs(wl, args.config, args.seed, args.out) if rc == 0
             else {"ok": False, "problems": [f"exit code {rc}"]})
    result.update(rc=rc, wall_s=wall, env=environment(), check=check)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
