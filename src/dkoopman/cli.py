"""Command-line front end.

Subcommands: ``experiment`` (full pipeline, figure data + report.json),
``alpha-sweep`` (step-size study over theta multiples of alpha_max),
``benchmark`` (wall-clock medians), ``gen`` (emit scenario frames), and
``solve-central`` (X.csv + Y.csv -> Kstar.csv).

Exit codes: 0 success, 2 config error, 3 disconnected graph, 4 divergence.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from . import dataio
from .config import ConfigError, RunConfig, load_config
from .consensus import (initial_states, iterate_rounds, manual_gains, resolve_alpha,
                        run, spectral_report, tail_contraction)
from .edmd import LiftedData, centralized_solve
from .graphs import DisconnectedGraphError, Graph, GraphError, laplacian, parse_graph_text
from .scenario import build_instance, make_experiment, simulate_frames

# keep recorded mean-operator history under this many bytes in the sweep
_HISTORY_BYTE_CAP = 2 * 10**8


def _resolve_graph(cfg: RunConfig) -> str | Graph:
    if cfg.graph.edge_file is None:
        return cfg.graph.preset
    graph = parse_graph_text(Path(cfg.graph.edge_file).read_text(encoding="utf-8"))
    if graph.p != cfg.scenario.num_agents:
        raise ConfigError(f"graph file has {graph.p} vertices but the scenario "
                          f"has {cfg.scenario.num_agents} agents")
    return graph


def _spectrum_pairs(spectrum) -> list[list[float]]:
    return [[float(v.real), float(v.imag)] for v in spectrum.eigenvalues]


def _zero_counts(report, n: int) -> dict:
    """Numeric zero count next to its structural value 2n - r (connected graph)."""
    return {"rank": report.rank, "n_zero": report.n_zero,
            "n_zero_structural": 2 * n - report.rank}


def cmd_experiment(cfg: RunConfig) -> int:
    rep = make_experiment(cfg.scenario, cfg.solver_gains(),
                          graph_preset=_resolve_graph(cfg),
                          rollout_steps=cfg.rollout.steps,
                          rollout_start=cfg.rollout.start,
                          dictionary_spec=cfg.dictionary,
                          init_mode=cfg.init.mode, init_seed=cfg.init.seed,
                          rank_tol=cfg.rank_tol)
    out = Path(cfg.out_dir)
    dataio.write_spectrum_csv(out / "spectrum_Kave.csv", rep.spectrum_K_ave)
    dataio.write_spectrum_csv(out / "spectrum_Kstar.csv", rep.spectrum_K_star)
    dataio.write_matrix_csv(out / "diff_matrix.csv", rep.diff_matrix)
    dataio.write_trace_csv(out / "fit_trace.csv", rep.trace)
    dataio.write_matrix_csv(out / "rollout_error.csv", rep.rollout_error)

    spectral = {
        "alpha_max": rep.spectral.alpha_max,
        **_zero_counts(rep.spectral, rep.instance.data.feature_dim),
        "semi_hurwitz": rep.spectral.semi_hurwitz,
        "zero_tol_M_tilde": rep.spectral.spectrum_M_tilde.zero_tol,
        "spectrum_M_tilde": _spectrum_pairs(rep.spectral.spectrum_M_tilde),
        "zero_tol_M": rep.spectral.spectrum_M.zero_tol,
    }
    dataio.write_json(out / "report.json", {
        "alpha": rep.alpha,
        "alpha_max": rep.alpha_max,
        "rho_max": rep.rho_max,
        "iterations": rep.trace.iterations,
        "converged": rep.trace.converged,
        "diverged": rep.trace.diverged,
        "kkt_residual": rep.kkt_final,
        "consensus_error": float(rep.trace.consensus_error[-1]),
        "objective_mean": float(rep.trace.objective_mean[-1]),
        "fit_metric": float(rep.trace.fit_metric[-1]),
        "spectral": spectral,
    })
    if rep.trace.diverged:
        print(f"divergence flag raised after {rep.trace.iterations} iterations "
              f"(alpha={rep.alpha:g}, alpha_max={rep.alpha_max:g})", file=sys.stderr)
        return 4
    print(f"experiment done: {rep.trace.iterations} iterations, "
          f"kkt_residual={rep.kkt_final:.3e}, outputs in {out}")
    return 0


def cmd_alpha_sweep(cfg: RunConfig, thetas=None) -> int:
    thetas = cfg.sweep_thetas if thetas is None else tuple(thetas)
    inst = build_instance(cfg.scenario, _resolve_graph(cfg), cfg.dictionary)
    lap = laplacian(inst.graph)
    base = cfg.solver_gains()
    report = spectral_report(inst.partition, inst.data, lap, base.k_P, base.k_I)
    n = inst.data.feature_dim
    record = base.t_max * n * n * 8 <= _HISTORY_BYTE_CAP

    lines = ["theta,alpha,rho_max,converged,diverged,iterations,contraction"]
    for theta in thetas:
        alpha = theta * report.alpha_max
        init = initial_states(inst.graph.p, n, cfg.init.mode, cfg.init.seed)
        _, trace = run(init, inst.graph, manual_gains(base, alpha),
                       inst.partition, inst.data, record_mean=record)
        rho = report.rho_max(alpha) if alpha < report.alpha_max else None
        contraction = (tail_contraction(trace.mean_history)
                       if record and not trace.diverged else float("nan"))
        lines.append(",".join([
            f"{theta:.17g}", f"{alpha:.17g}",
            "" if rho is None else f"{rho:.17g}",
            str(trace.converged).lower(), str(trace.diverged).lower(),
            str(trace.iterations),
            "" if np.isnan(contraction) else f"{contraction:.17g}",
        ]))
        del trace  # its mean history would otherwise stay alive through the next run

    out = Path(cfg.out_dir)
    dataio.atomic_write_text(out / "alpha_sweep.csv", "\n".join(lines) + "\n")
    dataio.write_json(out / "sweep.json", {
        "alpha_max": report.alpha_max,
        **_zero_counts(report, n),
        "semi_hurwitz": report.semi_hurwitz,
        "thetas": list(thetas),
    })
    print(f"alpha sweep over {len(thetas)} step sizes written to {out}")
    return 0


def cmd_benchmark(cfg: RunConfig) -> int:
    inst = build_instance(cfg.scenario, _resolve_graph(cfg), cfg.dictionary)
    lap = laplacian(inst.graph)
    base = cfg.solver_gains()
    alpha = resolve_alpha(base, inst.partition, inst.data, lap)
    gains = manual_gains(base, alpha)
    reps = cfg.benchmark_repeats
    rounds = min(200, gains.t_max)
    init = initial_states(inst.graph.p, inst.data.feature_dim,
                          cfg.init.mode, cfg.init.seed)

    central_ms = []
    for _ in range(reps):
        t0 = time.perf_counter()
        centralized_solve(inst.data)
        central_ms.append(1e3 * (time.perf_counter() - t0))

    iter_ms = []
    for _ in range(reps):
        t0 = time.perf_counter()
        iterate_rounds(init, inst.graph, gains, inst.partition, inst.data, rounds)
        iter_ms.append(1e3 * (time.perf_counter() - t0) / rounds)

    total_ms = []
    iterations = 0
    for _ in range(reps):
        t0 = time.perf_counter()
        _, trace = run(init, inst.graph, gains, inst.partition, inst.data)
        total_ms.append(1e3 * (time.perf_counter() - t0))
        iterations = trace.iterations

    out = Path(cfg.out_dir)
    dataio.write_json(out / "benchmark.json", {
        "centralized_solve_ms": statistics.median(central_ms),
        "distributed_iteration_ms": statistics.median(iter_ms),
        "distributed_total_ms": statistics.median(total_ms),
        "run_iterations": iterations,
        "rounds_timed": rounds,
        "repeats": reps,
    })
    print(f"benchmark written to {out / 'benchmark.json'}")
    return 0


def cmd_gen(cfg: RunConfig) -> int:
    frames = simulate_frames(cfg.scenario, cfg.scenario.num_samples + 1)
    out = Path(cfg.out_dir)
    paths = dataio.write_frames_csv(out, frames)
    dataio.write_frames_binary(out / "frames.bin", frames)
    print(f"wrote {len(paths)} frames and frames.bin to {out}")
    return 0


def cmd_solve_central(x_path, y_path, out_dir) -> int:
    try:
        X = dataio.read_matrix_csv(x_path)
        Y = dataio.read_matrix_csv(y_path)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read data matrices: {exc}") from exc
    if X.shape != Y.shape:
        raise ConfigError(f"X shape {X.shape} != Y shape {Y.shape}")
    model = centralized_solve(LiftedData(X=X, Y=Y))
    out = Path(out_dir)
    dataio.write_matrix_csv(out / "Kstar.csv", model.K)
    print(f"wrote {out / 'Kstar.csv'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dkoopman",
        description="Distributed Koopman operator learning simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", type=str, default=None, help="JSON config file")
        p.add_argument("--out", type=str, default=None, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override scenario seed")
        p.add_argument("--scale", choices=["desk", "paper"], default=None,
                       help="default-parameter preset")

    common(sub.add_parser("experiment", help="run the full experiment pipeline"))
    sweep = sub.add_parser("alpha-sweep", help="step-size boundary study")
    common(sweep)
    sweep.add_argument("--thetas", type=str, default=None,
                       help="comma-separated multiples of alpha_max")
    common(sub.add_parser("benchmark", help="wall-clock timings"))
    common(sub.add_parser("gen", help="emit scenario frames only"))
    solve = sub.add_parser("solve-central", help="closed-form solve from CSV data")
    solve.add_argument("x_csv", type=str)
    solve.add_argument("y_csv", type=str)
    solve.add_argument("--out", type=str, default="out")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "solve-central":
            return cmd_solve_central(args.x_csv, args.y_csv, args.out)
        cfg = load_config(args.config, scale=args.scale, seed=args.seed,
                          out_dir=args.out)
        if args.command == "experiment":
            return cmd_experiment(cfg)
        if args.command == "alpha-sweep":
            thetas = None
            if args.thetas is not None:
                try:
                    thetas = [float(v) for v in args.thetas.split(",") if v.strip()]
                except ValueError as exc:
                    raise ConfigError(f"bad --thetas value: {exc}") from exc
                if not thetas or any(v <= 0 for v in thetas):
                    raise ConfigError("--thetas needs positive comma-separated values")
            return cmd_alpha_sweep(cfg, thetas)
        if args.command == "benchmark":
            return cmd_benchmark(cfg)
        if args.command == "gen":
            return cmd_gen(cfg)
        raise AssertionError(f"unhandled command {args.command}")
    except DisconnectedGraphError as exc:
        print(f"graph error: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, GraphError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
