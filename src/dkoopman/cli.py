"""Command-line front end.

Subcommands: ``experiment`` (full pipeline, figure data + report.json),
``alpha-sweep`` (step-size study over theta multiples of alpha_max),
``benchmark`` (wall-clock medians), ``gen`` (emit scenario frames), and
``solve-central`` (X.csv + Y.csv -> Kstar.csv).

Exit codes: 0 success, 2 config error (an instance with no finite spectral
analysis, or one too large to allocate, included), 3 disconnected graph,
4 divergence.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
import warnings
from pathlib import Path

import numpy as np

from . import dataio
from .config import ConfigError, RunConfig, from_dict, load_config, to_dict
from .consensus import (NotSemiHurwitzError, initial_states, iterate_rounds, manual_gains,
                        run, spectral_report, tail_contraction)
from .edmd import LiftedData, centralized_solve
from .graphs import DisconnectedGraphError, Graph, GraphError, laplacian, parse_graph_text
from .scenario import build_instance, make_experiment, simulate_frames


def _resolve_graph(cfg: RunConfig) -> str | Graph:
    if cfg.graph.edge_file is None:
        return cfg.graph.preset
    try:
        text = Path(cfg.graph.edge_file).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise GraphError(f"graph file {cfg.graph.edge_file} is not UTF-8 text: {exc}") from None
    return parse_graph_text(text)


def _spectral_summary(report) -> dict:
    """The step-size analysis that report.json's spectral block and sweep.json share."""
    return {"alpha_max": report.alpha_max, "rank": report.rank, "n_zero": report.n_zero,
            "n_zero_structural": report.n_zero_structural,
            "n_unresolved": report.n_unresolved,
            "n_unresolved_predicted": report.n_unresolved_predicted,
            "semi_hurwitz": report.semi_hurwitz}


def _divergence(iterations: int, alpha: float, alpha_max: float) -> int:
    """Report a diverged run on stderr; the exit code is 4."""
    print(f"divergence flag raised after {iterations} iterations "
          f"(alpha={alpha:g}, alpha_max={alpha_max:g})", file=sys.stderr)
    return 4


def cmd_experiment(cfg: RunConfig) -> int:
    rep = make_experiment(cfg.scenario, cfg.solver_gains(),
                          graph_preset=_resolve_graph(cfg),
                          rollout_steps=cfg.rollout.steps,
                          rollout_start=cfg.rollout.start,
                          dictionary_spec=cfg.dictionary, init=cfg.init,
                          rank_tol=cfg.rank_tol)
    out = Path(cfg.out_dir)
    dataio.write_spectrum_csv(out / "spectrum_Kave.csv", rep.spectrum_K_ave)
    dataio.write_spectrum_csv(out / "spectrum_Kstar.csv", rep.spectrum_K_star)
    dataio.write_matrix_csv(out / "diff_matrix.csv", rep.diff_matrix)
    dataio.write_trace_csv(out / "fit_trace.csv", rep.trace)
    dataio.write_matrix_csv(out / "rollout_error.csv", rep.rollout_error)

    m_tilde = rep.spectral.spectrum_M_tilde.eigenvalues
    spectral = {
        **_spectral_summary(rep.spectral),
        "zero_tol_M_tilde": rep.spectral.spectrum_M_tilde.zero_tol,
        "spectrum_M_tilde": np.column_stack((m_tilde.real, m_tilde.imag)).tolist(),
        "zero_tol_M": rep.spectral.spectrum_M.zero_tol,
    }
    dataio.write_json(out / "report.json", {
        "alpha": rep.alpha,
        "alpha_max": rep.alpha_max,
        "rho_max": rep.rho_max,
        "iterations": rep.trace.iterations,
        "converged": rep.trace.converged,
        "diverged": rep.trace.diverged,
        "kkt_residual": float(rep.trace.kkt_residual[-1]),
        "consensus_error": float(rep.trace.consensus_error[-1]),
        "objective_mean": float(rep.trace.objective_mean[-1]),
        "fit_metric": float(rep.trace.fit_metric[-1]),
        "spectral": spectral,
    })
    if rep.trace.diverged:
        return _divergence(rep.trace.iterations, rep.alpha, rep.alpha_max)
    print(f"experiment done: {rep.trace.iterations} iterations, "
          f"kkt_residual={rep.trace.kkt_residual[-1]:.3e}, outputs in {out}")
    return 0


def cmd_alpha_sweep(cfg: RunConfig) -> int:
    inst = build_instance(cfg.scenario, _resolve_graph(cfg), cfg.dictionary,
                          rank_tol=cfg.rank_tol)
    lap = laplacian(inst.graph)
    base = cfg.solver_gains()
    report = spectral_report(inst.partition, inst.data, lap, base.k_P, base.k_I)

    # a random start is drawn once for every theta; a zero one forms no n x n array
    init = cfg.init
    if init.mode == "random":
        init = initial_states(inst.graph.p, inst.data.feature_dim, init.mode, init.seed)
    lines = ["theta,alpha,rho_max,converged,diverged,iterations,contraction"]
    for theta in cfg.sweep_thetas:
        alpha = theta * report.alpha_max
        _, trace = run(init, inst.graph, manual_gains(base, alpha),
                       inst.partition, inst.data, series=False)
        rho = report.rho_max(alpha)
        contraction = float("nan") if trace.diverged else tail_contraction(trace)
        lines.append(",".join([
            f"{theta:.17g}", f"{alpha:.17g}",
            "" if rho is None else f"{rho:.17g}",
            str(trace.converged).lower(), str(trace.diverged).lower(),
            str(trace.iterations),
            "" if np.isnan(contraction) else f"{contraction:.17g}",
        ]))

    out = Path(cfg.out_dir)
    dataio.atomic_write_text(out / "alpha_sweep.csv", "\n".join(lines) + "\n")
    dataio.write_json(out / "sweep.json", {
        **_spectral_summary(report),
        "thetas": list(cfg.sweep_thetas),
    })
    print(f"alpha sweep over {len(cfg.sweep_thetas)} step sizes written to {out}")
    return 0


BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                         "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def _benchmark_env(cfg: RunConfig) -> dict:
    """What the timings depend on besides the code: the host's cores, the
    BLAS build and its thread variables, the interpreter and library
    versions, and the config (without ``out_dir``) and seed of the run."""
    import platform  # imported here: no other command needs it
    from importlib.metadata import version  # not ``import scipy``: nothing here needs it

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    config = to_dict(cfg)
    del config["out_dir"]
    return {
        "cpu_count": os.cpu_count(),
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": {name: os.environ.get(name) for name in BLAS_THREAD_VARIABLES},
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": version("scipy"),
        "config": config,
        "seed": cfg.scenario.seed,
    }


BENCHMARK_REPEATS = 5


def _timed_ms(call, *args, **kwargs) -> tuple[float, object]:
    """The wall-clock milliseconds of ``call(*args, **kwargs)``, and its result."""
    t0 = time.perf_counter()
    result = call(*args, **kwargs)
    return 1e3 * (time.perf_counter() - t0), result


def cmd_benchmark(cfg: RunConfig) -> int:
    graph = _resolve_graph(cfg)
    # the process's first build: lazy imports and first draws land here
    build_ms, inst = _timed_ms(build_instance, cfg.scenario, graph, cfg.dictionary,
                               rank_tol=cfg.rank_tol)
    base = cfg.solver_gains()
    report = spectral_report(inst.partition, inst.data, laplacian(inst.graph),
                             base.k_P, base.k_I)
    alpha = report.step_size(base)
    gains = manual_gains(base, alpha)
    rounds = min(200, gains.t_max)
    inputs = (cfg.init, inst.graph, gains, inst.partition, inst.data)

    # the full run first: a diverging step size would overflow the fixed rounds
    total_ms = []
    for _ in range(BENCHMARK_REPEATS):
        ms, (_, trace) = _timed_ms(run, *inputs)
        total_ms.append(ms)
        if trace.diverged:
            return _divergence(trace.iterations, alpha, report.alpha_max)
    # a fresh data each time, built outside the timer: its SVD is not yet taken
    fresh = (inst.data.X, inst.data.Y, cfg.rank_tol)
    central_ms = [_timed_ms(centralized_solve, LiftedData(*fresh))[0]
                  for _ in range(BENCHMARK_REPEATS)]
    iter_ms = [_timed_ms(iterate_rounds, *inputs, rounds)[0] / rounds
               for _ in range(BENCHMARK_REPEATS)]

    out = Path(cfg.out_dir)
    dataio.write_json(out / "benchmark.json", {
        "build_instance_ms": build_ms,
        "centralized_solve_ms": float(np.median(central_ms)),
        "distributed_iteration_ms": float(np.median(iter_ms)),
        "distributed_total_ms": float(np.median(total_ms)),
        "run_iterations": trace.iterations,
        "rounds_timed": rounds,
        "repeats": BENCHMARK_REPEATS,
        "env": _benchmark_env(cfg),
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
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)  # numpy's warning on an empty file
            data = LiftedData(X=dataio.read_matrix_csv(x_path),
                              Y=dataio.read_matrix_csv(y_path))
    except (OSError, ValueError, UserWarning) as exc:
        raise ConfigError(f"bad data matrices: {exc}") from exc
    model = centralized_solve(data)
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


COMMANDS = {"experiment": cmd_experiment, "alpha-sweep": cmd_alpha_sweep,
            "benchmark": cmd_benchmark, "gen": cmd_gen}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "solve-central":
            return cmd_solve_central(args.x_csv, args.y_csv, args.out)
        cfg = load_config(args.config, scale=args.scale, seed=args.seed,
                          out_dir=args.out)
        if getattr(args, "thetas", None) is not None:  # alpha-sweep's flag
            try:
                thetas = [float(v) for v in args.thetas.split(",") if v.strip()]
            except ValueError as exc:
                raise ConfigError(f"bad --thetas value: {exc}") from exc
            cfg = from_dict({**to_dict(cfg), "sweep_thetas": thetas})
        return COMMANDS[args.command](cfg)
    except DisconnectedGraphError as exc:
        print(f"graph error: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, GraphError, NotSemiHurwitzError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"config error: the run does not fit in memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
