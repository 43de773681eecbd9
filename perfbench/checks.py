"""Output checks for one workload run, evaluated after the timed region.

Every check holds for any seed.  The instance is rebuilt from the same
config and seed to get the lifted data, the reference operator K* and the
data rank; nothing here is timed.  K* and its spectrum are computed here,
so the written spectra are checked against a reference the run did not
produce.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from dkoopman.config import load_config
from dkoopman.edmd import centralized_solve
from dkoopman.linalg import eigenvalues, spectrum_distance
from dkoopman.scenario import build_instance

DESK_ERROR_TOL = 1e-7
ALPHA_MAX_RTOL = 1e-10
# spectrum_Kstar.csv against eigenvalues of the check's own K*, relative to ||K*||_F
KSTAR_SPECTRUM_TOL = 1e-9
# spectrum_Kave.csv on desk: K_ave is within DESK_ERROR_TOL of K*, and the desk
# spectra are well conditioned (gaps of at most 2.5e-11 on seeds 0..29)
DESK_KAVE_SPECTRUM_TOL = 1e-6


def data_rank(X: np.ndarray) -> int:
    """Rank of X under the default cutoff of ``linalg.pseudoinverse``."""
    s = np.linalg.svd(X, compute_uv=False)
    tol = max(X.shape) * np.finfo(np.float64).eps * (float(s[0]) if s.size else 0.0)
    return int(np.sum(s > tol))


def _spectrum_gap(path: Path, reference: np.ndarray, scale: float) -> float:
    """spectrum_distance of a written spectrum from ``reference``, over ``scale``."""
    raw = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return spectrum_distance(raw[:, 0] + 1j * raw[:, 1], reference) / scale


def _check_experiment(wl, cfg, inst, out: Path, problems: list) -> dict:
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    rounds = int(report["iterations"])
    if report["diverged"]:
        problems.append("run diverged")
    k_star = centralized_solve(inst.data, cfg.rank_tol).K
    scale = float(np.linalg.norm(k_star, "fro"))
    reference = eigenvalues(k_star).eigenvalues
    gap = _spectrum_gap(out / "spectrum_Kstar.csv", reference, scale)
    if not gap <= KSTAR_SPECTRUM_TOL:
        problems.append(f"spectrum_Kstar.csv is {gap:.3e} ||K*||_F from eig(K*)")
    if wl.name == "desk":
        if not report["converged"]:
            problems.append(f"run did not converge in {rounds} rounds")
        diff = np.loadtxt(out / "diff_matrix.csv", delimiter=",", ndmin=2)
        err = float(diff.max()) / scale
        if not err <= DESK_ERROR_TOL:
            problems.append(f"max|K_ave - K*| / ||K*||_F = {err:.3e} > {DESK_ERROR_TOL:g}")
        gap = _spectrum_gap(out / "spectrum_Kave.csv", reference, scale)
        if not gap <= DESK_KAVE_SPECTRUM_TOL:
            problems.append(f"spectrum_Kave.csv is {gap:.3e} ||K*||_F from eig(K*)")
    else:
        # the paper-scale qualitative rule of acceptance criterion 10
        if rounds != cfg.t_max:
            problems.append(f"{rounds} rounds, expected exactly {cfg.t_max}")
        rho = report["rho_max"]
        if rho is None or not rho < 1.0:
            problems.append(f"rho_max {rho} is not below 1")
        fit = np.loadtxt(out / "fit_trace.csv", delimiter=",", skiprows=1, ndmin=2)[:, 3]
        noise = 1e-12 * (1.0 + fit[0])
        if fit.size <= 999 or not np.all(np.diff(fit[50:]) <= noise):
            problems.append("fit trace is not non-increasing after round 50")
        elif not abs(fit[999] - fit[899]) / max(fit[899], noise) < 1e-3:
            problems.append("fit trace has not plateaued")
    return {"rounds": rounds, "n_zero": int(report["spectral"]["n_zero"]),
            "alpha_max": float(report["alpha_max"])}


def _check_sweep(cfg, out: Path, problems: list) -> dict:
    with open(out / "alpha_sweep.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != len(cfg.sweep_thetas):
        problems.append(f"{len(rows)} sweep rows for {len(cfg.sweep_thetas)} step sizes")
    for row in rows:
        if float(row["theta"]) < 1.0:
            if row["diverged"] != "false":
                problems.append(f"theta {row['theta']} < 1 diverged")
            if not row["rho_max"]:
                problems.append(f"theta {row['theta']} < 1 has no rho_max")
    summary = json.loads((out / "sweep.json").read_text(encoding="utf-8"))
    return {"rounds": sum(int(row["iterations"]) for row in rows),
            "n_zero": int(summary["n_zero"]), "alpha_max": float(summary["alpha_max"])}


def check_outputs(wl, config: Path, seed: int, out: Path) -> dict:
    """Facts read from the run's outputs plus the list of failed checks."""
    problems: list[str] = []
    cfg = load_config(config, seed=seed, out_dir=str(out))
    inst = build_instance(cfg.scenario, cfg.graph.preset, cfg.dictionary)
    n = inst.data.feature_dim
    rank = data_rank(inst.data.X)
    try:
        if wl.command == "experiment":
            facts = _check_experiment(wl, cfg, inst, out, problems)
        else:
            facts = _check_sweep(cfg, out, problems)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        problems.append(f"unreadable outputs: {exc!r}")
        facts = {}
    if facts:
        # structural source of truth for the zero count of M~
        if facts["n_zero"] != 2 * n - rank:
            problems.append(f"n_zero {facts['n_zero']} != 2n - r = {2 * n - rank}")
        if seed == wl.default_seed:
            rel = abs(facts["alpha_max"] - wl.alpha_max) / wl.alpha_max
            if not rel <= ALPHA_MAX_RTOL:
                problems.append(f"alpha_max {facts['alpha_max']!r} differs from the "
                                f"recorded {wl.alpha_max!r} by {rel:.2e}")
    return {"ok": not problems, "problems": problems, "n": n, "rank": rank, **facts}
