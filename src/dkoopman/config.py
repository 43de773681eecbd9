"""Run configuration: JSON schema, validation, and scale presets.

Configs are strict: unknown keys anywhere raise :class:`ConfigError` with
the offending key path, before any computation starts.  The ``scale``
field selects the default scenario and solver settings ("desk" is the
fast full-row-rank setup, "paper" the 20 x 20 grid with N = 9).
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

from .consensus import SolverGains
from .edmd import parse_dictionary
from .scenario import GridScenario


class ConfigError(ValueError):
    """Configuration rejected by schema validation."""


SCALE_DEFAULTS = {
    "desk": {
        # integer drift (pure permutation advection), no diffusion, full
        # logistic gain: mixes fast so the 24-sample lifted data is well
        # conditioned and the full-row-rank oracle comparison is meaningful
        "scenario": {"grid_side": 4, "num_agents": 3, "snapshots_per_agent": 8,
                     "blob_count": 6, "drift": [1.0, 0.0], "diffusion": 0.0,
                     "saturation_gain": 1.0, "seed": 5, "burn_in": 0},
        "gains": {"k_P": 5.0, "k_I": 2.0, "theta": 0.5},
        "t_max": 20000,
        "stop_tol": 1e-10,
    },
    "paper": {
        # class defaults already sit in the settled periodic regime; the run
        # uses the fixed iteration budget (stop_tol 0 disables early stop)
        "scenario": {"grid_side": 20, "num_agents": 3, "snapshots_per_agent": 3},
        "gains": {"k_P": 150.0, "k_I": 75.0, "theta": 0.5},
        "t_max": 1000,
        "stop_tol": 0.0,
    },
}

_SCENARIO_INTS = {"grid_side", "num_agents", "snapshots_per_agent", "blob_count",
                  "seed", "burn_in"}
_SCENARIO_KEYS = _SCENARIO_INTS | {"drift", "diffusion", "saturation_gain"}
_NUMBER = (int, float)


@dataclass(frozen=True)
class GraphConfig:
    preset: str | None = "ring"
    edge_file: str | None = None


@dataclass(frozen=True)
class GainsConfig:
    k_P: float
    k_I: float
    alpha: float | None = None
    theta: float | None = None


@dataclass(frozen=True)
class InitConfig:
    mode: str = "zeros"
    seed: int = 0


@dataclass(frozen=True)
class RolloutConfig:
    steps: int = 10
    start: str = "last_train"


@dataclass(frozen=True)
class RunConfig:
    scale: str
    scenario: GridScenario
    graph: GraphConfig
    gains: GainsConfig
    t_max: int
    stop_tol: float
    init: InitConfig
    rollout: RolloutConfig
    dictionary: str
    rank_tol: float | None
    out_dir: str
    sweep_thetas: tuple[float, ...]
    benchmark_repeats: int

    def solver_gains(self) -> SolverGains:
        try:
            return SolverGains(k_P=self.gains.k_P, k_I=self.gains.k_I,
                               alpha=self.gains.alpha, alpha_fraction=self.gains.theta,
                               t_max=self.t_max, stop_tol=self.stop_tol)
        except ValueError as exc:
            raise ConfigError(f"gains: {exc}") from exc


def _expect(value, types, path: str):
    types = types if isinstance(types, tuple) else (types,)
    if (not isinstance(value, types) or isinstance(value, bool) and bool not in types
            or isinstance(value, float) and not math.isfinite(value)):  # JSON NaN, Infinity
        names = "/".join(t.__name__ for t in types)
        raise ConfigError(f"{path}: expected {names}, got {value!r}")
    if isinstance(value, int) and float in types:
        try:
            float(value)
        except OverflowError:
            raise ConfigError(f"{path}: integer too large for a float") from None
    return value


def _sub_dict(raw: dict, key: str, allowed: set, path: str) -> dict:
    sub = raw.pop(key, {})
    _expect(sub, dict, f"{path}{key}")
    unknown = set(sub) - allowed
    if unknown:
        raise ConfigError(f"{path}{key}: unknown keys {sorted(unknown)}")
    return dict(sub)


def from_dict(raw: dict) -> RunConfig:
    """Validate a plain JSON dict into a RunConfig, rejecting unknown keys."""
    _expect(raw, dict, "config")
    work = dict(raw)

    scale = _expect(work.pop("scale", "desk"), str, "scale")
    if scale not in SCALE_DEFAULTS:
        raise ConfigError(f"scale: must be one of {sorted(SCALE_DEFAULTS)}, got {scale!r}")
    defaults = SCALE_DEFAULTS[scale]

    scn_dict = {**defaults["scenario"],
                **_sub_dict(work, "scenario", _SCENARIO_KEYS, "")}
    for key, value in scn_dict.items():
        if key != "drift":
            _expect(value, int if key in _SCENARIO_INTS else _NUMBER, f"scenario.{key}")
    if "drift" in scn_dict:
        drift = scn_dict["drift"]
        _expect(drift, (list, tuple), "scenario.drift")
        if len(drift) != 2:
            raise ConfigError("scenario.drift: expected [vx, vy]")
        scn_dict["drift"] = tuple(float(_expect(v, _NUMBER, "scenario.drift")) for v in drift)
    try:
        scenario = GridScenario(**scn_dict)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"scenario: {exc}") from exc

    graph_dict = _sub_dict(work, "graph", {"preset", "edge_file"}, "")
    if "preset" in graph_dict and "edge_file" in graph_dict:
        raise ConfigError("graph: give either 'preset' or 'edge_file', not both")
    if "edge_file" in graph_dict:
        graph = GraphConfig(preset=None, edge_file=_expect(graph_dict["edge_file"], str,
                                                           "graph.edge_file"))
    else:
        graph = GraphConfig(preset=_expect(graph_dict.get("preset", "ring"), str,
                                           "graph.preset"), edge_file=None)

    user_gains = _sub_dict(work, "gains", {"k_P", "k_I", "alpha", "theta"}, "")
    if user_gains.get("alpha") is not None and user_gains.get("theta") is not None:
        raise ConfigError("gains: give either 'alpha' or 'theta', not both")
    gains_dict = {**defaults["gains"], **user_gains}
    if user_gains.get("alpha") is not None:
        gains_dict.pop("theta", None)  # explicit alpha replaces the scale default theta
    for key in ("k_P", "k_I"):
        _expect(gains_dict.get(key), _NUMBER, f"gains.{key}")
    for key in ("alpha", "theta"):
        if gains_dict.get(key) is not None:
            _expect(gains_dict[key], _NUMBER, f"gains.{key}")
    gains = GainsConfig(k_P=float(gains_dict["k_P"]), k_I=float(gains_dict["k_I"]),
                        alpha=(None if gains_dict.get("alpha") is None
                               else float(gains_dict["alpha"])),
                        theta=(None if gains_dict.get("theta") is None
                               else float(gains_dict["theta"])))

    t_max = int(_expect(work.pop("t_max", defaults["t_max"]), (int,), "t_max"))
    stop_tol = float(_expect(work.pop("stop_tol", defaults["stop_tol"]), _NUMBER,
                             "stop_tol"))

    init_dict = _sub_dict(work, "init", {"mode", "seed"}, "")
    init = InitConfig(mode=str(init_dict.get("mode", "zeros")),
                      seed=_expect(init_dict.get("seed", 0), int, "init.seed"))
    if init.mode not in ("zeros", "random"):
        raise ConfigError(f"init.mode: must be 'zeros' or 'random', got {init.mode!r}")
    if init.seed < 0:
        raise ConfigError("init.seed: must be nonnegative")

    roll_dict = _sub_dict(work, "rollout", {"steps", "start"}, "")
    rollout = RolloutConfig(steps=_expect(roll_dict.get("steps", 10), int, "rollout.steps"),
                            start=str(roll_dict.get("start", "last_train")))
    if rollout.start not in ("last_train", "first_train"):
        raise ConfigError("rollout.start: must be 'last_train' or 'first_train'")
    if rollout.steps < 1:
        raise ConfigError("rollout.steps: must be positive")

    dictionary = _expect(work.pop("dictionary", "vectorization"), str, "dictionary")
    try:  # dry run: a bad spec fails here, before any computation
        if parse_dictionary(dictionary, q=scenario.feature_dim,
                            seed=scenario.seed).output_dim < 1:
            raise ValueError("the dictionary has no observables")
    except ValueError as exc:
        raise ConfigError(f"dictionary: {exc}") from exc

    rank_tol = work.pop("rank_tol", None)
    if rank_tol is not None:
        rank_tol = float(_expect(rank_tol, _NUMBER, "rank_tol"))
        if rank_tol < 0:
            raise ConfigError("rank_tol: must be nonnegative")

    out_dir = _expect(work.pop("out_dir", "out"), str, "out_dir")

    thetas = work.pop("sweep_thetas", [0.3, 0.5, 0.9])
    _expect(thetas, (list, tuple), "sweep_thetas")
    sweep_thetas = tuple(float(_expect(v, _NUMBER, "sweep_thetas")) for v in thetas)
    if not sweep_thetas or any(v <= 0 for v in sweep_thetas):
        raise ConfigError("sweep_thetas: needs one or more values, all positive")

    repeats = int(_expect(work.pop("benchmark_repeats", 5), (int,), "benchmark_repeats"))
    if repeats < 1:
        raise ConfigError("benchmark_repeats: must be positive")

    if work:
        raise ConfigError(f"unknown config keys {sorted(work)}")

    return RunConfig(scale=scale, scenario=scenario, graph=graph, gains=gains,
                     t_max=t_max, stop_tol=stop_tol, init=init, rollout=rollout,
                     dictionary=dictionary, rank_tol=rank_tol, out_dir=out_dir,
                     sweep_thetas=sweep_thetas, benchmark_repeats=repeats)


def to_dict(cfg: RunConfig) -> dict:
    """Plain JSON-ready dict; from_dict inverts it exactly (it takes no None graph key)."""
    raw = asdict(cfg)
    raw["graph"] = {key: value for key, value in raw["graph"].items() if value is not None}
    return raw


def load_config(path=None, scale: str | None = None, seed: int | None = None,
                out_dir: str | None = None) -> RunConfig:
    """Read a JSON config (or start from {}) and apply CLI overrides."""
    raw = {}
    if path is not None:
        try:
            raw = json.loads(Path(path).read_text(encoding="utf-8"))
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    _expect(raw, dict, "config")
    raw = dict(raw)
    if scale is not None:
        raw["scale"] = scale
    if seed is not None:
        scn = dict(raw.get("scenario", {}))
        scn["seed"] = seed
        raw["scenario"] = scn
    if out_dir is not None:
        raw["out_dir"] = out_dir
    return from_dict(raw)
