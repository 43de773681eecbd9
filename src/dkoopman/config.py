"""Run configuration: JSON schema, validation, and scale presets.

Configs are strict: unknown keys anywhere raise :class:`ConfigError` with
the offending key path, before any computation starts.  The ``scale``
field selects the default scenario and solver settings ("desk" is the
fast full-row-rank setup, "paper" the 20 x 20 grid with N = 9).
"""

from __future__ import annotations

import functools
import json
import math
import typing
from dataclasses import asdict, dataclass, is_dataclass
from pathlib import Path
from typing import Literal

from .consensus import SolverGains, Start
from .edmd import parse_dictionary
from .scenario import GridScenario, Rollout


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
class RunConfig:
    scale: str
    scenario: GridScenario
    gains: GainsConfig
    t_max: int
    stop_tol: float
    graph: GraphConfig = GraphConfig()
    init: Start = Start()
    rollout: Rollout = Rollout()
    dictionary: str = "vectorization"
    rank_tol: float | None = None
    out_dir: str = "out"
    sweep_thetas: tuple[float, ...] = (0.3, 0.5, 0.9)
    benchmark_repeats: int = 5

    def __post_init__(self):
        try:  # dry run: a bad spec fails here, before any computation
            if parse_dictionary(self.dictionary, q=self.scenario.feature_dim,
                                seed=self.scenario.seed).output_dim < 1:
                raise ValueError("the dictionary has no observables")
        except ValueError as exc:
            raise ValueError(f"dictionary {exc}") from exc
        if self.rank_tol is not None and self.rank_tol < 0:
            raise ValueError("rank_tol must be nonnegative")
        if not self.sweep_thetas or any(v <= 0 for v in self.sweep_thetas):
            raise ValueError("sweep_thetas needs one or more values, all positive")
        if self.benchmark_repeats < 1:
            raise ValueError("benchmark_repeats must be positive")
        self.solver_gains()  # dry run, like the dictionary's

    def solver_gains(self) -> SolverGains:
        try:
            return SolverGains(k_P=self.gains.k_P, k_I=self.gains.k_I,
                               alpha=self.gains.alpha, alpha_fraction=self.gains.theta,
                               t_max=self.t_max, stop_tol=self.stop_tol)
        except ValueError as exc:  # three of its fields have other config paths
            paths = {"alpha_fraction": "gains.theta", "t_max": "t_max", "stop_tol": "stop_tol"}
            raise _named(exc, SolverGains, "gains.", paths) from exc


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


_hints = functools.cache(typing.get_type_hints)  # evaluating string annotations is slow


def _parse(value, hint, path: str):
    """``value`` checked against the annotation ``hint``; a JSON list becomes a tuple."""
    if hint is float:
        return float(_expect(value, (int, float), path))
    if hint is int or hint is str:
        return _expect(value, hint, path)
    if is_dataclass(hint):
        return _build(hint, _expect(value, dict, path), f"{path}.")
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is Literal:
        if value not in args:
            raise ConfigError(f"{path}: must be one of {list(args)}, got {value!r}")
        return value
    if origin is tuple:  # tuple[T, ...] or a fixed tuple[T1, T2]
        items = _expect(value, (list, tuple), path)
        kinds = args[:1] * len(items) if args[-1] is Ellipsis else args
        if len(kinds) != len(items):
            raise ConfigError(f"{path}: expected {len(kinds)} items, got {len(items)}")
        return tuple(_parse(item, kind, path) for item, kind in zip(items, kinds))
    return None if value is None else _parse(value, args[0], path)  # X | None


def _named(exc: Exception, cls, prefix: str, paths: dict | None = None) -> ConfigError:
    """``exc`` of ``cls`` at ``prefix``: a message that starts with a field names it
    at ``paths[field]`` or below ``prefix``, any other is named by the object."""
    field, _, rule = str(exc).partition(" ")
    if field in _hints(cls):
        return ConfigError(f"{(paths or {}).get(field, prefix + field)}: {rule}")
    return ConfigError(f"{prefix[:-1] or 'config'}: {exc}")


def _build(cls, raw: dict, prefix: str):
    """``cls`` from the JSON object at ``prefix``; its field defaults fill missing keys."""
    hints = _hints(cls)
    unknown = raw.keys() - hints.keys()
    if unknown:
        raise ConfigError(f"unknown {prefix[:-1] or 'config'} keys {sorted(unknown)}")
    kwargs = {key: _parse(value, hints[key], prefix + key) for key, value in raw.items()}
    try:
        return cls(**kwargs)
    except ConfigError:  # already named (RunConfig's dry run of its gains)
        raise
    except (TypeError, ValueError) as exc:
        raise _named(exc, cls, prefix) from exc


def from_dict(raw: dict) -> RunConfig:
    """Validate a plain JSON dict into a RunConfig, rejecting unknown keys."""
    work = dict(_expect(raw, dict, "config"))
    scale = _expect(work.setdefault("scale", "desk"), str, "scale")
    if scale not in SCALE_DEFAULTS:
        raise ConfigError(f"scale: must be one of {sorted(SCALE_DEFAULTS)}, got {scale!r}")

    graph = work.get("graph")
    if isinstance(graph, dict):
        if "preset" in graph and "edge_file" in graph:
            raise ConfigError("graph: give either 'preset' or 'edge_file', not both")
        for key in graph.keys() & {"preset", "edge_file"}:  # None only marks the other key
            _expect(graph[key], str, f"graph.{key}")
        if "edge_file" in graph:
            work["graph"] = {**graph, "preset": None}

    gains = work.get("gains")
    if isinstance(gains, dict) and gains.get("alpha") is not None:
        if gains.get("theta") is not None:
            raise ConfigError("gains: give either 'alpha' or 'theta', not both")
        work["gains"] = {**gains, "theta": None}  # explicit alpha replaces the scale's theta

    for key, default in SCALE_DEFAULTS[scale].items():
        value = work.setdefault(key, default)
        if isinstance(default, dict) and isinstance(value, dict):
            work[key] = {**default, **value}
    return _build(RunConfig, work, "")


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
    if seed is not None and isinstance(raw.get("scenario", {}), dict):
        raw["scenario"] = {**raw.get("scenario", {}), "seed": seed}  # from_dict refuses others
    if out_dir is not None:
        raw["out_dir"] = out_dir
    return from_dict(raw)
