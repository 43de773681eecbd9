import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dkoopman import cli, consensus, dataio, edmd, scenario
from dkoopman.config import ConfigError, from_dict, load_config, to_dict
from dkoopman.consensus import SolverGains, initial_states, run, spectral_report
from dkoopman.graphs import Graph, GraphError, laplacian, parse_graph_text
from dkoopman.edmd import centralized_solve
from dkoopman.linalg import eigenvalues, pseudoinverse, spectrum_distance
from dkoopman.scenario import build_instance

SMALL_SCENARIO = {"grid_side": 3, "num_agents": 3, "snapshots_per_agent": 6,
                  "seed": 9}


def small_config(**extra):
    cfg = {"scale": "desk", "scenario": dict(SMALL_SCENARIO),
           "t_max": 12000, "stop_tol": 1e-9, "rollout": {"steps": 3}}
    cfg.update(extra)
    return cfg


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def _finite_or_null(obj):
    """``obj`` with every NaN and infinite float replaced by None."""
    if isinstance(obj, dict):
        return {key: _finite_or_null(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_or_null(value) for value in obj]
    if isinstance(obj, float) and not np.isfinite(obj):
        return None
    return obj


def reference_json(obj) -> str:
    """The text ``dataio.write_json`` wrote before it rendered JSON itself, as oracle."""
    return json.dumps(_finite_or_null(obj), indent=2, sort_keys=True, allow_nan=False) + "\n"


def fstring_csv(rows) -> str:
    """The per-value ``f"{v:.17g}"`` text the CSV writers once produced, as oracle."""
    return "".join(",".join(f"{v:.17g}" for v in row) + "\n" for row in rows)


# a quiet NaN with another payload than np.nan: bitwise a different value
NAN2 = float(np.array([0x7FF8000000000001], dtype=np.uint64).view(np.float64)[0])


class TestConfigSchema:
    def test_round_trip_identity(self):
        cfg = from_dict(small_config())
        assert from_dict(to_dict(cfg)) == cfg

    def test_round_trip_paper_scale(self):
        cfg = from_dict({"scale": "paper"})
        assert from_dict(to_dict(cfg)) == cfg

    @pytest.mark.parametrize("extra", [
        {"graph": {"edge_file": "g.txt"}},
        {"gains": {"k_P": 5.0, "k_I": 2.0, "alpha": 0.01}},  # theta None
        {"rank_tol": 1e-7},
        {"init": {"mode": "random", "seed": 4}},
    ])
    def test_round_trip_through_json_text(self, extra):
        cfg = from_dict(small_config(**extra))
        assert from_dict(json.loads(json.dumps(to_dict(cfg)))) == cfg

    def test_defaults_by_scale(self):
        desk = from_dict({})
        assert desk.scenario.grid_side == 4 and desk.gains.k_P == 5.0
        paper = from_dict({"scale": "paper"})
        assert paper.scenario.grid_side == 20 and paper.gains.k_P == 150.0
        assert paper.scenario.saturation_gain == pytest.approx(0.945)

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            from_dict({"scenario_typo": {}})

    def test_unknown_nested_key(self):
        with pytest.raises(ConfigError, match="grid_size"):
            from_dict({"scenario": {"grid_size": 5}})
        with pytest.raises(ConfigError, match="gains"):
            from_dict({"gains": {"k_D": 1.0}})

    def test_bad_scale(self):
        with pytest.raises(ConfigError, match="scale"):
            from_dict({"scale": "galactic"})

    def test_bad_scenario_value(self):
        with pytest.raises(ConfigError, match="scenario"):
            from_dict({"scenario": {"diffusion": 0.9}})

    def test_theta_out_of_range_surfaces_as_config_error(self):
        with pytest.raises(ConfigError, match="gains"):
            from_dict({"gains": {"theta": 1.5}})

    def test_explicit_alpha_supersedes_default_theta(self):
        cfg = from_dict({"gains": {"alpha": 0.01}})
        assert cfg.gains.alpha == 0.01 and cfg.gains.theta is None
        gains = cfg.solver_gains()
        assert gains.alpha == 0.01

    def test_alpha_and_theta_together_rejected(self):
        with pytest.raises(ConfigError, match="gains"):
            from_dict({"gains": {"alpha": 0.01, "theta": 0.5}})

    def test_graph_preset_or_edge_file(self):
        assert from_dict({"graph": {"preset": "star"}}).graph.preset == "star"
        assert from_dict({"graph": {"edge_file": "g.txt"}}).graph.edge_file == "g.txt"
        with pytest.raises(ConfigError, match="graph"):
            from_dict({"graph": {"preset": "ring", "edge_file": "g.txt"}})

    def test_sweep_thetas_validation(self):
        with pytest.raises(ConfigError, match="sweep_thetas"):
            from_dict({"sweep_thetas": [0.5, -1.0]})

    def test_load_config_overrides(self, tmp_path):
        path = write_config(tmp_path, small_config())
        cfg = load_config(path, seed=99, out_dir="elsewhere")
        assert cfg.scenario.seed == 99 and cfg.out_dir == "elsewhere"
        cfg2 = load_config(path, scale="paper")
        assert cfg2.scenario.grid_side == 3  # explicit keys survive the override

    def test_load_config_missing_file(self):
        with pytest.raises(ConfigError):
            load_config("no/such/config.json")

    def test_load_config_bad_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(str(path))


class TestGenCommand:
    def test_writes_frames_and_binary(self, tmp_path):
        out = tmp_path / "frames"
        rc = cli.main(["gen", "--scale", "desk", "--out", str(out), "--seed", "3"])
        assert rc == 0
        csvs = sorted(out.glob("frame_*.csv"))
        assert len(csvs) == 25  # N + 1 at desk scale
        frames_bin = dataio.read_frames_binary(out / "frames.bin")
        assert frames_bin.shape == (25, 4, 4)
        first = dataio.read_matrix_csv(csvs[0])
        assert np.allclose(first, frames_bin[0], atol=0)
        assert not list(out.glob("*.tmp"))

    def test_seed_determinism(self, tmp_path):
        a, b, c = (tmp_path / x for x in "abc")
        assert cli.main(["gen", "--out", str(a), "--seed", "3"]) == 0
        assert cli.main(["gen", "--out", str(b), "--seed", "3"]) == 0
        assert cli.main(["gen", "--out", str(c), "--seed", "4"]) == 0
        bytes_a = (a / "frames.bin").read_bytes()
        assert bytes_a == (b / "frames.bin").read_bytes()
        assert bytes_a != (c / "frames.bin").read_bytes()


class TestSolveCentralCommand:
    def test_matches_pseudoinverse_solve(self, tmp_path):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((3, 8))
        Y = rng.standard_normal((3, 8))
        dataio.write_matrix_csv(tmp_path / "X.csv", X)
        dataio.write_matrix_csv(tmp_path / "Y.csv", Y)
        rc = cli.main(["solve-central", str(tmp_path / "X.csv"),
                       str(tmp_path / "Y.csv"), "--out", str(tmp_path)])
        assert rc == 0
        K = dataio.read_matrix_csv(tmp_path / "Kstar.csv")
        assert np.allclose(K, Y @ pseudoinverse(X), atol=1e-12)

    def test_shape_mismatch_is_config_error(self, tmp_path):
        dataio.write_matrix_csv(tmp_path / "X.csv", np.ones((2, 3)))
        dataio.write_matrix_csv(tmp_path / "Y.csv", np.ones((2, 4)))
        rc = cli.main(["solve-central", str(tmp_path / "X.csv"),
                       str(tmp_path / "Y.csv"), "--out", str(tmp_path)])
        assert rc == 2

    def test_missing_file(self, tmp_path):
        rc = cli.main(["solve-central", "nope.csv", "nope.csv",
                       "--out", str(tmp_path)])
        assert rc == 2

    @pytest.mark.parametrize("x_text, y_text", [
        ("1,nan\n2,3\n", "1,2\n3,4\n"),   # non-finite X
        ("1,2\n3,4\n", "inf,2\n3,4\n"),   # non-finite Y
        ("", ""),                            # no entries
    ], ids=["nan_X", "inf_Y", "empty"])
    def test_unusable_data_exit_2(self, tmp_path, capsys, x_text, y_text):
        (tmp_path / "X.csv").write_text(x_text)
        (tmp_path / "Y.csv").write_text(y_text)
        rc = cli.main(["solve-central", str(tmp_path / "X.csv"),
                       str(tmp_path / "Y.csv"), "--out", str(tmp_path)])
        assert rc == 2
        assert "Traceback" not in capsys.readouterr().err
        assert not (tmp_path / "Kstar.csv").exists()


class TestExperimentCommand:
    def test_desk_end_to_end(self, tmp_path):
        out = tmp_path / "run"
        path = write_config(tmp_path, small_config(out_dir=str(out)))
        rc = cli.main(["experiment", "--config", path])
        assert rc == 0
        for name in ("spectrum_Kave.csv", "spectrum_Kstar.csv", "diff_matrix.csv",
                     "fit_trace.csv", "rollout_error.csv", "report.json"):
            assert (out / name).exists(), name
        report = dataio.read_json(out / "report.json")
        assert report["kkt_residual"] <= 1e-8
        assert report["converged"] is True
        assert report["rho_max"] < 1.0
        assert report["alpha_max"] > 0.0
        assert report["spectral"]["semi_hurwitz"] is True
        spec = dataio.read_spectrum_csv(out / "spectrum_Kave.csv")
        assert spec.shape == (9,)
        trace = (out / "fit_trace.csv").read_text().splitlines()
        assert trace[0] == "iteration,consensus_error,objective_mean,fit_metric," \
                           "kkt_residual,integral_sum_norm"
        assert len(trace) - 1 == report["iterations"]
        assert not list(out.glob("*.tmp"))

    def test_unknown_key_exit_2(self, tmp_path):
        path = write_config(tmp_path, {"bogus": 1})
        assert cli.main(["experiment", "--config", path]) == 2

    @pytest.mark.parametrize("cfg, where", [
        ({"init": {"seed": "x"}}, "init.seed"),
        ({"init": {"seed": True}}, "init.seed"),
        ({"init": {"mode": "random", "seed": -1}}, "init.seed"),
        ({"rollout": {"steps": "x"}}, "rollout.steps"),
        ({"dictionary": "bogus"}, "dictionary"),
        ({"dictionary": "monomial:abc"}, "dictionary"),
        ({"scenario": {"grid_side": 2.5}}, "scenario.grid_side"),
        ({"scenario": {"drift": ["x", 0]}}, "scenario.drift"),
        ({"gains": {"theta": "0.5"}}, "gains.theta"),
        ({"sweep_thetas": [0.5, "x"]}, "sweep_thetas"),
        ({"dictionary": "radial:0:1.0"}, "dictionary"),
        ({"sweep_thetas": []}, "sweep_thetas"),
        ({"sweep_thetas": [float("nan")]}, "sweep_thetas"),
        ({"sweep_thetas": [float("inf")]}, "sweep_thetas"),
        ({"rank_tol": float("nan")}, "rank_tol"),
        ({"stop_tol": float("nan")}, "stop_tol"),
        ({"stop_tol": 10**400}, "stop_tol"),  # an int no float can hold
        ({"gains": {"k_P": 10**400}}, "gains.k_P"),
        ({"rank_tol": 10**400}, "rank_tol"),
        ({"scale": []}, "scale"),
        ({"scale": {}}, "scale"),
        ({"dictionary": "radial:2:nan"}, "dictionary"),
        ({"dictionary": "radial:3:1e200"}, "dictionary"),  # 2 * width**2 overflows
        ({"dictionary": "radial:3:1e-200"}, "dictionary"),  # 2 * width**2 underflows to 0
        ({"t_max": 0}, "t_max"),  # the SolverGains rules, named by their config path
        ({"stop_tol": -1.0}, "stop_tol"),
        ({"gains": {"theta": 1.5}}, "gains.theta"),
        ({"gains": {"alpha": -1.0}}, "gains.alpha"),
        ({"gains": {"k_I": 0.0}}, "gains.k_I"),
        ({"dictionary": "monomial:\u0663"}, "dictionary"),  # numbers are ASCII digits only
        ({"dictionary": "monomial:+1"}, "dictionary"),
        ({"dictionary": "radial:3:1_0.5"}, "dictionary"),
        ({"dictionary": "radial:\u0663:\u0660.\u0665"}, "dictionary"),
        ({"scenario": {"drift": [1.0]}}, "scenario.drift: expected 2 items, got 1"),
    ])
    def test_malformed_leaf_exit_2(self, tmp_path, capsys, cfg, where):
        path = write_config(tmp_path, cfg)
        assert cli.main(["experiment", "--config", path, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {where}") and "Traceback" not in err
        assert not list(tmp_path.glob("*.csv"))

    # each range rule of GridScenario, Start and Rollout, named by its key path
    @pytest.mark.parametrize("cfg, line", [
        ({"scenario": {"grid_side": 1}}, "scenario.grid_side: must be at least 2"),
        ({"scenario": {"num_agents": 0}}, "scenario.num_agents: must be at least 1"),
        ({"scenario": {"snapshots_per_agent": 0}},
         "scenario.snapshots_per_agent: must be at least 1"),
        ({"scenario": {"blob_count": -1}}, "scenario.blob_count: must be nonnegative"),
        ({"scenario": {"diffusion": 0.3}}, "scenario.diffusion: must lie in [0, 0.25] "),
        ({"scenario": {"saturation_gain": 1.5}},
         "scenario.saturation_gain: must lie in [0, 1] "),
        ({"scenario": {"seed": -2}}, "scenario.seed: must be nonnegative"),
        ({"scenario": {"burn_in": -1}}, "scenario.burn_in: must be nonnegative"),
        ({"init": {"seed": -1}}, "init.seed: must be a nonnegative integer, got -1"),
        ({"init": {"mode": "ones"}},
         "init.mode: must be one of ['zeros', 'random'], got 'ones'"),
        ({"rollout": {"steps": 0}}, "rollout.steps: must be positive"),
        ({"rollout": {"start": "middle"}},
         "rollout.start: must be one of ['last_train', 'first_train'], got 'middle'"),
    ])
    def test_range_rule_named_by_its_path_exit_2(self, tmp_path, capsys, cfg, line):
        path = write_config(tmp_path, cfg)
        assert cli.main(["experiment", "--config", path, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {line}") and len(err.splitlines()) == 1
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("cfg, where", [
        ({"out_dir": None}, "out_dir"),
        ({"out_dir": ["a", 1]}, "out_dir"),
        ({"graph": {"preset": None}}, "graph.preset"),
        ({"graph": {"edge_file": None}}, "graph.edge_file"),
        ({"graph": {"edge_file": 1}}, "graph.edge_file"),
    ])
    def test_non_string_path_leaf_exit_2(self, tmp_path, monkeypatch, capsys, cfg, where):
        # without --out the config's out_dir is used; a non-string one must not
        # become a directory named after its repr
        with pytest.raises(ConfigError, match=where):
            from_dict(cfg)
        path = write_config(tmp_path, small_config(**cfg))
        monkeypatch.chdir(tmp_path)
        assert cli.main(["experiment", "--config", path]) == 2
        err = capsys.readouterr().err
        assert where in err and len(err.splitlines()) == 1 and "Traceback" not in err
        assert os.listdir(tmp_path) == ["config.json"]

    @pytest.mark.parametrize("scenario", [[1], "ab", 5, None])
    def test_seed_override_of_non_object_scenario_exit_2(self, tmp_path, monkeypatch,
                                                         capsys, scenario):
        # --seed goes into the scenario object; anything else is refused as
        # it is without --seed
        path = write_config(tmp_path, {"scenario": scenario})
        monkeypatch.chdir(tmp_path)
        assert cli.main(["experiment", "--config", path, "--seed", "3"]) == 2
        err = capsys.readouterr().err
        assert "scenario" in err and len(err.splitlines()) == 1 and "Traceback" not in err
        assert os.listdir(tmp_path) == ["config.json"]

    @pytest.mark.parametrize("command", ["experiment", "alpha-sweep", "benchmark"])
    @pytest.mark.parametrize("k_P", [1e160, 1e308])
    def test_overflowing_gains_exit_2(self, tmp_path, capsys, command, k_P):
        # 1e160 overflows the zero cutoff (0 * inf when r = n), 1e308 M~ itself
        path = write_config(tmp_path, {"gains": {"k_P": k_P, "k_I": 1}})
        assert cli.main([command, "--config", path, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "k_P=" in err and len(err.splitlines()) == 1 and "Traceback" not in err
        assert not list(tmp_path.glob("*.csv"))

    # the experiment cases' ids are their bare step sizes, kept stable for test selection
    @pytest.mark.parametrize("command, alpha", [
        pytest.param(command, alpha, id=f"{alpha}{suffix}")
        for command, suffix in (("experiment", ""), ("benchmark", "-benchmark"))
        for alpha in (1e200, 1e308)])
    def test_divergent_step_exit_4(self, tmp_path, capsys, command, alpha):
        # at 1e308 the round that trips the guard overflows; the run returns
        # the finite states that entered it
        out = tmp_path / "run"
        cfg = small_config(gains={"alpha": alpha}, out_dir=str(out))
        assert cli.main([command, "--config", write_config(tmp_path, cfg)]) == 4
        err = capsys.readouterr().err
        assert "divergence flag raised" in err and "Traceback" not in err
        if command == "benchmark":  # it times nothing past the diverged run
            assert len(err.splitlines()) == 1 and not out.exists()
            return
        report = dataio.read_json(out / "report.json")
        assert report["diverged"] is True and report["converged"] is False

        def refuse(token):
            raise ValueError(f"{token} is not JSON")

        # the first round's residuals overflow; JSON has no token for them
        strict = json.loads((out / "report.json").read_text(), parse_constant=refuse)
        last = np.loadtxt(out / "fit_trace.csv", delimiter=",", skiprows=1, ndmin=2)[-1]
        assert not np.all(np.isfinite(last))
        for key in ("consensus_error", "objective_mean", "fit_metric"):
            value = last[dataio.TRACE_COLUMNS.index(key)]
            assert strict[key] == (value if np.isfinite(value) else None), key

    def test_ints_accepted_where_floats_expected(self):
        cfg = from_dict({"gains": {"k_P": 5, "k_I": 2, "alpha": 1}, "stop_tol": 0,
                         "scenario": {"drift": [1, 0], "diffusion": 0}, "sweep_thetas": [1]})
        assert cfg.gains.alpha == 1.0 and cfg.scenario.drift == (1.0, 0.0)

    def test_edge_file_graph(self, tmp_path):
        graph_path = tmp_path / "g.txt"
        graph_path.write_text("3\n0 1\n1 2\n")
        out = tmp_path / "run"
        cfg = small_config(graph={"edge_file": str(graph_path)}, out_dir=str(out))
        assert cli.main(["experiment", "--config", write_config(tmp_path, cfg)]) == 0

    @pytest.mark.parametrize("config_bytes, graph_bytes", [
        (None, b"3\n0 x\n"),
        (b'{"t_max": 5, "dictionary": "\xff"}', None),
        (None, b"3\n0 1\n1 \xff\n"),
        (None, "3\n0 1\n1 \u0662\n".encode()),
        (None, b"+3\n0 1\n1 2\n"),
    ], ids=["edge line not two integers", "config not UTF-8", "edge file not UTF-8",
            "vertex id not ASCII", "signed vertex count"])
    def test_malformed_file_exit_2(self, tmp_path, capsys, config_bytes, graph_bytes):
        graph_path = tmp_path / "g.txt"
        graph_path.write_bytes(graph_bytes or b"3\n0 1\n1 2\n")
        cfg = small_config(graph={"edge_file": str(graph_path)}, out_dir=str(tmp_path / "run"))
        path = write_config(tmp_path, cfg)
        if config_bytes is not None:
            Path(path).write_bytes(config_bytes)
        assert cli.main(["experiment", "--config", path]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "Traceback" not in err
        assert not (tmp_path / "run").exists()

    def test_disconnected_graph_exit_3(self, tmp_path):
        graph_path = tmp_path / "g.txt"
        graph_path.write_text("3\n0 1\n")
        cfg = small_config(graph={"edge_file": str(graph_path)},
                           out_dir=str(tmp_path / "run"))
        assert cli.main(["experiment", "--config", write_config(tmp_path, cfg)]) == 3

    @pytest.mark.parametrize("command", ["experiment", "alpha-sweep", "benchmark"])
    def test_graph_size_mismatch_exit_2(self, tmp_path, capsys, command):
        graph_path = tmp_path / "g.txt"
        graph_path.write_text("4\n0 1\n1 2\n2 3\n")
        cfg = small_config(graph={"edge_file": str(graph_path)},
                           out_dir=str(tmp_path / "run"))
        assert cli.main([command, "--config", write_config(tmp_path, cfg)]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "Traceback" not in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("cfg", [{"t_max": 0}, {"stop_tol": -1.0},
                                     {"gains": {"theta": 1.5}}, {"gains": {"k_I": 0.0}}])
    def test_gains_rules_checked_at_load_exit_2(self, tmp_path, capsys, cfg):
        # gen never builds the solver's gains, yet refuses a config that breaks them
        out = tmp_path / "run"
        assert cli.main(["gen", "--config", write_config(tmp_path, cfg),
                         "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "Traceback" not in err
        assert not out.exists()

    def test_divergent_alpha_exit_4(self, tmp_path):
        out = tmp_path / "run"
        cfg = small_config(gains={"k_P": 5.0, "k_I": 2.0, "alpha": 5.0},
                           init={"mode": "random", "seed": 1}, out_dir=str(out))
        rc = cli.main(["experiment", "--config", write_config(tmp_path, cfg)])
        assert rc == 4
        report = dataio.read_json(out / "report.json")
        assert report["diverged"] is True


    def test_structural_zero_count_keys(self, tmp_path):
        out = tmp_path / "run"
        cfg = small_config(t_max=5, out_dir=str(out))
        assert cli.main(["experiment", "--config", write_config(tmp_path, cfg)]) == 0
        spectral = dataio.read_json(out / "report.json")["spectral"]
        n = SMALL_SCENARIO["grid_side"] ** 2
        assert spectral["rank"] == n  # N = 18 > n = 9 columns
        assert spectral["n_zero"] == spectral["n_zero_structural"] == 2 * n - n
        assert spectral["n_unresolved"] == spectral["n_unresolved_predicted"] == 0
        # M shares M~'s eigenvalues, so the report keeps only M's zero cutoff
        assert "spectrum_M" not in spectral
        run_cfg = load_config(write_config(tmp_path, cfg))
        inst = build_instance(run_cfg.scenario, run_cfg.graph.preset, run_cfg.dictionary)
        rep = spectral_report(inst.partition, inst.data, laplacian(inst.graph),
                              run_cfg.gains.k_P, run_cfg.gains.k_I)
        assert spectral["zero_tol_M"] == rep.spectrum_M.zero_tol

    @pytest.mark.parametrize("scenario", [{}, {"snapshots_per_agent": 2}])
    def test_repeated_runs_byte_identical(self, tmp_path, scenario):
        # the desk instance (n = 16 <= N = 24), and n = 16 > N = 6, where the
        # solver also takes the columns of its state in a basis of range(Y)
        outs = [tmp_path / "a", tmp_path / "b"]
        for out in outs:
            cfg = {"scale": "desk", "scenario": scenario, "out_dir": str(out)}
            assert cli.main(["experiment", "--config", write_config(tmp_path, cfg)]) == 0
        names = sorted(p.name for p in outs[0].iterdir())
        assert names == sorted(p.name for p in outs[1].iterdir())
        for name in names:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name

    def test_paper_outputs(self, tmp_path):
        # the paper-scale outputs against a K* and dense spectrum computed here
        out = tmp_path / "paper"
        assert cli.main(["experiment", "--scale", "paper", "--out", str(out)]) == 0
        cfg = load_config(None, scale="paper")
        inst = build_instance(cfg.scenario, cfg.graph.preset, cfg.dictionary)
        k_star = centralized_solve(inst.data, cfg.rank_tol).K
        scale = float(np.linalg.norm(k_star))
        dense = eigenvalues(k_star).eigenvalues
        n = k_star.shape[0]
        r = dataio.read_json(out / "report.json")["spectral"]["rank"]
        assert r == 3 < n
        for name in ("spectrum_Kstar.csv", "spectrum_Kave.csv"):
            lines = (out / name).read_text().splitlines()
            assert lines.count("0,0") == n - r, name
            gap = spectrum_distance(dataio.read_spectrum_csv(out / name), dense)
            assert gap <= 1e-9 * scale, name
        diff = dataio.read_matrix_csv(out / "diff_matrix.csv")
        assert diff.shape == (n, n) and diff.max() <= 1e-7 * scale
        # paper seeds 0..19 other than 16 give at most 4.3e-14 (seed 16 has
        # r = 4 and has not converged after the 1,000 rounds: 5.9e-6)
        err = dataio.read_matrix_csv(out / "rollout_error.csv")
        assert err.shape == (10, n)
        assert np.all(np.isfinite(err)) and err.max() <= 1e-10

    @pytest.mark.parametrize("cfg", [
        {"dictionary": "radial:10000000000:1"},  # 10^10 centers: 1.16 TiB of them
        {"scale": "paper", "dictionary": "monomial:2"},  # n = C(402, 2) = 80,601
    ])
    def test_oversized_dictionary_exit_2(self, tmp_path, capsys, monkeypatch, cfg):
        # refused from the spec's feature count, before any dictionary or frame
        def never(*args, **kwargs):
            raise AssertionError("built before the size check")

        for module, name in ((edmd, "monomial_dictionary"), (edmd, "radial_dictionary"),
                             (scenario, "simulate_frames")):
            monkeypatch.setattr(module, name, never)
        path = write_config(tmp_path, cfg)
        start = time.perf_counter()
        assert cli.main(["experiment", "--config", path, "--out", str(tmp_path / "o")]) == 2
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert "dictionary" in err and "GiB" in err
        assert len(err.splitlines()) == 1 and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_rich_dictionary_n_much_larger_than_N(self, tmp_path):
        # monomials up to degree 3 of 16 grid values: n = 969 features from
        # N = 6 columns, so the spectral report solves a 2pr = 36 block, not
        # a 2np = 5814 one
        out = tmp_path / "rich"
        cfg = {"scale": "desk", "dictionary": "monomial:3",
               "scenario": {"snapshots_per_agent": 2}, "t_max": 20,
               "out_dir": str(out)}
        assert cli.main(["experiment", "--config", write_config(tmp_path, cfg)]) == 0
        spectral = dataio.read_json(out / "report.json")["spectral"]
        assert spectral["rank"] == 6
        assert spectral["n_zero"] == spectral["n_zero_structural"] == 2 * 969 - 6


class TestAlphaSweepCommand:
    def test_sweep_rows(self, tmp_path):
        out = tmp_path / "sweep"
        cfg = small_config(out_dir=str(out), sweep_thetas=[0.5, 0.9])
        rc = cli.main(["alpha-sweep", "--config", write_config(tmp_path, cfg),
                       "--thetas", "0.5,0.9,3.0"])
        assert rc == 0
        lines = (out / "alpha_sweep.csv").read_text().splitlines()
        assert lines[0] == "theta,alpha,rho_max,converged,diverged,iterations,contraction"
        rows = [ln.split(",") for ln in lines[1:]]
        assert len(rows) == 3
        by_theta = {float(r[0]): r for r in rows}
        assert by_theta[0.5][3] == "true" and by_theta[0.9][3] == "true"
        assert by_theta[3.0][2] == ""  # no rho_max at or above the bound
        sweep = dataio.read_json(out / "sweep.json")
        assert sweep["alpha_max"] > 0.0
        for theta, row in by_theta.items():
            assert float(row[1]) == pytest.approx(theta * sweep["alpha_max"])
        contraction = float(by_theta[0.5][6])
        assert 0.0 < contraction < 1.0

    def test_structural_zero_count_keys(self, tmp_path):
        out = tmp_path / "sweep"
        cfg = small_config(t_max=5, out_dir=str(out))
        rc = cli.main(["alpha-sweep", "--config", write_config(tmp_path, cfg),
                       "--thetas", "0.5"])
        assert rc == 0
        sweep = dataio.read_json(out / "sweep.json")
        n = SMALL_SCENARIO["grid_side"] ** 2
        assert sweep["rank"] == n
        assert sweep["n_zero"] == sweep["n_zero_structural"] == 2 * n - n
        assert sweep["n_unresolved"] == sweep["n_unresolved_predicted"] == 0

    def test_unresolved_zero_named(self, tmp_path):
        # paper seed 16: r = 4, and one core eigenvalue, about -sigma_4(X)^2 / p,
        # falls under the zero cutoff
        out = tmp_path / "paper16"
        assert cli.main(["alpha-sweep", "--scale", "paper", "--seed", "16", "--thetas", "0.5",
                         "--out", str(out)]) == 0
        sweep = dataio.read_json(out / "sweep.json")
        assert sweep["n_zero"] == sweep["n_zero_structural"] + 1 == 2 * 400 - 4 + 1
        assert sweep["n_unresolved"] == sweep["n_unresolved_predicted"] == 1

    def test_bad_thetas_flag(self, tmp_path):
        path = write_config(tmp_path, small_config(out_dir=str(tmp_path / "s")))
        assert cli.main(["alpha-sweep", "--config", path, "--thetas", "0.5,x"]) == 2
        assert cli.main(["alpha-sweep", "--config", path, "--thetas", "-1"]) == 2
        assert cli.main(["alpha-sweep", "--config", path, "--thetas", "nan"]) == 2
        assert cli.main(["alpha-sweep", "--config", path, "--thetas", "0.5,inf"]) == 2
        assert cli.main(["alpha-sweep", "--config", path, "--thetas", ""]) == 2
        assert cli.main(["alpha-sweep", "--config", path, "--thetas", "1e400"]) == 2
        assert not (tmp_path / "s").exists()

    def test_paper_scale_contraction(self, tmp_path):
        # the run keeps one step norm per round, not a b x d or n x n history
        out = tmp_path / "paper"
        assert cli.main(["alpha-sweep", "--scale", "paper", "--out", str(out)]) == 0
        rows = {r[0]: r for r in (ln.split(",") for ln in
                                  (out / "alpha_sweep.csv").read_text().splitlines()[1:])}
        assert list(rows) == ["0.29999999999999999", "0.5", "0.90000000000000002"]
        assert 0.0 < float(rows["0.29999999999999999"][6]) < 1.0
        # the mean of these two reaches the roundoff floor before the window
        assert rows["0.5"][6] == rows["0.90000000000000002"][6] == ""

    def test_history_over_the_cap(self, tmp_path, monkeypatch):
        # the cap on t_max * b * d * 8 bytes: at it the history is recorded,
        # one byte below it not; the sweep reads the step record instead, so
        # its contraction column is written either way
        inst = build_instance(from_dict(small_config()).scenario, "ring")
        gains = SolverGains(k_P=5.0, k_I=2.0, alpha=0.01, t_max=40, stop_tol=0.0)
        init = initial_states(3, inst.data.feature_dim, "random", 1)
        _, trace = run(init, inst.graph, gains, inst.partition, inst.data, record_mean=True)
        size = trace.mean_history.nbytes  # t_max = 40 rounds of b x d
        monkeypatch.setattr(consensus, "_HISTORY_BYTE_CAP", size)
        _, capped = run(init, inst.graph, gains, inst.partition, inst.data, record_mean=True)
        assert np.array_equal(capped.mean_history, trace.mean_history)
        monkeypatch.setattr(consensus, "_HISTORY_BYTE_CAP", size - 1)
        _, capped = run(init, inst.graph, gains, inst.partition, inst.data, record_mean=True)
        assert capped.mean_history is None
        for name in ("consensus_error", "kkt_residual"):
            assert np.array_equal(getattr(capped, name), getattr(trace, name)), name

        out = tmp_path / "sweep"
        cfg = small_config(out_dir=str(out), t_max=200, stop_tol=0.0)
        assert cli.main(["alpha-sweep", "--config", write_config(tmp_path, cfg),
                         "--thetas", "0.5"]) == 0
        rows = (out / "alpha_sweep.csv").read_text().splitlines()
        assert len(rows) == 2 and rows[1].split(",")[5] == "200"
        assert 0.0 < float(rows[1].split(",")[6]) < 1.0

    def test_contraction_needs_no_history(self, tmp_path, monkeypatch):
        # with no history allowed at all, every converging row still has its
        # contraction, and a diverged one has none
        monkeypatch.setattr(consensus, "_HISTORY_BYTE_CAP", 0)
        out = tmp_path / "sweep"
        path = write_config(tmp_path, small_config(out_dir=str(out), t_max=300,
                                                   stop_tol=0.0))
        assert cli.main(["alpha-sweep", "--config", path, "--thetas", "0.3,0.9,3.0"]) == 0
        rows = [ln.split(",") for ln in (out / "alpha_sweep.csv").read_text().splitlines()[1:]]
        assert [row[4] for row in rows] == ["false", "false", "true"]
        assert all(0.0 < float(row[6]) < 1.0 for row in rows[:2]) and rows[2][6] == ""

    def test_peak_memory_does_not_grow_with_t_max(self, tmp_path):
        # the benchmark's sweep (stop_tol 0) at t_max 2,000 and 8,000: the
        # traced peak differs by less than 1 MB, where a b x d mean history
        # per round grew it by about 24 MB
        root = Path(__file__).resolve().parents[1]
        cfg = {**json.loads((root / "configs" / "sweep.json").read_text()), "stop_tol": 0.0}
        peaks = []
        for t_max in (2000, 2000, 8000):  # the first one warms up the process
            out = tmp_path / f"sweep{len(peaks)}"
            path = write_config(tmp_path, {**cfg, "t_max": t_max, "out_dir": str(out)})
            tracemalloc.start()
            try:
                assert cli.main(["alpha-sweep", "--config", path]) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert abs(peaks[2] - peaks[1]) < 2**20, peaks

    @pytest.mark.parametrize("override", [{}, {"stop_tol": 0.0, "t_max": 2000}])
    def test_series_free_runs_write_the_same_bytes(self, tmp_path, monkeypatch, override):
        # the sweep runs the solver with series=False; the same sweep with the
        # series computed is the oracle, on the stock sweep config and on one
        # whose stop_tol of 0 leaves nothing but the guard to stop a run
        root = Path(__file__).resolve().parents[1]
        cfg = {**json.loads((root / "configs" / "sweep.json").read_text()), **override}
        path = write_config(tmp_path, cfg)
        real, seen = cli.run, []

        def spy(*args, **kwargs):
            seen.append(kwargs["series"])
            return real(*args, **kwargs)

        def forced(*args, **kwargs):
            return spy(*args, **{**kwargs, "series": True})

        outputs = []
        for patched in (spy, forced):
            monkeypatch.setattr(cli, "run", patched)
            out = tmp_path / patched.__name__
            assert cli.main(["alpha-sweep", "--config", path, "--out", str(out)]) == 0
            outputs.append([(out / name).read_bytes()
                            for name in ("alpha_sweep.csv", "sweep.json")])
        assert outputs[0] == outputs[1]
        thetas = len(cfg["sweep_thetas"])
        assert seen == [False] * thetas + [True] * thetas


def test_zero_start_forms_no_agent_state(tmp_path, monkeypatch):
    # experiment and alpha-sweep read the mean operator and the trace alone
    made = []
    monkeypatch.setattr(consensus.AgentState, "__post_init__", lambda s: made.append(s))
    gains = SolverGains(k_P=150.0, k_I=75.0, alpha_fraction=0.5, t_max=50, stop_tol=0.0)
    report = scenario.make_experiment(scenario.GridScenario(), gains)
    assert report.K_ave.K.shape == (400, 400) and made == []
    path = write_config(tmp_path, small_config(out_dir=str(tmp_path / "s"), t_max=200))
    assert cli.main(["alpha-sweep", "--config", path, "--thetas", "0.5,3.0"]) == 0
    assert made == []


class TestBenchmarkCommand:
    def test_three_positive_timings(self, tmp_path):
        out = tmp_path / "bench"
        cfg = small_config(out_dir=str(out), t_max=300, benchmark_repeats=3)
        rc = cli.main(["benchmark", "--config", write_config(tmp_path, cfg)])
        assert rc == 0
        bench = dataio.read_json(out / "benchmark.json")
        for key in ("centralized_solve_ms", "distributed_iteration_ms",
                    "distributed_total_ms"):
            assert bench[key] > 0.0
        assert bench["repeats"] == 3

    def test_env_block(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        out = tmp_path / "bench"
        cfg = small_config(out_dir=str(out), t_max=300, benchmark_repeats=1)
        assert cli.main(["benchmark", "--config", write_config(tmp_path, cfg)]) == 0
        env = dataio.read_json(out / "benchmark.json")["env"]
        assert set(env) == {"cpu_count", "blas", "blas_threads", "PYTHONDONTWRITEBYTECODE",
                            "python", "numpy", "scipy", "config", "seed"}
        assert isinstance(env["cpu_count"], int) and env["cpu_count"] >= 1
        assert set(env["blas"]) == {"name", "version"}
        assert all(isinstance(v, str) for v in env["blas"].values())
        assert env["blas_threads"]["OPENBLAS_NUM_THREADS"] == "1"
        assert env["blas_threads"]["OMP_NUM_THREADS"] is None
        assert set(env["blas_threads"]) == set(cli.BLAS_THREAD_VARIABLES)
        assert env["numpy"] == np.__version__
        assert all(re.fullmatch(r"\d+\.\d+\S*", env[key]) for key in ("python", "scipy"))
        # the config without out_dir: from_dict reads it back as the run's config
        assert "out_dir" not in env["config"] and env["seed"] == SMALL_SCENARIO["seed"]
        assert from_dict(env["config"]) == from_dict({**cfg, "out_dir": "out"})


class TestDataIO:
    def test_matrix_round_trip_17_digits(self, tmp_path):
        a = np.array([[np.pi, 1e-300], [1.0 / 3.0, -2.0**52]])
        dataio.write_matrix_csv(tmp_path / "a.csv", a)
        b = dataio.read_matrix_csv(tmp_path / "a.csv")
        assert np.array_equal(a, b)

    def test_writers_match_the_fstring_formatter(self, tmp_path):
        special = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -2.2250738585072014e-308,
                   1e-310, np.pi, -1.0 / 3.0, 2.0**53 + 2.0, 1e300]
        rng = np.random.default_rng(3)
        distinct = rng.standard_normal((40, 30)) * 1e-3
        assert np.unique(distinct).size == distinct.size  # the row-template branch
        repeats = rng.standard_normal(4)[rng.integers(0, 4, (9, 6))]
        large = rng.standard_normal((300, 200))  # a few repeats in many distinct values
        large[[0, 7, 150, 299], [3, 3, 199, 0]] = 0.0
        large[5, :4] = large[9, 10]
        for a in (np.array(special).reshape(3, 4), distinct, np.array([[7.0]]), large,
                  rng.standard_normal((3, 5))[[0, 1, 0, 2, 1, 0, 0]],  # repeated rows
                  repeats,  # values repeated within and across rows
                  np.array([[0.0, 1.0], [-0.0, 1.0], [0.0, -0.0], [-0.0, 1.0]]),
                  np.array([[np.nan, 2.0], [NAN2, 2.0], [np.nan, 2.0]]),
                  np.array([[0.0, -0.0, np.nan, NAN2, 0.0, np.nan, -0.0, NAN2]]),
                  np.full((6, 3), 0.1),  # all rows equal
                  np.zeros((3, 0))):
            dataio.write_matrix_csv(tmp_path / "m.csv", a)
            assert (tmp_path / "m.csv").read_bytes() == fstring_csv(a).encode()
        for empty in (np.zeros((0, 0)), np.zeros((0, 3))):
            dataio.write_matrix_csv(tmp_path / "m.csv", empty)
            assert (tmp_path / "m.csv").read_bytes() == b"\n"
        for eigs in (np.array(special[:6]) + 1j * np.array(special[6:]),
                     np.array([1 + 2j, 0, 0, -0.5j, 0, 1 + 2j, 0]),  # repeated 0,0 rows
                     np.zeros(0, dtype=complex)):
            dataio.write_spectrum_csv(tmp_path / "s.csv", eigs)
            assert (tmp_path / "s.csv").read_bytes() == (
                "re,im\n" + fstring_csv([(v.real, v.imag) for v in eigs])).encode()

        from dkoopman.consensus import RunTrace
        cols = np.array(special[:10]).reshape(5, 2)
        trace = RunTrace(*cols, converged=False, diverged=False, iterations=2)
        dataio.write_trace_csv(tmp_path / "t.csv", trace)
        rows = [[str(t + 1)] + [f"{c[t]:.17g}" for c in cols] for t in range(2)]
        assert (tmp_path / "t.csv").read_text() == "\n".join(
            [",".join(dataio.TRACE_COLUMNS)] + [",".join(r) for r in rows]) + "\n"

    def test_json_non_finite_as_null(self, tmp_path):
        finite = {"b": [1.5, -0.0, 1e-300], "a": {"x": 2, "y": True, "z": None}}
        dataio.write_json(tmp_path / "f.json", finite)
        assert (tmp_path / "f.json").read_text() == json.dumps(
            finite, indent=2, sort_keys=True) + "\n"
        dataio.write_json(tmp_path / "n.json", {"a": [np.nan, 1.0, (np.inf,)],
                                                "b": {"c": -np.inf}, "d": np.float64("nan")})
        text = (tmp_path / "n.json").read_text()
        assert "NaN" not in text and "Infinity" not in text
        assert json.loads(text) == {"a": [None, 1.0, [None]], "b": {"c": None}, "d": None}

    @pytest.mark.parametrize("obj", [
        {"a": [1.5, 0.0], "b": [1.5, -0.0], "c": [[1.5, -0.0], [1.5, 0.0]]},
        [[1, 2], [1.0, 2.0], [True, 1], [1, True], [1.0, True]],
        {"nan": [np.nan, 1.0], "nan2": [NAN2, 1.0], "inf": [np.inf, -np.inf],
         "neg": [-np.nan, -np.inf, np.inf], "np": [np.float64(np.nan), np.float64(2.0)]},
        {"a": [0.5, 2.0], "b": {"c": [0.5, 2.0]}, "d": [[0.5, 2.0]], "e": ([0.5, 2.0],)},
        {"a": [], "b": {}, "c": (), "d": [[], {}, ()], "e": [[]]},
        [], {}, (), 0.0, -0.0, np.nan, "",
        {"\u00e9\n\"\\": "\u00fc\t\u2028\x00 \U0001F600", "k": ["\ud800", "\x7f"]},
    ])
    def test_json_matches_the_reference_encoder(self, tmp_path, obj):
        dataio.write_json(tmp_path / "r.json", obj)
        assert (tmp_path / "r.json").read_text() == reference_json(obj)

    @settings(max_examples=300, deadline=None)
    @given(st.recursive(
        st.one_of(st.none(), st.booleans(), st.integers(), st.text(max_size=4),
                  st.floats(), st.floats().map(np.float64),
                  st.sampled_from([0.0, -0.0, 1.0, np.nan, NAN2, np.inf, -np.inf])),
        lambda children: st.one_of(
            st.lists(children, max_size=4), st.lists(children, max_size=4).map(tuple),
            st.dictionaries(st.text(max_size=4), children, max_size=4)),
        max_leaves=40))
    def test_json_property_matches_the_reference_encoder(self, obj):
        with tempfile.TemporaryDirectory() as tmp:
            dataio.write_json(Path(tmp) / "p.json", obj)
            assert (Path(tmp) / "p.json").read_text() == reference_json(obj)

    def test_json_rejects_non_string_keys(self, tmp_path):
        with pytest.raises(TypeError):
            dataio.write_json(tmp_path / "k.json", {1: 2.0})

    def test_paper_outputs_match_the_reference_encoders(self, tmp_path):
        # every value of the paper-scale files through the encoders they replace
        out = tmp_path / "paper"
        assert cli.main(["experiment", "--scale", "paper", "--out", str(out)]) == 0
        text = (out / "report.json").read_text()
        assert reference_json(json.loads(text)) == text
        for name in ("diff_matrix.csv", "rollout_error.csv"):
            data = (out / name).read_text()
            assert fstring_csv(dataio.read_matrix_csv(out / name)) == data, name

    def test_spectrum_round_trip(self, tmp_path):
        eigs = np.array([1 + 2j, -0.5 - 1e-12j, 3.0 + 0j])
        dataio.write_spectrum_csv(tmp_path / "s.csv", eigs)
        back = dataio.read_spectrum_csv(tmp_path / "s.csv")
        assert np.array_equal(eigs, back)

    def test_frames_binary_round_trip(self, tmp_path):
        frames = np.random.default_rng(0).uniform(0, 1, (5, 3, 3))
        dataio.write_frames_binary(tmp_path / "f.bin", frames)
        assert np.array_equal(dataio.read_frames_binary(tmp_path / "f.bin"), frames)

    def test_frames_binary_header_is_little_endian_u64(self, tmp_path):
        frames = np.zeros((2, 3, 3))
        dataio.write_frames_binary(tmp_path / "f.bin", frames)
        raw = Path(tmp_path / "f.bin").read_bytes()
        assert len(raw) == 16 + 2 * 9 * 8
        assert int.from_bytes(raw[0:8], "little") == 3
        assert int.from_bytes(raw[8:16], "little") == 2

    def test_frames_binary_truncation_detected(self, tmp_path):
        frames = np.zeros((2, 3, 3))
        dataio.write_frames_binary(tmp_path / "f.bin", frames)
        raw = Path(tmp_path / "f.bin").read_bytes()
        (tmp_path / "cut.bin").write_bytes(raw[:-8])
        with pytest.raises(ValueError):
            dataio.read_frames_binary(tmp_path / "cut.bin")
        (tmp_path / "header.bin").write_bytes(raw[:15])
        with pytest.raises(ValueError, match="too short for its header"):
            dataio.read_frames_binary(tmp_path / "header.bin")

    @pytest.mark.parametrize("shape", [(3, 3), (2, 3, 4)])
    def test_frames_binary_refuses_other_shapes(self, tmp_path, shape):
        with pytest.raises(ValueError, match="expected \\(count, g, g\\) frames"):
            dataio.write_frames_binary(tmp_path / "f.bin", np.zeros(shape))
        assert not list(tmp_path.iterdir())

    def test_failed_replace_leaves_no_temp_file(self, tmp_path, monkeypatch):
        (tmp_path / "kept.csv").write_text("old\n")

        def refuse(src, dst):
            raise PermissionError("replace refused")

        monkeypatch.setattr(dataio.os, "replace", refuse)
        with pytest.raises(PermissionError, match="replace refused"):
            dataio.atomic_write_text(tmp_path / "kept.csv", "new\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["kept.csv"]
        assert (tmp_path / "kept.csv").read_text() == "old\n"

    def test_lifted_data_round_trip(self, tmp_path):
        # X.csv and Y.csv as write_matrix_csv writes them are what solve-central
        # reads, bit for bit
        from dkoopman.edmd import LiftedData
        rng = np.random.default_rng(1)
        data = LiftedData(X=rng.standard_normal((3, 5)),
                          Y=rng.standard_normal((3, 5)))
        x_path, y_path = tmp_path / "X.csv", tmp_path / "Y.csv"
        dataio.write_matrix_csv(x_path, data.X)
        dataio.write_matrix_csv(y_path, data.Y)
        assert np.array_equal(dataio.read_matrix_csv(x_path), data.X)
        assert np.array_equal(dataio.read_matrix_csv(y_path), data.Y)
        assert cli.main(["solve-central", str(x_path), str(y_path),
                         "--out", str(tmp_path)]) == 0
        assert np.array_equal(dataio.read_matrix_csv(tmp_path / "Kstar.csv"),
                              centralized_solve(data).K)


# A tiny experiment (n = 9, N = 6, at most 20 rounds) with every config key set
TINY = {"scale": "desk",
        "scenario": {"grid_side": 3, "num_agents": 3, "snapshots_per_agent": 2,
                     "blob_count": 2, "drift": [1.0, 0.0], "diffusion": 0.0,
                     "saturation_gain": 1.0, "seed": 1, "burn_in": 0},
        "graph": {"preset": "ring"}, "gains": {"k_P": 5.0, "k_I": 2.0, "theta": 0.5},
        "t_max": 20, "stop_tol": 1e-10, "init": {"mode": "zeros", "seed": 0},
        "rollout": {"steps": 2, "start": "last_train"}, "dictionary": "vectorization",
        "rank_tol": None, "sweep_thetas": [0.5], "benchmark_repeats": 1}
# leaves that set how much a run computes: no size guard refuses a huge one yet
SIZE_LEAVES = {("scenario", "grid_side"), ("scenario", "num_agents"),
               ("scenario", "snapshots_per_agent"), ("scenario", "blob_count"),
               ("scenario", "burn_in"), ("t_max",), ("rollout", "steps"),
               ("benchmark_repeats",)}
MALFORMED = [None, True, -1, 0, 1, 2.5, 101, 10**400, -1e308, 1e308, float("nan"),
             float("inf"), "", "x", "radial:2:nan", [], [1], {}, {"x": 1}]


def _leaves(tree, path=()):
    """Key paths of the non-container values of a JSON tree; list items by index."""
    if isinstance(tree, (dict, list)):
        for key, value in (tree.items() if isinstance(tree, dict) else enumerate(tree)):
            yield from _leaves(value, path + (key,))
    else:
        yield path


def test_every_malformed_leaf_keeps_the_exit_contract(tmp_path, capsys):
    # each leaf of TINY in turn takes each MALFORMED value; the CLI must
    # answer with a documented exit code, one stderr line unless it exits 0,
    # and never with a traceback
    failures = []
    for path in _leaves(TINY):
        for value in MALFORMED:
            if (path in SIZE_LEAVES and isinstance(value, (int, float))
                    and not value <= 100):
                continue
            cfg = json.loads(json.dumps(TINY))
            node = cfg
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = value
            config = write_config(tmp_path, cfg)
            try:
                rc = cli.main(["experiment", "--config", config, "--out", str(tmp_path / "run")])
            except Exception as exc:  # exit 1 with a traceback, run from the shell
                rc = f"{type(exc).__name__}: {exc}"
            err = capsys.readouterr().err
            if rc not in (0, 2, 3, 4) or len(err.splitlines()) != (rc != 0):
                failures.append((path, value, rc, err))
    assert not failures


def test_every_wrong_typed_leaf_is_named_by_its_path():
    # a string where TINY has a number (or null), a number where it has a
    # string; a list item is named by the list's path
    for path in _leaves(TINY):
        cfg = json.loads(json.dumps(TINY))
        node = cfg
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = 1 if isinstance(node[path[-1]], str) else "x"
        where = ".".join(key for key in path if isinstance(key, str))
        with pytest.raises(ConfigError, match=re.escape(where)):
            from_dict(cfg)


# the two free-text inputs: any string, and strings shaped like their formats
# (a vertex-count line, then edge lines; a spec kind, then its fields)
GRAPH_TEXT = st.one_of(
    st.text(max_size=40),
    st.lists(st.text(alphabet="0123456789 +-_x\t\r\u0663", max_size=6), min_size=1,
             max_size=6).map("\n".join))
SPEC_TEXT = st.one_of(
    st.text(max_size=30),
    st.lists(st.one_of(st.sampled_from(["vectorization", "monomial", "radial"]),
                       st.text(alphabet="0123456789.e+-_n :\u0663", max_size=6)),
             min_size=1, max_size=4).map(":".join))


@settings(max_examples=300, deadline=None)
@given(text=GRAPH_TEXT, spec=SPEC_TEXT)
def test_free_text_parsers_return_or_refuse(text, spec):
    try:
        assert isinstance(parse_graph_text(text), Graph)
    except GraphError:
        pass
    try:
        assert isinstance(edmd.parse_dictionary(spec, q=16), edmd.Dictionary)
    except ValueError:
        pass


@settings(max_examples=40, deadline=None)
@given(text=GRAPH_TEXT, spec=SPEC_TEXT)
def test_refused_free_text_exits_2(text, spec):
    # an accepted text may ask for any amount of work, so only refused ones
    # go through the CLI
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        graph_path = tmp / "g.txt"
        graph_path.write_text(text, encoding="utf-8")
        cases = []
        try:
            parse_graph_text(graph_path.read_text(encoding="utf-8"))  # as the CLI reads it
        except GraphError:
            cases.append(small_config(graph={"edge_file": str(graph_path)}))
        try:
            edmd.parse_dictionary(spec, q=SMALL_SCENARIO["grid_side"] ** 2,
                                  seed=SMALL_SCENARIO["seed"])
        except ValueError:
            cases.append(small_config(dictionary=spec))
        for cfg in cases:
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                rc = cli.main(["experiment", "--config", write_config(tmp, cfg),
                               "--out", str(tmp / "run")])
            assert rc == 2 and len(err.getvalue().splitlines()) == 1, (cfg, err.getvalue())
            assert err.getvalue().startswith("config error: ")
            assert not (tmp / "run").exists()


def test_readme_config_example_is_the_default():
    # the README's jsonc block, comments stripped, is the schema with its desk defaults
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"```jsonc\n(.*?)```", readme, re.S).group(1)
    raw = json.loads(re.sub(r"//.*", "", block))
    assert from_dict(raw) == from_dict({})
    assert raw.keys() == to_dict(from_dict({})).keys()  # every top-level key is shown


class TestRankTolConfig:
    def test_round_trip(self):
        cfg = from_dict(small_config(rank_tol=1e-7))
        assert cfg.rank_tol == 1e-7
        assert from_dict(to_dict(cfg)) == cfg

    def test_default_is_none(self):
        assert from_dict({}).rank_tol is None

    def test_negative_rejected(self):
        with pytest.raises(ConfigError, match="rank_tol"):
            from_dict({"rank_tol": -1.0})


def test_cli_import_leaves_scipy_optimize_out():
    # scipy.optimize is only needed by linalg.spectrum_distance, which the
    # CLI never calls; importing it would add about half a second of set-up.
    # statistics (with decimal and fractions, about 4 ms) is not needed at all
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    modules = ("scipy.optimize", "statistics", "decimal", "fractions")
    code = f"import sys, dkoopman.cli; print([m for m in {modules!r} if m in sys.modules])"
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, check=True)
    assert result.stdout.strip() == "[]"


def _max_diff_over_kstar(out, cfg_path):
    """max|K_ave - K*| / ||K*||_F of a run, with K* of the run's own cutoff."""
    cfg = load_config(cfg_path)
    inst = build_instance(cfg.scenario, cfg.graph.preset, cfg.dictionary,
                          rank_tol=cfg.rank_tol)
    k_star = centralized_solve(inst.data).K
    diff = dataio.read_matrix_csv(out / "diff_matrix.csv")
    return float(diff.max()) / float(np.linalg.norm(k_star))


class TestOneRankRule:
    """``rank_tol`` reaches every reader of range(X): the run converges on the
    K* it is compared with, and X is decomposed once per command."""

    def test_desk_cutoff_reaches_the_default_diff_level(self, tmp_path):
        # sigma_15 = 0.778 and sigma_16 = 0.6255: 0.698 cuts sigma_16 alone
        errs, reports = {}, {}
        for name, extra in (("default", {}), ("cut", {"rank_tol": 0.698})):
            out = tmp_path / name
            path = write_config(tmp_path, {"scale": "desk", "out_dir": str(out), **extra},
                                f"{name}.json")
            assert cli.main(["experiment", "--config", path]) == 0
            reports[name] = dataio.read_json(out / "report.json")
            errs[name] = _max_diff_over_kstar(out, path)
        assert reports["default"]["spectral"]["rank"] == 16
        assert reports["cut"]["spectral"]["rank"] == 15
        assert reports["cut"]["converged"]
        assert errs["default"] <= 1e-10
        assert errs["cut"] <= min(1e-7, 10 * errs["default"])

    def test_paper_seed_16_resolves_with_a_cutoff_between_sigma_3_and_4(self, tmp_path):
        # sigma_3 = 13.49, sigma_4 = 1.98e-5: under the default cutoff rank 4,
        # and the fourth mode contracts by 1 - 1.6e-13 per round
        cfg = load_config(None, scale="paper", seed=16)
        inst = build_instance(cfg.scenario, cfg.graph.preset, cfg.dictionary)
        assert inst.data.range.rank == 4
        sigma = inst.data.range.s
        out = tmp_path / "paper16"
        path = write_config(tmp_path, {"scale": "paper", "scenario": {"seed": 16},
                                       "rank_tol": float(np.sqrt(sigma[2] * sigma[3])),
                                       "out_dir": str(out)})
        assert cli.main(["experiment", "--config", path]) == 0
        spectral = dataio.read_json(out / "report.json")["spectral"]
        assert spectral["rank"] == 3
        assert spectral["n_unresolved"] == spectral["n_unresolved_predicted"] == 0
        assert _max_diff_over_kstar(out, path) <= 1e-12

    @pytest.mark.parametrize("rank_tol", [None, 0.698])
    def test_x_is_decomposed_once_per_command(self, tmp_path, monkeypatch, rank_tol):
        svd, shapes = np.linalg.svd, []

        def counted(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        cfg = {"scale": "desk", "rank_tol": rank_tol, "out_dir": str(tmp_path / "e")}
        assert cli.main(["experiment", "--config", write_config(tmp_path, cfg)]) == 0
        assert shapes == [(16, 24)]
        shapes.clear()
        cfg.update(out_dir=str(tmp_path / "s"), t_max=300, sweep_thetas=[0.3, 0.5, 0.9, 1.5])
        assert cli.main(["alpha-sweep", "--config", write_config(tmp_path, cfg)]) == 0
        assert shapes == [(16, 24)]


def test_too_large_to_allocate_exits_2(tmp_path):
    # the (2p - 1)r = 239,600 square core of 300 agents on a 20 x 20 grid,
    # under a 2 GiB address-space limit set in the child alone
    resource = pytest.importorskip("resource")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    path = write_config(tmp_path, {"scale": "desk", "out_dir": str(tmp_path / "out"),
                                   "scenario": {"num_agents": 300, "grid_side": 20}})

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (2 * 2**30, 2 * 2**30))

    result = subprocess.run([sys.executable, "-m", "dkoopman.cli", "experiment",
                             "--config", path], env=env, capture_output=True, text=True,
                            preexec_fn=limit, timeout=120)
    assert result.returncode == 2, result.stderr
    assert "Traceback" not in result.stderr
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error: ")
    assert "Unable to allocate" in lines[0]
