import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dkoopman import cli, dataio
from dkoopman.config import ConfigError, from_dict, load_config, to_dict
from dkoopman.consensus import spectral_report
from dkoopman.graphs import laplacian
from dkoopman.linalg import pseudoinverse
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


class TestConfigSchema:
    def test_round_trip_identity(self):
        cfg = from_dict(small_config())
        assert from_dict(to_dict(cfg)) == cfg

    def test_round_trip_paper_scale(self):
        cfg = from_dict({"scale": "paper"})
        assert from_dict(to_dict(cfg)) == cfg

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
        cfg = from_dict({"gains": {"theta": 1.5}})
        with pytest.raises(ConfigError, match="gains"):
            cfg.solver_gains()

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
    ])
    def test_malformed_leaf_exit_2(self, tmp_path, capsys, cfg, where):
        path = write_config(tmp_path, cfg)
        assert cli.main(["experiment", "--config", path, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert where in err and "Traceback" not in err
        assert not list(tmp_path.glob("*.csv"))

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

    def test_disconnected_graph_exit_3(self, tmp_path):
        graph_path = tmp_path / "g.txt"
        graph_path.write_text("3\n0 1\n")
        cfg = small_config(graph={"edge_file": str(graph_path)},
                           out_dir=str(tmp_path / "run"))
        assert cli.main(["experiment", "--config", write_config(tmp_path, cfg)]) == 3

    def test_graph_size_mismatch_exit_2(self, tmp_path):
        graph_path = tmp_path / "g.txt"
        graph_path.write_text("4\n0 1\n1 2\n2 3\n")
        cfg = small_config(graph={"edge_file": str(graph_path)},
                           out_dir=str(tmp_path / "run"))
        assert cli.main(["experiment", "--config", write_config(tmp_path, cfg)]) == 2

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

    def test_bad_thetas_flag(self, tmp_path):
        path = write_config(tmp_path, small_config(out_dir=str(tmp_path / "s")))
        assert cli.main(["alpha-sweep", "--config", path, "--thetas", "0.5,x"]) == 2
        assert cli.main(["alpha-sweep", "--config", path, "--thetas", "-1"]) == 2


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


class TestDataIO:
    def test_matrix_round_trip_17_digits(self, tmp_path):
        a = np.array([[np.pi, 1e-300], [1.0 / 3.0, -2.0**52]])
        dataio.write_matrix_csv(tmp_path / "a.csv", a)
        b = dataio.read_matrix_csv(tmp_path / "a.csv")
        assert np.array_equal(a, b)

    def test_writers_match_the_fstring_formatter(self, tmp_path):
        # the per-value f"{v:.17g}" formatting the writers used before, as oracle
        def fmt(rows):
            return "".join(",".join(f"{v:.17g}" for v in row) + "\n" for row in rows)

        special = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -2.2250738585072014e-308,
                   1e-310, np.pi, -1.0 / 3.0, 2.0**53 + 2.0, 1e300]
        rng = np.random.default_rng(3)
        for a in (np.array(special).reshape(3, 4), rng.standard_normal((40, 30)) * 1e-3,
                  np.array([[7.0]])):
            dataio.write_matrix_csv(tmp_path / "m.csv", a)
            assert (tmp_path / "m.csv").read_bytes() == fmt(a).encode()
        eigs = np.array(special[:6]) + 1j * np.array(special[6:])
        dataio.write_spectrum_csv(tmp_path / "s.csv", eigs)
        assert (tmp_path / "s.csv").read_bytes() == (
            "re,im\n" + fmt([(v.real, v.imag) for v in eigs])).encode()

        from dkoopman.consensus import RunTrace
        cols = np.array(special[:10]).reshape(5, 2)
        trace = RunTrace(*cols, alpha=0.1, converged=False, diverged=False)
        dataio.write_trace_csv(tmp_path / "t.csv", trace)
        rows = [[str(t + 1)] + [f"{c[t]:.17g}" for c in cols] for t in range(2)]
        assert (tmp_path / "t.csv").read_text() == "\n".join(
            [",".join(dataio.TRACE_COLUMNS)] + [",".join(r) for r in rows]) + "\n"

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

    def test_lifted_data_round_trip(self, tmp_path):
        from dkoopman.edmd import LiftedData
        rng = np.random.default_rng(1)
        data = LiftedData(X=rng.standard_normal((3, 5)),
                          Y=rng.standard_normal((3, 5)))
        dataio.write_lifted_data(tmp_path, data)
        back = dataio.read_lifted_data(tmp_path)
        assert np.array_equal(back.X, data.X) and np.array_equal(back.Y, data.Y)


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
    # CLI never calls; importing it would add about half a second of set-up
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = "import sys, dkoopman.cli; print('scipy.optimize' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, check=True)
    assert result.stdout.strip() == "False"
