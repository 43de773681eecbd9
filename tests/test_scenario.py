import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dkoopman import scenario
from dkoopman.consensus import SolverGains, Start, initial_states, manual_gains, \
    partition_data, run, spectral_report
from dkoopman.edmd import SnapshotSequence, centralized_solve, lift, \
    vectorization_dictionary
from dkoopman.graphs import laplacian, preset_graph
from dkoopman.linalg import eigenvalues, range_svd, spectrum_distance
from dkoopman.scenario import (GridScenario, Rollout, _operator_spectrum, build_instance,
                               make_experiment, sequential_widths, simulate_frames)

from oracles import _advect, advance

DESK = GridScenario(grid_side=4, num_agents=3, snapshots_per_agent=8, blob_count=6,
                    drift=(1.0, 0.0), diffusion=0.0, saturation_gain=1.0, seed=5,
                    burn_in=0)


class TestGridScenarioValidation:
    def test_defaults_valid(self):
        scn = GridScenario()
        assert scn.num_samples == 9 and scn.feature_dim == 400

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            GridScenario(grid_side=1)
        with pytest.raises(ValueError):
            GridScenario(diffusion=0.3)
        with pytest.raises(ValueError):
            GridScenario(saturation_gain=1.5)
        with pytest.raises(ValueError):
            GridScenario(num_agents=0)
        with pytest.raises(ValueError):
            GridScenario(burn_in=-1)
        with pytest.raises(ValueError):
            GridScenario(drift=(1.0, np.inf))

    # each rule names its field first, which the config reports as its key path
    @pytest.mark.parametrize("field, value", [
        ("grid_side", 1), ("num_agents", 0), ("snapshots_per_agent", 0), ("blob_count", -1),
        ("diffusion", 0.3), ("saturation_gain", 1.5), ("drift", (1.0, np.inf)),
        ("drift", (1.0,)), ("seed", -1), ("burn_in", -1),
        ("grid_side", 4.5), ("seed", True), ("num_agents", 2.0), ("snapshots_per_agent", "3"),
        ("blob_count", False), ("burn_in", 1.0)])
    def test_each_rule_names_its_field(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} "):
            GridScenario(**{field: value})


    def test_numpy_integers_accepted(self):
        scn = GridScenario(grid_side=np.int64(4), num_agents=np.int32(2), seed=np.uint8(3))
        assert scn.num_samples == 6 and scn.feature_dim == 16
        assert Rollout(steps=np.int64(2)).steps == 2


class TestRollout:
    @pytest.mark.parametrize("kwargs, match", [
        ({"steps": 0}, "^steps must be positive"),
        ({"start": "middle"}, "^start must be 'last_train' or 'first_train', got 'middle'"),
        ({"steps": 2.5}, "^steps must be an integer, got 2.5"),
        ({"steps": True}, "^steps must be an integer, got True"),
    ])
    def test_refused(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            Rollout(**kwargs)


class TestGenerate:
    def test_deterministic(self):
        scn = dataclasses.replace(DESK, seed=42)
        a = simulate_frames(scn, scn.num_samples + 1)
        b = simulate_frames(scn, scn.num_samples + 1)
        assert a.tobytes() == b.tobytes()

    def test_seed_changes_output(self):
        a = simulate_frames(dataclasses.replace(DESK, seed=1), 25)
        b = simulate_frames(dataclasses.replace(DESK, seed=2), 25)
        assert not np.array_equal(a, b)

    def test_frozen_dynamics_constant(self):
        scn = GridScenario(grid_side=5, num_agents=2, snapshots_per_agent=2,
                           drift=(0.0, 0.0), diffusion=0.0, saturation_gain=0.0,
                           seed=3, burn_in=0)
        frames = simulate_frames(scn, scn.num_samples + 1)
        for k in range(1, frames.shape[0]):
            assert np.array_equal(frames[k], frames[0])

    def test_shape(self):
        assert simulate_frames(DESK, DESK.num_samples + 1).shape == (25, 4, 4)

    def test_refusals(self):
        with pytest.raises(ValueError, match="count must be positive"):
            simulate_frames(DESK, 0)
        with pytest.raises(ValueError, match=r"frame must be 2-D, got shape \(16,\)"):
            advance(np.zeros(16), DESK)

    def test_range_invariant_bulk(self):
        # 20 seeds x 1000 frames, every entry in [0, 1]
        for seed in range(20):
            scn = dataclasses.replace(DESK, seed=seed)
            frames = simulate_frames(scn, 1000)
            assert frames.min() >= 0.0 and frames.max() <= 1.0

    def test_range_invariant_paper_defaults(self):
        frames = simulate_frames(GridScenario(), 50)
        assert frames.min() >= 0.0 and frames.max() <= 1.0

    def test_burn_in_is_a_trajectory_offset(self):
        scn = dataclasses.replace(DESK, burn_in=7)
        direct = simulate_frames(scn, 5)
        full = simulate_frames(dataclasses.replace(scn, burn_in=0), 12)
        assert np.array_equal(direct, full[7:])

    @pytest.mark.parametrize("drift, diffusion, gain", [
        ((0.0, 0.0), 0.0, 0.945), ((1.0, 0.0), 0.0, 1.0), ((0.5, 0.25), 0.1, 0.7),
        ((-1.3, 2.7), 0.25, 0.0), ((0.0, 0.0), 0.0, 0.0)])
    def test_in_place_steps_keep_the_bits_of_fresh_arrays(self, drift, diffusion, gain):
        # simulate_frames steps into preallocated frames; advance into a
        # fresh one; both against the map evaluated one expression at a time
        scn = GridScenario(grid_side=6, drift=drift, diffusion=diffusion,
                           saturation_gain=gain, seed=11, burn_in=9)

        def reference(u):
            u = _advect(u, *drift)
            if diffusion:
                u = u + diffusion * (np.roll(u, 1, 0) + np.roll(u, -1, 0) + np.roll(u, 1, 1)
                                     + np.roll(u, -1, 1) - 4.0 * u)
            if gain:
                u = (1.0 - gain) * u + gain * 4.0 * u * (1.0 - u)
            return np.clip(u, 0.0, 1.0)

        frames = simulate_frames(scn, 8)
        u = simulate_frames(dataclasses.replace(scn, burn_in=0), 1)[0]
        for _ in range(scn.burn_in):
            u = reference(u)
        assert frames[0].tobytes() == u.tobytes()
        for k in range(1, 8):
            assert frames[k].tobytes() == reference(frames[k - 1]).tobytes()
            step = advance(frames[k - 1], scn)
            assert step.tobytes() == frames[k].tobytes()
            assert not np.shares_memory(step, frames)

    def test_advection_planned_once_per_trajectory(self, monkeypatch):
        planned = []

        def counting(*args):
            planned.append(args)
            return real(*args)

        real = scenario._advection_plan
        monkeypatch.setattr(scenario, "_advection_plan", counting)
        scn = GridScenario(grid_side=6, drift=(0.5, 0.25), seed=11, burn_in=9)
        simulate_frames(scn, 8)
        assert planned == [(0.5, 0.25, (6, 6))]

    @pytest.mark.parametrize("drift", [(1.0, 0.0), (0.0, 0.0), (-2.0, 3.0), (0.4, 0.0),
                                       (0.0, -1.3), (0.4, 0.7)])
    def test_advect_matches_the_four_term_formula(self, drift):
        # the bilinear shift with all four roll terms, zero weights included
        u = np.random.default_rng(4).uniform(0.0, 1.0, (5, 5))
        ix, iy = int(np.floor(drift[0])), int(np.floor(drift[1]))
        fx, fy = drift[0] - ix, drift[1] - iy

        def sh(a, b):
            return np.roll(u, (a, b), axis=(0, 1))

        full = ((1 - fx) * (1 - fy) * sh(ix, iy) + fx * (1 - fy) * sh(ix + 1, iy)
                + (1 - fx) * fy * sh(ix, iy + 1) + fx * fy * sh(ix + 1, iy + 1))
        assert _advect(u, *drift).tobytes() == full.tobytes()

    @pytest.mark.parametrize("drift", [(0.0, 0.0), (5.0, -10.0), (5.4, 0.0), (-0.6, 15.0)])
    def test_advect_skips_whole_period_rolls_and_unit_weights(self, drift):
        # the frame stands in for a roll by a multiple of the side and a
        # weight of 1.0 leaves it unmultiplied; the bits are those of the
        # weighted rolls, -0.0 included
        u = np.random.default_rng(4).uniform(-1.0, 1.0, (5, 5))
        u[0, 0] = u[2, 3] = -0.0
        ix, iy = int(np.floor(drift[0])), int(np.floor(drift[1]))
        fx, fy = drift[0] - ix, drift[1] - iy
        terms = [w * np.roll(u, (a, b), axis=(0, 1)) for w, a, b in (
            ((1 - fx) * (1 - fy), ix, iy), (fx * (1 - fy), ix + 1, iy),
            ((1 - fx) * fy, ix, iy + 1), (fx * fy, ix + 1, iy + 1)) if w != 0.0]
        assert _advect(u, *drift).tobytes() == sum(terms[1:], terms[0]).tobytes()
        if drift[0] % 5 == drift[1] % 5 == 0.0:
            assert _advect(u, *drift) is u


class TestNonlinearity:
    def test_witness_on_paper_defaults(self):
        scn = GridScenario()
        frames = simulate_frames(scn, 3)
        a, b, c = frames[0], frames[1], 0.5
        mix = advance(c * a + (1 - c) * b, scn)
        superpose = c * advance(a, scn) + (1 - c) * advance(b, scn)
        assert np.abs(mix - superpose).max() > 1e-6

    def test_witness_on_desk_defaults(self):
        frames = simulate_frames(DESK, 3)
        a, b, c = frames[0], frames[1], 0.5
        mix = advance(c * a + (1 - c) * b, DESK)
        superpose = c * advance(a, DESK) + (1 - c) * advance(b, DESK)
        assert np.abs(mix - superpose).max() > 1e-6

    def test_zero_gain_is_affine(self):
        scn = dataclasses.replace(DESK, saturation_gain=0.0, drift=(0.4, 0.7),
                                  diffusion=0.1)
        rng = np.random.default_rng(0)
        a = rng.uniform(0.2, 0.8, (4, 4))
        b = rng.uniform(0.2, 0.8, (4, 4))
        mix = advance(0.3 * a + 0.7 * b, scn)
        superpose = 0.3 * advance(a, scn) + 0.7 * advance(b, scn)
        assert np.abs(mix - superpose).max() <= 1e-12


class TestSequentialWidths:
    def test_even_split(self):
        assert sequential_widths(9, 3) == (3, 3, 3)

    def test_remainder_to_earlier_agents(self):
        assert sequential_widths(7, 3) == (3, 2, 2)

    def test_single_agent(self):
        assert sequential_widths(5, 1) == (5,)

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            sequential_widths(2, 3)

    def test_no_agents(self):
        with pytest.raises(ValueError, match="need at least one agent"):
            sequential_widths(3, 0)


class TestExperiment:
    def test_full_row_rank_oracle_comparison(self):
        # g=3 (n=9), N=20, p=3: sequential widths (7, 7, 6); all agents land
        # on the centralized minimizer in the well-conditioned regime
        scn = dataclasses.replace(DESK, grid_side=3)
        frames = simulate_frames(scn, 21)
        seq = SnapshotSequence(frames.reshape(21, -1))
        data = lift(seq, vectorization_dictionary(9))
        part = partition_data(data, sequential_widths(20, 3))
        assert part.widths == (7, 7, 6)
        graph = preset_graph("ring", 3)
        lap = laplacian(graph)
        rep = spectral_report(part, data, lap, 5.0, 2.0)
        gains = SolverGains(k_P=5.0, k_I=2.0, alpha=0.5 * rep.alpha_max,
                            t_max=40000, stop_tol=1e-11)
        states, trace = run(initial_states(3, 9), graph, gains, part, data)
        assert trace.converged
        K_star = centralized_solve(data).K
        K_ave = np.mean([s.K for s in states], axis=0)
        assert np.abs(K_ave - K_star).max() <= 1e-6

    def test_exact_linear_dynamics_rollout(self):
        # gain 0 with integer drift is an exact linear map: converged
        # operators reproduce the continuation to machine-level accuracy
        scn = GridScenario(grid_side=3, num_agents=3, snapshots_per_agent=3,
                           blob_count=4, drift=(1.0, 1.0), diffusion=0.0,
                           saturation_gain=0.0, seed=2, burn_in=0)
        gains = SolverGains(k_P=2.0, k_I=1.0, alpha_fraction=0.5,
                            t_max=60000, stop_tol=1e-12)
        report = make_experiment(scn, gains, rollout_steps=6)
        assert report.trace.converged
        assert report.rollout_error.max() <= 1e-8

    def test_report_structure(self):
        scn = dataclasses.replace(DESK, snapshots_per_agent=4)
        gains = SolverGains(k_P=5.0, k_I=2.0, alpha_fraction=0.5, t_max=4000,
                            stop_tol=1e-8)
        report = make_experiment(scn, gains, rollout_steps=4)
        n = scn.feature_dim
        assert report.diff_matrix.shape == (n, n)
        assert np.all(report.diff_matrix >= 0.0)
        assert report.rollout_error.shape == (4, n)
        assert np.all(report.rollout_error >= 0.0)
        assert report.spectrum_K_ave.shape == (n,)
        assert report.spectrum_K_star.shape == (n,)
        assert report.alpha == pytest.approx(0.5 * report.alpha_max)
        assert report.rho_max is not None and 0.0 < report.rho_max < 1.0
        assert report.spectral.spectrum_M is not None
        assert report.alpha_max == report.spectral.alpha_max
        assert report.rho_max == report.spectral.rho_max(report.alpha)

    def test_rollout_start_options(self):
        scn = dataclasses.replace(DESK, snapshots_per_agent=2)
        gains = SolverGains(k_P=5.0, k_I=2.0, alpha_fraction=0.5, t_max=500,
                            stop_tol=1e-6)
        last = make_experiment(scn, gains, rollout_steps=3, rollout_start="last_train")
        first = make_experiment(scn, gains, rollout_steps=3, rollout_start="first_train")
        assert not np.array_equal(last.rollout_error, first.rollout_error)
        with pytest.raises(ValueError):
            make_experiment(scn, gains, rollout_start="middle")

    def test_random_start_below_full_rank_takes_the_dense_spectrum(self):
        # n = 16 > N = 6, so r < n: a random start keeps its rows outside
        # range(X), and K_ave has no row basis to take its spectrum from a core
        scn = dataclasses.replace(DESK, snapshots_per_agent=2)
        gains = SolverGains(k_P=5.0, k_I=2.0, alpha_fraction=0.5, t_max=50, stop_tol=0.0)
        report = make_experiment(scn, gains, rollout_steps=2, init=Start("random", 1))
        assert report.spectral.rank < scn.feature_dim
        inst = build_instance(scn)
        states, _ = run(Start("random", 1), inst.graph, manual_gains(gains, report.alpha),
                        inst.partition, inst.data)
        assert states.row_basis is None
        assert np.array_equal(report.spectrum_K_ave, eigenvalues(report.K_ave.K).eigenvalues)

    def test_graph_object_accepted(self):
        scn = dataclasses.replace(DESK, snapshots_per_agent=2)
        graph = preset_graph("path", 3)
        inst = build_instance(scn, graph)
        assert inst.graph is graph
        with pytest.raises(ValueError):
            build_instance(scn, preset_graph("ring", 4))


class TestOperatorSpectrum:
    # gap between the core spectrum and the dense eigenvalues(K), the oracle,
    # in units of ||K||_F; perfbench allows 1e-9 for the written spectra
    TOL = 1e-10

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 12), st.integers(1, 12), st.integers(0, 12), st.booleans(),
           st.integers(0, 2**32 - 1))
    def test_core_spectrum_matches_dense(self, n, N, r, set_tol, seed):
        """K = A B^T with B = range_svd(X, rank_tol).U for an X of rank r.

        Covers n > b, r = 0 (an all-zero X, so b = 0 and K = 0), b = n, and a
        set ``rank_tol`` that drops a 1e-12 full-rank perturbation of X.  The
        result holds the core eigenvalues then exactly n - b zeros, and lies
        within TOL ||K||_F of the dense spectrum under ``spectrum_distance``;
        for b = n it is the dense result, bit for bit.
        """
        rng = np.random.default_rng(seed)
        r = min(r, n, N)
        X = rng.standard_normal((n, r)) @ rng.standard_normal((r, N))
        rank_tol = None
        if set_tol:
            X += 1e-12 * rng.standard_normal((n, N))
            rank_tol = 1e-8
        B = range_svd(X, rank_tol).U
        b = B.shape[1]
        K = rng.standard_normal((n, b)) @ B.T
        dense = eigenvalues(K).eigenvalues
        got = _operator_spectrum(K, B)
        if b == n:
            assert np.array_equal(got, dense)
            return
        assert got.shape == (n,)
        assert np.all(got[b:] == 0) and not np.any(np.signbit(got[b:].real))
        assert spectrum_distance(got, dense) <= self.TOL * np.linalg.norm(K)

    def test_no_basis_is_the_dense_spectrum(self):
        K = np.random.default_rng(1).standard_normal((6, 6))
        assert np.array_equal(_operator_spectrum(K, None), eigenvalues(K).eigenvalues)
