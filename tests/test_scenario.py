import dataclasses

import numpy as np
import pytest

from dkoopman.consensus import SolverGains, initial_states, manual_gains, \
    partition_data, run, spectral_report
from dkoopman.edmd import SnapshotSequence, centralized_solve, lift, \
    vectorization_dictionary
from dkoopman.graphs import laplacian, preset_graph
from dkoopman.scenario import (GridScenario, _advect, advance, build_instance, generate,
                               make_experiment, sequential_widths, simulate_frames)

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


class TestGenerate:
    def test_deterministic(self):
        scn = dataclasses.replace(DESK, seed=42)
        a = generate(scn).states
        b = generate(scn).states
        assert a.tobytes() == b.tobytes()

    def test_seed_changes_output(self):
        a = generate(dataclasses.replace(DESK, seed=1)).states
        b = generate(dataclasses.replace(DESK, seed=2)).states
        assert not np.array_equal(a, b)

    def test_frozen_dynamics_constant(self):
        scn = GridScenario(grid_side=5, num_agents=2, snapshots_per_agent=2,
                           drift=(0.0, 0.0), diffusion=0.0, saturation_gain=0.0,
                           seed=3, burn_in=0)
        states = generate(scn).states
        for k in range(1, states.shape[0]):
            assert np.array_equal(states[k], states[0])

    def test_shape(self):
        seq = generate(DESK)
        assert seq.states.shape == (25, 16)

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

    def test_rollout_start_options(self):
        scn = dataclasses.replace(DESK, snapshots_per_agent=2)
        gains = SolverGains(k_P=5.0, k_I=2.0, alpha_fraction=0.5, t_max=500,
                            stop_tol=1e-6)
        last = make_experiment(scn, gains, rollout_steps=3, rollout_start="last_train")
        first = make_experiment(scn, gains, rollout_steps=3, rollout_start="first_train")
        assert not np.array_equal(last.rollout_error, first.rollout_error)
        with pytest.raises(ValueError):
            make_experiment(scn, gains, rollout_start="middle")

    def test_graph_object_accepted(self):
        scn = dataclasses.replace(DESK, snapshots_per_agent=2)
        graph = preset_graph("path", 3)
        inst = build_instance(scn, graph)
        assert inst.graph is graph
        with pytest.raises(ValueError):
            build_instance(scn, preset_graph("ring", 4))
