from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dkoopman import consensus
from dkoopman.consensus import (DIVERGENCE_GUARD, AgentState, NotSemiHurwitzError,
                                SolverGains, StepSizeError, assemble_M, assemble_M_tilde,
                                assemble_block_X, compute_alpha_max, compute_rho_max,
                                initial_states, iterate_rounds, kkt_residual,
                                manual_gains, partition_data, resolve_alpha, run,
                                semi_hurwitz_check, spectral_report, step,
                                tail_contraction, _quadratic_roots, _Reduced,
                                _restricted_pair)
from dkoopman.edmd import LiftedData, centralized_solve
from dkoopman.graphs import (DisconnectedGraphError, build_graph, laplacian,
                             preset_graph)
from dkoopman.linalg import (Spectrum, eigenvalues, frobenius_norm, range_basis,
                             spectrum_distance)
from dkoopman.scenario import GridScenario, build_instance

from test_graphs import random_graph


def make_data(rng, n, widths):
    N = sum(widths)
    return LiftedData(X=rng.standard_normal((n, N)), Y=rng.standard_normal((n, N)))


def worked_instance():
    """p=2, n=1, X1=X2=[1], complete graph, k_P=k_I=1: spectrum {0,-1,-1,-2}."""
    data = LiftedData(X=np.array([[1.0, 1.0]]), Y=np.array([[1.0, 1.0]]))
    part = partition_data(data, [1, 1])
    graph = preset_graph("complete", 2)
    return data, part, graph


class TestPartition:
    def test_three_equal_blocks(self):
        data = make_data(np.random.default_rng(0), 2, [3, 3, 3])
        part = partition_data(data, [3, 3, 3])
        assert part.column_ranges() == [(0, 3), (3, 6), (6, 9)]

    def test_single_block(self):
        data = make_data(np.random.default_rng(0), 2, [5])
        assert partition_data(data, [5]).column_ranges() == [(0, 5)]

    def test_uneven(self):
        data = make_data(np.random.default_rng(0), 2, [1, 3])
        assert partition_data(data, [1, 3]).column_ranges() == [(0, 1), (1, 4)]

    def test_sum_mismatch(self):
        data = make_data(np.random.default_rng(0), 2, [4])
        with pytest.raises(ValueError):
            partition_data(data, [3, 2])

    def test_nonpositive_width(self):
        data = make_data(np.random.default_rng(0), 2, [2])
        with pytest.raises(ValueError):
            partition_data(data, [2, 0])

    def test_blocks_are_views(self):
        rng = np.random.default_rng(1)
        data = make_data(rng, 3, [2, 4])
        part = partition_data(data, [2, 4])
        blocks = part.blocks(data)
        assert np.array_equal(blocks[0][0], data.X[:, :2])
        assert np.array_equal(blocks[1][1], data.Y[:, 2:])


class TestBlockAssembly:
    def test_single_agent_passthrough(self):
        data = make_data(np.random.default_rng(2), 3, [4])
        part = partition_data(data, [4])
        assert np.array_equal(assemble_block_X(part, data), data.X)

    def test_two_scalar_agents(self):
        data = LiftedData(X=np.array([[1.0, 2.0]]), Y=np.array([[0.0, 0.0]]))
        part = partition_data(data, [1, 1])
        assert np.array_equal(assemble_block_X(part, data), [[1.0, 0.0], [0.0, 2.0]])

    def test_gram_is_block_diagonal(self):
        rng = np.random.default_rng(3)
        data = make_data(rng, 2, [2, 3, 1])
        part = partition_data(data, [2, 3, 1])
        bX = assemble_block_X(part, data)
        gram = bX @ bX.T
        blocks = part.blocks(data)
        for i, (Xi, _) in enumerate(blocks):
            assert np.allclose(gram[2 * i:2 * i + 2, 2 * i:2 * i + 2], Xi @ Xi.T)
        for i in range(3):
            for j in range(3):
                if i != j:
                    assert np.all(gram[2 * i:2 * i + 2, 2 * j:2 * j + 2] == 0.0)

    def test_frobenius_preserved(self):
        rng = np.random.default_rng(4)
        data = make_data(rng, 3, [2, 2])
        part = partition_data(data, [2, 2])
        assert np.linalg.norm(assemble_block_X(part, data)) == pytest.approx(
            np.linalg.norm(data.X))


class TestConvergenceMatrix:
    def test_worked_instance_matrix(self):
        data, part, graph = worked_instance()
        M = assemble_M(part, data, laplacian(graph), 1.0, 1.0)
        expected = np.array([[-2.0, 1.0, 1.0, -1.0],
                             [1.0, -2.0, -1.0, 1.0],
                             [-1.0, 0.0, 0.0, 0.0],
                             [0.0, -1.0, 0.0, 0.0]])
        assert np.array_equal(M, expected)

    def test_worked_instance_spectrum(self):
        data, part, graph = worked_instance()
        M = assemble_M(part, data, laplacian(graph), 1.0, 1.0)
        assert spectrum_distance(eigenvalues(M).eigenvalues, [0, -1, -1, -2]) <= 1e-9

    def test_single_agent(self):
        data = LiftedData(X=np.array([[1.0]]), Y=np.array([[1.0]]))
        part = partition_data(data, [1])
        graph = build_graph(1, [])
        M = assemble_M(part, data, laplacian(graph), 2.5, 3.5)
        assert np.array_equal(M, [[-1.0, 0.0], [-3.5, 0.0]])

    def test_shape(self):
        rng = np.random.default_rng(5)
        data = make_data(rng, 2, [1, 2, 1])
        part = partition_data(data, [1, 2, 1])
        M = assemble_M(part, data, laplacian(preset_graph("ring", 3)), 1.0, 1.0)
        assert M.shape == (12, 12)

    def test_disconnected_rejected(self):
        rng = np.random.default_rng(6)
        data = make_data(rng, 1, [1, 1])
        part = partition_data(data, [1, 1])
        lap = laplacian(build_graph(2, []))
        with pytest.raises(DisconnectedGraphError):
            assemble_M(part, data, lap, 1.0, 1.0)
        with pytest.raises(DisconnectedGraphError):
            assemble_M_tilde(part, data, lap, 1.0, 1.0)

    def test_nonpositive_gains_rejected(self):
        data, part, graph = worked_instance()
        with pytest.raises(ValueError):
            assemble_M(part, data, laplacian(graph), 0.0, 1.0)


class TestIsospectralVariant:
    def test_worked_instance_spectrum(self):
        data, part, graph = worked_instance()
        Mt = assemble_M_tilde(part, data, laplacian(graph), 1.0, 1.0)
        assert spectrum_distance(eigenvalues(Mt).eigenvalues, [0, -1, -1, -2]) <= 1e-9

    def test_single_agent_decoupled(self):
        data = LiftedData(X=np.array([[1.0]]), Y=np.array([[1.0]]))
        part = partition_data(data, [1])
        lap = laplacian(build_graph(1, []))
        Mt = assemble_M_tilde(part, data, lap, 2.0, 8.0)
        assert np.array_equal(Mt, [[-1.0, 0.0], [0.0, 0.0]])
        assert spectrum_distance(eigenvalues(Mt).eigenvalues, [-1.0, 0.0]) <= 1e-12

    def test_spectrum_equality_random(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            p = int(rng.integers(2, 4))
            n = int(rng.integers(1, 3))
            widths = [int(rng.integers(1, 4)) for _ in range(p)]
            data = make_data(rng, n, widths)
            part = partition_data(data, widths)
            lap = laplacian(random_graph(rng, p, connected=True))
            k_P, k_I = rng.uniform(0.1, 10.0, size=2)
            M = assemble_M(part, data, lap, k_P, k_I)
            Mt = assemble_M_tilde(part, data, lap, k_P, k_I)
            eig_m = eigenvalues(M).eigenvalues
            eig_t = eigenvalues(Mt).eigenvalues
            scale = max(1.0, np.abs(eig_m).max())
            assert spectrum_distance(eig_m, eig_t) <= 1e-6 * scale


class TestStepSizeBounds:
    def test_worked_alpha_max(self):
        spec = Spectrum([0.0, -1.0, -1.0, -2.0], zero_tol=1e-9)
        assert compute_alpha_max(spec) == pytest.approx(1.0, abs=1e-12)

    def test_complex_pair(self):
        spec = Spectrum([0.0, -1.0 + 1.0j, -1.0 - 1.0j], zero_tol=1e-9)
        assert compute_alpha_max(spec) == pytest.approx(1.0, abs=1e-12)

    def test_positive_real_part_rejected(self):
        spec = Spectrum([0.0, 0.1], zero_tol=1e-9)
        with pytest.raises(NotSemiHurwitzError):
            compute_alpha_max(spec)

    def test_all_zero_rejected(self):
        spec = Spectrum([0.0, 0.0], zero_tol=1e-9)
        with pytest.raises(NotSemiHurwitzError):
            compute_alpha_max(spec)

    def test_worked_rho_max(self):
        spec = Spectrum([0.0, -1.0, -1.0, -2.0], zero_tol=1e-9)
        assert compute_rho_max(spec, 0.5) == pytest.approx(0.5, abs=1e-12)

    def test_rho_tends_to_one_for_small_alpha(self):
        spec = Spectrum([0.0, -1.0, -1.0, -2.0], zero_tol=1e-9)
        rho = compute_rho_max(spec, 1e-9)
        assert 1.0 - 1e-8 < rho < 1.0

    def test_rho_out_of_range(self):
        spec = Spectrum([0.0, -1.0, -1.0, -2.0], zero_tol=1e-9)
        with pytest.raises(StepSizeError):
            compute_rho_max(spec, 1.0)
        with pytest.raises(StepSizeError):
            compute_rho_max(spec, -0.1)

    def test_semi_hurwitz_check(self):
        assert semi_hurwitz_check(Spectrum([0.0, -1.0, -2.0], zero_tol=1e-9))
        assert not semi_hurwitz_check(Spectrum([0.0, 0.1], zero_tol=1e-9))

    def test_semi_hurwitz_rank_deficient_via_isospectral_form(self):
        # rank-deficient data makes eig(M) itself unreliable near zero; the
        # isospectral variant keeps the kernel clean
        rng = np.random.default_rng(8)
        for _ in range(40):
            p = int(rng.integers(2, 6))
            n = int(rng.integers(2, 5))
            widths = [1] * p
            data = make_data(rng, n, widths)
            part = partition_data(data, widths)
            lap = laplacian(random_graph(rng, p, connected=True))
            Mt = assemble_M_tilde(part, data, lap, *rng.uniform(0.1, 10.0, size=2))
            assert semi_hurwitz_check(eigenvalues(Mt))


class TestGains:
    def test_paper_gains_valid(self):
        g = SolverGains(k_P=150.0, k_I=75.0, alpha_fraction=0.5)
        assert g.alpha is None and g.alpha_fraction == 0.5

    def test_exactly_one_mode(self):
        with pytest.raises(ValueError):
            SolverGains(k_P=1.0, k_I=1.0)
        with pytest.raises(ValueError):
            SolverGains(k_P=1.0, k_I=1.0, alpha=0.1, alpha_fraction=0.5)

    def test_fraction_range(self):
        with pytest.raises(ValueError):
            SolverGains(k_P=1.0, k_I=1.0, alpha_fraction=1.0)
        with pytest.raises(ValueError):
            SolverGains(k_P=1.0, k_I=1.0, alpha_fraction=3.0)

    def test_positive_gains(self):
        with pytest.raises(ValueError):
            SolverGains(k_P=0.0, k_I=1.0, alpha=0.1)

    def test_manual_override(self):
        g = SolverGains(k_P=1.0, k_I=1.0, alpha_fraction=0.5)
        g2 = manual_gains(g, 3.0)
        assert g2.alpha == 3.0 and g2.alpha_fraction is None


class TestStep:
    def test_single_agent_is_gradient_descent(self):
        rng = np.random.default_rng(9)
        data = make_data(rng, 3, [6])
        part = partition_data(data, [6])
        graph = build_graph(1, [])
        gains = SolverGains(k_P=1.0, k_I=1.0, alpha=0.01)
        K0 = rng.standard_normal((3, 3))
        state = AgentState(K0, np.zeros((3, 3)))
        out = step([state], graph, gains, part, data)
        expected = K0 - 0.01 * (K0 @ data.X - data.Y) @ data.X.T
        assert np.allclose(out[0].K, expected, atol=1e-14)
        assert np.all(out[0].R == 0.0)

    def test_hand_worked_round(self):
        # n=1, p=2 complete, K=(0,2), X1=X2=[1], Y1=Y2=[1], k_P=k_I=1, alpha=0.1
        data, part, graph = worked_instance()
        gains = SolverGains(k_P=1.0, k_I=1.0, alpha=0.1)
        states = [AgentState([[0.0]], [[0.0]]), AgentState([[2.0]], [[0.0]])]
        out = step(states, graph, gains, part, data)
        assert out[0].K[0, 0] == pytest.approx(0.3, abs=1e-12)
        assert out[1].K[0, 0] == pytest.approx(1.7, abs=1e-12)
        assert out[0].R[0, 0] == pytest.approx(-0.2, abs=1e-12)
        assert out[1].R[0, 0] == pytest.approx(0.2, abs=1e-12)

    def test_unresolved_fraction_rejected(self):
        data, part, graph = worked_instance()
        gains = SolverGains(k_P=1.0, k_I=1.0, alpha_fraction=0.5)
        states = initial_states(2, 1)
        with pytest.raises(StepSizeError):
            step(states, graph, gains, part, data)


class TestRun:
    def _instance(self, seed=10, n=3, widths=(4, 4), preset="complete"):
        rng = np.random.default_rng(seed)
        K_true = rng.standard_normal((n, n))
        X = rng.standard_normal((n, sum(widths)))
        data = LiftedData(X=X, Y=K_true @ X)
        part = partition_data(data, list(widths))
        graph = preset_graph(preset, len(widths))
        return K_true, data, part, graph

    def test_exact_fit_recovers_truth(self):
        K_true, data, part, graph = self._instance()
        gains = SolverGains(k_P=2.0, k_I=1.0, alpha_fraction=0.5,
                            t_max=60000, stop_tol=1e-12)
        states, trace = run(initial_states(2, 3), graph, gains, part, data)
        assert trace.converged and not trace.diverged
        for s in states:
            assert np.linalg.norm(s.K - K_true) <= 1e-8

    def test_single_agent_matches_closed_form(self):
        rng = np.random.default_rng(12)
        data = make_data(rng, 2, [8])
        part = partition_data(data, [8])
        graph = build_graph(1, [])
        lap = laplacian(graph)
        gains = SolverGains(k_P=1.0, k_I=1.0, alpha_fraction=0.5, t_max=100,
                            stop_tol=0.0)
        alpha = resolve_alpha(gains, part, data, lap)
        states, trace = run(initial_states(1, 2), graph, manual_gains(gains, alpha),
                            part, data)
        K = np.zeros((2, 2))
        A = np.eye(2) - alpha * (data.X @ data.X.T)
        B = alpha * (data.Y @ data.X.T)
        for _ in range(trace.iterations):
            K = K @ A + B
        assert np.linalg.norm(states[0].K - K) <= 1e-12 * (1.0 + np.linalg.norm(K))

    def test_determinism_bit_identical(self):
        _, data, part, graph = self._instance(seed=13)
        gains = SolverGains(k_P=2.0, k_I=1.0, alpha_fraction=0.3, t_max=500,
                            stop_tol=1e-9)
        s1, t1 = run(initial_states(2, 3, "random", seed=5), graph, gains, part, data)
        s2, t2 = run(initial_states(2, 3, "random", seed=5), graph, gains, part, data)
        assert np.array_equal(t1.kkt_residual, t2.kkt_residual)
        assert np.array_equal(t1.fit_metric, t2.fit_metric)
        for a, b in zip(s1, s2):
            assert np.array_equal(a.K, b.K) and np.array_equal(a.R, b.R)

    def test_divergence_flag_not_exception(self):
        _, data, part, graph = self._instance(seed=14)
        gains = SolverGains(k_P=2.0, k_I=1.0, alpha=50.0, t_max=100000, stop_tol=0.0)
        states, trace = run(initial_states(2, 3, "random", 1), graph, gains, part, data)
        assert trace.diverged and not trace.converged
        assert trace.iterations < 100000
        assert np.all(np.isfinite(trace.kkt_residual))

    def test_nonzero_integral_init_rejected(self):
        _, data, part, graph = self._instance(seed=15)
        bad = [AgentState(np.zeros((3, 3)), np.ones((3, 3))),
               AgentState(np.zeros((3, 3)), np.zeros((3, 3)))]
        gains = SolverGains(k_P=1.0, k_I=1.0, alpha=0.01)
        with pytest.raises(ValueError):
            run(bad, graph, gains, part, data)

    def test_disconnected_rejected(self):
        _, data, part, _ = self._instance(seed=16)
        gains = SolverGains(k_P=1.0, k_I=1.0, alpha=0.01)
        with pytest.raises(DisconnectedGraphError):
            run(initial_states(2, 3), build_graph(2, []), gains, part, data)

    def test_integral_sum_stays_zero(self):
        _, data, part, graph = self._instance(seed=17)
        gains = SolverGains(k_P=2.0, k_I=1.0, alpha_fraction=0.5, t_max=20000,
                            stop_tol=1e-11)
        _, trace = run(initial_states(2, 3, "random", 3), graph, gains, part, data)
        scale = np.linalg.norm(data.Y) * np.linalg.norm(data.X)
        t = np.arange(1, trace.iterations + 1)
        assert np.all(trace.integral_sum_norm <= 1e-12 * t * scale)

    def test_iterate_rounds_matches_run_prefix(self):
        _, data, part, graph = self._instance(seed=18)
        gains = SolverGains(k_P=2.0, k_I=1.0, alpha=0.01, t_max=40, stop_tol=0.0)
        init = initial_states(2, 3, "random", 9)
        states_run, _ = run(init, graph, gains, part, data)
        states_it = iterate_rounds(init, graph, gains, part, data, 40)
        for a, b in zip(states_run, states_it):
            assert np.array_equal(a.K, b.K) and np.array_equal(a.R, b.R)

    def test_trace_lengths_consistent(self):
        _, data, part, graph = self._instance(seed=19)
        gains = SolverGains(k_P=2.0, k_I=1.0, alpha=0.005, t_max=50, stop_tol=0.0)
        _, trace = run(initial_states(2, 3), graph, gains, part, data,
                       record_mean=True)
        assert trace.iterations == 50
        assert trace.mean_history.shape == (50, 3, 3)
        for series in (trace.consensus_error, trace.objective_mean, trace.fit_metric,
                       trace.kkt_residual, trace.integral_sum_norm):
            assert series.shape == (50,)


class TestKktResidual:
    def test_zero_at_centralized_optimum(self):
        rng = np.random.default_rng(20)
        data = make_data(rng, 3, [3, 3])
        part = partition_data(data, [3, 3])
        graph = preset_graph("complete", 2)
        K_star = centralized_solve(data).K
        states = [AgentState(K_star, np.zeros((3, 3))) for _ in range(2)]
        scale = 1.0 + np.linalg.norm(data.Y) * np.linalg.norm(data.X)
        assert kkt_residual(states, part, data, graph) <= 1e-8 * scale

    def test_dominates_pairwise_gap(self):
        rng = np.random.default_rng(22)
        data = make_data(rng, 2, [2, 2])
        part = partition_data(data, [2, 2])
        graph = preset_graph("complete", 2)
        K1, K2 = rng.standard_normal((2, 2, 2))
        states = [AgentState(K1, np.zeros((2, 2))), AgentState(K2, np.zeros((2, 2)))]
        assert kkt_residual(states, part, data, graph) >= np.linalg.norm(K1 - K2)

    def test_small_after_converged_run(self):
        rng = np.random.default_rng(23)
        data = make_data(rng, 2, [5, 5, 5])
        part = partition_data(data, [5, 5, 5])
        graph = preset_graph("ring", 3)
        gains = SolverGains(k_P=2.0, k_I=1.0, alpha_fraction=0.5, t_max=60000,
                            stop_tol=1e-10)
        states, trace = run(initial_states(3, 2), graph, gains, part, data)
        assert trace.converged
        assert kkt_residual(states, part, data, graph) <= gains.stop_tol


class TestSpectralReport:
    def test_worked_instance_report(self):
        data, part, graph = worked_instance()
        rep = spectral_report(part, data, laplacian(graph), 1.0, 1.0)
        assert rep.alpha_max == pytest.approx(1.0, abs=1e-9)
        assert rep.rho_max(0.5) == pytest.approx(0.5, abs=1e-9)
        assert rep.semi_hurwitz
        assert rep.n_zero == 1
        assert rep.spectrum_M is not None

    def test_spectrum_M_shares_the_multiset(self):
        rng = np.random.default_rng(25)
        data = make_data(rng, 3, [1, 2, 1])
        part = partition_data(data, [1, 2, 1])
        lap = laplacian(preset_graph("ring", 3))
        rep = spectral_report(part, data, lap, 2.0, 1.5)
        assert np.array_equal(rep.spectrum_M.eigenvalues,
                              rep.spectrum_M_tilde.eigenvalues)
        M = assemble_M(part, data, lap, 2.0, 1.5)
        assert rep.spectrum_M.zero_tol == pytest.approx(1e-9 * frobenius_norm(M),
                                                        rel=1e-12)
        assert spectrum_distance(rep.spectrum_M.eigenvalues,
                                 eigenvalues(M).eigenvalues) <= 1e-8

    def test_resolve_alpha_fraction(self):
        data, part, graph = worked_instance()
        lap = laplacian(graph)
        gains = SolverGains(k_P=1.0, k_I=1.0, alpha_fraction=0.25)
        assert resolve_alpha(gains, part, data, lap) == pytest.approx(0.25, abs=1e-9)

    def test_observed_contraction_matches_worked_rho(self):
        # theta=0.5 on the worked instance: alpha=0.5, rho_max=0.5; the
        # measured tail contraction must not exceed 0.52
        data, part, graph = worked_instance()
        gains = SolverGains(k_P=1.0, k_I=1.0, alpha=0.5, t_max=60, stop_tol=0.0)
        init = [AgentState([[1.0]], [[0.0]]), AgentState([[-1.0]], [[0.0]])]
        _, trace = run(init, graph, gains, part, data, record_mean=True)
        contraction = tail_contraction(trace.mean_history)
        assert contraction <= 0.52

    def test_rate_bound_geometric_mean(self):
        rng = np.random.default_rng(24)
        data = make_data(rng, 2, [3, 3, 3])
        part = partition_data(data, [3, 3, 3])
        graph = preset_graph("ring", 3)
        lap = laplacian(graph)
        rep = spectral_report(part, data, lap, 2.0, 1.0)
        alpha = 0.5 * rep.alpha_max
        gains = SolverGains(k_P=2.0, k_I=1.0, alpha=alpha, t_max=60000, stop_tol=1e-11)
        _, trace = run(initial_states(3, 2), graph, gains, part, data,
                       record_mean=True)
        assert trace.converged
        assert tail_contraction(trace.mean_history) <= rep.rho_max(alpha) + 0.02


def _structural_case(p, n, widths, r, seed):
    """Connected graph on p agents and n x N data of rank r = min(r, n, N)."""
    rng = np.random.default_rng(seed)
    N = sum(widths)
    r = min(r, n, N)
    # orthonormalized Gaussian factors around singular values in [0.5, 2]
    # keep all r of them far above the rank cutoff and the zero cutoff
    U = np.linalg.qr(rng.standard_normal((n, r)))[0]
    V = np.linalg.qr(rng.standard_normal((N, r)))[0]
    X = (U * rng.uniform(0.5, 2.0, r)) @ V.T
    data = LiftedData(X=X, Y=rng.standard_normal((n, N)))
    part = partition_data(data, widths)
    return data, part, random_graph(rng, p, connected=True), r


class TestStructuralSpectrum:
    """The reduced spectral report against the dense M~ as its oracle."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 5).flatmap(lambda p: st.tuples(
               st.just(p), st.integers(1, 12), st.lists(st.integers(1, 3), min_size=p,
                                                        max_size=p))),
           st.integers(0, 12), st.floats(0.1, 10.0), st.floats(0.1, 10.0),
           st.integers(0, 2**31 - 1))
    @example((3, 12, [1, 1, 1]), 3, 2.0, 1.0, 0)   # n > N, rank deficient
    @example((4, 3, [3, 2, 2, 1]), 3, 5.0, 2.0, 1)  # n <= N, full row rank
    @example((3, 5, [2, 2, 2]), 0, 1.0, 1.0, 2)     # X = 0: the V-part is empty
    def test_matches_dense_M_tilde(self, shape, r, k_P, k_I, seed):
        p, n, widths = shape
        data, part, graph, r = _structural_case(p, n, widths, r, seed)
        lap = laplacian(graph)
        dense = eigenvalues(assemble_M_tilde(part, data, lap, k_P, k_I))
        if p == 1 and r == 0:  # M~ is the zero matrix
            with pytest.raises(NotSemiHurwitzError):
                spectral_report(part, data, lap, k_P, k_I)
            return
        rep = spectral_report(part, data, lap, k_P, k_I)
        assert rep.rank == r
        assert rep.spectrum_M_tilde.zero_tol == pytest.approx(dense.zero_tol, rel=1e-12)
        scale = max(1.0, float(np.abs(dense.eigenvalues).max()))
        assert spectrum_distance(rep.spectrum_M_tilde.eigenvalues,
                                 dense.eigenvalues) <= 1e-6 * scale
        assert rep.n_zero == dense.n_zero == 2 * n - r
        alpha = compute_alpha_max(dense)
        assert abs(rep.alpha_max - alpha) <= 1e-10 * alpha

    def test_quadratic_roots_keep_their_digits(self):
        # b^2 >> c: the subtraction form -b/2 + sqrt(b^2/4 - c) of the small
        # root would cancel down to about four correct digits here
        mu = np.array([0.0, 1.0, 3.0])
        for k_P, k_I in ((1e4, 1e-4), (1.0, 10.0)):  # real roots, complex pairs
            big, small = np.split(_quadratic_roots(mu, k_P, k_I), 2)
            assert big[0] == small[0] == 0.0
            assert np.allclose(big * small, k_I * mu, rtol=1e-14, atol=0.0)
            assert np.allclose(big + small, -k_P * mu, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("snapshots", [8, 2])
    def test_dense_count_on_scenario_instances(self, snapshots):
        # the desk instance (n = 16 = r < N = 24) and its rank-deficient
        # variant (r = N = 6 < n = 16)
        scn = GridScenario(grid_side=4, num_agents=3, snapshots_per_agent=snapshots,
                           blob_count=6, drift=(1.0, 0.0), saturation_gain=1.0,
                           seed=5, burn_in=0)
        inst = build_instance(scn, "ring")
        lap = laplacian(inst.graph)
        rep = spectral_report(inst.partition, inst.data, lap, 5.0, 2.0)
        dense = eigenvalues(assemble_M_tilde(inst.partition, inst.data, lap, 5.0, 2.0))
        n = inst.data.feature_dim
        assert rep.rank == min(n, scn.num_samples)
        assert rep.n_zero == dense.n_zero == 2 * n - rep.rank
        assert rep.alpha_max == pytest.approx(compute_alpha_max(dense), rel=1e-10)


def dense_round(K, R, L, blocks, k_P, k_I, alpha):
    """One round of the update law on stacked (p, n, n) full-coordinate states.

    The reference the solver's reduced kernel is checked against.
    """
    grad = np.empty_like(K)
    for i, (Xi, Yi) in enumerate(blocks):
        grad[i] = (K[i] @ Xi - Yi) @ Xi.T
    diff = np.tensordot(L, K, axes=(1, 0))
    return K - alpha * (grad + k_P * diff + k_I * R), R + alpha * diff


def dense_run(K, R, graph, gains, part, data):
    """``run``'s loop and per-round diagnostics in full coordinates."""
    L, blocks = laplacian(graph).matrix, part.blocks(data)
    norm = np.linalg.norm
    series = {name: [] for name in ("consensus_error", "objective_mean", "fit_metric",
                                    "kkt_residual", "integral_sum_norm", "mean")}
    for _ in range(gains.t_max):
        K, R = dense_round(K, R, L, blocks, gains.k_P, gains.k_I, gains.alpha)
        series["mean"].append(K.mean(axis=0))
        residual_bar = series["mean"][-1] @ data.X - data.Y
        edge_err = max((norm(K[i] - K[j]) for i, j in graph.edges), default=0.0)
        kkt = norm(residual_bar @ data.X.T) + edge_err
        series["consensus_error"].append(edge_err)
        series["objective_mean"].append(0.5 * norm(residual_bar) ** 2)
        series["fit_metric"].append(np.mean([norm(data.Y - Ki @ data.X) for Ki in K]))
        series["kkt_residual"].append(kkt)
        series["integral_sum_norm"].append(norm(R.sum(axis=0)))
        if edge_err < gains.stop_tol and kkt < gains.stop_tol:
            break
    return K, R, {name: np.array(v) for name, v in series.items()}


def _stacked(states):
    return np.array([s.K for s in states]), np.array([s.R for s in states])


class TestReducedKernel:
    """``run`` and ``iterate_rounds`` (coordinates K_i = W_i B^T) against the dense round.

    Tolerances, each at least nine times the worst of 4,000 separate draws
    of this test's distribution: final K and R within 1e-12 of
    ||K|| + ||R||, and each recorded mean operator within 1e-12 of the
    largest one (worst 1.1e-13; about rounds * n * eps); fit_metric within
    2e-14 s and objective_mean within 1e-14 s^2, with s = ||Y|| + ||K(0)|| ||X||
    the size of the initial residual (worst 1.3e-15 and 7.4e-16); the series
    that sit at the roundoff floor (consensus_error, kkt_residual,
    integral_sum_norm) within 1e-12 * scale, scale = 1 + ||Y|| ||X|| + ||K(0)||
    (worst 9.3e-16).
    """

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 5).flatmap(lambda p: st.tuples(
               st.just(p), st.integers(1, 12), st.lists(st.integers(1, 3), min_size=p,
                                                        max_size=p))),
           st.integers(0, 12), st.floats(0.1, 10.0), st.floats(0.1, 10.0),
           st.floats(0.1, 0.9), st.sampled_from(["zeros", "random K", "random R"]),
           st.integers(1, 200), st.integers(0, 2**31 - 1))
    @example((3, 12, [1, 1, 1]), 3, 2.0, 1.0, 0.5, "random K", 200, 0)  # n > N
    @example((4, 3, [3, 2, 2, 1]), 3, 5.0, 2.0, 0.9, "zeros", 200, 1)   # n <= N
    @example((3, 5, [2, 2, 2]), 0, 1.0, 1.0, 0.5, "zeros", 50, 2)       # X = 0, b = 0
    @example((3, 5, [2, 2, 2]), 0, 1.0, 1.0, 0.5, "random R", 50, 3)
    def test_matches_dense_round(self, shape, r, k_P, k_I, theta, init, rounds, seed):
        p, n, widths = shape
        data, part, graph, r = _structural_case(p, n, widths, r, seed)
        try:
            alpha = theta * spectral_report(part, data, laplacian(graph), k_P, k_I).alpha_max
        except NotSemiHurwitzError:  # p = 1 and X = 0: nothing moves
            alpha = theta
        gains = SolverGains(k_P=k_P, k_I=k_I, alpha=alpha, t_max=rounds, stop_tol=0.0)
        rng = np.random.default_rng(seed)
        # random K(0) rows span R^n and would hide a basis that drops R(0)
        K0 = rng.uniform(-1.0, 1.0, (p, n, n)) if init == "random K" else np.zeros((p, n, n))
        R0 = rng.uniform(-1.0, 1.0, (p, n, n)) if init == "random R" else np.zeros((p, n, n))
        states = [AgentState(K0[i], R0[i]) for i in range(p)]
        K, R, dense = dense_run(K0, R0, graph, gains, part, data)

        if init == "random R":  # run() needs R(0) = 0
            out = iterate_rounds(states, graph, gains, part, data, rounds)
        else:
            out, trace = run(states, graph, gains, part, data, record_mean=True)
            hist_err = np.linalg.norm(trace.mean_history - dense["mean"], axis=(1, 2))
            assert hist_err.max() <= 1e-12 * np.linalg.norm(dense["mean"], axis=(1, 2)).max()
            y, x = np.linalg.norm(data.Y), np.linalg.norm(data.X)
            s = y + np.linalg.norm(K0) * x
            for name, atol in (("fit_metric", 2e-14 * s), ("objective_mean", 1e-14 * s * s)):
                assert np.all(np.abs(getattr(trace, name) - dense[name]) <= atol), name
            scale = 1.0 + y * x + np.linalg.norm(K0)
            for name in ("consensus_error", "kkt_residual", "integral_sum_norm"):
                assert np.all(np.abs(getattr(trace, name) - dense[name]) <= 1e-12 * scale), name
        K_red, R_red = _stacked(out)
        size = np.linalg.norm(K) + np.linalg.norm(R)
        assert np.linalg.norm(K_red - K) <= 1e-12 * size
        assert np.linalg.norm(R_red - R) <= 1e-12 * size

    def test_step_keeps_nonzero_integral_state(self):
        # R(0) with rows outside range(X) (rank 3 < n = 4) and K(0) = 0: only
        # R(0) makes the basis reach beyond range(X)
        rng = np.random.default_rng(26)
        data = make_data(rng, 4, [1, 2])
        part, graph = partition_data(data, [1, 2]), preset_graph("complete", 2)
        K0, R0 = np.zeros((2, 4, 4)), rng.standard_normal((2, 4, 4))
        gains = SolverGains(k_P=2.0, k_I=1.5, alpha=0.05)
        out = step([AgentState(K0[i], R0[i]) for i in range(2)], graph, gains, part, data)
        K, R = dense_round(K0, R0, laplacian(graph).matrix, part.blocks(data),
                           gains.k_P, gains.k_I, gains.alpha)
        K_red, R_red = _stacked(out)
        size = np.linalg.norm(K) + np.linalg.norm(R)
        assert np.linalg.norm(K_red - K) <= 1e-14 * size
        assert np.linalg.norm(R_red - R) <= 1e-14 * size

    def test_basis_extension_near_its_cutoff(self):
        # K(0) rows in range(X) plus an outside part a few times the basis
        # cutoff: the singular vector of that part carries a roundoff
        # component along range(X) of relative size about 1e-2, which the
        # basis must remove to stay orthonormal
        n, gains = 6, SolverGains(k_P=1.0, k_I=1.0, alpha=0.05)
        graph = preset_graph("complete", 2)
        for seed in range(20):
            rng = np.random.default_rng(seed)
            data = make_data(rng, n, [1, 1])
            part = partition_data(data, [1, 1])
            Q = np.linalg.qr(data.X)[0]
            K0 = rng.standard_normal((2, n, 2)) @ Q.T
            u = rng.standard_normal(n)
            u -= Q @ (Q.T @ u)
            K0[0, 0] += 3.0 * (4 * n) * 2.2e-16 * np.linalg.norm(K0) * u / np.linalg.norm(u)
            out = iterate_rounds([AgentState(K0[i], np.zeros((n, n))) for i in range(2)],
                                 graph, gains, part, data, 20)
            K, R = K0, np.zeros_like(K0)
            for _ in range(20):
                K, R = dense_round(K, R, laplacian(graph).matrix, part.blocks(data),
                                   gains.k_P, gains.k_I, gains.alpha)
            assert np.linalg.norm(_stacked(out)[0] - K) <= 1e-12 * np.linalg.norm(K)

    def test_desk_round_count_matches_dense(self):
        # the criterion-1 instance: 8,109 rounds to stop_tol 1e-10 on the dense kernel
        scn = GridScenario(grid_side=4, num_agents=3, snapshots_per_agent=8, blob_count=6,
                           drift=(1.0, 0.0), saturation_gain=1.0, seed=5, burn_in=0)
        inst = build_instance(scn, "ring")
        rep = spectral_report(inst.partition, inst.data, laplacian(inst.graph), 5.0, 2.0)
        gains = SolverGains(k_P=5.0, k_I=2.0, alpha=0.5 * rep.alpha_max, t_max=20000,
                            stop_tol=1e-10)
        init = initial_states(3, inst.data.feature_dim)
        _, trace = run(init, inst.graph, gains, inst.partition, inst.data)
        _, _, dense = dense_run(*_stacked(init), inst.graph, gains, inst.partition, inst.data)
        assert trace.converged
        assert trace.iterations == dense["kkt_residual"].size


def _desk_instance(snapshots=8):
    scn = GridScenario(grid_side=4, num_agents=3, snapshots_per_agent=snapshots,
                       blob_count=6, drift=(1.0, 0.0), saturation_gain=1.0, seed=5,
                       burn_in=0)
    return build_instance(scn, "ring")


class TestChunkedRun:
    """``run`` computes its diagnostics for chunks of rounds at once; the
    first round that stops or diverges must end the run wherever it falls."""

    def test_stop_inside_a_chunk(self):
        inst = _desk_instance()
        rep = spectral_report(inst.partition, inst.data, laplacian(inst.graph), 5.0, 2.0)
        gains = SolverGains(k_P=5.0, k_I=2.0, alpha=0.5 * rep.alpha_max, t_max=300,
                            stop_tol=0.0)
        init = initial_states(3, 16, "random", 1)
        _, full = run(init, inst.graph, gains, inst.partition, inst.data)
        # a tolerance the series first meets at round 150, the 22nd of its chunk
        tol = float(np.nextafter(max(full.consensus_error[149], full.kkt_residual[149]),
                                 np.inf))
        meets = (full.consensus_error < tol) & (full.kkt_residual < tol)
        stop = int(np.flatnonzero(meets)[0]) + 1
        assert stop == 150
        states, trace = run(init, inst.graph, replace(gains, stop_tol=tol),
                            inst.partition, inst.data)
        assert trace.converged and trace.iterations == stop
        for name in ("consensus_error", "objective_mean", "fit_metric", "kkt_residual",
                     "integral_sum_norm"):
            assert np.array_equal(getattr(trace, name), getattr(full, name)[:stop]), name
        prefix = iterate_rounds(init, inst.graph, gains, inst.partition, inst.data, stop)
        for a, b in zip(states, prefix):
            assert np.array_equal(a.K, b.K) and np.array_equal(a.R, b.R)

    @pytest.mark.parametrize("theta, rounds", [(1.5, 48), (3.0, 21)])
    def test_divergence_inside_a_chunk(self, theta, rounds):
        # the sweep's unstable step sizes (desk instance, random init seed 7)
        # against the guard evaluated round by round on the dense states
        inst = _desk_instance()
        data, graph = inst.data, inst.graph
        rep = spectral_report(inst.partition, data, laplacian(graph), 5.0, 2.0)
        gains = SolverGains(k_P=5.0, k_I=2.0, alpha=theta * rep.alpha_max, t_max=8000,
                            stop_tol=0.0)
        init = initial_states(3, 16, "random", 7)
        _, trace = run(init, graph, gains, inst.partition, data)
        K, R = _stacked(init)
        guard = DIVERGENCE_GUARD * (1.0 + np.linalg.norm(data.Y) * np.linalg.norm(data.X)
                                    + np.linalg.norm(K, axis=(1, 2)).max())
        L, blocks = laplacian(graph).matrix, inst.partition.blocks(data)
        for t in range(1, gains.t_max + 1):
            K, R = dense_round(K, R, L, blocks, gains.k_P, gains.k_I, gains.alpha)
            if np.linalg.norm(K, axis=(1, 2)).max() > guard:
                break
        assert trace.diverged and not trace.converged
        assert trace.iterations == t == rounds
        assert np.all(np.isfinite(trace.kkt_residual))

    @pytest.mark.parametrize("init", ["zeros", "low-rank K"])
    def test_left_basis_when_n_exceeds_N(self, init):
        # n = 12 > N = 3: the columns of every K_i(t) lie in range(Y) plus
        # those of K(0), 3 + 2 * 3 = 9 dimensions from a K(0) of rank 3
        data, part, graph, r = _structural_case(2, 12, [1, 2], 3, 31)
        rng = np.random.default_rng(31)
        K0 = np.zeros((2, 12, 12))
        if init == "low-rank K":
            K0 = rng.standard_normal((2, 12, r)) @ range_basis(data.X).T
        alpha = 0.5 * spectral_report(part, data, laplacian(graph), 2.0, 1.0).alpha_max
        gains = SolverGains(k_P=2.0, k_I=1.0, alpha=alpha, t_max=100, stop_tol=0.0)
        red = _Reduced(K0, np.zeros_like(K0), graph, part, data, 2.0, 1.0, alpha)
        assert red.H.shape == (12, 3 if init == "zeros" else 9)
        assert red.Z0.flags.c_contiguous and red.Z0.shape == (2 * 2 * r, red.H.shape[1])
        states = [AgentState(K0[i], np.zeros((12, 12))) for i in range(2)]
        out, trace = run(states, graph, gains, part, data, record_mean=True)
        K, R, dense = dense_run(K0, np.zeros_like(K0), graph, gains, part, data)
        size = np.linalg.norm(K) + np.linalg.norm(R)
        assert np.linalg.norm(_stacked(out)[0] - K) <= 1e-12 * size
        assert np.linalg.norm(_stacked(out)[1] - R) <= 1e-12 * size
        hist_err = np.linalg.norm(trace.mean_history - dense["mean"], axis=(1, 2))
        assert hist_err.max() <= 1e-12 * np.linalg.norm(dense["mean"], axis=(1, 2)).max()
        s = np.linalg.norm(data.Y) + np.linalg.norm(K0) * np.linalg.norm(data.X)
        assert np.all(np.abs(trace.fit_metric - dense["fit_metric"]) <= 2e-14 * s)

    def test_no_left_basis_when_n_at_most_N(self):
        data, part, graph, _ = _structural_case(3, 4, [2, 1, 2], 4, 32)
        K0 = np.random.default_rng(32).standard_normal((3, 4, 4))
        red = _Reduced(K0, np.zeros_like(K0), graph, part, data, 1.0, 1.0, 0.01)
        assert red.H is None and red.Z0.shape == (2 * 3 * 4, 4)

    def test_one_round_chunks(self, monkeypatch):
        # the chunk length a huge state gets; the rounds are the same, and the
        # diagnostics agree to roundoff
        inst = _desk_instance()
        gains = SolverGains(k_P=5.0, k_I=2.0, alpha=0.01, t_max=70, stop_tol=0.0)
        init = initial_states(3, 16, "random", 2)
        states, trace = run(init, inst.graph, gains, inst.partition, inst.data,
                            record_mean=True)
        monkeypatch.setattr(consensus, "_CHUNK_ROUNDS", 1)
        states_1, trace_1 = run(init, inst.graph, gains, inst.partition, inst.data,
                                record_mean=True)
        assert trace_1.iterations == trace.iterations == 70
        for a, b in zip(states, states_1):
            assert np.array_equal(a.K, b.K) and np.array_equal(a.R, b.R)
        for name in ("consensus_error", "objective_mean", "fit_metric", "kkt_residual",
                     "integral_sum_norm", "mean_history"):
            assert np.allclose(getattr(trace_1, name), getattr(trace, name),
                               rtol=1e-14, atol=0.0), name

    def test_mean_history_grows_across_chunks(self):
        # 16 reserved rows doubled past several chunks of 32; each recorded
        # mean against the mean of the states after that many rounds
        inst = _desk_instance()
        gains = SolverGains(k_P=5.0, k_I=2.0, alpha=0.01, t_max=100, stop_tol=0.0)
        init = initial_states(3, 16, "random", 3)
        _, trace = run(init, inst.graph, gains, inst.partition, inst.data,
                       record_mean=True)
        assert trace.mean_history.shape == (100, 16, 16)
        for t in (1, 16, 17, 32, 33, 64, 65, 100):
            out = iterate_rounds(init, inst.graph, gains, inst.partition, inst.data, t)
            Kbar = _stacked(out)[0].mean(axis=0)
            assert np.linalg.norm(trace.mean_history[t - 1] - Kbar) <= 1e-13 * np.linalg.norm(Kbar)

    def test_round_operator_is_M_perp_transposed(self):
        # P = I + alpha M_perp^T, M's block on the complement of range(X)
        data, part, graph, _ = _structural_case(4, 5, [1, 1, 2, 1], 2, 33)
        L = laplacian(graph).matrix
        red = _Reduced(np.zeros((4, 5, 5)), np.zeros((4, 5, 5)), graph, part, data,
                       3.0, 1.5, 0.02)
        _, plain_perp = _restricted_pair(np.zeros((4, 4)), L, np.zeros((4, 4)), 3.0, 1.5)
        assert np.array_equal(red.P, np.eye(8) + 0.02 * plain_perp.T)


class TestTailContraction:
    def test_exact_geometric_sequence(self):
        rho = 0.9
        base = np.ones((2, 2))
        hist = [np.zeros((2, 2)) + rho**t * base for t in range(60)]
        hist.append(np.zeros((2, 2)))  # final value = limit
        assert tail_contraction(np.array(hist)) == pytest.approx(rho, abs=1e-9)

    def test_degenerate_history(self):
        assert np.isnan(tail_contraction(np.zeros((3, 2, 2))))
