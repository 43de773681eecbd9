from dataclasses import replace
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dkoopman import consensus
from dkoopman.config import load_config
from dkoopman.consensus import (DIVERGENCE_GUARD, AgentState, NotSemiHurwitzError,
                                Partition, SolverGains, StepSizeError, assemble_M,
                                assemble_M_tilde, assemble_block_X, compute_alpha_max,
                                compute_rho_max, initial_states, iterate_rounds,
                                manual_gains, partition_data, ReducedStates, run,
                                semi_hurwitz_check, spectral_report, Start, step,
                                tail_contraction, _quadratic_roots, _Reduced)
from dkoopman.edmd import LiftedData, centralized_solve
from dkoopman.graphs import (DisconnectedGraphError, build_graph, laplacian,
                             preset_graph)
from dkoopman.linalg import (Spectrum, eigenvalues, frobenius_norm, range_svd,
                             spectrum_distance)
from dkoopman.scenario import GridScenario, build_instance

from oracles import kkt_residual
from test_graphs import random_graph


def make_data(rng, n, widths):
    N = sum(widths)
    return LiftedData(X=rng.standard_normal((n, N)), Y=rng.standard_normal((n, N)))


def explicit(gains, part, data, graph):
    """``gains`` with the step size a spectral report resolves for them."""
    rep = spectral_report(part, data, laplacian(graph), gains.k_P, gains.k_I)
    return manual_gains(gains, rep.step_size(gains))


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

    @pytest.mark.parametrize("widths, bad", [((2.7, 1), "2.7"), ((2, True), "True"),
                                             ((3, "2"), "'2'")])
    def test_widths_must_be_integers(self, widths, bad):
        with pytest.raises(ValueError, match=f"^widths must be an integer, got {bad}$"):
            Partition(widths)
        assert Partition((np.int64(2), 1)).widths == (2, 1)

    def test_blocks_refuse_other_data(self):
        part = partition_data(make_data(np.random.default_rng(0), 2, [2, 2]), [2, 2])
        with pytest.raises(ValueError, match="partition covers 4 columns, data has 5"):
            part.blocks(make_data(np.random.default_rng(0), 2, [5]))

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

    @pytest.mark.parametrize("t_max", [2.5, True, 3.0, "3"])
    def test_t_max_must_be_an_integer(self, t_max):
        with pytest.raises(ValueError, match=f"^t_max must be an integer, got {t_max!r}$"):
            SolverGains(k_P=1.0, k_I=1.0, alpha=0.1, t_max=t_max)
        assert SolverGains(k_P=1.0, k_I=1.0, alpha=0.1, t_max=np.int64(3)).t_max == 3

    def test_manual_override(self):
        g = SolverGains(k_P=1.0, k_I=1.0, alpha_fraction=0.5)
        g2 = manual_gains(g, 3.0)
        assert g2.alpha == 3.0 and g2.alpha_fraction is None


@pytest.mark.parametrize("K, R", [
    (np.ones(3), np.ones(3)),            # not 2-D
    (np.ones((2, 3)), np.ones((2, 3))),  # K not square
    (np.eye(2), np.eye(3)),              # R does not match K
    ([[np.inf]], [[0.0]]),               # non-finite K
    ([[0.0]], [[np.nan]]),               # non-finite R
])
def test_agent_state_validation(K, R):
    with pytest.raises(ValueError):
        AgentState(K, R)


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
        states, trace = run(initial_states(2, 3), graph, explicit(gains, part, data, graph),
                            part, data)
        assert trace.converged and not trace.diverged
        for s in states:
            assert np.linalg.norm(s.K - K_true) <= 1e-8

    def test_single_agent_matches_closed_form(self):
        rng = np.random.default_rng(12)
        data = make_data(rng, 2, [8])
        part = partition_data(data, [8])
        graph = build_graph(1, [])
        gains = explicit(SolverGains(k_P=1.0, k_I=1.0, alpha_fraction=0.5, t_max=100,
                                     stop_tol=0.0), part, data, graph)
        alpha = gains.alpha
        states, trace = run(initial_states(1, 2), graph, gains, part, data)
        K = np.zeros((2, 2))
        A = np.eye(2) - alpha * (data.X @ data.X.T)
        B = alpha * (data.Y @ data.X.T)
        for _ in range(trace.iterations):
            K = K @ A + B
        assert np.linalg.norm(states[0].K - K) <= 1e-12 * (1.0 + np.linalg.norm(K))

    def test_determinism_bit_identical(self):
        _, data, part, graph = self._instance(seed=13)
        gains = explicit(SolverGains(k_P=2.0, k_I=1.0, alpha_fraction=0.3, t_max=500,
                                     stop_tol=1e-9), part, data, graph)
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
        gains = explicit(SolverGains(k_P=2.0, k_I=1.0, alpha_fraction=0.5, t_max=20000,
                                     stop_tol=1e-11), part, data, graph)
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

    def test_iterate_rounds_refuses_negative_rounds(self):
        data, part, graph = worked_instance()
        gains = SolverGains(k_P=1.0, k_I=1.0, alpha=0.1, t_max=5)
        with pytest.raises(ValueError, match="rounds must be nonnegative"):
            iterate_rounds(Start(), graph, gains, part, data, -1)
        assert len(iterate_rounds(Start(), graph, gains, part, data, 0)) == 2

    def test_trace_lengths_consistent(self):
        _, data, part, graph = self._instance(seed=19)
        gains = SolverGains(k_P=2.0, k_I=1.0, alpha=0.005, t_max=50, stop_tol=0.0)
        init = initial_states(2, 3)
        _, trace = run(init, graph, gains, part, data, record_mean=True)
        red = _Reduced(init, graph, gains, part, data)
        assert trace.iterations == 50
        assert trace.mean_history.shape == (50, red.b, red.d)
        for series in (trace.consensus_error, trace.objective_mean, trace.fit_metric,
                       trace.kkt_residual, trace.integral_sum_norm):
            assert series.shape == (50,)


@pytest.mark.parametrize("case, error, match", [
    ("alpha_fraction", StepSizeError, "SpectralReport.step_size"),
    ("state count", ValueError, "got 3 states"),
    ("state shape", ValueError, r"state shapes \[\(2, 2\), \(2, 2\)\]"),
    ("one-shot iterator", TypeError, "has no len"),  # the states are read more than once
])
@pytest.mark.parametrize("entry", ["run", "iterate_rounds"])
def test_one_contract_for_both_entry_points(entry, case, error, match):
    data, part, graph = worked_instance()  # p = 2, n = 1
    gains = SolverGains(k_P=1.0, k_I=1.0, alpha=0.1, t_max=5)
    init = initial_states(2, 1)
    if case == "alpha_fraction":
        gains = SolverGains(k_P=1.0, k_I=1.0, alpha_fraction=0.5, t_max=5)
    elif case == "state count":
        init = initial_states(3, 1)
    elif case == "state shape":
        init = initial_states(2, 2)
    else:
        init = iter(init)
    with pytest.raises(error, match=match) as refused:
        if entry == "run":
            run(init, graph, gains, part, data)
        else:
            iterate_rounds(init, graph, gains, part, data, 5)
    assert refused.type is error


def test_overflowing_step_size_sets_up_alike():
    # alpha G_i and alpha k_P L overflow; both entry points build the set-up
    # without a warning, and the first round of the run diverges
    data = LiftedData(X=np.array([[10.0, 10.0]]), Y=np.array([[1.0, 1.0]]))
    part, graph = partition_data(data, [1, 1]), preset_graph("complete", 2)
    gains = SolverGains(k_P=10.0, k_I=1.0, alpha=1e308, t_max=5, stop_tol=0.0)
    _, trace = run(Start(), graph, gains, part, data)
    assert trace.diverged and trace.iterations == 1
    states = iterate_rounds(Start(), graph, gains, part, data, 0)
    assert not any(s.K.any() or s.R.any() for s in states)


class TestKktResidual:
    def test_refuses_a_start_and_a_wrong_count(self):
        data, part, graph = worked_instance()
        with pytest.raises(ValueError, match="needs agent states"):
            kkt_residual(Start(), part, data, graph)
        with pytest.raises(ValueError, match=r"got states \(3, 1, 1\)"):
            kkt_residual(initial_states(3, 1), part, data, graph)

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
        gains = explicit(SolverGains(k_P=2.0, k_I=1.0, alpha_fraction=0.5, t_max=60000,
                                     stop_tol=1e-10), part, data, graph)
        states, trace = run(initial_states(3, 2), graph, gains, part, data)
        assert trace.converged
        assert kkt_residual(states, part, data, graph) <= gains.stop_tol

    def test_a_cutoff_run_is_stationary_on_the_cut_data(self):
        """Desk with rank_tol 0.698 converges in 6,666 rounds with a final
        trace KKT residual of 9.9613e-11.  The oracle on the data B B^T X the
        run solves reads 9.9615e-11, 2.4e-15 away; the tolerance is 1e-13,
        about forty times that.  On the raw X it reads 0.967: the cut
        direction sigma_16 = 0.6255 is not fitted, by design."""
        inst, data, cut = TestRankCutoff._cut_desk()
        alpha = 0.5 * spectral_report(inst.partition, data, laplacian(inst.graph),
                                      5.0, 2.0).alpha_max
        gains = SolverGains(k_P=5.0, k_I=2.0, alpha=alpha, t_max=20000, stop_tol=1e-10)
        states, trace = run(Start(), inst.graph, gains, inst.partition, data)
        assert trace.converged
        oracle = kkt_residual(states, inst.partition, cut, inst.graph)
        assert abs(oracle - trace.kkt_residual[-1]) <= 1e-13
        assert kkt_residual(states, inst.partition, inst.data, inst.graph) > 0.9


class TestSpectralReport:
    def test_worked_instance_report(self):
        data, part, graph = worked_instance()
        rep = spectral_report(part, data, laplacian(graph), 1.0, 1.0)
        assert rep.alpha_max == pytest.approx(1.0, abs=1e-9)
        assert rep.rho_max(0.5) == pytest.approx(0.5, abs=1e-9)
        assert rep.semi_hurwitz
        assert rep.n_zero == 1
        assert rep.spectrum_M is not None

    def test_partition_must_match_the_laplacian(self):
        data, part, _ = worked_instance()  # p = 2
        with pytest.raises(ValueError, match="partition has 2 agents, Laplacian has 3"):
            spectral_report(part, data, laplacian(preset_graph("ring", 3)), 1.0, 1.0)

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
        gains = SolverGains(k_P=1.0, k_I=1.0, alpha_fraction=0.25)
        assert explicit(gains, part, data, graph).alpha == pytest.approx(0.25, abs=1e-9)

    def test_step_size_explicit_or_fraction_of_alpha_max(self):
        inst = build_instance(GridScenario(grid_side=4, seed=5, burn_in=0))
        rep = spectral_report(inst.partition, inst.data, laplacian(inst.graph), 5.0, 2.0)
        assert rep.step_size(SolverGains(k_P=5.0, k_I=2.0, alpha=3.0)) == 3.0
        for theta in (0.1, 0.5, 0.9):
            gains = SolverGains(k_P=5.0, k_I=2.0, alpha_fraction=theta)
            assert rep.step_size(gains) == theta * rep.alpha_max

    def test_rho_max_only_inside_the_stable_range(self):
        inst = build_instance(GridScenario(grid_side=4, seed=5, burn_in=0))
        rep = spectral_report(inst.partition, inst.data, laplacian(inst.graph), 5.0, 2.0)
        a_max = rep.alpha_max
        for alpha in (a_max, np.nextafter(a_max, np.inf), 2.0 * a_max, 0.0, -0.0, -0.1):
            assert rep.rho_max(alpha) is None, alpha
        for alpha in (5e-324, 0.5 * a_max, np.nextafter(a_max, 0.0)):
            assert rep.rho_max(alpha) == compute_rho_max(rep.spectrum_M_tilde, alpha)

    @pytest.mark.parametrize("seed, rank, unresolved", [(16, 4, 1), (116, 4, 1), (7, 3, 0)])
    def test_unresolved_zeros_predicted_by_the_data(self, seed, rank, unresolved):
        # paper scale: with r = 4 one core eigenvalue, about -sigma_4(X)^2 / p,
        # falls under the zero cutoff; the SVD's count names it
        inst = build_instance(GridScenario(seed=seed))
        rep = spectral_report(inst.partition, inst.data, laplacian(inst.graph), 150.0, 75.0)
        assert rep.rank == rank
        assert rep.n_unresolved == rep.n_zero - rep.n_zero_structural == unresolved
        assert rep.n_unresolved_predicted == unresolved

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


def _mp_alpha_max(part, data, lap, k_P, k_I, zero_tol, dps=40):
    """alpha_max of M~ assembled and solved with ``dps`` digits from the same inputs.

    A double root of lambda^2 + k_P mu lambda + k_I mu (k_P^2 mu = 4 k_I) is
    a defective eigenvalue of M~: rounding M~ to doubles already splits it
    by about sqrt(eps), so the double-precision oracle keeps only half its
    digits there.  With 40 digits the split stays near 1e-20.
    """
    with mpmath.workdps(dps):
        p, n = part.p, data.feature_dim
        mu, U = mpmath.eigsy(mpmath.matrix(lap))
        root = U * mpmath.diag([mpmath.sqrt(max(m, 0)) for m in mu]) * U.T
        bX = mpmath.matrix(assemble_block_X(part, data))
        d = p * n
        M = mpmath.zeros(2 * d, 2 * d)
        M[:d, :d] = -bX * bX.T
        for i in range(p):
            for j in range(p):
                for k in range(n):
                    a, b = i * n + k, j * n + k
                    M[a, b] -= k_P * lap[i, j]
                    M[a, d + b] = mpmath.sqrt(k_I) * root[i, j]
                    M[d + a, b] = -M[a, d + b]
        vals = mpmath.eig(M, left=False, right=False)
        return compute_alpha_max(Spectrum(np.array([complex(v) for v in vals]), zero_tol))


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
    @example((2, 1, [1, 1]), 0, 2.0, 2.0, 0)        # mu = 2, k_P^2 mu = 4 k_I: a double root
    @example((1, 4, [3]), 2, 2.0, 1.0, 3)           # p = 1: the deflated core is -G alone
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
        if abs(rep.alpha_max - alpha) > 1e-10 * alpha:  # a defective eigenvalue decides
            alpha = _mp_alpha_max(part, data, lap, k_P, k_I, dense.zero_tol)
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

    # the ring's ids are its bare snapshot counts, kept stable for test selection
    @pytest.mark.parametrize("preset, agents, snapshots", [
        ("ring", 3, 8), ("ring", 3, 2), ("path", 4, 6), ("path", 4, 2), ("star", 4, 6),
        ("star", 4, 2), ("complete", 4, 6), ("complete", 4, 2),
    ], ids=["8", "2", "path-6", "path-2", "star-6", "star-2", "complete-6", "complete-2"])
    def test_dense_count_on_scenario_instances(self, preset, agents, snapshots):
        # the desk instance (n = 16 = r < N = 24) and its rank-deficient
        # variant (r = N = 6 < n = 16); then 4 agents on graphs with vertices
        # of degree 1 and 3 and, on the complete graph, the triple eigenvalue
        # mu = 4, with N = 24 and N = 8 columns
        scn = GridScenario(grid_side=4, num_agents=agents, snapshots_per_agent=snapshots,
                           blob_count=6, drift=(1.0, 0.0), saturation_gain=1.0,
                           seed=5, burn_in=0)
        inst = build_instance(scn, preset)
        lap = laplacian(inst.graph)
        rep = spectral_report(inst.partition, inst.data, lap, 5.0, 2.0)
        dense = eigenvalues(assemble_M_tilde(inst.partition, inst.data, lap, 5.0, 2.0))
        n = inst.data.feature_dim
        assert rep.rank == min(n, scn.num_samples)
        assert rep.n_zero == dense.n_zero == 2 * n - rep.rank
        # the zero mode and the complement give their zeros exactly
        assert np.sum(rep.spectrum_M_tilde.eigenvalues == 0) == 2 * n - rep.rank
        assert rep.n_zero_structural == 2 * n - rep.rank
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


def _fit_metric(K, data):
    """Mean over the agents of ||Y - K_i X||_F, on stacked (p, n, n) K."""
    return np.mean([np.linalg.norm(data.Y - Ki @ data.X) for Ki in K])


def dense_run(K, R, graph, gains, part, data, keep_states=False):
    """``run``'s loop and per-round diagnostics in full coordinates; with
    ``keep_states`` the series also hold each round's stacked K and R."""
    L, blocks = laplacian(graph), part.blocks(data)
    norm = np.linalg.norm
    series = {name: [] for name in ("consensus_error", "objective_mean", "fit_metric",
                                    "kkt_residual", "integral_sum_norm", "mean", "K", "R")}
    for _ in range(gains.t_max):
        K, R = dense_round(K, R, L, blocks, gains.k_P, gains.k_I, gains.alpha)
        if keep_states:
            series["K"].append(K)
            series["R"].append(R)
        series["mean"].append(K.mean(axis=0))
        residual_bar = series["mean"][-1] @ data.X - data.Y
        edge_err = max((norm(K[i] - K[j]) for i, j in graph.edges), default=0.0)
        kkt = norm(residual_bar @ data.X.T) + edge_err
        series["consensus_error"].append(edge_err)
        series["objective_mean"].append(0.5 * norm(residual_bar) ** 2)
        series["fit_metric"].append(_fit_metric(K, data))
        series["kkt_residual"].append(kkt)
        series["integral_sum_norm"].append(norm(R.sum(axis=0)))
        if edge_err < gains.stop_tol and kkt < gains.stop_tol:
            break
    return K, R, {name: np.array(v) for name, v in series.items()}


def _stacked(states):
    return np.array([s.K for s in states]), np.array([s.R for s in states])


def _reduced_path(red, rounds):
    """The lifted (K(t), R(t)), t = 1..rounds, of the reduced rounds from red.Z0."""
    Z, nxt = red.Z0.copy(), np.empty_like(red.Z0)
    path = []
    for _ in range(rounds):
        consensus._round(red.views(Z), red.views(nxt), red)
        Z, nxt = nxt, Z
        path.append(_stacked(ReducedStates(red, Z)))
    return np.array(path)  # (rounds, 2, p, n, n)


def _lifted(history, red):
    """A recorded (t, b, d) mean history as the n x n means
    Kbar(t) = H Wbar(t)^T B^T + Ubar, with Ubar the start's constant mean
    outside range(X)."""
    K = history.transpose(0, 2, 1) @ red.B.T
    if red.H is not None:
        K = red.H @ K
    if red.Phi is not None:
        Ubar = red.Z0[:red.p, red.b * red.d:].mean(axis=0) @ red.Phi.T
        K = K + Ubar.reshape(K.shape[1:])
    return K


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

    fit_metric is also held, at the same 2e-14 s, to the dense formula on
    ``run``'s own rounds (worst 1.1e-15 s), and each of those rounds' K and
    R to the dense round's within the final states' bound (the worst is at
    the last round).
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
    @example((3, 8, [2, 2, 2]), 3, 2.0, 1.0, 0.5, "low-rank K", 200, 4)  # rows in range(X)
    def test_matches_dense_round(self, shape, r, k_P, k_I, theta, init, rounds, seed):
        p, n, widths = shape
        data, part, graph, r = _structural_case(p, n, widths, r, seed)
        try:
            alpha = theta * spectral_report(part, data, laplacian(graph), k_P, k_I).alpha_max
        except NotSemiHurwitzError:  # p = 1 and X = 0: nothing moves
            alpha = theta
        gains = SolverGains(k_P=k_P, k_I=k_I, alpha=alpha, t_max=rounds, stop_tol=0.0)
        rng = np.random.default_rng(seed)
        # random K(0) rows span R^n and would hide a basis rule that ignores R(0)
        K0 = rng.uniform(-1.0, 1.0, (p, n, n)) if init == "random K" else np.zeros((p, n, n))
        if init == "low-rank K":  # every start row in range(X), r < n: a roundoff complement
            K0 = rng.standard_normal((p, n, r)) @ range_svd(data.X).U.T
        R0 = rng.uniform(-1.0, 1.0, (p, n, n)) if init == "random R" else np.zeros((p, n, n))
        states = [AgentState(K0[i], R0[i]) for i in range(p)]
        K, R, dense = dense_run(K0, R0, graph, gains, part, data, keep_states=True)

        if init == "random R":  # run() needs R(0) = 0
            out = iterate_rounds(states, graph, gains, part, data, rounds)
        else:
            out, trace = run(states, graph, gains, part, data, record_mean=True)
            red = _Reduced(states, graph, gains, part, data)
            assert np.array_equal(red.B, range_svd(data.X).U)
            if red.Phi is None:
                assert np.array_equal(out.row_basis, red.B)
            else:
                assert out.row_basis is None
            path = _reduced_path(red, rounds)
            assert np.array_equal(path[-1], _stacked(out))  # the rounds ``run`` made
            sizes = sum(np.linalg.norm(dense[name].reshape(rounds, -1), axis=1) for name in "KR")
            for i, name in enumerate("KR"):
                err = np.linalg.norm((path[:, i] - dense[name]).reshape(rounds, -1), axis=1)
                assert np.all(err <= 1e-12 * sizes), name
            hist_err = np.linalg.norm(_lifted(trace.mean_history, red) - dense["mean"],
                                      axis=(1, 2))
            assert hist_err.max() <= 1e-12 * np.linalg.norm(dense["mean"], axis=(1, 2)).max()
            y, x = np.linalg.norm(data.Y), np.linalg.norm(data.X)
            s = y + np.linalg.norm(K0) * x
            for name, atol in (("fit_metric", 2e-14 * s), ("objective_mean", 1e-14 * s * s)):
                assert np.all(np.abs(getattr(trace, name) - dense[name]) <= atol), name
            fit = np.array([_fit_metric(Kt, data) for Kt in path[:, 0]])
            assert np.all(np.abs(trace.fit_metric - fit) <= 2e-14 * s), "fit_metric, own rounds"
            scale = 1.0 + y * x + np.linalg.norm(K0)
            for name in ("consensus_error", "kkt_residual", "integral_sum_norm"):
                assert np.all(np.abs(getattr(trace, name) - dense[name]) <= 1e-12 * scale), name
        K_red, R_red = _stacked(out)
        size = np.linalg.norm(K) + np.linalg.norm(R)
        assert np.linalg.norm(K_red - K) <= 1e-12 * size
        assert np.linalg.norm(R_red - R) <= 1e-12 * size

    def test_step_keeps_nonzero_integral_state(self):
        # R(0) with rows outside range(X) (rank 3 < n = 4) and K(0) = 0: only
        # R(0) gives the state complement coefficients
        rng = np.random.default_rng(26)
        data = make_data(rng, 4, [1, 2])
        part, graph = partition_data(data, [1, 2]), preset_graph("complete", 2)
        K0, R0 = np.zeros((2, 4, 4)), rng.standard_normal((2, 4, 4))
        gains = SolverGains(k_P=2.0, k_I=1.5, alpha=0.05)
        out = step([AgentState(K0[i], R0[i]) for i in range(2)], graph, gains, part, data)
        K, R = dense_round(K0, R0, laplacian(graph), part.blocks(data),
                           gains.k_P, gains.k_I, gains.alpha)
        K_red, R_red = _stacked(out)
        size = np.linalg.norm(K) + np.linalg.norm(R)
        assert np.linalg.norm(K_red - K) <= 1e-14 * size
        assert np.linalg.norm(R_red - R) <= 1e-14 * size

    @pytest.mark.parametrize("agents, snapshots, preset",
                             [(3, 8, "ring"), (4, 6, "complete")], ids=["ring3", "complete4"])
    def test_desk_round_count_matches_dense(self, agents, snapshots, preset):
        # the criterion-1 instance: 8,109 rounds to stop_tol 1e-10 on the dense
        # kernel; on the complete graph of 4 (11,272 rounds) fl(3 alpha) rounds,
        # and the integral block's columns still sum to exactly zero
        scn = GridScenario(grid_side=4, num_agents=agents, snapshots_per_agent=snapshots,
                           blob_count=6, drift=(1.0, 0.0), saturation_gain=1.0, seed=5,
                           burn_in=0)
        inst = build_instance(scn, preset)
        rep = spectral_report(inst.partition, inst.data, laplacian(inst.graph), 5.0, 2.0)
        gains = SolverGains(k_P=5.0, k_I=2.0, alpha=0.5 * rep.alpha_max, t_max=20000,
                            stop_tol=1e-10)
        init = initial_states(agents, inst.data.feature_dim)
        red = _Reduced(init, inst.graph, gains, inst.partition, inst.data)
        assert not red.P[agents:, :agents].sum(axis=0).any()
        _, trace = run(init, inst.graph, gains, inst.partition, inst.data)
        _, _, dense = dense_run(*_stacked(init), inst.graph, gains, inst.partition, inst.data)
        assert trace.converged
        assert trace.iterations == dense["kkt_residual"].size

    @pytest.mark.parametrize("case", ["zeros", "random K, n > N", "random R"])
    def test_inputs_not_written(self, case):
        # run and iterate_rounds read the agents' K_i and R_i in place, and the
        # sweep passes one start to every run
        if case == "zeros":
            inst = _desk_instance()
            data, part, graph = inst.data, inst.partition, inst.graph
            states = initial_states(3, 16)
        else:
            data, part, graph, _ = _structural_case(3, 12, [1, 2, 1], 3, 34)
            rng = np.random.default_rng(34)
            states = [AgentState(rng.uniform(-1.0, 1.0, (12, 12)),
                                 rng.uniform(-1.0, 1.0, (12, 12)) if case == "random R"
                                 else np.zeros((12, 12))) for _ in range(3)]
        before = [(s.K.tobytes(), s.R.tobytes()) for s in states]
        gains = SolverGains(k_P=2.0, k_I=1.0, alpha=0.01, t_max=40, stop_tol=0.0)
        if case != "random R":  # run needs R(0) = 0
            run(states, graph, gains, part, data, record_mean=True)
        iterate_rounds(states, graph, gains, part, data, 40)
        assert [(s.K.tobytes(), s.R.tobytes()) for s in states] == before


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
        states, trace = run(init, graph, gains, inst.partition, data)
        K, R = _stacked(init)
        guard = DIVERGENCE_GUARD * (1.0 + np.linalg.norm(data.Y) * np.linalg.norm(data.X)
                                    + np.linalg.norm(K, axis=(1, 2)).max())
        L, blocks = laplacian(graph), inst.partition.blocks(data)
        for t in range(1, gains.t_max + 1):
            K, R = dense_round(K, R, L, blocks, gains.k_P, gains.k_I, gains.alpha)
            if np.linalg.norm(K, axis=(1, 2)).max() > guard:
                break
        assert trace.diverged and not trace.converged
        assert trace.iterations == t == rounds
        assert np.all(np.isfinite(trace.kkt_residual))
        # the states returned are those that entered the round tripping the guard
        before = iterate_rounds(init, graph, gains, inst.partition, data, rounds - 1)
        for a, b in zip(states, before):
            assert np.array_equal(a.K, b.K) and np.array_equal(a.R, b.R)

    @pytest.mark.parametrize("init", ["zeros", "low-rank K", "random K"])
    def test_left_basis_when_n_exceeds_N(self, init):
        # n = 12 > N = 3: the columns of a zero start's K_i(t) lie in range(Y),
        # 3 dimensions; a nonzero start keeps the rows in range(X), b = r, and
        # takes plain columns, d = n, and 2p complement coefficients
        data, part, graph, r = _structural_case(2, 12, [1, 2], 3, 31)
        rng = np.random.default_rng(31)
        K0 = np.zeros((2, 12, 12))
        if init == "low-rank K":
            K0 = rng.standard_normal((2, 12, r)) @ range_svd(data.X).U.T
        elif init == "random K":
            K0 = rng.uniform(-1.0, 1.0, (2, 12, 12))
        alpha = 0.5 * spectral_report(part, data, laplacian(graph), 2.0, 1.0).alpha_max
        gains = SolverGains(k_P=2.0, k_I=1.0, alpha=alpha, t_max=100, stop_tol=0.0)
        states = [AgentState(K0[i], np.zeros((12, 12))) for i in range(2)]
        red = _Reduced(states, graph, gains, part, data)
        assert np.array_equal(red.B, range_svd(data.X).U) and red.G.shape == (2, r, r)
        if init == "zeros":
            assert red.H.shape == (12, 3) and red.Z0.shape == (2 * 2, r * 3)
        else:
            assert red.H is None and red.Z0.shape == (2 * 2, r * 12 + 2 * 2)
        assert red.Z0.flags.c_contiguous
        out, trace = run(states, graph, gains, part, data, record_mean=True)
        K, R, dense = dense_run(K0, np.zeros_like(K0), graph, gains, part, data)
        size = np.linalg.norm(K) + np.linalg.norm(R)
        assert np.linalg.norm(_stacked(out)[0] - K) <= 1e-12 * size
        assert np.linalg.norm(_stacked(out)[1] - R) <= 1e-12 * size
        hist_err = np.linalg.norm(_lifted(trace.mean_history, red) - dense["mean"],
                                  axis=(1, 2))
        assert hist_err.max() <= 1e-12 * np.linalg.norm(dense["mean"], axis=(1, 2)).max()
        s = np.linalg.norm(data.Y) + np.linalg.norm(K0) * np.linalg.norm(data.X)
        assert np.all(np.abs(trace.fit_metric - dense["fit_metric"]) <= 2e-14 * s)

    def test_no_left_basis_when_n_at_most_N(self):
        data, part, graph, _ = _structural_case(3, 4, [2, 1, 2], 4, 32)
        K0 = np.random.default_rng(32).standard_normal((3, 4, 4))
        red = _Reduced([AgentState(K, np.zeros((4, 4))) for K in K0], graph,
                       SolverGains(k_P=1.0, k_I=1.0, alpha=0.01), part, data)
        assert red.H is None and red.Phi is None and red.Z0.shape == (2 * 3, 4 * 4)

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
        # rounds on both sides of chunk boundaries; each recorded mean against
        # the mean of the states after that many rounds
        inst = _desk_instance()
        gains = SolverGains(k_P=5.0, k_I=2.0, alpha=0.01, t_max=100, stop_tol=0.0)
        init = initial_states(3, 16, "random", 3)
        _, trace = run(init, inst.graph, gains, inst.partition, inst.data,
                       record_mean=True)
        assert trace.mean_history.shape == (100, 16, 16)  # r = n: b = d = 16
        red = _Reduced(init, inst.graph, gains, inst.partition, inst.data)
        history = _lifted(trace.mean_history, red)
        for t in (1, 16, 17, 32, 33, 64, 65, 100):
            out = iterate_rounds(init, inst.graph, gains, inst.partition, inst.data, t)
            Kbar = _stacked(out)[0].mean(axis=0)
            assert np.linalg.norm(history[t - 1] - Kbar) <= 1e-13 * np.linalg.norm(Kbar)

    def test_complement_history_keeps_the_contraction(self):
        # r = 6 < n = 16 and a random start: the history holds the W blocks
        # alone, and the start's mean outside range(X) is constant, so the
        # tail contraction is that of the dense means
        inst = _desk_instance(snapshots=2)
        rep = spectral_report(inst.partition, inst.data, laplacian(inst.graph), 5.0, 2.0)
        gains = SolverGains(k_P=5.0, k_I=2.0, alpha=0.5 * rep.alpha_max, t_max=200,
                            stop_tol=0.0)
        init = initial_states(3, 16, "random", 1)
        states, trace = run(init, inst.graph, gains, inst.partition, inst.data,
                            record_mean=True)
        _, _, dense = dense_run(*_stacked(init), inst.graph, gains, inst.partition, inst.data)
        assert states.row_basis is None and trace.mean_history.shape == (200, rep.rank, 16)
        expected = tail_contraction(dense["mean"])
        assert abs(tail_contraction(trace.mean_history) - expected) <= 1e-10 * expected

    def test_round_operator_is_M_perp_transposed(self):
        # P = I + alpha M_perp^T, with M_perp = [[-k_P L, L], [-k_I I, 0]],
        # M's block on the complement of range(X)
        data, part, graph, _ = _structural_case(4, 5, [1, 1, 2, 1], 2, 33)
        L = laplacian(graph)
        red = _Reduced(Start(), graph, SolverGains(k_P=3.0, k_I=1.5, alpha=0.02), part, data)
        M_perp = np.block([[-3.0 * L, L], [-1.5 * np.eye(4), np.zeros((4, 4))]])
        assert np.array_equal(red.P, np.eye(8) + 0.02 * M_perp.T)


_SERIES = ("consensus_error", "objective_mean", "fit_metric", "kkt_residual",
           "integral_sum_norm")


def _series_free_matches(init, graph, gains, part, data):
    """Run with and without the series on the same inputs; the run with
    them is the oracle for everything ``series=False`` still returns."""
    states, full = run(init, graph, gains, part, data, record_mean=True)
    states_lean, lean = run(init, graph, gains, part, data, record_mean=True, series=False)
    assert all(getattr(lean, name) is None for name in _SERIES)
    assert ((lean.iterations, lean.converged, lean.diverged)
            == (full.iterations, full.converged, full.diverged))
    for a, b in zip(states_lean, states):
        assert np.array_equal(a.K, b.K) and np.array_equal(a.R, b.R)
    if full.mean_history is None:
        assert lean.mean_history is None
    else:
        assert np.array_equal(lean.mean_history, full.mean_history)
        assert _same(tail_contraction(full.mean_history), tail_contraction(full))
    assert np.array_equal(lean.mean_steps, full.mean_steps, equal_nan=True)
    assert _same(lean.mean_norm, full.mean_norm)
    return full


def _same(a: float, b: float) -> bool:
    """Equal floats, NaN included."""
    return a == b or (np.isnan(a) and np.isnan(b))


class TestSeriesFreeRun:
    """``run(series=False)`` skips the trace series but must stop, diverge
    and record the mean history bit for bit as the full run does."""

    def _gains(self, inst, theta, **kw):
        rep = spectral_report(inst.partition, inst.data, laplacian(inst.graph), 5.0, 2.0)
        return SolverGains(k_P=5.0, k_I=2.0, alpha=theta * rep.alpha_max, **kw)

    def test_zero_start_converges(self):
        inst = _desk_instance()
        gains = self._gains(inst, 0.5, t_max=20000, stop_tol=1e-8)
        init = initial_states(3, 16)
        full = _series_free_matches(init, inst.graph, gains, inst.partition, inst.data)
        assert full.converged and full.iterations % consensus._CHUNK_ROUNDS

    def test_random_start_without_stopping(self):
        inst = _desk_instance()
        gains = self._gains(inst, 0.9, t_max=300, stop_tol=0.0)
        init = initial_states(3, 16, "random", 4)
        full = _series_free_matches(init, inst.graph, gains, inst.partition, inst.data)
        assert full.iterations == 300 and not (full.converged or full.diverged)

    @pytest.mark.parametrize("stop_tol", [0.0, 1e-10])
    def test_divergence_inside_a_chunk(self, stop_tol):
        inst = _desk_instance()
        gains = self._gains(inst, 1.5, t_max=8000, stop_tol=stop_tol)
        init = initial_states(3, 16, "random", 7)
        full = _series_free_matches(init, inst.graph, gains, inst.partition, inst.data)
        assert full.diverged and full.iterations == 48

    def test_history_over_the_cap(self, monkeypatch):
        monkeypatch.setattr(consensus, "_HISTORY_BYTE_CAP", 100 * 16 * 16 * 8 - 1)
        inst = _desk_instance()
        gains = self._gains(inst, 0.5, t_max=100, stop_tol=0.0)
        init = initial_states(3, 16, "random", 3)
        full = _series_free_matches(init, inst.graph, gains, inst.partition, inst.data)
        assert full.mean_history is None and full.iterations == 100

    def test_unbounded_t_max_stops_early(self):
        # t_max rounds of series or history could not be reserved up front:
        # each chunk appends its block of the series, and the history is
        # over the cap
        inst = _desk_instance()
        gains = self._gains(inst, 0.5, t_max=10**15, stop_tol=1e-8)
        full = _series_free_matches(initial_states(3, 16), inst.graph, gains,
                                    inst.partition, inst.data)
        assert full.converged and full.mean_history is None
        for name in _SERIES:
            assert getattr(full, name).shape == (full.iterations,), name

    @pytest.mark.parametrize("stop_tol", [0.0, 1e-10])
    def test_all_zero_data(self, stop_tol):
        # X = 0: b = 0, so every state and diagnostic array is empty
        rng = np.random.default_rng(8)
        data = LiftedData(X=np.zeros((4, 6)), Y=rng.standard_normal((4, 6)))
        part, graph = partition_data(data, [2, 2, 2]), preset_graph("ring", 3)
        gains = SolverGains(k_P=1.0, k_I=1.0, alpha=0.05, t_max=40, stop_tol=stop_tol)
        full = _series_free_matches(initial_states(3, 4), graph, gains, part, data)
        assert full.mean_history.shape == (full.iterations, 0, 4)
        assert full.iterations == (40 if stop_tol == 0.0 else 1)


class TestStart:
    """``Start(mode, seed)`` stands for the agent states of ``initial_states``."""

    def test_unknown_mode(self):
        refused = "mode must be 'zeros' or 'random', got 'ones'"
        with pytest.raises(ValueError, match=refused):
            Start("ones")
        with pytest.raises(ValueError, match=refused):
            initial_states(2, 3, "ones")

    @pytest.mark.parametrize("mode, seed, snapshots", [("zeros", 0, 8), ("random", 1, 8),
                                                       ("random", 7, 2)],
                             ids=["zeros", "random, b = n", "random, b < n"])
    def test_same_run_as_initial_states(self, mode, seed, snapshots):
        inst = _desk_instance(snapshots)
        gains = SolverGains(k_P=5.0, k_I=2.0, alpha=0.01, t_max=70, stop_tol=0.0)
        args = (inst.graph, gains, inst.partition, inst.data)
        states, trace = run(Start(mode, seed), *args, record_mean=True)
        ref_states, ref = run(initial_states(3, 16, mode, seed), *args, record_mean=True)
        for name in _SERIES + ("mean_history",):
            assert np.array_equal(getattr(trace, name), getattr(ref, name)), name
        assert np.array_equal(states.row_basis, ref_states.row_basis)
        rounds = iterate_rounds(Start(mode, seed), *args, 70)
        ref_rounds = iterate_rounds(initial_states(3, 16, mode, seed), *args, 70)
        for out, expected in ((states, ref_states), (rounds, ref_rounds), (rounds, states)):
            for a, b in zip(out, expected, strict=True):
                assert np.array_equal(a.K, b.K) and np.array_equal(a.R, b.R)

    def test_zero_start_forms_no_state(self, monkeypatch):
        inst = _desk_instance()
        made = []
        monkeypatch.setattr(AgentState, "__post_init__", lambda s: made.append(s))
        gains = SolverGains(k_P=5.0, k_I=2.0, alpha=0.01, t_max=40, stop_tol=0.0)
        states, _ = run(Start(), inst.graph, gains, inst.partition, inst.data)
        states.mean()
        assert made == []
        states[0]
        assert len(made) == 1

    @pytest.mark.parametrize("mode", ["zeros", "random"])
    @pytest.mark.parametrize("seed", [-1, 1.5, "3", None, True])
    def test_seed_must_be_a_nonnegative_integer(self, mode, seed):
        # the integer rule of every config integer field, then the range
        match = ("^seed must be a nonnegative integer, got -1$" if seed == -1
                 else f"^seed must be an integer, got {seed!r}$")
        with pytest.raises(ValueError, match=match):
            Start(mode, seed)
        assert Start(mode, np.int64(3)).seed == 3

    def test_partition_must_match_graph(self):
        inst = _desk_instance()
        gains = SolverGains(k_P=5.0, k_I=2.0, alpha=0.01, t_max=4)
        with pytest.raises(ValueError, match="graph p=2"):
            iterate_rounds(Start(), preset_graph("ring", 2), gains, inst.partition,
                           inst.data, 4)


class TestReducedStates:
    """The states ``run`` returns, formed as they are read, and ``mean()``
    against the mean of the formed states, the oracle: within
    2e-15 max_i ||K_i||_F (worst 2.2e-16 over 200 draws of each case)."""

    @staticmethod
    def _mean_matches(states):
        formed = [s.K for s in states]
        scale = max(np.linalg.norm(K) for K in formed)
        assert np.linalg.norm(states.mean() - np.mean(formed, axis=0)) <= 2e-15 * scale

    @pytest.mark.parametrize("seed", range(5))
    def test_zero_start_left_basis(self, seed):
        # n = 12 > N = 4: d = N < n
        data, part, graph, _ = _structural_case(3, 12, [1, 2, 1], 3, seed)
        gains = SolverGains(k_P=2.0, k_I=1.0, alpha=0.01, t_max=200, stop_tol=0.0)
        states, _ = run(Start(), graph, gains, part, data)
        red = _Reduced(Start(), graph, gains, part, data)
        assert red.H is not None and red.d < 12
        self._mean_matches(states)

    def test_zero_start_full_rank(self):
        inst = _desk_instance()
        rep = spectral_report(inst.partition, inst.data, laplacian(inst.graph), 5.0, 2.0)
        gains = SolverGains(k_P=5.0, k_I=2.0, alpha=0.5 * rep.alpha_max, t_max=300,
                            stop_tol=0.0)
        assert rep.rank == 16  # b = n
        states, _ = run(Start(), inst.graph, gains, inst.partition, inst.data)
        self._mean_matches(states)

    @pytest.mark.parametrize("seed", range(5))
    def test_random_start_complement(self, seed):
        # r = 3 < n = 12: the start's rows outside range(X) ride along
        data, part, graph, _ = _structural_case(3, 12, [2, 2, 2], 3, seed)
        gains = SolverGains(k_P=2.0, k_I=1.0, alpha=0.01, t_max=200, stop_tol=0.0)
        states, _ = run(Start("random", seed), graph, gains, part, data)
        assert states.row_basis is None
        self._mean_matches(states)

    def test_diverged_run(self):
        inst = _desk_instance()
        rep = spectral_report(inst.partition, inst.data, laplacian(inst.graph), 5.0, 2.0)
        gains = SolverGains(k_P=5.0, k_I=2.0, alpha=3.0 * rep.alpha_max, t_max=8000,
                            stop_tol=0.0)
        states, trace = run(Start("random", 7), inst.graph, gains, inst.partition, inst.data)
        assert trace.diverged
        self._mean_matches(states)

    def test_sequence_protocol(self):
        inst = _desk_instance()
        gains = SolverGains(k_P=5.0, k_I=2.0, alpha=0.01, t_max=10, stop_tol=0.0)
        states = iterate_rounds(Start("random", 3), inst.graph, gains, inst.partition,
                                inst.data, 10)
        assert len(states) == 3 and len(list(states)) == 3
        assert np.array_equal(states[-1].K, states[2].K)
        assert [s.R.tobytes() for s in states[1:]] == [states[i].R.tobytes() for i in (1, 2)]
        for i in (3, -4):
            with pytest.raises(IndexError):
                states[i]


class TestTailContraction:
    @pytest.mark.parametrize("fraction", [0.0, -1.0, 2.0, float("nan"), float("inf")])
    @pytest.mark.parametrize("form", ["trace", "history"])
    def test_fraction_outside_the_unit_interval_refused(self, form, fraction):
        inst = _desk_instance()
        gains = SolverGains(k_P=5.0, k_I=2.0, alpha=0.01, t_max=50, stop_tol=0.0)
        _, trace = run(Start(), inst.graph, gains, inst.partition, inst.data,
                       record_mean=True)
        record = trace if form == "trace" else trace.mean_history
        with pytest.raises(ValueError, match="tail_fraction"):
            tail_contraction(record, fraction)

    def test_exact_geometric_sequence(self):
        rho = 0.9
        base = np.ones((2, 2))
        hist = [np.zeros((2, 2)) + rho**t * base for t in range(60)]
        hist.append(np.zeros((2, 2)))  # final value = limit
        assert tail_contraction(np.array(hist)) == pytest.approx(rho, abs=1e-9)

    def test_degenerate_history(self):
        assert np.isnan(tail_contraction(np.zeros((3, 2, 2))))

    def test_no_bias_from_the_final_point(self):
        # a geometric approach to a nonzero limit, cut off long before it:
        # the successive steps read the rate, and the distances to the last
        # point read it low
        rho, limit = 0.99, np.arange(4.0).reshape(1, 2, 2)
        hist = limit + rho ** np.arange(1, 201).reshape(-1, 1, 1) * np.ones((2, 2))
        assert tail_contraction(hist) == pytest.approx(rho, abs=1e-12)

    def test_steps_at_the_roundoff_floor_are_left_out(self):
        # the mean stops moving after round 40, then steps by a few ulps of
        # its norm: those steps are below 1e-13 of it and do not count
        hist = [np.full((1, 3), 1.0 + 0.5**t) for t in range(1, 41)]
        hist += [np.full((1, 3), 1.0 + 1e-16 * (t % 3)) for t in range(40)]
        hist = np.array(hist)
        assert tail_contraction(hist, tail_fraction=0.9) == pytest.approx(0.5, abs=1e-12)
        # a window that holds only the flat part has no rate; constant and
        # all-zero means step by exact zeros, which divide nothing
        for flat in (hist[40:], np.ones((20, 2, 2)), np.zeros((20, 2, 2))):
            assert np.isnan(tail_contraction(flat))

    def test_too_few_ratios(self):
        # two ratios, so three steps, are the fewest that give a rate: four
        # means hold them in the default window, three means or the window
        # of the last three do not
        hist = 0.5 ** np.arange(4.0).reshape(-1, 1, 1) * np.ones((4, 1, 1))
        assert np.isnan(tail_contraction(hist[:3]))
        assert tail_contraction(hist) == 0.5
        assert np.isnan(tail_contraction(hist, tail_fraction=0.3))

    @pytest.mark.parametrize("mode, seed, snapshots", [
        ("zeros", 0, 8), ("zeros", 0, 2), ("random", 1, 8), ("random", 7, 2)],
        ids=["zeros", "zeros, d < n", "random, b = n", "random, b < n"])
    def test_step_record_gives_the_bits_of_the_history(self, mode, seed, snapshots):
        # the steps each run records against those formed from its mean
        # history, across chunk boundaries, with and without the start's
        # complement coefficients
        inst = _desk_instance(snapshots)
        rep = spectral_report(inst.partition, inst.data, laplacian(inst.graph), 5.0, 2.0)
        gains = SolverGains(k_P=5.0, k_I=2.0, alpha=0.5 * rep.alpha_max, t_max=300,
                            stop_tol=0.0)
        states, trace = run(Start(mode, seed), inst.graph, gains, inst.partition,
                            inst.data, record_mean=True)
        assert (states.row_basis is None) == (mode == "random" and snapshots == 2)
        hist = trace.mean_history
        rows = hist.reshape(len(hist), -1)
        assert np.array_equal(trace.mean_steps, consensus._row_norms(rows[1:] - rows[:-1]))
        assert trace.mean_norm == consensus._row_norms(rows[-1:])[0]
        for fraction in (0.5, 0.2, 1.0):
            estimate = tail_contraction(trace, fraction)
            assert np.isfinite(estimate) and estimate == tail_contraction(hist, fraction)

    @pytest.mark.parametrize("theta", [0.3, 0.5, 0.9])
    def test_desk_rate_matches_rho_max(self, theta):
        # desk seed 5 run to convergence: the estimate lands within 5e-4 of
        # the predicted rate (the distances to the final mean missed it by
        # 9.2e-4, 1.4e-3 and 2.3e-3)
        cfg = load_config(Path(__file__).parents[1] / "configs" / "desk.json", seed=5)
        inst = build_instance(cfg.scenario, cfg.graph.preset, cfg.dictionary)
        base = cfg.solver_gains()
        rep = spectral_report(inst.partition, inst.data, laplacian(inst.graph),
                              base.k_P, base.k_I)
        alpha = theta * rep.alpha_max
        _, trace = run(cfg.init, inst.graph, manual_gains(base, alpha), inst.partition,
                       inst.data, series=False)
        assert trace.converged and trace.mean_history is None
        assert abs(tail_contraction(trace) - rep.rho_max(alpha)) <= 5e-4


class TestRankCutoff:
    """With a ``rank_tol`` that drops singular values, every reader of the
    data's rank reads one range(X), and the solver runs on B B^T X with
    B = ``data.range.U``.  The oracle is the dense update law on that data;
    on desk with rank_tol 0.698 (sigma_15 = 0.778 kept, sigma_16 = 0.6255
    cut) the states and series of 300 rounds agree to the 1e-12 bounds of
    TestReducedKernel.
    """

    @staticmethod
    def _cut_desk():
        inst = _desk_instance()
        data = LiftedData(inst.data.X, inst.data.Y, rank_tol=0.698)
        B = data.range.U
        return inst, data, LiftedData(B @ (B.T @ data.X), data.Y)

    def test_one_range_for_every_reader(self):
        inst, data, cut = self._cut_desk()
        assert data.range is data.range and data.range.rank == 15
        lap = laplacian(inst.graph)
        rep = spectral_report(inst.partition, data, lap, 5.0, 2.0)
        dense = eigenvalues(assemble_M_tilde(inst.partition, cut, lap, 5.0, 2.0))
        assert rep.rank == 15 and rep.n_zero_structural == 2 * 16 - 15
        assert rep.n_zero == dense.n_zero == rep.n_zero_structural
        assert rep.alpha_max == pytest.approx(compute_alpha_max(dense), rel=1e-10)
        gains = SolverGains(k_P=5.0, k_I=2.0, alpha=0.01)
        assert _Reduced(Start(), inst.graph, gains, inst.partition, data).B is data.range.U
        # K* = Y pinv_tol(X) is the least-squares operator of the cut data
        K_star = centralized_solve(data).K
        assert np.linalg.norm(K_star - centralized_solve(cut).K) <= 1e-12 * np.linalg.norm(K_star)
        assert np.array_equal(K_star, centralized_solve(inst.data, 0.698).K)

    @pytest.mark.parametrize("mode", ["zeros", "random"])
    def test_run_is_the_dense_law_on_the_cut_data(self, mode):
        inst, data, cut = self._cut_desk()
        alpha = 0.5 * spectral_report(inst.partition, data, laplacian(inst.graph),
                                      5.0, 2.0).alpha_max
        gains = SolverGains(k_P=5.0, k_I=2.0, alpha=alpha, t_max=300, stop_tol=0.0)
        states, trace = run(Start(mode, 4), inst.graph, gains, inst.partition, data)
        K0, R0 = _stacked(initial_states(3, 16, mode, 4))
        K, R, dense = dense_run(K0, R0, inst.graph, gains, inst.partition, cut)
        size = np.linalg.norm(K) + np.linalg.norm(R)
        K_red, R_red = _stacked(states)
        assert np.linalg.norm(K_red - K) <= 1e-12 * size
        assert np.linalg.norm(R_red - R) <= 1e-12 * size
        y, x = np.linalg.norm(cut.Y), np.linalg.norm(cut.X)
        s, scale = y + np.linalg.norm(K0) * x, 1.0 + y * x + np.linalg.norm(K0)
        for name, atol in (("fit_metric", 2e-14 * s), ("objective_mean", 1e-14 * s * s),
                           ("consensus_error", 1e-12 * scale),
                           ("kkt_residual", 1e-12 * scale),
                           ("integral_sum_norm", 1e-12 * scale)):
            assert np.all(np.abs(getattr(trace, name) - dense[name]) <= atol), name
