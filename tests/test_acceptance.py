"""End-to-end acceptance criteria, one test per criterion.

Run with `pytest tests/test_acceptance.py -v`; a per-criterion PASS/FAIL
summary is printed at the end of the session (see conftest.py).
"""

import numpy as np
import pytest

from dkoopman.consensus import (SolverGains, assemble_M, assemble_M_tilde,
                                initial_states, manual_gains, partition_data, run,
                                semi_hurwitz_check, spectral_report, step,
                                tail_contraction)
from dkoopman.edmd import KoopmanModel, LiftedData, centralized_solve, objective
from dkoopman.graphs import laplacian, preset_graph
from dkoopman.linalg import Spectrum, eigenvalues, spectrum_distance
from dkoopman.scenario import GridScenario, build_instance, make_experiment

from test_consensus import worked_instance
from test_graphs import random_graph

DESK_GAINS = dict(k_P=5.0, k_I=2.0)

DESK_SCENARIO = GridScenario(grid_side=4, num_agents=3, snapshots_per_agent=8,
                             blob_count=6, drift=(1.0, 0.0), diffusion=0.0,
                             saturation_gain=1.0, seed=5, burn_in=0)


@pytest.fixture(scope="module")
def criterion1_setup():
    """n=16, N=24, p=3 ring, k_P=5, k_I=2, alpha=0.5*alpha_max, zeros init."""
    inst = build_instance(DESK_SCENARIO, "ring")
    lap = laplacian(inst.graph)
    report = spectral_report(inst.partition, inst.data, lap, **DESK_GAINS)
    alpha = 0.5 * report.alpha_max
    gains = SolverGains(**DESK_GAINS, alpha=alpha, t_max=20000, stop_tol=1e-10)
    init = initial_states(inst.graph.p, inst.data.feature_dim)
    states, trace = run(init, inst.graph, gains, inst.partition, inst.data,
                        record_mean=True)
    k_star = centralized_solve(inst.data)
    return dict(inst=inst, report=report, alpha=alpha, gains=gains,
                states=states, trace=trace, k_star=k_star)


@pytest.fixture(scope="module")
def criterion2_setup():
    """Rank-deficient regime: g=4 (n=16), N=6, p=3."""
    scn = GridScenario(grid_side=4, num_agents=3, snapshots_per_agent=2,
                       blob_count=6, drift=(1.0, 0.0), diffusion=0.0,
                       saturation_gain=1.0, seed=5, burn_in=0)
    inst = build_instance(scn, "ring")
    lap = laplacian(inst.graph)
    report = spectral_report(inst.partition, inst.data, lap, **DESK_GAINS)
    gains = SolverGains(**DESK_GAINS, alpha=0.5 * report.alpha_max,
                        t_max=20000, stop_tol=1e-10)
    init = initial_states(inst.graph.p, inst.data.feature_dim)
    states, trace = run(init, inst.graph, gains, inst.partition, inst.data)
    return dict(inst=inst, states=states, trace=trace,
                k_star=centralized_solve(inst.data))


@pytest.mark.acceptance("1")
def test_criterion_1_centralized_oracle_equivalence(criterion1_setup):
    c = criterion1_setup
    assert c["trace"].converged and not c["trace"].diverged
    assert c["trace"].iterations <= 20000
    k_star = c["k_star"].K
    rel = max(np.linalg.norm(s.K - k_star) / np.linalg.norm(k_star)
              for s in c["states"])
    assert rel <= 1e-7


@pytest.mark.acceptance("2")
def test_criterion_2_rank_deficient_regime(criterion2_setup):
    c = criterion2_setup
    assert c["trace"].converged
    data = c["inst"].data
    obj_star = objective(c["k_star"], data)
    for s in c["states"]:
        gap = objective(KoopmanModel(s.K), data) - obj_star
        assert gap <= 1e-9 * (1.0 + obj_star)
    assert c["trace"].kkt_residual[-1] <= 1e-8


@pytest.mark.acceptance("3")
def test_criterion_3_spectrum_equality():
    rng = np.random.default_rng(2024)
    for _ in range(50):
        p = int(rng.integers(2, 6))
        n = int(rng.integers(1, 5))
        widths = [int(rng.integers(1, 4)) for _ in range(p)]
        data = LiftedData(X=rng.standard_normal((n, sum(widths))),
                          Y=rng.standard_normal((n, sum(widths))))
        part = partition_data(data, widths)
        lap = laplacian(random_graph(rng, p, connected=True))
        k_P, k_I = rng.uniform(0.1, 10.0, size=2)
        eig_m = eigenvalues(assemble_M(part, data, lap, k_P, k_I)).eigenvalues
        eig_t = eigenvalues(assemble_M_tilde(part, data, lap, k_P, k_I)).eigenvalues
        scale = max(1.0, float(np.abs(eig_m).max()))
        assert spectrum_distance(eig_m, eig_t) <= 1e-6 * scale


@pytest.mark.acceptance("4")
def test_criterion_4_worked_spectral_instance():
    data, part, graph = worked_instance()
    lap = laplacian(graph)
    report = spectral_report(part, data, lap, k_P=1.0, k_I=1.0)
    assert spectrum_distance(report.spectrum_M.eigenvalues,
                             [0.0, -1.0, -1.0, -2.0]) <= 1e-9
    assert abs(report.alpha_max - 1.0) <= 1e-9
    assert abs(report.rho_max(0.5) - 0.5) <= 1e-9


@pytest.mark.acceptance("5")
def test_criterion_5_exponential_rate(criterion1_setup):
    c = criterion1_setup
    rho_max = c["report"].rho_max(c["alpha"])
    contraction = tail_contraction(c["trace"].mean_history, tail_fraction=0.5)
    assert np.isfinite(contraction)
    assert contraction <= rho_max + 0.02


@pytest.mark.acceptance("6")
def test_criterion_6_semi_hurwitz():
    rng = np.random.default_rng(99)
    for _ in range(100):
        p = int(rng.integers(2, 6))
        n = int(rng.integers(1, 5))
        # full-row-rank draws: N >= n keeps the kernel of M non-defective,
        # so its computed spectrum is reliable near zero
        widths = [int(rng.integers(2, 4)) for _ in range(p)]
        data = LiftedData(X=rng.standard_normal((n, sum(widths))),
                          Y=rng.standard_normal((n, sum(widths))))
        part = partition_data(data, widths)
        lap = laplacian(random_graph(rng, p, connected=True))
        k_P, k_I = rng.uniform(0.1, 10.0, size=2)
        M = assemble_M(part, data, lap, k_P, k_I)
        spec = eigenvalues(M)  # zero_tol defaults to 1e-9 * ||M||_F
        assert semi_hurwitz_check(spec)


@pytest.mark.acceptance("7")
def test_criterion_7_integral_conservation(criterion1_setup, criterion2_setup):
    for c in (criterion1_setup, criterion2_setup):
        trace = c["trace"]
        assert trace.converged
        data = c["inst"].data
        scale = np.linalg.norm(data.Y) * np.linalg.norm(data.X)
        bound = 1e-12 * np.arange(1, trace.iterations + 1) * scale
        assert np.all(trace.integral_sum_norm <= bound)


@pytest.mark.acceptance("8")
def test_criterion_8_step_size_boundary(criterion1_setup):
    c = criterion1_setup
    inst = c["inst"]
    base = c["gains"]
    alpha_max = c["report"].alpha_max
    obj_star = objective(c["k_star"], inst.data)
    for theta in (0.3, 0.5, 0.9):
        init = initial_states(inst.graph.p, inst.data.feature_dim)
        states, trace = run(init, inst.graph, manual_gains(base, theta * alpha_max),
                            inst.partition, inst.data)
        assert trace.converged and not trace.diverged, f"theta={theta}"
        k_bar = KoopmanModel(np.mean([s.K for s in states], axis=0))
        assert objective(k_bar, inst.data) - obj_star <= 1e-9 * (1.0 + obj_star)
    init = initial_states(inst.graph.p, inst.data.feature_dim, "random", seed=7)
    _, trace = run(init, inst.graph, manual_gains(base, 3.0 * alpha_max),
                   inst.partition, inst.data)
    assert trace.diverged and not trace.converged


@pytest.mark.acceptance("9")
def test_criterion_9_single_agent_reduction():
    rng = np.random.default_rng(31)
    data = LiftedData(X=rng.standard_normal((4, 10)),
                      Y=rng.standard_normal((4, 10)))
    part = partition_data(data, [10])
    graph = preset_graph("ring", 1)
    lap = laplacian(graph)
    report = spectral_report(part, data, lap, **DESK_GAINS)
    alpha = 0.5 * report.alpha_max
    gains = SolverGains(**DESK_GAINS, alpha=alpha)
    states = initial_states(1, 4)
    K_closed = np.zeros((4, 4))
    A = np.eye(4) - alpha * (data.X @ data.X.T)
    B = alpha * (data.Y @ data.X.T)
    for _ in range(100):
        states = step(states, graph, gains, part, data)
        K_closed = K_closed @ A + B
        err = np.linalg.norm(states[0].K - K_closed)
        assert err <= 1e-12 * (1.0 + np.linalg.norm(K_closed))
        assert np.all(states[0].R == 0.0)


@pytest.mark.acceptance("10")
def test_criterion_10_paper_scale_qualitative():
    scn = GridScenario()  # 20x20 grid, p=3, m_i=3
    gains = SolverGains(k_P=150.0, k_I=75.0, alpha_fraction=0.5,
                        t_max=1000, stop_tol=0.0)
    report = make_experiment(scn, gains, graph_preset="ring", rollout_steps=10)
    trace = report.trace
    assert trace.iterations == 1000 and not trace.diverged
    assert report.alpha_max > 0.0
    assert report.rho_max is not None and report.rho_max < 1.0

    fit = trace.fit_metric
    noise = 1e-12 * (1.0 + fit[0])
    assert np.all(np.diff(fit[50:]) <= noise), "fit trace not non-increasing"
    denom = max(fit[899], noise)
    assert abs(fit[999] - fit[899]) / denom < 1e-3, "fit trace has not plateaued"
