"""Seeded grid scenario: a nonlinear intensity-map process observed in turns.

The data source is synthetic. A seeded set of Gaussian blobs paints the
initial g x g frame; every later frame applies the same deterministic map:
bilinear periodic advection by a constant drift, one explicit diffusion
step, and a logistic saturation (a convex blend between the identity and
the full logistic map 4u(1-u), weighted by ``saturation_gain``), clipped
to [0, 1]. The map is genuinely nonlinear for any positive gain, keeps
all intensities inside [0, 1] exactly, and for strong gains mixes enough
that a short trajectory excites every grid mode, which keeps the lifted
data well conditioned. Agents observe the sequence in turns: agent i
holds the i-th contiguous block of transitions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .consensus import (AgentState, Partition, RunTrace, SolverGains, SpectralReport,
                        StepSizeError, initial_states, manual_gains, partition_data,
                        run, spectral_report)
from .edmd import (Dictionary, KoopmanModel, LiftedData, SnapshotSequence,
                   centralized_solve, lift, parse_dictionary, rollout)
from .graphs import DisconnectedGraphError, Graph, is_connected, laplacian, preset_graph
from .linalg import eigenvalues


@dataclass(frozen=True)
class GridScenario:
    """Parameters of the grid process and of the agents observing it."""

    grid_side: int = 20
    num_agents: int = 3
    snapshots_per_agent: int = 3
    blob_count: int = 3
    drift: tuple[float, float] = (0.0, 0.0)
    diffusion: float = 0.0
    saturation_gain: float = 0.945
    seed: int = 7
    burn_in: int = 300

    def __post_init__(self):
        object.__setattr__(self, "drift", tuple(float(v) for v in self.drift))
        if self.grid_side < 2:
            raise ValueError("grid_side must be at least 2")
        if self.num_agents < 1 or self.snapshots_per_agent < 1:
            raise ValueError("need at least one agent and one snapshot per agent")
        if self.blob_count < 0:
            raise ValueError("blob_count must be nonnegative")
        if not 0.0 <= self.diffusion <= 0.25:
            raise ValueError("diffusion must lie in [0, 0.25] "
                             "(explicit step stays a convex combination)")
        if not 0.0 <= self.saturation_gain <= 1.0:
            raise ValueError("saturation_gain must lie in [0, 1] "
                             "(logistic blend keeps [0, 1] invariant)")
        if len(self.drift) != 2 or not all(np.isfinite(self.drift)):
            raise ValueError("drift must be a finite (vx, vy) pair")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if self.burn_in < 0:
            raise ValueError("burn_in must be nonnegative")

    @property
    def num_samples(self) -> int:
        """Total transitions N = p * m_i."""
        return self.num_agents * self.snapshots_per_agent

    @property
    def feature_dim(self) -> int:
        """Vectorized frame size g^2."""
        return self.grid_side * self.grid_side


def initial_frame(scn: GridScenario) -> np.ndarray:
    """Seeded sum of Gaussian blobs with wrapped distances, scaled into [0, 1]."""
    g = scn.grid_side
    rng = np.random.default_rng(scn.seed)
    field = np.zeros((g, g))
    rows, cols = np.meshgrid(np.arange(g), np.arange(g), indexing="ij")
    for _ in range(scn.blob_count):
        cx, cy = rng.uniform(0.0, g, size=2)
        sigma = rng.uniform(g / 8.0, g / 4.0)
        amp = rng.uniform(0.5, 1.0)
        dx = np.abs(rows - cx)
        dy = np.abs(cols - cy)
        dx = np.minimum(dx, g - dx)
        dy = np.minimum(dy, g - dy)
        field += amp * np.exp(-(dx**2 + dy**2) / (2.0 * sigma**2))
    peak = field.max()
    if peak > 0:
        field = field / peak
    return np.clip(field, 0.0, 1.0)


def _advect(u: np.ndarray, vx: float, vy: float) -> np.ndarray:
    # bilinear periodic shift of the field by (+vx, +vy)
    ix, iy = int(np.floor(vx)), int(np.floor(vy))
    fx, fy = vx - ix, vy - iy

    # a term of weight 0 (an integer drift component) adds exact zeros to
    # the finite values, so skipping it leaves the sum bit-identical
    out = None
    for w, a, b in (((1 - fx) * (1 - fy), ix, iy), (fx * (1 - fy), ix + 1, iy),
                    ((1 - fx) * fy, ix, iy + 1), (fx * fy, ix + 1, iy + 1)):
        if w != 0.0:
            term = w * np.roll(u, (a, b), axis=(0, 1))
            out = term if out is None else out + term
    return out


def _diffuse(u: np.ndarray, d: float) -> np.ndarray:
    if d == 0.0:
        return u
    lap = (np.roll(u, 1, 0) + np.roll(u, -1, 0)
           + np.roll(u, 1, 1) + np.roll(u, -1, 1) - 4.0 * u)
    return u + d * lap


def _saturate(u: np.ndarray, gain: float) -> np.ndarray:
    # blend toward the full logistic map; [0, 1] is exactly invariant for
    # gain in [0, 1] and gain 0 is the identity
    if gain == 0.0:
        return u
    return (1.0 - gain) * u + gain * 4.0 * u * (1.0 - u)


def advance(frame, scn: GridScenario) -> np.ndarray:
    """The frame-to-frame map: advect, diffuse, saturate, clip to [0, 1]."""
    u = np.asarray(frame, dtype=float)
    if u.ndim != 2:
        raise ValueError(f"frame must be 2-D, got shape {u.shape}")
    u = _advect(u, *scn.drift)
    u = _diffuse(u, scn.diffusion)
    u = _saturate(u, scn.saturation_gain)
    return np.clip(u, 0.0, 1.0)


def simulate_frames(scn: GridScenario, count: int) -> np.ndarray:
    """(count, g, g) trajectory of the map, after discarding ``burn_in`` steps.

    The burn-in lets the process settle onto its attractor before the
    agents start observing (the paper-scale default parameters sit in the
    logistic period-3 window, where the settled frames repeat with period
    three and the agents' blocks coincide).
    """
    if count < 1:
        raise ValueError("count must be positive")
    g = scn.grid_side
    frame = initial_frame(scn)
    for _ in range(scn.burn_in):
        frame = advance(frame, scn)
    out = np.empty((count, g, g))
    out[0] = frame
    for k in range(1, count):
        out[k] = advance(out[k - 1], scn)
    return out


def generate(scn: GridScenario) -> SnapshotSequence:
    """N+1 flattened frames (states in R^{g^2}), deterministic given the seed."""
    frames = simulate_frames(scn, scn.num_samples + 1)
    return SnapshotSequence(frames.reshape(frames.shape[0], -1))


def sequential_widths(N: int, p: int) -> tuple[int, ...]:
    """Near-equal contiguous widths; earlier agents absorb the remainder."""
    if p < 1:
        raise ValueError("need at least one agent")
    if N < p:
        raise ValueError(f"cannot split {N} columns among {p} agents")
    base, rem = divmod(N, p)
    return tuple(base + 1 if i < rem else base for i in range(p))


@dataclass(frozen=True, eq=False)
class Instance:
    """A fully assembled problem instance: data, partition, and topology."""

    scenario: GridScenario
    frames: np.ndarray
    dictionary: Dictionary
    data: LiftedData
    partition: Partition
    graph: Graph


def build_instance(scn: GridScenario, graph_preset: str | Graph = "ring",
                   dictionary_spec: str = "vectorization",
                   extra_frames: int = 0) -> Instance:
    """Generate frames, lift them, partition the columns, build the topology.

    ``graph_preset`` is a preset name or a prebuilt :class:`Graph` on
    exactly ``scn.num_agents`` vertices.
    """
    N = scn.num_samples
    frames = simulate_frames(scn, N + 1 + extra_frames)
    seq = SnapshotSequence(frames[:N + 1].reshape(N + 1, -1))
    dictionary = parse_dictionary(dictionary_spec, q=scn.feature_dim, seed=scn.seed)
    data = lift(seq, dictionary)
    part = partition_data(data, sequential_widths(N, scn.num_agents))
    if isinstance(graph_preset, Graph):
        graph = graph_preset
        if graph.p != scn.num_agents:
            raise ValueError(f"graph has {graph.p} vertices, scenario has "
                             f"{scn.num_agents} agents")
    else:
        graph = preset_graph(graph_preset, scn.num_agents)
    if not is_connected(graph):
        raise DisconnectedGraphError(
            f"communication graph on {scn.num_agents} agents is not connected")
    return Instance(scn, frames, dictionary, data, part, graph)


@dataclass(eq=False)
class ExperimentReport:
    """Figure-ready datasets from one distributed-vs-centralized experiment."""

    K_star: KoopmanModel
    K_ave: KoopmanModel
    spectrum_K_star: np.ndarray
    spectrum_K_ave: np.ndarray
    diff_matrix: np.ndarray
    trace: RunTrace
    rollout_error: np.ndarray
    spectral: SpectralReport
    alpha: float
    alpha_max: float
    rho_max: float | None
    kkt_final: float
    states: list[AgentState]
    instance: Instance


def make_experiment(scn: GridScenario, gains: SolverGains, graph_preset: str = "ring",
                    rollout_steps: int = 10, rollout_start: str = "last_train",
                    dictionary_spec: str = "vectorization",
                    init_mode: str = "zeros", init_seed: int = 0,
                    record_mean: bool = False,
                    rank_tol: float | None = None) -> ExperimentReport:
    """Run the full pipeline and assemble all figure datasets.

    Generates the scenario, lifts and partitions the data, computes the
    spectral report and the centralized solution, runs the distributed
    solver, and evaluates the spectral comparison, the elementwise
    difference |K_ave - K*|, the fit-metric trace, and the multi-step
    prediction error of K_ave against the generated ground truth.
    """
    if rollout_start not in ("last_train", "first_train"):
        raise ValueError(f"rollout_start must be 'last_train' or 'first_train', "
                         f"got {rollout_start!r}")
    if rollout_steps < 1:
        raise ValueError("rollout_steps must be positive")

    inst = build_instance(scn, graph_preset, dictionary_spec,
                          extra_frames=rollout_steps)
    lap = laplacian(inst.graph)
    spectral = spectral_report(inst.partition, inst.data, lap, gains.k_P, gains.k_I)
    if gains.alpha is not None:
        alpha = gains.alpha
    else:
        alpha = gains.alpha_fraction * spectral.alpha_max
    try:
        rho_max = spectral.rho_max(alpha)
    except StepSizeError:
        rho_max = None

    init = initial_states(inst.graph.p, inst.data.feature_dim, init_mode, init_seed)
    states, trace = run(init, inst.graph, manual_gains(gains, alpha),
                        inst.partition, inst.data, record_mean=record_mean)

    K_star = centralized_solve(inst.data, rank_tol)
    K_ave = KoopmanModel(np.mean([s.K for s in states], axis=0))

    N = scn.num_samples
    if rollout_start == "last_train":
        z0, base = inst.data.Y[:, -1], N
    else:
        z0, base = inst.data.X[:, 0], 0
    predicted = rollout(K_ave, z0, rollout_steps)
    truth = np.stack([inst.dictionary.lift_state(inst.frames[base + s].ravel())
                      for s in range(1, rollout_steps + 1)])
    rollout_error = np.abs(predicted[1:] - truth)

    return ExperimentReport(
        K_star=K_star,
        K_ave=K_ave,
        spectrum_K_star=eigenvalues(K_star.K).eigenvalues,
        spectrum_K_ave=eigenvalues(K_ave.K).eigenvalues,
        diff_matrix=np.abs(K_ave.K - K_star.K),
        trace=trace,
        rollout_error=rollout_error,
        spectral=spectral,
        alpha=alpha,
        alpha_max=spectral.alpha_max,
        rho_max=rho_max,
        kkt_final=float(trace.kkt_residual[-1]),
        states=states,
        instance=inst,
    )
