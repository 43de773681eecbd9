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
from typing import Literal

import numpy as np

from .consensus import (Partition, RunTrace, SolverGains, SpectralReport, Start,
                        manual_gains, partition_data, run, spectral_report)
from .edmd import (Dictionary, KoopmanModel, LiftedData, SnapshotSequence,
                   centralized_solve, lift, parse_dictionary, rollout)
from .graphs import (DisconnectedGraphError, Graph, GraphError, is_connected, laplacian,
                     preset_graph)
from .linalg import Uniform, eigenvalues, require_integer


@dataclass(frozen=True)
class GridScenario:
    """Parameters of the grid process and of the agents observing it; each
    error message starts with the name of the offending field."""

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
        for name in ("grid_side", "num_agents", "snapshots_per_agent", "blob_count",
                     "seed", "burn_in"):
            require_integer(name, getattr(self, name))
        if self.grid_side < 2:
            raise ValueError("grid_side must be at least 2")
        if self.num_agents < 1:
            raise ValueError("num_agents must be at least 1")
        if self.snapshots_per_agent < 1:
            raise ValueError("snapshots_per_agent must be at least 1")
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
    """Seeded sum of Gaussian blobs with wrapped distances, scaled into [0, 1].

    The blobs' centers, widths and amplitudes come from one draw of
    :class:`~dkoopman.linalg.Uniform` of the scenario seed, a (blob_count, 4)
    array of uniforms on [0, 1) (those of
    ``numpy.random.default_rng(seed).uniform``, bit for bit, without
    importing ``numpy.random``), whose row k gives blob k's center
    (g u0, g u1), width g/8 + g/8 u2 and amplitude 0.5 + 0.5 u3.
    """
    g = scn.grid_side
    field = np.zeros((g, g))
    rows, cols = np.meshgrid(np.arange(g), np.arange(g), indexing="ij")
    # per blob, numpy's low + (high - low) u of uniform(0, g, 2),
    # uniform(g/8, g/4) and uniform(0.5, 1), drawn in that order (g/4 - g/8
    # is g/8 exactly)
    for u0, u1, u2, u3 in Uniform(scn.seed).uniform(size=(scn.blob_count, 4)).tolist():
        cx, cy, sigma, amp = g * u0, g * u1, g / 8.0 + g / 8.0 * u2, 0.5 + 0.5 * u3
        dx = np.abs(rows - cx)
        dy = np.abs(cols - cy)
        dx = np.minimum(dx, g - dx)
        dy = np.minimum(dy, g - dy)
        field += amp * np.exp(-(dx**2 + dy**2) / (2.0 * sigma**2))
    peak = field.max()
    if peak > 0:
        field = field / peak
    return np.clip(field, 0.0, 1.0)


def _advection_plan(vx: float, vy: float, shape) -> tuple:
    """The bilinear periodic shift of a frame of ``shape`` by (+vx, +vy) as
    its (weight, roll) terms, worked out once for a fixed drift.

    A term of weight 0 (an integer drift component) adds exact zeros to the
    finite values, so leaving it out keeps the sum bit-identical; so do a
    roll of None for a shift by a whole period and, in :func:`_shift`, no
    multiply for a weight of 1.0 (1.0 * x == x, -0.0 included).
    """
    ix, iy = int(np.floor(vx)), int(np.floor(vy))
    fx, fy = vx - ix, vy - iy
    return tuple((w, None if a % shape[0] == b % shape[1] == 0 else (a, b))
                 for w, a, b in (((1 - fx) * (1 - fy), ix, iy), (fx * (1 - fy), ix + 1, iy),
                                 ((1 - fx) * fy, ix, iy + 1), (fx * fy, ix + 1, iy + 1))
                 if w != 0.0)


def _shift(u: np.ndarray, plan: tuple) -> np.ndarray:
    """The sum of an :func:`_advection_plan`'s terms on frame u; at zero
    drift, the frame itself."""
    out = None
    for w, roll in plan:
        term = u if roll is None else np.roll(u, roll, (0, 1))
        if w != 1.0:
            term = w * term
        out = term if out is None else out + term
    return out


def _diffuse(u: np.ndarray, d: float) -> np.ndarray:
    if d == 0.0:
        return u
    lap = (np.roll(u, 1, 0) + np.roll(u, -1, 0)
           + np.roll(u, 1, 1) + np.roll(u, -1, 1) - 4.0 * u)
    return u + d * lap


def _step(u: np.ndarray, scn: GridScenario, plan: tuple, out: np.ndarray,
          tmp: np.ndarray) -> None:
    """One step of the map from frame u into ``out``: advect by ``plan`` (the
    :func:`_advection_plan` of ``scn.drift``), diffuse, then the logistic
    saturation and the clip to [0, 1] in place, with ``tmp`` (2, g, g) for
    their temporaries; u must not share memory with them."""
    v = _diffuse(_shift(u, plan), scn.diffusion)
    gain = scn.saturation_gain
    # the blend (1 - gain) u + gain * 4 u (1 - u) toward the full logistic
    # map; [0, 1] is exactly invariant for gain in [0, 1], and gain 0 is the
    # identity.  The ufuncs run in the order of that expression, so the
    # bits are those of evaluating it into fresh arrays.
    if gain == 0.0:
        np.copyto(out, v)
    else:
        logistic, one_minus = tmp
        np.multiply(1.0 - gain, v, out=out)
        np.multiply(gain * 4.0, v, out=logistic)
        np.subtract(1.0, v, out=one_minus)
        logistic *= one_minus
        out += logistic
    # np.clip's bits for every value but -0.0, which the map never makes:
    # the frames start at or above +0.0, and an exact cancellation rounds
    # to +0.0
    np.maximum(out, 0.0, out=out)
    np.minimum(out, 1.0, out=out)


def simulate_frames(scn: GridScenario, count: int) -> np.ndarray:
    """(count, g, g) trajectory of the map, after discarding ``burn_in`` steps.

    The burn-in lets the process settle onto its attractor before the
    agents start observing (the paper-scale default parameters sit in the
    logistic period-3 window, where the settled frames repeat with period
    three and the agents' blocks coincide).  Each step writes into a
    preallocated frame, with the bits of evaluating the map into fresh arrays.
    """
    if count < 1:
        raise ValueError("count must be positive")
    g = scn.grid_side
    frame = initial_frame(scn)
    plan = _advection_plan(*scn.drift, (g, g))
    burn, tmp = np.empty((2, g, g)), np.empty((2, g, g))
    for k in range(scn.burn_in):  # alternate between two frames
        _step(frame, scn, plan, burn[k % 2], tmp)
        frame = burn[k % 2]
    out = np.empty((count, g, g))
    out[0] = frame
    for k in range(1, count):
        _step(out[k - 1], scn, plan, out[k], tmp)
    return out


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

    frames: np.ndarray
    dictionary: Dictionary
    data: LiftedData
    partition: Partition
    graph: Graph


def build_instance(scn: GridScenario, graph_preset: str | Graph = "ring",
                   dictionary_spec: str = "vectorization",
                   extra_frames: int = 0, rank_tol: float | None = None) -> Instance:
    """Build the topology, then generate frames, lift them, partition the columns.

    ``graph_preset`` is a preset name or a prebuilt :class:`Graph` on
    exactly ``scn.num_agents`` vertices; the lifted data carries the rank
    cutoff ``rank_tol``.
    """
    if isinstance(graph_preset, Graph):
        graph = graph_preset
        if graph.p != scn.num_agents:
            raise GraphError(f"graph has {graph.p} vertices, scenario has "
                             f"{scn.num_agents} agents")
    else:
        graph = preset_graph(graph_preset, scn.num_agents)
    if not is_connected(graph):
        raise DisconnectedGraphError(
            f"communication graph on {scn.num_agents} agents is not connected")
    N = scn.num_samples
    frames = simulate_frames(scn, N + 1 + extra_frames)
    seq = SnapshotSequence(frames[:N + 1].reshape(N + 1, -1))
    dictionary = parse_dictionary(dictionary_spec, q=scn.feature_dim, seed=scn.seed)
    data = lift(seq, dictionary, rank_tol)
    part = partition_data(data, sequential_widths(N, scn.num_agents))
    return Instance(frames, dictionary, data, part, graph)


@dataclass(eq=False)
class ExperimentReport:
    """Figure-ready datasets from one distributed-vs-centralized experiment."""

    K_star: KoopmanModel
    K_ave: KoopmanModel
    spectrum_K_star: np.ndarray
    spectrum_K_ave: np.ndarray
    trace: RunTrace
    rollout_error: np.ndarray
    spectral: SpectralReport
    alpha: float

    @property
    def diff_matrix(self) -> np.ndarray:
        """The elementwise difference |K_ave - K*|."""
        return np.abs(self.K_ave.K - self.K_star.K)

    @property
    def alpha_max(self) -> float:
        return self.spectral.alpha_max

    @property
    def rho_max(self) -> float | None:
        """The contraction bound at ``alpha``; None where it is not below alpha_max."""
        return self.spectral.rho_max(self.alpha)


def _operator_spectrum(K: np.ndarray, basis: np.ndarray | None) -> np.ndarray:
    """Eigenvalues of an n x n operator whose rows lie in range(``basis``).

    With B = ``basis`` orthonormal (n x b) and K = K B B^T, the spectrum of
    K is that of the b x b core B^T K B (the projected operator of exact
    DMD) plus n - b exact zeros.  Without a basis, or with b == n, the core
    is K itself, so the result is the dense ``eigenvalues(K)``.
    """
    if basis is None or basis.shape[1] == K.shape[0]:
        return eigenvalues(K).eigenvalues
    n, b = basis.shape
    core = basis.T @ K @ basis
    return np.concatenate([eigenvalues(core).eigenvalues, np.zeros(n - b, dtype=complex)])


@dataclass(frozen=True)
class Rollout:
    """The prediction check: ``steps`` frames on from the last (``last_train``)
    or the first (``first_train``) training frame; each error message starts
    with the name of the offending field."""

    steps: int = 10
    start: Literal["last_train", "first_train"] = "last_train"

    def __post_init__(self):
        require_integer("steps", self.steps)
        if self.steps < 1:
            raise ValueError("steps must be positive")
        if self.start not in ("last_train", "first_train"):
            raise ValueError(f"start must be 'last_train' or 'first_train', "
                             f"got {self.start!r}")


def make_experiment(scn: GridScenario, gains: SolverGains, graph_preset: str = "ring",
                    rollout_steps: int = 10, rollout_start: str = "last_train",
                    dictionary_spec: str = "vectorization", init: Start = Start(),
                    rank_tol: float | None = None) -> ExperimentReport:
    """Run the full pipeline and assemble all figure datasets.

    Generates the scenario, lifts and partitions the data, computes the
    spectral report and the centralized solution, runs the distributed
    solver, and evaluates the spectral comparison, the elementwise
    difference |K_ave - K*|, the fit-metric trace, and the multi-step
    prediction error of K_ave against the generated ground truth, as
    ``Rollout(rollout_steps, rollout_start)`` sets it.  The data carries
    ``rank_tol``, so all of these read the one range(X) under that cutoff.
    """
    check = Rollout(rollout_steps, rollout_start)
    inst = build_instance(scn, graph_preset, dictionary_spec, extra_frames=check.steps,
                          rank_tol=rank_tol)
    lap = laplacian(inst.graph)
    spectral = spectral_report(inst.partition, inst.data, lap, gains.k_P, gains.k_I)
    alpha = spectral.step_size(gains)

    states, trace = run(init, inst.graph, manual_gains(gains, alpha), inst.partition,
                        inst.data)
    K_ave = KoopmanModel(states.mean())  # no agent's n x n state is formed
    row_basis = states.row_basis
    del states

    K_star = centralized_solve(inst.data)

    # the lifted frames from the start on; truth[0] is Y[:, -1] or X[:, 0] bit for bit
    first = scn.num_samples if check.start == "last_train" else 0
    truth = np.stack([inst.dictionary.lift_state(frame.ravel())
                      for frame in inst.frames[first:first + check.steps + 1]])
    rollout_error = np.abs(rollout(K_ave, truth[0], check.steps)[1:] - truth[1:])

    return ExperimentReport(
        K_star=K_star,
        K_ave=K_ave,
        # the rows of K* = Y pinv(X) lie in the range pinv inverts, those of K_ave in B
        spectrum_K_star=_operator_spectrum(K_star.K, inst.data.range.U),
        spectrum_K_ave=_operator_spectrum(K_ave.K, row_basis),
        trace=trace,
        rollout_error=rollout_error,
        spectral=spectral,
        alpha=alpha,
    )
