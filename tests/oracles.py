"""Independent oracles the tests hold the package against.

None of these runs in the pipeline: each restates, in its plainest dense
form, a quantity that the package computes another way (the solver's KKT
residual and fit metric in reduced coordinates, the frame map in
preallocated frames, the initial frame's blobs from one draw), or the
other half of a round trip that the package only reads (graph text,
spectrum CSV).
"""

import numpy as np

from dkoopman.consensus import Partition, Start
from dkoopman.edmd import LiftedData
from dkoopman.graphs import Graph
from dkoopman.linalg import DimensionError
from dkoopman.scenario import GridScenario, _advection_plan, _shift, _step


def kkt_residual(states, part: Partition, data: LiftedData, graph: Graph) -> float:
    """Optimality diagnostic: ||(Kbar X - Y) X^T||_F + max_(i,j) ||K_i - K_j||_F.

    Zero (within tolerance) exactly when the mean operator is stationary for
    the aggregate least-squares cost and all local operators coincide, i.e.
    the first-order optimality conditions of the consensus-constrained
    problem hold.  It reads the raw ``data.X`` and ignores ``data.rank_tol``:
    a run under a cutoff that drops singular values solves on B B^T X (B =
    ``data.range.U``), so hold its trace against this residual on
    ``LiftedData(B B^T X, Y)``, not on the raw data.
    """
    if isinstance(states, Start):
        raise ValueError("kkt_residual needs agent states, not a Start")
    K, n = np.stack([s.K for s in states]), data.feature_dim
    if K.shape != (graph.p, n, n) or part.p != graph.p:
        raise ValueError(f"got states {K.shape}, partition p={part.p}, graph p={graph.p}")
    Kbar = K.mean(axis=0)
    stationarity = float(np.linalg.norm((Kbar @ data.X - data.Y) @ data.X.T, "fro"))
    return stationarity + max((float(np.linalg.norm(K[i] - K[j], "fro"))
                               for i, j in graph.edges), default=0.0)


def fit_metric(models, data: LiftedData) -> float:
    """Mean full-dataset residual (1/p) * sum_i ||Y - K_i X||_F."""
    models = list(models)
    if not models:
        raise ValueError("need at least one model")
    total = 0.0
    for m in models:
        if m.dim != data.feature_dim:
            raise DimensionError(
                f"operator dim {m.dim} != data feature dim {data.feature_dim}")
        total += float(np.linalg.norm(data.Y - m.K @ data.X, "fro"))
    return total / len(models)


def format_graph_text(graph: Graph) -> str:
    """Text form: first line p, then one 'i j' line per edge."""
    lines = [str(graph.p)] + [f"{i} {j}" for i, j in graph.edges]
    return "\n".join(lines) + "\n"


def read_spectrum_csv(path) -> np.ndarray:
    raw = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return raw[:, 0] + 1j * raw[:, 1]


def _advect(u: np.ndarray, vx: float, vy: float) -> np.ndarray:
    """Bilinear periodic shift of the field by (+vx, +vy)."""
    return _shift(u, _advection_plan(vx, vy, u.shape))


def advance(frame, scn: GridScenario) -> np.ndarray:
    """The frame-to-frame map: advect, diffuse, saturate, clip to [0, 1]."""
    u = np.asarray(frame, dtype=float)
    if u.ndim != 2:
        raise ValueError(f"frame must be 2-D, got shape {u.shape}")
    out = np.empty_like(u)
    _step(u, scn, _advection_plan(*scn.drift, u.shape), out, np.empty((2, *u.shape)))
    return out


def per_blob_frame(scn: GridScenario) -> np.ndarray:
    """The initial frame with three draws per blob from numpy's own generator:
    uniform(0, g, 2) for the center, uniform(g/8, g/4) for the width and
    uniform(0.5, 1) for the amplitude."""
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
