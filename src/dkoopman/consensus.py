"""Distributed PI-consensus solver for the partitioned least-squares problem.

The p agents hold contiguous column blocks (X_i, Y_i) of the lifted data
and evolve an operator guess K_i plus an integral state R_i through the
synchronous round

    K_i+ = K_i - alpha * ( (K_i X_i - Y_i) X_i^T
                           + k_P * sum_{j in N(i)} (K_i - K_j)
                           + k_I * R_i )
    R_i+ = R_i + alpha  *  sum_{j in N(i)} (K_i - K_j)

where every neighbor read uses the pre-round states.  For a connected
graph and any positive gains, convergence is governed by the spectrum of
the 2np x 2np block matrix

    M  = [[ -bX bX^T - k_P bL,  bL ],
          [ -k_I I,             0  ]]

with bX = diag(X_1, ..., X_p) and bL = L kron I_n: the iteration is stable
for step sizes below alpha_max = -max 2 re(lambda) / |lambda|^2 over the
nonzero spectrum, and contracts at least as fast as
rho_max = max sqrt(1 + 2 alpha re(lambda) + alpha^2 |lambda|^2).

An isospectral variant M~ (the mixed off-diagonal blocks replaced by
+/- sqrt(k_I) bL^{1/2}) shares the characteristic polynomial of M but has
a numerically benign kernel, so the spectral report evaluates the step
bounds on M~'s eigenvalues.  It never forms either 2np x 2np matrix: with
V = range(X) of dimension r, both bX bX^T and bL leave V^p and its
orthogonal complement invariant, so the spectrum splits into that of the
2pr matrix built like M~ from the projected data, plus two closed-form
roots per Laplacian eigenvalue with multiplicity n - r.  The dense
assemblers stay as the reference for that split and for the
spectrum-equality tests.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .edmd import LiftedData
from .graphs import DisconnectedGraphError, Graph, Laplacian, is_connected, laplacian
from .linalg import (ZERO_TOL_FACTOR, Spectrum, eigenvalues, extend_basis, frobenius_norm,
                     psd_sqrt, range_basis)

DIVERGENCE_GUARD = 1e12


class NotSemiHurwitzError(RuntimeError):
    """A nonzero eigenvalue has nonnegative real part: bad instance or numerics."""


class StepSizeError(ValueError):
    """Step size outside the range where the requested quantity is defined."""


@dataclass(frozen=True)
class Partition:
    """Contiguous column blocks of widths m_1..m_p covering the N data columns."""

    widths: tuple[int, ...]

    def __post_init__(self):
        widths = tuple(int(w) for w in self.widths)
        if not widths or any(w < 1 for w in widths):
            raise ValueError(f"widths must be positive, got {self.widths!r}")
        object.__setattr__(self, "widths", widths)

    @property
    def p(self) -> int:
        return len(self.widths)

    @property
    def total(self) -> int:
        return sum(self.widths)

    def column_ranges(self) -> list[tuple[int, int]]:
        ranges, lo = [], 0
        for w in self.widths:
            ranges.append((lo, lo + w))
            lo += w
        return ranges

    def blocks(self, data: LiftedData) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per-agent (X_i, Y_i) views into the shared data matrices."""
        if self.total != data.num_samples:
            raise ValueError(
                f"partition covers {self.total} columns, data has {data.num_samples}")
        return [(data.X[:, lo:hi], data.Y[:, lo:hi]) for lo, hi in self.column_ranges()]


def partition_data(data: LiftedData, widths) -> Partition:
    """Contiguous temporal partition; the widths must sum to N."""
    part = Partition(tuple(widths))
    if part.total != data.num_samples:
        raise ValueError(
            f"widths sum to {part.total} but data has {data.num_samples} columns")
    return part


@dataclass(frozen=True, eq=False)
class AgentState:
    """Local operator guess K and integral state R of one agent."""

    K: np.ndarray
    R: np.ndarray

    def __post_init__(self):
        K = np.asarray(self.K, dtype=float)
        R = np.asarray(self.R, dtype=float)
        if K.ndim != 2 or K.shape[0] != K.shape[1] or R.shape != K.shape:
            raise ValueError(
                f"K must be square and R must match, got {K.shape} / {R.shape}")
        if not (np.all(np.isfinite(K)) and np.all(np.isfinite(R))):
            raise ValueError("agent state contains non-finite entries")
        object.__setattr__(self, "K", K)
        object.__setattr__(self, "R", R)


def initial_states(p: int, n: int, mode: str = "zeros", seed: int = 0) -> list[AgentState]:
    """Fresh agent states: K_i(0) all-zero or seeded uniform(-1, 1); R_i(0) = 0 always."""
    if mode == "zeros":
        return [AgentState(np.zeros((n, n)), np.zeros((n, n))) for _ in range(p)]
    if mode == "random":
        rng = np.random.default_rng(seed)
        return [AgentState(rng.uniform(-1.0, 1.0, (n, n)), np.zeros((n, n)))
                for _ in range(p)]
    raise ValueError(f"unknown init mode {mode!r}; use 'zeros' or 'random'")


@dataclass(frozen=True)
class SolverGains:
    """Update gains, step size, and stopping policy.

    Exactly one of ``alpha`` (explicit step size, any positive value, used
    for divergence studies too) and ``alpha_fraction`` (theta in (0, 1),
    resolved against alpha_max from a fresh spectral report) must be set.
    """

    k_P: float
    k_I: float
    alpha: float | None = None
    alpha_fraction: float | None = None
    t_max: int = 10000
    stop_tol: float = 1e-10

    def __post_init__(self):
        if not (self.k_P > 0 and self.k_I > 0):
            raise ValueError("gains k_P and k_I must be positive")
        if (self.alpha is None) == (self.alpha_fraction is None):
            raise ValueError("set exactly one of alpha and alpha_fraction")
        if self.alpha is not None and not self.alpha > 0:
            raise ValueError("alpha must be positive")
        if self.alpha_fraction is not None and not 0 < self.alpha_fraction < 1:
            raise ValueError("alpha_fraction must lie in (0, 1); "
                             "use an explicit alpha for step sizes at or above the bound")
        if self.t_max < 1:
            raise ValueError("t_max must be at least 1")
        if self.stop_tol < 0:
            raise ValueError("stop_tol must be nonnegative")


@dataclass(frozen=True, eq=False)
class SpectralReport:
    """Spectra of the convergence matrices and the derived step-size bound.

    ``alpha_max``, ``n_zero`` and ``semi_hurwitz`` are evaluated on the
    spectrum of M~.  M and M~ are isospectral, so ``spectrum_M`` holds the
    same eigenvalues with M's own zero cutoff.  ``rank`` is the rank r of
    the data X; a connected graph gives exactly 2n - r zero eigenvalues.
    """

    spectrum_M_tilde: Spectrum
    spectrum_M: Spectrum
    alpha_max: float
    n_zero: int
    semi_hurwitz: bool
    rank: int

    def rho_max(self, alpha: float) -> float:
        """Contraction factor bound for a step size alpha in (0, alpha_max)."""
        return compute_rho_max(self.spectrum_M_tilde, alpha)


def assemble_block_X(part: Partition, data: LiftedData) -> np.ndarray:
    """Block-diagonal np x N stack diag(X_1, ..., X_p)."""
    blocks = part.blocks(data)
    n = data.feature_dim
    out = np.zeros((n * part.p, data.num_samples))
    for i, ((lo, hi), (Xi, _)) in enumerate(zip(part.column_ranges(), blocks)):
        out[i * n:(i + 1) * n, lo:hi] = Xi
    return out


def _check_assembly_inputs(lap: Laplacian, k_P: float, k_I: float):
    if not (k_P > 0 and k_I > 0):
        raise ValueError("gains k_P and k_I must be positive")
    if not is_connected(lap):
        raise DisconnectedGraphError("communication graph must be connected")


def assemble_M(part: Partition, data: LiftedData, lap: Laplacian,
               k_P: float, k_I: float) -> np.ndarray:
    """Convergence matrix [[-bX bX^T - k_P bL, bL], [-k_I I, 0]], size 2np x 2np."""
    _check_assembly_inputs(lap, k_P, k_I)
    n = data.feature_dim
    bX = assemble_block_X(part, data)
    bL = np.kron(lap.matrix, np.eye(n))
    d = n * part.p
    top = np.hstack([-bX @ bX.T - k_P * bL, bL])
    bottom = np.hstack([-k_I * np.eye(d), np.zeros((d, d))])
    return np.vstack([top, bottom])


def assemble_M_tilde(part: Partition, data: LiftedData, lap: Laplacian,
                     k_P: float, k_I: float) -> np.ndarray:
    """Isospectral variant with +/- sqrt(k_I) bL^{1/2} off-diagonal blocks.

    Shares the characteristic polynomial of :func:`assemble_M` but its zero
    eigenvalue is non-defective, which keeps the numerically computed
    near-zero eigenvalues orders of magnitude below the classification
    threshold even when X is rank deficient.
    """
    _check_assembly_inputs(lap, k_P, k_I)
    n = data.feature_dim
    bX = assemble_block_X(part, data)
    bL = np.kron(lap.matrix, np.eye(n))
    root = np.sqrt(k_I) * psd_sqrt(bL)
    d = n * part.p
    top = np.hstack([-bX @ bX.T - k_P * bL, root])
    bottom = np.hstack([-root, np.zeros((d, d))])
    return np.vstack([top, bottom])


def compute_alpha_max(spec: Spectrum) -> float:
    """Largest stable step size: -max 2 re(lambda) / |lambda|^2 over nonzero eigenvalues.

    Raises :class:`NotSemiHurwitzError` if any nonzero-classified eigenvalue
    has re(lambda) >= zero_tol, or if no nonzero eigenvalue exists.
    """
    nz = spec.nonzero
    if nz.size == 0:
        raise NotSemiHurwitzError("spectrum has no nonzero eigenvalues")
    if np.any(nz.real >= spec.zero_tol):
        worst = nz[np.argmax(nz.real)]
        raise NotSemiHurwitzError(
            f"nonzero eigenvalue {worst} has nonnegative real part")
    bound = -float(np.max(2.0 * nz.real / np.abs(nz) ** 2))
    if not bound > 0:
        raise NotSemiHurwitzError(f"step-size bound {bound:g} is not positive")
    return bound


def compute_rho_max(spec: Spectrum, alpha: float) -> float:
    """Contraction factor max sqrt(1 + 2 alpha re + alpha^2 |lambda|^2), nonzero lambda.

    Defined for alpha in (0, alpha_max), where it lies in (0, 1).
    """
    if not alpha > 0:
        raise StepSizeError("alpha must be positive")
    alpha_max = compute_alpha_max(spec)
    if alpha >= alpha_max:
        raise StepSizeError(f"alpha {alpha:g} is not below alpha_max {alpha_max:g}")
    nz = spec.nonzero
    radii = 1.0 + 2.0 * alpha * nz.real + alpha**2 * np.abs(nz) ** 2
    return float(np.sqrt(np.max(np.clip(radii, 0.0, None))))


def semi_hurwitz_check(spec: Spectrum) -> bool:
    """True iff every eigenvalue is classified zero or has strictly negative real part."""
    return bool(np.all(spec.nonzero.real < 0.0))


def _restricted_pair(gram: np.ndarray, L: np.ndarray, root: np.ndarray,
                     k_P: float, k_I: float) -> tuple[np.ndarray, np.ndarray]:
    """M~ and M on one invariant subspace W^p, given the agents' Grams on W.

    ``gram`` is blockdiag(G_1..G_p) with k x k blocks, ``root`` = L^{1/2}.
    """
    eye = np.eye(gram.shape[0] // L.shape[0])
    bL = np.kron(L, eye)
    broot = np.sqrt(k_I) * np.kron(root, eye)
    top = -gram - k_P * bL
    zero = np.zeros_like(gram)
    return (np.block([[top, broot], [-broot, zero]]),
            np.block([[top, bL], [-k_I * np.eye(gram.shape[0]), zero]]))


def _quadratic_roots(mu: np.ndarray, k_P: float, k_I: float) -> np.ndarray:
    """Both roots of lambda^2 + k_P mu lambda + k_I mu = 0 for each mu >= 0.

    The larger root has no cancellation; the smaller one comes from the
    product of the roots, k_I mu, or is the conjugate of a complex root.
    """
    b, c = k_P * mu, k_I * mu
    disc = (b * b - 4.0 * c).astype(complex)
    big = -0.5 * (b + np.sqrt(disc))
    small = np.where(disc.real < 0.0, np.conj(big), c / np.where(big == 0.0, 1.0, big))
    return np.concatenate([big, small])


def spectral_report(part: Partition, data: LiftedData, lap: Laplacian,
                    k_P: float, k_I: float,
                    zero_tol_factor: float = ZERO_TOL_FACTOR) -> SpectralReport:
    """Spectrum of M~ from its invariant subspaces, and the step-size analysis.

    With Q an orthonormal basis of V = range(X) (rank r under the
    ``pseudoinverse`` cutoff), M~ restricted to V^p is the 2pr matrix built
    like M~ from Q^T X_i and L^{1/2} kron I_r; it is solved densely.  On the
    complement, where the data Grams vanish, each Laplacian eigenvalue mu
    contributes the two roots of lambda^2 + k_P mu lambda + k_I mu = 0, n - r
    times each.  The zero cutoffs are ``zero_tol_factor`` times the
    Frobenius norms of M~ and M, which the same split gives without forming
    either matrix.
    """
    _check_assembly_inputs(lap, k_P, k_I)
    L = lap.matrix
    p, n = L.shape[0], data.feature_dim
    if part.p != p:
        raise ValueError(f"partition has {part.p} agents, Laplacian has {p}")
    Q = range_basis(data.X)
    r = Q.shape[1]
    gram = np.zeros((p * r, p * r))
    for i, (Xi, _) in enumerate(part.blocks(data)):
        Xi_t = Q.T @ Xi
        gram[i * r:(i + 1) * r, i * r:(i + 1) * r] = Xi_t @ Xi_t.T
    mu, U = np.linalg.eigh(L)
    mu[0] = 0.0  # the single zero eigenvalue of a connected graph, made exact
    root = (U * np.sqrt(mu)) @ U.T
    tilde_V, plain_V = _restricted_pair(gram, L, root, k_P, k_I)
    tilde_perp, plain_perp = _restricted_pair(np.zeros((p, p)), L, root, k_P, k_I)

    def zero_tol(on_V, on_perp):
        return zero_tol_factor * float(np.sqrt(frobenius_norm(on_V) ** 2
                                               + (n - r) * frobenius_norm(on_perp) ** 2))

    tol_t = zero_tol(tilde_V, tilde_perp)
    vals = np.concatenate([eigenvalues(tilde_V, zero_tol=tol_t).eigenvalues,
                           np.repeat(_quadratic_roots(mu, k_P, k_I), n - r)])
    spec_t = Spectrum(vals, tol_t)
    return SpectralReport(
        spectrum_M_tilde=spec_t,
        spectrum_M=Spectrum(vals, zero_tol(plain_V, plain_perp)),
        alpha_max=compute_alpha_max(spec_t),
        n_zero=spec_t.n_zero,
        semi_hurwitz=semi_hurwitz_check(spec_t),
        rank=r,
    )


def resolve_alpha(gains: SolverGains, part: Partition, data: LiftedData,
                  lap: Laplacian) -> float:
    """Concrete step size: explicit alpha, or alpha_fraction * alpha_max."""
    if gains.alpha is not None:
        return gains.alpha
    report = spectral_report(part, data, lap, gains.k_P, gains.k_I)
    return gains.alpha_fraction * report.alpha_max


def _stack_states(states, part, data, graph):
    if len(states) != graph.p or part.p != graph.p:
        raise ValueError(
            f"got {len(states)} states, partition p={part.p}, graph p={graph.p}")
    n = data.feature_dim
    for s in states:
        if s.K.shape != (n, n):
            raise ValueError(f"state shape {s.K.shape} != ({n}, {n})")
    K = np.stack([s.K for s in states]).astype(float)
    R = np.stack([s.R for s in states]).astype(float)
    return K, R


# A chunk keeps its rounds and their diagnostics within this many bytes, so
# that they stay in cache between the rounds and the batched diagnostics
# (at 32 rounds of n = 400 columns they did not, and batching gained
# nothing), and a huge state is not held 32 times.
_CHUNK_BYTES = 2 * 2**20
_CHUNK_ROUNDS = 32


class _Reduced:
    """The solver's problem in the coordinates of two orthonormal bases.

    Every gradient (K_i X_i - Y_i) X_i^T has its rows in V = range(X), and
    the Laplacian mix and the integral term combine rows already present,
    so K_i = W_i B^T and R_i = S_i B^T hold exactly for all rounds once B
    spans V and the rows of K(0) and R(0).  B is Q = range_basis(X) (the
    ``pseudoinverse`` rank rule), extended only by the part of the initial
    rows that lies outside V.  On the other side, every column of K_i(t)
    and R_i(t) lies in range(Y) plus the columns of the initial W and S, so
    when those columns number fewer than n, the state is also taken in an
    orthonormal basis H of them (from a QR, which needs no rank cutoff);
    otherwise H is None and d = n.

    The state is one C-contiguous 2pb x d array
    Z = [W_1^T; ...; W_p^T; S_1^T; ...; S_p^T] H, and a round is

        Z <- (P kron I_b) Z - blkdiag(alpha G_i) Z_W + alpha [C_1; ...; C_p; 0]

    with P = I + alpha [[-k_P L, -k_I I], [L, 0]] (the transpose of M's
    block on the complement of V, see ``_restricted_pair``), X~ = B^T X,
    Y^ = H^T Y, G_i = X~_i X~_i^T and C_i = X~_i Y^_i^T, all precomputed.
    """

    def __init__(self, K, R, graph: Graph, part: Partition, data: LiftedData,
                 k_P: float, k_I: float, alpha: float):
        Q = range_basis(data.X)
        n, r = Q.shape
        p = K.shape[0]
        if r == n or not (K.any() or R.any()):  # nothing lies outside range(X)
            B = Q
        else:
            B = extend_basis(Q, np.concatenate([K.reshape(-1, n), R.reshape(-1, n)]))
        WS = np.concatenate([K @ B, R @ B])  # (2p, n, b): the initial W_i, then S_i
        b = B.shape[1]
        span = [data.Y] + [M.transpose(1, 0, 2).reshape(n, -1)
                           for M in (WS[:p], WS[p:]) if M.any()]
        H = (np.linalg.qr(np.hstack(span))[0]
             if sum(M.shape[1] for M in span) < n else None)
        d = n if H is None else H.shape[1]
        Zt = WS.transpose(0, 2, 1)
        self.Z0 = np.ascontiguousarray((Zt if H is None else Zt @ H).reshape(2 * p * b, d))
        self.B, self.H, self.p, self.b, self.d = B, H, p, b, d
        self.Xt = B.T @ data.X
        Yh = data.Y if H is None else H.T @ data.Y
        # contiguous operands: the products on a transposed or strided view
        # cost about a microsecond more each
        self.XtT, self.YhT = self.Xt.T.copy(), Yh.T.copy()
        blocks = [(B.T @ Xi, Yi if H is None else H.T @ Yi) for Xi, Yi in part.blocks(data)]
        self.G = alpha * np.stack([Xi @ Xi.T for Xi, _ in blocks])
        self.C = alpha * np.stack([Xi @ Yi.T for Xi, Yi in blocks])
        L, eye = laplacian(graph).matrix, np.eye(p)
        self.P = np.eye(2 * p) + alpha * np.block([[-k_P * L, -k_I * eye],
                                                   [L, np.zeros((p, p))]])

    def views(self, Z) -> tuple[np.ndarray, np.ndarray]:
        """Z as (2p, b*d) and its W part as (p, b, d); Z must be C-contiguous,
        or the reshapes are copies that a round would write to in vain."""
        if not Z.flags.c_contiguous:
            raise ValueError("the state must be C-contiguous")
        p, b, d = self.p, self.b, self.d
        return Z.reshape(2 * p, b * d), Z[:p * b].reshape(p, b, d)

    def states(self, Z) -> list[AgentState]:
        """Full-coordinate agent states K_i = W_i B^T and R_i = S_i B^T."""
        KR = Z.reshape(2 * self.p, self.b, self.d).transpose(0, 2, 1) @ self.B.T
        if self.H is not None:
            KR = self.H @ KR
        return [AgentState(KR[i], KR[self.p + i]) for i in range(self.p)]


def _round(Z, out, red: _Reduced):
    """One synchronous round from state Z into state ``out``, both given as
    :meth:`_Reduced.views`.

    The Laplacian and integral coupling is one (2p x 2p) @ (2p, b*d) matmul,
    the local gradients one batched (p, b, b) @ (p, b, d) matmul; the dense
    2pb x 2pb operator would cost 4p times the flops.
    """
    np.matmul(red.P, Z[0], out=out[0])
    W = out[1]
    W -= red.G @ Z[1]
    W += red.C


def step(states, graph: Graph, gains: SolverGains, part: Partition,
         data: LiftedData, alpha: float | None = None) -> list[AgentState]:
    """One synchronous round of the update law; neighbor reads are pre-round."""
    return iterate_rounds(states, graph, gains, part, data, 1, alpha)


@dataclass(eq=False)
class RunTrace:
    """Per-iteration diagnostics of a solver run.

    ``consensus_error`` is the max over edges of ||K_i - K_j||_F,
    ``objective_mean`` the squared-residual objective of the mean operator,
    ``kkt_residual`` the stationarity norm of the mean operator plus the
    consensus error, and ``integral_sum_norm`` is ||sum_i R_i||_F.
    ``mean_history`` (iterations, n, n) is stored only when requested.
    """

    consensus_error: np.ndarray
    objective_mean: np.ndarray
    fit_metric: np.ndarray
    kkt_residual: np.ndarray
    integral_sum_norm: np.ndarray
    alpha: float
    converged: bool
    diverged: bool
    mean_history: np.ndarray | None = None

    @property
    def iterations(self) -> int:
        return int(self.consensus_error.size)


def _edge_disagreement(K, edges) -> float:
    if not edges:
        return 0.0
    return max(float(np.linalg.norm(K[i] - K[j], "fro")) for i, j in edges)


def kkt_residual(states, part: Partition, data: LiftedData, graph: Graph) -> float:
    """Optimality diagnostic: ||(Kbar X - Y) X^T||_F + max_(i,j) ||K_i - K_j||_F.

    Zero (within tolerance) exactly when the mean operator is stationary for
    the aggregate least-squares cost and all local operators coincide, i.e.
    the first-order optimality conditions of the consensus-constrained
    problem hold.
    """
    K, _ = _stack_states(states, part, data, graph)
    Kbar = K.mean(axis=0)
    stationarity = float(np.linalg.norm((Kbar @ data.X - data.Y) @ data.X.T, "fro"))
    return stationarity + _edge_disagreement(K, graph.edges)


def _incidence(graph: Graph) -> np.ndarray:
    """Edge-by-agent matrix with +1 at i and -1 at j for each edge (i, j)."""
    E = np.zeros((len(graph.edges), graph.p))
    for k, (i, j) in enumerate(graph.edges):
        E[k, i], E[k, j] = 1.0, -1.0
    return E


def _reserve(buf, need: int, limit: int, axis: int) -> np.ndarray:
    """``buf`` with room for ``need`` entries along ``axis``, doubled up to ``limit``.

    Grown like a list instead of reserved for all t_max rounds at once: that
    can exceed the address space the system grants, however early the run
    stops.
    """
    have = buf.shape[axis]
    if need <= have:
        return buf
    shape = list(buf.shape)
    shape[axis] = min(max(2 * have, need), limit)
    grown = np.empty(shape)
    np.moveaxis(grown, axis, 0)[:have] = np.moveaxis(buf, axis, 0)
    return grown


def run(init, graph: Graph, gains: SolverGains, part: Partition, data: LiftedData,
        record_mean: bool = False) -> tuple[list[AgentState], RunTrace]:
    """Iterate the update law until both stopping residuals drop below stop_tol.

    Requires a connected graph and all-zero integral states R_i(0).  Stops
    early on convergence (consensus error and KKT residual both below
    ``gains.stop_tol``) or on divergence (any state norm exceeding 1e12
    times the initial data scale; reported through ``trace.diverged``, not
    an exception).  The run is a pure function of its inputs: repeated
    calls give bit-identical traces.

    The rounds and the diagnostics run in the reduced coordinates of
    :class:`_Reduced`: with B and H orthonormal, ||K_i - K_j||_F =
    ||Z_i - Z_j||_F, the residual K_i X - Y is H (Z_i^T X~ - Y^) and the
    stationarity norm is ||X~ (X~^T Zbar - Y^^T)||_F.  The rounds go in
    chunks of up to 32 written into one buffer, and each chunk's
    diagnostics are computed at once; the first round that stops or
    diverges ends the run, and the rest of its chunk is discarded.
    """
    if not is_connected(graph):
        raise DisconnectedGraphError("solver requires a connected communication graph")
    K, R = _stack_states(init, part, data, graph)
    if float(np.abs(R).max(initial=0.0)) != 0.0:
        raise ValueError("integral states must start at zero")
    alpha = resolve_alpha(gains, part, data, laplacian(graph))
    red = _Reduced(K, R, graph, part, data, gains.k_P, gains.k_I, alpha)
    del K, R  # the (p, n, n) stacks are not needed during the rounds
    p, b, d, pb = red.p, red.b, red.d, red.p * red.b
    n, N, m, t_max = data.feature_dim, data.num_samples, len(graph.edges), gains.t_max
    # [edge incidence; 1^T / p]: one matmul gives the edge differences and the mean
    mix = np.vstack([_incidence(graph), np.full((1, p), 1.0 / p)])

    data_scale = float(np.linalg.norm(data.Y, "fro") * np.linalg.norm(data.X, "fro"))
    W0_norm = np.linalg.norm(red.Z0[:pb].reshape(p, b * d), axis=1).max()
    guard = DIVERGENCE_GUARD * (1.0 + data_scale + float(W0_norm))

    # per round: the state, [edges, mean, stationarity, sum of S] (b x d
    # each) and [mean residual, residuals] (N x d each)
    k = max(1, min(_CHUNK_ROUNDS, _CHUNK_BYTES // (8 * d * (2 * pb + (m + 3) * b
                                                            + (p + 1) * N))))
    buf = np.empty((k + 1, 2 * pb, d))  # slot 0 holds the state entering a chunk
    buf[0] = red.Z0
    slots = [red.views(Z) for Z in buf]
    diag = np.empty((k, m + 3, b * d))
    res = np.empty((k, p + 1, N, d))
    series = np.empty((5, min(t_max, 16)))
    mean_hist = np.empty((min(t_max, 16), n, n)) if record_mean else None
    t, converged, diverged = 0, False, False

    # a diverging chunk overflows in the rounds after the one that trips the
    # guard; those rounds are discarded
    with np.errstate(over="ignore", invalid="ignore"):
        while t < t_max and not (converged or diverged):
            kc = min(k, t_max - t)
            for j in range(kc):
                _round(slots[j], slots[j + 1], red)
            # the chunk's diagnostics, each a product over all its rounds at once
            Zw = buf[1:kc + 1, :pb]
            Zf = Zw.reshape(kc, p, b * d)
            D, E = diag[:kc], res[:kc]
            np.matmul(mix, Zf, out=D[:, :m + 1])
            Wbar = D[:, m].reshape(kc, b, d)
            np.matmul(red.XtT, Wbar, out=E[:, 0])
            np.matmul(red.XtT, Zw.reshape(kc, p, b, d), out=E[:, 1:])
            E -= red.YhT
            np.matmul(red.Xt, E[:, 0], out=D[:, m + 1].reshape(kc, b, d))
            np.sum(buf[1:kc + 1, pb:].reshape(kc, p, b * d), axis=1, out=D[:, m + 2])

            Ef = E.reshape(kc, p + 1, N * d)
            norms = np.sqrt(np.einsum("kij,kij->ki", D, D))
            res_norms = np.sqrt(np.einsum("kij,kij->ki", Ef, Ef))
            worst = np.sqrt(np.einsum("kij,kij->ki", Zf, Zf)).max(axis=1)
            cons = norms[:, :m].max(axis=1, initial=0.0)
            kkt = norms[:, m + 1] + cons
            stop = np.flatnonzero(~(worst <= guard)
                                  | ((cons < gains.stop_tol) & (kkt < gains.stop_tol)))
            if stop.size:
                kc = int(stop[0]) + 1
                diverged = not worst[kc - 1] <= guard
                converged = not diverged

            series = _reserve(series, t + kc, t_max, axis=1)
            series[:, t:t + kc] = (cons[:kc], 0.5 * res_norms[:kc, 0] ** 2,
                                   res_norms[:kc, 1:].sum(axis=1) / p, kkt[:kc],
                                   norms[:kc, m + 2])
            if record_mean:
                mean_hist = _reserve(mean_hist, t + kc, t_max, axis=0)
                Kbar_t = Wbar[:kc].transpose(0, 2, 1)  # (kc, d, b)
                if red.H is None:
                    np.matmul(Kbar_t, red.B.T, out=mean_hist[t:t + kc])
                else:
                    np.matmul(red.H, Kbar_t @ red.B.T, out=mean_hist[t:t + kc])
            t += kc
            buf[0] = buf[kc]

    trace = RunTrace(*series[:, :t], alpha=alpha, converged=converged, diverged=diverged,
                     mean_history=mean_hist[:t] if record_mean else None)
    return red.states(buf[0]), trace


def iterate_rounds(states, graph: Graph, gains: SolverGains, part: Partition,
                   data: LiftedData, rounds: int,
                   alpha: float | None = None) -> list[AgentState]:
    """Run a fixed number of rounds without diagnostics or stopping checks.

    Same reduced coordinates and round as :func:`run`, so the iterates are
    bit-identical to the corresponding prefix of a run with the same inputs.
    Nonzero integral states R_i are allowed here.
    """
    if alpha is None:
        alpha = gains.alpha
    if alpha is None:
        raise StepSizeError(
            "gains use alpha_fraction; resolve the step size first (see resolve_alpha)")
    if rounds < 0:
        raise ValueError("rounds must be nonnegative")
    red = _Reduced(*_stack_states(states, part, data, graph), graph, part, data,
                   gains.k_P, gains.k_I, alpha)
    Z, out = red.Z0, np.empty_like(red.Z0)
    Zv, outv = red.views(Z), red.views(out)
    for _ in range(rounds):
        _round(Zv, outv, red)
        Z, out, Zv, outv = out, Z, outv, Zv
    return red.states(Z)


def tail_contraction(mean_history, tail_fraction: float = 0.5) -> float:
    """Geometric-mean per-iteration contraction toward the final mean operator.

    Distances d(t) = ||Kbar(t) - Kbar(final)||_F are measured over the
    trailing ``tail_fraction`` window (the final point itself, where d = 0
    by construction, is excluded).  Returns NaN when the window is too
    short or the distances have already hit exact zero.
    """
    H = np.asarray(mean_history, dtype=float)
    if H.ndim != 3 or H.shape[0] < 4:
        return float("nan")
    start = int(np.floor((H.shape[0] - 1) * (1.0 - tail_fraction)))
    d = np.linalg.norm(H[start:] - H[-1], axis=(1, 2))  # the window only
    last = d.size - 2
    while last >= 0 and d[last] <= 0.0:
        last -= 1
    if last <= 0 or d[0] <= 0.0:
        return float("nan")
    return float((d[last] / d[0]) ** (1.0 / last))


def manual_gains(gains: SolverGains, alpha: float) -> SolverGains:
    """Copy of ``gains`` pinned to an explicit step size (divergence studies)."""
    return replace(gains, alpha=float(alpha), alpha_fraction=None)
