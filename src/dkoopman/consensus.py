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
bounds on M~'s eigenvalues.  It forms neither 2np x 2np matrix nor
L^{1/2}: with V = range(X) of dimension r, both bX bX^T and bL leave V^p
and its orthogonal complement invariant, and in the Laplacian eigenbasis M~
splits per mode.  On V^p the zero mode's r integral coordinates decouple as
exact zero eigenvalues, which leaves one dense (2p - 1)r core; on the
complement each Laplacian eigenvalue gives two closed-form roots, n - r
times each.  The dense assemblers stay as the reference for that split and
for the spectrum-equality tests.
"""

from __future__ import annotations

import operator
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, replace
from itertools import chain, cycle, islice, pairwise, repeat
from typing import Literal

import numpy as np

from .edmd import LiftedData
from .graphs import DisconnectedGraphError, Graph, is_connected, laplacian
from .linalg import (ZERO_TOL_FACTOR, Spectrum, Uniform, as_matrix, eigenvalues, psd_sqrt,
                     require_integer)

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
        for w in self.widths:
            require_integer("widths", w)
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
    part.blocks(data)  # raises unless the widths cover the N columns
    return part


@dataclass(frozen=True, eq=False)
class AgentState:
    """Local operator guess K and integral state R of one agent."""

    K: np.ndarray
    R: np.ndarray

    def __post_init__(self):
        K, R = as_matrix(self.K, "K"), as_matrix(self.R, "R")
        if K.shape[0] != K.shape[1] or R.shape != K.shape:
            raise ValueError(
                f"K must be square and R must match, got {K.shape} / {R.shape}")
        object.__setattr__(self, "K", K)
        object.__setattr__(self, "R", R)


@dataclass(frozen=True)
class Start:
    """The agents' start as a value: K_i(0) all zero (``zeros``) or drawn
    uniform(-1, 1) one agent at a time (``random``); R_i(0) = 0 always.
    The draws come from :class:`~dkoopman.linalg.Uniform`: those of
    ``numpy.random.default_rng(seed).uniform``, bit for bit, without
    importing ``numpy.random``.

    :func:`run` and :func:`iterate_rounds` take a ``Start`` in place of a
    sequence of agent states, and a zero start then forms no n x n array.
    Each error message starts with the name of the offending field.
    """

    mode: Literal["zeros", "random"] = "zeros"
    seed: int = 0

    def __post_init__(self):
        if self.mode not in ("zeros", "random"):
            raise ValueError(f"mode must be 'zeros' or 'random', got {self.mode!r}")
        require_integer("seed", self.seed)
        if self.seed < 0:
            raise ValueError(f"seed must be a nonnegative integer, got {self.seed!r}")

    def operators(self, p: int, n: int) -> Iterator[np.ndarray] | None:
        """The n x n start operators K_1(0)..K_p(0), drawn as they are
        consumed; None for a zero start."""
        if self.mode == "zeros":
            return None
        rng = Uniform(self.seed)
        return (rng.uniform(-1.0, 1.0, (n, n)) for _ in range(p))


def initial_states(p: int, n: int, mode: str = "zeros", seed: int = 0) -> list[AgentState]:
    """The agent states of ``Start(mode, seed)``, formed as n x n arrays."""
    K = Start(mode, seed).operators(p, n) or (np.zeros((n, n)) for _ in range(p))
    return [AgentState(Ki, np.zeros((n, n))) for Ki in K]


@dataclass(frozen=True)
class SolverGains:
    """Update gains, step size, and stopping policy.

    Exactly one of ``alpha`` (explicit step size, any positive value, used
    for divergence studies too) and ``alpha_fraction`` (theta in (0, 1),
    resolved by :meth:`SpectralReport.step_size` before a run) must be set.
    Each error message starts with the name of the offending field.
    """

    k_P: float
    k_I: float
    alpha: float | None = None
    alpha_fraction: float | None = None
    t_max: int = 10000
    stop_tol: float = 1e-10

    def __post_init__(self):
        for name in ("k_P", "k_I"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        if (self.alpha is None) == (self.alpha_fraction is None):
            raise ValueError("alpha_fraction must be set if and only if alpha is not")
        if self.alpha is not None and not self.alpha > 0:
            raise ValueError("alpha must be positive")
        if self.alpha_fraction is not None and not 0 < self.alpha_fraction < 1:
            raise ValueError("alpha_fraction must lie in (0, 1); "
                             "use an explicit alpha for step sizes at or above the bound")
        require_integer("t_max", self.t_max)
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
    the data X under its cutoff (``LiftedData.range``); a connected graph
    gives exactly ``n_zero_structural`` = 2n - r zero eigenvalues, which the
    report holds as exact zeros.

    Every other eigenvalue is nonzero, but those too small for the cutoff
    count in ``n_zero`` as well: ``n_unresolved`` = ``n_zero`` -
    ``n_zero_structural`` of them.  The core's smallest eigenvalues are, to
    first order, the -sigma_k(X)^2 / p of its zero-mode block, so
    ``n_unresolved_predicted`` = #{k <= r : sigma_k(X)^2 / p <= cutoff}
    predicts that count from the data alone; such a mode contracts by only
    1 - alpha sigma_k^2 / p per round.
    """

    spectrum_M_tilde: Spectrum
    spectrum_M: Spectrum
    alpha_max: float
    rank: int
    n_zero_structural: int
    n_unresolved_predicted: int

    @property
    def n_zero(self) -> int:
        return self.spectrum_M_tilde.n_zero

    @property
    def semi_hurwitz(self) -> bool:
        """True in every report: :func:`compute_alpha_max` refuses the others."""
        return semi_hurwitz_check(self.spectrum_M_tilde)

    @property
    def n_unresolved(self) -> int:
        """Nonzero eigenvalues of M~ that the zero cutoff cannot tell from zero."""
        return self.n_zero - self.n_zero_structural

    def step_size(self, gains: SolverGains) -> float:
        """The explicit ``gains.alpha``, or ``gains.alpha_fraction * alpha_max``."""
        if gains.alpha is not None:
            return gains.alpha
        return gains.alpha_fraction * self.alpha_max

    def rho_max(self, alpha: float) -> float | None:
        """Contraction factor bound for alpha in (0, alpha_max); None outside it."""
        if not 0.0 < alpha < self.alpha_max:
            return None
        return compute_rho_max(self.spectrum_M_tilde, alpha)


def assemble_block_X(part: Partition, data: LiftedData) -> np.ndarray:
    """Block-diagonal np x N stack diag(X_1, ..., X_p)."""
    blocks = part.blocks(data)
    n = data.feature_dim
    out = np.zeros((n * part.p, data.num_samples))
    for i, ((lo, hi), (Xi, _)) in enumerate(zip(part.column_ranges(), blocks)):
        out[i * n:(i + 1) * n, lo:hi] = Xi
    return out


def _check_assembly_inputs(L: np.ndarray, k_P: float, k_I: float):
    if not (k_P > 0 and k_I > 0):
        raise ValueError("gains k_P and k_I must be positive")
    if not is_connected(L):
        raise DisconnectedGraphError("communication graph must be connected")


def assemble_M(part: Partition, data: LiftedData, L: np.ndarray,
               k_P: float, k_I: float) -> np.ndarray:
    """Convergence matrix [[-bX bX^T - k_P bL, bL], [-k_I I, 0]], size 2np x 2np."""
    _check_assembly_inputs(L, k_P, k_I)
    n = data.feature_dim
    bX = assemble_block_X(part, data)
    bL = np.kron(L, np.eye(n))
    d = n * part.p
    top = np.hstack([-bX @ bX.T - k_P * bL, bL])
    bottom = np.hstack([-k_I * np.eye(d), np.zeros((d, d))])
    return np.vstack([top, bottom])


def assemble_M_tilde(part: Partition, data: LiftedData, L: np.ndarray,
                     k_P: float, k_I: float) -> np.ndarray:
    """Isospectral variant with +/- sqrt(k_I) bL^{1/2} off-diagonal blocks.

    Shares the characteristic polynomial of :func:`assemble_M` but its zero
    eigenvalue is non-defective, which keeps the numerically computed
    near-zero eigenvalues orders of magnitude below the classification
    threshold even when X is rank deficient.
    """
    _check_assembly_inputs(L, k_P, k_I)
    n = data.feature_dim
    bX = assemble_block_X(part, data)
    bL = np.kron(L, np.eye(n))
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


def spectral_report(part: Partition, data: LiftedData, L: np.ndarray,
                    k_P: float, k_I: float) -> SpectralReport:
    """Spectrum of M~ per Laplacian eigenmode, and the step-size analysis.

    With Q an orthonormal basis of V = range(X) (``data.range``, rank r
    under the data's cutoff, so the analysis is that of the data Q Q^T X)
    and L = U diag(mu) U^T, M~ on V^p in the basis
    U kron Q has the K-block -sum_i U[i, a] U[i, b] G_i - k_P mu_a delta_ab I_r
    (G_i the Gram of Q^T X_i) and the coupling +/- sqrt(k_I mu_a) I_r, which
    vanishes on mu_0 = 0: mode 0's r integral coordinates are exact zeros,
    and the (2p - 1)r rest is solved densely.  On the complement each mu
    gives the two roots of lambda^2 + k_P mu lambda + k_I mu = 0, n - r times
    each.  The zero cutoffs are ``ZERO_TOL_FACTOR`` times the Frobenius norms
    of M~ and M, summed from the blocks; ``n_zero`` counts every eigenvalue
    under the cutoff, the 2n - r exact zeros among them.  Gains so large that
    M~ or a cutoff is not finite raise :class:`NotSemiHurwitzError`.
    """
    _check_assembly_inputs(L, k_P, k_I)
    p, n = L.shape[0], data.feature_dim
    if part.p != p:
        raise ValueError(f"partition has {part.p} agents, Laplacian has {p}")
    Q, sigma = data.range.U, data.range.s
    r = Q.shape[1]
    G = np.array([Xi_t @ Xi_t.T for Xi_t in (Q.T @ Xi for Xi, _ in part.blocks(data))])
    mu, U = np.linalg.eigh(L)
    mu[0] = 0.0  # the single zero eigenvalue of a connected graph, made exact
    pr = p * r
    core = np.zeros((2 * pr - r, 2 * pr - r))  # mode 0's integral coordinates left out
    with np.errstate(over="ignore", invalid="ignore"):  # huge gains: the cutoffs reject them
        top = core[:pr, :pr]
        top -= np.einsum("ia,ib,ixy->axby", U, U, G).reshape(pr, pr)
        top[np.diag_indices(pr)] -= np.repeat(k_P * mu, r)
        coupling = np.diag(np.repeat(np.sqrt(k_I * mu[1:]), r))  # modes 1..p-1
        core[r:pr, pr:], core[pr:, r:pr] = coupling, -coupling
        t2, s1, s2, kPmu = np.linalg.norm(top) ** 2, mu.sum(), mu @ mu, k_P * mu
        tol_t, tol_M = (ZERO_TOL_FACTOR * float(np.sqrt(sq)) for sq in (
            t2 + 2 * k_I * r * s1 + (n - r) * (kPmu @ kPmu + 2 * k_I * s1),
            t2 + r * s2 + k_I * k_I * p * r + (n - r) * (kPmu @ kPmu + s2 + k_I * k_I * p)))
    if not np.isfinite([tol_t, tol_M]).all():
        raise NotSemiHurwitzError(
            f"gains k_P={k_P:g}, k_I={k_I:g} overflow M~ or its zero cutoff")

    vals = np.concatenate([eigenvalues(core, zero_tol=tol_t).eigenvalues, np.zeros(r),
                           np.repeat(_quadratic_roots(mu, k_P, k_I), n - r)])
    spec_t = Spectrum(vals, tol_t)
    return SpectralReport(
        spectrum_M_tilde=spec_t,
        spectrum_M=Spectrum(vals, tol_M),
        alpha_max=compute_alpha_max(spec_t),
        rank=r,
        n_zero_structural=2 * n - r,
        n_unresolved_predicted=int(np.sum(sigma**2 / p <= tol_t)),
    )


# A chunk keeps its rounds and their diagnostics within this many bytes, so
# that they stay in cache between the rounds and the batched diagnostics
# (at 32 rounds of n = 400 columns they did not, and batching gained
# nothing), and a huge state is not held 32 times.
_CHUNK_BYTES = 2 * 2**20
_CHUNK_ROUNDS = 32
_HISTORY_BYTE_CAP = 2 * 10**8  # the largest mean history ``run`` records


def _integral_step(alpha: float, L: np.ndarray) -> float:
    """The step alpha_I of P's integral block alpha_I L: alpha, unless some
    finite alpha * degree rounds.

    Then alpha_I is alpha with its lowest k = bit_length(max degree)
    mantissa bits cleared, so every alpha_I * degree is exact and each
    column of alpha_I L sums to exactly zero, as the update law's conserved
    sum_i S_i needs.  Degrees 1, 2 and 4 never round; an alpha * degree that
    overflows is left to the divergence guard.
    """
    alpha, degrees = float(alpha), [int(deg) for deg in np.diag(L)]

    def rounds(d: int) -> bool:
        prod = alpha * d
        if not np.isfinite(prod):
            return False
        (num, den), (pnum, pden) = alpha.as_integer_ratio(), prod.as_integer_ratio()
        return pnum * den != num * d * pden

    if not any(rounds(d) for d in degrees):
        return alpha
    bits = np.float64(alpha).view(np.int64) & ~((1 << max(degrees).bit_length()) - 1)
    return float(bits.view(np.float64))


class _Reduced:
    """The solver's problem in the coordinates of orthonormal bases.

    Every gradient (K_i X_i - Y_i) X_i^T has its rows in V = range(X), and
    the Grams X_i X_i^T are the only place the data enters, so the rows of a
    state outside V move by the Laplacian mix and the integral term alone.
    B is Q = ``data.range.U`` (range(X) under the data's cutoff) for every
    start, and the solver runs on the data B B^T X, whose consensus fixed
    point is the K* = Y pinv(X) of the same cutoff.  K_i = W_i B^T + U_i and
    R_i = S_i B^T + V_i, where the start's
    rows outside V, the 2p complements M_j - M_j B B^T of M_j = K_j(0),
    R_j(0), are taken once in the orthonormal basis Phi of a thin QR of
    their vecs; their coefficients then evolve by the same mix P as the
    rest.  There are q of them, none for a zero start or for b = n.  On the
    other side, every column of a zero start's K_i(t) and R_i(t) lies in
    range(Y), so when N < n the state is also taken in the orthonormal
    basis H of a QR of Y (which needs no rank cutoff); otherwise, and for
    every nonzero start, whose n or more start columns leave nothing to
    save, H is None and d = n.

    The start is a :class:`Start` or a sequence of p n x n agent states, only
    read; the gains need an explicit alpha.  A zero ``Start`` forms no n x n
    array; a random one draws its K_i(0) one agent at a time, as
    :func:`initial_states` does, and each is dropped once it is reduced.

    The state is one C-contiguous 2p x (b*d + q) array whose row j holds
    vec(W_j^T H) (j <= p), vec(S_j^T H) (j > p), then the j-th complement
    coefficients, and a round is

        Z <- (P kron I) Z - blkdiag(alpha G_i) Z_W + alpha [C_1; ...; C_p; 0]

    with P = I + alpha [[-k_P L, -k_I I], [L, 0]] (the transpose of M's
    block [[-k_P L, L], [-k_I I, 0]] on the complement of V), its lower-left
    block taken as alpha_I L of :func:`_integral_step`, X~ = B^T X,
    Y^ = H^T Y, G_i = X~_i X~_i^T and C_i = X~_i Y^_i^T, all precomputed;
    Z_W is the first p rows' b*d columns, the only part a Gram touches.
    """

    def __init__(self, init, graph: Graph, gains: SolverGains, part: Partition,
                 data: LiftedData):
        k_P, k_I, alpha = gains.k_P, gains.k_I, gains.alpha
        if alpha is None:
            raise StepSizeError("alpha_fraction is unresolved; use SpectralReport.step_size")
        p, n = graph.p, data.feature_dim
        if isinstance(init, Start):  # M_1..M_2p: the K_j(0), then the zero R_j(0)
            count, K = p, init.operators(p, n)
            mats = None if K is None else chain(K, repeat(np.zeros((n, n)), p))
        else:
            count = len(init)
            if any(s.K.shape != (n, n) for s in init):
                raise ValueError(f"state shapes {[s.K.shape for s in init]} != ({n}, {n})")
            mats = (*(s.K for s in init), *(s.R for s in init))
            if not any(M.any() for M in mats):
                mats = None
        if count != p or part.p != p:
            raise ValueError(f"got {count} states, partition p={part.p}, graph p={p}")
        B = data.range.U
        b = B.shape[1]
        H = np.linalg.qr(data.Y)[0] if mats is None and data.num_samples < n else None
        d = n if H is None else H.shape[1]
        self.Phi = None
        if mats is None:
            self.Z0 = np.zeros((2 * p, b * d))
        else:
            self.Z0 = np.empty((2 * p, b * d))
            U = np.empty((2 * p, n * n)) if b < n else None
            for j, M in enumerate(mats):  # one product each: one on all rows rounds differently
                A = M @ B
                self.Z0[j] = A.T.ravel()
                if U is not None:
                    U[j] = (M - A @ B.T).ravel()
            if U is not None:
                self.Phi, T = np.linalg.qr(U.T)
                self.Z0 = np.hstack([self.Z0, T.T])
        self.B, self.H, self.p, self.b, self.d = B, H, p, b, d
        self.Xt = B.T @ data.X
        Yh = data.Y if H is None else H.T @ data.Y
        # contiguous operands: the products on a transposed or strided view
        # cost about a microsecond more each
        self.XtT, self.YhT = self.Xt.T.copy(), Yh.T.copy()
        blocks = [(B.T @ Xi, Yi if H is None else H.T @ Yi) for Xi, Yi in part.blocks(data)]
        L, eye = laplacian(graph), np.eye(p)
        with np.errstate(over="ignore"):  # alpha G_i or alpha L overflows: the first round diverges
            self.G = alpha * np.stack([Xi @ Xi.T for Xi, _ in blocks])
            self.C = alpha * np.stack([Xi @ Yi.T for Xi, Yi in blocks])
            self.P = np.eye(2 * p) + alpha * np.block([[-k_P * L, -k_I * eye],
                                                       [L, np.zeros((p, p))]])
            self.P[p:, :p] = _integral_step(alpha, L) * L

    def views(self, Z) -> tuple[np.ndarray, np.ndarray]:
        """Z itself and its W block as (p, b, d); Z must be C-contiguous, or
        the reshapes are copies that a round would write to in vain."""
        if not Z.flags.c_contiguous:
            raise ValueError("the state must be C-contiguous")
        p, b, d = self.p, self.b, self.d
        return Z, Z[:p, :b * d].reshape(p, b, d)

    def lift(self, z) -> np.ndarray:
        """The n x n matrix H W^T B^T + U of one state row z: vec(W^T H), then
        the coefficients of U in Phi."""
        b, d = self.b, self.d
        M = z[:b * d].reshape(b, d).T
        if self.H is not None:  # n x b first: the cheaper order when d < n
            M = self.H @ M
        M = M @ self.B.T
        if self.Phi is not None:
            M += (z[b * d:] @ self.Phi.T).reshape(M.shape)
        return M


class ReducedStates(Sequence):
    """The agents' states, held as a state Z of :class:`_Reduced`.

    Item i is ``AgentState(K_i, R_i)`` with K_i = H W_i^T B^T + U_i and R_i
    likewise, formed anew each time it is read; :meth:`mean` forms the mean
    operator alone, so a caller that needs only Kbar never holds an n x n
    agent state.
    """

    def __init__(self, red: _Reduced, Z: np.ndarray):
        self._red, self._Z = red, Z

    def __len__(self) -> int:
        return self._red.p

    @property
    def row_basis(self) -> np.ndarray | None:
        """B = range(X) if no state has rows outside it, else None."""
        return self._red.B if self._red.Phi is None else None

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        p = self._red.p
        i = operator.index(i)
        if not -p <= i < p:
            raise IndexError(f"agent {i} out of range for {p} agents")
        i %= p
        return AgentState(self._red.lift(self._Z[i]), self._red.lift(self._Z[p + i]))

    def mean(self) -> np.ndarray:
        """Kbar = H Wbar^T B^T + Ubar, the mean of the K_i, from the mean of
        their rows of Z."""
        return self._red.lift(self._Z[:self._red.p].mean(axis=0))


def _rounds(views, red: _Reduced) -> None:
    """Synchronous rounds through an iterable of states, given as
    :meth:`_Reduced.views`: each round reads one state and writes the next.

    The Laplacian and integral coupling is one (2p x 2p) @ (2p, b*d + q)
    product, the local gradients one batched (p, b, b) @ (p, b, d) matmul; the
    dense 2pb x 2pb operator would cost 4p times the flops.  The operands and
    the gradient buffer are bound once per call; ``np.dot`` makes the same
    gemm call as ``np.matmul`` on these 2-D C-contiguous operands, without
    the gufunc dispatch.
    """
    P, G, C = red.P, red.G, red.C
    grad = np.empty(C.shape)
    dot, matmul, subtract, add = np.dot, np.matmul, np.subtract, np.add
    for (Z, ZW), (out, W) in pairwise(views):
        dot(P, Z, out)
        matmul(G, ZW, grad)
        subtract(W, grad, W)
        add(W, C, W)


def step(states, graph: Graph, gains: SolverGains, part: Partition,
         data: LiftedData) -> ReducedStates:
    """One synchronous round of the update law; neighbor reads are pre-round."""
    return iterate_rounds(states, graph, gains, part, data, 1)


@dataclass(eq=False)
class RunTrace:
    """Per-iteration diagnostics of a solver run.

    ``consensus_error`` is the max over edges of ||K_i - K_j||_F,
    ``objective_mean`` the squared-residual objective of the mean operator,
    ``kkt_residual`` the stationarity norm of the mean operator plus the
    consensus error, and ``integral_sum_norm`` is ||sum_i R_i||_F.  The five
    series are all None for a run made with ``series=False``; ``iterations``
    is the round count either way.
    ``mean_history`` (iterations, b, d) is the mean Wbar(t) of the W blocks
    of :class:`_Reduced`, Kbar(t) = H Wbar(t)^T B^T + Ubar(t), where the mean
    Ubar of the start's rows outside range(X) stays at its start value while
    sum_i R_i stays zero.  The history is None unless requested and within
    ``_HISTORY_BYTE_CAP``.  Every run keeps, in its place, the step record
    that :func:`tail_contraction` reads: ``mean_steps`` (iterations - 1),
    the norms ||Wbar(t) - Wbar(t - 1)||_F = ||Kbar(t) - Kbar(t - 1)||_F for
    t = 2..iterations, and ``mean_norm`` = ||Wbar(iterations)||_F, each with
    the bits that :func:`tail_contraction` forms from the history.
    """

    consensus_error: np.ndarray | None
    objective_mean: np.ndarray | None
    fit_metric: np.ndarray | None
    kkt_residual: np.ndarray | None
    integral_sum_norm: np.ndarray | None
    converged: bool
    diverged: bool
    iterations: int
    mean_history: np.ndarray | None = None
    mean_steps: np.ndarray | None = None
    mean_norm: float | None = None


def _incidence(graph: Graph) -> np.ndarray:
    """Edge-by-agent matrix with +1 at i and -1 at j for each edge (i, j)."""
    E = np.zeros((len(graph.edges), graph.p))
    for k, (i, j) in enumerate(graph.edges):
        E[k, i], E[k, j] = 1.0, -1.0
    return E


def run(init, graph: Graph, gains: SolverGains, part: Partition, data: LiftedData,
        record_mean: bool = False, series: bool = True) -> tuple[ReducedStates, RunTrace]:
    """Iterate the update law until the KKT residual drops below stop_tol.

    ``init`` is a :class:`Start` or a sequence of agent states; the final
    states come back as :class:`ReducedStates`, whose ``mean()`` is Kbar.
    Requires a connected graph, R_i(0) = 0 and an explicit alpha.  Stops
    early on convergence (the KKT residual, which adds the consensus error,
    below ``gains.stop_tol``) or on divergence (any state norm exceeding 1e12
    times the initial data scale; reported through ``trace.diverged``, not
    an exception; the states returned are the finite ones that entered the
    round tripping the guard, which the trace includes).  The run is a pure
    function of its inputs: repeated calls give bit-identical traces.

    With ``series=False`` the trace's five series are None, and each round
    computes only the divergence guard, the mean and its step for the step
    record (and the history of ``record_mean``), and, when
    ``gains.stop_tol`` > 0, the consensus error and the KKT residual that
    adds it, which stops the run.  Rounds, stopping, states, step record
    and mean history are bit-identical to a run with ``series=True``.

    The rounds and the diagnostics run in the reduced coordinates of
    :class:`_Reduced`: with B, H and Phi orthonormal, ||K_i - K_j||_F =
    ||Z_i - Z_j||_F over a whole row of the state, complement coefficients
    included, as are the guard's ||K_i||_F and ||sum_i R_i||_F.  The rows
    outside B are annihilated by the data B B^T X the solver runs on, so the
    residual K_i B B^T X - Y is H (W_i^T X~ - Y^) and the stationarity norm
    ||X~ (X~^T Wbar - Y^^T)||_F, read from the W blocks alone; under the
    default cutoff, B B^T X is X up to roundoff.  The rounds go in
    chunks of up to 32 written into one buffer, and each chunk's
    diagnostics are computed at once and kept as one block of the per-round
    record, the series and the step norms; the first round that stops or
    diverges ends the run, and the rest of its chunk is discarded.
    """
    if not is_connected(graph):
        raise DisconnectedGraphError("solver requires a connected communication graph")
    if not isinstance(init, Start) and any(s.R.any() for s in init):
        raise ValueError("integral states must start at zero")
    red = _Reduced(init, graph, gains, part, data)
    p, b, d, bd = red.p, red.b, red.d, red.b * red.d
    w = red.Z0.shape[1]  # b*d, plus the complement coefficients
    N, m, t_max = data.num_samples, len(graph.edges), gains.t_max
    # [edge incidence; 1^T / p]: one matmul gives the edge differences and the mean
    mix = np.vstack([_incidence(graph), np.full((1, p), 1.0 / p)])
    stopping = series or gains.stop_tol > 0  # the residuals can stop the run or are kept

    data_scale = float(np.linalg.norm(data.Y, "fro") * np.linalg.norm(data.X, "fro"))
    W0_norm = np.linalg.norm(red.Z0[:p], axis=1).max()
    guard = DIVERGENCE_GUARD * (1.0 + data_scale + float(W0_norm))

    # per round: the state (2p rows), [edges, mean, stationarity, sum of S]
    # (one row each) and [mean residual, residuals] (N x d each)
    k = max(1, min(_CHUNK_ROUNDS, _CHUNK_BYTES // (8 * ((2 * p + m + 3) * w
                                                        + (p + 1) * N * d))))
    buf = np.empty((k + 1, 2 * p, w))  # slot 0 holds the state entering a chunk
    buf[0] = red.Z0
    slots = [red.views(Z) for Z in buf]
    # stay 0: the stationarity row's complement part, and the sum of S without series
    diag = np.zeros((k, m + 3, w))
    res = np.empty((k, p + 1, N, d))
    # the per-round record, one block per chunk: the five series (with
    # ``series``), then ||Wbar(t) - Wbar(t - 1)||_F, whose entry for round 1
    # (measured from zero) is dropped at the end
    blocks = []
    # bounded by the cap, and np.empty touches only the rows written
    record = record_mean and t_max * bd * 8 <= _HISTORY_BYTE_CAP
    mean_hist = np.empty((t_max, b, d)) if record else None
    # the chunk's means are copied after the previous chunk's last one, into
    # contiguous rows: subtracting the strided rows of ``diag`` took twice as long
    mean_rows, step_rows = np.zeros((k + 1, bd)), np.empty((k, bd))
    t, converged, diverged, met = 0, False, False, False

    # a diverging chunk overflows in the rounds after the one that trips the
    # guard; those rounds are discarded
    with np.errstate(over="ignore", invalid="ignore"):
        while t < t_max and not (converged or diverged):
            kc = min(k, t_max - t)
            _rounds(slots[:kc + 1], red)
            # the chunk's diagnostics, each a product over all its rounds at once
            Zf = buf[1:kc + 1, :p]
            D, E = diag[:kc], res[:kc]
            np.matmul(mix, Zf, out=D[:, :m + 1])
            means = D[:, m, :bd]
            Wbar = means.reshape(kc, b, d)
            if stopping:
                np.matmul(red.XtT, Wbar, out=E[:, 0])
                if series:
                    np.matmul(red.XtT, Zf[..., :bd].reshape(kc, p, b, d), out=E[:, 1:])
                    E -= red.YhT
                else:  # the mean residual alone; elementwise, so the same bits
                    E[:, 0] -= red.YhT
                np.matmul(red.Xt, E[:, 0], out=D[:, m + 1, :bd].reshape(kc, b, d))
                if series:
                    np.sum(buf[1:kc + 1, p:], axis=1, out=D[:, m + 2])
                    Ef = E.reshape(kc, p + 1, N * d)
                    res_norms = np.sqrt(np.einsum("kij,kij->ki", Ef, Ef))
                norms = np.sqrt(np.einsum("kij,kij->ki", D, D))
                cons = norms[:, :m].max(axis=1, initial=0.0)
                kkt = norms[:, m + 1] + cons
                met = kkt < gains.stop_tol  # kkt adds cons, so never below it
            worst = np.sqrt(np.einsum("kij,kij->ki", Zf, Zf)).max(axis=1)
            stop = np.flatnonzero(~(worst <= guard) | met)
            if stop.size:
                kc = int(stop[0]) + 1
                diverged = not worst[kc - 1] <= guard
                converged = not diverged

            if record:
                mean_hist[t:t + kc] = Wbar[:kc]
            mean_rows[1:kc + 1] = means[:kc]
            np.subtract(mean_rows[1:kc + 1], mean_rows[:kc], out=step_rows[:kc])
            steps = _row_norms(step_rows[:kc])
            blocks.append(np.array((cons[:kc], 0.5 * res_norms[:kc, 0] ** 2,
                                    res_norms[:kc, 1:].sum(axis=1) / p, kkt[:kc],
                                    norms[:kc, m + 2], steps)) if series else steps[None])
            mean_rows[0] = mean_rows[kc]
            t += kc
            buf[0] = buf[kc - 1 if diverged else kc]
        mean_norm = float(_row_norms(mean_rows[:1])[0])

    rows = np.concatenate(blocks, axis=1)
    trace = RunTrace(*(rows[:5] if series else [None] * 5),
                     converged=converged, diverged=diverged, iterations=t,
                     mean_history=mean_hist[:t] if record else None,
                     mean_steps=rows[-1, 1:], mean_norm=mean_norm)
    return ReducedStates(red, buf[0].copy()), trace  # not a view that holds the chunk buffer


def iterate_rounds(states, graph: Graph, gains: SolverGains, part: Partition,
                   data: LiftedData, rounds: int) -> ReducedStates:
    """Run a fixed number of rounds without diagnostics or stopping checks.

    Same start, reduced coordinates, round and returned states as
    :func:`run`, so the iterates are bit-identical to the corresponding
    prefix of a run with the same inputs.  Nonzero integral states R_i are
    allowed here.
    """
    if rounds < 0:
        raise ValueError("rounds must be nonnegative")
    red = _Reduced(states, graph, gains, part, data)
    pair = red.views(red.Z0), red.views(np.empty_like(red.Z0))
    _rounds(islice(cycle(pair), rounds + 1), red)  # the two buffers in turn
    return ReducedStates(red, pair[rounds % 2][0])


def _row_norms(A: np.ndarray) -> np.ndarray:
    """The Frobenius norm of each row of a 2-D array whose rows are
    contiguous; a row's norm has the same bits wherever the row lies."""
    return np.sqrt(np.einsum("ij,ij->i", A, A))


def tail_contraction(record, tail_fraction: float = 0.5) -> float:
    """Per-round contraction rate of the mean operator, from its successive steps.

    ``record`` is a :class:`RunTrace` of :func:`run`, whose step record
    ``mean_steps`` is read, or a (t, b, d) ``RunTrace.mean_history``, from
    which the same steps s(t) = ||Kbar(t) - Kbar(t - 1)||_F are formed with
    the same bits.  The window is that of the means from index
    floor((t - 1)(1 - tail_fraction)) on, so its steps are those ending in
    it.  Only steps above the roundoff floor, 1e-13 times the norm of the
    last mean in the record's coordinates (||Wbar(final)||_F), count,
    and the estimate is the median of s(t + 1) / s(t) over the pairs of
    successive steps that both count.  No step is measured against the
    final point, so the estimate carries no (1 - rho^(T - t)) bias.
    Returns NaN when fewer than two such ratios remain; a ``tail_fraction``
    outside (0, 1] raises a ``ValueError``.
    """
    if not 0.0 < tail_fraction <= 1.0:
        raise ValueError(f"tail_fraction must lie in (0, 1], got {tail_fraction!r}")

    def first(t: int) -> int:  # index of the first step ending in the window
        return max(int(np.floor((t - 1) * (1.0 - tail_fraction))) - 1, 0)

    nan = float("nan")
    with np.errstate(over="ignore", invalid="ignore"):  # a diverged run's steps
        if isinstance(record, RunTrace):
            if record.mean_steps is None:
                return nan
            steps, size = record.mean_steps[first(record.iterations):], record.mean_norm
        else:
            H = np.asarray(record, dtype=float)
            if H.ndim != 3 or H.shape[0] < 2:
                return nan
            rows = H.reshape(H.shape[0], H.shape[1] * H.shape[2])
            window = rows[first(H.shape[0]):]
            steps, size = _row_norms(window[1:] - window[:-1]), _row_norms(rows[-1:])[0]
        keep = (steps > 1e-13 * size) & (steps < np.inf)
        pairs = keep[1:] & keep[:-1]
        ratios = np.sort(steps[1:][pairs] / steps[:-1][pairs])
    if ratios.size < 2:
        return nan
    # np.median's bits, without the modules its first call loads (about
    # 1.25 MB of resident memory)
    half = ratios.size // 2
    return float(ratios[half] if ratios.size % 2 else (ratios[half - 1] + ratios[half]) / 2)


def manual_gains(gains: SolverGains, alpha: float) -> SolverGains:
    """Copy of ``gains`` pinned to an explicit step size (divergence studies)."""
    return replace(gains, alpha=float(alpha), alpha_fraction=None)
