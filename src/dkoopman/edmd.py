"""Observable dictionaries, lifted data matrices, and the centralized solve.

A dictionary maps a state x in R^q to a feature vector Psi(x) in R^n.
Consecutive states of a snapshot sequence are lifted into the paired data
matrices X, Y (one column per transition), and the best linear operator
K with Y ~ K X is the minimizer of 0.5 * ||Y - K X||_F^2, computed in
closed form as Y @ pinv(X).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations_with_replacement
from math import comb

import numpy as np

from .linalg import DimensionError, Range, Uniform, as_count, as_matrix, range_svd


@dataclass(frozen=True, eq=False)
class Dictionary:
    """A fixed set of observables evaluated entrywise on states.

    Variants: ``vectorization`` (identity lift, n = q), ``monomial``
    (all monomials of total degree <= max_degree, n = C(q + d, d)),
    ``radial`` (Gaussian bumps at fixed centers, n = number of centers).
    """

    kind: str
    input_dim: int
    output_dim: int
    exponents: np.ndarray | None = None
    centers: np.ndarray | None = None
    width: float | None = None

    def lift_state(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float).ravel()
        if x.size != self.input_dim:
            raise DimensionError(
                f"state has dim {x.size}, dictionary expects {self.input_dim}")
        if self.kind == "vectorization":
            return x.copy()
        if self.kind == "monomial":
            return np.prod(x[None, :] ** self.exponents, axis=1)
        if self.kind == "radial":
            d2 = np.sum((self.centers - x[None, :]) ** 2, axis=1)
            return np.exp(-d2 / (2.0 * self.width**2))
        raise ValueError(f"unknown dictionary kind {self.kind!r}")


def vectorization_dictionary(q: int) -> Dictionary:
    if q < 1:
        raise ValueError("input dimension must be positive")
    return Dictionary("vectorization", q, q)


def monomial_dictionary(q: int, max_degree: int) -> Dictionary:
    """All monomials x^a with |a| <= max_degree, ordered by degree then index."""
    if q < 1 or max_degree < 0:
        raise ValueError("need q >= 1 and max_degree >= 0")
    rows = []
    for deg in range(max_degree + 1):
        for combo in combinations_with_replacement(range(q), deg):
            e = np.zeros(q, dtype=int)
            for idx in combo:
                e[idx] += 1
            rows.append(e)
    exponents = np.array(rows, dtype=int)
    return Dictionary("monomial", q, exponents.shape[0], exponents=exponents)


def radial_dictionary(centers, width: float) -> Dictionary:
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    with np.errstate(over="ignore", under="ignore"):  # lift_state divides by 2 * width**2
        if not (width > 0 and 0.0 < 2.0 * np.float64(width) ** 2 < np.inf):
            raise ValueError(f"radial width needs 2 * width**2 positive and finite, got {width!r}")
    return Dictionary("radial", centers.shape[1], centers.shape[0],
                      centers=centers, width=float(width))


# bytes of one n x n float64 array the pipeline may hold: n <= 16,384
MAX_MATRIX_BYTES = 2**31


def _feature_count(n: int) -> int:
    """``n``, if one n x n float64 array fits in ``MAX_MATRIX_BYTES``."""
    if 8 * n * n > MAX_MATRIX_BYTES:
        raise ValueError(f"n = {n} features: one n x n float64 array would take "
                         f"{8 * n * n / 2**30:.3g} GiB, over the {MAX_MATRIX_BYTES >> 30} GiB cap")
    return n


def parse_dictionary(spec: str, q: int, seed: int = 0) -> Dictionary:
    """Dictionary from a config string.

    ``"vectorization"``, ``"monomial:<max_degree>"``, or
    ``"radial:<num_centers>:<width>"`` (centers drawn uniformly from
    [0, 1]^q by :class:`~dkoopman.linalg.Uniform` with the given seed: the
    draws of ``numpy.random.default_rng(seed).uniform``, bit for bit,
    without importing ``numpy.random``), in ASCII without ``_``; the degree and
    the center count are digits alone.  A spec whose n x n arrays would
    exceed ``MAX_MATRIX_BYTES`` is refused from its n before anything is built.
    """
    if not spec.isascii() or "_" in spec:  # int and float read other numerals and "_"
        raise ValueError(f"dictionary spec {spec!r} is not ASCII without '_'")
    parts = spec.split(":")
    if parts[0] == "vectorization" and len(parts) == 1:
        return vectorization_dictionary(_feature_count(q))
    if parts[0] == "monomial" and len(parts) == 2:
        degree = as_count(parts[1], "monomial degree")
        _feature_count(comb(q + degree, degree) if degree > 0 else 1)
        return monomial_dictionary(q, degree)
    if parts[0] == "radial" and len(parts) == 3:
        count = as_count(parts[1], "radial center count")
        centers = Uniform(seed).uniform(0.0, 1.0, size=(_feature_count(count), q))
        return radial_dictionary(centers, float(parts[2]))
    raise ValueError(f"cannot parse dictionary spec {spec!r}")


@dataclass(frozen=True, eq=False)
class SnapshotSequence:
    """Ordered states x_1, ..., x_{N+1} as a (count, q) array, count >= 2."""

    states: np.ndarray

    def __post_init__(self):
        arr = as_matrix(self.states, "snapshot states")
        if arr.shape[0] < 2:
            raise DimensionError(f"need at least two states, got shape {arr.shape}")
        object.__setattr__(self, "states", arr)

    @property
    def state_dim(self) -> int:
        return int(self.states.shape[1])


@dataclass(frozen=True, eq=False)
class LiftedData:
    """Paired n x N data matrices; column k of Y lifts the successor of column k of X.

    The data carries its rank cutoff ``rank_tol`` (None: the default of
    :func:`~dkoopman.linalg.range_svd`), and :attr:`range` holds range(X)
    under it, from one SVD taken on first read.  Every reader of the data's
    rank reads that one value: the spectral report's Grams and rank, the
    solver's basis B, the centralized solve's pseudoinverse and the basis of
    K*'s spectrum.  With a cutoff that drops singular values, they all see
    the data B B^T X.
    """

    X: np.ndarray
    Y: np.ndarray
    rank_tol: float | None = None

    def __post_init__(self):
        X, Y = as_matrix(self.X, "X"), as_matrix(self.Y, "Y")
        if X.shape != Y.shape or X.size == 0:
            raise DimensionError(f"X and Y need one nonempty shape, got {X.shape} / {Y.shape}")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "Y", Y)

    @cached_property
    def range(self) -> Range:
        """range(X) under ``rank_tol``: the kept U columns, sigmas and V^T rows."""
        return range_svd(self.X, self.rank_tol)

    @property
    def feature_dim(self) -> int:
        return int(self.X.shape[0])

    @property
    def num_samples(self) -> int:
        return int(self.X.shape[1])


@dataclass(frozen=True, eq=False)
class KoopmanModel:
    """Square operator K advancing lifted states one step."""

    K: np.ndarray

    def __post_init__(self):
        K = as_matrix(self.K, "operator")
        if K.shape[0] != K.shape[1]:
            raise DimensionError(f"operator must be square, got shape {K.shape}")
        object.__setattr__(self, "K", K)

    @property
    def dim(self) -> int:
        return int(self.K.shape[0])


def lift(seq: SnapshotSequence, dictionary: Dictionary,
         rank_tol: float | None = None) -> LiftedData:
    """Evaluate the dictionary on consecutive states: X[:,k]=Psi(x_k), Y[:,k]=Psi(x_{k+1});
    the data carries the rank cutoff ``rank_tol``."""
    if dictionary.input_dim != seq.state_dim:
        raise DimensionError(
            f"dictionary input dim {dictionary.input_dim} != state dim {seq.state_dim}")
    lifted = np.column_stack([dictionary.lift_state(x) for x in seq.states])
    return LiftedData(X=lifted[:, :-1], Y=lifted[:, 1:], rank_tol=rank_tol)


def centralized_solve(data: LiftedData, rank_tol: float | None = None) -> KoopmanModel:
    """Closed-form minimizer K* = Y @ pinv(X).

    Among all minimizers of the squared-residual objective this is the one
    whose rows have no component on the orthogonal complement of range(X).
    The pseudoinverse is that of ``data.range``; a ``rank_tol`` other than
    the data's own takes an SVD of X under that cutoff instead.
    """
    rng = data.range if rank_tol in (None, data.rank_tol) else range_svd(data.X, rank_tol)
    return KoopmanModel(data.Y @ rng.pinv())


def objective(model: KoopmanModel, data: LiftedData) -> float:
    """0.5 * ||Y - K X||_F^2."""
    if model.dim != data.feature_dim:
        raise DimensionError(
            f"operator dim {model.dim} != data feature dim {data.feature_dim}")
    return 0.5 * float(np.linalg.norm(data.Y - model.K @ data.X, "fro")) ** 2


def rollout(model: KoopmanModel, z0, steps: int) -> np.ndarray:
    """Iterate the operator: returns (steps+1, n) array [z0, Kz0, ..., K^steps z0]."""
    z = np.asarray(z0, dtype=float).ravel()
    if z.size != model.dim:
        raise DimensionError(f"initial state dim {z.size} != operator dim {model.dim}")
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    out = np.empty((steps + 1, model.dim))
    out[0] = z
    for k in range(steps):
        out[k + 1] = model.K @ out[k]
    return out
