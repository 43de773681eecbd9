"""Dense linear-algebra kernels used by every other module.

All routines operate on plain float64 numpy arrays and are pure functions:
identical inputs give bit-identical outputs within one build, and there is
no shared mutable state, so everything here is safe to call concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

_EPS = float(np.finfo(np.float64).eps)

#: default factor for classifying an eigenvalue as zero, relative to the
#: Frobenius norm of the matrix it came from
ZERO_TOL_FACTOR = 1e-9


class DimensionError(ValueError):
    """Input has the wrong shape for the requested operation."""


class ConvergenceError(RuntimeError):
    """The eigenvalue iteration exhausted its sweep budget."""


class NotPSDError(ValueError):
    """Matrix expected to be symmetric positive semidefinite is not."""


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce input to a 2-D float64 array, rejecting NaN/Inf entries."""
    arr = np.asarray(a, dtype=float)
    if arr.ndim != 2:
        raise DimensionError(f"{name} must be 2-D, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def as_count(text: str, name: str = "count") -> int:
    """``int(text)`` of ASCII digits alone: no sign, ``_`` or other numerals."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"{name} must be ASCII digits, got {text!r}")
    return int(text)


def frobenius_norm(a) -> float:
    """sqrt(trace(A^T A)); zero exactly when A is the zero matrix."""
    return float(np.linalg.norm(as_matrix(a), "fro"))


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Eigenvalues of a real square matrix plus a zero-classification cutoff.

    ``zero_tol`` is the absolute magnitude below which an eigenvalue is
    treated as numerically zero.  :func:`eigenvalues` defaults it to
    ``ZERO_TOL_FACTOR * ||A||_F`` so the classification stays scale-free.
    """

    eigenvalues: np.ndarray
    zero_tol: float

    def __post_init__(self):
        vals = np.atleast_1d(np.asarray(self.eigenvalues, dtype=complex))
        object.__setattr__(self, "eigenvalues", vals)
        if not self.zero_tol >= 0.0:
            raise ValueError("zero_tol must be nonnegative")

    @property
    def nonzero(self) -> np.ndarray:
        """Eigenvalues classified as nonzero (|lambda| > zero_tol)."""
        return self.eigenvalues[np.abs(self.eigenvalues) > self.zero_tol]

    @property
    def n_zero(self) -> int:
        """Count of eigenvalues classified as zero."""
        return int(np.sum(np.abs(self.eigenvalues) <= self.zero_tol))


def eigenvalues(a, zero_tol: float | None = None) -> Spectrum:
    """All eigenvalues of a real square matrix, with algebraic multiplicity.

    Runs LAPACK's balanced Hessenberg + implicitly shifted QR iteration.
    Complex eigenvalues of the real input come out in conjugate pairs.

    Parameters
    ----------
    a : square array_like with finite entries
    zero_tol : absolute zero-classification cutoff stored on the result;
        defaults to ``ZERO_TOL_FACTOR * ||a||_F``.
    """
    arr = as_matrix(a)
    if arr.shape[0] != arr.shape[1]:
        raise DimensionError(f"eigenvalues need a square matrix, got {arr.shape}")
    try:
        vals = np.linalg.eigvals(arr)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigenvalue iteration failed: {exc}") from exc
    if zero_tol is None:
        zero_tol = ZERO_TOL_FACTOR * float(np.linalg.norm(arr, "fro"))
    return Spectrum(vals, float(zero_tol))


class Range(NamedTuple):  # a fifth of a frozen dataclass's import time
    """range(A) under a rank cutoff, from one thin SVD A = U diag(s) V^T.

    ``U`` (rows x r), ``s`` (r, largest first) and ``Vt`` (r x cols) hold
    the singular triplets whose singular value is above the cutoff of
    :func:`range_svd`, and r is the rank under it.  ``U`` is an orthonormal
    basis of the kept range, and :meth:`pinv` inverts exactly those
    directions.
    """

    U: np.ndarray
    s: np.ndarray
    Vt: np.ndarray

    @property
    def rank(self) -> int:
        return int(self.s.size)

    def pinv(self) -> np.ndarray:
        """The pseudoinverse V diag(1 / s) U^T of the kept triplets."""
        return (self.Vt.T * (1.0 / self.s)) @ self.U.T


def range_svd(a, rank_tol: float | None = None) -> Range:
    """The :class:`Range` of A from one SVD.

    Singular values at or below ``rank_tol`` are treated as zero.  The
    default tolerance is ``max(rows, cols) * eps * sigma_max``.
    """
    arr = as_matrix(a)
    u, s, vt = np.linalg.svd(arr, full_matrices=False)
    keep = s > _rank_cutoff(arr.shape, s, rank_tol)
    return Range(u[:, keep], s[keep], vt[keep])


def pseudoinverse(a, rank_tol: float | None = None) -> np.ndarray:
    """Moore-Penrose pseudoinverse under the :func:`range_svd` cutoff."""
    return range_svd(a, rank_tol).pinv()


def range_basis(a, rank_tol: float | None = None) -> np.ndarray:
    """Orthonormal basis of range(A) under the :func:`range_svd` cutoff, so
    it spans exactly the directions that ``pseudoinverse(a, rank_tol)``
    inverts."""
    return range_svd(a, rank_tol).U


def _rank_cutoff(shape, s: np.ndarray, rank_tol: float | None) -> float:
    if rank_tol is None:
        return max(shape) * _EPS * (float(s[0]) if s.size else 0.0)
    if rank_tol < 0:
        raise ValueError("rank_tol must be nonnegative")
    return rank_tol


def psd_sqrt(a) -> np.ndarray:
    """Symmetric PSD square root S with S @ S == A.

    Requires A symmetric within 1e-12 * ||A||_F.  Eigenvalues in
    [-1e-10 * ||A||_F, max(shape) * eps * lambda_max] are set to exactly
    zero, so a singular A gets an exactly singular root instead of square
    roots of its roundoff (about sqrt(eps) of scale); anything more
    negative raises :class:`NotPSDError`.
    """
    arr = as_matrix(a)
    if arr.shape[0] != arr.shape[1]:
        raise DimensionError(f"psd_sqrt needs a square matrix, got {arr.shape}")
    scale = float(np.linalg.norm(arr, "fro"))
    if float(np.linalg.norm(arr - arr.T, "fro")) > 1e-12 * scale:
        raise NotPSDError("matrix is not symmetric")
    w, v = np.linalg.eigh(0.5 * (arr + arr.T))
    if w.size and float(w[0]) < -1e-10 * scale:
        raise NotPSDError(f"matrix has a significantly negative eigenvalue {w[0]:g}")
    w[w <= _rank_cutoff(arr.shape, w[::-1], None)] = 0.0
    return (v * np.sqrt(w)) @ v.T


def spectrum_distance(lhs, rhs) -> float:
    """Largest gap in an optimal one-to-one pairing of two eigenvalue multisets.

    Uses a Hungarian assignment on |lhs_i - rhs_j| so nearly coincident
    eigenvalues never get mispaired by a lexicographic sort.
    """
    a = np.atleast_1d(np.asarray(lhs, dtype=complex)).ravel()
    b = np.atleast_1d(np.asarray(rhs, dtype=complex)).ravel()
    if a.size != b.size:
        raise DimensionError(f"spectra differ in size: {a.size} vs {b.size}")
    if a.size == 0:
        return 0.0
    # scipy.optimize takes half a second to import; only callers of this
    # function pay for it
    from scipy.optimize import linear_sum_assignment

    cost = np.abs(a[:, None] - b[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())
