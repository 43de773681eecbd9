"""Dense linear-algebra kernels used by every other module.

All routines operate on plain float64 numpy arrays and are pure functions:
identical inputs give bit-identical outputs within one build, and there is
no shared mutable state, so everything here is safe to call concurrently.
The one object with state, :class:`Uniform`, is a seeded stream of draws
that each caller creates and owns.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite, prod
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


def require_integer(name: str, value, error: type[ValueError] = ValueError) -> None:
    """Refuse a value of the integer field ``name`` that is not an integer,
    ``bool`` included, with ``error``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise error(f"{name} must be an integer, got {value!r}")


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


# numpy's SeedSequence hash constants (O'Neill's seed_seq_fe) and PCG64's
# 128-bit LCG multiplier
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1


def _seed_words(seed: int) -> list[int]:
    """``numpy.random.SeedSequence(seed).generate_state(4, uint64)`` as ints."""
    words = [seed & _M32]  # the entropy in 32-bit words, least significant first
    while seed >> 32 * len(words):
        words.append(seed >> 32 * len(words) & _M32)
    hash_a = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_a
        value ^= hash_a
        hash_a = hash_a * _MULT_A & _M32
        value = value * hash_a & _M32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        value = (_MIX_L * x - _MIX_R * y) & _M32
        return value ^ value >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    out, hash_b = [], _INIT_B
    for i in range(8):
        value = pool[i % 4] ^ hash_b
        hash_b = hash_b * _MULT_B & _M32
        value = value * hash_b & _M32
        out.append(value ^ value >> 16)
    return [out[i] | out[i + 1] << 32 for i in range(0, 8, 2)]


def _affine(a: int, c: int, hi, lo, t0, t1, t2, t3) -> None:
    """(hi, lo) <- a * (hi, lo) + c mod 2**128 in place, each 128-bit number
    held as its high and low uint64 words; t0..t3 are work arrays."""
    a_hi, a_lo, a0, a1 = a >> 64, a & _M64, a & _M32, a >> 32 & _M32
    # the high word of lo * a_lo from 32-bit halves (Hacker's Delight, mulhu)
    np.bitwise_and(lo, _M32, out=t0)
    np.right_shift(lo, 32, out=t1)
    np.multiply(t1, a0, out=t2)
    t1 *= a1
    np.multiply(t0, a0, out=t3)
    t3 >>= 32
    t2 += t3
    t0 *= a1
    np.bitwise_and(t2, _M32, out=t3)
    t0 += t3
    t2 >>= 32
    t1 += t2
    t0 >>= 32
    t1 += t0
    hi *= a_lo
    hi += t1
    np.multiply(lo, a_hi, out=t1)
    hi += t1
    hi += c >> 64
    lo *= a_lo
    lo += c & _M64
    np.less(lo, c & _M64, out=t1)  # the carry of the low word
    hi += t1


def _unit_draws(hi, lo, out, low: float, span: float, t0, t1, t2) -> None:
    """out = low + span * (x >> 11) * 2**-53 of each state's XSL-RR output
    x = rotr(hi ^ lo, hi >> 58); hi and lo are left as they are."""
    np.bitwise_xor(hi, lo, out=t0)
    np.right_shift(hi, 58, out=t1)
    np.right_shift(t0, t1, out=t2)
    np.subtract(64, t1, out=t1)
    t1 &= 63
    t0 <<= t1
    t0 |= t2
    t0 >>= 11
    np.multiply(t0, 1.0 / 9007199254740992.0, out=out)
    out *= span
    out += low


#: draws per pass of an array draw: its work arrays stay in cache
_BLOCK = 8192


class Uniform:
    """Seeded uniform draws, bit for bit those of
    ``numpy.random.default_rng(seed).uniform``, call after call.

    The stream is numpy's: ``SeedSequence(seed).generate_state(4, uint64)``
    seeds a PCG64 (128-bit LCG, XSL-RR output), and a draw from its next
    64-bit output x is low + (high - low) * (x >> 11) * 2**-53.  Owning it
    keeps the import of ``numpy.random`` out of every run, and its bits
    fixed across numpy releases, which may change a ``Generator`` method's
    stream but not a bit generator's.  An array draw
    forms its first block of LCG states by doubling (states k+1..2k are the
    k-step map (a^k, c (a^k - 1) / (a - 1)) of states 1..k, in uint64 word
    pairs) and each later block by the block-step map of the one before.
    """

    def __init__(self, seed: int):
        require_integer("seed", seed)
        if seed < 0:
            raise ValueError(f"seed must be a nonnegative integer, got {seed!r}")
        s_hi, s_lo, i_hi, i_lo = _seed_words(int(seed))
        self._inc = ((i_hi << 64 | i_lo) << 1 | 1) & _M128
        # PCG's seeding: state 0, one step, add the seed, one more step
        self._state = ((self._inc + (s_hi << 64 | s_lo)) * _PCG_MULT + self._inc) & _M128

    def uniform(self, low: float = 0.0, high: float = 1.0, size=None):
        """A float in [low, high) for ``size`` None, else an array of that shape;
        the float is the one element of a draw of size 1."""
        if size is None:
            return float(self.uniform(low, high, 1)[0])
        low = float(low)
        span = float(high) - low
        if not isfinite(span):
            raise OverflowError("high - low range exceeds valid bounds")
        a, c = _PCG_MULT, self._inc
        shape = (size,) if isinstance(size, (int, np.integer)) else tuple(size)
        m = prod(shape)
        out = np.empty(m)
        if m == 0:
            return out.reshape(shape)
        block = min(m, _BLOCK)
        hi, lo = np.empty(block, np.uint64), np.empty(block, np.uint64)
        work = np.empty((4, block), np.uint64)
        state = (self._state * a + c) & _M128
        hi[0], lo[0] = state >> 64, state & _M64
        k = 1
        while k < block:  # ends with the block-step map when another block follows
            j = min(k, block - k)
            hi[k:k + j], lo[k:k + j] = hi[:j], lo[:j]
            _affine(a, c, hi[k:k + j], lo[k:k + j], *work[:, :j])
            a, c = a * a & _M128, (a * c + c) & _M128
            k += j
        for start in range(0, m, block):
            if start:
                _affine(a, c, hi, lo, *work)
            j = min(block, m - start)
            _unit_draws(hi[:j], lo[:j], out[start:start + j], low, span, *work[:3, :j])
        self._state = int(hi[j - 1]) << 64 | int(lo[j - 1])
        return out.reshape(shape)


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
