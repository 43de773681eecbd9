import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dkoopman import consensus, edmd, linalg, scenario
from dkoopman.linalg import (DimensionError, NotPSDError, Spectrum, Uniform, eigenvalues,
                             frobenius_norm, pseudoinverse, psd_sqrt, range_svd,
                             spectrum_distance)


def cofactor_det(a):
    """Determinant by recursive cofactor expansion (independent oracle)."""
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    if n == 1:
        return a[0, 0]
    total = 0.0
    for j in range(n):
        minor = np.delete(np.delete(a, 0, axis=0), j, axis=1)
        total += (-1.0) ** j * a[0, j] * cofactor_det(minor)
    return total


def square_matrices(max_dim, lo=-10.0, hi=10.0):
    return st.integers(1, max_dim).flatmap(
        lambda n: arrays(np.float64, (n, n),
                         elements=st.floats(lo, hi, allow_nan=False)))


class TestEigenvalues:
    def test_scalar(self):
        spec = eigenvalues([[2.0]])
        assert spec.eigenvalues.shape == (1,)
        assert spec.eigenvalues[0] == pytest.approx(2.0)

    def test_rotation_pair(self):
        spec = eigenvalues([[0.0, 1.0], [-1.0, 0.0]])
        assert spectrum_distance(spec.eigenvalues, [1j, -1j]) <= 1e-12

    def test_companion_cubic(self):
        # s^3 - 6 s^2 + 11 s - 6 = (s - 1)(s - 2)(s - 3), verified by expansion
        companion = np.array([[6.0, -11.0, 6.0],
                              [1.0, 0.0, 0.0],
                              [0.0, 1.0, 0.0]])
        spec = eigenvalues(companion)
        assert spectrum_distance(spec.eigenvalues, [1.0, 2.0, 3.0]) <= 1e-9

    def test_non_square_raises(self):
        with pytest.raises(DimensionError):
            eigenvalues(np.ones((2, 3)))

    def test_non_finite_raises(self):
        with pytest.raises(ValueError):
            eigenvalues([[np.nan]])

    @settings(max_examples=80, deadline=None)
    @given(square_matrices(12))
    def test_conjugate_symmetry(self, a):
        spec = eigenvalues(a)
        scale = 1.0 + np.linalg.norm(a)
        assert spectrum_distance(spec.eigenvalues, np.conj(spec.eigenvalues)) <= 1e-8 * scale

    @settings(max_examples=80, deadline=None)
    @given(square_matrices(12))
    def test_sum_matches_trace(self, a):
        spec = eigenvalues(a)
        assert np.sum(spec.eigenvalues).real == pytest.approx(
            np.trace(a), abs=1e-8 * (1.0 + np.linalg.norm(a)))

    @settings(max_examples=60, deadline=None)
    @given(square_matrices(6, -3.0, 3.0))
    def test_product_matches_cofactor_determinant(self, a):
        spec = eigenvalues(a)
        det = cofactor_det(a)
        tol = 1e-8 * (1.0 + np.linalg.norm(a)) ** a.shape[0]
        assert np.prod(spec.eigenvalues).real == pytest.approx(det, abs=tol)
        assert abs(np.prod(spec.eigenvalues).imag) <= tol


class TestSpectrumType:
    def test_zero_classification(self):
        spec = Spectrum([0.0, 1e-12, -2.0, 1j], zero_tol=1e-9)
        assert spec.n_zero == 2
        assert sorted(np.abs(spec.nonzero)) == pytest.approx([1.0, 2.0])

    def test_negative_zero_tol_rejected(self):
        with pytest.raises(ValueError):
            Spectrum([1.0], zero_tol=-1.0)

    def test_distance_requires_equal_sizes(self):
        with pytest.raises(DimensionError):
            spectrum_distance([1.0], [1.0, 2.0])

    def test_distance_of_empty_spectra_is_zero(self):
        assert spectrum_distance([], np.zeros(0, dtype=complex)) == 0.0


class TestPseudoinverse:
    def test_diagonal(self):
        out = pseudoinverse(np.diag([2.0, 0.0]))
        assert np.allclose(out, np.diag([0.5, 0.0]), atol=1e-12)

    def test_row_vector(self):
        out = pseudoinverse(np.array([[3.0, 4.0]]))
        assert np.allclose(out, np.array([[3.0 / 25.0], [4.0 / 25.0]]), atol=1e-12)

    def test_penrose_identities_seeded(self):
        rng = np.random.default_rng(42)
        a = rng.standard_normal((4, 7))
        self._check_penrose(a)

    def test_rank_deficient(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((5, 2)) @ rng.standard_normal((2, 6))
        self._check_penrose(a)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 2**31 - 1))
    def test_penrose_identities_random(self, rows, cols, seed):
        a = np.random.default_rng(seed).uniform(-5, 5, (rows, cols))
        self._check_penrose(a)

    @staticmethod
    def _check_penrose(a):
        ap = pseudoinverse(a)
        na, nap = np.linalg.norm(a), np.linalg.norm(ap)
        assert np.linalg.norm(a @ ap @ a - a) <= 1e-9 * (1.0 + na)
        assert np.linalg.norm(ap @ a @ ap - ap) <= 1e-9 * (1.0 + nap)
        assert np.linalg.norm((a @ ap).T - a @ ap) <= 1e-9 * (1.0 + na * nap)
        assert np.linalg.norm((ap @ a).T - ap @ a) <= 1e-9 * (1.0 + na * nap)

    def test_negative_rank_tol_rejected(self):
        with pytest.raises(ValueError):
            pseudoinverse(np.eye(2), rank_tol=-1.0)


class TestRangeBasis:
    def test_rank_deficient_projector(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((5, 2)) @ rng.standard_normal((2, 6))
        q = range_svd(a).U
        assert q.shape == (5, 2)
        assert np.allclose(q.T @ q, np.eye(2), atol=1e-12)
        # Q Q^T is the projector A A^+ onto range(A)
        assert np.allclose(q @ q.T, a @ pseudoinverse(a), atol=1e-12)

    def test_zero_matrix_has_empty_basis(self):
        assert range_svd(np.zeros((4, 3))).U.shape == (4, 0)

    def test_rank_tol_matches_the_pseudoinverse(self):
        rng = np.random.default_rng(6)
        a = rng.standard_normal((6, 2)) @ rng.standard_normal((2, 7)) \
            + 1e-9 * rng.standard_normal((6, 7))
        assert range_svd(a).U.shape == (6, 6)
        q = range_svd(a, rank_tol=1e-6).U
        assert q.shape == (6, 2)
        assert np.allclose(q @ q.T, a @ pseudoinverse(a, rank_tol=1e-6), atol=1e-12)


class TestPsdSqrt:
    def test_identity(self):
        assert np.allclose(psd_sqrt(np.eye(3)), np.eye(3), atol=1e-12)

    def test_diagonal_exact(self):
        out = psd_sqrt(np.diag([4.0, 9.0]))
        assert np.abs(out - np.diag([2.0, 3.0])).max() <= 1e-12

    def test_triangle_laplacian_reconstruction(self):
        L = np.array([[2.0, -1.0, -1.0], [-1.0, 2.0, -1.0], [-1.0, -1.0, 2.0]])
        s = psd_sqrt(L)
        assert np.linalg.norm(s @ s - L) <= 1e-12
        assert np.linalg.norm(s - s.T) <= 1e-12

    def test_singular_input_keeps_its_kernel(self):
        # path-graph Laplacian kron I_3: a 3-dimensional kernel whose roundoff
        # eigenvalues (about 1e-16) must not turn into square roots near 1e-8
        L = np.array([[1.0, -1.0, 0.0, 0.0], [-1.0, 2.0, -1.0, 0.0],
                      [0.0, -1.0, 2.0, -1.0], [0.0, 0.0, -1.0, 1.0]])
        w = np.linalg.eigvalsh(psd_sqrt(np.kron(L, np.eye(3))))
        assert np.sum(np.abs(w) <= 1e-14) == 3
        assert np.all(w[3:] > 0.5)

    def test_indefinite_rejected(self):
        with pytest.raises(NotPSDError):
            psd_sqrt(np.diag([1.0, -1.0]))

    def test_asymmetric_rejected(self):
        with pytest.raises(NotPSDError):
            psd_sqrt(np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_non_square_rejected(self):
        with pytest.raises(DimensionError, match="square"):
            psd_sqrt(np.ones((2, 3)))

    def test_reconstruction_random_psd(self):
        rng = np.random.default_rng(11)
        b = rng.standard_normal((5, 5))
        a = b @ b.T
        s = psd_sqrt(a)
        assert np.linalg.norm(s @ s - a) <= 1e-9 * (1.0 + np.linalg.norm(a))


class TestFrobeniusNorm:
    def test_zero(self):
        assert frobenius_norm(np.zeros((3, 4))) == 0.0

    def test_three_four_five(self):
        assert frobenius_norm([[3.0, 4.0]]) == pytest.approx(5.0)

    @pytest.mark.parametrize("n", [1, 2, 5, 9])
    def test_identity(self, n):
        assert frobenius_norm(np.eye(n)) == pytest.approx(np.sqrt(n))

    def test_matches_sqrt_trace(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((4, 6))
        assert frobenius_norm(a) == pytest.approx(np.sqrt(np.trace(a.T @ a)))


def _bits(x) -> np.ndarray:
    """The float64 bit patterns of a draw, a Python float included."""
    return np.asarray(x, dtype=np.float64).view(np.uint64)


class TestUniform:
    """``Uniform(seed)`` against ``numpy.random.default_rng(seed)``, bit for bit."""

    SEEDS = [*range(300), 2**32, 2**64 + 5, 2**200 + 3]
    # scalar and array draws, an empty one (which draws nothing) in between
    CALLS = [(0.0, 1.0, None), (-1.0, 1.0, 2), (0.0, 4, (16, 16)), (0.0, 1.0, 0),
             (0.5, 1.0, (37, 2)), (2.0, 3.5, (3, 5, 7)), (-3.0, -1.0, None)]

    def assert_same(self, ours, theirs, label):
        assert type(ours) is type(theirs), label
        assert np.shape(ours) == np.shape(theirs), label
        np.testing.assert_array_equal(_bits(ours), _bits(theirs), err_msg=str(label))

    def test_matches_default_rng_call_after_call(self):
        for seed in self.SEEDS:
            ours, theirs = Uniform(seed), np.random.default_rng(seed)
            for call in self.CALLS:
                self.assert_same(ours.uniform(*call), theirs.uniform(*call), (seed, call))

    def test_large_draws(self):
        # several blocks of states, and a last block cut short; the stream
        # then goes on as numpy's does
        ours, theirs = Uniform(11), np.random.default_rng(11)
        for size in ((400, 400), linalg._BLOCK * 2 + 3, (3, 5)):
            self.assert_same(ours.uniform(-1.0, 1.0, size), theirs.uniform(-1.0, 1.0, size), size)
        self.assert_same(ours.uniform(), theirs.uniform(), "after")

    @pytest.mark.parametrize("seed", [0, 5, 7, 2**32])
    def test_pipeline_draws_match_numpy(self, monkeypatch, seed):
        # the same pipeline code drawing from numpy's generator is the oracle:
        # three draws per blob, the radial centres, p draws of n x n
        def draws():
            scn = scenario.GridScenario(grid_side=6, blob_count=4, seed=seed)
            return (scenario.initial_frame(scn),
                    edmd.parse_dictionary("radial:20:0.5", 36, seed).centers,
                    *consensus.Start("random", seed).operators(3, 16))

        ours = draws()
        for module in (scenario, edmd, consensus):
            monkeypatch.setattr(module, "Uniform", np.random.default_rng)
        for a, b in zip(ours, draws(), strict=True):
            self.assert_same(a, b, seed)

    @pytest.mark.parametrize("seed", [-1, -2**64])
    def test_negative_seed_refused(self, seed):
        with pytest.raises(ValueError, match="seed must be a nonnegative integer"):
            Uniform(seed)
        with pytest.raises(ValueError):
            np.random.default_rng(seed)

    @pytest.mark.parametrize("seed", [True, 1.0, "1", None])
    def test_non_integer_seed_refused(self, seed):
        with pytest.raises(ValueError, match="seed must be an integer"):
            Uniform(seed)

    def test_infinite_range_refused(self):
        with pytest.raises(OverflowError):
            Uniform(0).uniform(-1e308, 1e308)
        with pytest.raises(OverflowError):
            np.random.default_rng(0).uniform(-1e308, 1e308)
