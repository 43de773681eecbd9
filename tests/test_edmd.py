import numpy as np
import pytest

from dkoopman.edmd import (MAX_MATRIX_BYTES, Dictionary, KoopmanModel, LiftedData,
                           SnapshotSequence, centralized_solve, lift, monomial_dictionary,
                           objective, parse_dictionary, radial_dictionary, rollout,
                           vectorization_dictionary)
from dkoopman.linalg import DimensionError

from oracles import fit_metric


class TestDictionaries:
    def test_vectorization_is_identity(self):
        d = vectorization_dictionary(3)
        x = np.array([1.0, -2.0, 0.5])
        assert np.array_equal(d.lift_state(x), x)
        assert d.output_dim == 3

    def test_monomial_scalar_degree2(self):
        d = monomial_dictionary(1, 2)
        assert d.output_dim == 3
        assert np.array_equal(d.lift_state([2.0]), [1.0, 2.0, 4.0])
        assert np.array_equal(d.lift_state([3.0]), [1.0, 3.0, 9.0])

    def test_monomial_two_vars(self):
        d = monomial_dictionary(2, 2)
        # ordered by degree: 1, x0, x1, x0^2, x0*x1, x1^2
        assert d.output_dim == 6
        assert np.allclose(d.lift_state([2.0, 3.0]), [1, 2, 3, 4, 6, 9])

    def test_radial(self):
        d = radial_dictionary([[0.0, 0.0], [1.0, 0.0]], width=0.5)
        out = d.lift_state([1.0, 0.0])
        assert out.shape == (2,)
        assert out[1] == pytest.approx(1.0)
        assert out[0] == pytest.approx(np.exp(-1.0 / (2 * 0.25)))

    # 1e200 and 1e-200: 2 * width**2, what the lift divides by, overflows or is 0
    @pytest.mark.parametrize("width", [0.0, -1.0, float("nan"), float("inf"), 1e200, 1e-200])
    def test_radial_width_positive_and_finite(self, width):
        with pytest.raises(ValueError, match="width"):
            radial_dictionary([[0.0, 0.0]], width=width)

    def test_parse_strings(self):
        assert parse_dictionary("vectorization", 4).kind == "vectorization"
        assert parse_dictionary("monomial:3", 2).output_dim == 10
        d = parse_dictionary("radial:5:0.7", 2, seed=3)
        assert d.output_dim == 5 and d.width == 0.7

    @pytest.mark.parametrize("spec, q, bigger, bigger_q", [
        ("vectorization", 16384, "vectorization", 16385),
        ("radial:16384:1", 1, "radial:16385:1", 1),
    ])
    def test_parse_size_cap(self, spec, q, bigger, bigger_q):
        # one n x n float64 array at MAX_MATRIX_BYTES = 2 GiB is allowed, one
        # more feature is refused
        assert 8 * 16384**2 == MAX_MATRIX_BYTES
        assert parse_dictionary(spec, q).output_dim == 16384
        with pytest.raises(ValueError, match="GiB cap"):
            parse_dictionary(bigger, bigger_q)

    def test_parse_size_cap_monomial(self):
        # n = C(q + d, d), counted without building the exponents
        with pytest.raises(ValueError, match="n = 80601 features"):
            parse_dictionary("monomial:2", 400)

    # int and float read other scripts' digits, a sign and "_"; a spec does not
    @pytest.mark.parametrize("spec", ["monomial:\u0663", "monomial:+1", "monomial: 1",
                                      "radial:3:1_0.5", "radial:\u0663:\u0660.\u0665",
                                      "radial:+3:0.5", "radial:3:\u0660.\u0665"])
    def test_parse_numbers_are_ascii(self, spec):
        with pytest.raises(ValueError, match="ASCII"):
            parse_dictionary(spec, 2)

    def test_parse_width_in_exponent_form(self):
        assert parse_dictionary("radial:3:1e2", 2).width == 100.0
        with pytest.raises(ValueError, match="width\\*\\*2 positive and finite"):
            parse_dictionary("radial:3:1e200", 2)

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_dictionary("fourier:2", 3)

    def test_wrong_input_dim(self):
        with pytest.raises(DimensionError):
            vectorization_dictionary(3).lift_state([1.0, 2.0])

    @pytest.mark.parametrize("make, match", [
        (lambda: vectorization_dictionary(0), "input dimension must be positive"),
        (lambda: monomial_dictionary(0, 2), "need q >= 1"),
        (lambda: monomial_dictionary(2, -1), "max_degree >= 0"),
        (lambda: Dictionary("fourier", 2, 2).lift_state([1.0, 2.0]),
         "unknown dictionary kind 'fourier'"),
    ], ids=["vectorization q = 0", "monomial q = 0", "monomial degree -1", "unknown kind"])
    def test_refused(self, make, match):
        with pytest.raises(ValueError, match=match):
            make()


class TestLift:
    def test_vectorization_example(self):
        seq = SnapshotSequence(np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]))
        data = lift(seq, vectorization_dictionary(2))
        assert np.array_equal(data.X, [[1.0, 3.0], [2.0, 4.0]])
        assert np.array_equal(data.Y, [[3.0, 5.0], [4.0, 6.0]])

    def test_monomial_example(self):
        seq = SnapshotSequence(np.array([[2.0], [3.0]]))
        data = lift(seq, monomial_dictionary(1, 2))
        assert np.array_equal(data.X, [[1.0], [2.0], [4.0]])
        assert np.array_equal(data.Y, [[1.0], [3.0], [9.0]])

    def test_dimension_mismatch(self):
        seq = SnapshotSequence(np.zeros((3, 2)))
        with pytest.raises(DimensionError):
            lift(seq, vectorization_dictionary(3))

    def test_sequence_validation(self):
        with pytest.raises(DimensionError):
            SnapshotSequence(np.zeros((1, 4)))
        with pytest.raises(ValueError):
            SnapshotSequence(np.array([[0.0], [np.inf]]))


# each value class takes linalg.as_matrix's rule: a non-2-D array is a
# DimensionError, a non-finite entry a plain ValueError
VALUE_CLASSES = {
    "SnapshotSequence": SnapshotSequence,
    "LiftedData.X": lambda a: LiftedData(X=a, Y=np.ones_like(a)),
    "LiftedData.Y": lambda a: LiftedData(X=np.ones_like(a), Y=a),
    "KoopmanModel": KoopmanModel,
}


@pytest.mark.parametrize("make", VALUE_CLASSES.values(), ids=VALUE_CLASSES.keys())
def test_value_classes_refuse_bad_arrays(make):
    with pytest.raises(DimensionError):
        make(np.ones(4))
    with pytest.raises(ValueError) as info:
        make(np.array([[1.0, np.nan], [0.0, 1.0]]))
    assert type(info.value) is ValueError


def test_operator_must_be_square():
    with pytest.raises(DimensionError, match=r"square, got shape \(2, 3\)"):
        KoopmanModel(np.ones((2, 3)))


class TestCentralizedSolve:
    def test_identity_data(self):
        rng = np.random.default_rng(0)
        Y = rng.standard_normal((4, 4))
        model = centralized_solve(LiftedData(X=np.eye(4), Y=Y))
        assert np.allclose(model.K, Y, atol=1e-12)

    def test_exact_scalar(self):
        model = centralized_solve(LiftedData(X=np.array([[1.0, 2.0]]),
                                             Y=np.array([[2.0, 4.0]])))
        assert model.K == pytest.approx(np.array([[2.0]]))

    def test_minimal_norm_completion(self):
        data = LiftedData(X=np.array([[1.0], [0.0]]), Y=np.array([[2.0], [0.0]]))
        model = centralized_solve(data)
        assert np.allclose(model.K, [[2.0, 0.0], [0.0, 0.0]], atol=1e-12)

    def test_stationarity_all_rank_profiles(self):
        rng = np.random.default_rng(99)
        for _ in range(60):
            n = int(rng.integers(1, 9))
            N = int(rng.integers(1, 21))
            r = int(rng.integers(1, min(n, N) + 1))
            X = rng.standard_normal((n, r)) @ rng.standard_normal((r, N))
            Y = rng.standard_normal((n, N))
            data = LiftedData(X=X, Y=Y)
            K = centralized_solve(data).K
            resid = np.linalg.norm((K @ X - Y) @ X.T)
            assert resid <= 1e-8 * (1.0 + np.linalg.norm(Y) * np.linalg.norm(X))

    def test_unique_minimizer_when_full_row_rank(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((3, 12))
        Y = rng.standard_normal((3, 12))
        data = LiftedData(X=X, Y=Y)
        star = centralized_solve(data)
        base = objective(star, data)
        for _ in range(100):
            delta = rng.standard_normal((3, 3))
            assert objective(KoopmanModel(star.K + delta), data) > base

    def test_rows_live_in_range_of_x(self):
        rng = np.random.default_rng(17)
        X = rng.standard_normal((6, 3)) @ rng.standard_normal((3, 10))
        Y = rng.standard_normal((6, 10))
        K = centralized_solve(LiftedData(X=X, Y=Y)).K
        from dkoopman.linalg import pseudoinverse
        projector = X @ pseudoinverse(X)
        assert np.linalg.norm(K @ (np.eye(6) - projector)) <= 1e-9 * (1 + np.linalg.norm(K))


class TestObjective:
    def test_exact_fit_is_zero(self):
        data = LiftedData(X=np.array([[1.0, 2.0]]), Y=np.array([[2.0, 4.0]]))
        assert objective(centralized_solve(data), data) == pytest.approx(0.0, abs=1e-20)

    def test_zero_model(self):
        Y = np.array([[3.0, 4.0]]) / np.sqrt(1.0)  # ||Y||_F = 5
        data = LiftedData(X=np.ones((1, 2)), Y=Y)
        assert objective(KoopmanModel(np.zeros((1, 1))), data) == pytest.approx(12.5)

    def test_centralized_beats_random(self):
        rng = np.random.default_rng(21)
        X = rng.standard_normal((4, 9))
        Y = rng.standard_normal((4, 9))
        data = LiftedData(X=X, Y=Y)
        best = objective(centralized_solve(data), data)
        for _ in range(100):
            assert best <= objective(KoopmanModel(rng.standard_normal((4, 4))), data)

    def test_shape_mismatch(self):
        data = LiftedData(X=np.ones((2, 3)), Y=np.ones((2, 3)))
        with pytest.raises(DimensionError):
            objective(KoopmanModel(np.eye(3)), data)


class TestRollout:
    def test_identity(self):
        z0 = np.array([1.0, -1.0])
        out = rollout(KoopmanModel(np.eye(2)), z0, 3)
        assert out.shape == (4, 2)
        assert np.array_equal(out, np.tile(z0, (4, 1)))

    def test_halving(self):
        out = rollout(KoopmanModel(np.array([[0.5]])), [8.0], 3)
        assert np.array_equal(out.ravel(), [8.0, 4.0, 2.0, 1.0])

    def test_reproduces_linear_system(self):
        rng = np.random.default_rng(8)
        A = 0.9 * rng.standard_normal((3, 3)) / np.sqrt(3)
        x = rng.standard_normal(3)
        states = [x]
        for _ in range(12):
            states.append(A @ states[-1])
        seq = SnapshotSequence(np.array(states))
        data = lift(seq, vectorization_dictionary(3))
        model = centralized_solve(data)
        pred = rollout(model, states[0], 12)
        assert np.abs(pred - np.array(states)).max() <= 1e-8

    def test_validation(self):
        with pytest.raises(DimensionError):
            rollout(KoopmanModel(np.eye(2)), [1.0], 2)
        with pytest.raises(ValueError):
            rollout(KoopmanModel(np.eye(2)), [1.0, 2.0], -1)


class TestFitMetric:
    def test_single_exact(self):
        data = LiftedData(X=np.array([[1.0, 2.0]]), Y=np.array([[2.0, 4.0]]))
        assert fit_metric([centralized_solve(data)], data) == pytest.approx(0.0, abs=1e-12)

    def test_mean_of_exact_and_zero(self):
        X = np.eye(2)
        Y = np.array([[4.0, 0.0], [0.0, 0.0]])  # ||Y||_F = 4
        data = LiftedData(X=X, Y=Y)
        exact = KoopmanModel(Y)
        zero = KoopmanModel(np.zeros((2, 2)))
        assert fit_metric([exact, zero], data) == pytest.approx(2.0)

    def test_lower_bounded_by_best_model(self):
        rng = np.random.default_rng(33)
        data = LiftedData(X=rng.standard_normal((3, 7)), Y=rng.standard_normal((3, 7)))
        models = [KoopmanModel(rng.standard_normal((3, 3))) for _ in range(5)]
        best = min(float(np.linalg.norm(data.Y - m.K @ data.X)) for m in models)
        assert fit_metric(models, data) >= best

    def test_empty_rejected(self):
        data = LiftedData(X=np.ones((1, 1)), Y=np.ones((1, 1)))
        with pytest.raises(ValueError):
            fit_metric([], data)

    def test_dimension_mismatch(self):
        data = LiftedData(X=np.ones((2, 3)), Y=np.ones((2, 3)))
        with pytest.raises(DimensionError, match="operator dim 3 != data feature dim 2"):
            fit_metric([KoopmanModel(np.eye(2)), KoopmanModel(np.eye(3))], data)
