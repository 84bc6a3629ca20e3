import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from _synth import beacon_dataset, regression_testbed
from rssiloc.ensemble import treeloc_fit
from rssiloc.exceptions import (EmptyDataset, EmptyTrainingSet, KTooLarge,
                                ShapeMismatch)
from rssiloc.ingest import RegressionDataset, one_hot_encode
from rssiloc.learners import (Forest, KnnModel, MlpModel, PairedRegressor,
                              fit_extra_trees, fit_forest, fit_knn, fit_linear,
                              fit_polynomial, fit_tree, load_model, mlp_backprop,
                              mlp_forward, mlp_train, model_from_dict,
                              polynomial_features, save_model, softmax,
                              train_test_split_indices)


class TestLinear:
    def test_exact_affine_data(self):
        model = fit_linear(np.array([[0.0], [1.0], [2.0]]),
                           np.array([1.0, 3.0, 5.0]))
        np.testing.assert_allclose(model.theta.ravel(), [1.0, 2.0], atol=1e-12)

    def test_predict_at_ten(self):
        model = fit_linear(np.array([[0.0], [1.0], [2.0]]),
                           np.array([1.0, 3.0, 5.0]))
        assert model.predict(np.array([10.0])) == pytest.approx(21.0)

    def test_duplicate_columns_leave_predictions_unchanged(self):
        rng = np.random.default_rng(5)
        x = rng.normal(0, 1, (40, 2))
        y = x @ [2.0, -1.0] + 0.5 + rng.normal(0, 0.1, 40)
        base = fit_linear(x, y)
        doubled = fit_linear(np.hstack([x, x]), y)
        np.testing.assert_allclose(doubled.predict(np.hstack([x, x])),
                                   base.predict(x), atol=1e-8)

    def test_residuals_orthogonal_to_design(self):
        rng = np.random.default_rng(7)
        x = rng.normal(0, 1, (100, 3))
        y = rng.normal(0, 1, 100)
        model = fit_linear(x, y)
        design = np.hstack([np.ones((100, 1)), x])
        residual = y - model.predict(x)
        np.testing.assert_allclose(design.T @ residual, 0.0, atol=1e-8)

    def test_multi_output(self):
        rng = np.random.default_rng(9)
        x = rng.normal(0, 1, (50, 3))
        y = np.column_stack([x @ [1.0, 2.0, 3.0], x @ [-1.0, 0.5, 0.0] + 2.0])
        model = fit_linear(x, y)
        np.testing.assert_allclose(model.predict(x), y, atol=1e-10)

    def test_empty_dataset(self):
        with pytest.raises(EmptyDataset):
            fit_linear(np.empty((0, 3)), np.empty(0))


class TestPolynomial:
    def test_quadratic_recovered(self):
        x = np.array([[0.0], [1.0], [2.0], [3.0]])
        model = fit_polynomial(x, np.array([0.0, 1.0, 4.0, 9.0]), degree=2)
        np.testing.assert_allclose(model.theta.ravel(), [0.0, 0.0, 1.0],
                                   atol=1e-9)

    def test_degree_one_matches_linear(self):
        rng = np.random.default_rng(11)
        x = rng.normal(0, 1, (30, 2))
        y = rng.normal(0, 1, 30)
        poly = fit_polynomial(x, y, degree=1)
        linear = fit_linear(x, y)
        np.testing.assert_allclose(poly.predict(x), linear.predict(x),
                                   atol=1e-10)

    def test_constant_targets_give_intercept_only(self):
        x = np.array([[0.0], [1.0], [2.0], [3.0]])
        model = fit_polynomial(x, np.full(4, 7.0), degree=3)
        assert model.theta[0, 0] == pytest.approx(7.0, abs=1e-9)
        np.testing.assert_allclose(model.theta[1:], 0.0, atol=1e-9)

    def test_cross_terms_expansion(self):
        x = np.array([[2.0, 3.0]])
        plain = polynomial_features(x, 2)
        crossed = polynomial_features(x, 2, cross_terms=True)
        np.testing.assert_allclose(plain, [[2.0, 3.0, 4.0, 9.0]])
        np.testing.assert_allclose(crossed, [[2.0, 3.0, 4.0, 6.0, 9.0]])

    def test_one_dimensional_features_are_one_column(self):
        x = np.array([1.0, 2.0, 3.0])
        np.testing.assert_array_equal(polynomial_features(x, 2),
                                      [[1.0, 1.0], [2.0, 4.0], [3.0, 9.0]])
        np.testing.assert_array_equal(polynomial_features(x, 2, cross_terms=True),
                                      polynomial_features(x[:, None], 2))


class TestTree:
    def test_single_sample_is_leaf(self):
        tree = fit_tree(np.array([[1.0, 2.0]]), np.array([5.0]))
        assert tree.root.is_leaf
        assert tree.predict(np.array([9.0, 9.0])) == 5.0

    def test_depth_one_split_matches_enumeration(self):
        x = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0.0, 0.0, 10.0, 10.0])
        tree = fit_tree(x, y, max_depth=1)

        def sse_for(threshold):
            mask = x[:, 0] <= threshold
            return (((y[mask] - y[mask].mean()) ** 2).sum()
                    + ((y[~mask] - y[~mask].mean()) ** 2).sum())

        candidates = [0.5, 1.5, 2.5]
        best = min(candidates, key=sse_for)
        assert tree.root.threshold == best
        assert 1.0 < tree.root.threshold < 2.0
        assert tree.root.left.value == 0.0
        assert tree.root.right.value == 10.0

    def test_distinct_inputs_memorized(self):
        rng = np.random.default_rng(13)
        x = rng.normal(0, 1, (40, 2))
        y = rng.normal(0, 1, 40)
        tree = fit_tree(x, y)
        np.testing.assert_allclose(tree.predict(x), y, atol=1e-12)

    def test_predictions_bounded_by_targets(self):
        rng = np.random.default_rng(17)
        x = rng.normal(0, 1, (60, 3))
        y = rng.uniform(-5, 5, 60)
        tree = fit_tree(x, y, max_depth=3)
        queries = rng.normal(0, 2, (200, 3))
        preds = tree.predict(queries)
        assert preds.min() >= y.min() - 1e-12
        assert preds.max() <= y.max() + 1e-12

    def test_leaf_value_is_mean_of_members(self):
        x = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([1.0, 2.0, 30.0, 34.0])
        tree = fit_tree(x, y, max_depth=1)
        assert tree.root.left.value == pytest.approx(1.5)
        assert tree.root.right.value == pytest.approx(32.0)

    def test_min_leaf_respected(self):
        rng = np.random.default_rng(19)
        x = rng.normal(0, 1, (30, 1))
        y = rng.normal(0, 1, 30)
        tree = fit_tree(x, y, min_leaf=5)

        def check(node):
            if node.is_leaf:
                assert node.n_samples >= 5
            else:
                check(node.left)
                check(node.right)
        check(tree.root)

    def test_two_dim_targets_give_paired_trees(self):
        rng = np.random.default_rng(23)
        x = rng.normal(0, 1, (30, 2))
        y = rng.normal(0, 1, (30, 2))
        model = fit_tree(x, y)
        assert isinstance(model, PairedRegressor)
        assert model.predict(x).shape == (30, 2)

    def test_random_mode_deterministic_under_seed(self):
        rng = np.random.default_rng(29)
        x = rng.normal(0, 1, (50, 3))
        y = rng.normal(0, 1, 50)
        a = fit_tree(x, y, split_mode="random", rng_seed=4)
        b = fit_tree(x, y, split_mode="random", rng_seed=4)
        q = rng.normal(0, 1, (20, 3))
        np.testing.assert_array_equal(a.predict(q), b.predict(q))


class TestForest:
    def test_single_tree_no_bootstrap_equals_tree(self):
        rng = np.random.default_rng(31)
        x = rng.normal(0, 1, (40, 2))
        y = rng.normal(0, 1, 40)
        forest = fit_forest(x, y, n_trees=1, bootstrap=False)
        tree = fit_tree(x, y)
        q = rng.normal(0, 1, (15, 2))
        np.testing.assert_array_equal(forest.predict(q), tree.predict(q))

    def test_prediction_is_mean_of_members(self):
        rng = np.random.default_rng(37)
        x = rng.normal(0, 1, (60, 2))
        y = rng.normal(0, 1, 60)
        forest = fit_forest(x, y, n_trees=7, rng_seed=2)
        q = rng.normal(0, 1, (25, 2))
        member_mean = np.mean([t.predict(q) for t in forest.trees], axis=0)
        np.testing.assert_array_equal(forest.predict(q), member_mean)

    def test_seed_determinism(self):
        rng = np.random.default_rng(41)
        x = rng.normal(0, 1, (50, 3))
        y = rng.normal(0, 1, 50)
        q = rng.normal(0, 1, (10, 3))
        a = fit_forest(x, y, n_trees=5, rng_seed=7).predict(q)
        b = fit_forest(x, y, n_trees=5, rng_seed=7).predict(q)
        c = fit_forest(x, y, n_trees=5, rng_seed=8).predict(q)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_unknown_split_mode_rejected(self):
        # fit_forest used to grow extra trees for any mode but "exhaustive"
        x, y = np.arange(8.0).reshape(4, 2), np.arange(4.0)
        for fit in (fit_tree, fit_forest):
            with pytest.raises(ValueError, match="split_mode"):
                fit(x, y, split_mode="exhaustiv")

    def test_extra_trees_uses_whole_dataset(self):
        # with unlimited depth and no bootstrap every tree memorizes the
        # training set, so the ensemble does too
        rng = np.random.default_rng(43)
        x = rng.normal(0, 1, (40, 2))
        y = rng.normal(0, 1, 40)
        model = fit_extra_trees(x, y, n_trees=5, rng_seed=1)
        np.testing.assert_allclose(model.predict(x), y, atol=1e-12)


class TestKnn:
    def test_exact_training_point(self):
        x = np.array([[0.0, 0.0], [5.0, 5.0], [9.0, 1.0]])
        model = fit_knn(x, [2, 0, 1], k=1)
        query = np.array([5.0, 5.0])
        assert model.predict(query) == 0
        assert model.predict_proba(query)[0] == 1.0

    def test_euclidean_three_four_five(self):
        a = np.zeros(13)
        b = np.zeros(13)
        b[0], b[1] = 3.0, 4.0
        assert np.linalg.norm(a - b) == 5.0
        assert fit_knn(np.array([b]), [3], k=1).predict(a) == 3

    def test_majority_vote_probabilities(self):
        x = np.array([[0.0], [0.1], [0.2], [9.0]])
        model = fit_knn(x, [0, 0, 1, 2], k=3, n_classes=4)
        query = np.array([0.0])
        assert model.predict(query) == 0
        np.testing.assert_allclose(model.predict_proba(query), [2 / 3, 1 / 3, 0.0, 0.0])

    def test_probabilities_sum_to_one_in_grid(self):
        rng = np.random.default_rng(47)
        x = rng.normal(0, 1, (30, 4))
        labels = rng.integers(0, 4, 30)
        for k in (1, 3, 7, 30):
            probs = fit_knn(x, labels, k=k).predict_proba(rng.normal(0, 1, 4))
            assert probs.sum() == pytest.approx(1.0)
            assert all(abs(p * k - round(p * k)) < 1e-9 for p in probs)

    def test_tie_breaks_to_smallest_class(self):
        model = fit_knn(np.array([[0.0], [1.0]]), [1, 0], k=2)
        query = np.array([0.5])
        np.testing.assert_allclose(model.predict_proba(query), [0.5, 0.5])
        assert model.predict(query) == 0

    def test_errors(self):
        with pytest.raises(EmptyTrainingSet):
            fit_knn(np.empty((0, 2)), [], k=1).predict_proba(np.zeros(2))
        with pytest.raises(KTooLarge):
            fit_knn(np.zeros((2, 2)), [0, 1], k=3).predict_proba(np.zeros(2))


class TestMlp:
    def test_zero_weights_uniform_output(self):
        model = MlpModel(
            weights=(np.zeros((20, 13)), np.zeros((17, 20)), np.zeros((4, 17))),
            biases=(np.zeros(20), np.zeros(17), np.zeros(4)))
        probs = mlp_forward(model, np.ones(13))
        np.testing.assert_allclose(probs, 0.25)

    def test_softmax_shift_invariance(self):
        model = MlpModel.create(rng_seed=3)
        x = np.random.default_rng(0).normal(0, 1, 13)
        base = mlp_forward(model, x)
        shifted = MlpModel(weights=model.weights,
                           biases=model.biases[:-1] + (model.biases[-1] + 5.0,))
        np.testing.assert_allclose(mlp_forward(shifted, x), base, atol=1e-12)

    def test_softmax_positive_and_normalized(self):
        rng = np.random.default_rng(53)
        z = rng.normal(0, 50, (40, 4))
        probs = softmax(z)
        assert np.all(probs > 0)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)

    def test_shape_mismatch(self):
        model = MlpModel.create(rng_seed=0)
        with pytest.raises(ShapeMismatch):
            mlp_forward(model, np.ones(12))

    def test_input_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(59)
        model = MlpModel.create(rng_seed=61)
        x = rng.normal(0, 1, (3, 13))
        y = one_hot_encode(rng.integers(0, 4, 3), 4)
        _, _, _, gx = mlp_backprop(model, x, y)
        eps = 1e-5
        num = np.zeros_like(gx)
        for i in range(x.shape[0]):
            for j in range(x.shape[1]):
                xp, xm = x.copy(), x.copy()
                xp[i, j] += eps
                xm[i, j] -= eps
                lp = mlp_backprop(model, xp, y)[0]
                lm = mlp_backprop(model, xm, y)[0]
                num[i, j] = (lp - lm) / (2 * eps)
        rel = (np.linalg.norm(gx - num)
               / max(np.linalg.norm(gx), np.linalg.norm(num)))
        assert rel < 1e-4

    def test_weight_gradients_match_finite_differences(self):
        rng = np.random.default_rng(67)
        model = MlpModel.create(rng_seed=71)
        x = rng.normal(0, 1, (3, 13))
        y = one_hot_encode(rng.integers(0, 4, 3), 4)
        _, gw, gb, _ = mlp_backprop(model, x, y)
        eps = 1e-5
        for layer in range(3):
            analytic = gw[layer]
            num = np.zeros_like(analytic)
            for i in range(analytic.shape[0]):
                for j in range(analytic.shape[1]):
                    ws_p = [w.copy() for w in model.weights]
                    ws_m = [w.copy() for w in model.weights]
                    ws_p[layer][i, j] += eps
                    ws_m[layer][i, j] -= eps
                    lp = mlp_backprop(MlpModel(tuple(ws_p), model.biases), x, y)[0]
                    lm = mlp_backprop(MlpModel(tuple(ws_m), model.biases), x, y)[0]
                    num[i, j] = (lp - lm) / (2 * eps)
            rel = (np.linalg.norm(analytic - num)
                   / max(np.linalg.norm(analytic), np.linalg.norm(num)))
            assert rel < 1e-4

    def test_zero_learning_rate_keeps_weights(self):
        features, _, one_hot = beacon_dataset(0, n=40)
        model = MlpModel.create(rng_seed=5)
        trained = mlp_train(model, features, one_hot, lr=0.0,
                            batch_size=10, epochs=3, rng_seed=1)
        for w0, w1 in zip(model.weights, trained.weights):
            np.testing.assert_array_equal(w0, w1)

    def test_separable_toy_set_reaches_perfect_accuracy(self):
        rng = np.random.default_rng(0)
        x = rng.normal(0, 1, (60, 13))
        labels = (x[:, 0] + x[:, 1] > 0).astype(int)
        x[labels == 1, 0] += 2.0
        x[labels == 0, 0] -= 2.0
        y = one_hot_encode(labels, 4)
        model = MlpModel.create(rng_seed=3)
        net = mlp_train(model, x, y, lr=0.05, batch_size=10, epochs=200, rng_seed=1)
        assert np.mean(net.predict(x) == labels) == 1.0

    def test_training_is_deterministic(self):
        features, _, one_hot = beacon_dataset(1, n=60)
        model = MlpModel.create(rng_seed=2)
        a = mlp_train(model, features, one_hot, lr=0.01, batch_size=10,
                      epochs=5, rng_seed=9)
        b = mlp_train(model, features, one_hot, lr=0.01, batch_size=10,
                      epochs=5, rng_seed=9)
        for wa, wb in zip(a.weights, b.weights):
            np.testing.assert_array_equal(wa, wb)


class TestDatasetsAndSplits:
    def test_regression_dataset_validates(self):
        with pytest.raises(EmptyDataset):
            RegressionDataset(features=np.empty((0, 3)),
                              targets=np.empty((0, 2)))
        with pytest.raises(ShapeMismatch):
            RegressionDataset(features=np.zeros((3, 3)),
                              targets=np.zeros((2, 2)))

    def test_split_partition(self):
        rng = np.random.default_rng(73)
        train, test = train_test_split_indices(100, 0.2, rng)
        assert len(train) == 80 and len(test) == 20
        assert sorted(np.concatenate([train, test]).tolist()) == list(range(100))


class TestSerialization:
    def model_zoo(self):
        rssi, targets, _, _ = regression_testbed(3, n=60)
        x1 = rssi
        y1 = targets[:, 0]
        features, labels, one_hot = beacon_dataset(3, n=40)
        return [
            fit_linear(x1, targets),
            fit_polynomial(x1, y1, degree=2),
            fit_tree(x1, y1, max_depth=4),
            fit_tree(x1, targets, max_depth=3),
            fit_forest(x1, y1, n_trees=3, max_depth=4, rng_seed=1),
            fit_extra_trees(x1, y1, n_trees=3, max_depth=4, rng_seed=1),
            fit_knn(features, labels, k=3),
            MlpModel.create(rng_seed=11),
            fit_linear(x1, y1),
            treeloc_fit(x1, targets, extra_trees=3, forest_trees=3, tree_depth=4),
        ]

    def test_round_trip_preserves_predictions(self, tmp_path):
        rssi, _, _, _ = regression_testbed(4, n=20)
        features, _, _ = beacon_dataset(4, n=10)
        for i, model in enumerate(self.model_zoo()):
            path = tmp_path / f"model_{i}.json"
            save_model(model, path)
            loaded = load_model(path)
            assert type(loaded) is type(model)
            q = features if isinstance(model, (KnnModel, MlpModel)) else rssi
            if isinstance(model, MlpModel):
                np.testing.assert_allclose(mlp_forward(loaded, q),
                                           mlp_forward(model, q), atol=1e-15)
            else:
                np.testing.assert_allclose(loaded.predict(q),
                                           model.predict(q), atol=1e-15)

    def test_one_row_is_its_batch_row(self):
        # every model answers one row with its row of the batch: a Python
        # float from a scalar regressor, an int label, else an ndarray. numpy
        # hands a one-row matrix product to BLAS gemv and a batch to gemm,
        # which order the sums differently, so the network's outputs may
        # differ in the last bits; all others match bit for bit
        rssi, _, _, _ = regression_testbed(4, n=20)
        features, _, _ = beacon_dataset(4, n=10)
        (linear, poly, tree, paired, forest, extra, knn, mlp, linear_1,
         treeloc) = self.model_zoo()
        assert isinstance(paired, PairedRegressor) and isinstance(forest, Forest)
        cases = [(tree.predict, rssi, float, True), (paired.predict, rssi, np.ndarray, True),
                 (forest.predict, rssi, float, True), (extra.predict, rssi, float, True),
                 (treeloc.predict, rssi, np.ndarray, True), (knn.predict, features, int, True),
                 (knn.predict_proba, features, np.ndarray, True),
                 (mlp.predict, features, int, True),
                 (linear.predict, rssi, np.ndarray, True),
                 (linear_1.predict, rssi, float, True), (poly.predict, rssi, float, True),
                 (lambda x: mlp_forward(mlp, x), features, np.ndarray, False)]
        for predict, x, kind, exact in cases:
            batch = predict(x)
            for row, want in zip(x, batch):
                got = predict(row)
                assert type(got) is kind
                assert np.asarray(got).dtype == want.dtype
                if exact:
                    assert np.asarray(got).tobytes() == want.tobytes()
                else:
                    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 40), f=st.integers(1, 12),
           k=st.integers(1, 3), degree=st.integers(1, 3), cross=st.booleans(),
           data=st.data())
    def test_linear_rows_alone_get_their_batch_bits(self, seed, n, f, k, degree, cross,
                                                     data):
        # any contiguous slice of rows, a lone row included, predicts the
        # whole batch's bits on those rows
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n + 5, f)) * 10.0 ** rng.uniform(-3, 3, f)
        y = rng.normal(size=(n + 5, k))
        models = [fit_linear(x, y), fit_linear(x, y[:, 0]),
                  fit_polynomial(x, y, degree=degree, cross_terms=cross)]
        start = data.draw(st.integers(0, n - 1))
        stop = data.draw(st.integers(start + 1, n))
        for model in models:
            batch = np.asarray(model.predict(x[:n]))
            assert np.asarray(model.predict(x[start:stop])).tobytes() \
                == batch[start:stop].tobytes()
            assert np.asarray(model.predict(x[start])).tobytes() == batch[start].tobytes()

    def test_record_structure(self):
        model = fit_linear(np.array([[0.0], [1.0]]), np.array([0.0, 1.0]))
        record = model.to_dict()
        assert record["format"] == "rssiloc-model"
        assert record["version"] == 1
        assert record["kind"] == "linear"
        assert set(record) == {"format", "version", "kind",
                               "hyperparameters", "parameters"}

    def test_rejects_foreign_records(self):
        with pytest.raises(ValueError):
            model_from_dict({"format": "something-else"})
        with pytest.raises(ValueError):
            model_from_dict({"format": "rssiloc-model", "version": 1,
                             "kind": "nope"})

    def test_versions_are_checked_per_kind(self):
        # Each kind loads only the version it writes; a bool version was
        # accepted as 1 because True == 1.
        x = np.array([[0.0], [1.0], [2.0], [3.0], [4.0], [5.0]])
        labels = np.array([0, 1, 2, 3, 0, 1])
        records = {
            "linear": (1, fit_linear(x, x[:, 0])),
            "polynomial": (1, fit_polynomial(x, x[:, 0], degree=2)),
            "tree": (3, fit_tree(x, x[:, 0], max_depth=1)),
            "forest": (4, fit_forest(x, x[:, 0], n_trees=2, max_depth=1)),
            "paired": (1, fit_tree(x, np.hstack([x, x]), max_depth=1)),
            "knn": (1, fit_knn(x, labels, k=3)),
            "mlp": (2, MlpModel.create(sizes=(1, 3, 4))),
            "treeloc": (1, treeloc_fit(x, np.hstack([x, x]), tree_depth=1,
                                       forest_trees=2, extra_trees=2)),
        }
        for kind, (accepted, model) in records.items():
            record = model.to_dict()
            assert record["kind"] == kind
            assert record["version"] == accepted
            model_from_dict(record)
            for version in (0, 1, 2, 3, 4, 5, True, False, 1.0, 3.0, "1", "3", None):
                if version == accepted and type(version) is int:
                    continue
                with pytest.raises(ValueError, match="unsupported model version"):
                    model_from_dict({**record, "version": version})
