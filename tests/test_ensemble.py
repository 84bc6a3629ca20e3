import dataclasses

import numpy as np
import pytest

from _synth import regression_testbed
from rssiloc import ensemble, learners
from rssiloc.cli import main
from rssiloc.ensemble import (REFERENCE_COMBINER_X, REFERENCE_COMBINER_Y,
                              TreeLocModel, _thirds,
                              treeloc_fit, treeloc_predict, treeloc_reference)
from rssiloc.exceptions import TooFewSamples
from rssiloc.ingest import write_csv
from rssiloc.learners import fit_linear, load_model, model_from_dict


def rmse(a, b):
    return float(np.sqrt(np.mean((np.asarray(a) - np.asarray(b)) ** 2)))


class TestReferenceCombiner:
    def test_intercepts(self):
        model = treeloc_reference()
        out = model.combine([0.0, 0.0, 0.0], [0.0, 0.0, 0.0])
        assert out[0] == pytest.approx(-0.9494, abs=1e-12)
        assert out[1] == pytest.approx(-0.8348, abs=1e-12)

    def test_all_components_at_ten(self):
        model = treeloc_reference()
        out = model.combine([10.0, 10.0, 10.0], [10.0, 10.0, 10.0])
        assert out[0] == pytest.approx(17.7746, abs=1e-12)

    def test_arbitrary_outputs_match_hand_arithmetic(self):
        rng = np.random.default_rng(1)
        model = treeloc_reference()
        for _ in range(100):
            cx = rng.uniform(-50, 450, 3)
            cy = rng.uniform(-50, 450, 3)
            out = model.combine(cx, cy)
            bx, by = REFERENCE_COMBINER_X, REFERENCE_COMBINER_Y
            want_x = bx[0] + bx[1] * cx[0] + bx[2] * cx[1] + bx[3] * cx[2]
            want_y = by[0] + by[1] * cy[0] + by[2] * cy[1] + by[3] * cy[2]
            assert abs(out[0] - want_x) < 1e-12
            assert abs(out[1] - want_y) < 1e-12

    def test_batch_combine(self):
        model = treeloc_reference()
        comp = np.tile([10.0, 10.0, 10.0], (4, 1))
        out = model.combine(comp, comp)
        assert out.shape == (4, 2)
        np.testing.assert_allclose(out[:, 0], 17.7746, atol=1e-12)


class TestCombinerRegression:
    def test_perfect_first_component_minimal_norm(self):
        rng = np.random.default_rng(2)
        truth = rng.uniform(0, 400, 50)
        preds = np.column_stack([truth, np.zeros(50), np.zeros(50)])
        coef = fit_linear(preds, truth).theta[:, 0]
        np.testing.assert_allclose(coef, [0.0, 1.0, 0.0, 0.0], atol=1e-9)
        fitted = coef[0] + preds @ coef[1:]
        assert rmse(fitted, truth) < 1e-9

    def test_collinear_components_finite_and_projective(self):
        # identical components that already equal the truth: the
        # pseudo-inverse spreads weight but reproduces the prediction
        rng = np.random.default_rng(3)
        truth = rng.uniform(0, 400, 50)
        preds = np.column_stack([truth, truth, truth])
        coef = fit_linear(preds, truth).theta[:, 0]
        assert np.all(np.isfinite(coef))
        fitted = coef[0] + preds @ coef[1:]
        np.testing.assert_allclose(fitted, truth, atol=1e-9)

    def test_thirds_partition_sizes(self):
        assert _thirds(6) == (slice(0, 2), slice(2, 4), slice(4, 6))
        s1, s2, s3 = _thirds(10)
        assert (s1, s2) == (slice(0, 3), slice(3, 6))
        assert s3 == slice(6, 10)  # remainder rows go to the last third


class TestTreelocFit:
    def test_too_few_samples(self):
        with pytest.raises(TooFewSamples):
            treeloc_fit(np.zeros((5, 3)), np.zeros((5, 2)))

    def test_determinism_under_seed(self):
        rssi, targets, _, _ = regression_testbed(5, n=90)
        a = treeloc_fit(rssi, targets, rng_seed=4, forest_trees=5,
                        extra_trees=5)
        b = treeloc_fit(rssi, targets, rng_seed=4, forest_trees=5,
                        extra_trees=5)
        np.testing.assert_array_equal(a.predict(rssi), b.predict(rssi))
        assert a.to_dict() == b.to_dict()

    def test_in_sample_dominance_per_coordinate(self):
        rssi, targets, _, _ = regression_testbed(6, n=240)
        model = treeloc_fit(rssi, targets, rng_seed=0, forest_trees=10,
                            extra_trees=10)
        combined = model.predict(rssi)
        comps = model.component_predictions(rssi)
        for coord in range(2):
            best = min(rmse(comps[:, j, coord], targets[:, coord])
                       for j in range(3))
            assert rmse(combined[:, coord], targets[:, coord]) <= best * (1 + 1e-12)

    def test_component_permutation_invariance(self):
        rssi, targets, _, _ = regression_testbed(7, n=90)
        model = treeloc_fit(rssi, targets, rng_seed=1, forest_trees=4,
                            extra_trees=4)
        perm = (2, 0, 1)
        permuted = TreeLocModel(
            components=tuple(model.components[i] for i in perm),
            combiner_x=(model.combiner_x[0],) + tuple(model.combiner_x[1 + i]
                                                      for i in perm),
            combiner_y=(model.combiner_y[0],) + tuple(model.combiner_y[1 + i]
                                                      for i in perm),
            mode=model.mode)
        np.testing.assert_allclose(permuted.predict(rssi),
                                   model.predict(rssi), atol=1e-12)

    def test_predict_alias(self):
        rssi, targets, _, _ = regression_testbed(9, n=60)
        model = treeloc_fit(rssi, targets, rng_seed=0, forest_trees=3,
                            extra_trees=3)
        np.testing.assert_array_equal(treeloc_predict(model, rssi),
                                      model.predict(rssi))

    def test_serialization_round_trip(self, tmp_path):
        rssi, targets, _, _ = regression_testbed(10, n=60)
        model = treeloc_fit(rssi, targets, rng_seed=3, forest_trees=3,
                            extra_trees=3)
        record = model.to_dict()
        assert record["kind"] == "treeloc"
        loaded = model_from_dict(record)
        np.testing.assert_allclose(loaded.predict(rssi), model.predict(rssi),
                                   atol=1e-15)
        path = tmp_path / "treeloc.json"
        import json
        path.write_text(json.dumps(record))
        np.testing.assert_allclose(load_model(path).predict(rssi),
                                   model.predict(rssi), atol=1e-15)


class TestFixedCoefficients:
    """--fixed-coefficients fits the three components and keeps the
    published combiners: no combiner fit, and one node block a step."""

    RSSI, TARGETS, _, _ = regression_testbed(11, n=60)

    def replaced(self, x, y, seed):
        """The model as the CLI used to build it: a fitted model with the
        reference combiners swapped in."""
        return dataclasses.replace(
            treeloc_fit(x, y, rng_seed=seed, forest_trees=3, extra_trees=3),
            combiner_x=REFERENCE_COMBINER_X, combiner_y=REFERENCE_COMBINER_Y, mode="reference")

    @staticmethod
    def refuse(*args):
        raise AssertionError("fit_linear called")

    def test_fit_equals_the_replaced_model_without_a_combiner_fit(self, monkeypatch):
        expected = self.replaced(self.RSSI, self.TARGETS, 5)
        monkeypatch.setattr(ensemble, "fit_linear", self.refuse)
        model = treeloc_fit(self.RSSI, self.TARGETS, rng_seed=5, forest_trees=3,
                            extra_trees=3, reference=True)
        assert model.to_dict() == expected.to_dict()
        assert np.array_equal(model.predict(self.RSSI), expected.predict(self.RSSI))

    def test_cli_step_builds_one_block(self, tmp_path, monkeypatch):
        # the step fits on the training rows of its seeded split
        train = learners.train_test_split_indices(60, 0.2, np.random.default_rng(7))[0]
        expected = self.replaced(self.RSSI[train], self.TARGETS[train], 7)
        data, out, saved = (tmp_path / name for name in ("tb.csv", "out.csv", "model.json"))
        write_csv(learners.RegressionDataset(self.RSSI, self.TARGETS), data)
        built = []
        stack = ensemble._stack_trees
        monkeypatch.setattr(ensemble, "_stack_trees", lambda models: built.append(
            len(models)) or stack(models))
        monkeypatch.setattr(ensemble, "fit_linear", self.refuse)
        assert main(["treeloc", "--fixed-coefficients", "--n-trees", "3", "--seed", "7",
                     "-i", str(data), "-o", str(out), "--save-model", str(saved)]) == 0
        assert built == [6]
        assert load_model(saved).to_dict() == expected.to_dict()
