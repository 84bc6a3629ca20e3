"""Golden v1 treeloc model: the saved format and the fitted trees stay fixed.

``data/treeloc_v1.json`` is a small treeloc model (3 trees per forest,
depth 6) written by ``save_model``; ``data/treeloc_v1_predictions.json``
holds 20 query rows and that model's predictions on them. Both were written
by the nested-dataclass tree code that preceded the flat node arrays, so
these tests pin the arrays to the same fits, predictions and bytes.
Regenerate them only together with a ``MODEL_VERSION`` bump:

    PYTHONPATH=src python tests/test_model_golden.py
"""

import json
from pathlib import Path

import numpy as np

from _synth import regression_testbed
from rssiloc import treeloc_fit
from rssiloc.learners import load_model, model_to_dict, save_model

DATA = Path(__file__).parent / "data"
MODEL = DATA / "treeloc_v1.json"
PREDICTIONS = DATA / "treeloc_v1_predictions.json"
SEED = 11


def fit_golden():
    rssi, targets, _, _ = regression_testbed(SEED, n=48)
    return treeloc_fit(rssi, targets, rng_seed=SEED, tree_depth=6,
                       forest_trees=3, extra_trees=3)


def golden_rows():
    record = json.loads(PREDICTIONS.read_text())
    return np.array(record["rows"]), np.array(record["predictions"])


def tree_arrays(model):
    """(feature, threshold, left, right, value, n) of every tree, in order."""
    out = []
    for component in model.components:
        for coordinate in component.models:
            for tree in getattr(coordinate, "trees", (coordinate,)):
                out.append((tree.feature, tree.threshold, tree.left,
                            tree.right, tree.value, tree.n))
    return out


def test_load_reproduces_predictions():
    rows, expected = golden_rows()
    assert np.array_equal(load_model(MODEL).predict(rows), expected)


def test_resave_is_byte_identical(tmp_path):
    path = tmp_path / "resaved.json"
    save_model(load_model(MODEL), path)
    assert path.read_bytes() == MODEL.read_bytes()


def test_fresh_fit_gives_same_record():
    assert model_to_dict(fit_golden()) == json.loads(MODEL.read_text())


def test_loaded_tree_arrays_match_fit():
    loaded, fitted = tree_arrays(load_model(MODEL)), tree_arrays(fit_golden())
    assert len(loaded) == len(fitted) == 14
    for a, b in zip(loaded, fitted):
        for x, y in zip(a, b):
            assert x.dtype == y.dtype and np.array_equal(x, y)


if __name__ == "__main__":
    model = fit_golden()
    rows = regression_testbed(SEED + 1, n=20)[0]
    DATA.mkdir(exist_ok=True)
    save_model(model, MODEL)
    PREDICTIONS.write_text(json.dumps(
        {"rows": rows.tolist(), "predictions": model.predict(rows).tolist()}))
