"""Golden treeloc models: the saved formats and the fitted trees stay fixed.

``data/treeloc_v1.json`` is a small treeloc model (3 trees per forest,
depth 6) saved in the version-1 format, one nested dict per tree node;
``data/treeloc_v1_predictions.json`` holds 20 query rows and that model's
predictions on them. Earlier code wrote both, and they stay as they are:
they pin the version-1 reader, and the exhaustive-mode trees (the decision
tree and the random forest), which the level-wise grower reproduces bit for
bit.

``data/treeloc_v2.json`` and ``data/treeloc_v2_predictions.json`` are the
same fit saved with version-2 tree and forest records, which hold flat
preorder arrays as JSON number lists. Version 2 also draws the extra
trees' thresholds level by level, so those trees differ from version 1's.
They too stay as they are and pin the version-2 reader.

``data/treeloc_v3.json`` and ``data/treeloc_v3_predictions.json`` are the
same fit saved with version-3 tree and forest records: the same preorder
arrays, with ``feature``, ``threshold``, ``value`` and ``n`` stored as
base64 strings of little-endian ``<i8``/``<f8`` bytes and ``node_counts``
kept a JSON list. Running this file writes the version-3 files and no
others; regenerate them only together with a ``MODEL_VERSION`` bump:

    PYTHONPATH=src python tests/test_model_golden.py
"""

import json
from pathlib import Path

import numpy as np

from _synth import regression_testbed
from rssiloc import treeloc_fit
from rssiloc.ensemble import COMPONENT_NAMES
from rssiloc.learners import load_model, model_to_dict, save_model

DATA = Path(__file__).parent / "data"
MODEL = DATA / "treeloc_v1.json"
PREDICTIONS = DATA / "treeloc_v1_predictions.json"
MODEL_V2 = DATA / "treeloc_v2.json"
PREDICTIONS_V2 = DATA / "treeloc_v2_predictions.json"
MODEL_V3 = DATA / "treeloc_v3.json"
PREDICTIONS_V3 = DATA / "treeloc_v3_predictions.json"
SEED = 11
EXHAUSTIVE = ("decision_tree", "random_forest")


def fit_golden():
    rssi, targets, _, _ = regression_testbed(SEED, n=48)
    return treeloc_fit(rssi, targets, rng_seed=SEED, tree_depth=6,
                       forest_trees=3, extra_trees=3)


def golden_rows(path=PREDICTIONS):
    record = json.loads(path.read_text())
    return np.array(record["rows"]), np.array(record["predictions"])


def tree_arrays(model, components=COMPONENT_NAMES):
    """(feature, threshold, left, right, value, n) of every tree of the
    named components, in order."""
    out = []
    for name, component in zip(COMPONENT_NAMES, model.components):
        if name not in components:
            continue
        for coordinate in component.models:
            for tree in getattr(coordinate, "trees", (coordinate,)):
                out.append((tree.feature, tree.threshold, tree.left,
                            tree.right, tree.value, tree.n))
    return out


def assert_same_arrays(loaded, fitted, count):
    assert len(loaded) == len(fitted) == count
    for a, b in zip(loaded, fitted):
        for x, y in zip(a, b):
            assert x.dtype == y.dtype and np.array_equal(x, y)


def test_load_reproduces_predictions():
    rows, expected = golden_rows()
    assert np.array_equal(load_model(MODEL).predict(rows), expected)


def test_load_v2_reproduces_predictions():
    rows, expected = golden_rows(PREDICTIONS_V2)
    assert np.array_equal(load_model(MODEL_V2).predict(rows), expected)


def test_load_v3_reproduces_predictions():
    rows, expected = golden_rows(PREDICTIONS_V3)
    assert np.array_equal(load_model(MODEL_V3).predict(rows), expected)


def test_resave_is_byte_identical(tmp_path):
    path = tmp_path / "resaved.json"
    save_model(load_model(MODEL_V3), path)
    assert path.read_bytes() == MODEL_V3.read_bytes()


def test_fresh_fit_gives_same_record():
    assert model_to_dict(fit_golden()) == json.loads(MODEL_V3.read_text())


def test_exhaustive_tree_arrays_match_v1():
    assert_same_arrays(tree_arrays(load_model(MODEL), EXHAUSTIVE),
                       tree_arrays(fit_golden(), EXHAUSTIVE), 8)


def test_loaded_tree_arrays_match_fit():
    assert_same_arrays(tree_arrays(load_model(MODEL_V2)),
                       tree_arrays(fit_golden()), 14)


def test_v2_and_v3_files_load_the_same_arrays():
    assert_same_arrays(tree_arrays(load_model(MODEL_V3)),
                       tree_arrays(load_model(MODEL_V2)), 14)


if __name__ == "__main__":
    model = fit_golden()
    rows = regression_testbed(SEED + 1, n=20)[0]
    DATA.mkdir(exist_ok=True)
    save_model(model, MODEL_V3)
    PREDICTIONS_V3.write_text(json.dumps(
        {"rows": rows.tolist(), "predictions": model.predict(rows).tolist()}))
