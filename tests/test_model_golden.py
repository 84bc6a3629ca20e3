"""Golden treeloc models: the saved format and the fitted trees stay fixed.

``data/treeloc_v3.json`` is a small treeloc model (3 trees per forest,
depth 6), named for the version-3 tree layout that its version-3 tree and
version-4 forest records share: flat preorder arrays, with ``feature``,
``threshold``, ``value`` and ``n`` stored as base64 strings of
little-endian ``<i8``/``<f8`` bytes and ``node_counts`` kept a JSON list.
A forest record stores no ``n_trees``; its ``node_counts`` give it.
``data/treeloc_v3_predictions.json`` holds 20 query rows and that model's
predictions on them. Running this file writes these two files and no
others; regenerate them only together with a version bump of a record
kind in ``learners._KIND_VERSIONS``. A bump that keeps every prediction
leaves the predictions file byte-identical:

    PYTHONPATH=src python tests/test_model_golden.py

``data/treeloc_v1_trees.json`` is an independent pin that is never
regenerated. It holds the six node arrays of the 8 exhaustive-mode trees
(the decision tree's and the random forest's, in component, coordinate and
tree order) as plain JSON lists. They were converted once from
``treeloc_v1.json``, the same fit saved in the version-1 layout (a dict per
node) by the grower that came before the level-wise one, when that file and
its reader were deleted. The level-wise grower reproduces them bit for bit.
"""

import json
from pathlib import Path

import numpy as np

from _synth import regression_testbed
from rssiloc import treeloc_fit
from rssiloc.ensemble import COMPONENT_NAMES
from rssiloc.learners import load_model, save_model

DATA = Path(__file__).parent / "data"
MODEL_V3 = DATA / "treeloc_v3.json"
PREDICTIONS_V3 = DATA / "treeloc_v3_predictions.json"
V1_TREES = DATA / "treeloc_v1_trees.json"
SEED = 11
EXHAUSTIVE = ("decision_tree", "random_forest")


def fit_golden():
    rssi, targets, _, _ = regression_testbed(SEED, n=48)
    return treeloc_fit(rssi, targets, rng_seed=SEED, tree_depth=6,
                       forest_trees=3, extra_trees=3)


def golden_rows(path=PREDICTIONS_V3):
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


def test_load_v3_reproduces_predictions():
    rows, expected = golden_rows()
    assert np.array_equal(load_model(MODEL_V3).predict(rows), expected)


def test_resave_is_byte_identical(tmp_path):
    path = tmp_path / "resaved.json"
    save_model(load_model(MODEL_V3), path)
    assert path.read_bytes() == MODEL_V3.read_bytes()


def test_fresh_fit_gives_same_record():
    assert fit_golden().to_dict() == json.loads(MODEL_V3.read_text())


def test_exhaustive_tree_arrays_match_v1():
    names = ("feature", "threshold", "left", "right", "value", "n")
    kinds = (np.int64, np.float64, np.int64, np.int64, np.float64, np.int64)
    pinned = [tuple(np.array(tree[name], dtype=kind) for name, kind in zip(names, kinds))
              for tree in json.loads(V1_TREES.read_text())]
    fitted = tree_arrays(fit_golden(), EXHAUSTIVE)
    assert_same_arrays(fitted, pinned, 8)
    for a, b in zip(fitted, pinned):  # bit for bit: -0.0 is not 0.0
        assert all(x.tobytes() == y.tobytes() for x, y in zip(a, b))


def test_loaded_tree_arrays_match_fit():
    assert_same_arrays(tree_arrays(load_model(MODEL_V3)),
                       tree_arrays(fit_golden()), 14)


if __name__ == "__main__":
    model = fit_golden()
    rows = regression_testbed(SEED + 1, n=20)[0]
    DATA.mkdir(exist_ok=True)
    save_model(model, MODEL_V3)
    PREDICTIONS_V3.write_text(json.dumps(
        {"rows": rows.tolist(), "predictions": model.predict(rows).tolist()}))
