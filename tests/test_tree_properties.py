"""Property tests for the tree learners on small datasets with tied values,
and for their saved version-3 records, the only tree and forest layout that
loads: a version-1 or version-2 record of the older layouts raises."""

import base64
import copy
import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rssiloc import learners, load_model, treeloc_fit, treeloc_reference
from rssiloc.cli import main
from rssiloc.ensemble import TreeLocModel
from rssiloc.learners import (Forest, PairedRegressor, RegressionTree, _segment_sums,
                              fit_extra_trees, fit_forest, fit_tree, model_from_dict)


@st.composite
def datasets(draw, min_rows=2, outputs=1):
    n = draw(st.integers(min_rows, 24))
    f = draw(st.integers(1, 4))
    # few distinct values, so both features and targets tie often
    x = draw(st.lists(st.integers(-3, 3), min_size=n * f, max_size=n * f))
    y = draw(st.lists(st.sampled_from([-1.5, 0.0, 0.25, 2.0, 7.0]),
                      min_size=n * outputs, max_size=n * outputs))
    x = np.array(x, dtype=float).reshape(n, f)
    y = np.array(y).reshape(n, outputs)
    return x, (y[:, 0] if outputs == 1 else y)


def trees_of(model):
    if isinstance(model, RegressionTree):
        return [model]
    if isinstance(model, Forest):
        return list(model.trees)
    parts = model.models if isinstance(model, PairedRegressor) else model.components
    return [tree for part in parts for tree in trees_of(part)]


def walk(tree, row):
    """Reference prediction: follow one row down the node arrays."""
    i = 0
    while tree.feature[i] >= 0:
        go_left = row[tree.feature[i]] <= tree.threshold[i]
        i = tree.left[i] if go_left else tree.right[i]
    return tree.value[i]


def check_model(model, x, min_leaf, max_depth):
    # A treeloc model's trees are also checked through its component outputs.
    predict = getattr(model, "component_predictions", model.predict)
    batch = predict(x)
    one_row = np.array([predict(row) for row in x]).reshape(batch.shape)
    assert np.array_equal(one_row, batch)
    combined = model.predict(x)
    assert np.array_equal([model.predict(row) for row in x], combined)
    for tree in trees_of(model):
        assert np.array_equal(tree.predict(x), [walk(tree, row) for row in x])
        leaf = tree.feature < 0
        assert np.all(tree.n[leaf] >= min_leaf)
        internal = np.flatnonzero(~leaf)
        assert np.all(tree.n[internal] == tree.n[tree.left[internal]]
                      + tree.n[tree.right[internal]])
        assert np.all(tree.left[internal] > internal)
        if max_depth is not None:
            assert tree.depth() <= max_depth
    loaded = model_from_dict(json.loads(json.dumps(model.to_dict())))
    assert np.array_equal(loaded.predict(x), combined)
    assert loaded.to_dict() == model.to_dict()


depths = st.one_of(st.none(), st.integers(0, 5))
seeds = st.integers(0, 2 ** 16)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=datasets(), min_leaf=st.integers(1, 3), max_depth=depths,
       random=st.booleans(), seed=seeds)
def test_tree(data, min_leaf, max_depth, random, seed):
    x, y = data
    min_leaf = min(min_leaf, len(y))
    model = fit_tree(x, y, max_depth=max_depth, min_leaf=min_leaf,
                     split_mode="random" if random else "exhaustive",
                     rng_seed=seed)
    check_model(model, x, min_leaf, max_depth)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=datasets(), min_leaf=st.integers(1, 3), max_depth=depths,
       n_trees=st.integers(1, 4), seed=seeds)
def test_forest_and_extra_trees(data, min_leaf, max_depth, n_trees, seed):
    x, y = data
    min_leaf = min(min_leaf, len(y))
    for fit in (fit_forest, fit_extra_trees):
        model = fit(x, y, n_trees=n_trees, max_depth=max_depth,
                    min_leaf=min_leaf, rng_seed=seed)
        check_model(model, x, min_leaf, max_depth)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(data=datasets(outputs=2), max_depth=depths, seed=seeds)
def test_paired(data, max_depth, seed):
    x, y = data
    model = fit_tree(x, y, max_depth=max_depth, rng_seed=seed)
    assert isinstance(model, PairedRegressor)
    check_model(model, x, 1, max_depth)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(data=datasets(min_rows=6, outputs=2), min_leaf=st.integers(1, 2),
       max_depth=st.integers(0, 5), seed=seeds)
def test_treeloc(data, min_leaf, max_depth, seed):
    x, y = data
    model = treeloc_fit(x, y, rng_seed=seed, tree_depth=max_depth,
                        forest_trees=3, extra_trees=3, min_leaf=min_leaf)
    check_model(model, x, min_leaf, max_depth)


# --- one node block per treeloc model -------------------------------------------

def component_reference(model, x):
    """TreeLocModel.predict from each component's own predict."""
    comps = [np.asarray(c.predict(x)) for c in model.components]
    return model.combine([c[..., 0] for c in comps] if x.ndim == 1 else
                         np.column_stack([c[:, 0] for c in comps]),
                         [c[..., 1] for c in comps] if x.ndim == 1 else
                         np.column_stack([c[:, 1] for c in comps]))


def check_block_walk(model, x, monkeypatch):
    expected = component_reference(model, x)
    assert np.array_equal(model.predict(x), expected)
    for row, want in zip(x, expected):
        assert np.array_equal(model.predict(row), want)
        assert np.array_equal(component_reference(model, row), want)
    # rows walked a few at a time give the same bits
    monkeypatch.setattr(learners, "WALK_NODES", 3 * len(trees_of(model)))
    assert np.array_equal(dataclasses.replace(model).predict(x), expected)
    for tree in trees_of(model):
        assert np.array_equal(tree.predict(x), [walk(tree, row) for row in x])


@pytest.mark.parametrize("name", ["treeloc_v3"])
def test_block_walk_on_golden_models(name, monkeypatch):
    data = Path(__file__).parent / "data"
    model = load_model(data / f"{name}.json")
    rows = np.array(json.loads((data / f"{name}_predictions.json").read_text())["rows"])
    assert model._block is not None
    check_block_walk(model, rows, monkeypatch)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=datasets(min_rows=3, outputs=2),
       max_depths=st.lists(st.none() | st.integers(0, 6), min_size=3, max_size=3),
       n_trees=st.lists(st.integers(1, 4), min_size=2, max_size=2),
       combiner=st.lists(st.floats(-2.0, 2.0), min_size=8, max_size=8), seed=seeds)
def test_block_walk_on_components_of_different_depths(data, max_depths, n_trees,
                                                     combiner, seed):
    x, y = data
    comps = (fit_extra_trees(x, y, n_trees[0], max_depth=max_depths[0], rng_seed=seed),
             fit_tree(x, y, max_depth=max_depths[1], rng_seed=seed),
             fit_forest(x, y, n_trees[1], max_depth=max_depths[2], rng_seed=seed))
    model = TreeLocModel(components=comps, combiner_x=tuple(combiner[:4]),
                         combiner_y=tuple(combiner[4:]))
    with pytest.MonkeyPatch.context() as monkeypatch:
        check_block_walk(model, x, monkeypatch)


def test_components_other_than_tree_pairs_are_rejected(tmp_path, capsys):
    x, y = np.arange(60.0).reshape(20, 3) % 7, np.arange(40.0).reshape(20, 2) % 5
    trees = fit_tree(x, y, max_depth=3)
    data = tmp_path / "data.csv"
    data.write_text("RSSI1,RSSI2,RSSI3,X_Actual,Y_Actual\n"
                    + "".join(",".join(map(str, row)) + "\n" for row in np.hstack([x, y])))
    out = tmp_path / "out.csv"
    for other in (learners.fit_linear(x, y), fit_forest(x, y[:, 0], n_trees=2)):
        model = TreeLocModel(components=(other, trees, trees),
                             combiner_x=(0.5, 1.0, 2.0, 3.0), combiner_y=(-0.5, 3.0, 2.0, 1.0))
        for rows in (x, x[3]):
            with pytest.raises(TypeError, match="three pairs of tree models"):
                model.predict(rows)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(model.to_dict()))
        code = main(["predict", "--model-file", str(path), "-i", str(data), "-o", str(out)])
        err = capsys.readouterr().err
        assert code == 3 and "three pairs of tree models" in err
        assert "Traceback" not in err and not out.exists()
    reference = treeloc_reference()
    with pytest.raises(TypeError, match="three pairs of tree models"):
        reference.predict(x)
    assert reference.combine([1.0, 1.0, 1.0], [0.0, 0.0, 0.0]).shape == (2,)


def test_walk_block_holds_one_entry_per_node():
    # trees of depths 0 to 6 and the pad leaf; walk ids are plain node ids
    x, y = np.random.default_rng(3).uniform(-1.0, 1.0, (40, 3)), np.arange(40.0) % 7
    trees = [fit_tree(x, y, max_depth=d) for d in (2, 0, 6, 4)]
    assert [t.depth() for t in trees] == [2, 0, 6, 4]
    feature, threshold, children, value, roots, *_ = learners._stack_trees(trees)
    starts = np.cumsum([0] + [len(t.feature) for t in trees])
    nodes = starts[-1] + 1
    assert len(feature) == len(threshold) == len(value) == nodes and len(children) == 2 * nodes
    assert sorted(roots.tolist()) == starts.tolist()
    for start, tree in zip(starts, trees):
        ids = start + np.arange(len(tree.feature))
        split = tree.feature >= 0
        assert np.array_equal(feature[ids], np.maximum(tree.feature, 0))
        assert np.array_equal(threshold[ids], tree.threshold)
        assert np.array_equal(value[ids], tree.value)
        assert np.array_equal(children[2 * ids[split]], start + tree.right[split])
        assert np.array_equal(children[2 * ids[split] + 1], start + tree.left[split])
        for side in (0, 1):  # leaves loop to themselves
            assert np.array_equal(children[2 * ids[~split] + side], ids[~split])
    # one row, one chunk, and the first row past a full chunk
    past_chunk = learners.WALK_NODES // len(trees) + 1
    for rows in (x[:1], x, np.resize(x, (past_chunk, 3))):
        want = [[walk(tree, row) for row in rows] for tree in trees]
        assert np.array_equal(learners._leaf_values(learners._stack_trees(trees), rows), want)
        for tree, values in zip(trees, want):
            assert np.array_equal(tree.predict(rows), values)


def test_walk_writes_neither_the_block_nor_the_rows():
    x, y = np.random.default_rng(5).uniform(-1.0, 1.0, (30, 3)), np.arange(60.0).reshape(30, 2)
    block = learners._stack_trees(fit_forest(x, y, n_trees=4, max_depth=5).models)
    before = copy.deepcopy(block + (x,))
    for rows in (x[:1], x):
        learners._leaf_values(block, rows)
        learners._model_means(block, rows)
    for now, then in zip(block + (x,), before):
        assert np.array_equal(now, then)


def test_child_ids_past_the_block_raise():
    # node 0's right child is node 5 of a 3-node tree: not a preorder layout
    with pytest.raises(ValueError):
        RegressionTree(np.array([0, -1, -1]), np.array([0.5, 0.0, 0.0]), np.array([1, -1, -1]),
                       np.array([5, -1, -1]), np.array([0.0, 1.0, 2.0]), np.ones(3, dtype=int))
    # a block whose walk steps to an id past its nodes, and one before them
    good = fit_tree(np.arange(8.0)[:, None], np.arange(8.0) % 3, max_depth=3)
    for bad in (10 ** 6, -10 ** 6):
        block = learners._stack_trees((good,))
        block[2][0:2] = bad
        for rows in (np.zeros((1, 1)), np.zeros((3, 1))):
            with pytest.raises(IndexError):
                learners._leaf_values(block, rows)


@pytest.mark.parametrize("left, right", [
    ([2, -1, -1], [1, -1, -1]),  # swapped: predicts as one tree, saves as another
    ([0, -1, -1], [2, -1, -1]),  # node 0 its own left child: the depth pass never ends
    ([1, -1, -1], [3, -1, -1]),  # a right child past the tree: read from the next one
], ids=["swapped", "cycle", "past the tree"])
def test_children_other_than_the_preorder_layout_raise(left, right):
    with pytest.raises(ValueError):
        RegressionTree(np.array([0, -1, -1]), np.array([0.5, 0.0, 0.0]), np.array(left),
                       np.array(right), np.array([15.0, 20.0, 10.0]), np.ones(3, dtype=int))


def test_every_fitted_tree_comes_from_the_record_builder(monkeypatch):
    made, build = [], learners._trees_from_arrays
    monkeypatch.setattr(learners, "_trees_from_arrays",
                        lambda p, h: made.append(build(p, h)) or made[-1])
    x, y = np.random.default_rng(6).uniform(-1.0, 1.0, (30, 3)), np.arange(60.0).reshape(30, 2)
    fits = [(fit, target, calls) for fit in (fit_tree, fit_forest, fit_extra_trees)
            for target, calls in ((y[:, 0], 1), (y, 2))]
    for fit, target, calls in fits + [(treeloc_fit, y, 6)]:
        made.clear()
        model = fit(x, target)
        assert len(made) == calls
        assert [tree for trees in made for tree in trees] == trees_of(model)


VALUES = [-1.0, -0.5, 0.0, 0.5, 1.0]  # thresholds; rows also take NaN


@st.composite
def random_trees(draw):
    """A tree of depth at most 0-8 with random splits on three features,
    preorder node arrays, as the grower and the loader lay them out."""
    limit = draw(st.integers(0, 8))
    feature, threshold, left, right = [], [], [], []

    def grow(depth):
        i, split = len(feature), depth < limit and draw(st.booleans())
        feature.append(draw(st.integers(0, 2)) if split else -1)
        threshold.append(draw(st.sampled_from(VALUES)) if split else 0.0)
        left.append(-1)
        right.append(-1)
        if split:
            left[i] = grow(depth + 1)
            right[i] = grow(depth + 1)
        return i

    grow(0)
    n = len(feature)
    return RegressionTree(np.array(feature), np.array(threshold), np.array(left),
                          np.array(right), np.arange(n) * 1.5 - 7.0, np.ones(n, dtype=np.int64))


def preorder_ids(left, right, i=0):
    """Node ids met depth-first from node i, left subtree first."""
    if left[i] < 0:
        return [i]
    return [i] + preorder_ids(left, right, left[i]) + preorder_ids(left, right, right[i])


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(tree=random_trees(), data=st.data())
def test_relabelled_nodes_raise_unless_in_preorder(tree, data):
    n = len(tree.feature)
    label = np.array([0] + data.draw(st.permutations(range(1, n))))  # node i's new id
    arrays = [getattr(tree, name)[np.argsort(label)]
              for name in ("feature", "threshold", "left", "right", "value", "n")]
    for side in (2, 3):
        arrays[side] = np.where(arrays[side] >= 0, label[arrays[side]], -1)
    if preorder_ids(arrays[2], arrays[3]) != list(range(n)):
        with pytest.raises(ValueError):
            RegressionTree(*arrays)
        return
    relabelled = RegressionTree(*arrays)
    assert same_arrays(model_from_dict(json.loads(json.dumps(relabelled.to_dict()))), relabelled)


def reference_depth(tree, i=0):
    if tree.feature[i] < 0:
        return 0
    return 1 + max(reference_depth(tree, tree.left[i]), reference_depth(tree, tree.right[i]))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(trees=st.lists(random_trees(), min_size=1, max_size=6), data=st.data())
def test_depth_pass_and_block_walk_equal_per_tree_references(trees, data):
    want = [reference_depth(tree) for tree in trees]
    assert learners.tree_depths(trees).tolist() == want
    assert [tree.depth() for tree in trees] == want
    block = learners._stack_trees(trees)  # level l steps the trees deeper than l
    assert block[5] == [sum(d > level for d in want) for level in range(max(want))]
    # one, three and four rows; the chunks of WALK_NODES tree-rows that
    # _model_means walks are checked in test_tree_means.py
    rows = np.array(data.draw(st.lists(st.lists(st.sampled_from(VALUES + [np.nan]),
                                                min_size=3, max_size=3),
                                       min_size=4, max_size=4)))
    for x in (rows[:1], rows[:3], rows):
        leaves = [[walk(tree, row) for row in x] for tree in trees]
        assert np.array_equal(learners._leaf_values(block, x), leaves)


def test_nan_features_take_the_right_branch():
    # x <= threshold is false for NaN, so a NaN row goes right at every split
    x, y = np.random.default_rng(4).uniform(-1.0, 1.0, (60, 4)), np.arange(120.0).reshape(60, 2)
    model = treeloc_fit(x, y, tree_depth=5, forest_trees=3, extra_trees=3)
    rows = np.array([[np.nan] * 4, [0.1, np.nan, -0.2, np.nan]])
    comps = np.array([[[np.mean([walk(t, row) for t in trees_of(m)]) for m in c.models]
                       for c in model.components] for row in rows])
    assert np.array_equal(model.component_predictions(rows), comps)
    for row, want in zip(rows, model.combine(comps[:, :, 0], comps[:, :, 1])):
        assert np.array_equal(model.predict(row), want)


def test_block_walk_rejects_rows_too_short_for_the_splits():
    x = np.array([[0.0, 1.0], [1.0, 0.0], [2.0, 2.0], [3.0, 1.0]])
    tree = fit_tree(x, x[:, 1] * 2.0)
    assert tree.feature.max() == 1
    with pytest.raises(IndexError):
        tree.predict(x[:, :1])


# --- level-wise growth and the saved record layout -------------------------------

SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e300]


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(lengths=st.lists(st.tuples(st.integers(1, 300), st.integers(1, 5)),
                        min_size=1, max_size=6),
       pool=st.lists(st.sampled_from(SPECIAL) | st.floats(-1e6, 1e6),
                     min_size=1, max_size=12),
       seed=seeds)
def test_segment_sums_equal_numpy_sum(lengths, pool, seed):
    # the node values must be y.sum() / n bit for bit, as a lone tree had them
    rng = np.random.default_rng(seed)
    sizes = rng.permutation([n for n, repeat in lengths for _ in range(repeat)])
    y = rng.choice(np.array(pool), size=sizes.sum())
    starts = np.cumsum(sizes) - sizes
    got = _segment_sums(y, starts, sizes)
    want = np.array([y[s:s + n].sum() for s, n in zip(starts, sizes)])
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(want)) or np.isnan(want).any()


def same_arrays(a, b):
    return all(getattr(a, name).dtype == getattr(b, name).dtype
               and np.array_equal(getattr(a, name), getattr(b, name))
               for name in ("feature", "threshold", "left", "right", "value", "n"))


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(data=datasets(), min_leaf=st.integers(1, 3), max_depth=depths,
       n_trees=st.integers(1, 4), seed=seeds)
def test_tree_i_does_not_depend_on_forest_size(data, min_leaf, max_depth,
                                               n_trees, seed):
    x, y = data
    for fit in (fit_forest, fit_extra_trees):
        small, large = (fit(x, y, n_trees=n, max_depth=max_depth, rng_seed=seed,
                            min_leaf=min(min_leaf, len(y)))
                        for n in (n_trees, n_trees + 3))
        assert all(same_arrays(a, b) for a, b in zip(small.trees, large.trees))


ARRAY_KEYS = ("node_counts", "feature", "threshold", "value", "n")
# The version-3 byte layout: little-endian int64 or float64 items, base64.
V3_DTYPES = {"feature": "<i8", "threshold": "<f8", "value": "<f8", "n": "<i8"}


def list_parameters(trees):
    """The parameters of trees as JSON number lists: a version-3 record's
    arrays decoded (and the version-2 layout, which no longer loads)."""
    feature = np.concatenate([t.feature for t in trees])
    return {"node_counts": [len(t.feature) for t in trees], "feature": feature.tolist(),
            "threshold": np.concatenate([t.threshold for t in trees])[feature >= 0].tolist(),
            "value": np.concatenate([t.value for t in trees]).tolist(),
            "n": np.concatenate([t.n for t in trees]).tolist()}


def v3_parameters(p):
    """Version-3 parameters of list arrays p, each encoded as its key's items."""
    return {"node_counts": p["node_counts"], **{
        key: base64.b64encode(np.array(p[key], dtype=dtype).tobytes()).decode("ascii")
        for key, dtype in V3_DTYPES.items()}}


def decoded(p):
    """Version-3 parameters p with the base64 arrays decoded into lists."""
    return {"node_counts": p["node_counts"], **{
        key: np.frombuffer(base64.b64decode(p[key]), dtype).tolist()
        for key, dtype in V3_DTYPES.items()}}


BASE_FOREST = fit_forest(np.arange(24.0).reshape(12, 2) % 5, np.arange(12.0) % 4,
                         n_trees=3, max_depth=3)
BASE_RECORD, BASE_ARRAYS = BASE_FOREST.to_dict(), list_parameters(BASE_FOREST.trees)
ITEMS = (st.integers(-3, 3) | st.integers(-3, 40) | st.none() | st.booleans()
         | st.floats() | st.text(max_size=3) | st.lists(st.integers(0, 3), max_size=2))
# Items that a version-3 array of each key can hold; node_counts stays JSON.
V3_ITEMS = {"node_counts": ITEMS, "feature": st.integers(-3, 3) | st.integers(-3, 40),
            "threshold": st.floats(), "value": st.floats()}
V3_ITEMS["n"] = V3_ITEMS["feature"]


def test_v3_writer_encodes_the_v2_arrays():
    record = BASE_FOREST.to_dict()
    assert record["version"] == 4 and record["parameters"] == v3_parameters(BASE_ARRAYS)
    assert decoded(record["parameters"]) == BASE_ARRAYS


@st.composite
def edited_arrays(draw, items_of):
    """Decoded forest arrays with items replaced, deleted or inserted;
    items_of(key) draws the items that array may take."""
    p = copy.deepcopy(BASE_ARRAYS)
    for _ in range(draw(st.integers(1, 3))):
        key = draw(st.sampled_from(ARRAY_KEYS))
        items, new = p[key], items_of(key)
        i = draw(st.integers(0, len(items)))
        how = draw(st.sampled_from(["replace", "delete", "insert"]))
        if how == "insert":
            items.insert(i, draw(new))
        elif i < len(items):
            if how == "replace":
                items[i] = draw(new)
            else:
                del items[i]
    return p


def encodes_preorder_trees(p) -> bool:
    """Reference check, one node at a time: integer node counts, features
    and n; lengths that agree; each tree's features a preorder tree."""
    counts, feature = p["node_counts"], p["feature"]
    if not all(isinstance(v, int) for key in ("node_counts", "feature", "n")
               for v in p[key]):
        return False
    if not (counts and min(counts) >= 1 and sum(counts) == len(feature)
            == len(p["value"]) == len(p["n"]) and min(feature) >= -1
            and len(p["threshold"]) == sum(f >= 0 for f in feature)):
        return False
    start = 0
    for count in counts:
        unfilled = 1  # child slots still open in this tree
        for f in feature[start:start + count]:
            if unfilled == 0:
                return False
            unfilled += 1 if f >= 0 else -1
        if unfilled:
            return False
        start += count
    return True


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(p=edited_arrays(V3_ITEMS.get))
def test_v3_arrays_that_encode_no_preorder_trees_raise(p):
    # edits made to the decoded arrays, which are then encoded again
    record = {**BASE_RECORD, "parameters": v3_parameters(p)}
    if not encodes_preorder_trees(p):
        with pytest.raises(ValueError):
            model_from_dict(record)
        return
    assert_every_node_reached_once(model_from_dict(record))


def assert_every_node_reached_once(forest):
    for tree in forest.trees:  # every node is reached once from the root
        seen, stack = np.zeros(len(tree.feature), dtype=bool), [0]
        while stack:
            i = stack.pop()
            assert not seen[i]
            seen[i] = True
            if tree.feature[i] >= 0:
                stack += [tree.left[i], tree.right[i]]
        assert seen.all() and tree.depth() < len(tree.feature)


def test_tree_record_with_too_few_leaves_exits_3(tmp_path, capsys):
    record = fit_tree(np.arange(6.0), np.arange(6.0) % 3, max_depth=2).to_dict()
    p = decoded(record["parameters"])
    p["feature"][-1] = 0  # a leaf becomes an internal node
    p["threshold"].append(0.5)
    record["parameters"] = v3_parameters(p)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(record))
    data = tmp_path / "data.csv"
    data.write_text("RSSI1,X_Actual,Y_Actual\n1,2,3\n")
    code = main(["predict", "--model-file", str(path), "-i", str(data),
                 "-o", str(tmp_path / "out.csv")])
    assert code == 3 and "preorder" in capsys.readouterr().err


def old_layout(record, version):
    """record with each tree or forest record in it, alone or as a paired or
    treeloc component, in the version-1 layout (a dict per node, here one
    leaf) or the version-2 one (JSON number lists), as earlier code saved
    them."""
    if record["kind"] in ("tree", "forest"):
        leaf = {"leaf": 0.0, "n": 1}
        p = (decoded(record["parameters"]) if version == 2 else
             {"root": leaf} if record["kind"] == "tree" else {"trees": [leaf]})
        return {**record, "version": version, "parameters": p}
    p = record["parameters"]
    return {**record, "parameters": {**p, "components": [
        old_layout(c, version) for c in p["components"]]}}


OLD_RECORDS = {  # a record of each kind that holds tree or forest records
    "tree": fit_tree(np.arange(6.0), np.arange(6.0) % 3, max_depth=2),
    "forest": BASE_FOREST,
    "paired": fit_forest(np.arange(24.0).reshape(12, 2), np.arange(24.0).reshape(12, 2) % 5,
                         n_trees=2, max_depth=2),
    "treeloc": treeloc_fit(np.arange(36.0).reshape(12, 3) % 7, np.arange(24.0).reshape(12, 2),
                           rng_seed=1, tree_depth=2, forest_trees=2, extra_trees=2),
}


@pytest.mark.parametrize("version", [1, 2])
@pytest.mark.parametrize("kind", OLD_RECORDS)
def test_old_tree_layouts_raise(kind, version):
    record = old_layout(OLD_RECORDS[kind].to_dict(), version)
    assert record["kind"] == kind and record != OLD_RECORDS[kind].to_dict()
    with pytest.raises(ValueError, match=f"unsupported model version {version} of a "):
        model_from_dict(json.loads(json.dumps(record)))


@pytest.mark.parametrize("version", [1, 2])
def test_predict_on_an_old_tree_layout_exits_3(tmp_path, capsys, version):
    model = OLD_RECORDS["treeloc"]
    path, data, out = (tmp_path / name for name in ("model.json", "data.csv", "out.csv"))
    path.write_text(json.dumps(old_layout(model.to_dict(), version)))
    data.write_text("RSSI1,RSSI2,RSSI3,X_Actual,Y_Actual\n-50,-60,-70,100,100\n")
    code = main(["predict", "--model-file", str(path), "-i", str(data), "-o", str(out)])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == "" and not out.exists()
    assert "unsupported model version" in captured.err and "Traceback" not in captured.err
