"""Property tests for the tree learners on small datasets with tied values."""

import json

import numpy as np
from hypothesis import given, settings, strategies as st

from rssiloc import treeloc_fit
from rssiloc.learners import (Forest, PairedRegressor, RegressionTree,
                              fit_extra_trees, fit_forest, fit_tree,
                              model_from_dict, model_to_dict)


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
    # A treeloc model's trees are checked through its component outputs:
    # its linear combiner's matrix product may round a one-row input
    # differently from a batch, by an ulp.
    predict = getattr(model, "component_predictions", model.predict)
    batch = predict(x)
    one_row = np.array([predict(row) for row in x]).reshape(batch.shape)
    assert np.array_equal(one_row, batch)
    combined = model.predict(x)
    np.testing.assert_allclose([model.predict(row) for row in x], combined,
                               rtol=1e-13, atol=1e-13)
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
    loaded = model_from_dict(json.loads(json.dumps(model_to_dict(model))))
    assert np.array_equal(loaded.predict(x), combined)
    assert model_to_dict(loaded) == model_to_dict(model)


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
