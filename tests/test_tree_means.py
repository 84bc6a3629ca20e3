"""One summation order for the means of tree models: a model's trees are
added in tree order from 0.0, for one row as for any batch and whichever
chunks of WALK_NODES tree-rows the rows are walked in."""

import functools
import operator

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rssiloc import ensemble, learners, treeloc_fit
from rssiloc.learners import Forest, fit_extra_trees, fit_forest
from test_tree_properties import VALUES, random_trees, trees_of, walk

seeds = st.integers(0, 2 ** 16)
_stack_trees = learners._stack_trees


def reference_mean(model, row):
    """The model's mean for one row: its trees' leaf values added one at a
    time in tree order, from 0.0, then divided by the tree count."""
    trees = trees_of(model)
    return functools.reduce(operator.add, [walk(t, row) for t in trees], 0.0) / len(trees)


def gaussian_rows(seed, n):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, 3)), rng.normal(size=(n, 2))


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(seed=seeds, n=st.integers(4, 24), n_trees=st.integers(8, 40),
       extra=st.booleans())
def test_forest_row_alone_gets_its_batch_bits(seed, n, n_trees, extra):
    x, y = gaussian_rows(seed, n)
    fit = fit_extra_trees if extra else fit_forest
    model = fit(x, y[:, 0], n_trees=n_trees, rng_seed=seed)
    batch = model.predict(x)
    assert np.array_equal([model.predict(row) for row in x], batch)
    assert np.array_equal(batch, [reference_mean(model, row) for row in x])


@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(seed=seeds, n=st.integers(6, 24), n_trees=st.lists(st.integers(8, 40),
                                                          min_size=2, max_size=2))
def test_treeloc_row_alone_gets_its_batch_bits(seed, n, n_trees):
    x, y = gaussian_rows(seed, n)
    model = treeloc_fit(x, y, rng_seed=seed, extra_trees=n_trees[0],
                        forest_trees=n_trees[1])
    comps, batch = model.component_predictions(x), model.predict(x)
    for i, row in enumerate(x):
        assert np.array_equal(model.component_predictions(row)[0], comps[i])
        assert np.array_equal(model.predict(row), batch[i])
    assert np.array_equal(comps, [[[reference_mean(m, row) for m in c.models]
                                   for c in model.components] for row in x])


def test_fitted_treeloc_keeps_the_block_of_its_combiner_fit(monkeypatch):
    x, y = gaussian_rows(5, 30)
    built = []
    monkeypatch.setattr(ensemble, "_stack_trees", lambda models: built.append(
        len(models)) or _stack_trees(models))
    model = treeloc_fit(x, y, extra_trees=3, forest_trees=3)
    model.predict(x)
    assert built == [6]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(trees=st.lists(random_trees(), min_size=1, max_size=6), data=st.data())
def test_chunked_means_equal_per_tree_references(trees, data):
    # the trees as one or two models, walked in chunks of `chunk` rows: one
    # row, one chunk, and two chunks and a last chunk of one row
    cut = data.draw(st.integers(0, len(trees)))
    models = [Forest(tuple(part)) for part in (trees[:cut], trees[cut:]) if part]
    block, chunk = _stack_trees(models), data.draw(st.integers(1, 3))
    rows = np.array(data.draw(st.lists(st.lists(st.sampled_from(VALUES + [np.nan]),
                                                min_size=3, max_size=3),
                                       min_size=2 * chunk + 1, max_size=2 * chunk + 1)))
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(learners, "WALK_NODES", chunk * len(block[4]))
        for x in (rows[:1], rows[:chunk], rows):
            want = [[reference_mean(m, row) for m in models] for row in x]
            assert np.array_equal(learners._model_means(block, x), want)
        for m in models:  # each through its own block, in chunks of the same rows
            monkeypatch.setattr(learners, "WALK_NODES", chunk * len(m._block[4]))
            for x in (rows[:1], rows[:chunk], rows):
                want = [reference_mean(m, row) for row in x]
                assert np.array_equal(m.predict(x), want)
                assert np.array_equal([m.predict(row) for row in x], want)


def test_tree_major_slots_pad_short_models():
    # slot t * models + m is tree t of model m; past its trees, the pad's -0.0
    x, y = gaussian_rows(2, 12)
    models = [fit_forest(x, y[:, 0], n_trees=k, max_depth=2) for k in (3, 1, 2)]
    leaves = learners._leaf_values(_stack_trees(models), x).reshape(3, 3, len(x))
    for m, model in enumerate(models):
        for t in range(3):
            want = ([walk(model.trees[t], row) for row in x] if t < len(model.trees)
                    else np.full(len(x), -0.0))
            assert np.array_equal(leaves[t, m], want)
            assert np.array_equal(np.signbit(leaves[t, m]), np.signbit(want))


def test_all_negative_zero_leaves_mean_positive_zero():
    # np.add.reduce starts from 0.0, so a sum of -0.0 leaves is +0.0
    x, y = gaussian_rows(1, 12)
    tree = fit_forest(x, y[:, 0], n_trees=1, max_depth=2).trees[0]
    negative = learners.RegressionTree(tree.feature, tree.threshold, tree.left, tree.right,
                                       np.full(len(tree.value), -0.0), tree.n)
    for n_trees in (1, 9):
        model = Forest((negative,) * n_trees)
        for got in (model.predict(x), [model.predict(row) for row in x]):
            assert np.array_equal(got, np.zeros(len(x)))
            assert not np.signbit(got).any()
