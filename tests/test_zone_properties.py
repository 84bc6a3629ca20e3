"""Property tests for the zone learners: the kNN vote equals a stable sort
of the distances, ties and non-finite queries included, and ``mlp_train``
equals a loop over the public ``mlp_backprop``, bit for bit."""

import numpy as np
from hypothesis import given, settings, strategies as st

from _synth import beacon_dataset
from rssiloc.ingest import one_hot_encode
from rssiloc.learners import KnnModel, MlpModel, fit_knn, mlp_backprop, mlp_train

PROPERTY = settings(max_examples=200, deadline=None, derandomize=True, database=None)
# few distinct values, so distances tie often; queries may also hold ±inf or NaN
QUERY_CELL = st.integers(-3, 3).map(float) | st.sampled_from([np.inf, -np.inf, np.nan])


def stable_sort_vote(model: KnnModel, queries) -> np.ndarray:
    """Class probabilities of each query from its first k rows in a stable
    sort of the distances."""
    out = []
    for row in np.atleast_2d(queries):
        dist = np.sqrt(((model.features - row) ** 2).sum(axis=1))
        nearest = np.argsort(dist, kind="stable")[:model.k]
        out.append(np.bincount(model.labels[nearest], minlength=model.n_classes) / model.k)
    return np.array(out)


@st.composite
def knn_cases(draw):
    n, f = draw(st.integers(1, 16)), draw(st.integers(1, 4))
    n_classes = draw(st.integers(1, 4))
    x = np.array(draw(st.lists(st.integers(-3, 3), min_size=n * f, max_size=n * f)),
                 dtype=float).reshape(n, f)
    labels = draw(st.lists(st.integers(0, n_classes - 1), min_size=n, max_size=n))
    q = draw(st.integers(1, 6))
    queries = np.array(draw(st.lists(QUERY_CELL, min_size=q * f, max_size=q * f)))
    model = fit_knn(x, labels, draw(st.integers(1, n)), n_classes=n_classes)
    return model, queries.reshape(q, f)


@PROPERTY
@given(case=knn_cases())
def test_knn_vote_equals_stable_sort(case):
    model, queries = case
    assert np.array_equal(model.predict_proba(queries), stable_sort_vote(model, queries))
    assert np.array_equal(model.predict_proba(queries[0]), stable_sort_vote(model, queries[0])[0])


def test_knn_nan_query_votes_with_the_first_k_rows():
    # a stable sort keeps all-NaN or all-inf distances in file order
    model = fit_knn([[5.0], [0.0], [0.0], [1.0]], [3, 0, 1, 2], k=2, n_classes=4)
    for query in ([np.nan], [np.inf], [-np.inf]):
        assert model.predict_proba(query).tolist() == [0.5, 0.0, 0.0, 0.5]
    assert model.predict_proba([0.0]).tolist() == [0.5, 0.5, 0.0, 0.0]


def reference_train(model, x, y, lr, batch_size, epochs, rng_seed):
    """``mlp_train`` as a loop that calls ``mlp_backprop`` on a network
    rebuilt for every batch of rows taken from the unshuffled set."""
    rng = np.random.default_rng(rng_seed)
    order = rng.permutation(len(x))
    weights = [w.copy() for w in model.weights]
    biases = [b.copy() for b in model.biases]
    for _ in range(epochs):
        perm = order[rng.permutation(len(order))]
        for start in range(0, len(perm), batch_size):
            rows = perm[start:start + batch_size]
            _, gw, gb, _ = mlp_backprop(MlpModel(tuple(weights), tuple(biases)),
                                        x[rows], y[rows])
            for layer in range(len(weights)):
                weights[layer] -= lr * gw[layer]
                biases[layer] -= lr * gb[layer]
    return MlpModel(tuple(weights), tuple(biases))


@st.composite
def mlp_cases(draw):
    n = draw(st.integers(1, 30))
    sizes = (draw(st.integers(1, 5)), draw(st.integers(1, 6)), draw(st.integers(1, 6)),
             draw(st.integers(2, 4)))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    x = rng.normal(0.0, 2.0, (n, sizes[0]))
    y = one_hot_encode(rng.integers(0, sizes[-1], n), sizes[-1])
    model = MlpModel.create(sizes, rng_seed=draw(st.integers(0, 99)))
    options = dict(lr=draw(st.sampled_from([0.0, 0.01, 0.5])),
                   batch_size=draw(st.integers(1, n + 2)), epochs=draw(st.integers(1, 3)),
                   rng_seed=draw(st.integers(0, 99)))
    return model, x, y, options


def assert_same_training(case):
    model, x, y, options = case
    net = mlp_train(model, x, y, **options)
    ref = reference_train(model, x, y, **options)
    for got, want in zip((*net.weights, *net.biases), (*ref.weights, *ref.biases)):
        assert np.array_equal(got, want)
    if options["lr"] == 0:
        for got, start in zip(net.weights, model.weights):
            assert np.array_equal(got, start)


@PROPERTY
@given(case=mlp_cases())
def test_mlp_train_equals_backprop_loop(case):
    assert_same_training(case)


def test_mlp_train_equals_backprop_loop_on_beacons():
    # the zones workload's network and batch size, on a set 10 does not divide
    features, _, one_hot = beacon_dataset(5, n=97)
    assert_same_training((MlpModel.create(rng_seed=4), features, one_hot,
                          dict(lr=0.01, batch_size=10, epochs=2, rng_seed=6)))
