"""Golden zone learners: the kNN vote and the MLP training loop stay fixed.

``data/zones_golden.json`` holds a 60-row beacon set (integer RSSI, -200
where a beacon is unheard, four zones); the kNN class probabilities of all
60 rows against a model of the first 40, for k = 1, 3 and 5 (integer
readings make equal distances common, so these pin the tie rule); and the
MLP weights and biases after 3 epochs of ``mlp_train`` on all 60 rows.
Earlier code wrote the file, and it stays as it is.
Regenerate it only together with a stated change of behaviour of
``KnnModel.predict_proba`` or ``mlp_train``:

    PYTHONPATH=src python tests/test_zones_golden.py
"""

import json
from pathlib import Path

import numpy as np
import pytest

from _synth import beacon_dataset
from rssiloc import ingest, learners

GOLDEN = Path(__file__).parent / "data" / "zones_golden.json"
SEED = 17
TRAIN_ROWS = 40
KS = (1, 3, 5)
MLP = dict(lr=0.01, batch_size=7, epochs=3, rng_seed=SEED)


def golden_set():
    features, labels, _ = beacon_dataset(SEED, n=60)
    return np.round(features), labels


def knn_probabilities(features, labels, k):
    model = learners.fit_knn(features[:TRAIN_ROWS], labels[:TRAIN_ROWS], k, n_classes=4)
    return model.predict_proba(features)


def train_mlp(features, labels):
    net = learners.MlpModel.create(rng_seed=SEED)
    return learners.mlp_train(net, features, ingest.one_hot_encode(labels, 4), **MLP)


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("k", KS)
def test_knn_probabilities(golden, k):
    features, labels = np.array(golden["features"]), np.array(golden["labels"])
    assert np.array_equal(knn_probabilities(features, labels, k),
                          np.array(golden["knn"][str(k)]))


def test_mlp_after_three_epochs(golden):
    net = train_mlp(np.array(golden["features"]), np.array(golden["labels"]))
    for got, want in zip((net.weights, net.biases), (golden["weights"], golden["biases"])):
        assert len(got) == len(want) == 3
        for a, b in zip(got, want):
            assert np.array_equal(a, np.array(b))


if __name__ == "__main__":
    features, labels = golden_set()
    net = train_mlp(features, labels)
    GOLDEN.write_text(json.dumps({
        "features": features.tolist(), "labels": labels.tolist(),
        "knn": {str(k): knn_probabilities(features, labels, k).tolist() for k in KS},
        "weights": [w.tolist() for w in net.weights],
        "biases": [b.tolist() for b in net.biases]}))
