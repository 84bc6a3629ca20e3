"""Round trips on the write path: CSV cells and saved models come back
exactly, and a model that cannot be saved leaves no file behind."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rssiloc.exceptions import IoFailure
from rssiloc.ingest import load_series_csv, write_csv
from rssiloc.learners import (MlpModel, fit_knn, fit_linear, fit_polynomial,
                              load_model, mlp_train, one_hot_encode, save_model)

finite = st.floats(allow_nan=False, allow_infinity=False)
PROPERTY = settings(max_examples=40, deadline=None, derandomize=True,
                    database=None)


@PROPERTY
@given(values=st.lists(finite, min_size=1, max_size=20))
@example(values=[-0.0, 0.0, 5e-324, -2.2250738585072014e-308, 1.7e308, -1.7e308])
def test_csv_round_trip_is_bit_exact(tmp_path_factory, values):
    path = tmp_path_factory.mktemp("csv") / "values.csv"
    column = np.array(values)
    write_csv({"v": column}, path)
    loaded = load_series_csv(path, ["v"])["v"]
    assert loaded.tobytes() == column.tobytes()


@st.composite
def training_sets(draw):
    n = draw(st.integers(3, 12))
    f = draw(st.integers(1, 3))
    cells = st.floats(-100.0, 100.0, allow_subnormal=False)
    x = np.array(draw(st.lists(cells, min_size=n * f, max_size=n * f)))
    y = np.array(draw(st.lists(cells, min_size=n * 2, max_size=n * 2)))
    labels = np.array(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)))
    return x.reshape(n, f), y.reshape(n, 2), labels


def fit(kind, x, y, labels):
    if kind == "linear":
        return fit_linear(x, y)
    if kind == "poly":
        return fit_polynomial(x, y, degree=2, cross_terms=True)
    if kind == "knn":
        return fit_knn(x, labels, k=min(3, len(x)), n_classes=4)
    net = MlpModel.create(sizes=(x.shape[1], 5, 4), rng_seed=len(x))
    return mlp_train(net, x, one_hot_encode(labels, 4), epochs=2,
                     test_fraction=0.0)[0]


@pytest.mark.parametrize("kind", ["linear", "poly", "knn", "mlp"])
@PROPERTY
@given(data=training_sets())
def test_saved_model_round_trip(tmp_path_factory, kind, data):
    x, y, labels = data
    model = fit(kind, x, y, labels)
    folder = tmp_path_factory.mktemp("model")
    first, second = folder / "first.json", folder / "second.json"
    save_model(model, first)
    loaded = load_model(first)
    assert np.array_equal(loaded.predict(x), model.predict(x))
    save_model(loaded, second)
    assert first.read_bytes() == second.read_bytes()


@pytest.mark.parametrize("where", ["nodir/model.json", "adir"])
def test_unwritable_model_path_raises_io_failure(tmp_path, where):
    (tmp_path / "adir").mkdir()
    model = fit_linear(np.eye(3), np.eye(3)[:, :2])
    with pytest.raises(IoFailure):
        save_model(model, tmp_path / where)
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["adir"]
