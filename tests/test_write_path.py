"""Round trips on the write path: CSV cells and saved models come back
exactly, and a model that cannot be saved leaves no file behind. The CSV
writer and the float-block loader also match per-cell references: the
``csv`` module's bytes, and the first bad cell a row-by-row scan names."""

import csv
import io
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rssiloc.exceptions import IoFailure, MalformedNumber
from rssiloc.ingest import (_WRITE_ROWS, load_regression_csv, load_series_csv,
                            one_hot_encode, write_csv, write_text)
from rssiloc.ensemble import treeloc_fit
from rssiloc.learners import (LinearModel, MlpModel, fit_forest, fit_knn, fit_linear,
                              fit_polynomial, fit_tree, load_model, mlp_train, save_model)

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


def reference_csv(columns) -> bytes:
    """What a per-cell writer gives: csv.writer over each cell's text, floats
    with 17 significant digits."""
    def cell(value):
        if isinstance(value, str):
            return value
        if isinstance(value, (bool, np.bool_)):
            return str(value)
        if isinstance(value, (int, np.integer)):
            return str(int(value))
        return "%.17g" % float(value)

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(columns)
    n = len(next(iter(columns.values()), ()))
    writer.writerows([cell(col[r]) for col in columns.values()] for r in range(n))
    return buffer.getvalue().encode()


text = st.text(st.sampled_from(["a", "Z", " ", "-", "1", ",", '"', "\r", "\n", "%", "é"]),
               max_size=4)
INT_DTYPES = [np.int8, np.int64, np.uint16, np.uint64]


@st.composite
def csv_columns(draw):
    """A mapping of 0-5 columns of n rows, each of one kind of cell."""
    n = draw(st.integers(0, 6))
    columns = {}
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(["float", "float-list", "int", "int-array",
                                     "bool", "bool-array", "str"]))
        if kind.startswith("float"):
            cells = draw(st.lists(st.floats() | st.sampled_from(
                [-0.0, 5e-324, -2.2250738585072014e-308, 1e308, -1e308]),
                min_size=n, max_size=n))
            column = cells if kind == "float-list" else np.array(cells)
        elif kind == "int":
            column = draw(st.lists(st.integers(-2 ** 63, 2 ** 63 - 1), min_size=n, max_size=n))
        elif kind == "int-array":
            dtype = draw(st.sampled_from(INT_DTYPES))
            info = np.iinfo(dtype)
            column = np.array(draw(st.lists(st.integers(int(info.min), int(info.max)),
                                            min_size=n, max_size=n)), dtype=dtype)
        elif kind == "bool":
            column = draw(st.lists(st.booleans(), min_size=n, max_size=n))
        elif kind == "bool-array":
            column = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)),
                              dtype=bool)
        else:
            column = draw(st.lists(text, min_size=n, max_size=n))
        columns[draw(text.filter(lambda name: name not in columns))] = column
    return columns


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(columns=csv_columns())
@example(columns={"": ["", "a"]})
@example(columns={"v": ["", "x,y", 'say "hi"', "a\rb", "a\nb"]})
@example(columns={"a,b": [1.5], "": [np.int64(-3)], "c": [np.True_], "d": [True]})
@example(columns={"v": np.array([-0.0, 5e-324, 1e308, -1e308, math.inf, math.nan])})
@example(columns={})
@example(columns={"u": np.array([2 ** 64 - 1, 0], dtype=np.uint64),
                  "i": [-2 ** 63, 2 ** 63 - 1], "i8": np.array([-128, 127], dtype=np.int8)})
def test_write_csv_matches_csv_writer(tmp_path_factory, columns):
    path = tmp_path_factory.getbasetemp() / "writer.csv"
    write_csv(columns, path)
    assert path.read_bytes() == reference_csv(columns)


@pytest.mark.parametrize("n", [0, 1, _WRITE_ROWS - 1, _WRITE_ROWS, _WRITE_ROWS + 1])
def test_rows_written_in_chunks_match_csv_writer(tmp_path, n):
    words = ["plain", "", "x,y", 'say "hi"', "a\nb", "é"]
    columns = {"f": np.random.default_rng(n).normal(size=n) * 1e3, "i": np.arange(n) - 7,
               "t": [words[i % len(words)] for i in range(n)], 'q,"': [f"{i}," for i in range(n)]}
    for cols in (columns, {"t": columns["t"]}):  # a lone column quotes an empty cell
        write_csv(cols, tmp_path / "rows.csv")
        assert (tmp_path / "rows.csv").read_bytes() == reference_csv(cols)


def test_cells_become_objects_a_chunk_at_a_time(tmp_path):
    """write_csv's peak memory does not grow with the row count: it used to
    turn every cell into a Python float up front."""
    def peak(n):
        columns = {f"c{j}": np.random.default_rng(j).normal(size=n) for j in range(7)}
        tracemalloc.start()
        try:
            write_csv(columns, tmp_path / "big.csv")
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak(40_000) <= 2 * peak(4_000)


def test_failed_part_leaves_no_file(tmp_path):
    def parts():
        yield "a,b\n"
        raise KeyboardInterrupt
    with pytest.raises(KeyboardInterrupt):
        write_text(parts(), tmp_path / "out.csv")
    assert not list(tmp_path.iterdir())


HEADER = ["RSSI1", "RSSI2", "RSSI3", "X_Actual", "Y_Actual"]


def reference_error(path, lines):
    """The message the loader should raise, or None: the first row not as
    wide as the header, as the file is read, else the first cell that is
    not a finite number, scanned row by row and cell by cell."""
    reader = csv.reader(io.StringIO("".join(lines), newline=""))
    next(reader)
    rows = []
    for row in filter(None, reader):
        if len(row) != len(HEADER):
            return f"{path}: line {reader.line_num} has {len(row)} cells, the header {len(HEADER)}"
        rows.append((reader.line_num, row))
    for line, row in rows:
        for name, cell in zip(HEADER, row):
            try:
                if math.isfinite(float(cell)):
                    continue
            except ValueError:
                pass
            return f"row {line}, column {name!r}: not a finite number: {cell!r}"
    return None


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(data=st.data(), n=st.integers(1, 8),
       bad=st.lists(st.sampled_from(["abc", "", " ", "inf", "-inf", "nan", "NaN",
                                     "1e999", "1.5.5", "0x10", "short", "wide"]),
                    min_size=1, max_size=2))
def test_bad_cell_is_named_as_by_a_cell_scan(tmp_path_factory, data, n, bad):
    cells = [["%.17g" % (-60.0 - r - c / 8) for c in range(len(HEADER))] for r in range(n)]
    for b in bad:
        r = data.draw(st.integers(0, n - 1))
        if b == "short":
            cells[r] = cells[r][:data.draw(st.integers(1, len(HEADER) - 1))]
        elif b == "wide":
            cells[r] = cells[r] + ["999"] * data.draw(st.integers(1, 2))
        else:
            cells[r][data.draw(st.integers(0, len(cells[r]) - 1))] = b
    lines = [",".join(HEADER) + "\n"]
    for row in cells:
        lines += ["\n"] * data.draw(st.integers(0, 1))  # blank lines shift the numbering
        lines.append(",".join(row) + "\n")
    path = tmp_path_factory.getbasetemp() / "bad_cell.csv"
    path.write_text("".join(lines))
    expected = reference_error(path, lines)
    if expected is None:  # the edits left every row valid
        load_regression_csv(path)
        return
    with pytest.raises(MalformedNumber) as info:
        load_regression_csv(path)
    assert str(info.value) == expected


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
    if kind in ("tree", "paired"):
        return fit_tree(x, y[:, 0] if kind == "tree" else y, max_depth=4)
    if kind == "forest":
        return fit_forest(x, y[:, 0], n_trees=3, max_depth=4, rng_seed=len(x))
    if kind == "treeloc":  # treeloc fits need 6 rows
        return treeloc_fit(np.vstack([x, x]), np.vstack([y, y]), rng_seed=len(x),
                           tree_depth=3, forest_trees=2, extra_trees=2)
    net = MlpModel.create(sizes=(x.shape[1], 5, 4), rng_seed=len(x))
    return mlp_train(net, x, one_hot_encode(labels, 4), epochs=2)


@pytest.mark.parametrize("kind", ["linear", "poly", "knn", "mlp", "tree", "forest",
                                  "paired", "treeloc"])
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


def test_saved_record_is_the_json_dumps_text(tmp_path):
    # the record is encoded part by part; the file holds json.dumps's text
    x = np.random.default_rng(5).uniform(-90.0, -40.0, (30, 3))
    y = np.column_stack([x[:, 0] * 2.0, x[:, 1] - x[:, 2]])
    for model in (LinearModel(np.array([[math.nan, 1.5], [math.inf, -0.0]])),
                  fit_forest(x, y[:, 0], n_trees=3, max_depth=4),
                  treeloc_fit(x, y, forest_trees=2, extra_trees=2, tree_depth=3)):
        save_model(model, tmp_path / "model.json")
        assert (tmp_path / "model.json").read_text() == json.dumps(model.to_dict())
