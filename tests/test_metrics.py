import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rssiloc.exceptions import EmptyMatrix, LengthMismatch
from rssiloc.cli import main
from rssiloc.metrics import (ConfusionMatrix, RegressionMetrics, classification_metrics,
                             confusion_matrix, format_classification_table,
                             format_regression_table, regression_metrics)


def plain_regression_metrics(a, p):
    """The unscaled formulas: (rmse, mae, std, r2)."""
    a, p = (np.asarray(v, dtype=float) for v in (a, p))
    a, p = (v[:, None] if v.ndim == 1 else v for v in (a, p))
    err = np.linalg.norm(p - a, axis=1)
    ss_tot = float(((a - a.mean(axis=0)) ** 2).sum())
    return (float(np.sqrt(np.mean(err ** 2))), float(np.mean(err)),
            float(np.sqrt(np.mean((err - err.mean()) ** 2))),
            None if ss_tot == 0.0 else 1.0 - float((err ** 2).sum()) / ss_tot)


class TestRegressionMetrics:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(data=st.data(), n=st.integers(1, 30), k=st.sampled_from([None, 1, 2]),
           scale=st.sampled_from([1e-150, 1e-3, 1.0, 1e6, 1e100, 1e150, 1e152]))
    def test_bits_equal_the_plain_formulas(self, data, n, k, scale):
        # at 1e152 the errors are scaled before squaring; below they are not
        shape = (n,) if k is None else (n, k)
        values = st.floats(-1.0, 1.0, allow_subnormal=False)
        a, p = (scale * np.array(data.draw(st.lists(values, min_size=n * (k or 1),
                                                    max_size=n * (k or 1)))).reshape(shape)
                for _ in range(2))
        m = regression_metrics(a, p)
        assert (m.rmse, m.mae, m.std_err, m.r2) == plain_regression_metrics(a, p)

    def test_values_past_the_square_root_of_the_float_range(self):
        # errors of 2e307 square to inf; the metrics themselves are finite
        m = regression_metrics([1e307, 1.0, -1e307], [-1e307, 3.0, 0.0])
        assert np.isfinite([m.rmse, m.mae, m.std_err, m.r2]).all()
        assert m.rmse == pytest.approx(math.sqrt(5.0 / 3.0) * 1e307, rel=1e-15)
        assert m.mae == pytest.approx(1e307, rel=1e-15)
        # a truth of 1e308 twice has no variance: its mean overflowed to inf
        assert regression_metrics([1e308, 1e308], [1e308, 1e308]).r2 is None

    def test_perfect_predictions(self):
        m = regression_metrics([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert m.rmse == 0.0
        assert m.mae == 0.0
        assert m.r2 == 1.0

    def test_single_2d_sample_three_four_five(self):
        m = regression_metrics(np.array([[0.0, 0.0]]), np.array([[3.0, 4.0]]))
        assert m.rmse == 5.0
        assert m.mae == 5.0
        assert m.r2 is None  # single sample: truth has no variance

    def test_predicting_the_mean_gives_zero_r2(self):
        actual = np.array([1.0, 2.0, 3.0, 6.0])
        predicted = np.full(4, actual.mean())
        m = regression_metrics(actual, predicted)
        assert m.r2 == pytest.approx(0.0, abs=1e-12)

    def test_rmse_at_least_mae(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = int(rng.integers(2, 50))
            a = rng.normal(0, 10, n)
            p = a + rng.normal(0, 5, n)
            m = regression_metrics(a, p)
            assert m.rmse >= m.mae - 1e-12

    def test_std_about_mean_error_identity(self):
        # with errors measured as norms, rmse^2 = mae^2 + std^2
        rng = np.random.default_rng(1)
        a = rng.normal(0, 10, (50, 2))
        p = a + rng.normal(0, 2, (50, 2))
        m = regression_metrics(a, p)
        assert m.rmse ** 2 == pytest.approx(m.mae ** 2 + m.std_err ** 2)

    def test_r2_one_after_common_shift(self):
        rng = np.random.default_rng(2)
        a = rng.normal(0, 10, 30)
        for shift in (-100.0, 0.0, 250.0):
            m = regression_metrics(a + shift, a + shift)
            assert m.r2 == 1.0

    def test_zero_variance_truth_marker(self):
        m = regression_metrics([5.0, 5.0, 5.0], [5.0, 6.0, 4.0])
        assert m.r2 is None
        assert m.rmse > 0

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            regression_metrics([1.0, 2.0], [1.0])
        with pytest.raises(LengthMismatch):
            regression_metrics([], [])


class TestClassificationMetrics:
    def test_perfect_two_class(self):
        cm = confusion_matrix([0, 1], [0, 1], labels=("A", "B"))
        report = classification_metrics(cm)
        a = report.per_class["A"]
        assert a.accuracy == 1.0
        assert a.precision == 1.0
        assert a.f1 == 1.0
        assert report.overall_accuracy == 1.0

    def test_hand_counts(self):
        # class A: TP=2, FP=1, FN=1, TN=6
        table = np.array([[2, 1, 0], [1, 4, 0], [0, 0, 2]])
        cm = ConfusionMatrix(table=table, labels=("A", "B", "C"))
        assert cm.counts(0) == (2, 1, 1, 6)
        report = classification_metrics(cm)
        a = report.per_class["A"]
        assert a.precision == pytest.approx(2 / 3)
        assert a.sensitivity == pytest.approx(2 / 3)
        assert a.f1 == pytest.approx(2 / 3)

    def test_degenerate_zero_denominators_flagged(self):
        # class B never predicted and never present
        cm = confusion_matrix([0, 0], [0, 0], labels=("A", "B"))
        report = classification_metrics(cm)
        b = report.per_class["B"]
        assert b.precision == 0.0
        assert b.f1 == 0.0
        assert "precision" in b.degenerate
        assert "sensitivity" in b.degenerate

    def test_f1_harmonic_mean_identity(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            actual = rng.integers(0, 4, 60)
            predicted = rng.integers(0, 4, 60)
            cm = confusion_matrix(actual, predicted, labels="ABCD")
            report = classification_metrics(cm)
            for m in report.per_class.values():
                if m.precision > 0 and m.sensitivity > 0:
                    harmonic = (2 * m.precision * m.sensitivity
                                / (m.precision + m.sensitivity))
                    assert abs(m.f1 - harmonic) < 1e-12

    def test_macro_is_unweighted_mean(self):
        cm = confusion_matrix([0, 0, 0, 1], [0, 0, 1, 1], labels=("A", "B"))
        report = classification_metrics(cm)
        per = list(report.per_class.values())
        assert report.macro.precision == pytest.approx(
            np.mean([m.precision for m in per]))

    def test_per_class_counts_partition_n(self):
        rng = np.random.default_rng(4)
        actual = rng.integers(0, 4, 80)
        predicted = rng.integers(0, 4, 80)
        cm = confusion_matrix(actual, predicted, labels="ABCD")
        for idx in range(4):
            tp, fp, fn, tn = cm.counts(idx)
            assert tp + fp + fn + tn == 80

    def test_empty_matrix(self):
        cm = ConfusionMatrix(table=np.zeros((2, 2), dtype=int),
                             labels=("A", "B"))
        with pytest.raises(EmptyMatrix):
            classification_metrics(cm)


class TestTables:
    def test_regression_table_renders(self):
        m = regression_metrics([1.0, 2.0], [1.5, 2.5])
        text = format_regression_table({"x": m})
        assert "rmse" in text and "x" in text

    def test_undefined_r2_rendered(self):
        m = regression_metrics([5.0, 5.0], [5.0, 6.0])
        text = format_regression_table({"x": m})
        assert "undefined" in text

    def test_classification_table_renders(self):
        cm = confusion_matrix([0, 1, 1], [0, 1, 0], labels=("A", "B"))
        text = format_classification_table(classification_metrics(cm))
        assert "macro" in text
        assert "overall accuracy" in text


def fixed_point_table(rows) -> str:
    """The table as every metric was printed before: always .4f."""
    header = f"{'series':<12}{'rmse':>12}{'mae':>12}{'std':>12}{'r2':>12}{'n':>8}"
    lines = [header, "-" * len(header)]
    for name, m in rows.items():
        r2 = "undefined" if m.r2 is None else f"{m.r2:.4f}"
        lines.append(f"{name:<12}{m.rmse:>12.4f}{m.mae:>12.4f}"
                     f"{m.std_err:>12.4f}{r2:>12}{m.n:>8d}")
    return "\n".join(lines)


UNDER_A_MILLION = (st.floats(-1e6, 1e6, exclude_min=True, exclude_max=True)
                   | st.sampled_from([0.0, -0.0, 999999.99994, 999999.99996,
                                      -999999.99994, -999999.99996]))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(values=st.lists(UNDER_A_MILLION, min_size=4, max_size=4),
       undefined=st.booleans(), n=st.integers(1, 10 ** 7))
def test_metrics_under_a_million_print_as_before(values, undefined, n):
    rmse, mae, std, r2 = values
    rows = {"x": RegressionMetrics(rmse, mae, std, None if undefined else r2, n)}
    table = format_regression_table(rows)
    assert len({len(line) for line in table.splitlines()}) == 1
    # a 12-character value such as -100000.0000 fit the column but touched
    # the cell before it, so it prints in exponent form now
    if all(len(f"{v:.4f}") <= 11 for v in values):
        assert table == fixed_point_table(rows)


def test_wide_metrics_keep_the_table_columns(tmp_path, capsys):
    path = tmp_path / "wide.csv"
    path.write_text("X_Actual,Y_Actual,X_Pred,Y_Pred\n1e307,1,-1e307,2\n1,2,3,4\n")
    assert main(["evaluate", "-i", str(path)]) == 0
    table = capsys.readouterr().out.split("\n\n", 1)[1].splitlines()
    assert len({len(line) for line in table}) == 1
    assert table[2].split() == ["x", "1.4142e+307", "1.0000e+307", "1.0000e+307",
                                "-7.0000", "2"]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(values=st.lists(st.floats(allow_nan=False, allow_infinity=False)
                       | st.sampled_from([-1.2e150, -1.7976931348623157e308, -100000.0,
                                          1234567.3115, -123456.789, -5e-324]),
                       min_size=4, max_size=4),
       undefined=st.booleans(), n=st.integers(1, 10 ** 8))
def test_table_cells_never_touch(values, undefined, n):
    # every row splits on whitespace into its 6 fields: no cell fills its
    # column
    rmse, mae, std, r2 = values
    rows = {name: RegressionMetrics(rmse, mae, std, None if undefined else r2, n)
            for name in ("x", "y", "pos2d")}
    for name, line in zip(rows, format_regression_table(rows).splitlines()[2:]):
        fields = line.split()
        assert len(fields) == 6 and fields[0] == name and int(fields[5]) == n
        for cell in fields[1:5]:
            assert cell == "undefined" or float(cell) == float(cell)  # parses
