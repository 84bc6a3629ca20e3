"""Regression tests for defects that once escaped their documented contract."""

import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from _synth import beacon_dataset, load_all_columns, regression_testbed
from rssiloc.cli import main
from rssiloc.core import Anchor, PathLossParams, Position, Scene, validate_scene
from rssiloc import ensemble, learners, metrics
from rssiloc.exceptions import (DegenerateGeometry, MalformedNumber, NonPositiveSigma,
                                ShapeMismatch)
from rssiloc.filters import KalmanState, gaussian_filter, gaussian_kernel, moving_average
from rssiloc.ingest import (BEACON_COLUMNS, RegressionDataset, load_ibeacon_csv,
                            load_regression_csv, load_series_csv, write_csv)
from rssiloc.radio import NoiseSpec


class TestGaussianFilterLength:
    def test_kernel_longer_than_signal(self):
        # sigma 2 gives a 13-tap kernel; "same" convolution used to return
        # max(13, 5) samples instead of 5
        out = gaussian_filter([-60.0, -61.0, -59.0, -62.0, -60.0], 2.0)
        assert out.shape == (5,)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(n=st.integers(1, 40), sigma=st.floats(0.05, 20.0),
           level=st.floats(-120.0, 0.0))
    def test_length_and_constants_preserved(self, n, sigma, level):
        out = gaussian_filter(np.full(n, level), sigma)
        assert out.shape == (n,)
        np.testing.assert_allclose(out, level, rtol=1e-12, atol=1e-12)

    def test_long_signal_unchanged_by_the_fix(self):
        # with the kernel shorter than the signal, the output is the
        # renormalized "same" convolution, bit for bit
        sig = np.random.default_rng(3).normal(-60.0, 3.0, 50)
        kernel = np.exp(-np.arange(-3.0, 4.0) ** 2 / 2.0)
        kernel /= kernel.sum()
        expected = (np.convolve(sig, kernel, mode="same")
                    / np.convolve(np.ones(50), kernel, mode="same"))
        np.testing.assert_array_equal(gaussian_filter(sig, 1.0), expected)


class TestRaggedCsvRow:
    def write(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("RSSI1,RSSI2,RSSI3,X_Actual,Y_Actual\n"
                        "-60,-61,-62,10,20\n"
                        "-60,-61\n")
        return path

    def test_loaders_name_the_line(self, tmp_path):
        path = self.write(tmp_path)
        for load in (load_all_columns, load_regression_csv):
            with pytest.raises(MalformedNumber, match="line 3"):
                load(path)

    def test_filter_exits_3_without_traceback(self, tmp_path, capsys):
        path = self.write(tmp_path)
        code = main(["filter", "--filter", "ma", "--window", "3", "-i",
                     str(path), "-o", str(tmp_path / "out.csv")])
        err = capsys.readouterr().err
        assert code == 3
        assert "line 3" in err and "Traceback" not in err
        assert not (tmp_path / "out.csv").exists()


class TestNonFiniteCells:
    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
    @pytest.mark.parametrize("command", [
        ["locate", "--solver", "lls", "--anchors", "0,0;400,0;200,300"],
        ["filter", "--filter", "kalman"]])
    def test_exit_3_naming_the_cell(self, tmp_path, capsys, cell, command):
        path = tmp_path / "in.csv"
        path.write_text("RSSI1,RSSI2,RSSI3,X_Actual,Y_Actual\n"
                        "-60,-61,-62,10,20\n"
                        f"-60,{cell},-62,10,20\n")
        out = tmp_path / "out.csv"
        code = main(command + ["-i", str(path), "-o", str(out)])
        err = capsys.readouterr().err
        assert code == 3
        assert "MalformedNumber" in err and "row 3" in err and "RSSI2" in err
        assert not out.exists()

    def test_loader_rejects_non_finite(self, tmp_path):
        path = tmp_path / "in.csv"
        path.write_text("RSSI1,RSSI2,RSSI3,X_Actual,Y_Actual\n"
                        "-60,-61,-62,nan,20\n")
        with pytest.raises(MalformedNumber, match="row 2.*X_Actual"):
            load_regression_csv(path)


class TestLineNumbersAfterBlankLines:
    def write(self, tmp_path):
        # the bad cell sits on line 5 of the file, after two blank lines
        path = tmp_path / "blank.csv"
        path.write_text("RSSI1,RSSI2,RSSI3,X_Actual,Y_Actual\n"
                        "-60,-61,-62,10,20\n"
                        "\n"
                        "\n"
                        "-60,oops,-62,10,20\n")
        return path

    def test_loaders_name_the_file_line(self, tmp_path):
        path = self.write(tmp_path)
        with pytest.raises(MalformedNumber, match="row 5, column 'RSSI2'"):
            load_regression_csv(path)
        with pytest.raises(MalformedNumber, match="row 5, column 'RSSI2'"):
            load_series_csv(path, ["RSSI2"])

    def test_filter_names_the_file_line(self, tmp_path, capsys):
        path = self.write(tmp_path)
        code = main(["filter", "--filter", "ma", "-i", str(path),
                     "-o", str(tmp_path / "out.csv")])
        assert code == 3
        assert "row 5, column 'RSSI2'" in capsys.readouterr().err

    def test_beacon_loader_names_the_file_line(self, tmp_path):
        path = tmp_path / "beacons.csv"
        header = "location," + ",".join(f"b{3000 + i}" for i in range(1, 14))
        good = "A01," + ",".join(["-200"] * 13)
        path.write_text(f"{header}\n{good}\n\n{good}\nA02,oops"
                        + ",-200" * 12 + "\n")
        with pytest.raises(MalformedNumber, match="row 5, column 'b3001'"):
            load_ibeacon_csv(path)


class TestFitTestSize:
    """fit --test-size was not range-checked: -1 trained and reported on
    every row, and a size leaving no training rows exited 3 for the
    regressors but 2 for knn and mlp."""

    def files(self, tmp_path):
        rssi, targets, _, _ = regression_testbed(5, n=12)
        regression = tmp_path / "regression.csv"
        write_csv({"RSSI1": rssi[:, 0], "RSSI2": rssi[:, 1], "RSSI3": rssi[:, 2],
                   "X_Actual": targets[:, 0], "Y_Actual": targets[:, 1]}, regression)
        features, labels, _ = beacon_dataset(3, n=12)
        beacons = tmp_path / "beacons.csv"
        write_csv({"location": [["B05", "B12", "L05", "L12"][z] for z in labels],
                   **dict(zip(BEACON_COLUMNS, features.T))}, beacons)
        return regression, beacons

    @pytest.mark.parametrize("size", ["-1", "-0.1", "1", "1.5", "nan"])
    def test_out_of_range_exits_2_for_every_model(self, tmp_path, capsys, size):
        regression, beacons = self.files(tmp_path)
        for model in ("linear", "tree", "treeloc", "knn", "mlp"):
            data = beacons if model in ("knn", "mlp") else regression
            code = main(["fit", "--model", model, "--test-size", size, "--k", "1",
                         "--n-trees", "2", "--epochs", "1", "-i", str(data)])
            assert code == 2, (model, size)
            assert "--test-size" in capsys.readouterr().err

    def test_no_training_rows_exits_2_for_every_model(self, tmp_path):
        regression, beacons = self.files(tmp_path)
        for model, data in (("linear", regression), ("knn", beacons)):
            one_row = tmp_path / f"one_{model}.csv"
            one_row.write_text("".join(data.read_text().splitlines(True)[:2]))
            assert main(["fit", "--model", model, "--test-size", "0.9", "--k", "1",
                         "-i", str(one_row)]) == 2

    def test_in_range_sizes_still_fit(self, tmp_path):
        regression, _ = self.files(tmp_path)
        for size in ("0", "0.5", "0.9"):
            assert main(["fit", "--model", "linear", "--test-size", size,
                         "-i", str(regression)]) == 0


class TestNonFiniteParameters:
    """NaN and infinite parameters are rejected where they enter, not
    written out as nan/inf cells or left to fail deep in a solver."""

    @pytest.mark.parametrize("command", [
        ["simulate", "--sigma-p", "nan"], ["simulate", "--p0", "nan"],
        ["simulate", "--eta", "inf"],
        ["filter", "--filter", "kalman", "--q", "nan"],
        ["filter", "--filter", "kalman", "--q", "inf"],
        ["filter", "--filter", "kalman", "--r", "nan"],
        ["filter", "--filter", "gaussian", "--sigma", "inf"],
        ["locate", "--solver", "wls", "--sigma-p", "nan"],
        ["locate", "--solver", "hyperbolic-w", "--sigma-p", "nan"]])
    def test_cli_exits_2_without_output(self, tmp_path, capsys, command):
        path = tmp_path / "in.csv"
        path.write_text("RSSI1,RSSI2,RSSI3,X_Actual,Y_Actual\n"
                        "-60,-61,-62,10,20\n-61,-60,-63,11,21\n")
        out = tmp_path / "out.csv"
        scene = [] if command[0] == "filter" else ["--anchors", "0,0;400,0;200,300"]
        source = ["--positions", "2"] if command[0] == "simulate" else ["-i", str(path)]
        code = main(command + scene + source + ["-o", str(out)])
        err = capsys.readouterr().err
        assert code == 2, err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("make", [
        lambda v: PathLossParams(p0=v), lambda v: PathLossParams(d0=v),
        lambda v: PathLossParams(eta=v), lambda v: PathLossParams(sigma_shadow=v),
        lambda v: NoiseSpec(sigma_a=v), lambda v: NoiseSpec(sigma_p=v),
        lambda v: Anchor("A", Position(0.0, 0.0), sigma_a=v),
        lambda v: Anchor("A", Position(0.0, 0.0), sigma_p=v),
        lambda v: KalmanState(x_hat=v, p=1.0, q=1.0, r=1.0),
        lambda v: KalmanState(x_hat=0.0, p=v, q=1.0, r=1.0),
        lambda v: KalmanState(x_hat=0.0, p=1.0, q=v, r=1.0),
        lambda v: KalmanState(x_hat=0.0, p=1.0, q=1.0, r=v), gaussian_kernel])
    def test_constructors_reject(self, make, value):
        with pytest.raises((ValueError, NonPositiveSigma)):
            make(value)


class TestFilterExtremes:
    def write(self, tmp_path, column):
        path = tmp_path / "in.csv"
        path.write_text("RSSI1,RSSI2,RSSI3,X_Actual,Y_Actual\n"
                        + "".join(f"{v},-6{i},-61,1,2\n" for i, v in enumerate(column)))
        return path

    @pytest.mark.parametrize("flt", ["ma", "kalman"])
    def test_huge_constant_column_passes_through(self, tmp_path, capsys, flt):
        out = tmp_path / "out.csv"
        code = main(["filter", "--filter", flt, "-i", str(self.write(tmp_path, ["1e308"] * 3)),
                     "-o", str(out)])
        assert code == 0, capsys.readouterr().err
        assert list(load_series_csv(out, ["RSSI1"])["RSSI1"]) == [1e308] * 3

    @pytest.mark.parametrize("flags", [["gaussian", "--sigma", "1e12"],
                                       ["gaussian", "--sigma", "1e200"],
                                       ["median", "--half-width", "1000000000000"]])
    def test_huge_widths_exit_0(self, tmp_path, capsys, flags):
        code = main(["filter", "--filter", *flags, "-o", str(tmp_path / "out.csv"),
                     "-i", str(self.write(tmp_path, ["-60", "-70", "-65"]))])
        assert code == 0, capsys.readouterr().err

    def test_non_finite_output_exits_4(self, tmp_path, capsys):
        out = tmp_path / "out.csv"
        code = main(["filter", "--filter", "ma", "-o", str(out),
                     "-i", str(self.write(tmp_path, ["1e308", "-1e308", "1e308"]))])
        err = capsys.readouterr().err
        assert code == 4 and "non-finite values in RSSI1" in err
        assert "Traceback" not in err and not out.exists()

    @pytest.mark.parametrize("sigma", ["1e-200", "1.4e-162", "5e-324"])
    def test_underflowing_sigma_is_the_identity(self, tmp_path, capsys, sigma):
        # 2 sigma^2 underflows to 0: the kernel was 0/0 at its centre (exit 4)
        src, out = self.write(tmp_path, ["-60.5", "-70.25", "-65"]), tmp_path / "out.csv"
        code = main(["filter", "--filter", "gaussian", "--sigma", sigma,
                     "-i", str(src), "-o", str(out)])
        assert code == 0, capsys.readouterr().err
        assert load_all_columns(out) == load_all_columns(src)
        assert list(gaussian_kernel(float(sigma))) == [0.0, 1.0, 0.0]


class TestTreelocTargets:
    @pytest.mark.parametrize("shape", [(30,), (30, 1), (30, 3), (29, 2), (30, 2, 1)])
    def test_bad_targets_raise_before_any_fit(self, monkeypatch, shape):
        def no_fit(*args, **kwargs):
            raise AssertionError("a component was fitted")
        for name in ("fit_extra_trees", "fit_tree", "fit_forest"):
            monkeypatch.setattr(ensemble, name, no_fit)
        x = np.random.default_rng(0).normal(size=(30, 3))
        with pytest.raises(ShapeMismatch, match=str(shape).replace("(", r"\(").replace(")", r"\)")):
            ensemble.treeloc_fit(x, np.zeros(shape))


class TestHugeAnchorCoordinates:
    """Anchors near +-1e308: the scene diameter squared their differences,
    so numpy warned of an overflow, and a wide triangle whose squares
    overflowed was rejected as collinear. The test run turns warnings into
    errors."""

    @staticmethod
    def scene(points):
        return Scene(Anchor(f"A{i}", Position(x, y)) for i, (x, y) in enumerate(points))

    def test_wide_triangle_is_valid(self):
        wide = self.scene([(-1e308, 0.0), (1e308, 0.0), (0.0, 1e308)])
        assert validate_scene(wide) is wide
        assert wide.diameter() == math.inf  # 2e308 is past the float range
        corner = self.scene([(0.0, 0.0), (1e308, 0.0), (0.0, 1e308)])
        assert validate_scene(corner) is corner
        assert corner.diameter() == pytest.approx(math.sqrt(2) * 1e308)

    def test_thin_triangle_is_degenerate(self):
        with pytest.raises(DegenerateGeometry, match="sigma_min=70.7"):
            validate_scene(self.scene([(0.0, 0.0), (1e308, 0.0), (0.0, 100.0)]))

    @pytest.mark.parametrize("anchors", ["0,0;1e308,0;0,100", "-1e308,0;1e308,0;0,1e308",
                                         "0,0;1.5e308,0;0,1.5e308"])
    def test_simulate_exits_without_traceback_or_warning(self, tmp_path, anchors):
        src = os.path.dirname(os.path.dirname(ensemble.__file__))
        done = subprocess.run(
            [sys.executable, "-m", "rssiloc.cli", "simulate", f"--anchors={anchors}",
             "-o", "out.csv"], cwd=tmp_path, capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=src))
        assert done.returncode in (2, 4), done.stderr
        assert "Traceback" not in done.stderr and "Warning" not in done.stderr
        assert not (tmp_path / "out.csv").exists()


class TestLocateNonFiniteEstimates:
    """Anchors far from the origin overflow the wls and wls-bc weights:
    locate wrote nan estimates for every row and exited 0."""

    ANCHORS = "--anchors=0,0;1e150,0;0,1e150"

    @pytest.mark.parametrize("solver", ["wls", "wls-bc"])
    def test_exits_4_without_output(self, tmp_path, capsys, solver):
        sim, out = tmp_path / "sim.csv", tmp_path / "loc.csv"
        assert main(["simulate", self.ANCHORS, "--positions", "5", "-o", str(sim)]) == 0
        code = main(["locate", "--solver", solver, self.ANCHORS, "-i", str(sim),
                     "-o", str(out), "--report", str(tmp_path / "report.txt")])
        err = capsys.readouterr().err
        assert code == 4 and f"row 2: {solver} gave a non-finite estimate" in err
        assert "Traceback" not in err and not out.exists()
        assert not (tmp_path / "report.txt").exists()
        # the unweighted solvers stay finite on the same file
        assert main(["locate", "--solver", "lls", self.ANCHORS, "-i", str(sim),
                     "-o", str(out)]) == 0
        columns = load_all_columns(out)
        assert np.isfinite(np.array(columns["X_Pred"] + columns["Y_Pred"], dtype=float)).all()


class TestLocateExitCodeDoesNotDependOnTheSolver:
    """Two rows that only data makes unsolvable exited 2 (a configuration
    error) for some solvers and 4 for the others: a cell of -1e308 dBm
    overflows a range, so the pseudo-linear systems' rhs was a ValueError,
    and in-range anchors on one line were CollinearAnchors for
    trilateration alone."""

    CASES = {
        "overflowing range": ("0,0;400,0;0,300", ["-50", "-60", "-1e308"], ["--sigma-p", "2"]),
        "collinear in-range anchors": ("0,0;400,0;0,300;400,300;200,150",
                                       ["-60", "-200", "-200", "-66", "-50"], []),
    }

    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("solver", ["trilateration", "lls", "wls", "wls-bc",
                                        "hyperbolic", "hyperbolic-w"])
    def test_exits_4(self, tmp_path, capsys, case, solver):
        anchors, cells, flags = self.CASES[case]
        data, out = tmp_path / "in.csv", tmp_path / "loc.csv"
        header = [f"RSSI{i + 1}" for i in range(len(cells))] + ["X_Actual", "Y_Actual"]
        data.write_text(",".join(header) + "\n" + ",".join(cells + ["1", "1"]) + "\n")
        code = main(["locate", "--solver", solver, "--anchors", anchors, *flags,
                     "-i", str(data), "-o", str(out)])
        captured = capsys.readouterr()
        assert code == 4, captured.err
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith("numerical failure") and not out.exists()

    def test_collinear_scene_anchors_stay_a_config_error(self, tmp_path, capsys):
        # trilateration solves on the first three anchors: with all of them in
        # range the scene is at fault, not the row
        data = tmp_path / "in.csv"
        data.write_text("RSSI1,RSSI2,RSSI3,RSSI4,X_Actual,Y_Actual\n-60,-62,-64,-61,1,1\n")
        code = main(["locate", "--solver", "trilateration", "--anchors", "0,0;200,0;400,0;0,300",
                     "-i", str(data), "-o", str(tmp_path / "loc.csv")])
        assert code == 2 and "CollinearAnchors" in capsys.readouterr().err


class TestLocateNamesTheFailingRow:
    """An error raised inside one anchor group's solve named no row, while
    the same row under trilateration or hyperbolic was named: a non-finite
    rhs, a rank-deficient design and a distance that underflows to 0. Each
    file holds a good row on line 2 and the bad row on line 3."""

    CASES = {  # anchors, the bad row, flags and the solvers that exit 0
        "overflowing range": ("0,0;400,0;0,300", "-50,-60,-1e308", ["--sigma-p", "2"], ()),
        "collinear in-range anchors": ("0,0;400,0;0,300;400,300;200,150",
                                       "-60,-200,-200,-66,-50", [], ()),
        "distance underflow": ("0,0;400,0;0,300", "-50,-60,1e308", ["--sigma-p", "2"],
                               ("trilateration", "lls", "hyperbolic")),
    }
    GOOD = ["-50", "-60", "-55", "-58", "-57"]

    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("solver", ["trilateration", "lls", "wls", "wls-bc",
                                        "hyperbolic", "hyperbolic-w"])
    def test_names_row_3(self, tmp_path, capsys, case, solver):
        anchors, bad, flags, solved = self.CASES[case]
        m = bad.count(",") + 1
        data, out = tmp_path / "in.csv", tmp_path / "loc.csv"
        data.write_text(",".join([f"RSSI{i + 1}" for i in range(m)] + ["X_Actual", "Y_Actual"])
                        + f"\n{','.join(self.GOOD[:m])},1,1\n{bad},1,1\n")
        code = main(["locate", "--solver", solver, "--anchors", anchors, *flags,
                     "-i", str(data), "-o", str(out)])
        captured = capsys.readouterr()
        if solver in solved:
            assert code == 0 and out.exists()
            return
        assert code == 4 and captured.out == "" and not out.exists()
        assert captured.err.count("\n") == 1 and "row 3: " in captured.err, captured.err


class TestNonFiniteFitAndPredict:
    """fit and predict had no float-error scope and no finite check: a
    saved linear record with a nan in theta predicted nan cells and exited
    0, one whose theta overflowed raised a RuntimeWarning (a traceback
    under -W error), and a singular polynomial fit's LinAlgError exited 2
    as a config error."""

    RSSI, TARGETS, _, _ = regression_testbed(5, n=30)

    def write_testbed(self, tmp_path):
        path = tmp_path / "testbed.csv"
        write_csv(RegressionDataset(self.RSSI, self.TARGETS), path)
        return path

    @pytest.mark.parametrize("rows, value", [(1, float("nan")), (slice(None), 1e308)])
    def test_predict_exits_4_without_output(self, tmp_path, capsys, rows, value):
        record = learners.fit_linear(self.RSSI, self.TARGETS).to_dict()
        theta = np.array(record["parameters"]["theta"])
        theta[rows] = value
        record["parameters"]["theta"] = theta.tolist()
        saved, out, report = (tmp_path / "model.json", tmp_path / "out.csv",
                              tmp_path / "report.txt")
        saved.write_text(json.dumps(record))  # json writes and reads NaN
        data = self.write_testbed(tmp_path)
        code = main(["predict", "--model-file", str(saved), "-i", str(data),
                     "-o", str(out), "--report", str(report)])
        err = capsys.readouterr().err
        assert code == 4 and "predict gave non-finite values in X_Pred" in err
        assert "Traceback" not in err
        assert not out.exists() and not report.exists()

    def test_singular_polynomial_fit_exits_4(self, tmp_path, capsys):
        out = tmp_path / "out.csv"
        code = main(["fit", "--model", "poly", "--degree", "400",
                     "-i", str(self.write_testbed(tmp_path)), "-o", str(out)])
        err = capsys.readouterr().err
        # the terms overflow: refused before lstsq, which failed with LinAlgError
        assert code == 4 and "numerical failure: NumericalError" in err
        assert "polynomial terms of the features are not finite" in err
        assert "Traceback" not in err and not out.exists()

    def test_overflowing_polynomial_terms_print_one_line(self, tmp_path):
        # LAPACK printed "** On entry to DLASCL parameter number 4 had an
        # illegal value" twice to file descriptor 1, which only a separate
        # process sees
        src = os.path.dirname(os.path.dirname(ensemble.__file__))
        done = subprocess.run(
            [sys.executable, "-m", "rssiloc.cli", "fit", "--model", "poly", "--degree",
             "400", "-i", str(self.write_testbed(tmp_path)), "-o", "out.csv"],
            cwd=tmp_path, capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src))
        assert done.returncode == 4 and done.stdout == ""
        assert done.stderr.count("\n") == 1 and done.stderr.endswith("\n"), done.stderr
        assert done.stderr.startswith("numerical failure: NumericalError")
        assert not (tmp_path / "out.csv").exists()


class TestNonFiniteMetrics:
    """evaluate printed rmse inf, std nan and r2 nan for rows whose error
    overflows, and exited 0."""

    def test_evaluate_exits_4_without_report(self, tmp_path, capsys):
        path, report = tmp_path / "pred.csv", tmp_path / "report.txt"
        path.write_text("X_Actual,Y_Actual,X_Pred,Y_Pred\n1e308,0,-1e308,0\n1,2,3,4\n")
        code = main(["evaluate", "-i", str(path), "--report", str(report)])
        captured = capsys.readouterr()
        assert code == 4 and captured.out == ""
        assert captured.err == ("numerical failure: NumericalError: "
                                "evaluate gave non-finite x metrics\n")
        assert not report.exists()


class TestLargeErrorMetrics:
    """Errors above ~1.3e154 squared to inf, so evaluate exited 4 ("non-finite
    x metrics") on metrics that are representable."""

    def test_evaluate_reports_them(self, tmp_path, capsys):
        path, report = tmp_path / "pred.csv", tmp_path / "report.txt"
        path.write_text("X_Actual,Y_Actual,X_Pred,Y_Pred\n1e307,1,-1e307,2\n1,2,3,4\n")
        code = main(["evaluate", "-i", str(path), "--report", str(report)])
        captured = capsys.readouterr()
        assert code == 0 and captured.err == "" and report.read_text() == captured.out
        x = metrics.regression_metrics([1e307, 1.0], [-1e307, 3.0])
        assert x.rmse == pytest.approx(math.sqrt(2.0) * 1e307, rel=1e-15)
        assert x.mae == pytest.approx(1e307, rel=1e-15) and x.r2 == pytest.approx(-7.0)


class TestKalmanOverflow:
    """A Kalman overflow exited 2 as a config error; the other three
    filters' overflows exit 4."""

    def write(self, tmp_path):
        path = tmp_path / "in.csv"
        path.write_text("RSSI1,RSSI2,RSSI3,X_Actual,Y_Actual\n"
                        "-60,-61,-62,10,20\n-70,-60,-63,11,21\n-50,-62,-61,12,22\n")
        return path

    def test_overflow_exits_4_without_output(self, tmp_path, capsys):
        out = tmp_path / "out.csv"
        code = main(["filter", "--filter", "kalman", "--q", "1e308",
                     "-i", str(self.write(tmp_path)), "-o", str(out)])
        assert code == 4 and not out.exists()
        assert capsys.readouterr().err == \
            "numerical failure: NumericalError: Kalman state is not finite\n"

    @pytest.mark.parametrize("flags", [["--q", "-1"], ["--r", "-1"], ["--q", "0", "--r", "0"],
                                       ["--r", "inf"]])  # TestNonFiniteParameters has the rest
    def test_bad_start_still_exits_2(self, tmp_path, capsys, flags):
        out = tmp_path / "out.csv"
        code = main(["filter", "--filter", "kalman", *flags,
                     "-i", str(self.write(tmp_path)), "-o", str(out)])
        err = capsys.readouterr().err
        assert code == 2 and err.startswith("config error: ValueError") and not out.exists()


class TestOverflowingLeafMeans:
    """treeloc on finite cells near the float's edge: leaf means overflowed
    to inf, and the combiner's lstsq printed LAPACK's "** On entry to
    DLASCL parameter number 4 had an illegal value" twice to file
    descriptor 1, then exited 4 with LinAlgError, with and without
    --fixed-coefficients."""

    CELLS = ("-200", "5e-324", "1e154", "1e308")
    TARGETS = ("1.7976931348623157e308", "1e308")

    @pytest.mark.parametrize("flags", [[], ["--fixed-coefficients"]])
    def test_exits_4_with_one_stderr_line(self, tmp_path, flags):
        rows = [[self.CELLS[(i + j) % 4] for j in range(3)]
                + list(self.TARGETS if i % 2 == 0 else self.TARGETS[::-1]) for i in range(8)]
        path = tmp_path / "edge.csv"
        path.write_text("RSSI1,RSSI2,RSSI3,X_Actual,Y_Actual\n"
                        + "".join(",".join(row) + "\n" for row in rows))
        src = os.path.dirname(os.path.dirname(ensemble.__file__))
        done = subprocess.run(
            [sys.executable, "-m", "rssiloc.cli", "treeloc", "--n-trees", "3", "--test-size",
             "0", "-i", str(path), "-o", "out.csv", *flags],
            cwd=tmp_path, capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src))
        assert done.returncode == 4 and done.stdout == ""
        assert done.stderr.count("\n") == 1 and done.stderr.endswith("\n"), done.stderr
        assert done.stderr.startswith("numerical failure: NumericalError")
        assert not (tmp_path / "out.csv").exists()


class TestByteOrderMark:
    """Every reader kept a UTF-8 byte-order mark, as Excel's "CSV UTF-8"
    export writes one, in its file's first header cell or line: locate
    exited 3 with a missing RSSI1, filter exited 0 with RSSI1 left
    unfiltered, and a zone, anchors, config or model file failed."""

    ANCHORS = "0,0;400,0;200,300"
    # the input given a byte-order mark, and the command that reads it
    CASES = {
        "locate": ("data.csv", ["locate", "--solver", "wls", "--anchors", ANCHORS, "-i",
                                "data.csv", "-o", "out.csv", "--report", "report.txt"]),
        "filter": ("data.csv", ["filter", "--filter", "ma", "-i", "data.csv", "-o", "out.csv"]),
        "zone file": ("zones.txt", ["fit", "--model", "knn", "--k", "3", "--zones", "zones.txt",
                                    "-i", "beacons.csv", "-o", "out.csv", "--report",
                                    "report.txt"]),
        "anchors file": ("anchors.txt", ["locate", "--solver", "lls", "--anchors-file",
                                         "anchors.txt", "-i", "data.csv", "-o", "out.csv"]),
        "config file": ("run.cfg", ["locate", "--config", "run.cfg", "-i", "data.csv",
                                    "-o", "out.csv", "--report", "report.txt"]),
        "model file": ("model.json", ["predict", "--model-file", "model.json", "-i",
                                      "data.csv", "-o", "out.csv", "--report", "report.txt"]),
    }

    def write_inputs(self, root):
        rssi, targets, _, _ = regression_testbed(5, n=30)
        write_csv({**{f"RSSI{j + 1}": rssi[:, j] for j in range(3)},
                   "X_Actual": targets[:, 0], "Y_Actual": targets[:, 1]}, root / "data.csv")
        features, labels, _ = beacon_dataset(3, n=40)
        write_csv({"location": [f"{'BL'[z // 2]}{'05' if z % 2 == 0 else '12'}" for z in labels],
                   **{name: features[:, j] for j, name in enumerate(BEACON_COLUMNS)}},
                  root / "beacons.csv")
        (root / "zones.txt").write_text("B05=A\nB12=B\nL05=C\nL12=D\n")
        (root / "anchors.txt").write_text("x,y\n0,0\n400,0\n200,300\n")
        (root / "run.cfg").write_text(f"solver = wls-bc\nanchors = {self.ANCHORS}\n")
        learners.save_model(learners.fit_tree(rssi, targets, max_depth=3), root / "model.json")

    @pytest.mark.parametrize("name, argv", CASES.values(), ids=CASES.keys())
    def test_same_exit_code_and_outputs(self, tmp_path, monkeypatch, capsys, name, argv):
        runs = []
        for mark in (b"", b"\xef\xbb\xbf"):
            root = tmp_path / ("marked" if mark else "plain")
            root.mkdir()
            self.write_inputs(root)
            (root / name).write_bytes(mark + (root / name).read_bytes())
            inputs = set(root.iterdir())
            monkeypatch.chdir(root)
            code = main(list(argv))
            outputs = {p.name: p.read_bytes() for p in set(root.iterdir()) - inputs}
            runs.append((code, capsys.readouterr(), outputs))
        assert runs[0][0] == 0 and "out.csv" in runs[0][2]
        assert runs[1] == runs[0]


class TestFilterKeepsTheSentinel:
    """filter smoothed the -200 out-of-range sentinel together with the real
    readings: a -200 cell became a reading near -100 that locate then took
    as in range, and its neighbours were pulled down."""

    def test_sentinel_cells_stay_and_readings_filter_without_them(self, tmp_path):
        sim, knocked, out = (tmp_path / name for name in ("sim.csv", "knocked.csv", "out.csv"))
        assert main(["simulate", "--anchors", "0,0;400,0;200,300;0,300;400,300",
                     "--positions", "6", "--samples", "4", "-o", str(sim)]) == 0
        cols = load_all_columns(sim)
        rssi = {name: np.array(cols[name], dtype=float) for name in cols if name[:4] == "RSSI"}
        gone = np.arange(len(rssi["RSSI5"])) % 4 == 0  # anchor 5 out of range on every 4th row
        rssi["RSSI5"][gone] = -200.0
        rssi["RSSI4"][:] = -200.0  # never in range
        write_csv({**cols, **rssi}, knocked)
        assert main(["filter", "--filter", "ma", "--window", "3", "-i", str(knocked),
                     "-o", str(out)]) == 0
        got = load_all_columns(out)
        filtered = {name: np.array(got[name], dtype=float) for name in rssi}
        assert (filtered["RSSI5"][gone] == -200.0).all() and (filtered["RSSI4"] == -200.0).all()
        np.testing.assert_array_equal(filtered["RSSI5"][~gone],
                                      moving_average(rssi["RSSI5"][~gone], 3))
        for name in ("RSSI1", "RSSI2", "RSSI3"):
            np.testing.assert_array_equal(filtered[name], moving_average(rssi[name], 3))
        assert got["X_Actual"] == cols["X_Actual"] and got["Y_Actual"] == cols["Y_Actual"]


class TestLocateNamesTheFirstFailingRowInTheFile:
    """locate named a failing row in the order its anchor group sorted in,
    not in file order: with two failing groups it named the later row, a
    short row was named before a solver failure above it, and a collinear
    trilateration scene exited 4, not 2, when a subset group sorted first."""

    FIVE = "0,0;800,0;800,600;0,600;400,300"
    TWO_GROUPS = ["-50,-10000,-55,-52,-49", "-200,-10000,-55,-52,-49", "-50,-51,-55,-52,-49"]
    CASES = {  # solver, anchors, flags, rows, exit code and the named error
        "two failing groups, wls": ("wls", FIVE, ["--sigma-p", "2"], TWO_GROUPS, 4,
                                    "row 2: non-finite rhs entries"),
        "two failing groups, lls": ("lls", FIVE, ["--sigma-p", "2"], TWO_GROUPS, 4,
                                    "row 2: non-finite rhs entries"),
        "two failing groups, wls-bc": ("wls-bc", FIVE, ["--sigma-p", "2"], TWO_GROUPS, 4,
                                       "row 2: non-finite rhs entries"),
        "short row after a failing row": ("wls", "0,0;400,0;0,300", ["--sigma-p", "2"],
                                          ["-50,-60,-1e308", "-50,-200,-55"], 4,
                                          "row 2: non-finite rhs entries"),
        "collinear scene after a subset group": (
            "trilateration", "0,0;200,0;400,0;0,300", [],
            ["-60,-62,-64,-61", "-60,-62,-64,-200"], 2, "CollinearAnchors"),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_names_the_first_failing_row(self, tmp_path, capsys, case):
        solver, anchors, flags, rows, code, named = self.CASES[case]
        m = rows[0].count(",") + 1
        data, out = tmp_path / "in.csv", tmp_path / "loc.csv"
        data.write_text(",".join([f"RSSI{i + 1}" for i in range(m)] + ["X_Actual", "Y_Actual"])
                        + "".join(f"\n{row},100,100" for row in rows) + "\n")
        got = main(["locate", "--solver", solver, "--anchors", anchors, *flags,
                    "-i", str(data), "-o", str(out)])
        captured = capsys.readouterr()
        assert got == code and captured.out == "" and not out.exists()
        assert captured.err.count("\n") == 1 and named in captured.err, captured.err


def test_filter_counts_only_the_columns_it_filters(tmp_path, capsys):
    # columns_filtered counted a column with no in-range reading, which filter leaves alone
    sim, knocked = tmp_path / "sim.csv", tmp_path / "knocked.csv"
    assert main(["simulate", "--anchors", "0,0;400,0;200,300;0,300", "--positions", "3",
                 "-o", str(sim)]) == 0
    cols = load_all_columns(sim)
    write_csv({**cols, "RSSI4": [-200.0] * len(cols["RSSI4"])}, knocked)
    capsys.readouterr()
    assert main(["filter", "--filter", "kalman", "-i", str(knocked),
                 "-o", str(tmp_path / "out.csv")]) == 0
    assert "columns_filtered\t3\n" in capsys.readouterr().out


class TestRowsWiderThanTheHeader:
    """A row with more cells than the header lost its extra cells: filter
    rewrote `-50,-60,-70,100,100,999` under a 5-column header without the
    999 and exited 0, against the loaders' rule that no cell is dropped."""

    HEADER = "RSSI1,RSSI2,RSSI3,X_Actual,Y_Actual"
    ARGV = {
        "filter": ["filter", "--filter", "ma"],
        "locate": ["locate", "--solver", "lls", "--anchors", "0,0;400,0;200,300"],
        "fit": ["fit", "--model", "linear"],
    }

    def test_loader_names_the_line(self, tmp_path):
        path = tmp_path / "wide.csv"
        path.write_text(f"{self.HEADER}\n-50,-60,-70,100,100\n\n-50,-60,-70,100,100,999\n")
        with pytest.raises(MalformedNumber, match=r"line 4 has 6 cells, the header 5$"):
            load_regression_csv(path)

    @pytest.mark.parametrize("command", ARGV)
    def test_exits_3_without_output(self, tmp_path, capsys, command):
        path, out = tmp_path / "wide.csv", tmp_path / "out.csv"
        path.write_text(f"{self.HEADER}\n-50,-60,-70,100,100,999\n")
        assert main([*self.ARGV[command], "-i", str(path), "-o", str(out)]) == 3
        err = capsys.readouterr().err
        assert "line 2 has 6 cells, the header 5" in err and not out.exists()

    def test_beacon_row_exits_3(self, tmp_path, capsys):
        features, labels, _ = beacon_dataset(3, n=12)
        path = tmp_path / "beacons.csv"
        write_csv({"location": [["B05", "B12", "L05", "L12"][z] for z in labels],
                   **dict(zip(BEACON_COLUMNS, features.T))}, path)
        path.write_text(path.read_text() + "B05" + ",-60" * 14 + "\n")
        assert main(["fit", "--model", "knn", "--k", "1", "-i", str(path)]) == 3
        assert "line 14 has 15 cells, the header 14" in capsys.readouterr().err


class TestPredictOnUnlabeledBeaconRows:
    """predict on a zone classifier mapped every query row's location to a
    zone, though it writes only the location and the predicted zone: rows
    whose location was `?` exited 3 (UnmappedLocation)."""

    FIT = {"knn": ["--k", "3"], "mlp": ["--epochs", "2"]}

    @pytest.mark.parametrize("model", FIT)
    def test_unlabeled_rows_get_the_labeled_rows_zones(self, tmp_path, model):
        features, labels, _ = beacon_dataset(3, n=40)
        columns = dict(zip(BEACON_COLUMNS, features.T))
        labeled, unlabeled = tmp_path / "labeled.csv", tmp_path / "unlabeled.csv"
        write_csv({"location": [["B05", "B12", "L05", "L12"][z] for z in labels],
                   **columns}, labeled)
        locations = ["?", " lobby ", ""] * 13 + ["?"]
        write_csv({"location": locations, **columns}, unlabeled)
        saved = tmp_path / "model.json"
        assert main(["fit", "--model", model, *self.FIT[model], "-i", str(labeled),
                     "--save-model", str(saved)]) == 0
        outputs = []
        for data in (labeled, unlabeled):
            out = tmp_path / f"pred_{data.name}"
            assert main(["predict", "--model-file", str(saved), "-i", str(data),
                         "-o", str(out)]) == 0
            outputs.append(load_all_columns(out))
        assert outputs[1]["location"] == [loc.strip() for loc in locations]
        assert outputs[1]["Zone_Pred"] == outputs[0]["Zone_Pred"]
