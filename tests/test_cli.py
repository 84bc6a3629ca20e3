import numpy as np
import pytest

from _synth import load_all_columns
from rssiloc.cli import main
from rssiloc.ingest import load_regression_csv, write_csv
from rssiloc.learners import Forest, PairedRegressor, RegressionTree, load_model

ANCHORS = "0,0;400,0;200,300"


def run(*argv):
    return main(list(argv))


def read_report(path):
    lines = {}
    for raw in path.read_text().splitlines():
        if "\t" in raw:
            key, value = raw.split("\t", 1)
            lines[key] = value
    return lines


def tree_list(model):
    """Every regression tree inside a model."""
    if isinstance(model, RegressionTree):
        return [model]
    if isinstance(model, Forest):
        return list(model.trees)
    parts = model.models if isinstance(model, PairedRegressor) else model.components
    return [tree for part in parts for tree in tree_list(part)]


def simulate(tmp_path, name="sim.csv", sigma_p="2", positions="6",
             samples="5", seed="7"):
    out = tmp_path / name
    code = run("simulate", "--anchors", ANCHORS, "--positions", positions,
               "--samples", samples, "--sigma-p", sigma_p, "--seed", seed,
               "-o", str(out))
    assert code == 0
    return out


class TestSimulate:
    def test_row_count(self, tmp_path):
        out = tmp_path / "sim.csv"
        code = run("simulate", "--anchors", ANCHORS, "--positions", "32",
                   "--samples", "10", "--sigma-p", "2", "-o", str(out))
        assert code == 0
        assert len(load_regression_csv(out)) == 320

    def test_same_seed_identical_files(self, tmp_path):
        a = simulate(tmp_path, "a.csv", seed="11")
        b = simulate(tmp_path, "b.csv", seed="11")
        assert a.read_bytes() == b.read_bytes()

    def test_different_seed_differs(self, tmp_path):
        a = simulate(tmp_path, "a.csv", seed="11")
        b = simulate(tmp_path, "b.csv", seed="12")
        assert a.read_bytes() != b.read_bytes()

    def test_collinear_anchors_exit_2(self, tmp_path, capsys):
        code = run("simulate", "--anchors", "0,0;1,0;2,0",
                   "-o", str(tmp_path / "x.csv"))
        assert code == 2
        assert "DegenerateGeometry" in capsys.readouterr().err

    def test_no_output_on_failure(self, tmp_path):
        target = tmp_path / "x.csv"
        run("simulate", "--anchors", "0,0;1,0;2,0", "-o", str(target))
        assert not target.exists()


class TestFilter:
    def test_constant_column_unchanged(self, tmp_path):
        src = tmp_path / "in.csv"
        write_csv({"RSSI1": [-50.0] * 6, "RSSI2": [-60.0] * 6,
                   "RSSI3": [-70.0] * 6, "X_Actual": [1.0] * 6,
                   "Y_Actual": [2.0] * 6}, src)
        out = tmp_path / "out.csv"
        assert run("filter", "--filter", "ma", "--window", "3",
                   "-i", str(src), "-o", str(out)) == 0
        cols = load_all_columns(out)
        assert all(float(v) == -50.0 for v in cols["RSSI1"])
        assert cols["X_Actual"] == ["1"] * 6  # passthrough keeps raw text

    def test_kalman_reduces_variance(self, tmp_path):
        rng = np.random.default_rng(0)
        src = tmp_path / "in.csv"
        noisy = -60.0 + rng.normal(0, 2, 500)
        write_csv({"RSSI1": noisy, "RSSI2": noisy, "RSSI3": noisy,
                   "X_Actual": np.zeros(500), "Y_Actual": np.zeros(500)}, src)
        out = tmp_path / "out.csv"
        assert run("filter", "--filter", "kalman", "-i", str(src),
                   "-o", str(out)) == 0
        filtered = load_regression_csv(out).features[:, 0]
        assert filtered.var() < noisy.var()

    def test_unknown_filter_exit_2(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run("filter", "--filter", "bogus", "-i", "x", "-o", "y")
        assert exc.value.code == 2

    def test_missing_input_exit_3(self, tmp_path):
        code = run("filter", "--filter", "ma", "-i",
                   str(tmp_path / "absent.csv"), "-o", str(tmp_path / "o.csv"))
        assert code == 3


class TestLocate:
    def test_noiseless_lls_near_zero_rmse(self, tmp_path):
        src = simulate(tmp_path, sigma_p="0")
        out = tmp_path / "pred.csv"
        report = tmp_path / "report.txt"
        code = run("locate", "--solver", "lls", "--anchors", ANCHORS,
                   "--sigma-p", "0", "-i", str(src), "-o", str(out),
                   "--report", str(report))
        assert code == 0
        text = report.read_text()
        assert "rmse" in text
        preds = load_all_columns(out)
        actual = load_regression_csv(src)
        np.testing.assert_allclose(
            [float(v) for v in preds["X_Pred"]], actual.targets[:, 0],
            atol=1e-9)

    def test_anchor_count_mismatch_exit_3(self, tmp_path):
        src = simulate(tmp_path)
        code = run("locate", "--solver", "lls", "--anchors",
                   "0,0;400,0;200,300;0,300", "-i", str(src),
                   "-o", str(tmp_path / "pred.csv"))
        assert code == 3

    def test_out_of_range_rows_exit_4(self, tmp_path):
        src = tmp_path / "in.csv"
        write_csv({"RSSI1": [-60.0], "RSSI2": [-200.0], "RSSI3": [-200.0],
                   "X_Actual": [1.0], "Y_Actual": [2.0]}, src)
        code = run("locate", "--solver", "lls", "--anchors", ANCHORS,
                   "-i", str(src), "-o", str(tmp_path / "pred.csv"))
        assert code == 4

    def test_all_solvers_run(self, tmp_path):
        src = simulate(tmp_path)
        for solver in ("trilateration", "lls", "wls", "wls-bc", "hyperbolic",
                       "hyperbolic-w"):
            code = run("locate", "--solver", solver, "--anchors", ANCHORS,
                       "--sigma-p", "2", "-i", str(src),
                       "-o", str(tmp_path / f"{solver}.csv"))
            assert code == 0, solver


class TestFitPredictEvaluate:
    def test_fit_tree_and_predict_round_trip(self, tmp_path):
        src = simulate(tmp_path, positions="12", samples="5")
        model_path = tmp_path / "model.json"
        preds = tmp_path / "preds.csv"
        code = run("fit", "--model", "tree", "-i", str(src), "-o", str(preds),
                   "--save-model", str(model_path), "--report",
                   str(tmp_path / "fit.txt"))
        assert code == 0
        preds2 = tmp_path / "preds2.csv"
        code = run("predict", "--model-file", str(model_path), "-i", str(src),
                   "-o", str(preds2))
        assert code == 0
        np.testing.assert_array_equal(
            np.array(load_all_columns(preds)["X_Pred"], dtype=float),
            np.array(load_all_columns(preds2)["X_Pred"], dtype=float))

    def test_treeloc_fixed_coefficients_echoed(self, tmp_path):
        src = simulate(tmp_path, positions="12", samples="5")
        report = tmp_path / "tl.txt"
        code = run("fit", "--model", "treeloc", "--fixed-coefficients",
                   "--n-trees", "4", "-i", str(src), "--report", str(report))
        assert code == 0
        lines = read_report(report)
        assert float(lines["combiner_x"].split(",")[0]) == -0.9494
        assert float(lines["combiner_y"].split(",")[0]) == -0.8348
        np.testing.assert_allclose(
            [float(v) for v in lines["combiner_x"].split(",")],
            [-0.9494, 0.8036, 0.5476, 0.5212])

    def test_treeloc_subcommand(self, tmp_path):
        src = simulate(tmp_path, positions="12", samples="5")
        code = run("treeloc", "--n-trees", "4", "-i", str(src),
                   "--report", str(tmp_path / "tl.txt"))
        assert code == 0

    def test_tree_models_report_their_shape(self, tmp_path):
        src = simulate(tmp_path, positions="12", samples="5")
        report, saved = tmp_path / "fit.txt", tmp_path / "model.json"
        for model, trees in (("tree", 2), ("forest", 6), ("extratrees", 6),
                             ("treeloc", 14)):
            code = run("fit", "--model", model, "--n-trees", "3", "--max-depth",
                       "4", "-i", str(src), "--report", str(report),
                       "--save-model", str(saved))
            assert code == 0
            lines = read_report(report)
            found = tree_list(load_model(saved))
            depths = [t.depth() for t in found]
            assert int(lines["trees"]) == len(found) == trees
            assert int(lines["tree_nodes"]) == sum(len(t.feature) for t in found)
            assert int(lines["tree_depth_max"]) == max(depths) <= 4
            assert lines["tree_depth_mean"] == f"{np.mean(depths):.6f}"
        assert run("fit", "--model", "linear", "-i", str(src), "--report",
                   str(report)) == 0
        assert "trees" not in read_report(report)

    def test_evaluate_identical_files_r2_one(self, tmp_path):
        src = simulate(tmp_path)
        report = tmp_path / "eval.txt"
        code = run("evaluate", "--actual", str(src), "--predicted", str(src),
                   "--report", str(report))
        assert code == 0
        text = report.read_text()
        for line in text.splitlines():
            if line.startswith("x ") or line.startswith("y "):
                assert "1.0000" in line

    def test_fit_knn_on_beacon_csv(self, tmp_path):
        from _synth import beacon_dataset
        from rssiloc.ingest import BEACON_COLUMNS
        features, labels, _ = beacon_dataset(0, n=80)
        src = tmp_path / "beacons.csv"
        cols = {"location": [f"{'ABKL'[z]}{'05' if z < 2 else '12'}"
                             for z in labels]}
        for j, name in enumerate(BEACON_COLUMNS):
            cols[name] = features[:, j]
        zones = tmp_path / "zones.txt"
        zones.write_text("".join(f"{'ABKL'[z]}{'05' if z < 2 else '12'}="
                                 f"{'ABCD'[z]}\n" for z in range(4)))
        write_csv(cols, src)
        report = tmp_path / "knn.txt"
        code = run("fit", "--model", "knn", "--k", "3", "--zones", str(zones),
                   "-i", str(src), "--report", str(report),
                   "-o", str(tmp_path / "zp.csv"))
        assert code == 0
        lines = read_report(report)
        assert float(lines["test_accuracy"]) > 0.5


class TestConfigMerge:
    def test_config_provides_defaults_flags_win(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("positions=4\nsamples=2\nseed=5\n")
        out1 = tmp_path / "a.csv"
        assert run("simulate", "--config", str(cfg), "--anchors", ANCHORS,
                   "-o", str(out1)) == 0
        assert len(load_regression_csv(out1)) == 8
        out2 = tmp_path / "b.csv"
        assert run("simulate", "--config", str(cfg), "--anchors", ANCHORS,
                   "--samples", "3", "-o", str(out2)) == 0
        assert len(load_regression_csv(out2)) == 12

    def test_config_value_may_start_with_a_dash(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bounds = -100,-50,500,400\npositions=3\n")
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run("simulate", "--config", str(cfg), "--anchors", ANCHORS,
                   "-o", str(out1)) == 0
        assert run("simulate", "--bounds=-100,-50,500,400", "--positions", "3",
                   "--anchors", ANCHORS, "-o", str(out2)) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_unknown_config_key_exit_2(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("nonsense=1\n")
        code = run("simulate", "--config", str(cfg), "--anchors", ANCHORS,
                   "-o", str(tmp_path / "x.csv"))
        assert code == 2


class TestDeterminism:
    def test_locate_threads_byte_identical(self, tmp_path):
        src = simulate(tmp_path)
        outs = []
        for name in ("run1", "run2"):
            d = tmp_path / name
            d.mkdir()
            out = d / "pred.csv"
            report = d / "report.txt"
            assert run("locate", "--solver", "wls-bc", "--anchors", ANCHORS,
                       "--sigma-p", "2", "--threads", "4", "-i", str(src),
                       "-o", str(out), "--report", str(report)) == 0
            outs.append((out.read_bytes(),
                         report.read_bytes().replace(name.encode(), b"")))
        assert outs[0] == outs[1]

    def test_simulate_threads_byte_identical(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for out in (a, b):
            assert run("simulate", "--anchors", ANCHORS, "--positions", "10",
                       "--samples", "4", "--threads", "4", "--seed", "3",
                       "-o", str(out)) == 0
        assert a.read_bytes() == b.read_bytes()


class TestFlagsThatChangeTheOutput:
    """Flags that no bench step or demo sets: a non-default value changes
    what the command writes, so a flag that stopped being read would show."""

    def test_simulate_d0(self, tmp_path):
        outputs = []
        for flags in ([], ["--d0", "50"]):
            out = tmp_path / f"sim{len(flags)}.csv"
            assert run("simulate", "--anchors", ANCHORS, "--positions", "4",
                       "--samples", "2", *flags, "-o", str(out)) == 0
            outputs.append(load_regression_csv(out))
        default, near = outputs
        np.testing.assert_array_equal(near.targets, default.targets)
        # halving the reference distance takes 20 log10(2) dB off every reading
        np.testing.assert_allclose(near.features, default.features - 20 * np.log10(2))

    def test_locate_d0(self, tmp_path):
        src = simulate(tmp_path, sigma_p="0")
        estimates = []
        for flags in ([], ["--d0", "50"]):
            out = tmp_path / f"loc{len(flags)}.csv"
            assert run("locate", "--solver", "lls", "--anchors", ANCHORS, "--sigma-p", "0",
                       *flags, "-i", str(src), "-o", str(out)) == 0
            cols = load_all_columns(out)
            estimates.append(np.array([cols["X_Pred"], cols["Y_Pred"]], dtype=float))
        assert not np.allclose(estimates[0], estimates[1])

    def test_fit_poly_cross_terms(self, tmp_path):
        src = simulate(tmp_path)
        rows = {}
        for flags in ([], ["--cross-terms"]):
            saved = tmp_path / f"poly{len(flags)}.json"
            assert run("fit", "--model", "poly", "--degree", "2", *flags, "-i", str(src),
                       "--save-model", str(saved)) == 0
            rows[bool(flags)] = load_model(saved).theta.shape
        # 3 features at degree 2: 1 + 3 + 3 terms, and 3 products of two
        assert rows == {False: (7, 2), True: (10, 2)}

    def test_fit_mlp_batch_size(self, tmp_path):
        from _synth import beacon_dataset
        from rssiloc.ingest import BEACON_COLUMNS
        features, labels, _ = beacon_dataset(0, n=30)
        src = tmp_path / "beacons.csv"
        write_csv({"location": [["B05", "B12", "L05", "L12"][z] for z in labels],
                   **dict(zip(BEACON_COLUMNS, features.T))}, src)
        weights = []
        for flags in ([], ["--batch-size", "3"]):
            saved = tmp_path / f"mlp{len(flags)}.json"
            assert run("fit", "--model", "mlp", "--epochs", "2", *flags, "-i", str(src),
                       "--save-model", str(saved)) == 0
            weights.append(load_model(saved).weights)
        assert [w.shape for w in weights[0]] == [w.shape for w in weights[1]]
        assert not all(np.array_equal(a, b) for a, b in zip(*weights))
