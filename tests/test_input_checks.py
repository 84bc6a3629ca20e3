"""Input checks of the library and CLI branches that no other test
reaches: each bad input raises, or exits 2 or 3, with its own message, and
the good paths beside them exit 0."""

import numpy as np
import pytest

from _synth import beacon_dataset, regression_testbed
from rssiloc import ensemble, filters, ingest, learners, metrics, solvers
from rssiloc.core import PathLossParams
from rssiloc.exceptions import CollinearAnchors, EmptyDataset, ShapeMismatch
from rssiloc.cli import main
from rssiloc.ingest import format_number

X = np.arange(12.0).reshape(6, 2)
ONE_HOT = ingest.one_hot_encode([0, 1, 1], 2)
TRIANGLE, RANGES = np.array([[0.0, 0.0], [4.0, 0.0], [0.0, 3.0]]), np.array([2.0, 3.0, 3.0])


def record(version):
    return {"format": learners.MODEL_FORMAT, "version": version, "kind": "linear",
            "hyperparameters": {}, "parameters": {}}


def bias_terms(eta):
    return solvers.build_bias_terms(TRIANGLE, RANGES, 0.5, 2.0, eta,
                                    solvers.DiagonalWeights(np.ones(3)))


def mlp_train(**kwargs):
    net = learners.MlpModel.create(sizes=(2, 3, 2))
    return learners.mlp_train(net, X[:3], ONE_HOT, epochs=1, **kwargs)


LIBRARY_CHECKS = {
    "model version": (lambda: learners.model_from_dict(record(99)),
                      ValueError, "unsupported model version 99"),
    "forest size": (lambda: learners.fit_forest(X, X[:, 0], n_trees=0),
                    ValueError, "n_trees"),
    "mlp rate": (lambda: mlp_train(lr=-0.1), ValueError, "learning rate"),
    "mlp rate nan": (lambda: mlp_train(lr=np.nan), ValueError, "learning rate"),
    "mlp rate inf": (lambda: mlp_train(lr=np.inf), ValueError, "learning rate"),
    "mlp batch": (lambda: mlp_train(batch_size=0), ValueError, "batch_size"),
    "mlp empty": (lambda: learners.mlp_train(learners.MlpModel.create(sizes=(2, 3, 2)),
                                             X[:0], ONE_HOT[:0]),
                  EmptyDataset, "no training samples"),
    "mlp batch shape": (lambda: learners.mlp_backprop(learners.MlpModel.create(
        sizes=(2, 3, 2)), X[:3], ONE_HOT[:, :1]), ShapeMismatch, "batch shapes"),
    "tree empty": (lambda: learners.fit_tree(X[:0], X[:0, 0]), EmptyDataset,
                   "no training samples"),
    "polynomial empty": (lambda: learners.fit_polynomial(X[:0], X[:0], degree=2),
                         EmptyDataset, "no training samples"),
    "regression empty": (lambda: ingest.RegressionDataset(np.empty((0, 2)),
                                                            np.empty((0, 2))),
                         EmptyDataset, "empty"),
    "regression rows": (lambda: ingest.RegressionDataset(X, X[:5]),
                        ShapeMismatch, "disagree"),
    "regression finite": (lambda: ingest.RegressionDataset(X, X * np.nan),
                          ValueError, "non-finite"),
    "classification empty": (lambda: ingest.ClassificationDataset(
        np.empty((0, 2)), np.empty(0), np.empty((0, 2))), EmptyDataset, "empty"),
    # each row's zone is one int index into ZONE_LABELS, once
    "classification labels": (lambda: ingest.ClassificationDataset(
        X[:3], np.array([0, 7, 1])), ValueError, "labels must be one int index"),
    "classification labels negative": (lambda: ingest.ClassificationDataset(
        X[:3], np.array([0, -1, 1])), ValueError, "labels must be one int index"),
    "classification labels float": (lambda: ingest.ClassificationDataset(
        X[:3], np.zeros(3)), ValueError, "labels must be one int index"),
    "classification labels count": (lambda: ingest.ClassificationDataset(
        X[:3], np.zeros(2, dtype=int)), ValueError, "labels must be one int index"),
    "classification labels 2-D": (lambda: ingest.ClassificationDataset(
        X[:3], np.zeros((3, 1), dtype=int)), ValueError, "labels must be one int index"),
    "system centred": (lambda: solvers.LinearSystem(X[:3] + 1.0, np.zeros(3)),
                       ValueError, "not centered"),
    "system rhs": (lambda: solvers.LinearSystem(X[:3] - X[:3].mean(axis=0),
                                                np.array([0.0, np.inf, 0.0])),
                   ValueError, "non-finite rhs"),
    "trilaterate radii": (lambda: solvers.trilaterate([[0, 0], [4, 0], [0, 3]],
                                                      [1.0, -1.0, 1.0]),
                          ValueError, "radii"),
    "trilaterate anchors": (lambda: solvers.trilaterate([[1, 1], [1, 1], [0, 3]],
                                                        [1.0, 1.0, 1.0]),
                            CollinearAnchors, "coincide"),
    "linearize lengths": (lambda: solvers.linearize(X[:3], [1.0, 2.0]),
                          ValueError, "length"),
    "trilaterate lengths": (lambda: solvers.trilaterate(np.vstack([TRIANGLE, [4.0, 3.0]]),
                                                        RANGES),
                            ValueError, "length"),
    "bias eta 0": (lambda: bias_terms(0.0), ValueError, "eta must be > 0"),
    "bias eta -1": (lambda: bias_terms(-1.0), ValueError, "eta must be > 0"),
    "bias eta nan": (lambda: bias_terms(np.nan), ValueError, "eta must be > 0"),
    "wls eta nan": (lambda: solvers.estimate_position("wls", TRIANGLE, RANGES,
                                                      sigmas_p=2.0, eta=np.nan),
                    ValueError, "eta must be > 0"),
    # the mean of two stds weighted all three anchors
    "hyperbolic-w stds": (lambda: solvers.estimate_position(
        "hyperbolic-w", TRIANGLE, RANGES, sigmas_p=[1.0, 2.0]),
                          ValueError, "got 2 stds for 3 anchors"),
    "wls stds": (lambda: solvers.estimate_position("wls", TRIANGLE, RANGES,
                                                   sigmas_a=[1.0, 2.0]),
                 ValueError, "got 2 stds for 3 anchors"),
    "wls-bc stds": (lambda: solvers.estimate_position("wls-bc", TRIANGLE, RANGES,
                                                      sigmas_p=np.ones(4)),
                    ValueError, "got 4 stds for 3 anchors"),
    "weights stds": (lambda: solvers.build_weights(TRIANGLE, RANGES, [], 1.0, 2.0),
                     ValueError, "got 0 stds for 3 anchors"),
    "confusion square": (lambda: metrics.ConfusionMatrix(np.ones((2, 3)), ("a", "b")),
                         ValueError, "square"),
    "confusion counts": (lambda: metrics.ConfusionMatrix(-np.eye(2), ("a", "b")),
                         ValueError, ">= 0"),
    "metrics 3-D": (lambda: metrics.regression_metrics(np.ones((2, 2, 2)),
                                                       np.ones((2, 2, 2))),
                    ValueError, "1-D series"),
    "polynomial degree": (lambda: learners.polynomial_features(X, degree=0),
                          ValueError, "degree"),
    "signal 2-D": (lambda: filters.moving_average(X, 3), ValueError, "1-D"),
    "shadowing": (lambda: PathLossParams(sigma_shadow=-1.0), ValueError, "shadowing"),
    "csv of a number": (lambda: ingest.write_csv(3.0, "unwritten.csv"), TypeError,
                        "cannot write float as CSV"),
}


@pytest.mark.parametrize("call, error, message", LIBRARY_CHECKS.values(),
                         ids=LIBRARY_CHECKS.keys())
def test_library_check_raises(call, error, message):
    with pytest.raises(error, match=message):
        call()


@pytest.mark.parametrize("solver", ["wls", "wls-bc", "hyperbolic-w"])
def test_one_std_or_one_per_anchor(solver):
    square = np.vstack([TRIANGLE, [4.0, 3.0]])

    def solve(std):  # four anchors and ranges that disagree, so the weights count
        return solvers.estimate_position(solver, square, [2.0, 3.0, 3.0, 2.5],
                                         sigmas_a=std, sigmas_p=std).tolist()
    assert solve(0.5) == solve([0.5]) == solve(np.array(0.5)) == solve([0.5] * 4)


def test_fits_read_1d_features_as_one_column():
    rng = np.random.default_rng(7)
    x = rng.uniform(-90.0, -40.0, 30)
    y = np.column_stack([0.5 * x, -0.2 * x]) + rng.normal(0.0, 1.0, (30, 2))
    assert learners.fit_linear(x, y).to_dict() == learners.fit_linear(x[:, None], y).to_dict()
    fits = [ensemble.treeloc_fit(features, y, forest_trees=3, extra_trees=3).to_dict()
            for features in (x, x[:, None])]
    assert fits[0] == fits[1]


ANCHORS = "0,0;400,0;200,300"
FAR = "0,0;1e150,0;0,1e150"  # wls-bc's rhs variances overflow there


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("checks")
    rssi, targets, _, _ = regression_testbed(5, n=30)
    features, labels, _ = beacon_dataset(3, n=24)
    out = {"root": root, "out": root / "out.csv", "reg": root / "reg.csv",
           "beacons": root / "beacons.csv", "cfg": root / "run.cfg",
           "bad_bool": root / "bad_bool.cfg", "tree1d": root / "tree1d.json",
           "knn": root / "knn.json"}
    out["reg"].write_text("RSSI1,RSSI2,RSSI3,X_Actual,Y_Actual\n" + "".join(
        ",".join(map(format_number, (*r, *t))) + "\n" for r, t in zip(rssi, targets)))
    out["beacons"].write_text(
        "location," + ",".join(f"b{3000 + i}" for i in range(1, 14)) + "\n" + "".join(
            f"{'BL'[z // 2]}{'05' if z % 2 == 0 else '12'},"
            + ",".join(map(format_number, f)) + "\n" for f, z in zip(features, labels)))
    out["cfg"].write_text("# comment and blank line first\n\nseed = 3\n")
    out["bad_bool"].write_text("include-cross-term = maybe\n")
    learners.save_model(learners.fit_tree(rssi, targets[:, 0], max_depth=2), out["tree1d"])
    learners.save_model(learners.fit_knn(features, labels, k=3, n_classes=4), out["knn"])
    out["anchors_spec"] = root / "anchors_spec.txt"
    out["anchors_spec"].write_text("x,y\n0,0,999\n400,0\n0,300\n")
    out["anchors_coordinates"] = root / "anchors_coordinates.txt"
    out["anchors_coordinates"].write_text("# one pair a line\n0,0\n\n400,zero\n0,300\n")
    # only the first line may be an x,y header: x400,0 is a typo, not a second header
    out["anchors_typo"] = root / "anchors_typo.txt"
    out["anchors_typo"].write_text("x,y\n0,0\nx400,0\n400,300\n0,300\n")
    out["anchors_header"] = root / "anchors_header.txt"
    out["anchors_header"].write_text("# room 1\n\nX,Y\n0,0\n400,0\n400,300\n0,300\n")
    # headers that name a column twice
    out["reg_repeat"], out["beacons_repeat"] = root / "reg_repeat.csv", root / "beacons_repeat.csv"
    out["reg_repeat"].write_text("RSSI1,RSSI1,RSSI2,RSSI3,X_Actual,Y_Actual\n" + "".join(
        ",".join(map(format_number, (r[0], *r, *t))) + "\n" for r, t in zip(rssi, targets)))
    out["beacons_repeat"].write_text(out["beacons"].read_text().replace("b3013", "b3002", 1))
    out["reg_renumbered"] = root / "reg_renumbered.csv"
    out["reg_renumbered"].write_text(out["reg_repeat"].read_text().replace("RSSI1,RSSI1",
                                                                          "RSSI1,RSSI01", 1))
    # zone files: every label of "beacons" mapped, then one label again; a
    # line without "="; bytes that are not UTF-8
    for name, text in [("zones", b"B05=A\nB12=B\nL05=C\nL12=D\n"),
                       ("zones_twice", b"B05=A\nB12=B\n# again\nB05=D\nL05=C\nL12=D\n"),
                       ("zones_no_equals", b"B05=A\nB12 B\n"),
                       ("zones_undecodable", b"B05=A\n\xff\xfe=B\n")]:
        out[name] = root / f"{name}.txt"
        out[name].write_bytes(text)
    out["far"] = root / "far.csv"
    assert main(["simulate", f"--anchors={FAR}", "--positions", "3", "-o", str(out["far"])]) == 0
    return out


LOCATE = ["locate", "--solver", "wls-bc", "--anchors", ANCHORS, "--sigma-a", "5",
          "--sigma-p", "2", "-i", "{reg}", "-o", "{out}"]
CLI_CASES = {
    "anchor spec": (["simulate", "--anchors", "0,0;400", "-o", "{out}"], 2,
                    "bad anchor spec"),
    "anchor coordinates": (["simulate", "--anchors", "0,0;a,1;9,9", "-o", "{out}"], 2,
                           "bad anchor coordinates"),
    "anchors missing": (["simulate", "-o", "{out}"], 2, "anchors required"),
    "anchors file spec": (["simulate", "--anchors-file", "{anchors_spec}", "--positions", "2",
                           "--samples", "1", "-o", "{out}"], 2,
                          "anchors_spec.txt line 2: bad anchor spec '0,0,999'; expected x,y"),
    "anchors file coordinates": (["simulate", "--anchors-file", "{anchors_coordinates}",
                                  "-o", "{out}"], 2,
                                 "anchors_coordinates.txt line 4: bad anchor coordinates"),
    "anchors file x line": (["simulate", "--anchors-file", "{anchors_typo}", "-o", "{out}"], 2,
                            "anchors_typo.txt line 3: bad anchor coordinates 'x400,0'"),
    "anchors file header": (["simulate", "--anchors-file", "{anchors_header}", "--positions",
                             "2", "--samples", "1", "-o", "{out}"], 0, ""),
    "bounds": (["simulate", "--anchors", ANCHORS, "--bounds", "0,0,400,300",
                "--positions", "2", "-o", "{out}"], 0, ""),
    "bounds count": (["simulate", "--anchors", ANCHORS, "--bounds", "0,0,400",
                      "-o", "{out}"], 2, "bounds must be"),
    "bounds inf": (["simulate", "--anchors", ANCHORS, "--bounds", "0,0,inf,5",
                    "-o", "{out}"], 2, "bounds and their spans must be finite"),
    "bounds nan": (["simulate", "--anchors", ANCHORS, "--bounds", "0,nan,400,5",
                    "-o", "{out}"], 2, "bounds and their spans must be finite"),
    "bounds span": (["simulate", "--anchors", ANCHORS, "--bounds=-1e308,0,1e308,5",
                     "-o", "{out}"], 2, "bounds and their spans must be finite"),
    "simulated rssi": (["simulate", "--anchors", ANCHORS, "--bounds=0,0,1e308,5",
                        "-o", "{out}"], 4, "simulate gave non-finite values in RSSI1"),
    "locate non-finite": (["locate", "--solver", "wls-bc", f"--anchors={FAR}",
                           "-i", "{far}", "-o", "{out}"], 4,
                          "row 2: wls-bc gave a non-finite estimate"),
    "treeloc shuffle": (["treeloc", "--shuffle", "-i", "{reg}"], 2,
                        "unrecognized arguments: --shuffle"),
    "treeloc holdout": (["treeloc", "--combiner-holdout", "0.2", "-i", "{reg}"], 2,
                        "unrecognized arguments: --combiner-holdout 0.2"),
    # treeloc takes only the tree, split and I/O flags; locate reads no bounds
    "treeloc k": (["treeloc", "--k", "3", "-i", "{reg}"], 2, "unrecognized arguments: --k 3"),
    "treeloc zones": (["treeloc", "--zones", "grid", "-i", "{reg}"], 2,
                      "unrecognized arguments: --zones grid"),
    "treeloc epochs": (["treeloc", "--epochs", "1", "-i", "{reg}"], 2,
                       "unrecognized arguments: --epochs 1"),
    "locate bounds": ([*LOCATE, "--bounds", "0,0,1,1"], 2,
                      "unrecognized arguments: --bounds 0,0,1,1"),
    # predict maps no location to a zone, so it takes no zone file
    "predict zones": (["predict", "--model-file", "{knn}", "--zones", "grid",
                       "-i", "{beacons}", "-o", "{out}"], 2,
                      "unrecognized arguments: --zones grid"),
    "knn k": (["fit", "--model", "knn", "--k", "50", "-i", "{beacons}"], 3, "k="),
    "zones": (["fit", "--model", "knn", "--k", "1", "--test-size", "0", "--zones", "{zones}",
               "-i", "{beacons}"], 0, ""),
    "zones twice": (["fit", "--model", "knn", "--k", "1", "--test-size", "0", "--zones",
                     "{zones_twice}", "-i", "{beacons}"], 3,
                    "zones_twice.txt: lines 1 and 4 both map label 'B05'"),
    "zones without equals": (["fit", "--model", "knn", "--zones", "{zones_no_equals}",
                              "-i", "{beacons}"], 3,
                             "zones_no_equals.txt:2: expected label=zone, got 'B12 B'"),
    "zones undecodable": (["fit", "--model", "knn", "--zones", "{zones_undecodable}",
                           "-i", "{beacons}"], 3, "IoFailure: cannot read"),
    "zones unreadable": (["fit", "--model", "knn", "--zones", "{root}/missing.txt",
                          "-i", "{beacons}"], 3, "IoFailure: cannot read"),
    "anchor numbered twice": (["locate", "--solver", "lls", "--anchors", ANCHORS,
                               "-i", "{reg_renumbered}", "-o", "{out}"], 3,
                              "reg_renumbered.csv: 'RSSI1' and 'RSSI01' are both anchor 1"),
    "model unreadable": (["predict", "--model-file", "{root}/missing.json",
                          "-i", "{reg}", "-o", "{out}"], 3, "cannot read model"),
    "knn model": (["predict", "--model-file", "{knn}", "-i", "{beacons}",
                   "-o", "{out}"], 0, ""),
    "model output": (["predict", "--model-file", "{tree1d}", "-i", "{reg}",
                      "-o", "{out}"], 3, "does not predict x and y"),
    "poly fit with config": (["fit", "--model", "poly", "--degree", "2", "-i", "{reg}",
                              "--config", "{cfg}"], 0, ""),
    "mlp fit": (["fit", "--model", "mlp", "--epochs", "1", "-i", "{beacons}"], 0, ""),
    "mlp rate nan": (["fit", "--model", "mlp", "--lr", "nan", "-i", "{beacons}",
                      "-o", "{out}"], 2, "learning rate must be finite"),
    "mlp rate overflow": (["fit", "--model", "mlp", "--lr", "1e308", "-i", "{beacons}",
                           "-o", "{out}"], 4, "left non-finite weights"),
    "evaluate inputs": (["evaluate", "--actual", "{reg}"], 2, "evaluate needs"),
    "config path": ([*LOCATE, "--config"], 2, "requires a file path"),
    "config subcommand": (["--config", "{cfg}"], 2, "needs a subcommand"),
    "config unknown subcommand": (["bogus", "--config", "{cfg}"], 2,
                                  "unknown subcommand 'bogus'"),
    "config unreadable": ([*LOCATE, "--config", "{root}/missing.cfg"], 2,
                          "cannot read config"),
    "config boolean": ([*LOCATE, "--config", "{bad_bool}"], 2, "must be boolean"),
}


@pytest.mark.parametrize("argv, code, message", CLI_CASES.values(), ids=CLI_CASES.keys())
def test_cli_branch_exit_code(paths, capsys, argv, code, message):
    paths["out"].unlink(missing_ok=True)
    try:
        got = main([arg.format(**paths) for arg in argv])
    except SystemExit as exc:  # argparse's usage errors
        got = exc.code
    err = capsys.readouterr().err
    assert got == code, err
    assert message in err and "Traceback" not in err
    assert paths["out"].exists() == (code == 0 and "-o" in argv)


@pytest.mark.parametrize("argv, csv, column", [
    (["filter", "--filter", "ma"], "reg_repeat", "RSSI1"),
    (["locate", "--solver", "lls", "--anchors", ANCHORS], "reg_repeat", "RSSI1"),
    (["fit", "--model", "knn"], "beacons_repeat", "b3002"),
], ids=["filter", "locate", "fit knn"])
def test_repeated_column_is_a_data_error(paths, capsys, argv, csv, column):
    paths["out"].unlink(missing_ok=True)
    assert main(argv + ["-i", str(paths[csv]), "-o", str(paths["out"])]) == 3
    assert capsys.readouterr().err == (f"data error: IngestError: {paths[csv]}: column "
                                       f"{column!r} appears more than once in the header\n")
    assert not paths["out"].exists()


def test_boolean_config_keys_equal_their_flag(paths, capsys):
    def locate(*extra):
        assert main([arg.format(**paths) for arg in LOCATE] + list(extra)) == 0
        return paths["out"].read_bytes(), capsys.readouterr().out

    with_flag, without = locate("--include-cross-term"), locate()
    assert with_flag != without
    cfg = paths["root"] / "bool.cfg"
    for value, want in [("true", with_flag), ("Yes", with_flag), ("1", with_flag),
                        ("false", without), ("no", without), ("0", without)]:
        cfg.write_text(f"include-cross-term = {value}\n")
        assert locate("--config", str(cfg)) == want


@pytest.mark.parametrize("argv, line, key", [
    (["treeloc", "-i", "{reg}"], "k = 3", "k"),
    # a config file may not name another config file
    (["filter", "--filter", "ma", "-i", "{reg}", "-o", "{out}"], "config = {cfg}", "config"),
], ids=["treeloc k", "config in config"])
def test_config_key_must_be_a_flag_the_file_can_set(paths, capsys, argv, line, key):
    paths["out"].unlink(missing_ok=True)
    cfg = paths["root"] / "keys.cfg"
    cfg.write_text(line.format(**paths) + "\n")
    assert main([arg.format(**paths) for arg in argv] + ["--config", str(cfg)]) == 2
    assert capsys.readouterr().err == f"error: {cfg}:1: unknown key {key!r}\n"
    assert not paths["out"].exists()


def test_every_config_spelling_merges_the_file(paths, capsys):
    # argparse reads --config=FILE and unique abbreviations as --config: each
    # spelling merges the file, or exits 2 when it cannot be merged
    def run(argv):
        code = main([arg.format(**paths) for arg in argv])
        out = paths["out"].read_bytes() if code == 0 else None
        paths["out"].unlink(missing_ok=True)
        return code, out, capsys.readouterr()

    cfg, bad = paths["root"] / "cross.cfg", paths["root"] / "bogus.cfg"
    cfg.write_text("include-cross-term = true\n")
    bad.write_text("bogus=1\n")
    code, want, captured = run(LOCATE + ["--include-cross-term"])
    assert code == 0
    for spelling in ([f"--config={cfg}"], ["--conf", str(cfg)], [f"--co={cfg}"]):
        code, out, got = run(LOCATE + spelling)
        assert (code, out, got.out) == (0, want, captured.out)
    for spelling, message in (([f"--config={bad}"], "unknown key 'bogus'"),
                              (["--conf", str(bad)], "unknown key 'bogus'"),
                              ([f"--config={paths['root']}/missing.txt"], "cannot read config")):
        for argv in (LOCATE, ["filter", "--filter", "ma", "-i", "{reg}", "-o", "{out}"]):
            code, out, got = run(argv + spelling)
            assert code == 2 and message in got.err and out is None
