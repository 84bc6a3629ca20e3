"""The CLI's exit-code contract: whatever its input files, config files,
model files and output paths, ``rssiloc`` returns 0, 2, 3 or 4 and prints
no traceback. Also direct tests of the single owners behind it: atomic
writes, zone resolution, model-record checks, kNN validation and
``--min-leaf``."""

import base64
import contextlib
import copy
import csv
import ctypes
import functools
import io
import json
import math
import operator
import os
import re
import signal
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import rssiloc as rl
from _synth import beacon_dataset, regression_testbed
from rssiloc import ingest, learners
from rssiloc.cli import FILTER_NAMES, MODEL_NAMES, main
from rssiloc.exceptions import IoFailure, KTooLarge

LIBC = ctypes.CDLL(None)  # C stdio: fflush(NULL) flushes every stream, puts writes to stdout
LIBC.fflush.argtypes, LIBC.fflush.restype = [ctypes.c_void_p], ctypes.c_int
LIBC.puts.argtypes, LIBC.puts.restype = [ctypes.c_char_p], ctypes.c_int
FUZZ = settings(max_examples=40, deadline=None, derandomize=True, database=None)
ANCHORS = "0,0;400,0;200,300"
ZONE_OF = {"A": "B05", "B": "B12", "C": "L05", "D": "L12"}

# Short text without surrogates (the files are written as UTF-8). Numbers
# drawn from it stay small, so a fuzzed size or window never asks for a
# large allocation.
TEXT = st.text(st.characters(exclude_categories=("Cs",)), max_size=6)
SMALL_TEXT = st.text("0123456789-.,;=#xyzRSI_ \n", max_size=5)
JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 40) | st.floats() | TEXT,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(TEXT, inner, max_size=3), max_leaves=6)


@contextlib.contextmanager
def fd_text(fd):
    """Collects what is written to file descriptor fd inside the block, from
    C too (LAPACK prints its errors there), which redirect_stdout does not
    see. Yields a list that holds the text once the block ends."""
    text, saved = [], os.dup(fd)
    with tempfile.TemporaryFile() as sink:
        os.dup2(sink.fileno(), fd)
        try:
            yield text
        finally:
            LIBC.fflush(None)  # C stdio buffers output to a file
            os.dup2(saved, fd)
            os.close(saved)
            sink.seek(0)
            text.append(sink.read().decode("utf-8", "replace"))


class Hang(BaseException):
    """A run outlived run_main's limit. Not an Exception, so no handler in
    main turns it into an exit code (ingest.write_text makes any OSError,
    TimeoutError too, an IoFailure) and hypothesis does not shrink it."""


def run_main(argv, limit=60.0):
    """Exit code, stdout and stderr of one in-process run, and whether it
    ended in argparse's usage error (SystemExit) rather than in one of
    main's handlers. stdout and stderr hold Python's text and then the text
    written to fds 1 and 2. A run past limit seconds raises Hang, naming
    argv, so a hung run fails its test instead of stalling the suite."""
    def hang(signum, frame):
        raise Hang(f"rssiloc {' '.join(map(str, argv))} ran past {limit} s")

    out, err, usage = io.StringIO(), io.StringIO(), False
    previous = signal.signal(signal.SIGALRM, hang)
    signal.setitimer(signal.ITIMER_REAL, limit)
    try:
        with fd_text(1) as out_fd, fd_text(2) as err_fd:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = main([str(a) for a in argv])
                except SystemExit as exc:
                    code, usage = exc.code, True
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return code, out.getvalue() + out_fd[0], err.getvalue() + err_fd[0], usage


def run(argv):
    """Exit code and stderr of one in-process run."""
    code, _, err, _ = run_main(argv)
    return code, err


def check_contract(argv):
    """Exit code and stderr of a run that honours the contract: a known
    exit code, no traceback, exactly one stderr line when one of main's
    handlers ends the run (argparse's usage exits print usage and an error
    line), nothing on stdout when the run fails, and on success no
    non-finite computed cell in the -o file."""
    code, out, err, usage = run_main(argv)
    assert code in (0, 2, 3, 4), (code, err)
    assert "Traceback" not in err
    if code and not usage:  # library text leaking to stderr fails here
        assert err.count("\n") == 1 and err.endswith("\n"), (argv, err)
    if code:
        assert out == "", (argv, out)
    if code == 0 and "-o" in argv:
        # filter copies every column but RSSI<k>/b<k> through as raw text
        computed = re.compile(r"RSSI\d+|b\d+" + ("" if argv[0] == "filter" else "|[XY]_Pred"))
        with open(argv[argv.index("-o") + 1], newline="", encoding="utf-8") as fh:
            header, *rows = csv.reader(fh)
        for j, name in enumerate(header):
            if computed.fullmatch(name):
                assert all(math.isfinite(float(row[j])) for row in rows), (argv, name)
    return code, err


def csv_text(header, rows):
    return "".join(",".join(cells) + "\n" for cells in [header, *rows])


def regression_cells(n=12):
    rssi, targets, _, _ = regression_testbed(5, n=n)
    header = ["RSSI1", "RSSI2", "RSSI3", "X_Actual", "Y_Actual", "X_Pred", "Y_Pred"]
    rows = [[ingest.format_number(v) for v in (*r, *t, *t)]
            for r, t in zip(rssi, targets)]
    return header, rows


def beacon_cells(n=24):
    features, labels, _ = beacon_dataset(3, n=n)
    header = ["location", *ingest.BEACON_COLUMNS]
    rows = [[ZONE_OF["ABCD"[z]], *map(ingest.format_number, f)]
            for f, z in zip(features, labels)]
    return header, rows


def model_records():
    """One small saved record of each model kind, with the CSV layout its
    predict step reads."""
    rssi, targets, _, _ = regression_testbed(6, n=24)
    features, labels, _ = beacon_dataset(4, n=20)
    regressors = [
        learners.fit_linear(rssi, targets),
        learners.fit_polynomial(rssi, targets, degree=2),
        learners.fit_tree(rssi, targets, max_depth=2),
        learners.fit_forest(rssi, targets, n_trees=2, max_depth=2),
        rl.treeloc_fit(rssi, targets, tree_depth=2, forest_trees=2, extra_trees=2)]
    classifiers = [learners.fit_knn(features, labels, k=3, n_classes=4),
                   learners.MlpModel.create(sizes=(13, 3, 4))]
    return ([(m.to_dict(), "regression") for m in regressors]
            + [(m.to_dict(), "beacons") for m in classifiers])


def polynomial_record(cross_terms, key, edit):
    """The saved degree-2 polynomial record of the three-feature testbed
    with its degree or theta edited."""
    rssi, targets, _, _ = regression_testbed(6, n=24)
    record = learners.fit_polynomial(rssi, targets, degree=2, cross_terms=cross_terms).to_dict()
    assert len(record["parameters"]["theta"]) == (10 if cross_terms else 7)
    fields = record["hyperparameters" if key == "degree" else "parameters"]
    fields[key] = edit(fields[key])
    return record


POLYNOMIAL_EDITS = {
    # expanding to degree 10**9 before any shape check ran without end
    "degree 1e9": (False, "degree", lambda d: 10 ** 9),
    "degree 1e9 cross": (True, "degree", lambda d: 10 ** 9),
    "degree 0": (False, "degree", lambda d: 0),
    "degree float": (False, "degree", float),
    "theta nan": (False, "theta", lambda t: t[:3] + [[math.nan] * len(t[3])] + t[4:]),
    "theta row dropped": (True, "theta", lambda t: t[:-1]),
    "theta 1-D": (False, "theta", lambda t: [row[0] for row in t]),
}


def json_paths(node, prefix=()):
    """Path of every dict value and list item inside a JSON value."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield prefix + (key,)
        yield from json_paths(child, prefix + (key,))


RECORDS = [(record, layout, list(json_paths(record)))
           for record, layout in model_records()]


def edited_record(index, path, edit):
    """The saved record RECORDS[index] with the value at path edited, and
    the CSV layout its predict step reads."""
    record, layout, _ = RECORDS[index]
    record = copy.deepcopy(record)
    parent = functools.reduce(operator.getitem, path[:-1], record)
    parent[path[-1]] = edit(parent[path[-1]])
    return record, layout


# MLP records that loaded, and saved back as other records, though their
# weight and bias shapes do not chain.
SHAPE_EDITS = {
    "mlp one-wide bias": (6, ("parameters", "biases"), lambda b: [b[0][:1], *b[1:]]),
    "mlp weights do not chain": (6, ("parameters", "weights"),
                                 lambda w: [w[0], [row[:-1] for row in w[1]]]),
}
# Tree and forest records with a split_mode, max_depth or min_leaf that fit
# never writes, and MLP records with weights or biases that are not finite:
# all of them loaded.
TREE = ("parameters", "components", 0, "hyperparameters")  # of a paired tree or forest
FIT_EDITS = {
    "tree split_mode bogus": (2, TREE + ("split_mode",), lambda v: "bogus"),
    "tree max_depth string": (2, TREE + ("max_depth",), lambda v: "x"),
    "forest max_depth float": (3, TREE + ("max_depth",), float),
    "forest min_leaf float": (3, TREE + ("min_leaf",), float),
    "mlp weight nan": (6, ("parameters", "weights"),
                       lambda w: [[[math.nan] + row[1:] for row in w[0]], *w[1:]]),
    "mlp bias inf": (6, ("parameters", "biases"), lambda b: [*b[:-1], [math.inf] + b[-1][1:]]),
}
# Records without their rng_seed, which loaded as seed 0 and saved back with it.
NO_RNG_SEED = {
    "forest": (3, TREE),
    "treeloc": (4, ("hyperparameters",)),
}


def treeloc_with_linear_component():
    """A treeloc record whose first component is a saved linear record."""
    treeloc, linear = RECORDS[4][0], RECORDS[0][0]
    assert (treeloc["kind"], linear["kind"]) == ("treeloc", "linear")
    record = copy.deepcopy(treeloc)
    record["parameters"]["components"][0] = linear
    return json.dumps(record), "regression"


def linear_with_theta(value):
    """The saved linear record with every theta entry set to value; it
    predicts nan, or overflows to -inf, on every row."""
    record = copy.deepcopy(RECORDS[0][0])
    theta = record["parameters"]["theta"]
    record["parameters"]["theta"] = [[value] * len(row) for row in theta]
    return json.dumps(record), "regression"


def broken_v3_tree(key, edit):
    """The saved paired-tree record with one version-3 array of its first
    tree edited."""
    record = copy.deepcopy(RECORDS[2][0])
    tree = record["parameters"]["components"][0]
    assert (record["kind"], tree["kind"], tree["version"]) == ("paired", "tree", 3)
    tree["parameters"][key] = edit(tree["parameters"][key])
    return json.dumps(record), "regression"


BROKEN_V3 = {
    # a lenient decoder would skip the "*" and load the tree
    "bad base64": ("feature", lambda text: text[:4] + "*" + text[4:]),
    "ragged bytes": ("threshold", lambda text: base64.b64encode(
        base64.b64decode(text)[:-3]).decode("ascii")),
    "value count": ("value", lambda text: base64.b64encode(
        base64.b64decode(text)[:-8]).decode("ascii")),
    "list array": ("n", lambda text: np.frombuffer(base64.b64decode(text), "<i8").tolist()),
}


@st.composite
def broken_records(draw):
    """A saved model with one value deleted or replaced by any JSON value."""
    record, layout, paths = draw(st.sampled_from(RECORDS))
    record = copy.deepcopy(record)
    path = draw(st.sampled_from(paths))
    parent = functools.reduce(operator.getitem, path[:-1], record)
    if draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = draw(JSON)
    return json.dumps(record), layout


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("contract")
    paths = {"root": root, "regression": root / "regression.csv",
             "beacons": root / "beacons.csv", "blocker": root / "blocker"}
    paths["regression"].write_text(csv_text(*regression_cells()))
    paths["beacons"].write_text(csv_text(*beacon_cells()))
    paths["blocker"].write_text("a regular file, not a directory\n")
    for name, (record, _, _) in (("treeloc.json", RECORDS[4]), ("knn.json", RECORDS[5])):
        paths[name] = root / name
        paths[name].write_text(json.dumps(record))
    return paths


def commands(files, data):
    """A run of each subcommand over the data file given."""
    out = files["root"] / "out.csv"
    return {
        "locate": ["locate", "--solver", "wls-bc", "--anchors", ANCHORS,
                   "-i", data, "-o", out],
        "filter": ["filter", "--filter", "median", "-i", data, "-o", out],
        "fit": ["fit", "--model", "tree", "--max-depth", "3", "-i", data,
                "-o", out],
        "treeloc": ["treeloc", "--n-trees", "2", "--max-depth", "2", "-i", data],
        "evaluate": ["evaluate", "-i", data],
        "knn": ["fit", "--model", "knn", "--k", "3", "-i", data, "-o", out],
    }


@st.composite
def broken_csvs(draw):
    """A regression or beacon CSV with cells replaced by any text (commas,
    quotes and newlines included) and rows cut short."""
    layout = draw(st.sampled_from(["regression", "beacons"]))
    header, rows = regression_cells() if layout == "regression" else beacon_cells()
    for _ in range(draw(st.integers(1, 3))):
        r = draw(st.integers(0, len(rows)))  # len(rows) is the header
        cells = rows[r] if r < len(rows) else header
        if not cells:
            continue
        if draw(st.booleans()):
            cells[draw(st.integers(0, len(cells) - 1))] = draw(TEXT)
        else:
            del cells[draw(st.integers(0, len(cells) - 1)):]
    return csv_text(header, rows), layout


class TestContract:
    @FUZZ
    @given(case=broken_csvs(), command=st.sampled_from(
        ["locate", "filter", "fit", "treeloc", "evaluate", "knn"]))
    def test_malformed_csv(self, files, case, command):
        text, layout = case
        path = files["root"] / f"broken_{layout}.csv"
        path.write_text(text, encoding="utf-8")
        check_contract(commands(files, path)[command])

    @FUZZ
    @given(content=st.binary(max_size=40) | TEXT.map(str.encode),
           layout=st.sampled_from(["regression", "beacons"]),
           command=st.sampled_from(["locate", "filter", "evaluate", "knn"]))
    def test_undecodable_csv(self, files, content, layout, command):
        path = files["root"] / "bytes.csv"
        path.write_bytes((b"location," if layout == "beacons" else b"") + content)
        check_contract(commands(files, path)[command])

    @FUZZ
    @given(content=st.lists(TEXT | SMALL_TEXT, max_size=5).map("\n".join)
           | st.binary(max_size=30))
    def test_bad_anchors_file(self, files, content):
        path = files["root"] / "anchors.txt"
        if isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(content, encoding="utf-8")
        check_contract(["locate", "--solver", "lls", "--anchors-file", path,
                        "-i", files["regression"], "-o", files["root"] / "loc.csv"])

    @FUZZ
    @given(lines=st.lists(st.tuples(
        st.sampled_from(["window", "half-width", "sigma", "filter", "q", "r",
                         "seed", "threads", "report", "input", "output"]) | TEXT,
        SMALL_TEXT, st.sampled_from(["=", " = ", ":", ""])), max_size=4))
    @example(lines=[("sigma", "inf", " = ")])
    def test_bad_config_file(self, files, lines):
        path = files["root"] / "run.cfg"
        path.write_text("".join(f"{k}{sep}{v}\n" for k, v, sep in lines),
                        encoding="utf-8")
        check_contract(["filter", "--filter", "gaussian", "--config", path,
                        "-i", files["regression"], "-o", files["root"] / "f.csv"])

    @FUZZ
    @given(case=broken_records()
           | JSON.map(lambda v: (json.dumps(v), "regression"))
           | TEXT.map(lambda t: (t, "beacons")))
    @example(case=(json.dumps({"format": "rssiloc-model", "version": 1,
                               "kind": "linear", "hyperparameters": {},
                               "parameters": {}}), "regression"))
    @example(case=("[1, 2]", "regression"))
    @example(case=treeloc_with_linear_component())
    @example(case=linear_with_theta(float("nan")))
    @example(case=linear_with_theta(1e308))
    @example(case=broken_v3_tree(*BROKEN_V3["bad base64"]))
    @example(case=broken_v3_tree(*BROKEN_V3["ragged bytes"]))
    @example(case=broken_v3_tree(*BROKEN_V3["value count"]))
    @example(case=broken_v3_tree(*BROKEN_V3["list array"]))
    def test_malformed_model_file(self, files, case):
        text, layout = case
        path = files["root"] / "model.json"
        path.write_text(text, encoding="utf-8")
        check_contract(["predict", "--model-file", path, "-i", files[layout],
                        "-o", files["root"] / "pred.csv"])

    @pytest.mark.parametrize("key, edit", BROKEN_V3.values(), ids=BROKEN_V3.keys())
    def test_broken_v3_tree_arrays_exit_3(self, files, key, edit):
        path, out = files["root"] / "model.json", files["root"] / "pred.csv"
        out.unlink(missing_ok=True)
        path.write_text(broken_v3_tree(key, edit)[0], encoding="utf-8")
        code, err = check_contract(["predict", "--model-file", path,
                                    "-i", files["regression"], "-o", out])
        assert code == 3 and "bad model file" in err and not out.exists()

    @FUZZ
    @given(where=st.sampled_from(["missing/dir/out", "", "blocker/out"]),
           target=st.sampled_from([
               ("locate", "-o"), ("locate", "--report"), ("filter", "-o"),
               ("fit", "-o"), ("fit", "--report"), ("fit", "--save-model"),
               ("knn", "--save-model"), ("evaluate", "--report")]))
    def test_unwritable_output(self, files, where, target):
        command, flag = target
        path = files["root"] / where if where else files["root"]
        argv = commands(files, files["beacons" if command == "knn"
                                     else "regression"])[command]
        if flag in argv:
            argv = argv[:argv.index(flag)] + argv[argv.index(flag) + 2:]
        code, err = check_contract([*argv, flag, path])
        assert code == 3 and "IoFailure" in err
        assert not Path(f"{path}.tmp").exists()


# RSSI1 cells at the float's edges: adjacent floats, whose midpoint rounds
# to the upper one; values whose sums overflow; a range wider than the
# largest float. Fits on each used to end in a traceback.
ADJACENT = ["1.0000000000000002", "1.0000000000000004"] * 6
NEAR_MAX = [repr(1.0e308 + 0.06e308 * i) for i in range(12)]
PLUS_MINUS_MAX = ["1e308", "-1e308"] * 15
EDGE_FITS = {
    "tree on adjacent floats": (ADJACENT, ["fit", "--model", "tree", "--test-size", "0"]),
    "tree near max": (NEAR_MAX, ["fit", "--model", "tree"]),
    "forest near max": (NEAR_MAX, ["fit", "--model", "forest", "--n-trees", "3"]),
    "treeloc near max": (NEAR_MAX, ["treeloc", "--n-trees", "3"]),
    "treeloc over +-max": (PLUS_MINUS_MAX, ["treeloc", "--n-trees", "3"]),
    "extratrees over +-max": (PLUS_MINUS_MAX, ["fit", "--model", "extratrees"]),
}


# Cells at the float's edges for the locate fuzz: signed zeros, the floats
# next to 1, subnormals, values whose squares or sums overflow, the largest
# floats and the out-of-range sentinel.
EDGE_CELLS = [0.0, -0.0, 1.0, math.nextafter(1.0, 0.0), math.nextafter(1.0, 2.0),
              5e-324, -5e-324, 1e-310, -1e-310, 1e154, -1e154, 1e308, -1e308,
              sys.float_info.max, -sys.float_info.max, -200.0]
SCENE = "0,0;400,0;0,300;400,300;200,150"  # its last anchor is on a diagonal


def edge_rows(draw, m, n):
    """n rows of m edge cells as text; a column may be one cell repeated."""
    columns = [[draw(st.sampled_from(EDGE_CELLS))] * n if draw(st.booleans())
               else draw(st.lists(st.sampled_from(EDGE_CELLS), min_size=n, max_size=n))
               for _ in range(m)]
    return [list(map(repr, row)) for row in zip(*columns)]


@st.composite
def edge_locate_cases(draw):
    """A scene of 3-5 fixed anchors and 1-14 rows of edge cells."""
    m, n = draw(st.integers(3, 5)), draw(st.integers(1, 14))
    header = [f"RSSI{i + 1}" for i in range(m)] + ["X_Actual", "Y_Actual"]
    return ";".join(SCENE.split(";")[:m]), csv_text(header, edge_rows(draw, m + 2, n))


# Every other command that reads a data file: its argv before -i and the
# layout of that file. A "*.json" argument is a saved model of files.
EDGE_COMMANDS = (
    [(["filter", "--filter", name], "regression") for name in FILTER_NAMES]
    + [(["fit", "--model", name, *(["--n-trees", "3"] if name in ("forest", "extratrees",
                                                                  "treeloc") else [])],
        "beacons" if name in ("knn", "mlp") else "regression") for name in MODEL_NAMES]
    + [(["treeloc", "--n-trees", "3"], "regression"),
       (["predict", "--model-file", "treeloc.json"], "regression"),
       (["predict", "--model-file", "knn.json"], "beacons"),
       (["evaluate"], "evaluated")])
EDGE_HEADERS = {"regression": ["RSSI1", "RSSI2", "RSSI3", "X_Actual", "Y_Actual"],
                "evaluated": ["X_Actual", "Y_Actual", "X_Pred", "Y_Pred"],
                "beacons": list(ingest.BEACON_COLUMNS)}
# The 8 rows of test_regressions.TestOverflowingLeafMeans: leaf means overflow.
LEAF_MEAN_TARGETS = ("1.7976931348623157e308", "1e308")
OVERFLOWING_LEAF_MEANS = csv_text(EDGE_HEADERS["regression"], [
    [("-200", "5e-324", "1e154", "1e308")[(i + j) % 4] for j in range(3)]
    + list(LEAF_MEAN_TARGETS[::1 if i % 2 == 0 else -1]) for i in range(8)])


@st.composite
def edge_command_cases(draw):
    """A command of EDGE_COMMANDS and 1-14 rows of edge cells in the layout
    it reads; beacon rows carry grid labels."""
    argv, layout = draw(st.sampled_from(EDGE_COMMANDS))
    header, n = EDGE_HEADERS[layout], draw(st.integers(1, 14))
    rows = edge_rows(draw, len(header), n)
    if layout == "beacons":
        header = ["location", *header]
        rows = [[draw(st.sampled_from(sorted(ZONE_OF.values()))), *row] for row in rows]
    return argv, csv_text(header, rows)


class TestEdgeLocate:
    """Only the data varies, so locate never exits 2 (a configuration
    error), whichever the solver."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(case=edge_locate_cases(), solver=st.sampled_from(rl.SOLVER_NAMES),
           sigma_p=st.sampled_from(["0", "2"]))
    def test_exits_0_3_or_4(self, tmp_path_factory, case, solver, sigma_p):
        anchors, text = case
        data = tmp_path_factory.getbasetemp() / "edge_locate.csv"
        data.write_text(text)
        code, _ = check_contract(["locate", "--solver", solver, "--anchors", anchors,
                                  "--sigma-p", sigma_p, "-i", data,
                                  "-o", data.with_name("edge_out.csv")])
        assert code in (0, 3, 4)


class TestEdgeCommands:
    """Only the data varies, so every command exits 0, 3 or 4."""

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(case=edge_command_cases())
    @example(case=(["treeloc", "--n-trees", "3", "--test-size", "0"], OVERFLOWING_LEAF_MEANS))
    def test_exits_0_3_or_4(self, files, case):
        argv, text = case
        data = files["root"] / "edge.csv"
        data.write_text(text)
        out = [] if argv[0] == "evaluate" else ["-o", files["root"] / "edge_out.csv"]
        code, err = check_contract([*(files.get(a, a) for a in argv), "-i", data, *out])
        assert code in (0, 3, 4), (argv, err)


class TestEdgeFeatures:
    @pytest.mark.parametrize("cells, argv", EDGE_FITS.values(), ids=EDGE_FITS.keys())
    def test_fit_exits_0_with_finite_outputs(self, tmp_path, cells, argv):
        data = tmp_path / "edge.csv"
        data.write_text(csv_text(["RSSI1", "RSSI2", "RSSI3", "X_Actual", "Y_Actual"],
                                 [[cell, "-50", "-60", ("100", "300")[i % 2], "50"]
                                  for i, cell in enumerate(cells)]))
        code, err = check_contract([*argv, "-i", data, "-o", tmp_path / "out.csv"])
        assert code == 0, err

    @pytest.mark.parametrize("lower, upper", [
        (1.0000000000000002, 1.0000000000000004), (1.0e308, 1.7e308), (-1.7e308, -1.0e308)])
    def test_split_threshold_is_the_lower_value_where_the_midpoint_is_not_below(
            self, lower, upper):
        tree = learners.fit_tree(np.array([lower, upper] * 3), np.arange(6.0) % 2, max_depth=3)
        assert tree.threshold[0] == lower and tree.n.tolist() == [6, 3, 3]

    def test_extra_trees_draw_finite_thresholds_over_any_range(self):
        top = np.finfo(float).max
        for lower, upper in ((-1e308, 1e308), (-top, top), (-top, 1e308)):
            forest = learners.fit_extra_trees(np.array([lower, upper] * 4),
                                              np.arange(8.0) % 2, n_trees=20)
            for tree in forest.trees:
                assert tree.feature[0] == 0
                assert lower <= tree.threshold[0] <= upper


class TestOwners:
    @pytest.mark.parametrize("fd", [1, 2])
    def test_contract_sees_text_written_from_c(self, monkeypatch, fd):
        def main_that_leaks(argv):
            print("numerical failure: NumericalError: x", file=sys.stderr)
            if fd == 1:
                LIBC.puts(b"** On entry to DLASCL parameter number 4 had an illegal value")
            else:
                os.write(2, b"text from C\n")
            return 4
        monkeypatch.setitem(run_main.__globals__, "main", main_that_leaks)
        with pytest.raises(AssertionError):
            check_contract(["locate"])

    def test_a_hung_run_fails_and_names_its_argv(self, monkeypatch):
        def main_that_hangs(argv):
            try:
                time.sleep(30)
            except Exception:  # as main's handlers catch what a run raises
                return 3
        monkeypatch.setitem(run_main.__globals__, "main", main_that_hangs)
        previous = signal.getsignal(signal.SIGALRM)
        with pytest.raises(Hang, match="rssiloc locate --solver lls ran past"):
            run_main(["locate", "--solver", "lls"], limit=0.05)
        assert signal.getsignal(signal.SIGALRM) is previous
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)

    def test_failed_write_leaves_no_temp_file(self, tmp_path):
        for write in (lambda: ingest.write_text("report\n", tmp_path),
                      lambda: ingest.write_csv({"a": [1.0]}, tmp_path)):
            with pytest.raises(IoFailure):
                write()
            assert not tmp_path.with_name(tmp_path.name + ".tmp").exists()

    def test_write_text_leaves_only_the_target(self, tmp_path):
        target = tmp_path / "report.txt"
        ingest.write_text("line\n", target)
        assert target.read_bytes() == b"line\n"
        assert list(tmp_path.iterdir()) == [target]

    def test_undecodable_file_is_a_data_error(self, files, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"RSSI1,RSSI2,RSSI3,X_Actual,Y_Actual\n-60,-61,\xff,1,2\n")
        for command in ("locate", "filter", "evaluate"):
            code, err = check_contract(commands(files, path)[command])
            assert code == 3 and "IoFailure" in err

    def test_mapping_path_string_is_honoured(self, tmp_path):
        path = tmp_path / "beacons.csv"
        path.write_text(csv_text(*beacon_cells(8)))
        mapping = tmp_path / "zones.txt"
        mapping.write_text("".join(f"{label}=A\n" for label in ZONE_OF.values()))
        assert set(ingest.load_ibeacon_csv(path, str(mapping)).labels) == {0}
        grid = ingest.load_ibeacon_csv(path, "grid").labels
        np.testing.assert_array_equal(ingest.load_ibeacon_csv(path, None).labels, grid)
        assert len(set(grid)) > 1

    def test_filter_loader_parses_rssi_columns_only(self, tmp_path):
        path = tmp_path / "mixed.csv"
        path.write_text("t,RSSI1,b3001,note\n1,-60.5,-200,x\n2,-61,-70,y\n")
        columns, names = ingest.load_rssi_columns(path)
        assert names == ("RSSI1", "b3001")
        assert list(columns) == ["t", "RSSI1", "b3001", "note"]
        assert columns["t"] == ["1", "2"] and columns["note"] == ["x", "y"]
        np.testing.assert_array_equal(columns["RSSI1"], [-60.5, -61.0])

    @pytest.mark.parametrize("k, error", [(0, ValueError), (21, KTooLarge)])
    def test_knn_file_with_bad_k_fails_at_load(self, files, tmp_path, k, error):
        record, _, _ = RECORDS[5]
        assert record["kind"] == "knn"
        record = dict(record, hyperparameters=dict(record["hyperparameters"], k=k))
        path = tmp_path / "knn.json"
        path.write_text(json.dumps(record))
        with pytest.raises(error):
            learners.load_model(path)
        code, err = check_contract(["predict", "--model-file", path, "-i",
                                    files["beacons"], "-o", tmp_path / "p.csv"])
        assert code == 3 and not (tmp_path / "p.csv").exists()

    @pytest.mark.parametrize("key, value", [
        ("labels", -1), ("labels", 4), ("features", float("nan"))])
    def test_knn_file_with_bad_row_fails_at_load(self, files, tmp_path, key, value):
        record = copy.deepcopy(RECORDS[5][0])
        assert record["hyperparameters"]["n_classes"] == 4
        cells = record["parameters"][key]
        (cells[0] if key == "features" else cells)[0] = value
        path = tmp_path / "knn.json"
        path.write_text(json.dumps(record))  # json writes and reads NaN
        with pytest.raises(ValueError, match="kNN"):
            learners.load_model(path)
        code, err = check_contract(["predict", "--model-file", path, "-i",
                                    files["beacons"], "-o", tmp_path / "p.csv"])
        assert code == 3 and "bad model file" in err
        assert not (tmp_path / "p.csv").exists()

    @pytest.mark.parametrize("case", POLYNOMIAL_EDITS.values(), ids=POLYNOMIAL_EDITS.keys())
    def test_polynomial_file_fit_cannot_write_fails_at_load(self, files, tmp_path, case):
        path = tmp_path / "poly.json"
        path.write_text(json.dumps(polynomial_record(*case)))  # json writes and reads NaN
        with pytest.raises(ValueError, match="not a fitted polynomial"):
            learners.load_model(path)
        code, err = check_contract(["predict", "--model-file", path, "-i",
                                    files["regression"], "-o", tmp_path / "p.csv"])
        assert code == 3 and "bad model file" in err
        assert not (tmp_path / "p.csv").exists()

    @pytest.mark.parametrize("case", SHAPE_EDITS.values(), ids=SHAPE_EDITS.keys())
    def test_shape_fields_that_disagree_fail_at_load(self, files, tmp_path, case):
        record, layout = edited_record(*case)
        assert record["kind"] == "mlp"
        path = tmp_path / "model.json"
        path.write_text(json.dumps(record))
        with pytest.raises(ValueError, match="mlp record: "):
            learners.load_model(path)
        code, err = check_contract(["predict", "--model-file", path, "-i",
                                    files[layout], "-o", tmp_path / "p.csv"])
        assert code == 3 and "bad model file" in err
        assert not (tmp_path / "p.csv").exists()

    @pytest.mark.parametrize("case", FIT_EDITS.values(), ids=FIT_EDITS.keys())
    def test_record_fit_could_not_write_fails_at_load(self, files, tmp_path, case):
        record, layout = edited_record(*case)
        path, out = tmp_path / "model.json", tmp_path / "p.csv"
        path.write_text(json.dumps(record))  # json writes and reads NaN
        with pytest.raises(ValueError, match="^(tree|mlp) record: "):
            learners.load_model(path)
        code, err = check_contract(["predict", "--model-file", path, "-i",
                                    files[layout], "-o", out])
        assert code == 3 and "bad model file" in err and not out.exists()

    @pytest.mark.parametrize("case", NO_RNG_SEED.values(), ids=NO_RNG_SEED.keys())
    def test_record_without_rng_seed_fails_at_load(self, files, tmp_path, case):
        record, layout = edited_record(*case, lambda h: {k: v for k, v in h.items()
                                                        if k != "rng_seed"})
        path = tmp_path / "model.json"
        path.write_text(json.dumps(record))
        with pytest.raises(ValueError, match="KeyError: 'rng_seed'"):
            learners.load_model(path)
        code, err = check_contract(["predict", "--model-file", path, "-i",
                                    files[layout], "-o", tmp_path / "p.csv"])
        assert code == 3 and "bad model file" in err
        assert not (tmp_path / "p.csv").exists()

    def test_linear_file_with_nan_theta_fails_at_load(self, files, tmp_path):
        # it loaded, and predict exited 4 after writing nothing
        path, out = tmp_path / "linear.json", tmp_path / "p.csv"
        path.write_text(linear_with_theta(float("nan"))[0])  # json writes and reads NaN
        with pytest.raises(ValueError, match="degree 1"):
            learners.load_model(path)
        code, err = check_contract(["predict", "--model-file", path, "-i",
                                    files["regression"], "-o", out])
        assert code == 3 and "bad model file" in err and not out.exists()

    def test_tree_model_on_a_narrower_file_exits_3(self, tmp_path):
        # RSSI4 tracks x, so the root splits on it; predicting a 3-column
        # file used to index past its last column
        rssi, targets, _, _ = regression_testbed(9, n=40)
        wide, narrow = tmp_path / "wide.csv", tmp_path / "narrow.csv"
        ingest.write_csv(ingest.RegressionDataset(
            np.column_stack([rssi, -targets[:, 0] / 10]), targets), wide)
        ingest.write_csv(ingest.RegressionDataset(rssi, targets), narrow)
        saved = tmp_path / "tree.json"
        assert run(["fit", "--model", "tree", "-i", wide, "--save-model", saved])[0] == 0
        assert learners.load_model(saved).models[0].feature[0] == 3
        code, err = check_contract(["predict", "--model-file", saved, "-i",
                                    narrow, "-o", tmp_path / "p.csv"])
        assert code == 3 and "does not fit" in err

    def test_knn_checks_direct_construction(self):
        with pytest.raises(KTooLarge):
            learners.KnnModel(np.zeros((2, 3)), np.zeros(2, dtype=int), k=3, n_classes=1)

    def test_mlp_predict_is_argmax_of_forward(self):
        model = learners.MlpModel.create(sizes=(13, 5, 4), rng_seed=2)
        features, _, _ = beacon_dataset(1, n=30)
        np.testing.assert_array_equal(
            model.predict(features),
            learners.mlp_forward(model, features).argmax(axis=1))
        assert model.predict(features[0]) == int(
            learners.mlp_forward(model, features[0]).argmax())

    def test_min_leaf_reaches_every_component_tree(self, tmp_path):
        rssi, targets, _, _ = regression_testbed(8, n=150)
        data = tmp_path / "testbed.csv"
        ingest.write_csv(ingest.RegressionDataset(rssi, targets), data)
        saved = tmp_path / "treeloc.json"
        assert main(["treeloc", "--min-leaf", "8", "--n-trees", "2", "-i",
                     str(data), "--save-model", str(saved)]) == 0
        model = learners.load_model(saved)
        trees = [tree for component in model.components for m in component.models
                 for tree in getattr(m, "trees", (m,))]
        assert len(trees) == 10
        for tree in trees:
            assert tree.n[tree.feature < 0].min() >= 8
