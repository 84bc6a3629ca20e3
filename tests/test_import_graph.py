"""The package's import graph is one-way: no module imports another that
imports it back at load time, the package exports lazily, and a command
loads only the modules it runs."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rssiloc
from _synth import regression_testbed
from rssiloc import filters, ingest

PACKAGE = Path(rssiloc.__file__).parent
SRC = str(PACKAGE.parent)
LEARNING = {"learners", "ensemble"}

# Every name the package exported when its __init__ imported each module,
# less the pass-throughs knn_classify and model_to_dict, since deleted.
EXPORTS = """
Anchor MeasurementSet OUT_OF_RANGE_DBM PathLossParams Position Scene meters
position_error validate_scene REFERENCE_COMBINER_X REFERENCE_COMBINER_Y
TreeLocModel treeloc_fit treeloc_predict treeloc_reference KalmanState
gaussian_filter gaussian_kernel kalman_filter kalman_step median_filter
moving_average grid_zone load_ibeacon_csv load_regression_csv
load_zone_mapping write_csv ClassificationDataset Forest KnnModel LinearModel
MlpModel PairedRegressor PolynomialModel RegressionDataset RegressionTree
TreeNode ZONE_LABELS fit_extra_trees fit_forest fit_knn fit_linear
fit_polynomial fit_tree load_model mlp_backprop mlp_forward mlp_train
model_from_dict save_model ClassificationReport
ConfusionMatrix RegressionMetrics classification_metrics confusion_matrix
regression_metrics NoiseSpec distance_from_rssi measure_once measure_targets
rssi_from_distance synthesize_measurements BiasTerms DiagonalWeights
LinearSystem SOLVER_NAMES bias_compensated_solve build_bias_terms
build_weights estimate_position hyperbolic_solve linearize lls_solve
trilaterate wls_solve
""".split()
SUBMODULES = ("cli", "core", "ensemble", "exceptions", "filters", "ingest",
              "learners", "metrics", "radio", "solvers")


def module_level_edges():
    """{module: modules it imports from the package at load time}, read from
    the top-level ``from .x import ...`` and ``from . import x`` statements."""
    edges = {}
    for path in sorted(PACKAGE.glob("*.py")):
        targets = set()
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                targets |= ({node.module} if node.module
                            else {alias.name for alias in node.names})
        edges[path.stem] = targets
    return edges


def python(code, cwd):
    """stdout of code run in a fresh interpreter that imports the package
    from this tree."""
    done = subprocess.run([sys.executable, "-c", code], cwd=cwd, capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=SRC), timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


class TestStaticGraph:
    def test_module_level_imports_are_acyclic(self):
        edges = module_level_edges()
        assert edges["__init__"] == set()
        done, visiting = set(), []

        def visit(module):
            assert module not in visiting, " -> ".join(visiting + [module])
            if module not in done:
                visiting.append(module)
                for target in edges[module]:
                    visit(target)
                visiting.pop()
                done.add(module)

        for module in edges:
            visit(module)

    @pytest.mark.parametrize("module", ["ingest", "cli"])
    def test_no_learners_at_module_level(self, module):
        assert not module_level_edges()[module] & LEARNING

    def test_no_model_kind_registry(self):
        assert not hasattr(rssiloc.learners, "register_model_kind")


class TestLazyExports:
    @pytest.mark.parametrize("name", EXPORTS)
    def test_every_export_resolves(self, name):
        namespace = {}
        exec(f"from rssiloc import {name}", namespace)
        assert namespace[name] is getattr(rssiloc, name)
        assert name in rssiloc.__all__

    @pytest.mark.parametrize("name", SUBMODULES)
    def test_submodules_resolve(self, name):
        assert getattr(rssiloc, name).__name__ == f"rssiloc.{name}"

    def test_unknown_name_is_an_attribute_error(self):
        with pytest.raises(AttributeError, match="no attribute 'kalman'"):
            rssiloc.kalman
        with pytest.raises(ImportError):
            exec("from rssiloc import kalman", {})

    def test_lookups_are_not_cached(self, monkeypatch):
        # a tracer patches the home module and undoes it: the package follows
        original = rssiloc.kalman_step
        assert "kalman_step" not in vars(rssiloc)
        with monkeypatch.context() as patch:
            patch.setattr(filters, "kalman_step", len)
            assert rssiloc.kalman_step is len
        assert rssiloc.kalman_step is original is filters.kalman_step


class TestLoadedModules:
    def test_cli_import_leaves_out_the_learners(self, tmp_path):
        loaded = json.loads(python("import json, sys, rssiloc.cli; "
                                   "print(json.dumps(sorted(sys.modules)))", tmp_path))
        assert "rssiloc.cli" in loaded
        assert not {f"rssiloc.{m}" for m in LEARNING} & set(loaded)

    def test_pipeline_commands_leave_out_the_learners(self, tmp_path):
        code = """if True:
            import contextlib, io, json, sys
            from rssiloc.cli import main
            anchors = ["--anchors", "0,0;400,0;200,300"]
            runs = [["simulate", *anchors, "--positions", "4", "-o", "sim.csv"],
                    ["filter", "--filter", "kalman", "-i", "sim.csv", "-o", "flt.csv"],
                    ["locate", "--solver", "wls-bc", *anchors, "-i", "flt.csv",
                     "-o", "loc.csv"],
                    ["evaluate", "-i", "loc.csv"]]
            loaded = {}
            for argv in runs:
                with contextlib.redirect_stdout(io.StringIO()):
                    assert main(argv) == 0, argv
                loaded[argv[0]] = sorted(sys.modules)
            print(json.dumps(loaded))
        """
        loaded = json.loads(python(code, tmp_path))
        assert list(loaded) == ["simulate", "filter", "locate", "evaluate"]
        for command, modules in loaded.items():
            assert "rssiloc.solvers" in modules
            assert not {f"rssiloc.{m}" for m in LEARNING} & set(modules), command

    def test_treeloc_record_loads_without_importing_ensemble(self, tmp_path):
        rssi, targets, _, _ = regression_testbed(3, n=24)
        model = rssiloc.treeloc_fit(rssi, targets, tree_depth=2, forest_trees=2,
                                    extra_trees=2)
        rssiloc.save_model(model, tmp_path / "treeloc.json")
        code = """if True:
            import json, sys
            from rssiloc.learners import _MODEL_KINDS, load_model
            kinds = dict(_MODEL_KINDS)
            assert "rssiloc.ensemble" not in sys.modules
            model = load_model("treeloc.json")
            import rssiloc.ensemble
            assert _MODEL_KINDS == kinds  # importing ensemble changed nothing
            print(json.dumps([type(model).__module__, type(model).__name__,
                              model.predict(%r).tolist()]))
        """ % (rssi.tolist(),)
        assert json.loads(python(code, tmp_path)) == [
            "rssiloc.ensemble", "TreeLocModel", model.predict(rssi).tolist()]

    @pytest.mark.parametrize("argv", [
        ["treeloc", "--n-trees", "3", "-i", "data.csv", "--save-model", "fitted.json"],
        ["predict", "--model-file", "saved.json", "-i", "data.csv", "-o", "p.csv"]],
        ids=["treeloc", "predict"])
    def test_tree_commands_leave_out_numpy_ma(self, tmp_path, argv):
        # np.unique imports numpy.ma, ~8 ms of each process's start-up
        rssi, targets, _, _ = regression_testbed(3, n=60)
        ingest.write_csv(ingest.RegressionDataset(rssi, targets), tmp_path / "data.csv")
        model = rssiloc.treeloc_fit(rssi, targets, forest_trees=3, extra_trees=3)
        rssiloc.save_model(model, tmp_path / "saved.json")
        code = """if True:
            import contextlib, io, sys
            from rssiloc.cli import main
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(%r) == 0
            print("numpy.ma" in sys.modules)
        """ % (argv,)
        assert python(code, tmp_path) == "False\n"
