"""Each layer reads its inputs through one helper.

Every public ``solvers`` function that takes ``anchors`` reads them and
its distances (or radii) through ``_ranging_inputs``, and every regression
fit reads its training data through ``learners._training_inputs``. A
function that converts those parameters with ``np.asarray`` itself holds a
second copy of the input rule, and copies drift apart.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "rssiloc"
RANGING = {"anchors", "distances", "radii"}
FITS = {"fit_linear", "fit_polynomial", "fit_tree", "fit_forest", "treeloc_fit"}
CONVERTERS = {"asarray", "asanyarray", "array"}


def _functions(*modules):
    """Top-level functions of the modules, by name."""
    return {fn.name: fn for name in modules
            for fn in ast.parse((SRC / name).read_text(encoding="utf-8")).body
            if isinstance(fn, ast.FunctionDef)}


def _params(fn):
    return {a.arg for a in fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs}


def _converted(fn):
    """fn's parameters that it passes to an np.asarray-like call itself."""
    return {call.args[0].id for call in ast.walk(fn)
            if isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
            and call.func.attr in CONVERTERS and call.args
            and isinstance(call.args[0], ast.Name) and call.args[0].id in _params(fn)}


def _calls(fn, helper):
    return any(isinstance(c, ast.Call) and getattr(c.func, "id", None) == helper
               for c in ast.walk(fn))


def test_solvers_read_anchors_and_distances_through_one_helper():
    public = {name: fn for name, fn in _functions("solvers.py").items()
              if not name.startswith("_") and "anchors" in _params(fn)}
    assert set(public) == {"trilaterate", "linearize", "build_weights", "build_bias_terms",
                           "hyperbolic_solve", "estimate_position"}
    assert {name: sorted(_converted(fn) & RANGING) for name, fn in public.items()
            if _converted(fn) & RANGING} == {}
    assert sorted(name for name, fn in public.items() if not _calls(fn, "_ranging_inputs")) == []


def test_regression_fits_read_features_through_one_helper():
    fits = {name: fn for name, fn in _functions("learners.py", "ensemble.py").items()
            if name in FITS}
    assert set(fits) == FITS
    assert sorted(name for name, fn in fits.items() if "features" in _converted(fn)) == []
    assert sorted(name for name, fn in fits.items() if not _calls(fn, "_training_inputs")) == []
