"""In-memory spans around every call into ``rssiloc``, and the per-layer
metrics derived from them.

The tracer patches the program from outside, the way a test would
monkeypatch it: every public function of every ``rssiloc`` module is
replaced, in each namespace that holds it, by a wrapper that records a
span (name, start, end, parent, trace id). A few methods and one private
helper are wrapped too, because the CLI reaches them only through a model
object or has no public save path. Spans of one CLI step or one tracking
fix share a trace id. Nothing under ``src/`` changes.

A layer is a module; its self time is the time its spans cover minus the
time covered by their child spans.
"""

from __future__ import annotations

import importlib
import inspect
import json
import statistics
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, List

MODULES = ("core", "radio", "filters", "solvers", "ingest", "learners",
           "ensemble", "metrics", "cli")
LAYERS = MODULES + ("client",)
SOLVERS = ("trilateration", "lls", "wls", "wls-bc", "hyperbolic",
           "hyperbolic-w")
CLI_STEPS = ("simulate", "filter", "locate", "evaluate", "treeloc", "predict",
             "fit_knn", "fit_mlp")
# (module, class or None, attribute) wrapped besides the public functions.
EXTRA_HOOKS = (("ensemble", "TreeLocModel", "predict"),
               ("learners", "KnnModel", "predict"),
               ("cli", None, "_model_json"))
LOADERS = ("ingest.load_regression_csv", "ingest.load_ibeacon_csv",
           "ingest.load_series_csv", "ingest.load_all_columns")

# Span record fields.
SID, PARENT, TRACE, NAME, START, END, INFO = range(7)


def _rows(value) -> int:
    shape = getattr(value, "shape", None)
    if shape is not None:
        return 1 if len(shape) == 1 else int(shape[0])
    if isinstance(value, dict):
        return len(next(iter(value.values()), ()))
    return len(value)


# Cheap facts recorded with a span, from its arguments and result.
def _info_solver(args, kwargs, result):
    return {"solver": args[0]}


def _info_samples(args, kwargs, result):
    return {"rows": len(args[0])}


def _info_result_rows(args, kwargs, result):
    return {"rows": _rows(result)}


def _info_first_arg_rows(args, kwargs, result):
    return {"rows": _rows(args[0])}


def _info_method_rows(args, kwargs, result):
    return {"rows": _rows(args[1])}


DESCRIBE = {
    "solvers.estimate_position": _info_solver,
    "filters.kalman_filter": _info_samples,
    "ingest.write_csv": _info_first_arg_rows,
    "ensemble.TreeLocModel.predict": _info_method_rows,
    "learners.KnnModel.predict": _info_method_rows,
}
DESCRIBE.update({name: _info_result_rows for name in LOADERS})


class Tracer:
    """Records spans in memory; install() patches rssiloc, uninstall()
    restores it."""

    def __init__(self):
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._patches: list = []
        self.missing: List[str] = []  # hooks the program no longer has

    def _open(self, name: str) -> list:
        sid = len(self.spans)
        if self._stack:
            parent = self._stack[-1]
            trace = self.spans[parent][TRACE]
        else:
            parent, trace = -1, sid
        rec = [sid, parent, trace, name, 0.0, 0.0, None]
        self.spans.append(rec)
        self._stack.append(sid)
        rec[START] = time.perf_counter()
        return rec

    def _close(self, rec: list) -> None:
        rec[END] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, such as one CLI step."""
        rec = self._open(name)
        try:
            yield rec
        finally:
            self._close(rec)

    def wrap(self, name: str, fn):
        describe = DESCRIBE.get(name)
        tracer = self

        def wrapper(*args, **kwargs):
            rec = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._close(rec)
                rec[INFO] = {"error": type(exc).__name__}
                raise
            tracer._close(rec)
            if describe is not None:
                rec[INFO] = describe(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        package = importlib.import_module("rssiloc")
        modules = {m: importlib.import_module(f"rssiloc.{m}") for m in MODULES}
        originals = {}
        for short, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    originals[id(obj)] = (obj, f"{short}.{attr}")
        for short, owner, attr in EXTRA_HOOKS:
            holder = getattr(modules[short], owner) if owner else modules[short]
            fn = getattr(holder, attr, None)
            name = f"{short}.{owner}.{attr}" if owner else f"{short}.{attr}"
            if fn is None:
                self.missing.append(name)
                continue
            if owner:
                self._patch(holder, attr, self.wrap(name, fn))
            else:
                originals[id(fn)] = (fn, name)
        wrappers = {key: self.wrap(name, fn)
                    for key, (fn, name) in originals.items()}
        for mod in (package, *modules.values()):
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and obj is originals[id(obj)][0]:
                    self._patch(mod, attr, wrappers[id(obj)])

    def _patch(self, holder, attr: str, value) -> None:
        self._patches.append((holder, attr, getattr(holder, attr)))
        setattr(holder, attr, value)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._patches):
            setattr(holder, attr, original)
        self._patches.clear()

    def dump(self, path: Path) -> None:
        """Write the spans as JSON lines: id, parent, trace, name, start,
        end (seconds), info."""
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def _dur(rec) -> float:
    return rec[END] - rec[START]


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def layer_metrics(spans: List[list], facts: Dict[str, float]) -> Dict[str, float]:
    """Per-layer metrics from one traced workload run.

    facts carries what the benchmark measured outside the spans
    (cli.startup_s, solvers.weight_fallbacks, learners.model_bytes,
    learners.tree_nodes, fix_p50_ms, fix_p95_ms). A metric of a layer that
    the workload does not run reads 0.
    """
    by_name: Dict[str, list] = {}
    child_time = [0.0] * len(spans)
    for rec in spans:
        by_name.setdefault(rec[NAME], []).append(rec)
        if rec[PARENT] >= 0:
            child_time[rec[PARENT]] += _dur(rec)

    def named(name):
        return by_name.get(name, [])

    def parent_name(rec):
        return spans[rec[PARENT]][NAME] if rec[PARENT] >= 0 else None

    def total(name, parent=None):
        return float(sum(_dur(r) for r in named(name)
                         if parent is None or parent_name(r) == parent))

    def outermost(layer):
        prefix = layer + "."
        return float(sum(_dur(r) for r in spans if r[NAME].startswith(prefix)
                         and not (parent_name(r) or "").startswith(prefix)))

    def info_sum(recs, key):
        return sum(r[INFO][key] for r in recs if r[INFO] and key in r[INFO])

    out: Dict[str, float] = {"cli.startup_s": facts.get("cli.startup_s", 0.0)}
    for step in CLI_STEPS:
        out[f"cli.{step}_s"] = total(f"cli.{step}")

    out["radio.measure_once_us"] = 1e6 * _median(
        [_dur(r) for r in named("radio.measure_once")])
    out["radio.trials"] = float(len(named("radio.measure_once")))

    kf = named("filters.kalman_filter")
    out["filters.kalman_samples_per_s"] = _rate(
        info_sum(kf, "rows"), sum(_dur(r) for r in kf))
    out["filters.kalman_step_us"] = 1e6 * _median(
        [_dur(r) for r in named("filters.kalman_step")])

    solves = named("solvers.estimate_position")
    for solver in SOLVERS:
        out[f"solvers.{solver}_us"] = 1e6 * _median(
            [_dur(r) for r in solves if r[INFO] and r[INFO]["solver"] == solver])
    out["solvers.solves"] = float(len(solves))
    out["solvers.weight_fallbacks"] = facts.get("solvers.weight_fallbacks", 0.0)
    bc = named("solvers.bias_compensated_solve")
    fallbacks = sum(1 for r in bc
                    if r[INFO] and r[INFO].get("error") == "NotPositiveDefinite")
    out["solvers.bc_fallbacks"] = float(fallbacks)
    out["solvers.bc_fallback_ratio"] = fallbacks / len(bc) if bc else 0.0

    loads = [r for name in LOADERS for r in named(name)]
    out["ingest.load_rows_per_s"] = _rate(info_sum(loads, "rows"),
                                          sum(_dur(r) for r in loads))
    writes = named("ingest.write_csv")
    out["ingest.write_rows_per_s"] = _rate(info_sum(writes, "rows"),
                                           sum(_dur(r) for r in writes))
    out["ingest.busy_s"] = outermost("ingest")

    for fit in ("fit_extra_trees", "fit_tree", "fit_forest"):
        out[f"learners.{fit}_s"] = total(f"learners.{fit}",
                                         parent="ensemble.treeloc_fit")
    out["learners.tree_nodes"] = facts.get("learners.tree_nodes", 0.0)
    out["learners.model_save_s"] = total("cli._model_json")
    out["learners.model_load_s"] = total("learners.load_model")
    out["learners.model_bytes"] = facts.get("learners.model_bytes", 0.0)
    knn = named("learners.KnnModel.predict")
    out["learners.knn_queries_per_s"] = _rate(info_sum(knn, "rows"),
                                              sum(_dur(r) for r in knn))
    mlp_s = total("learners.mlp_train")
    out["learners.mlp_train_s"] = mlp_s
    batches = sum(1 for r in named("learners.mlp_backprop")
                  if parent_name(r) == "learners.mlp_train")
    out["learners.mlp_batches_per_s"] = _rate(batches, mlp_s)

    fit_s = total("ensemble.treeloc_fit")
    out["ensemble.treeloc_fit_s"] = fit_s
    out["ensemble.fit_self_s"] = fit_s - sum(
        total(f"learners.{fit}", parent="ensemble.treeloc_fit")
        for fit in ("fit_extra_trees", "fit_tree", "fit_forest"))
    tl = named("ensemble.TreeLocModel.predict")
    out["ensemble.predict_rows_per_s"] = _rate(info_sum(tl, "rows"),
                                               sum(_dur(r) for r in tl))
    out["ensemble.predict_1row_ms"] = 1e3 * _median(
        [_dur(r) for r in tl if r[INFO] and r[INFO]["rows"] == 1])

    out["metrics.busy_s"] = outermost("metrics")
    # Per-fix latency of tracking, from the untraced pass of the traced run.
    out["fix_p50_ms"] = facts.get("fix_p50_ms", 0.0)
    out["fix_p95_ms"] = facts.get("fix_p95_ms", 0.0)

    self_time = dict.fromkeys(LAYERS, 0.0)
    for rec in spans:
        layer = rec[NAME].split(".", 1)[0]
        self_time[layer] += _dur(rec) - child_time[rec[SID]]
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_time[layer]
    out["trace.spans"] = float(len(spans))
    return out
