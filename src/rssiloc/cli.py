"""Command-line front end for the localization pipeline.

Subcommands cover the full flow: ``simulate`` writes synthetic testbed
CSVs, ``filter`` conditions RSSI columns, ``locate`` runs the closed-form
solvers, ``fit``/``predict`` train and apply the learners, ``treeloc``
runs the stacking ensemble, and ``evaluate`` scores prediction files.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 numerical
failure. Output files are written to a temp file and renamed on success,
so failures never leave partial outputs. Every command is deterministic
under a fixed --seed at any --threads setting.
"""

from __future__ import annotations

import argparse
import re
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional, Sequence

import numpy as np

from . import ensemble, filters, ingest, learners, metrics, solvers
from .core import Anchor, PathLossParams, Position, Scene, validate_scene
from .exceptions import (DegenerateWeightsWarning, EmptyMatrix, EmptySignal,
                         IngestError, KTooLarge, LearnerError, LengthMismatch,
                         NumericalError, RssilocError, SceneError, SignalError)
from .radio import NoiseSpec, distance_from_rssi, measure_once

DEFAULT_SEED = 42

FILTER_NAMES = ("ma", "median", "gaussian", "kalman")
MODEL_NAMES = ("linear", "poly", "tree", "forest", "extratrees", "treeloc",
               "knn", "mlp")
_FILTERABLE = re.compile(r"^(RSSI\d+|b\d+)$")


class CliError(RssilocError):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _parallel_map(fn, items, threads: int) -> list:
    """Order-preserving map, optionally on a thread pool.

    Work items must be independent (each derives its own RNG substream),
    which keeps results identical at any thread count.
    """
    if threads <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def _write_text(path, text: str) -> None:
    import os
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _emit_report(args, lines: List[tuple], table: str = "") -> None:
    body = "\n".join(f"{key}\t{value}" for key, value in lines)
    if table:
        body = body + "\n\n" + table
    body += "\n"
    print(body, end="")
    if getattr(args, "report", None):
        _write_text(args.report, body)


# --- scene and model-parameter helpers -------------------------------------------

def _parse_anchors(args) -> Scene:
    pairs = []
    if getattr(args, "anchors", None):
        for chunk in args.anchors.split(";"):
            parts = chunk.split(",")
            if len(parts) != 2:
                raise CliError(2, f"bad anchor spec {chunk!r}; expected x,y")
            try:
                pairs.append((float(parts[0]), float(parts[1])))
            except ValueError:
                raise CliError(2, f"bad anchor coordinates {chunk!r}") from None
    elif getattr(args, "anchors_file", None):
        try:
            with open(args.anchors_file, encoding="utf-8") as fh:
                for raw in fh:
                    line = raw.strip()
                    if not line or line.startswith("#") or line.lower().startswith("x"):
                        continue
                    parts = line.split(",")
                    pairs.append((float(parts[0]), float(parts[1])))
        except (OSError, ValueError, IndexError) as exc:
            raise CliError(2, f"cannot parse anchors file: {exc}") from exc
    else:
        raise CliError(2, "anchors required (--anchors or --anchors-file)")

    anchors = [Anchor(id=f"A{i + 1}", position=Position(x, y),
                      sigma_a=args.sigma_a, sigma_p=args.sigma_p)
               for i, (x, y) in enumerate(pairs)]
    bounds = None
    if getattr(args, "bounds", None):
        parts = args.bounds.split(",")
        if len(parts) != 4:
            raise CliError(2, "bounds must be xmin,ymin,xmax,ymax")
        bounds = tuple(float(p) for p in parts)
    try:
        return validate_scene(Scene(anchors, bounds=bounds))
    except SceneError as exc:
        raise CliError(2, f"{type(exc).__name__}: {exc}") from exc


def _path_loss(args) -> PathLossParams:
    return PathLossParams(p0=args.p0, d0=args.d0, eta=args.eta,
                          sigma_shadow=args.sigma_p)


# --- subcommands ----------------------------------------------------------------------

def cmd_simulate(args) -> None:
    scene = _parse_anchors(args)
    params = _path_loss(args)
    noise = NoiseSpec(sigma_a=args.sigma_a, sigma_p=args.sigma_p, seed=args.seed)
    pos_rng = np.random.default_rng(
        np.random.SeedSequence(entropy=args.seed, spawn_key=(2 ** 31,)))
    xmin, ymin, xmax, ymax = scene.bounds
    targets = [Position(pos_rng.uniform(xmin, xmax), pos_rng.uniform(ymin, ymax))
               for _ in range(args.positions)]

    def one_row(trial: int):
        target = targets[trial // args.samples]
        _, measurement = measure_once(scene, target, params, noise, trial)
        return measurement.values(), target

    rows = _parallel_map(one_row, range(args.positions * args.samples),
                         args.threads)
    m = len(scene.anchors)
    columns: Dict[str, list] = {f"RSSI{i + 1}": [rssi[i] for rssi, _ in rows]
                                for i in range(m)}
    columns["X_Actual"] = [target.x for _, target in rows]
    columns["Y_Actual"] = [target.y for _, target in rows]
    ingest.write_csv(columns, args.output)
    _emit_report(args, [("command", "simulate"), ("seed", args.seed),
                        ("threads", args.threads), ("anchors", m),
                        ("positions", args.positions), ("samples", args.samples),
                        ("rows", len(rows)), ("output", args.output)])


def _apply_filter(args, values: np.ndarray) -> np.ndarray:
    if args.filter == "ma":
        return filters.moving_average(values, args.window)
    if args.filter == "median":
        return filters.median_filter(values, args.half_width)
    if args.filter == "gaussian":
        return filters.gaussian_filter(values, args.sigma)
    return filters.kalman_filter(values, q=args.q, r=args.r)


def cmd_filter(args) -> None:
    columns = ingest.load_all_columns(args.input)
    out: Dict[str, list] = {}
    filtered = 0
    for name, raw in columns.items():
        if _FILTERABLE.match(name):
            values = np.array([ingest._parse_float(v, i + 2, name)
                               for i, v in enumerate(raw)])
            out[name] = _apply_filter(args, values)
            filtered += 1
        else:
            out[name] = raw
    if filtered == 0:
        raise CliError(3, f"{args.input}: no RSSI columns to filter")
    ingest.write_csv(out, args.output)
    _emit_report(args, [("command", "filter"), ("seed", args.seed),
                        ("threads", args.threads), ("filter", args.filter),
                        ("columns_filtered", filtered), ("output", args.output)])


def _regression_report_rows(actual: np.ndarray, predicted: np.ndarray
                            ) -> Dict[str, metrics.RegressionMetrics]:
    return {
        "x": metrics.regression_metrics(actual[:, 0], predicted[:, 0]),
        "y": metrics.regression_metrics(actual[:, 1], predicted[:, 1]),
        "pos2d": metrics.regression_metrics(actual, predicted),
    }


def cmd_locate(args) -> None:
    scene = _parse_anchors(args)
    params = _path_loss(args)
    ds = ingest.load_regression_csv(args.input)
    anchor_xy = scene.anchor_positions()
    if ds.features.shape[1] != len(anchor_xy):
        raise CliError(3, f"{args.input} has {ds.features.shape[1]} RSSI columns "
                          f"but the scene has {len(anchor_xy)} anchors")

    def solve_row(r: int) -> np.ndarray:
        rssi = ds.features[r]
        mask = ingest.sentinel_mask(rssi)
        if mask.sum() < 3:
            raise NumericalError(f"row {r + 2}: fewer than 3 in-range anchors")
        distances = distance_from_rssi(rssi[mask], params)
        return solvers.estimate_position(
            args.solver, anchor_xy[mask], distances, sigmas_a=args.sigma_a,
            sigmas_p=args.sigma_p, eta=args.eta,
            include_cross_term=args.include_cross_term)

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", DegenerateWeightsWarning)
        estimates = np.array(_parallel_map(solve_row, range(len(ds)),
                                           args.threads))
        fallbacks = sum(issubclass(w.category, DegenerateWeightsWarning)
                        for w in caught)

    out = {"X_Pred": estimates[:, 0], "Y_Pred": estimates[:, 1],
           "X_Actual": ds.targets[:, 0], "Y_Actual": ds.targets[:, 1]}
    ingest.write_csv(out, args.output)
    rows = _regression_report_rows(ds.targets, estimates)
    _emit_report(args, [("command", "locate"), ("seed", args.seed),
                        ("threads", args.threads), ("solver", args.solver),
                        ("eta", args.eta), ("sigma_p", args.sigma_p),
                        ("sigma_a", args.sigma_a), ("rows", len(ds)),
                        ("weight_fallbacks", fallbacks),
                        ("output", args.output)],
                 metrics.format_regression_table(rows))


def _fit_regressor(args, ds: learners.RegressionDataset):
    if args.model == "linear":
        return lambda xt, yt: learners.fit_linear(xt, yt)
    if args.model == "poly":
        return lambda xt, yt: learners.fit_polynomial(
            xt, yt, degree=args.degree, cross_terms=args.cross_terms)
    if args.model == "tree":
        return lambda xt, yt: learners.fit_tree(
            xt, yt, max_depth=args.max_depth, min_leaf=args.min_leaf,
            rng_seed=args.seed)
    if args.model == "forest":
        return lambda xt, yt: learners.fit_forest(
            xt, yt, n_trees=args.n_trees, max_depth=args.max_depth,
            min_leaf=args.min_leaf, rng_seed=args.seed)
    if args.model == "extratrees":
        return lambda xt, yt: learners.fit_extra_trees(
            xt, yt, n_trees=args.n_trees, max_depth=args.max_depth,
            min_leaf=args.min_leaf, rng_seed=args.seed)
    raise CliError(2, f"model {args.model!r} is not a coordinate regressor")


def _fit_treeloc(args, ds: learners.RegressionDataset) -> ensemble.TreeLocModel:
    model = ensemble.treeloc_fit(
        ds.features, ds.targets, rng_seed=args.seed,
        combiner_holdout=args.combiner_holdout, shuffle=args.shuffle,
        tree_depth=args.max_depth, forest_trees=args.n_trees,
        extra_trees=args.n_trees)
    if args.fixed_coefficients:
        model = ensemble.TreeLocModel(
            components=model.components,
            combiner_x=ensemble.REFERENCE_COMBINER_X,
            combiner_y=ensemble.REFERENCE_COMBINER_Y,
            mode="reference", rng_seed=args.seed)
    return model


def _regression_fit_flow(args, header: List[tuple]) -> None:
    ds = ingest.load_regression_csv(args.input)
    rng = np.random.default_rng(args.seed)
    train_idx, test_idx = learners.train_test_split_indices(
        len(ds), args.test_size, rng)
    if args.model == "treeloc":
        sub = learners.RegressionDataset(ds.features[train_idx],
                                         ds.targets[train_idx])
        model = _fit_treeloc(args, sub)
        header.append(("combiner_x", ",".join(ingest.format_number(c)
                                              for c in model.combiner_x)))
        header.append(("combiner_y", ",".join(ingest.format_number(c)
                                              for c in model.combiner_y)))
    else:
        model = _fit_regressor(args, ds)(ds.features[train_idx],
                                         ds.targets[train_idx])
    predicted = np.atleast_2d(model.predict(ds.features))

    out = {"X_Pred": predicted[:, 0], "Y_Pred": predicted[:, 1],
           "X_Actual": ds.targets[:, 0], "Y_Actual": ds.targets[:, 1]}
    if args.output:
        ingest.write_csv(out, args.output)
    if args.save_model:
        _write_text(args.save_model, _model_json(model))
    table_rows: Dict[str, metrics.RegressionMetrics] = {}
    for name, idx in (("train", train_idx), ("test", test_idx)):
        if len(idx) == 0:
            continue
        for axis, col in (("x", 0), ("y", 1)):
            table_rows[f"{axis}_{name}"] = metrics.regression_metrics(
                ds.targets[idx, col], predicted[idx, col])
        table_rows[f"pos2d_{name}"] = metrics.regression_metrics(
            ds.targets[idx], predicted[idx])
    header.extend([("rows", len(ds)), ("train_rows", len(train_idx)),
                   ("test_rows", len(test_idx))])
    _emit_report(args, header, metrics.format_regression_table(table_rows))


def _load_zones(args):
    if not getattr(args, "zones", None) or args.zones == "grid":
        return "grid"
    return ingest.load_zone_mapping(args.zones)


def _classification_fit_flow(args, header: List[tuple]) -> None:
    ds = ingest.load_ibeacon_csv(args.input, _load_zones(args))
    rng = np.random.default_rng(args.seed)
    train_idx, test_idx = learners.train_test_split_indices(
        len(ds), args.test_size, rng)
    if len(train_idx) == 0:
        raise CliError(2, "test size leaves no training rows")
    if args.model == "knn":
        try:
            model = learners.fit_knn(ds.features[train_idx],
                                     ds.labels[train_idx], k=args.k,
                                     n_classes=len(ds.zone_names))
        except KTooLarge as exc:
            raise CliError(2, str(exc)) from exc
        predicted = model.predict(ds.features)
    else:
        net = learners.MlpModel.create(
            sizes=(ds.features.shape[1], 20, 17, len(ds.zone_names)),
            rng_seed=args.seed)
        model, _ = learners.mlp_train(
            net, ds.features[train_idx], ds.one_hot[train_idx], lr=args.lr,
            batch_size=args.batch_size, epochs=args.epochs,
            rng_seed=args.seed, test_fraction=0.0)
        predicted = learners.mlp_forward(model, ds.features).argmax(axis=1)

    out = {"location": list(ds.locations),
           "Zone_Actual": [ds.zone_names[i] for i in ds.labels],
           "Zone_Pred": [ds.zone_names[i] for i in predicted]}
    if args.output:
        ingest.write_csv(out, args.output)
    if args.save_model:
        _write_text(args.save_model, _model_json(model))

    eval_idx = test_idx if len(test_idx) else train_idx
    cm = metrics.confusion_matrix(ds.labels[eval_idx], predicted[eval_idx],
                                  ds.zone_names)
    report = metrics.classification_metrics(cm)
    header.extend([("rows", len(ds)), ("train_rows", len(train_idx)),
                   ("test_rows", len(test_idx)),
                   ("test_accuracy", f"{report.overall_accuracy:.6f}")])
    _emit_report(args, header, metrics.format_classification_table(report))


def _model_json(model) -> str:
    import json
    return json.dumps(learners.model_to_dict(model))


def cmd_fit(args) -> None:
    header = [("command", "fit"), ("seed", args.seed),
              ("threads", args.threads), ("model", args.model),
              ("test_size", args.test_size)]
    if args.model in ("knn", "mlp"):
        _classification_fit_flow(args, header)
    else:
        _regression_fit_flow(args, header)


def cmd_treeloc(args) -> None:
    args.model = "treeloc"
    header = [("command", "treeloc"), ("seed", args.seed),
              ("threads", args.threads), ("model", "treeloc"),
              ("test_size", args.test_size)]
    _regression_fit_flow(args, header)


def cmd_predict(args) -> None:
    try:
        model = learners.load_model(args.model_file)
    except OSError as exc:
        raise CliError(3, f"cannot read model: {exc}") from exc
    except ValueError as exc:
        raise CliError(3, f"bad model file: {exc}") from exc

    if isinstance(model, (learners.KnnModel, learners.MlpModel)):
        ds = ingest.load_ibeacon_csv(args.input, _load_zones(args))
        if isinstance(model, learners.MlpModel):
            predicted = learners.mlp_forward(model, ds.features).argmax(axis=1)
        else:
            predicted = model.predict(ds.features)
        out = {"location": list(ds.locations),
               "Zone_Pred": [ds.zone_names[i] for i in predicted]}
        ingest.write_csv(out, args.output)
        _emit_report(args, [("command", "predict"), ("seed", args.seed),
                            ("threads", args.threads), ("rows", len(ds)),
                            ("output", args.output)])
        return

    ds = ingest.load_regression_csv(args.input)
    predicted = np.atleast_2d(model.predict(ds.features))
    out = {"X_Pred": predicted[:, 0], "Y_Pred": predicted[:, 1],
           "X_Actual": ds.targets[:, 0], "Y_Actual": ds.targets[:, 1]}
    ingest.write_csv(out, args.output)
    rows = _regression_report_rows(ds.targets, predicted)
    _emit_report(args, [("command", "predict"), ("seed", args.seed),
                        ("threads", args.threads), ("rows", len(ds)),
                        ("output", args.output)],
                 metrics.format_regression_table(rows))


def cmd_evaluate(args) -> None:
    if args.input:
        cols = ingest.load_series_csv(
            args.input, ["X_Actual", "Y_Actual", "X_Pred", "Y_Pred"])
        actual = np.column_stack([cols["X_Actual"], cols["Y_Actual"]])
        predicted = np.column_stack([cols["X_Pred"], cols["Y_Pred"]])
    elif args.actual and args.predicted:
        a = ingest.load_series_csv(args.actual, ["X_Actual", "Y_Actual"])
        try:
            p = ingest.load_series_csv(args.predicted, ["X_Pred", "Y_Pred"])
            predicted = np.column_stack([p["X_Pred"], p["Y_Pred"]])
        except IngestError:
            p = ingest.load_series_csv(args.predicted, ["X_Actual", "Y_Actual"])
            predicted = np.column_stack([p["X_Actual"], p["Y_Actual"]])
        actual = np.column_stack([a["X_Actual"], a["Y_Actual"]])
    else:
        raise CliError(2, "evaluate needs -i FILE or --actual and --predicted")
    rows = _regression_report_rows(actual, predicted)
    _emit_report(args, [("command", "evaluate"), ("seed", args.seed),
                        ("threads", args.threads), ("rows", len(actual))],
                 metrics.format_regression_table(rows))


# --- parser -----------------------------------------------------------------------------

def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--seed", type=int, default=DEFAULT_SEED,
                     help="RNG seed (default %(default)s)")
    sub.add_argument("--threads", type=int, default=1,
                     help="worker threads; results are identical at any count")
    sub.add_argument("--config", default=None,
                     help="key=value file merged under explicit flags")


def _add_scene_flags(sub: argparse.ArgumentParser, sigma_p_default: float) -> None:
    sub.add_argument("--anchors", help="inline anchors: 'x,y;x,y;...' (cm)")
    sub.add_argument("--anchors-file", help="file with one x,y pair per line")
    sub.add_argument("--bounds", help="scene bounds xmin,ymin,xmax,ymax (cm)")
    sub.add_argument("--p0", type=float, default=-40.0,
                     help="received power at d0, dBm (default %(default)s)")
    sub.add_argument("--d0", type=float, default=100.0,
                     help="reference distance, cm (default 1 m)")
    sub.add_argument("--eta", type=float, default=2.0,
                     help="path-loss exponent (default %(default)s)")
    sub.add_argument("--sigma-p", type=float, default=sigma_p_default,
                     help="shadowing std, dB (default %(default)s)")
    sub.add_argument("--sigma-a", type=float, default=0.0,
                     help="anchor coordinate noise std, cm (default %(default)s)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rssiloc",
        description="RSSI indoor localization toolkit")
    subs = parser.add_subparsers(dest="command", required=True)

    sim = subs.add_parser("simulate", help="write a synthetic testbed CSV")
    _add_scene_flags(sim, sigma_p_default=2.0)
    sim.add_argument("--positions", type=int, default=32)
    sim.add_argument("--samples", type=int, default=10,
                     help="measurements per position")
    sim.add_argument("-o", "--output", required=True)
    _add_common(sim)
    sim.set_defaults(func=cmd_simulate)

    flt = subs.add_parser("filter", help="filter RSSI columns of a CSV")
    flt.add_argument("--filter", required=True, choices=FILTER_NAMES)
    flt.add_argument("--window", type=int, default=5,
                     help="moving-average length (default %(default)s)")
    flt.add_argument("--half-width", type=int, default=2,
                     help="median half width (default %(default)s)")
    flt.add_argument("--sigma", type=float, default=1.0,
                     help="gaussian kernel std in samples (default %(default)s)")
    flt.add_argument("--q", type=float, default=filters.KALMAN_DEFAULT_Q,
                     help="kalman process-noise variance")
    flt.add_argument("--r", type=float, default=None,
                     help="kalman measurement-noise variance "
                          "(default: variance of the first 10 samples)")
    flt.add_argument("-i", "--input", required=True)
    flt.add_argument("-o", "--output", required=True)
    _add_common(flt)
    flt.set_defaults(func=cmd_filter)

    loc = subs.add_parser("locate", help="closed-form position estimation")
    loc.add_argument("--solver", required=True, choices=solvers.SOLVER_NAMES)
    _add_scene_flags(loc, sigma_p_default=0.0)
    loc.add_argument("--include-cross-term", action="store_true",
                     help="also subtract the design/rhs noise cross term "
                          "in the bias-compensated solver")
    loc.add_argument("-i", "--input", required=True)
    loc.add_argument("-o", "--output", required=True)
    loc.add_argument("--report", default=None)
    _add_common(loc)
    loc.set_defaults(func=cmd_locate)

    def add_fit_flags(sub):
        sub.add_argument("--test-size", type=float, default=0.2)
        sub.add_argument("--degree", type=int, default=4,
                         help="polynomial degree (default %(default)s)")
        sub.add_argument("--cross-terms", action="store_true",
                         help="include polynomial cross terms")
        sub.add_argument("--max-depth", type=int, default=25)
        sub.add_argument("--min-leaf", type=int, default=1)
        sub.add_argument("--n-trees", type=int, default=100)
        sub.add_argument("--k", type=int, default=5, help="kNN neighbors")
        sub.add_argument("--lr", type=float, default=0.01)
        sub.add_argument("--batch-size", type=int, default=10)
        sub.add_argument("--epochs", type=int, default=50)
        sub.add_argument("--zones", default="grid",
                         help="zone mapping file, or 'grid' for the "
                              "built-in quadrant rule")
        sub.add_argument("--fixed-coefficients", action="store_true",
                         help="use the published reference combiner "
                              "instead of fitting it")
        sub.add_argument("--combiner-holdout", type=float, default=0.0)
        sub.add_argument("--shuffle", action="store_true",
                         help="shuffle before the thirds partition")
        sub.add_argument("-i", "--input", required=True)
        sub.add_argument("-o", "--output", default=None)
        sub.add_argument("--report", default=None)
        sub.add_argument("--save-model", default=None)
        _add_common(sub)

    fit = subs.add_parser("fit", help="train a learner and report metrics")
    fit.add_argument("--model", required=True, choices=MODEL_NAMES)
    add_fit_flags(fit)
    fit.set_defaults(func=cmd_fit)

    tl = subs.add_parser("treeloc", help="train the stacking ensemble")
    add_fit_flags(tl)
    tl.set_defaults(func=cmd_treeloc)

    prd = subs.add_parser("predict", help="apply a saved model to a CSV")
    prd.add_argument("--model-file", required=True)
    prd.add_argument("--zones", default="grid")
    prd.add_argument("-i", "--input", required=True)
    prd.add_argument("-o", "--output", required=True)
    prd.add_argument("--report", default=None)
    _add_common(prd)
    prd.set_defaults(func=cmd_predict)

    ev = subs.add_parser("evaluate", help="score predictions against truth")
    ev.add_argument("-i", "--input", default=None,
                    help="single CSV with X/Y_Actual and X/Y_Pred columns")
    ev.add_argument("--actual", default=None)
    ev.add_argument("--predicted", default=None)
    ev.add_argument("--report", default=None)
    _add_common(ev)
    ev.set_defaults(func=cmd_evaluate)

    return parser


def _merge_config(argv: List[str], parser: argparse.ArgumentParser) -> List[str]:
    """Expand --config FILE into CLI tokens placed before explicit flags.

    Explicit flags win because argparse lets later occurrences override
    earlier ones. Unknown config keys are a configuration error.
    """
    if "--config" not in argv:
        return argv
    at = argv.index("--config")
    if at + 1 >= len(argv):
        raise CliError(2, "--config requires a file path")
    path = argv[at + 1]
    rest = argv[:at] + argv[at + 2:]
    if not rest:
        raise CliError(2, "--config needs a subcommand")
    command = rest[0]

    sub_actions = None
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction) and command in action.choices:
            sub_actions = action.choices[command]._actions
            break
    if sub_actions is None:
        raise CliError(2, f"unknown subcommand {command!r}")
    by_dest = {a.dest: a for a in sub_actions}

    tokens: List[str] = []
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise CliError(2, f"{path}:{lineno}: expected key=value")
                key, value = (part.strip() for part in line.split("=", 1))
                dest = key.replace("-", "_")
                action = by_dest.get(dest)
                if action is None or not action.option_strings:
                    raise CliError(2, f"{path}:{lineno}: unknown key {key!r}")
                if isinstance(action, argparse._StoreTrueAction):
                    if value.lower() in ("1", "true", "yes"):
                        tokens.append(action.option_strings[-1])
                    elif value.lower() not in ("0", "false", "no"):
                        raise CliError(2, f"{path}:{lineno}: {key} must be boolean")
                else:
                    tokens.extend([action.option_strings[-1], value])
    except OSError as exc:
        raise CliError(2, f"cannot read config {path}: {exc}") from exc
    return [command] + tokens + rest[1:]


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        argv = _merge_config(argv, parser)
        args = parser.parse_args(argv)
        args.func(args)
        return 0
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except IngestError as exc:
        print(f"data error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except (EmptySignal, EmptyMatrix, LengthMismatch, LearnerError) as exc:
        print(f"data error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except (SignalError, SceneError, ValueError) as exc:
        print(f"config error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
