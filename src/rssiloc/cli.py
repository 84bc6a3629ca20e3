"""Command-line front end for the localization pipeline.

Subcommands cover the full flow: ``simulate`` writes synthetic testbed
CSVs, ``filter`` conditions RSSI columns, ``locate`` runs the closed-form
solvers, ``fit``/``predict`` train and apply the learners, ``treeloc``
fits the stacking ensemble and takes only its tree, split and I/O flags,
and ``evaluate`` scores prediction files. Only ``fit``, ``treeloc`` and
``predict`` import ``learners``, and only a treeloc fit or record imports
``ensemble``; the other commands load neither.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 numerical
failure (numpy's LinAlgError included), never a traceback. ``main`` runs
every command in one float-error scope, so an overflow gives inf or nan,
not a warning, and ``_finish`` writes nothing when a float data column or
a regression metric holds one (exit 4). A failing ``locate`` names the
first row that fails when solved alone by the file line its loader read.
Every command is deterministic under a fixed --seed. --threads is
accepted for compatibility, echoed in reports, and has no effect.

Outputs are computed first, then written in one place in the order data
CSV (-o), saved model (--save-model), report (--report), each atomically
through ``ingest``. An unwritable path exits 3 and removes the files this
run already wrote, so no output path holds a file from a failed run; a
file that was at an output path before the run survives only if the run
fails before writing that path. The report is printed to stdout only
after every write has succeeded.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
import warnings
from typing import Dict, List, Optional, Sequence

import numpy as np

from . import filters, ingest, metrics, solvers
from .core import Anchor, PathLossParams, Position, Scene, validate_scene
from .exceptions import (DegenerateGeometry, DegenerateWeightsWarning, EmptySignal,
                         IngestError, LearnerError, MetricError, NumericalError,
                         RssilocError, SceneError, SignalError, TooFewAnchors)
from .radio import NoiseSpec, distance_from_rssi, measure_targets

DEFAULT_SEED = 42

FILTER_NAMES = ("ma", "median", "gaussian", "kalman")
MODEL_NAMES = ("linear", "poly", "tree", "forest", "extratrees", "treeloc",
               "knn", "mlp")


class CliError(RssilocError):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _finish(args, lines: List[tuple], table="", data=None, model=None) -> None:
    """Refuse non-finite data or metrics, write the run's outputs (data,
    model, report), then print the report; table is text or regression
    metrics. A failed write removes the files written before it and raises."""
    for name, column in (data or {}).items():
        if (isinstance(column, np.ndarray) and column.dtype.kind == "f"
                and not np.isfinite(column).all()):
            raise NumericalError(f"{args.command} gave non-finite values in {name}")
    if isinstance(table, dict):
        for name, m in table.items():
            if not np.isfinite([m.rmse, m.mae, m.std_err, m.r2 or 0.0]).all():
                raise NumericalError(f"{args.command} gave non-finite {name} metrics")
        table = metrics.format_regression_table(table)
    lines = [("command", args.command), ("seed", args.seed),
             ("threads", args.threads), *lines]
    body = "".join(f"{key}\t{value}\n" for key, value in lines)
    if table:
        body += "\n" + table + "\n"
    written = []
    try:
        if data is not None and args.output:
            ingest.write_csv(data, args.output)
            written.append(args.output)
        if model is not None and args.save_model:
            from . import learners
            learners.save_model(model, args.save_model)
            written.append(args.save_model)
        if getattr(args, "report", None):
            ingest.write_text(body, args.report)
    except BaseException:  # an interrupted run leaves no outputs either
        for path in written:
            with contextlib.suppress(OSError):
                os.unlink(path)
        raise
    print(body, end="")


def _xy_columns(predicted: np.ndarray, actual: np.ndarray) -> Dict[str, np.ndarray]:
    """The X/Y columns of a regression output file."""
    return {"X_Pred": predicted[:, 0], "Y_Pred": predicted[:, 1],
            "X_Actual": actual[:, 0], "Y_Actual": actual[:, 1]}


def _regression_metrics(actual, predicted, parts=(("", slice(None)),)) -> dict:
    """x, y and pos2d metrics for each (name suffix, row index) part."""
    return {f"{name}{suffix}": metrics.regression_metrics(actual[i, c], predicted[i, c])
            for suffix, i in parts
            for name, c in (("x", 0), ("y", 1), ("pos2d", slice(None)))}


# --- scene and model-parameter helpers -------------------------------------------

def _anchor_pair(text: str, where: str = "") -> tuple:
    """One x,y anchor position of --anchors or --anchors-file; where names
    a file line."""
    parts = text.split(",")
    if len(parts) != 2:
        raise CliError(2, f"{where}bad anchor spec {text!r}; expected x,y")
    try:
        return float(parts[0]), float(parts[1])
    except ValueError:
        raise CliError(2, f"{where}bad anchor coordinates {text!r}") from None


def _parse_anchors(args) -> Scene:
    if getattr(args, "anchors", None):
        pairs = [_anchor_pair(chunk) for chunk in args.anchors.split(";")]
    elif getattr(args, "anchors_file", None):
        try:
            with open(args.anchors_file, encoding=ingest.READ_ENCODING) as fh:
                lines = [(n, raw.strip()) for n, raw in enumerate(fh, start=1)]
        except (OSError, UnicodeDecodeError) as exc:
            raise CliError(2, f"cannot parse anchors file: {exc}") from exc
        lines = [(n, line) for n, line in lines if line and not line.startswith("#")]
        if lines and lines[0][1].lower().startswith("x"):  # an optional x,y header
            del lines[0]
        pairs = [_anchor_pair(line, f"{args.anchors_file} line {n}: ") for n, line in lines]
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
    scene = Scene(anchors, bounds=bounds)  # by default, the anchors' bounding box
    xmin, ymin, xmax, ymax = scene.bounds
    if not np.isfinite([*scene.bounds, xmax - xmin, ymax - ymin]).all():
        raise CliError(2, "bounds and their spans must be finite")
    return validate_scene(scene)


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
    positions, samples = max(args.positions, 0), max(args.samples, 0)  # < 1: no rows
    targets = pos_rng.uniform((xmin, ymin), (xmax, ymax), size=(positions, 2))
    rssi = measure_targets(scene, targets, params, noise, samples)
    m = len(scene.anchors)
    columns: Dict[str, np.ndarray] = {f"RSSI{i + 1}": rssi[:, i] for i in range(m)}
    columns["X_Actual"], columns["Y_Actual"] = np.repeat(targets, samples, axis=0).T
    _finish(args, [("anchors", m), ("positions", args.positions),
                   ("samples", args.samples), ("rows", len(rssi)),
                   ("output", args.output)], data=columns)


def _apply_filter(args, values: np.ndarray) -> np.ndarray:
    if args.filter == "ma":
        return filters.moving_average(values, args.window)
    if args.filter == "median":
        return filters.median_filter(values, args.half_width)
    if args.filter == "gaussian":
        return filters.gaussian_filter(values, args.sigma)
    return filters.kalman_filter(values, q=args.q, r=args.r)


def cmd_filter(args) -> None:
    out, names = ingest.load_rssi_columns(args.input)
    filtered = 0
    for name in names:  # over a column's in-range readings; -200 cells stay as they are
        real = ingest.sentinel_mask(out[name])
        if real.any():
            out[name][real] = _apply_filter(args, out[name][real])
            filtered += 1
    _finish(args, [("filter", args.filter), ("columns_filtered", filtered),
                   ("output", args.output)], data=out)


def cmd_locate(args) -> None:
    scene = _parse_anchors(args)
    params = _path_loss(args)
    ds = ingest.load_regression_csv(args.input)
    anchor_xy = scene.anchor_positions()
    if ds.features.shape[1] != len(anchor_xy):
        raise CliError(3, f"{args.input} has {ds.features.shape[1]} RSSI columns "
                          f"but the scene has {len(anchor_xy)} anchors")

    def solve(rows, mask):  # the estimates of rows from their in-range anchors
        if mask.sum() < 3:
            raise TooFewAnchors("fewer than 3 in-range anchors")
        distances = distance_from_rssi(ds.features[np.ix_(rows, mask)], params)
        return solvers.estimate_position(
            args.solver, anchor_xy[mask], distances, sigmas_a=args.sigma_a,
            sigmas_p=args.sigma_p, eta=args.eta, include_cross_term=args.include_cross_term)

    in_range = ingest.sentinel_mask(ds.features)
    # One solve per anchor mask, over all the rows that share it; a failed group stays nan.
    masks, group = np.unique(in_range, axis=0, return_inverse=True)
    estimates = np.full((len(ds), 2), np.nan)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", DegenerateWeightsWarning)
        for g, mask in enumerate(masks):
            idx = np.flatnonzero(group == g)
            try:
                estimates[idx] = solve(idx, mask)
            except RssilocError as exc:
                if isinstance(exc, DegenerateGeometry) and mask.all():  # the scene's own anchors
                    raise
        for row in np.flatnonzero(~np.isfinite(estimates).all(axis=1)):  # the first failing alone
            try:
                if not np.isfinite(solve([row], in_range[row])).all():
                    raise NumericalError(f"{args.solver} gave a non-finite estimate")
            except RssilocError as exc:  # a raising solve or the line above: name the file line
                raise NumericalError(f"row {ds.lines[row]}: {exc}")
        fallbacks = sum(issubclass(w.category, DegenerateWeightsWarning) for w in caught)

    _finish(args, [("solver", args.solver), ("eta", args.eta),
                   ("sigma_p", args.sigma_p), ("sigma_a", args.sigma_a),
                   ("rows", len(ds)), ("weight_fallbacks", fallbacks),
                   ("output", args.output)],
            _regression_metrics(ds.targets, estimates),
            data=_xy_columns(estimates, ds.targets))


def _fit_model(args, ds, train_idx):
    from . import learners
    x = ds.features[train_idx]
    if args.model == "knn":
        return learners.fit_knn(x, ds.labels[train_idx], k=args.k, n_classes=len(ds.zone_names))
    if args.model == "mlp":
        net = learners.MlpModel.create(
            sizes=(x.shape[1], *learners.MLP_DEFAULT_SIZES[1:-1], len(ds.zone_names)),
            rng_seed=args.seed)
        return learners.mlp_train(
            net, x, ds.one_hot[train_idx], lr=args.lr, batch_size=args.batch_size,
            epochs=args.epochs, rng_seed=args.seed)
    y = ds.targets[train_idx]
    if args.model == "treeloc":
        from . import ensemble
        return ensemble.treeloc_fit(
            x, y, rng_seed=args.seed, tree_depth=args.max_depth,
            forest_trees=args.n_trees, extra_trees=args.n_trees,
            min_leaf=args.min_leaf, reference=args.fixed_coefficients)
    if args.model == "linear":
        return learners.fit_linear(x, y)
    if args.model == "poly":
        return learners.fit_polynomial(x, y, degree=args.degree,
                                       cross_terms=args.cross_terms)
    trees = dict(max_depth=args.max_depth, min_leaf=args.min_leaf, rng_seed=args.seed)
    if args.model == "tree":
        return learners.fit_tree(x, y, **trees)
    fit = learners.fit_forest if args.model == "forest" else learners.fit_extra_trees
    return fit(x, y, n_trees=args.n_trees, **trees)


def _tree_shape(model) -> List[tuple]:
    """Report lines on the trees inside a tree-based model; none for others."""
    from . import learners
    trees = [t for m in learners.tree_models(model) for t in m.trees]
    if not trees:
        return []
    depths = learners.tree_depths(trees)
    return [("trees", len(trees)), ("tree_nodes", sum(len(t.feature) for t in trees)),
            ("tree_depth_max", int(depths.max())), ("tree_depth_mean", f"{np.mean(depths):.6f}")]


def cmd_fit(args) -> None:
    from . import learners
    if not 0.0 <= args.test_size < 1.0:
        raise CliError(2, f"--test-size must be in [0, 1), got {args.test_size}")
    classifier = args.model in ("knn", "mlp")
    ds = (ingest.load_ibeacon_csv(args.input, args.zones) if classifier
          else ingest.load_regression_csv(args.input))
    train_idx, test_idx = learners.train_test_split_indices(
        len(ds), args.test_size, np.random.default_rng(args.seed))
    if len(train_idx) == 0:
        raise CliError(2, "test size leaves no training rows")
    model = _fit_model(args, ds, train_idx)
    predicted = model.predict(ds.features)

    header = [("model", args.model), ("test_size", args.test_size)]
    if args.model == "treeloc":
        header += [(f"combiner_{axis}", ",".join(map(ingest.format_number, c)))
                   for axis, c in (("x", model.combiner_x), ("y", model.combiner_y))]
    header += [("rows", len(ds)), ("train_rows", len(train_idx)),
               ("test_rows", len(test_idx)), *_tree_shape(model)]
    if classifier:
        data = {"location": list(ds.locations),
                "Zone_Actual": [ds.zone_names[i] for i in ds.labels],
                "Zone_Pred": [ds.zone_names[i] for i in predicted]}
        eval_idx = test_idx if len(test_idx) else train_idx
        report = metrics.classification_metrics(metrics.confusion_matrix(
            ds.labels[eval_idx], predicted[eval_idx], ds.zone_names))
        header.append(("test_accuracy", f"{report.overall_accuracy:.6f}"))
        table = metrics.format_classification_table(report)
    else:
        data = _xy_columns(predicted, ds.targets)
        table = _regression_metrics(ds.targets, predicted,
                                    [(f"_{name}", idx) for name, idx in
                                     (("train", train_idx), ("test", test_idx))
                                     if len(idx)])
    _finish(args, header, table, data=data, model=model)


def cmd_predict(args) -> None:
    from . import learners
    try:
        model = learners.load_model(args.model_file)
    except OSError as exc:
        raise CliError(3, f"cannot read model: {exc}") from exc
    except ValueError as exc:
        raise CliError(3, f"bad model file: {exc}") from exc

    classifier = isinstance(model, (learners.KnnModel, learners.MlpModel))
    if classifier:  # the output has no Zone_Actual, so no location needs a zone
        features, locations, _ = ingest.load_beacon_rows(args.input)
    else:
        ds = ingest.load_regression_csv(args.input)
        features = ds.features
    try:  # the model is well formed but may not fit this file's columns or zones
        predicted = model.predict(features)
        zone_pred = [ingest.ZONE_LABELS[i] for i in predicted] if classifier else None
    except (IndexError, TypeError, ValueError) as exc:
        raise CliError(3, f"model does not fit {args.input}: {exc}") from exc
    if classifier:
        data, table = {"location": list(locations), "Zone_Pred": zone_pred}, ""
    elif np.shape(predicted) != (len(ds), 2):
        raise CliError(3, f"model does not predict x and y for each row of {args.input}")
    else:
        data = _xy_columns(predicted, ds.targets)
        table = _regression_metrics(ds.targets, predicted)
    _finish(args, [("rows", len(features)), ("output", args.output)], table, data=data)


def _load_xy(path, *kinds) -> List[np.ndarray]:
    """(N, 2) arrays of the X_<kind>, Y_<kind> columns of one CSV file."""
    cols = ingest.load_series_csv(path, [f"{axis}_{kind}" for kind in kinds
                                         for axis in "XY"])
    return [np.column_stack([cols[f"X_{kind}"], cols[f"Y_{kind}"]])
            for kind in kinds]


def cmd_evaluate(args) -> None:
    if args.input:
        actual, predicted = _load_xy(args.input, "Actual", "Pred")
    elif args.actual and args.predicted:
        actual, = _load_xy(args.actual, "Actual")
        try:
            predicted, = _load_xy(args.predicted, "Pred")
        except IngestError:
            predicted, = _load_xy(args.predicted, "Actual")
    else:
        raise CliError(2, "evaluate needs -i FILE or --actual and --predicted")
    _finish(args, [("rows", len(actual))], _regression_metrics(actual, predicted))


# --- parser -----------------------------------------------------------------------------

def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--seed", type=int, default=DEFAULT_SEED,
                     help="RNG seed (default %(default)s)")
    sub.add_argument("--threads", type=int, default=1,
                     help="accepted for compatibility; has no effect")
    sub.add_argument("--config", default=None,
                     help="key=value file merged under explicit flags")


def _add_scene_flags(sub: argparse.ArgumentParser, sigma_p_default: float) -> None:
    sub.add_argument("--anchors", help="inline anchors: 'x,y;x,y;...' (cm)")
    sub.add_argument("--anchors-file", help="one x,y pair per line, after an optional x,y header")
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
    sim.add_argument("--bounds", help="scene bounds xmin,ymin,xmax,ymax (cm)")
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
        sub.add_argument("--max-depth", type=int, default=25)
        sub.add_argument("--min-leaf", type=int, default=1)
        sub.add_argument("--n-trees", type=int, default=100)
        sub.add_argument("--fixed-coefficients", action="store_true",
                         help="use the published reference combiner "
                              "instead of fitting it")
        sub.add_argument("-i", "--input", required=True)
        sub.add_argument("-o", "--output", default=None)
        sub.add_argument("--report", default=None)
        sub.add_argument("--save-model", default=None)
        _add_common(sub)

    fit = subs.add_parser("fit", help="train a learner and report metrics")
    fit.add_argument("--model", required=True, choices=MODEL_NAMES)
    fit.add_argument("--degree", type=int, default=4,
                     help="polynomial degree (default %(default)s)")
    fit.add_argument("--cross-terms", action="store_true",
                     help="include polynomial cross terms")
    fit.add_argument("--k", type=int, default=5, help="kNN neighbors")
    fit.add_argument("--lr", type=float, default=0.01)
    fit.add_argument("--batch-size", type=int, default=10)
    fit.add_argument("--epochs", type=int, default=50)
    fit.add_argument("--zones", default="grid",
                     help="zone mapping file, or 'grid' for the built-in quadrant rule")
    add_fit_flags(fit)
    fit.set_defaults(func=cmd_fit)

    tl = subs.add_parser("treeloc", help="train the stacking ensemble")
    add_fit_flags(tl)
    tl.set_defaults(func=cmd_fit, model="treeloc")

    prd = subs.add_parser("predict", help="apply a saved model to a CSV")
    prd.add_argument("--model-file", required=True)
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
    """Expand each --config FILE, in every spelling argparse reads as it,
    into CLI tokens placed right after the subcommand, in the order given.

    Explicit flags win because argparse lets later occurrences override
    earlier ones. Unknown keys, and ``config``, are configuration errors.
    """
    subs = next(a for a in parser._actions
                if isinstance(a, argparse._SubParsersAction))
    paths, rest, by_dest, options, at = [], [], {}, ["--config"], 0
    while at < len(argv):
        token, at = argv[at], at + 1
        # argparse reads as --config the flag and each prefix of it that names no other option
        name = token.split("=", 1)[0]
        matches = [o for o in options if o.startswith(name)] if len(name) > 2 else []
        if name != "--config" and matches != ["--config"]:
            if not rest and token in subs.choices:  # the subcommand: its options from here
                by_dest = {a.dest: a for a in subs.choices[token]._actions}
                options = [o for a in by_dest.values() for o in a.option_strings]
            rest.append(token)
        elif "=" in token:
            paths.append(token.split("=", 1)[1])
        elif at < len(argv):
            paths.append(argv[at])
            at += 1
        else:
            raise CliError(2, "--config requires a file path")
    if paths and not rest:
        raise CliError(2, "--config needs a subcommand")
    if paths and not by_dest:
        raise CliError(2, f"unknown subcommand {rest[0]!r}")

    tokens: List[str] = []
    for path in paths:
        try:
            with open(path, encoding=ingest.READ_ENCODING) as fh:
                lines = [line.strip() for line in fh]
        except OSError as exc:
            raise CliError(2, f"cannot read config {path}: {exc}") from exc
        for lineno, line in enumerate(lines, start=1):
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise CliError(2, f"{path}:{lineno}: expected key=value")
            key, value = (part.strip() for part in line.split("=", 1))
            action = by_dest.get(key.replace("-", "_"))
            if action is None or not action.option_strings or action.dest == "config":
                raise CliError(2, f"{path}:{lineno}: unknown key {key!r}")
            if isinstance(action, argparse._StoreTrueAction):
                if value.lower() in ("1", "true", "yes"):
                    tokens.append(action.option_strings[-1])
                elif value.lower() not in ("0", "false", "no"):
                    raise CliError(2, f"{path}:{lineno}: {key} must be boolean")
            else:  # one token, so a value such as "-1,0,5,5" is not read as a flag
                tokens.append(f"{action.option_strings[-1]}={value}")
    return rest[:1] + tokens + rest[1:]


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        argv = _merge_config(argv, parser)
        args = parser.parse_args(argv)
        with np.errstate(over="ignore", invalid="ignore"):  # _finish checks the data
            args.func(args)
        return 0
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (NumericalError, np.linalg.LinAlgError) as exc:  # LinAlgError is a ValueError
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4
    except (IngestError, EmptySignal, MetricError, LearnerError) as exc:
        print(f"data error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except (SignalError, SceneError, ValueError) as exc:
        print(f"config error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
