"""rssiloc benchmark: four workloads, their output checks and metrics.

Usage (from the repository root):

    python3 bench/run.py --workload ranging --seed 1 --seconds 20 --trace 0

Workloads (see README.md for why each has its shape):
    ranging   simulate -> filter -> locate x 6 solvers -> evaluate
    treeloc   treeloc (CLI defaults) -> predict on held-out rows -> evaluate
    tracking  closed loop of 1-row fixes through the library API
    zones     fit knn -> predict -> fit mlp on a beacon CSV

--trace 0 drives the program as users do, one fresh ``python -m
rssiloc.cli`` process per step (or one tracking process), repeats the
workload while it fits in --seconds, and prints the end-to-end metrics.
--trace 1 runs the workload once in-process without and once with spans
around every call into ``rssiloc`` and prints the per-layer metrics.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics. The lines before it give every metric by name and unit, the
output hashes and the environment. Exit status is 0 when every check
passes, 1 when a check fails, 2 when the program cannot be run at all.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import ctypes
import glob
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path
from typing import Dict, List, NamedTuple

import numpy as np

import gen
import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUNS = ROOT / ".bench_runs"
PY = sys.executable

SETUP_PROBES = 7
STEP_TIMEOUT_S = 170.0
SOLVERS = spans.SOLVERS
ZONES = "ABCD"

SIZES = {
    "full": {"positions": 400, "samples": 10, "testbed_rows": 600,
             "query_rows": 1000, "treeloc_args": [], "survey_rows": 600,
             "fixes": 200, "track_trees": 25, "beacon_rows": 1400,
             "beacon_query_rows": 1000, "mlp_args": []},
    "tiny": {"positions": 8, "samples": 3, "testbed_rows": 30,
             "query_rows": 10, "treeloc_args": ["--n-trees", "2",
                                                "--max-depth", "4"],
             "survey_rows": 30, "fixes": 12, "track_trees": 2,
             "beacon_rows": 80, "beacon_query_rows": 20,
             "mlp_args": ["--epochs", "1"]},
}

UNITS = {"setup_s": "s", "wall_s": "s", "rmse_cm": "cm",
         "zone_accuracy": "fraction", "peak_rss_mb": "MB"}

# Sanity limits for the quality metrics. A position estimate must beat
# answering the middle of the area for every row (its RMSE is at most a
# third of the area's diagonal), and the kNN zone classifier must beat
# chance (0.25 for four zones) by a wide margin; the acceptance suite asks
# 0.80 of it on the public beacon data.
RMSE_DIAGONAL_SHARE = 1 / 3
KNN_MIN_ACCURACY = 0.5


class Step(NamedTuple):
    name: str        # unique in the chain; names the step's stdout file
    label: str       # the CLI step kind, as in cli.<label>_s
    argv: List[str]
    outputs: Dict[str, int]  # output CSV -> expected data rows


class Failure(Exception):
    """A check on the program's outputs failed."""


# --- environment -------------------------------------------------------------------


def _blas_threads():
    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*blas*"))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return out.stdout.strip() or "unknown"


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {"git_commit": _git_commit(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": _blas_threads(),
            "blas_thread_env": {k: os.environ.get(k) for k in
                                ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                 "MKL_NUM_THREADS")},
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_model": _cpu_model(),
            "loadavg_1m_before": os.getloadavg()[0]}


# --- running the program -------------------------------------------------------------


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def _wait(proc: subprocess.Popen) -> int:
    """Reap proc, killing it after STEP_TIMEOUT_S; returns peak RSS in KiB."""
    watchdog = threading.Timer(STEP_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage.ru_maxrss


def probe_setup(argv: List[str], cwd: Path) -> float:
    """Seconds from starting a fresh interpreter to its first stdout line,
    which must start with "ready"; waits for the process to end."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=cwd, env=child_env(),
                            stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - t0
    proc.stdout.close()
    _wait(proc)
    if not line.startswith("ready") or proc.returncode != 0:
        raise Failure(f"setup probe {argv[1:]} failed (exit {proc.returncode})")
    return elapsed


CLI_PROBE = ("import rssiloc.cli, sys; "
             "print('ready', rssiloc.cli.__file__, flush=True)")


def check_program() -> None:
    """The program must come from this checkout's src/."""
    proc = subprocess.run([PY, "-c", CLI_PROBE], cwd=ROOT, env=child_env(),
                          capture_output=True, text=True, timeout=60)
    where = proc.stdout.split()[1:2]
    if proc.returncode != 0 or not where or not Path(where[0]).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: cannot import rssiloc from {SRC}")


def run_step(step: Step, run_dir: Path) -> dict:
    with open(run_dir / f"{step.name}.out", "wb") as out, \
            open(run_dir / f"{step.name}.err", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([PY, "-m", "rssiloc.cli", *step.argv],
                                cwd=run_dir, env=child_env(),
                                stdout=out, stderr=err)
        rss_kb = _wait(proc)
        wall = time.perf_counter() - t0
    return {"name": step.name, "label": step.label, "exit": proc.returncode,
            "wall_s": wall, "rss_kb": rss_kb}


def run_step_inprocess(step: Step, run_dir: Path, tracer=None) -> dict:
    from rssiloc import cli
    with open(run_dir / f"{step.name}.out", "w") as out, \
            open(run_dir / f"{step.name}.err", "w") as err, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        span = (tracer.span(f"cli.{step.label}") if tracer
                else contextlib.nullcontext())
        t0 = time.perf_counter()
        try:
            with span:
                code = cli.main(list(step.argv))
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # an escaping exception is a failed step
            print(f"Traceback: {type(exc).__name__}: {exc}", file=err)
            code = -1
        wall = time.perf_counter() - t0
    return {"name": step.name, "label": step.label, "exit": code,
            "wall_s": wall, "rss_kb": 0}


def step_failed(rec: dict, run_dir: Path) -> bool:
    err = (run_dir / f"{rec['name']}.err").read_text(errors="replace")
    return rec["exit"] != 0 or "Traceback" in err


def digest(run_dir: Path, skip) -> Dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(run_dir.iterdir())
            if p.is_file() and p.name not in skip and p.suffix != ".err"}


# --- reading outputs -----------------------------------------------------------------


def read_csv(path: Path) -> Dict[str, list]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return {name: [r[i] for r in rows[1:]] for i, name in enumerate(rows[0])}


def read_report(path: Path) -> Dict[str, str]:
    """key<TAB>value lines, plus the RMSE of the table's pos2d row."""
    out = {}
    for line in path.read_text().splitlines():
        if "\t" in line:
            key, value = line.split("\t", 1)
            out[key] = value
        elif line.startswith("pos2d "):
            out["pos2d_rmse"] = line.split()[1]
    return out


def xy(columns: Dict[str, list], x: str, y: str) -> np.ndarray:
    return np.column_stack([np.array(columns[x], dtype=float),
                            np.array(columns[y], dtype=float)])


def rmse(pred: np.ndarray, truth: np.ndarray) -> float:
    return float(np.sqrt(np.mean(((pred - truth) ** 2).sum(axis=1))))


def quadrant_accuracy(pred: np.ndarray, truth: np.ndarray, extent) -> float:
    """Share of fixes in the right quadrant (zone) of the area."""
    mid = np.asarray(extent, dtype=float) / 2
    return float(np.mean(np.all((pred < mid) == (truth < mid), axis=1)))


def check_positions(pred: np.ndarray, truth: np.ndarray, extent, what: str,
                    report_rmse=None) -> dict:
    if not np.all(np.isfinite(pred)):
        raise Failure(f"{what}: non-finite predictions")
    err = rmse(pred, truth)
    limit = RMSE_DIAGONAL_SHARE * float(np.hypot(*extent))
    if not 0 < err < limit:
        raise Failure(f"{what}: rmse {err:.1f} cm outside (0, {limit:.0f})")
    if report_rmse is not None and abs(float(report_rmse) - err) > 1e-4 + 1e-9 * err:
        raise Failure(f"{what}: evaluate reports rmse {report_rmse}, "
                      f"outputs give {err:.6f}")
    return {"rmse_cm": err,
            "zone_accuracy": quadrant_accuracy(pred, truth, extent)}


def check_rows(steps: List[Step], run_dir: Path) -> None:
    for step in steps:
        for name, rows in step.outputs.items():
            got = len(next(iter(read_csv(run_dir / name).values())))
            if got != rows:
                raise Failure(f"{step.name}: {name} has {got} rows, input {rows}")


# --- workloads -----------------------------------------------------------------------


class Workload:
    """Inputs, CLI chain and output checks of one workload."""

    name = ""

    def __init__(self, seed: int, size: dict, run_dir: Path):
        self.seed, self.size, self.run_dir = seed, size, run_dir

    def steps(self) -> List[Step]:
        raise NotImplementedError

    def quality(self) -> dict:
        """Check the outputs of the last chain; returns rmse_cm and
        zone_accuracy."""
        raise NotImplementedError


class Ranging(Workload):
    # Solvers do most of the work; radio, filters and ingest run too and no
    # learner does. simulate makes every anchor audible in every row.
    name = "ranging"

    def __init__(self, seed, size, run_dir):
        super().__init__(seed, size, run_dir)
        self.inp = gen.ranging_inputs(seed)
        self.rows = size["positions"] * size["samples"]

    def steps(self):
        inp, n = self.inp, self.rows
        seed = str(inp["cli_seed"])
        scene = ["--anchors", inp["anchors"], "--sigma-p", str(inp["sigma_p"]),
                 "--seed", seed]
        steps = [
            Step("simulate", "simulate",
                 ["simulate", *scene, "--bounds", inp["bounds"],
                  "--positions", str(self.size["positions"]),
                  "--samples", str(self.size["samples"]), "-o", "sim.csv"],
                 {"sim.csv": n}),
            Step("filter", "filter",
                 ["filter", "--filter", "kalman", "--q", "4", "--seed", seed,
                  "-i", "sim.csv", "-o", "filtered.csv"],
                 {"filtered.csv": n})]
        for solver in SOLVERS:
            steps.append(Step(
                f"locate_{solver}", "locate",
                ["locate", "--solver", solver, *scene, "-i", "filtered.csv",
                 "-o", f"located_{solver}.csv",
                 "--report", f"located_{solver}.txt"],
                {f"located_{solver}.csv": n}))
        steps.append(Step("evaluate", "evaluate",
                          ["evaluate", "-i", "located_wls-bc.csv",
                           "--seed", seed, "--report", "evaluate.txt"], {}))
        return steps

    def quality(self):
        for solver in SOLVERS:
            cols = read_csv(self.run_dir / f"located_{solver}.csv")
            if not np.all(np.isfinite(xy(cols, "X_Pred", "Y_Pred"))):
                raise Failure(f"locate {solver}: non-finite predictions")
        cols = read_csv(self.run_dir / "located_wls-bc.csv")
        report = read_report(self.run_dir / "evaluate.txt")
        return check_positions(xy(cols, "X_Pred", "Y_Pred"),
                               xy(cols, "X_Actual", "Y_Actual"), gen.ROOM_CM,
                               "ranging wls-bc", report["pos2d_rmse"])

    def weight_fallbacks(self) -> int:
        return sum(int(read_report(self.run_dir / f"located_{s}.txt")
                       ["weight_fallbacks"]) for s in SOLVERS)


class TreeLoc(Workload):
    # Tree fitting dominates; model save, load and batch predict follow.
    name = "treeloc"

    def __init__(self, seed, size, run_dir):
        super().__init__(seed, size, run_dir)
        self.inp = gen.testbed(seed, run_dir, size["testbed_rows"],
                               size["query_rows"])

    def steps(self):
        inp = self.inp
        seed = str(inp["cli_seed"])
        return [
            Step("treeloc", "treeloc",
                 ["treeloc", *self.size["treeloc_args"], "--seed", seed,
                  "-i", inp["train"], "-o", "treeloc.csv",
                  "--report", "treeloc.txt", "--save-model", "treeloc.json"],
                 {"treeloc.csv": inp["train_rows"]}),
            Step("predict", "predict",
                 ["predict", "--model-file", "treeloc.json", "--seed", seed,
                  "-i", inp["query"], "-o", "predicted.csv",
                  "--report", "predicted.txt"],
                 {"predicted.csv": inp["query_rows"]}),
            Step("evaluate", "evaluate",
                 ["evaluate", "-i", "predicted.csv", "--seed", seed,
                  "--report", "evaluate.txt"], {})]

    def quality(self):
        fitted = read_csv(self.run_dir / "treeloc.csv")
        if not np.all(np.isfinite(xy(fitted, "X_Pred", "Y_Pred"))):
            raise Failure("treeloc: non-finite predictions")
        cols = read_csv(self.run_dir / "predicted.csv")
        report = read_report(self.run_dir / "evaluate.txt")
        extent = (gen.TESTBED_EXTENT_CM, gen.TESTBED_EXTENT_CM)
        return check_positions(xy(cols, "X_Pred", "Y_Pred"),
                               xy(cols, "X_Actual", "Y_Actual"), extent,
                               "treeloc held-out", report["pos2d_rmse"])


def grid_zone(label: str) -> str:
    """The quadrant rule of the public beacon data's grid labels."""
    row, col = label[0], int(label[1:])
    if row <= "J":
        return "A" if col <= 9 else "B"
    return "C" if col <= 9 else "D"


class Zones(Workload):
    # The only workload for kNN, MLP and the beacon loader.
    name = "zones"

    def __init__(self, seed, size, run_dir):
        super().__init__(seed, size, run_dir)
        self.inp = gen.beacons(seed, run_dir, size["beacon_rows"],
                               size["beacon_query_rows"])

    def steps(self):
        inp, seed = self.inp, str(self.seed)
        return [
            Step("fit_knn", "fit_knn",
                 ["fit", "--model", "knn", "--seed", seed, "-i", inp["train"],
                  "-o", "fit_knn.csv", "--report", "fit_knn.txt",
                  "--save-model", "knn.json"],
                 {"fit_knn.csv": inp["train_rows"]}),
            Step("predict", "predict",
                 ["predict", "--model-file", "knn.json", "--seed", seed,
                  "-i", inp["query"], "-o", "zones.csv",
                  "--report", "zones.txt"],
                 {"zones.csv": inp["query_rows"]}),
            Step("fit_mlp", "fit_mlp",
                 ["fit", "--model", "mlp", *self.size["mlp_args"],
                  "--seed", seed, "-i", inp["train"], "-o", "fit_mlp.csv",
                  "--report", "fit_mlp.txt"],
                 {"fit_mlp.csv": inp["train_rows"]})]

    def quality(self):
        for name in ("fit_knn.csv", "fit_mlp.csv", "zones.csv"):
            if set(read_csv(self.run_dir / name)["Zone_Pred"]) - set(ZONES):
                raise Failure(f"{name}: zone labels outside {ZONES}")
        for name in ("fit_knn.txt", "fit_mlp.txt"):
            accuracy = float(read_report(self.run_dir / name)["test_accuracy"])
            if not 0.0 <= accuracy <= 1.0:
                raise Failure(f"{name}: test accuracy {accuracy} not in [0, 1]")
        # The held-out query file is the kNN test set.
        fixes = read_csv(self.run_dir / "zones.csv")
        accuracy = float(np.mean([grid_zone(c) == z for c, z in
                                  zip(fixes["location"], fixes["Zone_Pred"])]))
        if accuracy < KNN_MIN_ACCURACY:
            raise Failure(f"knn query accuracy {accuracy} below {KNN_MIN_ACCURACY}")
        # A zone fix places the target at the centre of the surveyed cells
        # of its zone; its error is the distance to the true cell centre.
        cells = set(read_csv(self.run_dir / self.inp["train"])["location"])
        centre = {z: np.mean([gen.cell_xy(c) for c in cells
                              if grid_zone(c) == z], axis=0) for z in ZONES}
        pred = np.array([centre[z] for z in fixes["Zone_Pred"]])
        truth = np.array([gen.cell_xy(c) for c in fixes["location"]])
        extent = (gen.GRID_COLS * gen.GRID_PITCH_CM,
                  len(gen.GRID_ROWS) * gen.GRID_PITCH_CM)
        return dict(check_positions(pred, truth, extent, "zones"),
                    zone_accuracy=accuracy)


class Tracking(Workload):
    # Solvers and trees one row at a time; the anchor mask changes per fix.
    name = "tracking"

    def __init__(self, seed, size, run_dir):
        super().__init__(seed, size, run_dir)
        self.inp = gen.tracking_inputs(seed, run_dir, size["survey_rows"],
                                       size["fixes"])
        prep = Step("fit_model", "treeloc",
                    ["treeloc", "--n-trees", str(size["track_trees"]),
                     "--test-size", "0", "--seed", str(self.inp["cli_seed"]),
                     "-i", self.inp["survey"], "-o", "survey_fit.csv",
                     "--save-model", "track_model.json"], {})
        rec = run_step(prep, run_dir)
        if step_failed(rec, run_dir):
            raise Failure("tracking: fitting the model failed")
        (run_dir / "tracking.json").write_text(json.dumps(
            {"model": "track_model.json", "path": self.inp["path"],
             "anchors": self.inp["anchors"], "sigma_p": self.inp["sigma_p"]}))
        path = read_csv(run_dir / self.inp["path"])
        self.truth = xy(path, "X_Actual", "Y_Actual")

    def client(self, *extra) -> List[str]:
        return [PY, str(BENCH / "tracking.py"), str(self.run_dir), *extra]

    def check_pass(self, fixes: np.ndarray, what: str) -> dict:
        if len(fixes) != len(self.truth):
            raise Failure(f"{what}: {len(fixes)} fixes for {len(self.truth)} readings")
        check_positions(fixes[:, :2], self.truth, gen.TRACK_FLOOR_CM,
                        f"{what} wls-bc")
        return check_positions(fixes[:, 2:], self.truth, gen.TRACK_FLOOR_CM,
                               f"{what} treeloc")


WORKLOADS = {"ranging": Ranging, "treeloc": TreeLoc, "tracking": Tracking,
             "zones": Zones}


# --- end-to-end run ------------------------------------------------------------------


def fix_percentiles(latencies_s) -> dict:
    """Median and p95 fix latency; 200 fixes leave 10 beyond the p95."""
    ms = 1e3 * np.asarray(latencies_s)
    return {"fix_p50_ms": float(np.percentile(ms, 50)),
            "fix_p95_ms": float(np.percentile(ms, 95))}


def measure_cli(work: Workload, seconds: float, inject_failure: bool) -> dict:
    run_dir = work.run_dir
    setup = [probe_setup([PY, "-c", CLI_PROBE], run_dir)
             for _ in range(SETUP_PROBES)]
    steps = work.steps()
    if inject_failure:
        steps.append(Step("missing_input", "evaluate",
                          ["evaluate", "-i", "missing.csv"], {}))
    inputs = {p.name for p in run_dir.iterdir()}
    chains, hashes, failed, attempted = [], None, 0, 0
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        records = []
        for step in steps:
            rec = run_step(step, run_dir)
            records.append(rec)
            attempted += 1
            if step_failed(rec, run_dir):
                failed += 1
                break
        wall = time.perf_counter() - t0
        chains.append({"wall_s": wall, "steps": records})
        if failed:
            break
        chain_hashes = digest(run_dir, inputs)
        if hashes is None:
            hashes = chain_hashes
            check_rows(steps, run_dir)
            quality = work.quality()
        elif chain_hashes != hashes:
            raise Failure("outputs differ between repeats of one seed")
        if time.perf_counter() - start + wall > seconds:
            break
    if failed:
        return {"attempted": attempted, "failed": failed, "chains": chains,
                "setup_samples_s": setup}
    metrics = {"setup_s": statistics.median(setup),
               "wall_s": statistics.median(c["wall_s"] for c in chains),
               **quality,
               "peak_rss_mb": max(r["rss_kb"] for c in chains
                                  for r in c["steps"]) / 1024}
    return {"attempted": attempted, "failed": failed, "metrics": metrics,
            "chains": chains, "setup_samples_s": setup, "hashes": hashes}


def measure_tracking(work: Tracking, seconds: float) -> dict:
    run_dir = work.run_dir
    setup = [probe_setup(work.client("0", "--setup-only"), run_dir)
             for _ in range(SETUP_PROBES - 1)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(work.client(str(seconds)), cwd=run_dir,
                            env=child_env(), stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    setup.append(time.perf_counter() - t0)
    proc.stdout.close()
    rss_kb = _wait(proc)
    if not line.startswith("ready") or proc.returncode != 0:
        raise Failure(f"tracking client failed (exit {proc.returncode})")
    passes = json.loads((run_dir / "tracking_result.json").read_text())
    hashes = digest(run_dir, set())
    fix_hashes = {hashes[f"fixes_{i}.csv"] for i in range(len(passes))}
    model_hash = hashes["track_model.json"]
    if len(fix_hashes) != 1:
        raise Failure("fixes differ between passes over one path")
    cols = read_csv(run_dir / "fixes_0.csv")
    quality = work.check_pass(
        np.column_stack([xy(cols, "X_Ranged", "Y_Ranged"),
                         xy(cols, "X_Pred", "Y_Pred")]), "tracking")
    latencies = np.concatenate([p["latencies_s"] for p in passes])
    failed = sum(p["failed"] for p in passes)
    metrics = {"setup_s": statistics.median(setup),
               "wall_s": statistics.median(p["wall_s"] for p in passes),
               **quality, "peak_rss_mb": rss_kb / 1024}
    return {"attempted": len(latencies), "failed": failed, "metrics": metrics,
            "fix_latency": fix_percentiles(latencies),
            "passes": [{"wall_s": p["wall_s"], "failed": p["failed"]}
                       for p in passes],
            "setup_samples_s": setup,
            "hashes": {"fixes.csv": fix_hashes.pop(),
                       "track_model.json": model_hash}}


# --- traced run ----------------------------------------------------------------------


def count_nodes(tree: dict) -> int:
    if "leaf" in tree:
        return 1
    return 1 + count_nodes(tree["left"]) + count_nodes(tree["right"])


def model_nodes(record: dict) -> int:
    """Tree nodes in a saved model record of any tree-based kind."""
    params = record.get("parameters", {})
    if "root" in params:
        return count_nodes(params["root"])
    if "trees" in params:
        return sum(count_nodes(t) for t in params["trees"])
    return sum(model_nodes(c) for c in params.get("components", []))


def model_facts(path: Path) -> dict:
    return {"learners.model_bytes": float(path.stat().st_size),
            "learners.tree_nodes": float(model_nodes(json.loads(path.read_text())))}


def traced_cli(work: Workload, tracer: spans.Tracer) -> dict:
    """The chain in-process, each step untraced and then traced, so that
    drift in the host's speed hits both sides of the overhead alike."""
    run_dir = work.run_dir
    steps = work.steps()
    inputs = {p.name for p in run_dir.iterdir()}
    walls, failed, attempted = [0.0, 0.0], 0, 0
    for step in steps:  # warm-up: first calls pay for lazy imports
        run_step_inprocess(step, run_dir)
    for step in steps:
        hashes = []
        for traced in (False, True):
            if traced:
                tracer.install()
            try:
                rec = run_step_inprocess(step, run_dir, tracer if traced else None)
            finally:
                tracer.uninstall()
            walls[traced] += rec["wall_s"]
            attempted += 1
            if step_failed(rec, run_dir):
                return {"attempted": attempted, "failed": failed + 1}
            hashes.append(digest(run_dir, inputs))
        if hashes[0] != hashes[1]:
            raise Failure(f"{step.name}: traced outputs differ from untraced")
    check_rows(steps, run_dir)
    work.quality()
    facts = {}
    if isinstance(work, Ranging):
        facts["solvers.weight_fallbacks"] = float(work.weight_fallbacks())
    saved = {"treeloc": "treeloc.json", "zones": "knn.json"}.get(work.name)
    if saved:
        facts.update(model_facts(run_dir / saved))
    return {"attempted": attempted, "failed": failed, "walls": walls,
            "facts": facts, "hashes": hashes[1]}


def traced_tracking(work: Tracking, tracer: spans.Tracer) -> dict:
    """Two clients on the same path, one untraced and one traced, taking
    turns fix by fix."""
    import rssiloc
    import tracking
    run_dir = work.run_dir
    plain = tracking.Tracker(run_dir)
    for reading in plain.path.features[:5]:  # warm-up
        plain.fix(reading)
    tracer.install()
    try:
        with tracer.span("client.setup"):
            traced = tracking.Tracker(run_dir)
    finally:
        tracer.uninstall()
    untraced_fix = traced.fix

    def traced_fix(reading):
        with tracer.span("client.fix"):
            return untraced_fix(reading)

    traced.fix = traced_fix
    plain.reset()
    traced.reset()
    runs = ([], [])
    fallbacks = 0
    for reading in plain.path.features:
        runs[0].append(tracking.timed_fix(plain, reading))
        tracer.install()
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always",
                                      rssiloc.exceptions.DegenerateWeightsWarning)
                runs[1].append(tracking.timed_fix(traced, reading))
        finally:
            tracer.uninstall()
        fallbacks += sum(issubclass(w.category,
                                    rssiloc.exceptions.DegenerateWeightsWarning)
                         for w in caught)
    fixes = [np.array([r[0] for r in run]) for run in runs]
    if not np.array_equal(fixes[0], fixes[1], equal_nan=True):
        raise Failure("traced fixes differ from untraced fixes")
    work.check_pass(fixes[1], "traced tracking")
    facts = {"solvers.weight_fallbacks": float(fallbacks)}
    facts.update(model_facts(run_dir / "track_model.json"))
    facts.update(fix_percentiles([r[1] for r in runs[0]]))
    return {"attempted": 2 * len(fixes[0]),
            "failed": sum(not r[2] for run in runs for r in run),
            "walls": [sum(r[1] for r in run) for run in runs], "facts": facts}


def measure_traced(work: Workload) -> dict:
    sys.path.insert(0, str(SRC))
    startup = [probe_setup([PY, "-c", CLI_PROBE], work.run_dir)
               for _ in range(SETUP_PROBES)]
    tracer = spans.Tracer()
    cwd = os.getcwd()
    os.chdir(work.run_dir)
    try:
        result = (traced_tracking(work, tracer) if isinstance(work, Tracking)
                  else traced_cli(work, tracer))
    finally:
        os.chdir(cwd)
    result["unmeasured_hooks"] = tracer.missing
    if result["failed"]:
        return result
    tracer.dump(RUNS / f"spans-{work.name}-seed{work.seed}.jsonl")
    facts = dict(result.pop("facts"), **{"cli.startup_s": statistics.median(startup)})
    metrics = spans.layer_metrics(tracer.spans, facts)
    untraced, traced = result["walls"]
    metrics.update({"trace.untraced_wall_s": untraced, "trace.wall_s": traced,
                    "trace.overhead_s": traced - untraced})
    result["metrics"] = metrics
    return result


# --- main ----------------------------------------------------------------------------


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    for suffix, unit in (("_per_s", "1/s"), ("_us", "us"), ("_ms", "ms"),
                         ("_s", "s"), ("_bytes", "bytes"), ("_ratio", "fraction")):
        if name.endswith(suffix):
            return unit
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full",
                        help="input size; 'tiny' is for the harness self-test")
    parser.add_argument("--inject-failure", action="store_true",
                        help="append a CLI step that reads a missing file "
                             "(self-test of failure counting)")
    args = parser.parse_args(argv)

    if not (SRC / "rssiloc" / "cli.py").is_file():
        print(f"error: no program at {SRC}", file=sys.stderr)
        return 2
    check_program()
    env = environment()
    RUNS.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    run_dir = RUNS / f"{tag}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir()

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "size": args.size}
    problem = None
    try:
        work = WORKLOADS[args.workload](args.seed, SIZES[args.size], run_dir)
        if args.trace:
            result = measure_traced(work)
        elif isinstance(work, Tracking):
            result = measure_tracking(work, args.seconds)
        else:
            result = measure_cli(work, args.seconds, args.inject_failure)
    except Failure as exc:
        problem = str(exc)
        result = {"attempted": 1, "failed": 1}
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    env["loadavg_1m_after"] = os.getloadavg()[0]
    record.update(result, environment=env, problem=problem)

    attempted, failed = result["attempted"], result["failed"]
    metrics = result.get("metrics", {})
    correct = problem is None and failed == 0 and bool(metrics)
    if failed and problem is None:
        problem = f"{failed} of {attempted} operations failed"

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"size {args.size}")
    shown = dict(metrics, **result.get("fix_latency", {}))
    for name, value in shown.items():
        print(f"  {name:<32} {value:>16.6f} {unit_of(name)}")
    print(f"  {'failed_frac':<32} {failed / attempted:>16.6f} fraction "
          f"({failed}/{attempted})")
    for name, sha in result.get("hashes", {}).items():
        print(f"  sha256 {sha}  {name}")
    for key, value in env.items():
        print(f"  env {key}: {value}")
    load = max(env["loadavg_1m_before"], env["loadavg_1m_after"])
    if load > env["nproc"]:
        print(f"  WARNING: load average {load:.2f} above nproc {env['nproc']}; "
              f"timings of this run are suspect")
        record["load_warning"] = True
    for hook in result.get("unmeasured_hooks", []):
        print(f"  NOTE: rssiloc has no {hook}; the metrics it feeds read 0")
    if problem:
        print(f"  CHECK FAILED: {problem}")
    (RUNS / f"result-{tag}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed,
                      "metrics": {k: {"value": v, "unit": unit_of(k)}
                                  for k, v in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
