"""Closed-loop tracking client: one fix at a time through the library API.

Run as a script (with ``src`` on PYTHONPATH) it is the ``tracking``
workload's only process: it sets up, prints ``ready``, then drives fixes
along the generated path with one client, each fix issued after the
previous one returns, and writes its fixes and per-fix latencies to the
run directory. The traced run imports it and calls the same functions
in-process.

A fix filters each in-range anchor's reading with ``kalman_step``, solves
``wls-bc`` on the in-range anchors only, and runs ``treeloc_predict`` on the
filtered row (out-of-range anchors stay at the -200 sentinel, as the model
was trained).

Usage: python bench/tracking.py RUN_DIR SECONDS [--setup-only]
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import numpy as np

import rssiloc as rl

KALMAN_Q = 4.0
KALMAN_R = 4.0
DIFFUSE_P = 1e12


class Tracker:
    """Scene, model, path and per-anchor filter state of one client."""

    def __init__(self, run_dir: Path):
        meta = json.loads((run_dir / "tracking.json").read_text())
        self.model = rl.load_model(run_dir / meta["model"])
        self.path = rl.load_regression_csv(run_dir / meta["path"])
        xy = np.loadtxt(run_dir / meta["anchors"], delimiter=",", skiprows=1)
        self.sigma_p = float(meta["sigma_p"])
        self.scene = rl.validate_scene(rl.Scene(
            [rl.Anchor(id=f"A{i + 1}", position=rl.Position(x, y),
                       sigma_p=self.sigma_p) for i, (x, y) in enumerate(xy)]))
        self.anchor_xy = self.scene.anchor_positions()
        self.params = rl.PathLossParams(sigma_shadow=self.sigma_p)
        self.reset()

    def reset(self) -> None:
        """Fresh diffuse filter state for every anchor."""
        self.states = [rl.KalmanState(x_hat=0.0, p=DIFFUSE_P, q=KALMAN_Q,
                                      r=KALMAN_R) for _ in self.anchor_xy]

    def fix(self, reading: np.ndarray) -> np.ndarray:
        """One position fix; returns (wls-bc x, y, treeloc x, y)."""
        mask = reading != rl.OUT_OF_RANGE_DBM
        row = reading.copy()
        for i in np.flatnonzero(mask):
            self.states[i] = rl.kalman_step(self.states[i], reading[i])
            row[i] = self.states[i].x_hat
        distances = rl.distance_from_rssi(row[mask], self.params)
        ranged = rl.estimate_position("wls-bc", self.anchor_xy[mask],
                                      distances, sigmas_p=self.sigma_p,
                                      eta=self.params.eta)
        learned = rl.treeloc_predict(self.model, row)
        return np.concatenate([ranged, learned])


def timed_fix(tracker: Tracker, reading: np.ndarray):
    """(fix, latency in s, ok); a failed fix is a row of NaN."""
    t0 = time.perf_counter()
    try:
        fix = tracker.fix(reading)
        ok = True
    except (rl.exceptions.RssilocError, np.linalg.LinAlgError, ValueError):
        fix, ok = np.full(4, np.nan), False
    return fix, time.perf_counter() - t0, ok


def run_pass(tracker: Tracker):
    """Drive every reading of the path once, in order, from a fresh filter.

    Returns (fixes (N, 4) with NaN rows for failed fixes, latencies in s,
    failed count).
    """
    tracker.reset()
    results = [timed_fix(tracker, reading) for reading in tracker.path.features]
    return (np.array([r[0] for r in results]), np.array([r[1] for r in results]),
            sum(not r[2] for r in results))


def write_fixes(path: Path, fixes: np.ndarray) -> None:
    rl.write_csv({"X_Ranged": fixes[:, 0], "Y_Ranged": fixes[:, 1],
                  "X_Pred": fixes[:, 2], "Y_Pred": fixes[:, 3]}, path)


def main(argv) -> int:
    run_dir, seconds = Path(argv[0]), float(argv[1])
    tracker = Tracker(run_dir)
    print("ready", flush=True)
    if "--setup-only" in argv:
        return 0
    start = time.perf_counter()
    passes = []
    while True:
        t0 = time.perf_counter()
        fixes, latencies, failed = run_pass(tracker)
        wall = time.perf_counter() - t0
        write_fixes(run_dir / f"fixes_{len(passes)}.csv", fixes)
        passes.append({"wall_s": wall, "latencies_s": latencies.tolist(),
                       "failed": failed})
        # Start another pass only if it should end within the budget.
        if time.perf_counter() - start + wall > seconds:
            break
    (run_dir / "tracking_result.json").write_text(json.dumps(passes))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
