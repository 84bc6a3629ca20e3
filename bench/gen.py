"""Seeded input generators for the benchmark workloads.

Every input the program sees is made here from the run's --seed, so the
same seed always gives byte-identical files. The generators use numpy
only and import nothing from ``rssiloc`` or ``tests/``: a change to the
program can never change its own benchmark inputs.

The radio model matches the program's defaults (log-distance path loss,
p0 = -40 dBm at d0 = 1 m, eta = 2, Gaussian shadowing), so the solvers'
noise model fits the data they are given.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Dict, Sequence

import numpy as np

P0_DBM = -40.0
D0_CM = 100.0
ETA = 2.0
SIGMA_P_DB = 2.0
OUT_OF_RANGE_DBM = -200.0

# Row counts and other sizes are arguments; bench/run.py sets them.

# ranging: an 8 x 6 m room with 5 anchors.
ROOM_CM = (800.0, 600.0)

# treeloc: the 3-anchor, 4 x 4 m testbed of the treeloc dominance
# acceptance criterion.
TESTBED_EXTENT_CM = 400.0
TESTBED_ANCHORS = ((0.0, 0.0), (400.0, 0.0), (200.0, 300.0))

# tracking: 8 anchors around a 12 x 8 m floor. An anchor farther than
# TRACK_RANGE_CM is out of range, and in-range readings drop out at random.
TRACK_FLOOR_CM = (1200.0, 800.0)
TRACK_ANCHORS = ((0.0, 0.0), (600.0, 0.0), (1200.0, 0.0), (1200.0, 400.0),
                 (1200.0, 800.0), (600.0, 800.0), (0.0, 800.0), (0.0, 400.0))
TRACK_RANGE_CM = 750.0
TRACK_DROPOUT = 0.1
TRACK_MIN_IN_RANGE = 4
PATH_STEP_CM = 30.0

# zones: a beacon floor of grid cells lettered A..W by row and numbered
# 01..18 by column, 13 beacons at fixed places (as on a real floor, so the
# seed varies the survey, not the installation), BLE-like path loss, -200
# when unheard.
GRID_ROWS = "ABCDEFGHIJKLMNOPQRSTUVW"
GRID_COLS = 18
GRID_PITCH_CM = 100.0
BEACON_XY = ((225.0, 350.0), (675.0, 350.0), (1125.0, 350.0), (1575.0, 350.0),
             (100.0, 1150.0), (500.0, 1150.0), (900.0, 1150.0),
             (1300.0, 1150.0), (1700.0, 1150.0),
             (225.0, 1950.0), (675.0, 1950.0), (1125.0, 1950.0),
             (1575.0, 1950.0))
BEACON_P0_DBM = -60.0
BEACON_ETA = 2.2
BEACON_SIGMA_DB = 3.0
BEACON_FLOOR_DBM = -78.0
BEACON_LOCATIONS = 120


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed,
                                                        spawn_key=(stream,)))


def _rssi(anchors: np.ndarray, points: np.ndarray, rng: np.random.Generator,
          p0: float = P0_DBM, eta: float = ETA,
          sigma: float = SIGMA_P_DB) -> np.ndarray:
    d = np.sqrt(((points[:, None, :] - anchors[None, :, :]) ** 2).sum(axis=2))
    d = np.maximum(d, 1.0)
    mean = p0 - 10.0 * eta * np.log10(d / D0_CM)
    return mean + rng.normal(0.0, sigma, mean.shape)


def _write(path: Path, columns: Dict[str, Sequence]) -> None:
    names = list(columns)
    n = len(columns[names[0]])
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(names)
        for r in range(n):
            writer.writerow(v if isinstance(v, str) else "%.17g" % v
                            for v in (columns[c][r] for c in names))


def _regression_columns(rssi: np.ndarray, xy: np.ndarray) -> Dict[str, Sequence]:
    cols = {f"RSSI{j + 1}": rssi[:, j] for j in range(rssi.shape[1])}
    cols["X_Actual"] = xy[:, 0]
    cols["Y_Actual"] = xy[:, 1]
    return cols


def ranging_inputs(seed: int) -> dict:
    """Anchors and simulate flags for the ranging chain.

    The CLI's own ``simulate`` makes the rows, so the radio layer is part
    of the measured chain. Five anchors sit near the corners and the
    middle of the room; the first three span a triangle, so trilateration
    is well posed. simulate has no range limit: every row has all anchors
    in range and the solvers never see a changing anchor mask.
    """
    rng = _rng(seed, 0)
    w, h = ROOM_CM
    base = np.array([[0.0, 0.0], [w, 0.0], [w, h], [0.0, h], [w / 2, h / 2]])
    jitter = rng.uniform(-30.0, 30.0, base.shape)
    jitter[:4] = np.abs(jitter[:4]) * np.sign([[1, 1], [-1, 1], [-1, -1],
                                               [1, -1]])
    anchors = base + jitter
    return {"anchors": ";".join(f"{x:.1f},{y:.1f}" for x, y in anchors),
            "bounds": f"0,0,{w:g},{h:g}", "sigma_p": SIGMA_P_DB, "cli_seed": int(rng.integers(1, 2 ** 31))}


def testbed(seed: int, out_dir: Path, rows: int, query_rows: int) -> dict:
    """Training and held-out query CSVs for the treeloc chain.

    Same layout as the acceptance testbed (3 anchors, 4 x 4 m, 2 dB
    shadowing), so tree fitting at CLI defaults dominates the chain and no
    solver runs.
    """
    rng = _rng(seed, 1)
    anchors = np.array(TESTBED_ANCHORS)
    lo, hi = 0.05 * TESTBED_EXTENT_CM, 0.95 * TESTBED_EXTENT_CM
    xy = rng.uniform(lo, hi, (rows + query_rows, 2))
    rssi = _rssi(anchors, xy, rng)
    train, query = out_dir / "train.csv", out_dir / "query.csv"
    _write(train, _regression_columns(rssi[:rows], xy[:rows]))
    _write(query, _regression_columns(rssi[rows:], xy[rows:]))
    return {"train": train.name, "query": query.name,
            "train_rows": rows, "query_rows": query_rows,
            "cli_seed": int(rng.integers(1, 2 ** 31))}


def _track_readings(anchors: np.ndarray, xy: np.ndarray,
                    rng: np.random.Generator) -> np.ndarray:
    """RSSI with range and random dropouts: every reading keeps at least
    TRACK_MIN_IN_RANGE anchors (the nearest ones) and loses at least one."""
    rssi = _rssi(anchors, xy, rng)
    d = np.sqrt(((xy[:, None, :] - anchors[None, :, :]) ** 2).sum(axis=2))
    out = (d > TRACK_RANGE_CM) | (rng.random(d.shape) < TRACK_DROPOUT)
    order = np.argsort(d, axis=1)
    rows = np.arange(len(xy))[:, None]
    out[rows, order[:, :TRACK_MIN_IN_RANGE]] = False
    out[np.arange(len(xy)), order[:, -1]] = True
    rssi[out] = OUT_OF_RANGE_DBM
    return rssi


def tracking_inputs(seed: int, out_dir: Path, survey_rows: int,
                    fixes: int) -> dict:
    """Fingerprint survey, anchor file and a random-walk path.

    The survey trains the 25-tree treeloc model (the acceptance-criterion
    size) during input preparation. The path walks past all 8 anchors with
    some out of range at every reading, so the anchor mask changes from fix
    to fix and every fix is a 1-row predict.
    """
    rng = _rng(seed, 2)
    anchors = np.array(TRACK_ANCHORS)
    w, h = TRACK_FLOOR_CM
    survey_xy = rng.uniform([20.0, 20.0], [w - 20.0, h - 20.0],
                            (survey_rows, 2))
    survey = out_dir / "survey.csv"
    _write(survey, _regression_columns(
        _track_readings(anchors, survey_xy, rng), survey_xy))

    path_xy = np.empty((fixes, 2))
    pos = rng.uniform([100.0, 100.0], [w - 100.0, h - 100.0])
    heading = rng.uniform(0.0, 2 * np.pi)
    for i in range(fixes):
        heading += rng.normal(0.0, 0.4)
        step = PATH_STEP_CM * np.array([np.cos(heading), np.sin(heading)])
        nxt = pos + step
        if not (20.0 <= nxt[0] <= w - 20.0):
            heading = np.pi - heading
        if not (20.0 <= nxt[1] <= h - 20.0):
            heading = -heading
        pos = np.clip(nxt, 20.0, [w - 20.0, h - 20.0])
        path_xy[i] = pos
    path = out_dir / "path.csv"
    _write(path, _regression_columns(_track_readings(anchors, path_xy, rng),
                                     path_xy))
    anchor_file = out_dir / "anchors.csv"
    _write(anchor_file, {"x": anchors[:, 0], "y": anchors[:, 1]})
    return {"survey": survey.name, "path": path.name,
            "anchors": anchor_file.name, "fixes": fixes,
            "floor": TRACK_FLOOR_CM, "sigma_p": SIGMA_P_DB,
            "cli_seed": int(rng.integers(1, 2 ** 31))}


def cell_xy(label: str) -> tuple:
    """Centre of a grid cell such as "O02", in cm."""
    return ((int(label[1:]) - 0.5) * GRID_PITCH_CM,
            (GRID_ROWS.index(label[0]) + 0.5) * GRID_PITCH_CM)


def beacons(seed: int, out_dir: Path, rows: int, query_rows: int) -> dict:
    """Labelled beacon survey and a query file in the public dataset layout.

    Rows repeat a fixed set of surveyed cells, as the real survey does,
    and most beacons read -200 at any one cell. This is the only input for
    kNN, MLP and the beacon loader.
    """
    rng = _rng(seed, 3)
    positions = np.array(BEACON_XY)
    cells = [f"{GRID_ROWS[r]}{c + 1:02d}" for r in range(len(GRID_ROWS))
             for c in range(GRID_COLS)]
    chosen = rng.choice(len(cells), BEACON_LOCATIONS, replace=False)
    names = {}
    for stem, n in (("beacons", rows), ("beacon_query", query_rows)):
        labels = [cells[i] for i in rng.choice(chosen, n)]
        xy = np.array([cell_xy(lab) for lab in labels])
        xy += rng.uniform(-GRID_PITCH_CM / 3, GRID_PITCH_CM / 3, xy.shape)
        rssi = _rssi(positions, xy, rng, p0=BEACON_P0_DBM, eta=BEACON_ETA,
                     sigma=BEACON_SIGMA_DB)
        unheard = rssi < BEACON_FLOOR_DBM
        unheard[np.arange(n), rssi.argmax(axis=1)] = False
        rssi = np.round(rssi)
        rssi[unheard] = OUT_OF_RANGE_DBM
        cols: Dict[str, Sequence] = {"location": labels}
        for j in range(len(BEACON_XY)):
            cols[f"b{3001 + j}"] = [f"{v:.0f}" for v in rssi[:, j]]
        path = out_dir / f"{stem}.csv"
        _write(path, cols)
        names[stem] = path.name
    return {"train": names["beacons"], "query": names["beacon_query"],
            "train_rows": rows, "query_rows": query_rows}
