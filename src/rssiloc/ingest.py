"""CSV dataset loading and writing.

Two formats are supported: the testbed regression layout
(RSSI1..RSSIk, X_Actual, Y_Actual) and the beacon classification layout
(location, b3001..b3013) where -200 marks an out-of-range beacon. Zone
labels for the classification format come from a user-supplied sidecar
mapping file of ``label=zone`` lines, or from the built-in grid quadrant
rule.

Loaders never drop rows silently: a cell that fails to parse, or a row
shorter than the header, raises MalformedNumber naming where. Writers are
atomic (temp file plus rename) and format floats with 17 significant
digits so a write/load round trip is bit exact.
"""

from __future__ import annotations

import csv
import os
import re
from typing import Dict, Iterable, Mapping, Sequence, Tuple, Union

import numpy as np

from .core import OUT_OF_RANGE_DBM
from .exceptions import (IoFailure, MalformedNumber, MissingColumn,
                         UnmappedLocation)
from .learners import (ClassificationDataset, RegressionDataset, ZONE_LABELS,
                       one_hot_encode)

BEACON_COLUMNS = tuple(f"b{3000 + i}" for i in range(1, 14))

_GRID_LABEL = re.compile(r"^([A-Za-z]+)(\d+)$")


def format_number(value: float) -> str:
    """17 significant digits; enough for an exact float round trip."""
    return "%.17g" % float(value)


def _parse_float(text: str, row: int, column: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise MalformedNumber(
            f"row {row}, column {column!r}: cannot parse {text!r}") from None


def _read_rows(path) -> Tuple[list, list]:
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise MissingColumn(f"{path}: file has no header row") from None
            rows = []
            for row in filter(None, reader):
                if len(row) < len(header):
                    raise MalformedNumber(f"{path}: line {reader.line_num} has {len(row)}"
                                          f" of the header's {len(header)} cells")
                rows.append(row)
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc
    return [h.strip() for h in header], rows


def load_regression_csv(path) -> RegressionDataset:
    """Load a testbed CSV with RSSI1..RSSIk, X_Actual, Y_Actual columns.

    At least three RSSI columns, numbered contiguously from 1, must be
    present. Other columns are ignored.
    """
    header, rows = _read_rows(path)
    index = {name: i for i, name in enumerate(header)}

    numbered = {}
    for name in header:
        m = re.fullmatch(r"RSSI(\d+)", name)
        if m:
            numbered[int(m.group(1))] = name
    k = len(numbered)
    if k < 3:
        raise MissingColumn(f"{path}: need at least RSSI1..RSSI3, found {k}")
    expected = list(range(1, k + 1))
    if sorted(numbered) != expected:
        missing = sorted(set(expected) - set(numbered))
        raise MissingColumn(f"{path}: RSSI columns not contiguous; "
                            f"missing RSSI{missing[0]}")
    feature_names = tuple(numbered[i] for i in expected)

    for required in ("X_Actual", "Y_Actual"):
        if required not in index:
            raise MissingColumn(f"{path}: missing column {required!r}")

    features = np.empty((len(rows), k))
    targets = np.empty((len(rows), 2))
    for r, row in enumerate(rows):
        line = r + 2  # header is line 1
        for j, name in enumerate(feature_names):
            features[r, j] = _parse_float(row[index[name]], line, name)
        targets[r, 0] = _parse_float(row[index["X_Actual"]], line, "X_Actual")
        targets[r, 1] = _parse_float(row[index["Y_Actual"]], line, "Y_Actual")
    return RegressionDataset(features=features, targets=targets,
                             feature_names=feature_names)


def load_zone_mapping(path) -> Dict[str, str]:
    """Parse a ``label=zone`` sidecar file; blank lines and # comments ok."""
    mapping: Dict[str, str] = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise MalformedNumber(
                        f"{path}:{lineno}: expected label=zone, got {line!r}")
                label, zone = (part.strip() for part in line.split("=", 1))
                if zone not in ZONE_LABELS:
                    raise UnmappedLocation(
                        f"{path}:{lineno}: zone {zone!r} not one of {ZONE_LABELS}")
                mapping[label] = zone
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc
    return mapping


def grid_zone(label: str) -> str:
    """Quadrant rule for grid labels like "O02": the row letter and column
    number split the floor into four zones (A: early rows, low columns;
    B: early rows, high columns; C: late rows, low columns; D: the rest).
    """
    m = _GRID_LABEL.match(label.strip())
    if not m:
        raise UnmappedLocation(f"label {label!r} is not a grid label")
    row, col = m.group(1).upper(), int(m.group(2))
    if row <= "J":
        return "A" if col <= 9 else "B"
    return "C" if col <= 9 else "D"


def load_ibeacon_csv(path, zones: Union[Mapping[str, str], str, None] = "grid"
                     ) -> ClassificationDataset:
    """Load a beacon CSV with location and b3001..b3013 columns.

    -200 entries are kept as feature values (classifiers train on them
    directly). zones is a label-to-zone mapping, or "grid" to apply
    :func:`grid_zone`. Labels absent from a mapping raise UnmappedLocation.
    """
    header, rows = _read_rows(path)
    index = {name: i for i, name in enumerate(header)}
    if "location" not in index:
        raise MissingColumn(f"{path}: missing column 'location'")
    for name in BEACON_COLUMNS:
        if name not in index:
            raise MissingColumn(f"{path}: missing column {name!r}")

    use_grid = isinstance(zones, str) or zones is None

    features = np.empty((len(rows), len(BEACON_COLUMNS)))
    labels = np.empty(len(rows), dtype=int)
    locations = []
    for r, row in enumerate(rows):
        line = r + 2
        location = row[index["location"]].strip()
        locations.append(location)
        if use_grid:
            zone = grid_zone(location)
        else:
            if location not in zones:
                raise UnmappedLocation(
                    f"row {line}: location {location!r} has no zone mapping")
            zone = zones[location]
        labels[r] = ZONE_LABELS.index(zone)
        for j, name in enumerate(BEACON_COLUMNS):
            features[r, j] = _parse_float(row[index[name]], line, name)
    return ClassificationDataset(features=features, labels=labels,
                                 one_hot=one_hot_encode(labels, len(ZONE_LABELS)),
                                 locations=tuple(locations))


def _format_cell(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return str(value)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format_number(value)


def write_csv(data, path) -> None:
    """Write a dataset (or a column mapping) as CSV, atomically.

    Accepts a RegressionDataset, a ClassificationDataset, or a mapping of
    column name to sequence. The file appears only after a successful
    write (temp file then rename).
    """
    if isinstance(data, RegressionDataset):
        names = data.feature_names or tuple(
            f"RSSI{i + 1}" for i in range(data.features.shape[1]))
        columns = {name: data.features[:, i] for i, name in enumerate(names)}
        columns["X_Actual"] = data.targets[:, 0]
        columns["Y_Actual"] = data.targets[:, 1]
    elif isinstance(data, ClassificationDataset):
        columns = {"location": data.locations}
        for j, name in enumerate(BEACON_COLUMNS):
            columns[name] = data.features[:, j]
        for j, zone in enumerate(data.zone_names):
            columns[f"Zone{zone}"] = data.one_hot[:, j].astype(int)
    elif isinstance(data, Mapping):
        columns = dict(data)
    else:
        raise TypeError(f"cannot write {type(data).__name__} as CSV")

    lengths = {len(v) for v in columns.values()}
    if len(lengths) > 1:
        raise ValueError(f"column lengths differ: {sorted(lengths)}")

    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(columns.keys())
            for r in range(lengths.pop() if lengths else 0):
                writer.writerow(_format_cell(col[r]) for col in columns.values())
        os.replace(tmp, path)
    except OSError as exc:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise IoFailure(f"cannot write {path}: {exc}") from exc


def load_series_csv(path, columns: Sequence[str]) -> Dict[str, np.ndarray]:
    """Load named numeric columns from any CSV (used by the CLI)."""
    header, rows = _read_rows(path)
    index = {name: i for i, name in enumerate(header)}
    for name in columns:
        if name not in index:
            raise MissingColumn(f"{path}: missing column {name!r}")
    out = {name: np.empty(len(rows)) for name in columns}
    for r, row in enumerate(rows):
        for name in columns:
            out[name][r] = _parse_float(row[index[name]], r + 2, name)
    return out


def load_all_columns(path) -> Dict[str, list]:
    """Load every column of a CSV as raw strings, preserving order."""
    header, rows = _read_rows(path)
    return {name: [row[i] for row in rows] for i, name in enumerate(header)}


def sentinel_mask(values: np.ndarray) -> np.ndarray:
    """True where a reading is a real measurement (not the -200 sentinel)."""
    return np.asarray(values) != OUT_OF_RANGE_DBM
