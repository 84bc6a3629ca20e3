"""CSV dataset loading and writing, and the two dataset types, each holding
what its file said once.

A RegressionDataset holds the testbed layout (RSSI1..RSSIk, X_Actual,
Y_Actual) and each row's line in its file. A ClassificationDataset holds the
beacon layout (location, b3001..b3013; -200 marks an out-of-range beacon)
and each row's zone as one int index into ZONE_LABELS, from a user-supplied
sidecar file of ``label=zone`` lines or from the built-in grid quadrant rule.

Loaders never drop rows or columns silently: a cell that is not a finite
number, or a row not as wide as the header, raises MalformedNumber naming its
line in the file; a header that names a column, or an RSSI number, twice, or
a zone file that maps a label twice, raises IngestError. The numeric columns
a loader needs are parsed into one float block with ``float()`` per cell and
checked with one ``np.isfinite`` over the block; only a block that fails is
scanned again cell by cell, row by row, to name its first bad cell.
:func:`load_rssi_columns` reads a file for the filter step: its RSSI columns
as floats, checked the same way, and every other column as raw strings. A
file that cannot be read or decoded raises IoFailure.

Every file is written by :func:`write_text`, atomically (temp file plus
rename); it also writes reports and saved models. :func:`write_csv`
formats a table row by row with one ``%``-format string built from its
columns' kinds: floats with 17 significant digits, so a write/load round
trip is bit exact, then ints, bools and text. Its bytes are those of
``csv.writer``; a text column (or the header) goes through ``csv`` quoting
only when one scan finds a cell that may need it.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import math
import os
import re
from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Sequence, Tuple, Union

import numpy as np

from .core import OUT_OF_RANGE_DBM
from .exceptions import (EmptyDataset, IngestError, IoFailure, MalformedNumber,
                         MissingColumn, ShapeMismatch, UnmappedLocation)

BEACON_COLUMNS = tuple(f"b{3000 + i}" for i in range(1, 14))
ZONE_LABELS = ("A", "B", "C", "D")

_GRID_LABEL = re.compile(r"^([A-Za-z]+)(\d+)$")
_RSSI_COLUMN = re.compile(r"^(RSSI\d+|b\d+)$")
READ_ENCODING = "utf-8-sig"  # of every file read: a leading byte-order mark is no text


@dataclass(frozen=True)
class RegressionDataset:
    """RSSI features (N, F), targets (N, 2) in cm, column names, file lines."""

    features: np.ndarray
    targets: np.ndarray
    feature_names: Tuple[str, ...] = ()
    lines: Tuple[int, ...] = ()

    def __post_init__(self):
        if len(self.features) == 0:
            raise EmptyDataset("regression dataset is empty")
        if len(self.targets) != len(self) or len(self.lines) not in (0, len(self)):
            raise ShapeMismatch("features, targets and lines disagree on N")
        if not (np.all(np.isfinite(self.features))
                and np.all(np.isfinite(self.targets))):
            raise ValueError("dataset contains non-finite entries")

    def __len__(self) -> int:
        return len(self.features)


@dataclass(frozen=True)
class ClassificationDataset:
    """Beacon RSSI vectors, raw with the -200 out-of-range sentinel, each
    row's zone as one int index into zone_names (ZONE_LABELS), and its
    location. one_hot is built from the labels when read."""

    features: np.ndarray
    labels: np.ndarray
    locations: Tuple[str, ...] = ()
    zone_names = ZONE_LABELS

    def __post_init__(self):
        if len(self.features) == 0:
            raise EmptyDataset("classification dataset is empty")
        labels = np.asarray(self.labels)
        if not (labels.dtype.kind in "iu" and labels.shape == (len(self.features),)
                and np.all((labels >= 0) & (labels < len(ZONE_LABELS)))):
            raise ValueError(f"labels must be one int index into {ZONE_LABELS} per row")

    @property
    def one_hot(self) -> np.ndarray:
        return one_hot_encode(self.labels, len(ZONE_LABELS))

    def __len__(self) -> int:
        return len(self.features)


def one_hot_encode(labels: Sequence[int], n_classes: int) -> np.ndarray:
    out = np.zeros((len(labels), n_classes), dtype=float)
    out[np.arange(len(labels)), np.asarray(labels, dtype=int)] = 1.0
    return out


def format_number(value: float) -> str:
    """17 significant digits; enough for an exact float round trip."""
    return "%.17g" % float(value)


def _parse_float(text: str, row: int, column: str) -> float:
    try:
        value = float(text)
        if math.isfinite(value):
            return value
    except ValueError:
        pass
    raise MalformedNumber(f"row {row}, column {column!r}: not a finite number: {text!r}")


def _read_rows(path) -> Tuple[list, list, list]:
    """Header, the non-blank rows, and each row's line number in the file."""
    try:
        with open(path, newline="", encoding=READ_ENCODING) as fh:
            reader = csv.reader(fh)
            try:
                header = [h.strip() for h in next(reader)]
            except StopIteration:
                raise MissingColumn(f"{path}: file has no header row") from None
            if len(set(header)) < len(header):
                name = next(h for i, h in enumerate(header) if h in header[:i])
                raise IngestError(f"{path}: column {name!r} appears more than once in the header")
            rows, lines = [], []
            for row in filter(None, reader):
                if len(row) != len(header):
                    raise MalformedNumber(f"{path}: line {reader.line_num} has {len(row)}"
                                          f" cells, the header {len(header)}")
                rows.append(row)
                lines.append(reader.line_num)
    except (OSError, UnicodeDecodeError) as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc
    return header, rows, lines


def _parse_block(path, header, rows, lines, names) -> np.ndarray:
    """The named columns as an (N, len(names)) float block. A missing column
    raises MissingColumn; a cell that is not a finite number raises
    MalformedNumber naming its line."""
    index = {name: i for i, name in enumerate(header)}
    for name in names:
        if name not in index:
            raise MissingColumn(f"{path}: missing column {name!r}")
    cells = [(index[name], name) for name in names]
    try:
        block = np.array([[float(row[i]) for i, _ in cells] for row in rows], dtype=float)
        if np.isfinite(block).all():
            return block.reshape(len(rows), len(names))
    except ValueError:
        pass
    # A bad cell: scan again, row by row and cell by cell, to name the first.
    return np.array([[_parse_float(row[i], line, name) for i, name in cells]
                     for row, line in zip(rows, lines)],
                    dtype=float).reshape(len(rows), len(names))


def load_regression_csv(path) -> RegressionDataset:
    """Load a testbed CSV with RSSI1..RSSIk, X_Actual, Y_Actual columns.

    At least three RSSI columns, numbered contiguously from 1, must be
    present. Other columns are ignored.
    """
    header, rows, lines = _read_rows(path)
    numbered = {}
    for name in header:
        m = re.fullmatch(r"RSSI(\d+)", name)
        if m:
            i = int(m.group(1))
            if i in numbered:
                raise IngestError(f"{path}: {numbered[i]!r} and {name!r} are both anchor {i}")
            numbered[i] = name
    k = len(numbered)
    if k < 3:
        raise MissingColumn(f"{path}: need at least RSSI1..RSSI3, found {k}")
    expected = list(range(1, k + 1))
    if sorted(numbered) != expected:
        missing = sorted(set(expected) - set(numbered))
        raise MissingColumn(f"{path}: RSSI columns not contiguous; "
                            f"missing RSSI{missing[0]}")
    feature_names = tuple(numbered[i] for i in expected)
    block = _parse_block(path, header, rows, lines,
                         feature_names + ("X_Actual", "Y_Actual"))
    return RegressionDataset(features=block[:, :k].copy(),
                             targets=block[:, k:].copy(),
                             feature_names=feature_names, lines=tuple(lines))


def load_zone_mapping(path) -> Dict[str, str]:
    """Parse a ``label=zone`` sidecar file; blank lines and # comments ok."""
    mapping: Dict[str, str] = {}
    first: Dict[str, int] = {}
    try:
        with open(path, encoding=READ_ENCODING) as fh:
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
                if label in first:
                    raise IngestError(f"{path}: lines {first[label]} and {lineno}"
                                      f" both map label {label!r}")
                mapping[label], first[label] = zone, lineno
    except (OSError, UnicodeDecodeError) as exc:
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


def load_beacon_rows(path) -> Tuple[np.ndarray, Tuple[str, ...], list]:
    """A beacon CSV's b3001..b3013 columns as floats, -200 kept as a value,
    its stripped locations, and each row's line number in the file."""
    header, rows, lines = _read_rows(path)
    column = {name: i for i, name in enumerate(header)}.get("location")
    if column is None:
        raise MissingColumn(f"{path}: missing column 'location'")
    features = _parse_block(path, header, rows, lines, BEACON_COLUMNS)
    return features, tuple(row[column].strip() for row in rows), lines


def load_ibeacon_csv(path, zones: Union[Mapping[str, str], str, None] = "grid"
                     ) -> ClassificationDataset:
    """:func:`load_beacon_rows` with each location's zone. zones is a
    label-to-zone mapping, "grid" or None to apply :func:`grid_zone`, or any
    other string: the path of a ``label=zone`` file read by
    :func:`load_zone_mapping`. Labels absent from a mapping raise
    UnmappedLocation."""
    if isinstance(zones, str) and zones != "grid":
        zones = load_zone_mapping(zones)
    features, locations, lines = load_beacon_rows(path)
    if not isinstance(zones, Mapping):
        zones = {location: grid_zone(location) for location in locations}
    for location, line in zip(locations, lines):
        if location not in zones:
            raise UnmappedLocation(
                f"row {line}: location {location!r} has no zone mapping")
    labels = np.array([ZONE_LABELS.index(zones[loc]) for loc in locations], dtype=int)
    return ClassificationDataset(features=features, labels=labels, locations=locations)


def _column(values, alone: bool) -> Tuple[str, np.ndarray]:
    """One column as its row-format field and an array of its cells. Float
    cells keep 17 significant digits; text is written as csv.writer does."""
    # A list's first cell tells text: np.asarray would pad every cell to the longest.
    if isinstance(values, np.ndarray) or not isinstance(next(iter(values), 0.0), str):
        array = np.asarray(values)
        field = {"f": "%.17g", "i": "%d", "u": "%d", "b": "%s"}.get(array.dtype.kind)
        if field:
            return field, array
    return "%s", np.array(_csv_text(list(values), alone), dtype=object)


_QUOTABLE = re.compile(r'[,"\r\n]')  # csv.writer may quote a field holding one
_WRITE_ROWS = 4096  # CSV rows formatted and written at a time


def _csv_text(cells: list, alone: bool) -> list:
    """str cells as csv.writer writes them as fields of a row, one scan for
    the common case that none needs quoting. `alone`: each is its row's only
    field, which csv.writer quotes when it is empty."""
    if not (_QUOTABLE.search("".join(cells)) or alone and "" in cells):
        return cells
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    quoted = []
    for cell in cells:
        buffer.seek(0)
        buffer.truncate()
        writer.writerow((cell,) if alone else (cell, ""))
        quoted.append(buffer.getvalue()[:-1 if alone else -2])
    return quoted


def write_csv(data, path) -> None:
    """Write a dataset (or a column mapping) as CSV, atomically.

    Accepts a RegressionDataset, a ClassificationDataset, or a mapping of
    column name to sequence. Each column holds one kind of cell: float, int,
    bool or str. The file appears only after a successful write (temp file
    then rename).
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

    alone = len(columns) == 1
    parts = [_column(values, alone) for values in columns.values()]
    row = ",".join(field for field, _ in parts) + "\n"
    header = ",".join(_csv_text([str(name) for name in columns], alone)) + "\n"
    # cells become Python objects _WRITE_ROWS rows at a time, as they are written
    slices = (slice(i, i + _WRITE_ROWS) for i in range(0, max(lengths, default=0), _WRITE_ROWS))
    chunks = ("".join(row % r for r in zip(*(c[s].tolist() for _, c in parts))) for s in slices)
    write_text(itertools.chain([header], chunks), path)


def write_text(text: Union[str, Iterable[str]], path) -> None:
    """Write text (a CSV file, a report or a saved model), a str or its
    parts in order, to path, atomically: through a temp file renamed on
    success. Any failure removes the temp file; an OSError is raised as
    IoFailure."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w", newline="", encoding="utf-8") as fh:
            fh.writelines([text] if isinstance(text, str) else text)
        os.replace(tmp, path)
    except BaseException as exc:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise IoFailure(f"cannot write {path}: {exc}") from exc
        raise


def load_series_csv(path, columns: Sequence[str]) -> Dict[str, np.ndarray]:
    """Load named numeric columns from any CSV (used by the CLI)."""
    block = _parse_block(path, *_read_rows(path), columns)
    return {name: block[:, j].copy() for j, name in enumerate(columns)}


def load_rssi_columns(path) -> Tuple[Dict[str, object], Tuple[str, ...]]:
    """Every column of a CSV in file order, and the names of its RSSI
    columns (``RSSI<k>`` or ``b<k>``). RSSI columns come back as float
    arrays, parsed as strictly as by the other loaders; the others stay raw
    strings. A file without RSSI columns raises MissingColumn."""
    header, rows, lines = _read_rows(path)
    columns = {name: [row[i] for row in rows] for i, name in enumerate(header)}
    names = tuple(name for name in columns if _RSSI_COLUMN.match(name))
    if not names:
        raise MissingColumn(f"{path}: no RSSI columns to filter")
    block = _parse_block(path, header, rows, lines, names)
    columns.update((name, block[:, j].copy()) for j, name in enumerate(names))
    return columns, names


def sentinel_mask(values: np.ndarray) -> np.ndarray:
    """True where a reading is a real measurement (not the -200 sentinel)."""
    return np.asarray(values) != OUT_OF_RANGE_DBM
