"""Shared domain types for anchor-based RSSI localization.

Canonical length unit is centimeters throughout the toolkit; use
:func:`meters` to convert inputs given in meters. All types are immutable
values and all operations are pure functions, so everything here is safe
to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Tuple

import numpy as np

from .exceptions import DegenerateGeometry, TooFewAnchors

# Sentinel RSSI value marking an out-of-range beacon in raw datasets.
OUT_OF_RANGE_DBM = -200.0

# Relative geometry tolerance: smallest singular value of the centered anchor
# matrix must exceed this fraction of the scene diameter.
GEOMETRY_TOL = 1e-6


def meters(value: float) -> float:
    """Convert a length in meters to centimeters."""
    return 100.0 * value


def _unchecked(cls, fields):
    """A cls of fields (a dict or name-value pairs) already checked, not validated again."""
    out = object.__new__(cls)
    out.__dict__.update(fields)
    return out


@dataclass(frozen=True)
class Position:
    """2-D (optionally 3-D) coordinates in centimeters."""

    x: float
    y: float
    z: float = 0.0

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.x, self.y, self.z)):
            raise ValueError(f"non-finite position {self!r}")

    @classmethod
    def from_meters(cls, x: float, y: float) -> "Position":
        return cls(meters(x), meters(y))

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y], dtype=float)


@dataclass(frozen=True)
class Anchor:
    """Reference node at a known (possibly noisily known) position.

    sigma_a is the standard deviation of the anchor coordinate noise per
    axis (cm); sigma_p is the shadowing standard deviation (dB) of RSSI
    measured against this anchor.
    """

    id: str
    position: Position
    sigma_a: float = 0.0
    sigma_p: float = 0.0

    def __post_init__(self):
        if not (0 <= self.sigma_a < math.inf and 0 <= self.sigma_p < math.inf):
            raise ValueError(f"anchor {self.id}: noise stds must be finite and >= 0")


@dataclass(frozen=True)
class PathLossParams:
    """Log-distance path-loss parameters.

    Mean received power at distance d is  p0 - 10*eta*log10(d / d0).
    The offset convention RSSI = -(10*eta*log10(d) + A), with A the
    magnitude of the received power at 1 m, is accepted through
    :meth:`from_offset_form`.
    """

    p0: float = -40.0          # received power at d0 (dBm)
    d0: float = 100.0          # reference distance (cm); default 1 m
    eta: float = 2.0           # path-loss exponent
    sigma_shadow: float = 2.0  # shadowing std (dB)

    def __post_init__(self):
        if not all(map(math.isfinite, (self.p0, self.d0, self.eta, self.sigma_shadow))):
            raise ValueError("path-loss parameters must be finite")
        if self.eta <= 0:
            raise ValueError("path-loss exponent must be > 0")
        if self.d0 <= 0:
            raise ValueError("reference distance must be > 0")
        if self.sigma_shadow < 0:
            raise ValueError("shadowing std must be >= 0")

    @classmethod
    def from_offset_form(cls, n: float, a: float) -> "PathLossParams":
        """Build from the 1-meter offset convention (exponent n, offset A)."""
        return cls(p0=-a, d0=meters(1.0), eta=n)


@dataclass(frozen=True)
class Scene:
    """Ordered anchors plus a rectangular extent, all in centimeters."""

    anchors: Tuple[Anchor, ...]
    bounds: Tuple[float, float, float, float]  # xmin, ymin, xmax, ymax

    def __init__(self, anchors: Iterable[Anchor],
                 bounds: Optional[Sequence[float]] = None):
        anchors = tuple(anchors)
        if bounds is None:
            xs = [a.position.x for a in anchors] or [0.0]
            ys = [a.position.y for a in anchors] or [0.0]
            bounds = (min(xs), min(ys), max(xs), max(ys))
        object.__setattr__(self, "anchors", anchors)
        object.__setattr__(self, "bounds", tuple(float(b) for b in bounds))

    def anchor_positions(self) -> np.ndarray:
        return np.array([a.position.as_array() for a in self.anchors])

    def diameter(self) -> float:
        pts = self.anchor_positions()
        if len(pts) < 2:
            return 0.0
        scale = float(np.abs(pts).max()) or 1.0  # no square of pts / scale overflows
        diff = pts[:, None, :] / scale - pts[None, :, :] / scale
        return scale * float(np.sqrt((diff ** 2).sum(axis=2)).max())


@dataclass(frozen=True)
class MeasurementSet:
    """Per-anchor RSSI readings for one observation.

    Entries are dBm floats or None for an out-of-range anchor; length must
    equal the scene's anchor count.
    """

    rssi: Tuple[Optional[float], ...]
    timestamp: Optional[int] = None

    def __init__(self, rssi: Iterable[Optional[float]],
                 timestamp: Optional[int] = None):
        object.__setattr__(
            self, "rssi",
            tuple(None if v is None else float(v) for v in rssi))
        object.__setattr__(self, "timestamp", timestamp)

    def mask(self) -> np.ndarray:
        """Boolean array, True where the anchor is in range."""
        return np.array([v is not None for v in self.rssi])

    def values(self) -> np.ndarray:
        """dBm values of the in-range anchors, in anchor order."""
        return np.array([v for v in self.rssi if v is not None], dtype=float)


def validate_scene(scene: Scene) -> Scene:
    """Check that a scene supports 2-D localization.

    Requires at least three anchors whose positions span two dimensions:
    the smallest singular value of the centered coordinate matrix must
    exceed GEOMETRY_TOL times the diameter, both of the coordinates over max |coordinate|.

    Raises:
        TooFewAnchors: fewer than 3 anchors.
        DegenerateGeometry: anchors collinear (or coincident).
    """
    m = len(scene.anchors)
    if m < 3:
        raise TooFewAnchors(f"need at least 3 anchors, got {m}")
    ids = [a.id for a in scene.anchors]
    if len(set(ids)) != len(ids):
        raise ValueError(f"duplicate anchor ids in scene: {ids}")
    scale = float(np.abs(scene.anchor_positions()).max()) or 1.0
    pts = scene.anchor_positions() / scale
    smin = float(np.linalg.svd(pts - pts.mean(axis=0), compute_uv=False).min())
    if smin <= GEOMETRY_TOL * np.sqrt(((pts[:, None] - pts) ** 2).sum(axis=2)).max():
        raise DegenerateGeometry(
            f"anchors span less than 2 dimensions (sigma_min={smin * scale:.3g})")
    return scene


def position_error(predicted: Position, actual: Position) -> float:
    """Euclidean distance between a predicted and an actual position."""
    return math.sqrt((predicted.x - actual.x) ** 2
                     + (predicted.y - actual.y) ** 2
                     + (predicted.z - actual.z) ** 2)
