"""Log-distance path-loss model and synthetic measurement generation.

The mean model is RSSI(d) = p0 - 10*eta*log10(d/d0). Shadowing is additive
zero-mean Gaussian noise in dB, which makes the RSSI-derived distance a
lognormal random variable; the second-moment inflation this causes,
E[d_hat^2] = d^2 * exp(u^2 * sigma_p^2) with u = ln(10) / (5*sqrt(2)*eta),
is what the bias-compensated solver later corrects for.

Trial t draws its noise from numpy's ``SeedSequence(seed, spawn_key=(t,))``,
whatever else is drawn; numpy.random loads on the first draw, not on import.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple, Union

import numpy as np

from .core import MeasurementSet, PathLossParams, Position, Scene, validate_scene
from .exceptions import NonPositiveDistance


@dataclass(frozen=True)
class NoiseSpec:
    """Noise configuration for synthetic measurements.

    sigma_a perturbs each anchor coordinate (cm, per axis), sigma_p is the
    shadowing std (dB). seed is any entropy numpy's SeedSequence accepts:
    a non-negative int of any size or a sequence of them. The same seed with
    the same inputs reproduces the output stream bit for bit.
    """

    sigma_a: float = 0.0
    sigma_p: float = 0.0
    seed: Union[int, Sequence[int]] = 42

    def __post_init__(self):
        if not (0 <= self.sigma_a < math.inf and 0 <= self.sigma_p < math.inf):
            raise ValueError("noise stds must be finite and >= 0")


def shadowing_scale(sigma_p: float, eta: float) -> float:
    """Lognormal scale of the distance estimate: sigma_p * ln(10) / (10*eta)."""
    return sigma_p * math.log(10.0) / (10.0 * eta)


def rssi_from_distance(d, params: PathLossParams):
    """Mean RSSI (dBm) at distance d. No noise is added.

    Accepts a scalar or an array; d must be > 0 and in the same unit as
    params.d0.
    """
    d = np.asarray(d, dtype=float)
    if (d <= 0).any():
        raise NonPositiveDistance("distance must be > 0")
    out = params.p0 - 10.0 * params.eta * np.log10(d / params.d0)
    return float(out) if out.ndim == 0 else out


def distance_from_rssi(rssi, params: PathLossParams):
    """Invert the mean model: d = d0 * 10**((p0 - rssi) / (10*eta))."""
    rssi = np.asarray(rssi, dtype=float)
    out = params.d0 * 10.0 ** ((params.p0 - rssi) / (10.0 * params.eta))
    return float(out) if out.ndim == 0 else out


def _trial_noise(noise: NoiseSpec, first: int, count: int,
                 m: int) -> Tuple[np.ndarray, np.ndarray]:
    """Anchor-coordinate noise (count, m, 2) and shadowing (count, m) of
    trials first .. first + count - 1. Trial t draws them in that order from
    its own substream, ``default_rng(SeedSequence(noise.seed, spawn_key=(t,)))``,
    independent of which trials run before it, so trials can run in any
    order or in parallel. A negative seed or trial raises numpy's ValueError.
    """
    offsets, shadow = np.empty((count, m, 2)), np.empty((count, m))
    for i in range(count):
        rng = np.random.default_rng(np.random.SeedSequence(noise.seed, spawn_key=(first + i,)))
        offsets[i] = rng.normal(0.0, noise.sigma_a, size=(m, 2))
        shadow[i] = rng.normal(0.0, noise.sigma_p, size=m)
    return offsets, shadow


def _mean_rssi(anchors: np.ndarray, targets: np.ndarray,
               params: PathLossParams) -> np.ndarray:
    """Noise-free RSSI (targets, M) of every target at every anchor."""
    d = np.sqrt(((anchors - targets[:, None, :]) ** 2).sum(axis=-1))
    return rssi_from_distance(d, params)


def measure_once(scene: Scene, target: Position, params: PathLossParams,
                 noise: NoiseSpec, trial: int = 0) -> Tuple[np.ndarray, MeasurementSet]:
    """One synthetic observation of a target from every anchor.

    Returns (perturbed anchor coordinates (M,2), MeasurementSet). The RSSI
    is generated from the true anchor-target distance; the perturbed
    coordinates model the estimator's imperfect knowledge of the anchors.
    """
    true_pos = scene.anchor_positions()
    offsets, shadow = _trial_noise(noise, trial, 1, len(true_pos))
    rssi = _mean_rssi(true_pos, target.as_array()[None], params)[0] + shadow[0]
    return true_pos + offsets[0], MeasurementSet(rssi, timestamp=trial)


def measure_targets(scene: Scene, targets, params: PathLossParams,
                    noise: NoiseSpec, samples: int = 1) -> np.ndarray:
    """RSSI rows (len(targets) * samples, M): each target observed `samples`
    times in a row, row t bit for bit the RSSI of ``measure_once(...,
    trial=t)``. The geometry is computed once for all rows; each row draws
    its noise from its own trial substream.
    """
    true_pos = scene.anchor_positions()
    xy = np.asarray(targets, dtype=float).reshape(-1, 2)
    mean = np.repeat(_mean_rssi(true_pos, xy, params), samples, axis=0)
    return mean + _trial_noise(noise, 0, len(mean), len(true_pos))[1]


def synthesize_measurements(scene: Scene, target: Position,
                            params: PathLossParams, noise: NoiseSpec,
                            trials: int) -> List[Tuple[np.ndarray, MeasurementSet]]:
    """Generate `trials` independent observations of one target.

    Each trial draws fresh anchor-coordinate noise N(0, sigma_a^2) per axis
    and shadowing noise N(0, sigma_p^2) per anchor from its own RNG
    substream; trial t equals ``measure_once(..., trial=t)``. Deterministic
    under a fixed seed.
    """
    validate_scene(scene)
    if trials < 1:
        raise ValueError("trials must be >= 1")
    true_pos = scene.anchor_positions()
    mean = _mean_rssi(true_pos, target.as_array()[None], params)[0]
    offsets, shadow = _trial_noise(noise, 0, trials, len(true_pos))
    return [(true_pos + a, MeasurementSet(mean + p, timestamp=t))
            for t, (a, p) in enumerate(zip(offsets, shadow))]
