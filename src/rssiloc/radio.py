"""Log-distance path-loss model and synthetic measurement generation.

The mean model is RSSI(d) = p0 - 10*eta*log10(d/d0). Shadowing is additive
zero-mean Gaussian noise in dB, which makes the RSSI-derived distance a
lognormal random variable; the second-moment inflation this causes,
E[d_hat^2] = d^2 * exp(u^2 * sigma_p^2) with u = ln(10) / (5*sqrt(2)*eta),
is what the bias-compensated solver later corrects for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .core import MeasurementSet, PathLossParams, Position, Scene, validate_scene
from .exceptions import NonPositiveDistance


@dataclass(frozen=True)
class NoiseSpec:
    """Noise configuration for synthetic measurements.

    sigma_a perturbs each anchor coordinate (cm, per axis), sigma_p is the
    shadowing std (dB). The same seed with the same inputs reproduces the
    output stream bit for bit.
    """

    sigma_a: float = 0.0
    sigma_p: float = 0.0
    seed: int = 42

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
    if np.any(d <= 0):
        raise NonPositiveDistance("distance must be > 0")
    out = params.p0 - 10.0 * params.eta * np.log10(d / params.d0)
    return float(out) if out.ndim == 0 else out


def distance_from_rssi(rssi, params: PathLossParams):
    """Invert the mean model: d = d0 * 10**((p0 - rssi) / (10*eta))."""
    rssi = np.asarray(rssi, dtype=float)
    out = params.d0 * 10.0 ** ((params.p0 - rssi) / (10.0 * params.eta))
    return float(out) if out.ndim == 0 else out


def _trial_rng(seed: int, trial: int) -> np.random.Generator:
    # Counter-derived substream: independent of how many trials run before
    # this one, so trials can execute in any order or in parallel.
    return np.random.default_rng(np.random.SeedSequence(entropy=seed,
                                                        spawn_key=(trial,)))


def measure_once(scene: Scene, target: Position, params: PathLossParams,
                 noise: NoiseSpec, trial: int = 0) -> Tuple[np.ndarray, MeasurementSet]:
    """One synthetic observation of a target from every anchor.

    Returns (perturbed anchor coordinates (M,2), MeasurementSet). The RSSI
    is generated from the true anchor-target distance; the perturbed
    coordinates model the estimator's imperfect knowledge of the anchors.
    """
    rng = _trial_rng(noise.seed, trial)
    true_pos = scene.anchor_positions()
    perturbed = true_pos + rng.normal(0.0, noise.sigma_a, size=true_pos.shape)
    d_true = np.sqrt(((true_pos - target.as_array()) ** 2).sum(axis=1))
    rssi = rssi_from_distance(d_true, params)
    rssi = rssi + rng.normal(0.0, noise.sigma_p, size=rssi.shape)
    return perturbed, MeasurementSet(rssi, timestamp=trial)


def synthesize_measurements(scene: Scene, target: Position,
                            params: PathLossParams, noise: NoiseSpec,
                            trials: int) -> List[Tuple[np.ndarray, MeasurementSet]]:
    """Generate `trials` independent observations of one target.

    Each trial draws fresh anchor-coordinate noise N(0, sigma_a^2) per axis
    and shadowing noise N(0, sigma_p^2) per anchor from its own RNG
    substream. Deterministic under a fixed seed.
    """
    validate_scene(scene)
    if trials < 1:
        raise ValueError("trials must be >= 1")
    return [measure_once(scene, target, params, noise, t) for t in range(trials)]
