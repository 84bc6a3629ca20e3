"""1-D RSSI signal conditioning.

All filters preserve the input length and leave constant signals unchanged.
Edge policies: the moving average uses a shrinking causal warm-up window,
the median filter clamps window indices to the signal range, and the
Gaussian filter renormalizes its kernel over the in-range taps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .exceptions import EmptySignal, NonPositiveSigma, ZeroWindow

KALMAN_DEFAULT_Q = 1e-4
KALMAN_FALLBACK_R = 4.0


def _as_signal(signal: Sequence[float]) -> np.ndarray:
    arr = np.asarray(signal, dtype=float)
    if arr.ndim != 1:
        raise ValueError("signal must be 1-D")
    if arr.size == 0:
        raise EmptySignal("signal is empty")
    return arr


def moving_average(signal: Sequence[float], window: int) -> np.ndarray:
    """Causal moving average of length `window`.

    output[i] is the mean of the most recent min(i+1, window) samples, so
    the warm-up region shrinks the window instead of padding.
    """
    arr = _as_signal(signal)
    n = int(window)
    if n < 1:
        raise ZeroWindow("window must be >= 1")
    csum = np.cumsum(arr)
    out = np.empty_like(arr)
    head = min(n, arr.size)
    out[:head] = csum[:head] / np.arange(1, head + 1)
    if arr.size > n:
        out[n:] = (csum[n:] - csum[:-n]) / n
    return out


def median_filter(signal: Sequence[float], half_width: int) -> np.ndarray:
    """Sliding median over [n - half_width, n + half_width].

    Window indices are clamped to the signal range (nearest-sample edge
    policy), which keeps the window length odd and every output value a
    member of its window.
    """
    arr = _as_signal(signal)
    t = int(half_width)
    if t < 0:
        raise ValueError("half_width must be >= 0")
    idx = np.arange(arr.size)[:, None] + np.arange(-t, t + 1)[None, :]
    np.clip(idx, 0, arr.size - 1, out=idx)
    return np.median(arr[idx], axis=1)


def gaussian_kernel(sigma: float, radius: Optional[int] = None) -> np.ndarray:
    """Discrete Gaussian kernel exp(-k^2 / 2 sigma^2), normalized to sum 1.

    Truncated at ceil(3*sigma) taps each side unless a radius is given.
    """
    if sigma <= 0:
        raise NonPositiveSigma("sigma must be > 0")
    if radius is None:
        radius = math.ceil(3.0 * sigma)
    k = np.arange(-radius, radius + 1, dtype=float)
    kernel = np.exp(-(k ** 2) / (2.0 * sigma ** 2))
    return kernel / kernel.sum()


def gaussian_filter(signal: Sequence[float], sigma: float) -> np.ndarray:
    """Convolve with a discrete Gaussian, renormalizing at the boundaries.

    Near the edges the kernel is renormalized over the taps that fall
    inside the signal, so constants pass through unchanged everywhere.
    """
    arr = _as_signal(signal)
    kernel = gaussian_kernel(sigma)
    # Full convolution cut to the signal's span: mode="same" returns
    # max(len(arr), len(kernel)) samples when the kernel is the longer one.
    span = slice(len(kernel) // 2, len(kernel) // 2 + arr.size)
    return np.convolve(arr, kernel)[span] / np.convolve(np.ones_like(arr), kernel)[span]


@dataclass(frozen=True)
class KalmanState:
    """Scalar Kalman filter state for an RSSI stream.

    x_hat is the current estimate (dBm), p its error variance, q the
    process-noise variance, and r the measurement-noise variance. q and r
    must not both be zero.
    """

    x_hat: float
    p: float
    q: float
    r: float

    def __post_init__(self):
        if self.p < 0 or self.q < 0 or self.r < 0:
            raise ValueError("variances must be >= 0")
        if self.q == 0 and self.r == 0:
            raise ValueError("q and r cannot both be zero")


def kalman_step(state: KalmanState, z: float) -> KalmanState:
    """One predict-update cycle with identity state and measurement maps.

    p' = p + q, K = p' / (p' + r), then the estimate moves by K times the
    innovation and the variance contracts to (1 - K) * p', computed as
    p' * r / (p' + r) to stay exact under a diffuse prior.
    """
    p_pred = state.p + state.q
    gain = p_pred / (p_pred + state.r)
    x_hat = state.x_hat + gain * (z - state.x_hat)
    return replace(state, x_hat=x_hat, p=p_pred * state.r / (p_pred + state.r))


def kalman_filter(signal: Sequence[float], q: float = KALMAN_DEFAULT_Q,
                  r: Optional[float] = None, x0: Optional[float] = None,
                  p0: float = 1.0) -> np.ndarray:
    """Filter a whole RSSI sequence with the scalar Kalman filter.

    Defaults: x0 is the first sample and r is the sample variance of the
    first 10 measurements, falling back to 4.0 when that variance is not
    usable (fewer than two samples, or zero).
    """
    arr = _as_signal(signal)
    if r is None:
        head = arr[:10]
        r = float(np.var(head, ddof=1)) if head.size >= 2 else 0.0
        if r <= 0.0:
            r = KALMAN_FALLBACK_R
    state = KalmanState(x_hat=arr[0] if x0 is None else x0, p=p0, q=q, r=r)
    out = np.empty_like(arr)
    for i, z in enumerate(arr):
        state = kalman_step(state, z)
        out[i] = state.x_hat
    return out
