"""1-D RSSI signal conditioning.

All filters preserve the input length and leave constant signals of any
finite level unchanged, bit for bit. Edge policies: the moving average uses
a shrinking causal warm-up window, the median filter clamps window indices
to the signal range, and the Gaussian filter renormalizes its kernel over
the in-range taps. Median half widths and Gaussian radii stop at
len(signal) - 1, past which no tap reaches the signal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core import _unchecked
from .exceptions import EmptySignal, NonPositiveSigma, NumericalError, ZeroWindow

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
    # Sums of the offsets from the first sample: a constant sums to zero.
    csum = np.cumsum(arr - arr[0])
    out = np.empty_like(arr)
    head = min(n, arr.size)
    out[:head] = csum[:head] / np.arange(1, head + 1)
    if arr.size > n:
        out[n:] = (csum[n:] - csum[:-n]) / n
    return out + arr[0]


def median_filter(signal: Sequence[float], half_width: int) -> np.ndarray:
    """Sliding median over [n - half_width, n + half_width].

    Window indices are clamped to the signal range (nearest-sample edge
    policy), which keeps the window length odd and every output value a
    member of its window. Past len(signal) - 1, each step of half width only
    adds a first and a last sample, which straddle the median.
    """
    arr = _as_signal(signal)
    t = int(half_width)
    if t < 0:
        raise ValueError("half_width must be >= 0")
    t = min(t, arr.size - 1)
    idx = np.arange(arr.size)[:, None] + np.arange(-t, t + 1)[None, :]
    np.clip(idx, 0, arr.size - 1, out=idx)
    return np.median(arr[idx], axis=1)


def gaussian_kernel(sigma: float, radius: Optional[int] = None) -> np.ndarray:
    """Discrete Gaussian kernel exp(-k^2 / 2 sigma^2), normalized to sum 1.

    Truncated at ceil(3*sigma) taps each side unless a radius is given.
    """
    if not 0 < sigma < math.inf:
        raise NonPositiveSigma("sigma must be finite and > 0")
    if radius is None:
        radius = math.ceil(3.0 * sigma)
    k = np.arange(-radius, radius + 1, dtype=float)
    with np.errstate(over="ignore"):  # sigma ** 2 = inf gives the flat kernel
        two_var = 2.0 * np.float64(sigma) ** 2
        # Below sigma ~1.5e-162, two_var underflows to 0: the limit is the identity.
        kernel = np.exp(-(k ** 2) / two_var) if two_var else (k == 0.0) * 1.0
    return kernel / kernel.sum()


def gaussian_filter(signal: Sequence[float], sigma: float) -> np.ndarray:
    """Convolve with a discrete Gaussian, renormalizing at the boundaries.

    Near the edges the kernel is renormalized over the taps that fall
    inside the signal. Each output, a weighted mean of samples, is kept in
    the signal's range, which passes constants through exactly.
    """
    arr = _as_signal(signal)
    kernel = gaussian_kernel(sigma, math.ceil(min(3.0 * sigma, arr.size - 1)))
    # Full convolution cut to the signal's span: mode="same" returns
    # max(len(arr), len(kernel)) samples when the kernel is the longer one.
    span = slice(len(kernel) // 2, len(kernel) // 2 + arr.size)
    out = np.convolve(arr, kernel)[span] / np.convolve(np.ones_like(arr), kernel)[span]
    return np.clip(out, arr.min(), arr.max())


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
        if not all(map(math.isfinite, (self.x_hat, self.p, self.q, self.r))):
            raise ValueError("Kalman state must be finite")
        if self.p < 0 or self.q < 0 or self.r < 0:
            raise ValueError("variances must be >= 0")
        if self.q == 0 and self.r == 0:
            raise ValueError("q and r cannot both be zero")


def _update(x_hat: float, p: float, q: float, r: float, z: float):
    """kalman_step's arithmetic on plain floats: the next (x_hat, p)."""
    p_pred = p + q
    gain = p_pred / (p_pred + r)
    return x_hat + gain * (z - x_hat), p_pred * r / (p_pred + r)


def kalman_step(state: KalmanState, z: float) -> KalmanState:
    """One predict-update cycle with identity state and measurement maps.

    p' = p + q, K = p' / (p' + r), then the estimate moves by K times the
    innovation and the variance contracts to (1 - K) * p', computed as
    p' * r / (p' + r) to stay exact under a diffuse prior. A next estimate or
    variance that is not finite (an overflow) raises NumericalError. The
    next state is not validated again: q and r are the checked state's, and
    p' >= 0 since p, q and r are.
    """
    x_hat, p = _update(state.x_hat, state.p, state.q, state.r, z)
    if not (math.isfinite(x_hat) and math.isfinite(p)):
        raise NumericalError("Kalman state is not finite")
    return _unchecked(KalmanState, {"x_hat": x_hat, "p": p, "q": state.q, "r": state.r})


def kalman_filter(signal: Sequence[float], q: float = KALMAN_DEFAULT_Q,
                  r: Optional[float] = None) -> np.ndarray:
    """Filter a whole RSSI sequence with the scalar Kalman filter.

    The state starts at the first sample with variance 1, and r defaults to
    the sample variance of the first 10 measurements, or 4.0 when that
    variance is not usable (fewer than two samples, zero, or overflowed).

    The state is checked once, at the start, and the output equals iterating
    kalman_step bit for bit. A non-finite estimate or final variance raises
    kalman_step's NumericalError: once x_hat or p is not finite, later x_hat are nan.
    """
    arr = _as_signal(signal)
    if r is None:
        head = arr[:10]
        with np.errstate(over="ignore", invalid="ignore"):
            r = float(np.var(head, ddof=1)) if head.size >= 2 else 0.0
        if not 0.0 < r < math.inf:
            r = KALMAN_FALLBACK_R
    state = KalmanState(x_hat=arr[0], p=1.0, q=q, r=r)
    x_hat, p, q, r = map(float, (state.x_hat, state.p, state.q, state.r))
    out = []
    for z in arr.tolist():
        x_hat, p = _update(x_hat, p, q, r, z)
        out.append(x_hat)
    est = np.array(out)
    if not (math.isfinite(p) and np.isfinite(est).all()):
        raise NumericalError("Kalman state is not finite")
    return est
