"""Closed-form position estimators.

Implements sphere-intersection trilateration, the pseudo-linear least
squares family (plain, weighted, and bias-compensated), and the hyperbolic
estimator built on squared-distance differences against the first anchor.

Each solver takes distances (M,) for one fix or (N, M) for N fixes against
the same anchors, and returns one or N results. Each needs 3 or more anchors
(TooFewAnchors), one distance per anchor on the last axis and, where used,
eta > 0 (ValueError); row checks run over the stack and raise if any fails.

The pseudo-linear family subtracts the centroid circle equation from each
anchor's circle equation, giving the linear system 2*A*s = b with centered
design matrix A. The weight matrix W = P*diag(var)*P (P the centering
projector, var the per-anchor rhs variances) is structurally rank
deficient; its pseudo-inverse has the closed form W+ = D^-1 - w*w^T/sum(w)
with w_i = 1/var_i (DiagonalWeights), so the weighted normal equations
are sums about the w-weighted means and no weight matrix is formed. A row
with no usable variances (one of them zero or not finite) is weighted
uniformly, W+ = P: ordinary LS. The weighted hyperbolic estimator is this
weighted LS with exact anchors: differencing against the first anchor
instead of the centroid removes the same unknown |s|^2 and leaves the
weighted estimate unchanged.

estimate_position does each piece of a call's work once: k_i, d_i^2 and
the design come from one _linearize, and the public helpers share its
internals. A locator solves against the same anchors and stds fix after
fix, so the anchor terms, rank-tested once, and the stds' noise terms are kept.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .core import _unchecked
from .exceptions import (CollinearAnchors, DegenerateWeightsWarning,
                         NoIntersection, NonPositiveDistance, NotPositiveDefinite,
                         NumericalError, RankDeficient, TooFewAnchors)
from .radio import shadowing_scale

SOLVER_NAMES = ("trilateration", "lls", "wls", "wls-bc",
                "hyperbolic", "hyperbolic-w")

COLLINEAR = "anchors are collinear; design matrix rank < 2"
_EYE2, _EPS = np.eye(2), np.finfo(float).eps


# 1 - I of size m, read-only: the j != i mask of q_diag's sums
_off_diagonal = lru_cache(maxsize=64)(lambda m: np.broadcast_to(1.0 - np.eye(m), (m, m)))


@dataclass(frozen=True)
class LinearSystem:
    """Centered linear system A*s = b/2 built from circle differences.

    design rows are (x_i - x_c, y_i - y_c); rhs entries are
    d_c - d_i^2 + k_i - k_c with k_i = x_i^2 + y_i^2, where (x_c, y_c) is
    the anchor centroid and d_c and k_c are the means of d_i^2 and k_i.
    A (N, M) rhs shares the one design; its d_c is then (N,). The design is
    centered and of rank 2, checked at construction (ValueError, or
    RankDeficient); linearize's systems of one anchor set share one.
    """

    design: np.ndarray
    rhs: np.ndarray

    def __post_init__(self):
        _require_centered(self.design)
        _require_finite(self.rhs)
        _require_rank_2(self.design, COLLINEAR)


def _require_centered(design: np.ndarray):
    col_sums = np.abs(np.add.reduce(design, axis=0))
    scale = max(np.maximum.reduce(np.abs(design), axis=None), 1.0)
    if np.maximum.reduce(col_sums) > 1e-9 * scale * len(design):
        raise ValueError("design matrix is not centered")


def _require_finite(rhs: np.ndarray, error=ValueError):
    if not np.logical_and.reduce(np.isfinite(rhs), axis=None):
        raise error("non-finite rhs entries")


@dataclass(frozen=True)
class DiagonalWeights:
    """W = P*diag(var)*P held as w_i = 1/var_i, (M,) or (N, M):
    W+ = D^-1 - w*w^T/sum(w), formed by no pseudo-inverse. A row whose w
    are not all positive with a finite sum has no usable variances; it is
    weighted uniformly (W+ = P, ordinary LS) and marked in unweighted. Sums
    run over the anchor axis alone, so a row's bits do not depend on the
    batch."""

    w: np.ndarray
    unweighted: np.ndarray = field(init=False)

    def __post_init__(self):
        w = np.asarray(self.w, dtype=float)
        unweighted = ~((w > 0.0).all(axis=-1) & (np.add.reduce(w, axis=-1) < np.inf))
        object.__setattr__(self, "w", np.where(unweighted[..., None], 1.0, w))
        object.__setattr__(self, "unweighted", unweighted)
        object.__setattr__(self, "_total", np.add.reduce(self.w, axis=-1, keepdims=True))

    def normal_equations(self, design, rhs):
        """A^T W+ A and A^T W+ rhs as sum_i w_i (a_i - a_w)(a_i - a_w)^T and
        sum_i w_i (a_i - a_w)(b_i - b_w), a_w and b_w the w-weighted means:
        accurate for any spread of the weights. Warns once per unweighted
        row."""
        for _ in range(np.count_nonzero(self.unweighted)):
            warnings.warn("no usable rhs variances; using ordinary LS",
                          DegenerateWeightsWarning, stacklevel=3)
        w = self.w[..., None, :]
        v = np.empty(np.broadcast(self.w[..., 0], rhs[..., 0]).shape + (3, len(design)))
        v[..., :2, :], v[..., 2, :] = design.T, rhs  # rows a_x, a_y, b
        v -= np.add.reduce(w * v, axis=-1, keepdims=True) / self._total[..., None]
        s = np.add.reduce((w * v[..., :2, :])[..., None, :] * v[..., None, :, :], axis=-1)
        return s[..., :2], s[..., 2]

    def q_diag(self) -> np.ndarray:
        """diag(P W+ P) = w_i * sum_{j != i} w_j / sum(w). The sum over j != i
        is taken directly: sum(w) - w_i cancels when w_i dominates."""
        others = np.add.reduce(self.w[..., None, :] * _off_diagonal(self.w.shape[-1]), axis=-1)
        return self.w * others / self._total


@dataclass(frozen=True)
class BiasTerms:
    """Expected bias contributions of the noisy pseudo-linear system.

    L is the design-noise term E[N^T W+ N], t the non-additive distance
    bias E[b] - b, and g the design/rhs cross term E[N^T W+ b]. u is the
    lognormal exponent constant ln(10) / (5*sqrt(2)*eta). All terms vanish
    when both noise sources are zero. N rows stack L, t and g on axis 0.
    """

    L: np.ndarray
    t: np.ndarray
    g: np.ndarray
    u: float


def _ranging_inputs(anchors, distances) -> tuple:
    """anchors and distances as float arrays: TooFewAnchors below 3 anchors,
    ValueError unless the last axis holds one distance per anchor."""
    pts, d = np.asarray(anchors, dtype=float), np.asarray(distances, dtype=float)
    if len(pts) < 3:
        raise TooFewAnchors(f"need at least 3 anchors, got {len(pts)}")
    if d.shape[-1:] != (len(pts),):
        raise ValueError("distances length must match anchor count")
    return pts, d


def trilaterate(anchors, radii, clamp_to_plane: bool = False) -> np.ndarray:
    """Intersect the spheres of the first three anchors; returns the two
    candidate points (2, 3) for radii (M,), or (N, 2, 3) for (N, M).

    Works in the canonical frame (first anchor at the origin, second on
    the +x axis, third in the xy-plane) and maps the two mirror-image
    solutions back to world coordinates. The candidates coincide when the
    target lies in the anchor plane.

    clamp_to_plane=True turns an inconsistent out-of-plane residual into a
    planar solution instead of an error, which is what noisy 2-D ranging
    needs.

    Raises:
        CollinearAnchors: the anchors do not define a plane.
        NoIntersection: the spheres miss each other beyond tolerance (only
            when clamp_to_plane is off).
    """
    pts, r = _ranging_inputs(anchors, radii)
    if pts.shape[1] == 2:
        pts = np.hstack([pts, np.zeros((len(pts), 1))])
    pts, r = pts[:3], r[..., :3]
    if np.any(r < 0):
        raise ValueError("radii must be >= 0")

    v2 = pts[1] - pts[0]
    v3 = pts[2] - pts[0]
    x2 = np.linalg.norm(v2)
    scale = max(x2, np.linalg.norm(v3))
    if x2 <= 1e-12 * scale or scale == 0.0:
        raise CollinearAnchors("first two anchors coincide")
    ex = v2 / x2
    x3 = v3 @ ex
    ey_raw = v3 - x3 * ex
    y3 = np.linalg.norm(ey_raw)
    if y3 <= 1e-9 * scale:
        raise CollinearAnchors("anchors are collinear")
    ey = ey_raw / y3
    ez = np.cross(ex, ey)

    r2 = r * r  # products, not scalar pow: one row and a batch round alike
    x = (r2[..., 0] - r2[..., 1] + x2 ** 2) / (2.0 * x2)
    y = (r2[..., 0] - r2[..., 2] + x3 ** 2 + y3 ** 2 - 2.0 * x3 * x) / (2.0 * y3)
    zz = r2[..., 0] - x * x - y * y
    # Relative tolerance in r1 plus an absolute floor tied to the anchor
    # scale, so exact-geometry cases survive rounding even when r1 = 0.
    tol = 1e-9 * r2[..., 0] + 1e-12 * scale ** 2
    if not clamp_to_plane and (zz < -tol).any():
        raise NoIntersection(f"spheres do not intersect (deficit {np.min(zz):.3g})")
    z = np.sqrt(np.maximum(zz, 0.0))[..., None]

    base = pts[0] + x[..., None] * ex + y[..., None] * ey
    return np.stack([base + z * ez, base - z * ez], axis=-2)


def linearize(anchors, distances) -> LinearSystem:
    """Build the centered pseudo-linear system from anchors and ranges;
    RankDeficient for collinear anchors, NumericalError for a non-finite rhs."""
    return _linearize(*_ranging_inputs(anchors, distances))[0]


def _linearize(pts: np.ndarray, d: np.ndarray):
    """(system, k, d2): the centered system and the k_i and d_i^2 it is
    built from, which the weights and the bias terms reuse."""
    m = len(pts)
    design, k, k_c = _anchor_terms(pts.shape, pts.tobytes())
    d2 = d ** 2
    d_c = np.add.reduce(d2, axis=-1) / m  # sum / m is np.mean's own arithmetic
    rhs = d_c[..., None] - d2 + k - k_c
    _require_finite(rhs, NumericalError)
    return _unchecked(LinearSystem, {"design": design, "rhs": rhs}), k, d2


@lru_cache(maxsize=256)  # an 8-anchor scene has 219 subsets of 3 or more anchors
def _anchor_terms(shape: tuple, raw: bytes) -> tuple:
    """(design, k, k_c) of the anchors with these float64 bytes, read-only:
    the centroid-centered design, checked centered and of rank 2,
    k_i = x_i^2 + y_i^2 and their mean."""
    pts = np.frombuffer(raw).reshape(shape)
    m = len(pts)
    centroid = np.add.reduce(pts, axis=0) / m
    k = np.add.reduce(pts ** 2, axis=1)
    design = pts - centroid
    _require_centered(design)
    _require_rank_2(design, COLLINEAR)
    design.flags.writeable = k.flags.writeable = False
    return design, k, np.add.reduce(k) / m


def _require_rank_2(mat: np.ndarray, message: str):
    """RankDeficient(message) if np.linalg.matrix_rank of a (.., K, 2)
    matrix is below 2, with its tolerance on the singular values."""
    s = np.linalg.svd(mat, compute_uv=False)
    if (s[..., 1] <= s[..., 0] * max(mat.shape[-2:]) * _EPS).any():
        raise RankDeficient(message)


def _apply_pinv(mat: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """pinv(mat) @ rhs for each rhs row, as products summed over the anchor
    axis: unlike a many-column lstsq, a row gives the same bits in any
    batch."""
    return np.stack([(p * rhs).sum(axis=-1) for p in np.linalg.pinv(mat)], axis=-1)


def lls_solve(sys: LinearSystem) -> np.ndarray:
    """Ordinary least squares minimizer of ||b - 2*A*s||^2, one per rhs row."""
    return _apply_pinv(2.0 * sys.design, sys.rhs)


@lru_cache(maxsize=64)
def _noise_terms(m: int, sigmas_a, sigmas_p, eta: float) -> tuple:
    """(sigma_a^2, 4*sigma_a^2, exp(8*sb^2) - exp(4*sb^2), c, 2*(sigma_a^2 -
    mean sigma_a^2), u): the terms of build_weights and build_bias_terms
    that depend on the stds and eta alone, read-only (M,) arrays and u."""
    if not eta > 0:
        raise ValueError("eta must be > 0")
    u = math.log(10.0) / (5.0 * math.sqrt(2.0) * eta)
    var_a = np.full(m, sigmas_a, dtype=float) ** 2
    sp = np.full(m, sigmas_p, dtype=float)
    sb2 = shadowing_scale(sp, eta) ** 2
    terms = (var_a, 4.0 * var_a, np.exp(8.0 * sb2) - np.exp(4.0 * sb2),
             u ** 2 * sp ** 2 + 0.5 * u ** 4 * sp ** 4, 2.0 * (var_a - np.add.reduce(var_a) / m))
    for a in terms:
        a.flags.writeable = False
    return terms + (u,)


def _key(std, m: int) -> tuple:
    """A std argument as a _noise_terms cache key: a tuple of 1 or m floats."""
    key = tuple(np.ravel(std).tolist())
    if len(key) not in (1, m):
        raise ValueError(f"got {len(key)} stds for {m} anchors; give 1 or {m}")
    return key


def _rhs_variance(k: np.ndarray, d: np.ndarray, noise: tuple) -> np.ndarray:
    """Var(k_i) + Var(d_i^2) per anchor (see build_weights), from
    k_i = x_i^2 + y_i^2 and the _noise_terms."""
    if (d <= 0).any():
        raise NonPositiveDistance("distances must be > 0")
    var_a, four_var_a, spread = noise[:3]
    return four_var_a * (var_a + k) + np.exp(4.0 * np.log(d)) * spread


def _weights(var: np.ndarray) -> DiagonalWeights:
    with np.errstate(divide="ignore", over="ignore"):
        return DiagonalWeights(1.0 / var)


def build_weights(anchors, distances, sigmas_a, sigmas_p, eta: float) -> DiagonalWeights:
    """Diagonal weights w_i = 1/var_i of the pseudo-linear system.

    Per-anchor rhs variance is Var(k_i) + Var(d_i^2) with
    Var(k_i) = 4*sigma_a^2*(sigma_a^2 + x_i^2 + y_i^2) and the lognormal
    Var(d_i^2) = d_i^4 * (exp(8*sb^2) - exp(4*sb^2)), sb the shadowing std
    scaled by ln(10)/(10*eta). Noisy anchor coordinates and noisy distances
    are the inputs here; the true values are not available to an estimator.
    A row with a zero variance (no noise, or d^4 underflow) or a
    non-finite one is left unweighted.
    """
    pts, d = _ranging_inputs(anchors, distances)
    m = len(pts)
    noise = _noise_terms(m, _key(sigmas_a, m), _key(sigmas_p, m), eta)
    return _weights(_rhs_variance(np.add.reduce(pts ** 2, axis=1), d, noise))


def _positive_definite(normal: np.ndarray) -> np.ndarray:
    """Whether LAPACK's Cholesky (potrf, lower triangle) succeeds on each
    2x2 matrix of a stack, computed with potrf's own arithmetic."""
    a11, a21, a22 = normal[..., 0, 0], normal[..., 1, 0], normal[..., 1, 1]
    with np.errstate(all="ignore"):
        l21 = a21 * (1.0 / np.sqrt(a11))
        return (a11 > 0.0) & (a22 - l21 * l21 > 0.0)


def wls_solve(sys: LinearSystem, weights: DiagonalWeights) -> np.ndarray:
    """Minimizer of (b - 2*A*s)^T W+ (b - 2*A*s), one per rhs row.

    A row without usable variances degrades gracefully: the solver emits
    DegenerateWeightsWarning (once per such row) and returns the ordinary
    LS estimate; a singular weighted normal matrix raises RankDeficient.
    """
    normal, rhs = weights.normal_equations(sys.design, sys.rhs)
    _require_rank_2(normal, "weighted normal matrix is singular")
    return 0.5 * np.linalg.solve(normal, rhs[..., None])[..., 0]


def build_bias_terms(anchors, distances, sigmas_a, sigmas_p, eta: float,
                     weights) -> BiasTerms:
    """Expected bias of the weighted pseudo-linear estimator.

    Uses the consolidated exact expectations: with Q = P W+ P,
    L = diag(sum_i Q_ii sa_i^2) per coordinate and
    g = 2 * (sum_i Q_ii x_i sa_i^2, sum_i Q_ii y_i sa_i^2). The rhs bias is
    t_i = -c_i d_i^2 + mean_j(c_j d_j^2) + 2*(sa_i^2 - mean sa^2) with
    c_i = u^2 sp_i^2 + u^4 sp_i^4 / 2 from the second-order expansion of
    the lognormal mean of d_i^2.
    """
    pts, d = _ranging_inputs(anchors, distances)
    m = len(pts)
    return _bias_terms(pts, d ** 2, _noise_terms(m, _key(sigmas_a, m), _key(sigmas_p, m), eta),
                       weights, True)


def _bias_terms(pts: np.ndarray, d2: np.ndarray, noise: tuple,
                weights: DiagonalWeights, cross: bool) -> BiasTerms:
    """build_bias_terms from d_i^2 and the _noise_terms; g is None unless
    cross, for a solve without the cross term."""
    var_a, _, _, c, t0, u = noise
    q_diag = weights.q_diag()
    big_l = np.add.reduce(q_diag * var_a, axis=-1)[..., None, None] * _EYE2
    cd2 = c * d2
    t = -cd2 + np.add.reduce(cd2, axis=-1, keepdims=True) / len(pts) + t0
    g = 2.0 * np.add.reduce(q_diag[..., None, :] * pts.T * var_a, axis=-1) if cross else None
    return BiasTerms(L=big_l, t=t, g=g, u=u)


def bias_compensated_solve(sys: LinearSystem, weights, bias: BiasTerms,
                           include_cross_term: bool = False) -> np.ndarray:
    """Weighted LS with the expected bias terms subtracted.

    Solves (A^T W+ A - L) s = (A^T W+ (b - t) [- g]) / 2. The cross term g
    is off by default, matching the closed form actually used; enabling it
    additionally removes the design/rhs noise correlation.

    Raises:
        NotPositiveDefinite: the compensated normal matrix of some row lost
            positive definiteness, meaning the correction exceeds the
            information available. estimate_position("wls-bc") solves such
            rows by wls_solve instead.
    """
    est, ok = _bias_compensated(sys, weights, bias, include_cross_term)
    if not ok.all():
        raise NotPositiveDefinite("bias correction exceeds information in the weighted system")
    return est


def _bias_compensated(sys: LinearSystem, weights, bias: BiasTerms, include_cross_term: bool):
    """bias_compensated_solve's estimate, NaN on the rows whose compensated
    normal matrix is not positive definite, and the mask ok of the others."""
    normal, rhs = weights.normal_equations(sys.design, sys.rhs - bias.t)
    normal = normal - bias.L
    if include_cross_term:
        rhs = rhs - bias.g
    ok = _positive_definite(normal)
    normal[~ok] = _EYE2  # the others solve the identity, then read NaN
    est = np.linalg.solve(normal, rhs[..., None])[..., 0]
    return np.where(ok[..., None], 0.5 * est, np.nan), ok


def hyperbolic_solve(anchors, distances) -> np.ndarray:
    """Squared-distance-difference estimator anchored at the first beacon.

    Rows n = 2..M of the system are [2*a_n, 2*b_n] * s =
    a_n^2 + b_n^2 - d_n^2 + d_1^2 in the frame translated so the first
    anchor sits at the origin, solved by ordinary least squares. Weighting
    these rows by their lognormal covariance gives the wls estimate with
    exact anchors, which estimate_position computes as hyperbolic-w.
    """
    pts, d = _ranging_inputs(anchors, distances)
    rel = pts - pts[0]
    mat = 2.0 * rel[1:]
    _require_rank_2(mat, "anchors are collinear")
    d2 = d * d
    rhs = (rel[1:] ** 2).sum(axis=1) - d2[..., 1:] + d2[..., :1]
    return pts[0] + _apply_pinv(mat, rhs)


def estimate_position(solver: str, anchors, distances, *, sigmas_a=0.0,
                      sigmas_p=0.0, eta: float = 2.0,
                      include_cross_term: bool = False) -> np.ndarray:
    """Dispatch a solver by name; returns a 2-D position estimate.

    distances of shape (M,) give one estimate (2,); (N, M) give N
    estimates (N, 2) from one call, each solved as its own fix. sigmas_a and
    sigmas_p each give one std or one per anchor; other counts raise ValueError.
    Trilateration uses the first three anchors in the anchor plane.
    wls and wls-bc weight each row by its diagonal rhs variances in closed
    form (build_weights); a row without usable variances is solved
    unweighted and warns once. hyperbolic-w is wls with exact anchors
    (sigma_a = 0) and sigma_p = mean(sigmas_p), the weighted form of the
    hyperbolic system; at sigma_p = 0 it is the unweighted hyperbolic
    solve. wls-bc falls back to plain WLS on the rows whose compensated
    system is not positive definite, and only on those.
    """
    if solver not in SOLVER_NAMES:
        raise ValueError(f"unknown solver {solver!r}; expected one of {SOLVER_NAMES}")
    anchors, distances = _ranging_inputs(anchors, distances)
    m = len(anchors)
    if solver == "trilateration":
        return trilaterate(anchors, distances, clamp_to_plane=True)[..., 0, :2]
    if solver == "hyperbolic":
        return hyperbolic_solve(anchors, distances)
    if solver == "hyperbolic-w":
        sigmas_a, sigmas_p = 0.0, float(np.mean(_key(sigmas_p, m)))

    system, k, d2 = _linearize(anchors, distances)
    if solver == "lls":
        return lls_solve(system)
    noise = _noise_terms(m, _key(sigmas_a, m), _key(sigmas_p, m), eta)
    weights = _weights(_rhs_variance(k, distances, noise))
    if solver == "hyperbolic-w" and sigmas_p == 0.0:  # d > 0 and eta > 0 checked
        return hyperbolic_solve(anchors, distances)
    if solver != "wls-bc":
        return wls_solve(system, weights)
    bias = _bias_terms(anchors, d2, noise, weights, include_cross_term)
    est, ok = _bias_compensated(system, weights, bias, include_cross_term)
    if not ok.all():  # those rows' weights are uniform where unweighted: no second warning
        fallback = _unchecked(LinearSystem, {"design": system.design, "rhs": system.rhs[~ok]})
        est[~ok] = wls_solve(fallback, DiagonalWeights(weights.w[~ok]))
    return est
