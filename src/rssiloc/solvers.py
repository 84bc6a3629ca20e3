"""Closed-form position estimators.

Implements sphere-intersection trilateration, the pseudo-linear least
squares family (plain, weighted, and bias-compensated), and the hyperbolic
estimator built on squared-distance differences against the first anchor.

Each solver takes distances (M,) for one fix or (N, M) for N fixes against
the same anchors, and returns one or N results. Anchor checks run once per
call; row checks run over the whole stack and raise if any row fails.

The pseudo-linear family subtracts the centroid circle equation from each
anchor's circle equation, giving the linear system 2*A*s = b with centered
design matrix A. The weight matrix W = P*Cov(b1)*P (P the centering
projector) is structurally rank deficient, so every "inverse" of W here is
a Moore-Penrose pseudo-inverse with a relative eigenvalue cutoff.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Tuple

import numpy as np

from .exceptions import (CollinearAnchors, DegenerateWeightsWarning,
                         NoIntersection, NonPositiveDistance,
                         NotPositiveDefinite, RankDeficient, TooFewAnchors)
from .radio import shadowing_scale

SOLVER_NAMES = ("trilateration", "lls", "wls", "wls-bc",
                "hyperbolic", "hyperbolic-w")

# Relative eigenvalue cutoff for pseudo-inverting weight matrices.
WEIGHT_PINV_CUTOFF = 1e-10

# Relative floor below which hyperbolic covariance entries are unusable.
HYPERBOLIC_VAR_FLOOR = 1e-12


@dataclass(frozen=True)
class LinearSystem:
    """Centered linear system A*s = b/2 built from circle differences.

    design rows are (x_i - x_c, y_i - y_c); rhs entries are
    d_c - d_i^2 + k_i - k_c with k_i = x_i^2 + y_i^2, where (x_c, y_c) is
    the anchor centroid and d_c and k_c are the means of d_i^2 and k_i.
    A (N, M) rhs shares the one design; its d_c is then (N,).
    """

    design: np.ndarray
    rhs: np.ndarray

    def __post_init__(self):
        col_sums = np.abs(self.design.sum(axis=0))
        scale = max(np.abs(self.design).max(), 1.0)
        if col_sums.max() > 1e-9 * scale * len(self.design):
            raise ValueError("design matrix is not centered")
        if not np.all(np.isfinite(self.rhs)):
            raise ValueError("non-finite rhs entries")


@dataclass(frozen=True)
class WeightModel:
    """Symmetric PSD weight matrix (M, M), or a (N, M, M) stack checked
    matrix by matrix; pseudo-inverted with the WEIGHT_PINV_CUTOFF cutoff."""

    w: np.ndarray

    def __post_init__(self):
        w, w_t = self.w, self.w.swapaxes(-1, -2)
        scale = np.abs(w).max(axis=(-2, -1))
        if (np.abs(w - w_t).max(axis=(-2, -1)) > 1e-12 * scale).any():
            raise ValueError("weight matrix must be symmetric")
        eigs = np.linalg.eigvalsh((w + w_t) / 2.0)  # ascending
        if eigs.size and (eigs[..., 0] < -1e-12 * np.maximum(eigs[..., -1], 0.0)).any():
            raise ValueError("weight matrix must be positive semidefinite")

    @cached_property  # the bias terms and the solve both need it
    def _inverse(self) -> Tuple[np.ndarray, np.ndarray]:
        """Pseudo-inverse of each W (the identity where W is zero), and where."""
        degenerate = ~(self.w != 0.0).any(axis=(-2, -1))
        w_inv = np.linalg.pinv(self.w, rcond=WEIGHT_PINV_CUTOFF, hermitian=True)
        w_inv[degenerate] = np.eye(self.w.shape[-1])
        return w_inv, degenerate


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


def trilaterate(anchors, radii, clamp_to_plane: bool = False) -> np.ndarray:
    """Intersect three spheres; returns the two candidate points (2, 3),
    or (N, 2, 3) for (N, 3) radii.

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
    pts = np.asarray(anchors, dtype=float)
    if pts.shape[1] == 2:
        pts = np.hstack([pts, np.zeros((len(pts), 1))])
    pts = pts[:3]
    r = np.asarray(radii, dtype=float)[..., :3]
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
    """Build the centered pseudo-linear system from anchors and ranges."""
    pts = np.asarray(anchors, dtype=float)
    d = np.asarray(distances, dtype=float)
    m = len(pts)
    if m < 3:
        raise TooFewAnchors(f"need at least 3 anchors, got {m}")
    if np.shape(d)[-1:] != (m,):
        raise ValueError("distances length must match anchor count")
    centroid = pts.mean(axis=0)
    k = (pts ** 2).sum(axis=1)
    k_c = k.mean()
    d2 = d ** 2
    d_c = d2.mean(axis=-1)
    design = pts - centroid
    rhs = d_c[..., None] - d2 + k - k_c
    return LinearSystem(design=design, rhs=rhs)


def _require_full_rank(design: np.ndarray):
    if np.linalg.matrix_rank(design) < 2:
        raise RankDeficient("anchors are collinear; design matrix rank < 2")


def lls_solve(sys: LinearSystem) -> np.ndarray:
    """Ordinary least squares minimizer of ||b - 2*A*s||^2, one per rhs row."""
    _require_full_rank(sys.design)
    sol, *_ = np.linalg.lstsq(2.0 * sys.design, sys.rhs.T, rcond=None)
    return sol.T


def build_weights(anchors, distances, sigmas_a, sigmas_p, eta: float) -> WeightModel:
    """Covariance-based weight matrix for the pseudo-linear system.

    Per-anchor rhs variance is Var(k_i) + Var(d_i^2) with
    Var(k_i) = 4*sigma_a^2*(sigma_a^2 + x_i^2 + y_i^2) and the lognormal
    Var(d_i^2) = d_i^4 * (exp(8*sb^2) - exp(4*sb^2)), sb the shadowing std
    scaled by ln(10)/(10*eta). The centering projector is applied on both
    sides. Noisy anchor coordinates and noisy distances are the inputs
    here; the true values are not available to an estimator.
    """
    pts = np.asarray(anchors, dtype=float)
    d = np.asarray(distances, dtype=float)
    if np.any(d <= 0):
        raise NonPositiveDistance("distances must be > 0")
    if eta <= 0:
        raise ValueError("eta must be > 0")
    m = len(pts)
    sa = np.broadcast_to(np.asarray(sigmas_a, dtype=float), (m,))
    sp = np.broadcast_to(np.asarray(sigmas_p, dtype=float), (m,))
    var_k = 4.0 * sa ** 2 * (sa ** 2 + (pts ** 2).sum(axis=1))
    sb2 = shadowing_scale(sp, eta) ** 2
    var_d2 = np.exp(4.0 * np.log(d)) * (np.exp(8.0 * sb2) - np.exp(4.0 * sb2))
    proj = np.eye(m) - np.full((m, m), 1.0 / m)
    w = proj @ ((var_k + var_d2)[..., None] * np.eye(m)) @ proj
    return WeightModel(w=(w + w.swapaxes(-1, -2)) / 2.0)


def _weighted_normal(sys: LinearSystem, weights: WeightModel):
    """A^T W+ and A^T W+ A, warning once per row whose W is numerically zero."""
    _require_full_rank(sys.design)
    w_inv, degenerate = weights._inverse
    for _ in range(np.count_nonzero(degenerate)):
        warnings.warn("weight matrix is numerically zero; using ordinary LS",
                      DegenerateWeightsWarning, stacklevel=3)
    aw = sys.design.T @ w_inv
    return aw, aw @ sys.design


def _positive_definite(normal: np.ndarray) -> np.ndarray:
    """Whether LAPACK's Cholesky (potrf, lower triangle) succeeds on each
    2x2 matrix of a stack, computed with potrf's own arithmetic."""
    a11, a21, a22 = normal[..., 0, 0], normal[..., 1, 0], normal[..., 1, 1]
    with np.errstate(all="ignore"):
        l21 = a21 * (1.0 / np.sqrt(a11))
        return (a11 > 0.0) & (a22 - l21 * l21 > 0.0)


def wls_solve(sys: LinearSystem, weights: WeightModel) -> np.ndarray:
    """Weighted least squares with pseudo-inverted weight matrix.

    A numerically zero W degrades gracefully: the solver emits
    DegenerateWeightsWarning (once per such row) and returns the ordinary
    LS estimate.
    """
    aw, normal = _weighted_normal(sys, weights)
    if (np.linalg.matrix_rank(normal) < 2).any():
        raise RankDeficient("weighted normal matrix is singular")
    return 0.5 * np.linalg.solve(normal, aw @ sys.rhs[..., None])[..., 0]


def build_bias_terms(anchors, distances, sigmas_a, sigmas_p, eta: float,
                     weights: WeightModel) -> BiasTerms:
    """Expected bias of the weighted pseudo-linear estimator.

    Uses the consolidated exact expectations: with Q = P W+ P,
    L = diag(sum_i Q_ii sa_i^2) per coordinate and
    g = 2 * (sum_i Q_ii x_i sa_i^2, sum_i Q_ii y_i sa_i^2). The rhs bias is
    t_i = -c_i d_i^2 + mean_j(c_j d_j^2) + 2*(sa_i^2 - mean sa^2) with
    c_i = u^2 sp_i^2 + u^4 sp_i^4 / 2 from the second-order expansion of
    the lognormal mean of d_i^2.
    """
    pts = np.asarray(anchors, dtype=float)
    d = np.asarray(distances, dtype=float)
    m = len(pts)
    sa = np.broadcast_to(np.asarray(sigmas_a, dtype=float), (m,))
    sp = np.broadcast_to(np.asarray(sigmas_p, dtype=float), (m,))
    u = math.log(10.0) / (5.0 * math.sqrt(2.0) * eta)

    w_inv, _ = weights._inverse
    proj = np.eye(m) - np.full((m, m), 1.0 / m)
    q_diag = np.diagonal(proj @ w_inv @ proj, axis1=-2, axis2=-1)

    var_a = sa ** 2
    l_diag = (q_diag * var_a).sum(axis=-1)
    big_l = l_diag[..., None, None] * np.eye(2)

    c = u ** 2 * sp ** 2 + 0.5 * u ** 4 * sp ** 4
    cd2 = c * d ** 2
    t = -cd2 + cd2.mean(axis=-1, keepdims=True) + 2.0 * (var_a - var_a.mean())

    g = 2.0 * np.array([(q_diag * pts[:, 0] * var_a).sum(axis=-1),
                        (q_diag * pts[:, 1] * var_a).sum(axis=-1)]).T
    return BiasTerms(L=big_l, t=t, g=g, u=u)


def bias_compensated_solve(sys: LinearSystem, weights: WeightModel,
                           bias: BiasTerms,
                           include_cross_term: bool = False) -> np.ndarray:
    """Weighted LS with the expected bias terms subtracted.

    Solves (A^T W+ A - L) s = (A^T W+ (b - t) [- g]) / 2. The cross term g
    is off by default, matching the closed form actually used; enabling it
    additionally removes the design/rhs noise correlation.

    Raises:
        NotPositiveDefinite: the compensated normal matrix of some row lost
            positive definiteness, meaning the correction exceeds the
            information available; callers should fall back to wls_solve
            on the exception's rows. Its estimate holds the other rows.
    """
    aw, normal = _weighted_normal(sys, weights)
    normal = normal - bias.L
    rhs = (aw @ (sys.rhs - bias.t)[..., None])[..., 0]
    if include_cross_term:
        rhs = rhs - bias.g
    ok = _positive_definite(normal)
    est = np.full(rhs.shape, np.nan)
    est[ok] = 0.5 * np.linalg.solve(normal[ok], rhs[ok][..., None])[..., 0]
    if not ok.all():
        raise NotPositiveDefinite(
            "bias correction exceeds information in the weighted system",
            rows=~ok, estimate=est)
    return est


def hyperbolic_solve(anchors, distances, sigma: float = 0.0, eta: float = 2.0,
                     weighted: bool = False) -> np.ndarray:
    """Squared-distance-difference estimator anchored at the first beacon.

    Rows n = 2..M of the system are [2*a_n, 2*b_n] * s =
    a_n^2 + b_n^2 - d_n^2 + d_1^2 in the frame translated so the first
    anchor sits at the origin. The weighted variant uses the rhs covariance
    R = Var(d_1^2) * ones + diag(Var(d_n^2)) with lognormal variances; in a
    row whose variances are degenerate (sigma = 0 or wildly unbalanced) R
    falls back to the identity, which reproduces the unweighted solution.
    """
    pts = np.asarray(anchors, dtype=float)
    d = np.asarray(distances, dtype=float)
    m = len(pts)
    if m < 3:
        raise TooFewAnchors(f"need at least 3 anchors, got {m}")
    origin = pts[0]
    rel = pts - origin
    mat = 2.0 * rel[1:]
    if np.linalg.matrix_rank(mat) < 2:
        raise RankDeficient("anchors are collinear")
    d2 = d * d
    rhs = (rel[1:] ** 2).sum(axis=1) - d2[..., 1:] + d2[..., :1]

    if not weighted:
        sol, *_ = np.linalg.lstsq(mat, rhs.T, rcond=None)
        return origin + sol.T

    if np.any(d <= 0):
        raise NonPositiveDistance("distances must be > 0")
    sb2 = shadowing_scale(sigma, eta) ** 2
    var = d ** 4 * (np.exp(8.0 * sb2) - np.exp(4.0 * sb2))
    vmax = var.max(axis=-1, keepdims=True)
    identity = ((vmax <= 0.0) | (var < HYPERBOLIC_VAR_FLOOR * vmax)).any(axis=-1)
    cov = var[..., :1, None] + var[..., 1:, None] * np.eye(m - 1)
    cov[identity] = np.eye(m - 1)
    mc = mat.T @ np.linalg.inv(cov)
    normal = mc @ mat
    if (np.linalg.matrix_rank(normal) < 2).any():
        raise RankDeficient("weighted normal matrix is singular")
    return origin + np.linalg.solve(normal, mc @ rhs[..., None])[..., 0]


def estimate_position(solver: str, anchors, distances, *, sigmas_a=0.0,
                      sigmas_p=0.0, eta: float = 2.0,
                      include_cross_term: bool = False) -> np.ndarray:
    """Dispatch a solver by name; returns a 2-D position estimate.

    distances of shape (M,) give one estimate (2,); (N, M) give N
    estimates (N, 2) from one call, each solved as its own fix.
    Trilateration uses the first three anchors in the anchor plane.
    wls-bc falls back to plain WLS on the rows whose compensated system is
    not positive definite, and only on those.
    """
    if solver not in SOLVER_NAMES:
        raise ValueError(f"unknown solver {solver!r}; expected one of {SOLVER_NAMES}")
    anchors = np.asarray(anchors, dtype=float)
    distances = np.asarray(distances, dtype=float)

    if solver == "trilateration":
        return trilaterate(anchors[:3], distances[..., :3],
                           clamp_to_plane=True)[..., 0, :2]
    if solver == "hyperbolic":
        return hyperbolic_solve(anchors, distances)
    if solver == "hyperbolic-w":
        return hyperbolic_solve(anchors, distances, sigma=float(np.mean(sigmas_p)),
                                eta=eta, weighted=True)

    system = linearize(anchors, distances)
    if solver == "lls":
        return lls_solve(system)
    weights = build_weights(anchors, distances, sigmas_a, sigmas_p, eta)
    if solver == "wls":
        return wls_solve(system, weights)
    bias = build_bias_terms(anchors, distances, sigmas_a, sigmas_p, eta, weights)
    try:
        return bias_compensated_solve(system, weights, bias,
                                      include_cross_term=include_cross_term)
    except NotPositiveDefinite as exc:
        est, bad = exc.estimate, exc.rows
    d_bad = distances[bad]
    est[bad] = wls_solve(linearize(anchors, d_bad),
                         build_weights(anchors, d_bad, sigmas_a, sigmas_p, eta))
    return est
