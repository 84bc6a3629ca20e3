"""Shared synthetic-data builders and exact references for the test suite."""

from fractions import Fraction

import numpy as np

import rssiloc as rl
from rssiloc import ingest


def load_all_columns(path):
    """Every column of a CSV as raw strings, in file order."""
    header, rows, _ = ingest._read_rows(path)
    return {name: [row[i] for row in rows] for i, name in enumerate(header)}


def random_scene_points(rng, m, extent=400.0, min_spread=40.0):
    """Anchor coordinates whose centered matrix is well conditioned."""
    while True:
        pts = rng.uniform(0.0, extent, (m, 2))
        centered = pts - pts.mean(axis=0)
        if np.linalg.svd(centered, compute_uv=False).min() > min_spread:
            return pts


def exact_distances(anchors, target):
    return np.sqrt(((np.asarray(anchors) - np.asarray(target)) ** 2).sum(axis=1))


def regression_testbed(seed, n=600, sigma_p=2.0, extent=400.0):
    """Synthetic testbed: RSSI from 3 anchors with shadowing, plus truth."""
    rng = np.random.default_rng(seed)
    anchors = np.array([[0.0, 0.0], [extent, 0.0], [extent / 2, extent * 0.75]])
    params = rl.PathLossParams(p0=-40.0, d0=100.0, eta=2.0, sigma_shadow=sigma_p)
    targets = rng.uniform(extent * 0.05, extent * 0.95, (n, 2))
    d = np.sqrt(((targets[:, None, :] - anchors[None, :, :]) ** 2).sum(axis=2))
    rssi = rl.rssi_from_distance(d, params) + rng.normal(0.0, sigma_p, d.shape)
    return rssi, targets, anchors, params


def beacon_dataset(seed, n=400, n_beacons=13, n_zones=4):
    """Synthetic beacon classification set with zone-dependent signatures.

    Each zone has a characteristic subset of in-range beacons; the rest sit
    at the -200 sentinel, mirroring the real data layout.
    """
    rng = np.random.default_rng(seed)
    features = np.full((n, n_beacons), -200.0)
    labels = rng.integers(0, n_zones, n)
    centers = rng.uniform(-90.0, -60.0, (n_zones, n_beacons))
    for i in range(n):
        zone = labels[i]
        visible = np.arange(zone * 3, zone * 3 + 4) % n_beacons
        features[i, visible] = centers[zone, visible] + rng.normal(0, 3.0, len(visible))
    one_hot = rl.learners.one_hot_encode(labels, n_zones)
    return features, labels, one_hot


def exact_weighted_position(design, rhs, var, t=None, var_a=None):
    """One row's WLS estimate in exact rational arithmetic, or its
    bias-compensated estimate when t and var_a are given, from the
    solver's own float inputs: the centred design (M, 2), rhs (M,),
    per-anchor rhs variances var (M,), rhs bias t (M,) and anchor
    coordinate variances var_a (M,). W+ = D^-1 - w*w^T/sum(w) with
    w = 1/var. Returns the estimate as floats and the exact normal matrix
    (2x2 nested lists of Fractions)."""
    w = [1 / Fraction(v) for v in var]
    total = sum(w)
    cols = [[Fraction(row[k]) for row in design] for k in (0, 1)]
    b = [Fraction(r) for r in rhs]
    if t is not None:
        b = [r - Fraction(x) for r, x in zip(b, t)]

    def inner(u, v):  # u^T W+ v
        return (sum(wi * ui * vi for wi, ui, vi in zip(w, u, v))
                - sum(wi * ui for wi, ui in zip(w, u))
                * sum(wi * vi for wi, vi in zip(w, v)) / total)

    normal = [[inner(cols[j], cols[k]) for k in (0, 1)] for j in (0, 1)]
    r = [inner(col, b) for col in cols]
    if var_a is not None:
        loss = sum((wi - wi * wi / total) * Fraction(v) for wi, v in zip(w, var_a))
        normal[0][0] -= loss
        normal[1][1] -= loss
    (n00, n01), (n10, n11) = normal
    det = n00 * n11 - n01 * n10
    est = ((n11 * r[0] - n01 * r[1]) / det / 2, (n00 * r[1] - n10 * r[0]) / det / 2)
    return np.array([float(v) for v in est]), normal


def pseudo_inverse_weights(var):
    """pinv(P*diag(var)*P) for (M,) or (N, M) rhs variances, P the centering
    projector: the general weight matrix pseudo-inverse, formed by an
    eigendecomposition, that the solvers' closed form must reproduce."""
    var = np.asarray(var, dtype=float)
    m = var.shape[-1]
    proj = np.eye(m) - np.full((m, m), 1.0 / m)
    w = proj @ (var[..., None] * np.eye(m)) @ proj
    return np.linalg.pinv((w + w.swapaxes(-1, -2)) / 2.0, rcond=1e-10, hermitian=True)
