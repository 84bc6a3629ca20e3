"""From-scratch supervised learners used by the localization pipelines.

Regressors (linear, polynomial, CART tree, random forest, extra trees)
predict coordinates from per-anchor RSSI features; the kNN classifier and
the small feed-forward network predict zone labels. Multi-output targets
are handled by fitting one independent model per output column.

All fitted models are immutable value objects with a ``predict`` method
and a portable JSON record (``to_dict``; see :func:`model_from_dict`).

A regression tree is six parallel node arrays, numbered depth-first (left
subtree first, root 0): ``feature`` (-1 at a leaf), ``threshold``, ``left``
and ``right`` child indices (-1 at a leaf), ``value`` (mean training
target) and ``n`` (training rows). A fit grows all its trees together,
level by level, a few numpy calls per depth, and then renumbers the nodes
depth-first. Trees, forests and treeloc models predict through one block
(:func:`_stack_trees`): rows walk all its trees at once, a numpy step per
level, and each model's mean adds its trees in tree order for any number
of rows. Saved files (version 3) hold each tree or forest as flat preorder
arrays (see :func:`_trees_from_arrays`): ``node_counts`` is a JSON list of
ints, and ``feature``, ``threshold``, ``value`` and ``n`` are base64
strings of little-endian ``<i8``/``<f8`` bytes, so a record is written and
read without turning each number into text. Version-2 files (the same
arrays as JSON number lists) and version-1 files (a nested dict per node)
still load to the same trees.
"""

from __future__ import annotations

import base64
import importlib
import json
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Dict, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .exceptions import (EmptyDataset, EmptyTrainingSet, KTooLarge,
                         NumericalError, ShapeMismatch)
from .ingest import (ClassificationDataset, RegressionDataset, ZONE_LABELS,
                     one_hot_encode, write_text)

MODEL_FORMAT = "rssiloc-model"
MODEL_VERSION = 3  # of tree and forest records; other kinds are unchanged at 1
# The record versions each kind loads; kinds not named here load version 1 only.
_KIND_VERSIONS = {"tree": (1, 2, MODEL_VERSION), "forest": (1, 2, MODEL_VERSION)}
# The little-endian item type of each base64 array of a version-3 tree record.
_ARRAY_DTYPES = {"feature": "<i8", "threshold": "<f8", "value": "<f8", "n": "<i8"}

MLP_DEFAULT_SIZES = (13, 20, 17, 4)

# Tree-rows per step of a batched tree walk: keeps its arrays in cache.
WALK_NODES = 1 << 16


def train_test_split_indices(n: int, test_fraction: float,
                             rng: np.random.Generator) -> Tuple[np.ndarray, np.ndarray]:
    """Shuffled train/test index split; deterministic under the rng state."""
    perm = rng.permutation(n)
    n_test = int(round(n * test_fraction))
    return perm[n_test:], perm[:n_test]


# --- linear and polynomial regression -------------------------------------------

def _as_rows(features) -> Tuple[np.ndarray, bool]:
    """Features as an (N, F) float matrix, and whether one row was given."""
    x = np.asarray(features, dtype=float)
    return (x[None, :], True) if x.ndim == 1 else (x, False)


@dataclass(frozen=True)
class LinearModel:
    """Least-squares linear map from features to targets.

    theta has shape (F + 1, K) with the intercept in row 0.
    """

    theta: np.ndarray
    squeeze: bool = False

    def predict(self, features) -> np.ndarray:
        x, single = _as_rows(features)
        out = np.hstack([np.ones((len(x), 1)), x]) @ self.theta
        if self.squeeze:
            out = out[:, 0]
        return out[0] if single else out

    def to_dict(self) -> dict:
        return _wrap("linear", {}, {"theta": self.theta.tolist(),
                                    "squeeze": self.squeeze})


def fit_linear(features, targets) -> LinearModel:
    """Least squares through the pseudo-inverse.

    Underdetermined or rank-deficient designs get the minimal-norm
    solution, so duplicated feature columns leave predictions unchanged.
    """
    x = np.asarray(features, dtype=float)
    if x.size == 0:
        raise EmptyDataset("no training samples")
    y = np.asarray(targets, dtype=float)
    if not (np.isfinite(x).all() and np.isfinite(y).all()):  # LAPACK would print to stdout
        raise NumericalError("least-squares features or targets are not finite")
    squeeze = y.ndim == 1
    design = np.hstack([np.ones((len(x), 1)), x])
    theta, *_ = np.linalg.lstsq(design, y[:, None] if squeeze else y, rcond=None)
    return LinearModel(theta=theta, squeeze=squeeze)


def polynomial_features(features, degree: int, cross_terms: bool = False) -> np.ndarray:
    """Expand features to polynomial terms (no intercept column).

    Default is per-feature powers 1..degree. With cross_terms=True the
    expansion instead contains every monomial of total degree 1..degree.
    """
    x = np.asarray(features, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    if degree < 1:
        raise ValueError("degree must be >= 1")
    if not cross_terms:
        return np.hstack([x ** p for p in range(1, degree + 1)])
    from itertools import combinations_with_replacement
    cols = []
    for total in range(1, degree + 1):
        for combo in combinations_with_replacement(range(x.shape[1]), total):
            cols.append(np.prod(x[:, combo], axis=1))
    return np.column_stack(cols)


@dataclass(frozen=True)
class PolynomialModel:
    theta: np.ndarray
    degree: int
    cross_terms: bool = False
    squeeze: bool = False

    def predict(self, features) -> np.ndarray:
        x, single = _as_rows(features)
        out = LinearModel(self.theta, self.squeeze).predict(
            polynomial_features(x, self.degree, self.cross_terms))
        return out[0] if single else out

    def to_dict(self) -> dict:
        return _wrap("polynomial",
                     {"degree": self.degree, "cross_terms": self.cross_terms},
                     {"theta": self.theta.tolist(), "squeeze": self.squeeze})


def fit_polynomial(features, targets, degree: int,
                   cross_terms: bool = False) -> PolynomialModel:
    """Polynomial regression: expand features, then fit linearly. Overflowing
    terms raise NumericalError (LAPACK would print to stdout on them)."""
    x = np.asarray(features, dtype=float)
    if x.size == 0:
        raise EmptyDataset("no training samples")
    terms = polynomial_features(x, degree, cross_terms)
    if not np.isfinite(terms).all():
        raise NumericalError(f"degree-{degree} polynomial terms of the features are not finite")
    linear = fit_linear(terms, targets)
    return PolynomialModel(theta=linear.theta, degree=degree,
                           cross_terms=cross_terms, squeeze=linear.squeeze)


# --- CART trees and forests (node arrays: see the module docstring) -------------------

class TreeNode(NamedTuple):
    """Read-only view of one node of a :class:`RegressionTree`; a leaf has
    feature, left and right None and the mean of its targets as value."""

    tree: "RegressionTree"
    index: int = 0

    def _at(self, name: str):
        return getattr(self.tree, name)[self.index].item()

    is_leaf = property(lambda self: self._at("feature") < 0)
    feature = property(lambda self: None if self.is_leaf else self._at("feature"))
    threshold = property(lambda self: self._at("threshold"))
    left = property(lambda self: None if self.is_leaf else TreeNode(self.tree, self._at("left")))
    right = property(lambda self: None if self.is_leaf else TreeNode(self.tree, self._at("right")))
    value = property(lambda self: self._at("value"))
    n_samples = property(lambda self: self._at("n"))


def _segment_sums(y: np.ndarray, starts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """y[s:s + n].sum() of every segment, bit for bit: the order of numpy's
    pairwise summation depends on n only, so the segments of one length are
    summed as the rows of one matrix."""
    out = np.empty(len(sizes))
    for n in np.flatnonzero(np.bincount(sizes)):  # ascending, as np.unique gave them
        at = sizes == n
        out[at] = y[starts[at, None] + np.arange(n)].sum(axis=1)
    return out


def _first_least(values: np.ndarray, allowed: np.ndarray) -> np.ndarray:
    """Per row, the first column of the least allowed value as np.argmin
    ranks them (NaN first); the first allowed column when all are inf."""
    masked = np.where(allowed, values, np.inf)
    pick = masked.argmin(axis=1)
    all_inf = masked[np.arange(len(pick)), pick] == np.inf
    return np.where(all_inf, allowed.argmax(axis=1), pick)


def _exhaustive_splits(x, y, rows, sizes, least, tree, rngs):
    """(feature or -1, threshold) of each node, a run of `rows`: the least-SSE
    midpoint of consecutive distinct sorted values lo < hi (lo where it is not
    below hi), the first minimum in a column and the first least across. Nodes of one
    size class share a block, padded after their rows with x = +inf and y = 0,
    so the stable sort and the sequential cumsums equal a lone scan of each node."""
    feature, threshold = np.full(len(sizes), -1), np.zeros(len(sizes))
    starts, bucket = np.cumsum(sizes) - sizes, np.ceil(np.log2(sizes)).astype(np.int64)
    for b in np.flatnonzero(np.bincount(bucket)):
        k = np.flatnonzero(bucket == b)
        n, width, nodes = sizes[k], sizes[k].max(), np.arange(len(k))
        pad = np.arange(width) >= n[:, None]
        at = rows[np.minimum(starts[k, None] + np.arange(width), len(rows) - 1)]
        xs = np.where(pad[:, :, None], np.inf, x[at])
        order = np.argsort(xs, axis=1, kind="stable")
        xs = np.take_along_axis(xs, order, axis=1)
        ys = np.where(pad, 0.0, y[at])[nodes[:, None, None], order]
        csum, csum2 = np.cumsum(ys, axis=1), np.cumsum(ys ** 2, axis=1)
        total, total2 = csum[nodes, n - 1][:, None], csum2[nodes, n - 1][:, None]
        csum, csum2 = csum[:, :-1], csum2[:, :-1]
        n_left = np.arange(1, width)[:, None]
        n_right = n[:, None, None] - n_left
        valid = (xs[:, :-1] < xs[:, 1:]) & (n_left >= least) & (n_right >= least)
        sse = np.where(valid, (csum2 - csum ** 2 / n_left) + (
            (total2 - csum2) - (total - csum) ** 2 / np.maximum(n_right, 1)), np.inf)
        best, has = sse.argmin(axis=1), valid.any(axis=1)
        f = _first_least(np.take_along_axis(sse, best[:, None], axis=1)[:, 0], has)
        i = np.flatnonzero(has.any(axis=1))
        row, f = best[i, f[i]], f[i]
        lo, hi = xs[i, row, f], xs[i, row + 1, f]
        with np.errstate(over="ignore"):  # lo + hi may overflow either way
            mid = (lo + hi) / 2.0
        feature[k[i]], threshold[k[i]] = f, np.where((lo <= mid) & (mid < hi), mid, lo)
    return feature, threshold


def _random_splits(x, y, rows, sizes, least, tree, rngs):
    """(feature or -1, threshold) of each node, a run of `rows`, by the
    extra-trees rule: lo + (hi - lo) * u per non-constant feature as
    Generator.uniform draws it (where hi - lo overflows, twice the draw between
    the halves, at most hi), u from one call per tree (rngs[tree]) over its nodes
    in level order; the first feature with the least SSE about each side's mean wins."""
    starts, seg = np.cumsum(sizes) - sizes, np.repeat(np.arange(len(sizes)), sizes)
    xr, ys = x[rows], np.repeat(y[rows], x.shape[1])
    lo, hi = np.minimum.reduceat(xr, starts), np.maximum.reduceat(xr, starts)
    node, feat = np.nonzero(lo != hi)
    u = np.concatenate([np.empty(0)] + [rngs[t].random(k) for t, k in enumerate(
        np.bincount(tree[node], minlength=len(rngs))) if k])
    a, b = lo[node, feat], hi[node, feat]
    draws = np.full(lo.shape, np.inf)
    with np.errstate(over="ignore", invalid="ignore"):
        span = b - a
        draws[node, feat] = np.where(np.isinf(span), np.minimum(
            2 * (a / 2 + (b / 2 - a / 2) * u), b), a + span * u)
    # a bin per node, feature and side: 2 * (node * features + feature) + right
    side = (2 * np.arange(lo.size).reshape(lo.shape)[seg] + ~(xr <= draws[seg])).ravel()
    counts = np.bincount(side, minlength=2 * lo.size)
    dev = ys - (np.bincount(side, ys, 2 * lo.size) / np.maximum(counts, 1))[side]
    sse = np.bincount(side, dev * dev, 2 * lo.size).reshape(*lo.shape, 2).sum(axis=2)
    valid = (lo != hi) & (counts.reshape(*lo.shape, 2) >= least).all(axis=2)
    f, ok = _first_least(sse, valid), valid.any(axis=1)
    return np.where(ok, f, -1), np.where(ok, draws[np.arange(len(f)), f], 0.0)


def _grow(x: np.ndarray, y: np.ndarray, samples, max_depth: Optional[int],
          min_leaf: int, split_mode: str, rngs) -> Tuple["RegressionTree", ...]:
    """One tree per row-index array of `samples` (rngs[t] draws tree t's
    thresholds), grown together a level per step. A level's nodes are runs of
    `rows`, in tree order, then level order; a node is a leaf at the depth
    limit, below 2 * min_leaf rows, at zero target variance or without a
    valid split. Nodes are then renumbered depth-first, left subtree first."""
    if split_mode not in ("exhaustive", "random"):
        raise ValueError(f"unknown split_mode {split_mode!r}")
    find = _exhaustive_splits if split_mode == "exhaustive" else _random_splits
    rows, sizes = np.concatenate(samples), np.array([len(s) for s in samples])
    tree, levels = np.arange(len(samples)), []
    limit = np.inf if max_depth is None else max_depth
    while len(sizes):
        starts, seg = np.cumsum(sizes) - sizes, np.repeat(np.arange(len(sizes)), sizes)
        yv = y[rows]
        varied = np.bincount(seg, yv != yv[starts][seg], len(sizes)) > 0
        grow = varied & (sizes >= 2 * min_leaf) & (len(levels) < limit)
        feature, threshold = np.full(len(sizes), -1), np.zeros(len(sizes))
        if grow.any():
            feature[grow], threshold[grow] = find(x, y, rows[grow[seg]], sizes[grow],
                                                  max(min_leaf, 1), tree[grow], rngs)
        split = feature >= 0
        levels.append((tree, feature, threshold,
                       _segment_sums(yv, starts, sizes) / sizes, sizes, split))
        keep = split[seg]  # the children of the k-th split node: 2k and 2k + 1
        child = 2 * (np.cumsum(split) - 1)[seg[keep]] + ~(
            x[rows[keep], feature[seg[keep]]] <= threshold[seg[keep]])
        rows, tree = rows[keep][np.argsort(child, kind="stable")], np.repeat(tree[split], 2)
        sizes = np.bincount(child, minlength=2 * split.sum())
    size = [np.ones(len(levels[-1][0]), dtype=np.int64)]  # subtree sizes
    for *_, split in reversed(levels[:-1]):
        size.insert(0, np.ones(len(split), dtype=np.int64))
        size[0][split] += size[1][0::2] + size[1][1::2]
    at = [np.zeros(len(size[0]), dtype=np.int64)]  # depth-first index in its tree
    for (*_, split), below in zip(levels, size[1:]):
        at.append(np.repeat(at[-1][split] + 1, 2))
        at[-1][1::2] += below[0::2]
    tree, feature, threshold, value, n, split = map(np.concatenate, zip(*levels))
    children = np.concatenate(at[1:] + [np.zeros(0, dtype=np.int64)])
    left, right = np.full(len(feature), -1), np.full(len(feature), -1)
    left[split], right[split] = children[0::2], children[1::2]
    offset = np.cumsum(size[0]) - size[0]
    order = np.argsort(offset[tree] + np.concatenate(at))  # level order to depth-first
    arrays = [a[order] for a in (feature, threshold, left, right, value, n)]
    return tuple(RegressionTree(*(a[o:o + c] for a in arrays), max_depth=max_depth,
                                min_leaf=min_leaf, split_mode=split_mode)
                 for o, c in zip(offset, size[0]))


def _link(trees) -> tuple:
    """(feature, children, roots, depths) of trees laid end to end in order:
    children[i] holds node i's right and left child as indices into the
    whole, a leaf's both its own; roots[t] is tree t's node 0 and depths[t]
    its depth, from one frontier pass, a numpy step per level."""
    counts = np.array([len(t.feature) for t in trees])
    roots = np.cumsum(counts) - counts
    feature = np.concatenate([t.feature for t in trees])
    children = np.empty((len(feature), 2), dtype=np.int64)
    for j, side in enumerate(("right", "left")):  # filled in place: no temporaries
        np.concatenate([getattr(t, side) for t in trees], out=children[:, j])
    children += np.repeat(roots, counts)[:, None]
    leaf = np.flatnonzero(feature < 0)
    children[leaf] = leaf[:, None]
    split, level, node, depth = feature >= 0, np.zeros(len(feature), dtype=np.int64), roots, 0
    while len(node):
        node, depth = children.take(node.compress(split.take(node)), axis=0).ravel(), depth + 1
        level[node] = depth
    return feature, children, roots, np.maximum.reduceat(level, roots)


def tree_depths(trees) -> np.ndarray:
    """Edges on the longest root-to-leaf path of each tree."""
    return _link(trees)[3]


def _stack_trees(models) -> tuple:
    """(feature, threshold, children, value, roots, steps, slots, inputs,
    counts): one block of the trees of tree and forest models, node arrays in
    the given order, then a leaf of value -0.0, the pad. Walk ids are doubled:
    node i is 2i, feature and threshold hold its split at 2i and 2i + 1,
    children[2i] and children[2i + 1] 2 * its right and left child, so a row at
    2i steps to children[2i + (x <= threshold)]; leaves are feature-0
    self-loops and value[2i >> 1] is node i's value. roots lists the trees
    deepest first: level l steps the first steps[l], those deeper than l.
    Slot t * models + m is tree t of model m, or the pad past its counts[m]
    trees; inputs is the number of features the splits read."""
    pad = RegressionTree(*map(np.array, ([-1], [0.0], [-1], [-1], [-0.0], [0])))
    trees = [t for m in models for t in m.trees] + [pad]
    feature, children, roots, depths = _link(trees)
    order, counts = np.argsort(-depths, kind="stable"), np.array([len(m.trees) for m in models])
    rank = np.arange(counts.max())[:, None]
    given = np.where(rank < counts, np.cumsum(counts) - counts + rank, len(trees) - 1)
    children *= 2
    return (np.repeat(np.maximum(feature, 0), 2),
            np.repeat(np.concatenate([t.threshold for t in trees]), 2), children.ravel(),
            np.concatenate([t.value for t in trees]), 2 * roots[order],
            np.cumsum(np.bincount(depths)[::-1])[::-1][1:].tolist(),
            np.argsort(order)[given.ravel()], int(feature.max()) + 1, counts)


def _leaf_values(block: tuple, x: np.ndarray) -> np.ndarray:
    """Leaf value of every row of x in every slot of a block, shape
    (slots, N): for one-tree models, each tree's row in the given order.
    Each level steps only the trees still deeper and sets aside the rest,
    and reads x as one flat array."""
    feature, threshold, children, value, roots, steps, slots = block[:7]
    flat, offset = x.ravel(), np.arange(len(x)) * x.shape[1]
    node, finished = roots[:, None].repeat(len(x), axis=1), []
    for k in steps:
        if k < len(node):
            node, done = node[:k], node[k:]
            finished.append(done)
        at = feature.take(node)  # where in flat each row reads its split feature
        at += offset
        node = children.take(node + (flat.take(at) <= threshold.take(node)))
    return value[np.concatenate([node] + finished[::-1])[slots] >> 1]


def _model_means(block: tuple, x: np.ndarray) -> np.ndarray:
    """Each model's mean leaf value per row, shape (N, models). Rows walk in
    chunks of about WALK_NODES tree-rows; a cumsum down the slots adds each
    model's trees in order to np.add.reduce's 0.0 (the pad's -0.0 adds no
    bit), so a row gets the same bits alone as in any batch."""
    inputs, counts = block[7:]
    if x.shape[1] < inputs:
        raise IndexError(f"the trees split on {inputs} inputs, rows have {x.shape[1]}")
    chunk, sums = max(1, WALK_NODES // len(block[4])), np.empty((len(x), len(counts)))
    for i in range(0, len(x), chunk):
        leaves = _leaf_values(block, x[i:i + chunk])
        sums[i:i + chunk] = leaves.reshape(-1, len(counts), leaves.shape[1]).cumsum(axis=0)[-1].T
    return (0.0 + sums) / counts


class _Averaged:
    """predict of a tree or forest: the mean of its trees' leaf values."""

    _block = cached_property(lambda self: _stack_trees((self,)))

    def predict(self, features) -> np.ndarray:
        x, single = _as_rows(features)
        out = _model_means(self._block, x)[:, 0]
        return float(out[0]) if single else out


@dataclass(frozen=True, eq=False)
class RegressionTree(_Averaged):
    """Single CART regression tree for a scalar target: the six node arrays
    of the module docstring plus its hyperparameters. ``root`` is a
    read-only :class:`TreeNode` view of node 0 and ``trees`` the tree
    itself, as a one-tree forest; to_dict writes the version-3 record of
    :func:`_trees_from_arrays`."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    n: np.ndarray
    max_depth: Optional[int] = None
    min_leaf: int = 1
    split_mode: str = "exhaustive"

    root = property(TreeNode)  # read-only view of node 0
    trees = property(lambda self: (self,))

    def depth(self) -> int:
        """Edges on the longest root-to-leaf path."""
        return int(tree_depths((self,))[0])

    def to_dict(self) -> dict:
        return _wrap("tree",
                     {"max_depth": self.max_depth, "min_leaf": self.min_leaf,
                      "split_mode": self.split_mode},
                     _trees_to_arrays((self,)), MODEL_VERSION)


def _tree_inputs(features, targets) -> Tuple[np.ndarray, np.ndarray]:
    x = np.asarray(features, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    if x.size == 0:
        raise EmptyDataset("no training samples")
    return x, np.asarray(targets, dtype=float)


def fit_tree(features, targets, max_depth: Optional[int] = None,
             min_leaf: int = 1, split_mode: str = "exhaustive",
             rng_seed: int = 0):
    """Grow a CART regression tree into its node arrays.

    Exhaustive mode scans midpoints of sorted unique feature values for
    the split minimizing the summed squared error of the two children;
    random mode (the extra-trees rule) draws one uniform threshold per
    feature and keeps the best. Nodes become leaves at the depth limit, at
    min_leaf, or at zero target variance. A 2-D target matrix yields a
    :class:`PairedRegressor` with one independently grown tree per column.
    """
    x, y = _tree_inputs(features, targets)
    if y.ndim == 2:
        models = [fit_tree(x, y[:, j], max_depth, min_leaf, split_mode,
                           rng_seed + j) for j in range(y.shape[1])]
        return PairedRegressor(models=tuple(models))
    return _grow(x, y, [np.arange(len(x))], max_depth, min_leaf, split_mode,
                 [np.random.default_rng(rng_seed)])[0]


@dataclass(frozen=True)
class Forest(_Averaged):
    """Average of independently grown trees (bagging when bootstrap=True),
    in tree order, exactly as averaging the member trees' predictions does.
    The version-3 record concatenates the trees' arrays before encoding them."""

    trees: Tuple[RegressionTree, ...]
    bootstrap: bool = True
    rng_seed: int = 0

    def to_dict(self) -> dict:
        first = self.trees[0]
        return _wrap("forest",
                     {"n_trees": len(self.trees), "bootstrap": self.bootstrap,
                      "max_depth": first.max_depth, "min_leaf": first.min_leaf,
                      "split_mode": first.split_mode, "rng_seed": self.rng_seed},
                     _trees_to_arrays(self.trees), MODEL_VERSION)


def fit_forest(features, targets, n_trees: int = 100, bootstrap: bool = True,
               max_depth: Optional[int] = None, min_leaf: int = 1,
               split_mode: str = "exhaustive", rng_seed: int = 0):
    """Fit an averaging tree ensemble.

    bootstrap=True resamples N rows with replacement per tree (random
    forest); bootstrap=False trains every tree on the whole dataset, which
    with split_mode="random" is the extra-trees scheme. Per-tree RNG
    substreams make the fit reproducible under a fixed seed.
    """
    x, y = _tree_inputs(features, targets)
    if n_trees < 1:
        raise ValueError("n_trees must be >= 1")
    if y.ndim == 2:
        models = [fit_forest(x, y[:, j], n_trees, bootstrap, max_depth,
                             min_leaf, split_mode, rng_seed + j)
                  for j in range(y.shape[1])]
        return PairedRegressor(models=tuple(models))

    rngs = [np.random.default_rng(np.random.SeedSequence(entropy=rng_seed, spawn_key=(i,)))
            for i in range(n_trees)]
    samples = [rng.integers(0, len(x), size=len(x)) if bootstrap else np.arange(len(x))
               for rng in rngs]
    return Forest(trees=_grow(x, y, samples, max_depth, min_leaf, split_mode, rngs),
                  bootstrap=bootstrap, rng_seed=rng_seed)


def fit_extra_trees(features, targets, n_trees: int = 100,
                    max_depth: Optional[int] = None, min_leaf: int = 1,
                    rng_seed: int = 0):
    """Extra trees: whole dataset per tree, randomized split thresholds."""
    return fit_forest(features, targets, n_trees=n_trees, bootstrap=False,
                      max_depth=max_depth, min_leaf=min_leaf,
                      split_mode="random", rng_seed=rng_seed)


@dataclass(frozen=True)
class PairedRegressor:
    """Independent scalar models stacked into one multi-output predictor."""

    models: Tuple[object, ...]

    def predict(self, features) -> np.ndarray:
        x, single = _as_rows(features)
        out = np.column_stack([m.predict(x) for m in self.models])
        return out[0] if single else out

    def to_dict(self) -> dict:
        return _wrap("paired", {},
                     {"components": [m.to_dict() for m in self.models]})


def tree_models(model) -> tuple:
    """The tree and forest models inside a model, depth first: the model
    itself, or those of a paired model's members or a treeloc model's
    components; none for other kinds."""
    if isinstance(model, (RegressionTree, Forest)):
        return (model,)
    parts = model.models if isinstance(model, PairedRegressor) else getattr(
        model, "components", ())
    return tuple(m for part in parts for m in tree_models(part))


# --- k nearest neighbors -----------------------------------------------------------

def _labels(probs: np.ndarray):
    """Class per row of a probability matrix (ties to the smallest index);
    an int for one probability vector."""
    return int(probs.argmax()) if probs.ndim == 1 else probs.argmax(axis=1)


@dataclass(frozen=True)
class KnnModel:
    """Stored training set plus k, packaged like the other models: finite 2-D
    float features, one int label in [0, n_classes) per row and 1 <= k <= the
    rows, whether the model is fitted, loaded or built directly."""

    features: np.ndarray
    labels: np.ndarray
    k: int
    n_classes: int

    def __post_init__(self):
        f, y = self.features, self.labels
        if len(f) == 0:
            raise EmptyTrainingSet("no training samples")
        if not (f.ndim == 2 and f.dtype.kind == "f" and np.isfinite(f).all()
                and y.shape == (len(f),) and y.dtype.kind == "i"
                and 0 <= y.min() and y.max() < self.n_classes):
            raise ValueError(f"kNN rows must be finite floats labelled in [0, {self.n_classes})")
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.k > len(self.features):
            raise KTooLarge(f"k={self.k} exceeds training size {len(self.features)}")

    def predict_proba(self, queries) -> np.ndarray:
        """Class probabilities (label counts / k) of each query's k nearest
        rows by Euclidean distance: all rows closer than the k-th smallest
        distance, then rows at that distance in file order. predict takes
        the most probable class, ties going to the smallest class index. A
        NaN query is at +inf from every (finite) row: it votes with the first k."""
        q, single = _as_rows(queries)
        q = np.where(np.isnan(q), np.inf, q)
        probs = np.empty((len(q), self.n_classes))
        for i, row in enumerate(q):
            dist = np.sqrt(((self.features - row) ** 2).sum(axis=1))
            kth = np.partition(dist, self.k - 1)[self.k - 1]
            nearest = dist < kth
            nearest[np.flatnonzero(dist == kth)[:self.k - np.count_nonzero(nearest)]] = True
            probs[i] = np.bincount(self.labels[nearest], minlength=self.n_classes) / self.k
        return probs[0] if single else probs

    def predict(self, queries):
        return _labels(self.predict_proba(queries))

    def to_dict(self) -> dict:
        return _wrap("knn", {"k": self.k, "n_classes": self.n_classes},
                     {"features": self.features.tolist(),
                      "labels": self.labels.tolist()})


def fit_knn(features, labels, k: int, n_classes: Optional[int] = None) -> KnnModel:
    y = np.asarray(labels, dtype=int)
    if n_classes is None:
        n_classes = int(y.max(initial=-1)) + 1
    return KnnModel(features=np.asarray(features, dtype=float), labels=y,
                    k=int(k), n_classes=int(n_classes))


# --- feed-forward network -------------------------------------------------------------

def relu(z):
    return np.maximum(np.asarray(z, dtype=float), 0.0)


def softmax(z) -> np.ndarray:
    z = np.asarray(z, dtype=float)
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


@dataclass(frozen=True)
class MlpModel:
    """Fully connected network with ReLU hidden layers and softmax output.

    weights[l] has shape (n_out, n_in); the default architecture maps 13
    beacon readings to 4 zone probabilities through hidden widths 20 and 17.
    """

    weights: Tuple[np.ndarray, ...]
    biases: Tuple[np.ndarray, ...]

    @property
    def sizes(self) -> Tuple[int, ...]:
        return (self.weights[0].shape[1],) + tuple(w.shape[0] for w in self.weights)

    @classmethod
    def create(cls, sizes: Sequence[int] = MLP_DEFAULT_SIZES,
               rng_seed: int = 0) -> "MlpModel":
        """He-initialized network; biases start at zero."""
        rng = np.random.default_rng(rng_seed)
        weights = [rng.normal(0.0, np.sqrt(2.0 / n_in), (n_out, n_in))
                   for n_in, n_out in zip(sizes[:-1], sizes[1:])]
        biases = [np.zeros(n) for n in sizes[1:]]
        return cls(weights=tuple(weights), biases=tuple(biases))

    def predict(self, features):
        """Zone index per row: the argmax of :func:`mlp_forward`, as
        :meth:`KnnModel.predict` does with its vote."""
        return _labels(mlp_forward(self, features))

    def to_dict(self) -> dict:
        return _wrap("mlp", {"sizes": list(self.sizes)},
                     {"weights": [w.tolist() for w in self.weights],
                      "biases": [b.tolist() for b in self.biases]})


def _mlp_layers(model: MlpModel, x: np.ndarray):
    """Forward pass keeping pre-activations; returns (zs, activations)."""
    zs, acts = [], [x]
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        zs.append(acts[-1] @ w.T + b)
        acts.append(softmax(zs[-1]) if i == len(model.weights) - 1 else relu(zs[-1]))
    return zs, acts


def mlp_forward(model: MlpModel, x) -> np.ndarray:
    """Class probabilities for one input vector or a batch."""
    arr, single = _as_rows(x)
    if arr.shape[1] != model.sizes[0]:
        raise ShapeMismatch(
            f"expected {model.sizes[0]} inputs, got {arr.shape[1]}")
    _, acts = _mlp_layers(model, arr)
    return acts[-1][0] if single else acts[-1]


def _batch(model: MlpModel, x, y_onehot) -> Tuple[np.ndarray, np.ndarray]:
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.atleast_2d(np.asarray(y_onehot, dtype=float))
    if x.shape[1] != model.sizes[0] or y.shape[1] != model.sizes[-1]:
        raise ShapeMismatch("batch shapes do not match the network")
    return x, y


def _backprop(model: MlpModel, x: np.ndarray, y: np.ndarray):
    """The one forward and backward pass of a checked batch: the output
    pre-activations, the gradients of the mean cross-entropy and the first
    layer's delta, which softmax/cross-entropy starts at (probs - y) / N."""
    zs, acts = _mlp_layers(model, x)
    grad_w, grad_b = [None] * len(model.weights), [None] * len(model.biases)
    delta = (acts[-1] - y) / len(x)
    for layer in range(len(model.weights) - 1, -1, -1):
        grad_w[layer] = delta.T @ acts[layer]
        grad_b[layer] = delta.sum(axis=0)
        if layer > 0:
            delta = (delta @ model.weights[layer]) * (zs[layer - 1] > 0)
    return zs[-1], grad_w, grad_b, delta


def mlp_backprop(model: MlpModel, x, y_onehot):
    """Cross-entropy loss and its gradients for a batch.

    Returns (loss, weight grads, bias grads, input grad). The loss is the
    mean cross-entropy over the batch, added here to the gradients of
    :func:`_backprop`, the core that :func:`mlp_train` runs per batch.
    """
    x, y = _batch(model, x, y_onehot)
    logits, grad_w, grad_b, delta = _backprop(model, x, y)
    logp = logits - logits.max(axis=1, keepdims=True)
    logp = logp - np.log(np.exp(logp).sum(axis=1, keepdims=True))
    return float(-(y * logp).sum() / len(x)), grad_w, grad_b, delta @ model.weights[0]


@dataclass(frozen=True)
class MlpHistory:
    train_accuracy: Tuple[float, ...]
    test_accuracy: Tuple[float, ...]


def _accuracy(model: MlpModel, x: np.ndarray, y: np.ndarray) -> float:
    return float(np.mean(model.predict(x) == y.argmax(axis=1)))


def mlp_train(model: MlpModel, features, labels_onehot, lr: float = 0.01,
              batch_size: int = 10, epochs: int = 100, rng_seed: int = 0,
              test_fraction: float = 0.3) -> Tuple[MlpModel, MlpHistory]:
    """Mini-batch gradient descent on cross-entropy.

    The dataset is split once into train/held-out parts (test_fraction of
    the rows, 0 disables the holdout), then reshuffled every epoch, all
    under the given seed. Each batch runs :func:`_backprop`, the gradient
    core of :func:`mlp_backprop`, without the loss, and updates a copy of
    the weights in place. Returns the trained network and the per-epoch
    accuracy trace on both parts. Raises NumericalError if training leaves
    a weight or bias non-finite.
    """
    if len(np.asarray(features)) == 0:
        raise EmptyDataset("no training samples")
    x, y = _batch(model, features, labels_onehot)
    if not 0.0 <= lr < np.inf:  # also false for nan
        raise ValueError("learning rate must be finite and >= 0")
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    rng = np.random.default_rng(rng_seed)
    train_idx, test_idx = train_test_split_indices(len(x), test_fraction, rng)
    if len(train_idx) == 0:
        raise EmptyDataset("test_fraction leaves no training samples")
    x_train, y_train = x[train_idx], y[train_idx]
    net = MlpModel(weights=tuple(w.copy() for w in model.weights),
                   biases=tuple(b.copy() for b in model.biases))
    train_acc, test_acc = [], []
    for _ in range(epochs):
        perm = rng.permutation(len(x_train))
        xs, ys = x_train[perm], y_train[perm]
        for i in range(0, len(perm), batch_size):
            _, gw, gb, _ = _backprop(net, xs[i:i + batch_size], ys[i:i + batch_size])
            for w, b, dw, db in zip(net.weights, net.biases, gw, gb):
                w -= lr * dw
                b -= lr * db
        train_acc.append(_accuracy(net, x_train, y_train))
        if len(test_idx):
            test_acc.append(_accuracy(net, x[test_idx], y[test_idx]))
    if not all(np.isfinite(a).all() for a in (*net.weights, *net.biases)):
        raise NumericalError(f"training at learning rate {lr} left non-finite weights")
    return net, MlpHistory(train_accuracy=tuple(train_acc),
                           test_accuracy=tuple(test_acc))


# --- portable model serialization ----------------------------------------------------

def _wrap(kind: str, hyperparameters: dict, parameters: dict, version: int = 1) -> dict:
    return {"format": MODEL_FORMAT, "version": version, "kind": kind,
            "hyperparameters": hyperparameters, "parameters": parameters}


def _trees_to_arrays(trees) -> dict:
    """Version-3 parameters of trees in preorder; see _trees_from_arrays."""
    cat = {name: np.concatenate([getattr(t, name) for t in trees]) for name in _ARRAY_DTYPES}
    cat["threshold"] = cat["threshold"][cat["feature"] >= 0]
    return {"node_counts": [len(t.feature) for t in trees],
            **{name: base64.b64encode(a.astype(_ARRAY_DTYPES[name]).tobytes()).decode("ascii")
               for name, a in cat.items()}}


def _trees_from_arrays(p: dict, h: dict) -> Tuple[RegressionTree, ...]:
    """Trees with hyperparameters h from flat arrays: node_counts, then all
    trees' nodes in preorder: feature (-1 at a leaf), threshold (internal
    nodes only), value and n. A version-3 record stores the last four as
    base64 strings of little-endian bytes, ``<i8`` for feature and n and
    ``<f8`` for threshold and value, which _trees_from_dict decodes first;
    version 2 stores them as JSON number lists. Child indices follow from
    the preorder, so none can form a cycle; arrays that encode no preorder
    trees raise ValueError."""
    def ints(key):
        a = np.asarray(p[key])
        if a.ndim != 1 or (a.size and a.dtype.kind != "i"):
            raise ValueError(f"{key} is not a list of integers")
        return a.astype(np.int64)
    counts, feature, n = ints("node_counts"), ints("feature"), ints("n")
    threshold, value = (np.asarray(p[key], dtype=float) for key in ("threshold", "value"))
    internal = np.flatnonzero(feature >= 0)
    if not (threshold.ndim == value.ndim == 1 and len(counts) and counts.min() >= 1
            and counts.sum() == len(feature) == len(value) == len(n)
            and feature.min() >= -1 and len(threshold) == len(internal)):
        raise ValueError("tree arrays disagree in shape")
    # Adding +1 per internal node and -1 per leaf, a preorder tree first sums
    # to -1 at its last node, and a left subtree to one below its parent.
    step = np.where(feature >= 0, 1, -1)
    level, ends = np.cumsum(step), np.cumsum(counts) - 1
    first = np.repeat(ends - counts + 1, counts)  # the first node of each node's tree
    if not np.array_equal(np.flatnonzero(level - level[first] + step[first] == -1), ends):
        raise ValueError("tree arrays do not encode preorder trees")
    keys = np.sort((level - level.min()) * len(level) + np.arange(len(level)))
    left_end = keys[np.searchsorted(
        keys, (level[internal] - 1 - level.min()) * len(level) + internal)] % len(level)
    left, right, thresholds = (np.full(len(feature), fill) for fill in (-1, -1, 0.0))
    base = internal - first[internal] + 1  # a left child's index in its tree
    left[internal], right[internal] = base, base + left_end - internal
    thresholds[internal] = threshold
    arrays = (feature, thresholds, left, right, value, n)
    return tuple(RegressionTree(*(a[o:o + c] for a in arrays), max_depth=h["max_depth"],
                                min_leaf=h["min_leaf"], split_mode=h["split_mode"])
                 for o, c in zip(first[ends], counts))


def _trees_from_dict(d: dict) -> Tuple[RegressionTree, ...]:
    """The trees of a tree or forest record. Version 3's base64 arrays are
    decoded into native, owned int64/float64 arrays; version 1 nests a dict
    per node, read here in preorder into the flat arrays."""
    p = d["parameters"]
    if d["version"] == 3:
        p = {"node_counts": p["node_counts"], **{
            key: np.frombuffer(base64.b64decode(p[key], validate=True), dtype).astype(dtype[1:])
            for key, dtype in _ARRAY_DTYPES.items()}}
    elif d["version"] == 1:
        roots, p = [p["root"]] if d["kind"] == "tree" else p["trees"], {
            "node_counts": [], "feature": [], "threshold": [], "value": [], "n": []}
        for stack in ([root] for root in roots):
            p["node_counts"].append(len(p["feature"]))
            while stack:
                node = stack.pop()
                leaf = "leaf" in node
                p["feature"].append(-1 if leaf else node["feature"])
                p["value"].append(node["leaf"] if leaf else node.get("value", 0.0))
                p["n"].append(node.get("n", 0))
                if not leaf:
                    p["threshold"].append(node["threshold"])
                    stack += [node["right"], node["left"]]
            p["node_counts"][-1] = len(p["feature"]) - p["node_counts"][-1]
    return _trees_from_arrays(p, d["hyperparameters"])


def _tree_from_dict(d: dict) -> RegressionTree:
    tree, = _trees_from_dict(d)  # ValueError unless exactly one
    return tree


# The loader of each kind's record. ensemble imports this module, so it is
# imported only when a treeloc record is loaded.
_MODEL_KINDS: Dict[str, Callable[[dict], object]] = {
    "linear": lambda d: LinearModel(np.asarray(d["parameters"]["theta"]),
                                    d["parameters"]["squeeze"]),
    "polynomial": lambda d: PolynomialModel(
        np.asarray(d["parameters"]["theta"]), d["hyperparameters"]["degree"],
        d["hyperparameters"]["cross_terms"], d["parameters"]["squeeze"]),
    "tree": _tree_from_dict,
    "forest": lambda d: Forest(_trees_from_dict(d), d["hyperparameters"]["bootstrap"],
                               d["hyperparameters"].get("rng_seed", 0)),
    "paired": lambda d: PairedRegressor(models=tuple(
        model_from_dict(c) for c in d["parameters"]["components"])),
    "knn": lambda d: KnnModel(np.asarray(d["parameters"]["features"], dtype=float),
                              np.asarray(d["parameters"]["labels"], dtype=int),
                              d["hyperparameters"]["k"], d["hyperparameters"]["n_classes"]),
    "mlp": lambda d: MlpModel(tuple(np.asarray(w) for w in d["parameters"]["weights"]),
                              tuple(np.asarray(b) for b in d["parameters"]["biases"])),
    "treeloc": lambda d: importlib.import_module(".ensemble", __package__)._treeloc_from_dict(d),
}


def model_from_dict(data: dict):
    """Model from its portable record. A record that is not a model record,
    or whose kind's fields are missing or mistyped, raises ValueError."""
    if not isinstance(data, dict) or data.get("format") != MODEL_FORMAT:
        raise ValueError("not a model record")
    kind, version = data.get("kind"), data.get("version")
    if not isinstance(kind, str) or kind not in _MODEL_KINDS:
        raise ValueError(f"unknown model kind {kind!r}")
    if type(version) is not int or version not in _KIND_VERSIONS.get(kind, (1,)):
        raise ValueError(f"unsupported model version {version!r} of a {kind} record")
    try:
        return _MODEL_KINDS[kind](data)
    except (KeyError, TypeError, AttributeError, IndexError) as exc:
        raise ValueError(f"bad {kind} record: {type(exc).__name__}: {exc}") from exc


def save_model(model, path):
    """Write the model's JSON record to path atomically, the text of
    json.dumps encoded part by part, never held whole; an unwritable path
    raises IoFailure and leaves no file behind."""
    write_text(json.JSONEncoder().iterencode(model.to_dict()), path)


def load_model(path):
    with open(path, encoding="utf-8") as fh:
        return model_from_dict(json.load(fh))
