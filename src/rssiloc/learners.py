"""From-scratch supervised learners used by the localization pipelines.

Regressors (linear, polynomial, CART tree, random forest, extra trees)
predict coordinates from per-anchor RSSI features; the kNN classifier and
the small feed-forward network predict zone labels. Multi-output targets
are handled by fitting one independent model per output column.

All fitted models are immutable value objects with a ``predict`` method
and a portable JSON representation (see :func:`model_to_dict`).

A regression tree is six parallel node arrays, numbered depth-first (left
subtree first, root 0): ``feature`` (-1 at a leaf), ``threshold``, ``left``
and ``right`` child indices (-1 at a leaf), ``value`` (mean training
target) and ``n`` (training rows). Fitting grows trees straight into them;
predict walks all rows through all trees of a model at once, one numpy
step per level. Saved files keep the version-1 nested record per node.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Dict, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .exceptions import (EmptyDataset, EmptyTrainingSet, KTooLarge,
                         ShapeMismatch)

ZONE_LABELS = ("A", "B", "C", "D")

MODEL_FORMAT = "rssiloc-model"
MODEL_VERSION = 1

MLP_DEFAULT_SIZES = (13, 20, 17, 4)


# --- datasets -----------------------------------------------------------------

@dataclass(frozen=True)
class RegressionDataset:
    """RSSI feature matrix (N, F) with coordinate targets (N, 2), in cm."""

    features: np.ndarray
    targets: np.ndarray
    feature_names: Tuple[str, ...] = ()

    def __post_init__(self):
        if len(self.features) == 0:
            raise EmptyDataset("regression dataset is empty")
        if len(self.features) != len(self.targets):
            raise ShapeMismatch("features and targets disagree on N")
        if not (np.all(np.isfinite(self.features))
                and np.all(np.isfinite(self.targets))):
            raise ValueError("dataset contains non-finite entries")

    def __len__(self) -> int:
        return len(self.features)


@dataclass(frozen=True)
class ClassificationDataset:
    """Beacon RSSI vectors with zone labels.

    features keeps raw readings including the -200 out-of-range sentinel;
    labels are zone indices into zone_names and one_hot the matching
    indicator rows.
    """

    features: np.ndarray
    labels: np.ndarray
    one_hot: np.ndarray
    locations: Tuple[str, ...] = ()
    zone_names: Tuple[str, ...] = ZONE_LABELS

    def __post_init__(self):
        if len(self.features) == 0:
            raise EmptyDataset("classification dataset is empty")
        if not np.all(self.one_hot.sum(axis=1) == 1):
            raise ValueError("one-hot rows must sum to 1")

    def __len__(self) -> int:
        return len(self.features)


def one_hot_encode(labels: Sequence[int], n_classes: int) -> np.ndarray:
    out = np.zeros((len(labels), n_classes), dtype=float)
    out[np.arange(len(labels)), np.asarray(labels, dtype=int)] = 1.0
    return out


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
    """Polynomial regression: expand features, then fit linearly."""
    x = np.asarray(features, dtype=float)
    if x.size == 0:
        raise EmptyDataset("no training samples")
    linear = fit_linear(polynomial_features(x, degree, cross_terms), targets)
    return PolynomialModel(theta=linear.theta, degree=degree,
                           cross_terms=cross_terms, squeeze=linear.squeeze)


# --- CART trees and forests (node arrays: see the module docstring) -------------------

_NODE_ARRAYS = ("feature", "threshold", "left", "right", "value", "n")


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


def _build_tree(root, expand, **hyperparameters) -> "RegressionTree":
    """Tree whose nodes are expanded depth-first, left before right, with an
    explicit stack (no recursion limit). expand(item, depth) gives a node's
    (feature, threshold, value, n, children), children () at a leaf."""
    cols = {name: [] for name in _NODE_ARRAYS}
    stack = [(root, 0, [None], 0)]  # the root links into a throwaway list
    while stack:
        item, depth, links, parent = stack.pop()
        index = links[parent] = len(cols["feature"])
        feature, threshold, value, n, children = expand(item, depth)
        for name, v in zip(_NODE_ARRAYS, (feature, threshold, -1, -1, value, n)):
            cols[name].append(v)
        if children:
            stack.append((children[1], depth + 1, cols["right"], index))
            stack.append((children[0], depth + 1, cols["left"], index))
    return RegressionTree(**hyperparameters, **{
        name: np.array(v, dtype=float if name in ("threshold", "value") else np.int64)
        for name, v in cols.items()})


def _split_exhaustive(x: np.ndarray, y: np.ndarray, min_leaf: int):
    """Least-SSE split, all features scored at once: (feature, threshold) or
    None. Candidates are midpoints between consecutive distinct sorted values
    of a column; the first minimum wins in a column, the first least across."""
    n = len(y)
    order = np.argsort(x, axis=0, kind="stable")
    xs = np.take_along_axis(x, order, axis=0)
    ys = y[order]
    csum = np.cumsum(ys, axis=0)
    csum2 = np.cumsum(ys ** 2, axis=0)
    n_left = np.arange(1, n)[:, None]
    valid = (xs[:-1] < xs[1:]) & (n_left >= min_leaf) & (n - n_left >= min_leaf)
    features = np.flatnonzero(valid.any(axis=0))
    if not len(features):
        return None
    sse_left = csum2[:-1] - csum[:-1] ** 2 / n_left
    sse_right = (csum2[-1] - csum2[:-1]) - (csum[-1] - csum[:-1]) ** 2 / (n - n_left)
    sse = np.where(valid, sse_left + sse_right, np.inf)
    best = np.argmin(sse, axis=0)
    feature = features[np.argmin(sse[best[features], features])]
    row = best[feature]
    return int(feature), float((xs[row, feature] + xs[row + 1, feature]) / 2.0)


def _split_random(x: np.ndarray, y: np.ndarray, min_leaf: int,
                  rng: np.random.Generator):
    """Extra-trees split: one uniform threshold per non-constant feature,
    drawn in feature order; the first feature with the least SSE wins."""
    lo, hi = x.min(axis=0), x.max(axis=0)
    features = np.flatnonzero(lo != hi)
    if not len(features):
        return None
    thresholds = rng.uniform(lo[features], hi[features])
    masks = x[:, features] <= thresholds
    n_left = masks.sum(axis=0)
    best = None
    for j in np.flatnonzero((n_left >= min_leaf) & (len(y) - n_left >= min_leaf)):
        # side.sum() / len(side) is side.mean() without numpy's wrapper cost
        sse = sum(float(((side - side.sum() / len(side)) ** 2).sum())
                  for side in (y[masks[:, j]], y[~masks[:, j]]))
        if best is None or sse < best[0]:
            best = (sse, int(features[j]), float(thresholds[j]))
    return None if best is None else best[1:]


def _grow(x: np.ndarray, y: np.ndarray, max_depth: Optional[int],
          min_leaf: int, split_mode: str,
          rng: np.random.Generator) -> "RegressionTree":
    def expand(node, depth):
        x, y = node
        split = None
        if not (len(y) < 2 * min_leaf
                or (max_depth is not None and depth >= max_depth)
                or (y == y[0]).all()):
            split = (_split_exhaustive(x, y, min_leaf)
                     if split_mode == "exhaustive"
                     else _split_random(x, y, min_leaf, rng))
        value = float(y.sum() / len(y))
        if split is None:
            return -1, 0.0, value, len(y), ()
        mask = x[:, split[0]] <= split[1]
        return (*split, value, len(y),
                ((x[mask], y[mask]), (x[~mask], y[~mask])))
    return _build_tree((x, y), expand, max_depth=max_depth,
                       min_leaf=min_leaf, split_mode=split_mode)


def _stack_trees(trees) -> tuple:
    """(feature, threshold, left, right, value, roots, depth) of one block
    holding every tree, indices offset; leaves become feature-0 self-loops
    so that `depth` (the deepest tree's) steps bring every row to its leaf."""
    roots = np.cumsum([0] + [len(t.feature) for t in trees[:-1]])
    feature = np.concatenate([t.feature for t in trees])
    left, right = (np.where(feature < 0, np.arange(len(feature)), np.concatenate(
        [getattr(t, side) + root for t, root in zip(trees, roots)]))
        for side in ("left", "right"))
    return (np.maximum(feature, 0), np.concatenate([t.threshold for t in trees]),
            left, right, np.concatenate([t.value for t in trees]), roots,
            max(t.depth() for t in trees))


def _leaf_values(block: tuple, x: np.ndarray) -> np.ndarray:
    """Leaf value of every row in every tree of a block, shape (T, N)."""
    feature, threshold, left, right, value, roots, depth = block
    rows = np.arange(len(x))
    node = np.repeat(roots[:, None], len(x), axis=1)
    for _ in range(depth):
        go_left = x[rows, feature[node]] <= threshold[node]
        node = np.where(go_left, left[node], right[node])
    return value[node]


@dataclass(frozen=True, eq=False)
class RegressionTree:
    """Single CART regression tree for a scalar target: the six node arrays
    of the module docstring plus its hyperparameters. ``root`` is a
    read-only :class:`TreeNode` view of node 0; predict walks all rows
    down together, one vectorized step per level; to_dict writes the
    version-1 record, a nested dict per node, converted without recursion."""

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
    _block = cached_property(lambda self: _stack_trees((self,)))

    def predict(self, features) -> np.ndarray:
        x, single = _as_rows(features)
        out = _leaf_values(self._block, x)[0]
        return float(out[0]) if single else out

    def depth(self) -> int:
        """Edges on the longest root-to-leaf path, counted level by level."""
        level, depth = np.zeros(1, dtype=np.int64), -1
        while len(level):
            level = level[self.feature[level] >= 0]
            level, depth = np.concatenate([self.left[level], self.right[level]]), depth + 1
        return depth

    def to_dict(self) -> dict:
        return _wrap("tree",
                     {"max_depth": self.max_depth, "min_leaf": self.min_leaf,
                      "split_mode": self.split_mode},
                     {"root": _tree_to_record(self)})


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
    """Grow a CART regression tree, depth-first into its node arrays.

    Exhaustive mode scans midpoints of sorted unique feature values for
    the split minimizing the summed squared error of the two children;
    random mode (the extra-trees rule) draws one uniform threshold per
    feature and keeps the best. Nodes become leaves at the depth limit, at
    min_leaf, or at zero target variance. A 2-D target matrix yields a
    :class:`PairedRegressor` with one independently grown tree per column.
    """
    x, y = _tree_inputs(features, targets)
    if split_mode not in ("exhaustive", "random"):
        raise ValueError(f"unknown split_mode {split_mode!r}")
    if y.ndim == 2:
        models = [fit_tree(x, y[:, j], max_depth, min_leaf, split_mode,
                           rng_seed + j) for j in range(y.shape[1])]
        return PairedRegressor(models=tuple(models))
    return _grow(x, y, max_depth, min_leaf, split_mode, np.random.default_rng(rng_seed))


@dataclass(frozen=True)
class Forest:
    """Average of independently grown trees (bagging when bootstrap=True).
    predict walks the rows down all trees in one concatenated node block,
    then averages the tree-major (T, N) leaf values over axis 0, in tree
    order, exactly as averaging the member trees' predictions does. The
    version-1 record keeps one nested node record per tree."""

    trees: Tuple[RegressionTree, ...]
    bootstrap: bool = True
    rng_seed: int = 0

    _block = cached_property(lambda self: _stack_trees(self.trees))

    def predict(self, features) -> np.ndarray:
        x, single = _as_rows(features)
        preds = np.mean(_leaf_values(self._block, x), axis=0)
        return float(preds[0]) if single else preds

    def to_dict(self) -> dict:
        first = self.trees[0]
        return _wrap("forest",
                     {"n_trees": len(self.trees), "bootstrap": self.bootstrap,
                      "max_depth": first.max_depth, "min_leaf": first.min_leaf,
                      "split_mode": first.split_mode, "rng_seed": self.rng_seed},
                     {"trees": [_tree_to_record(t) for t in self.trees]})


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

    trees = []
    for i in range(n_trees):
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=rng_seed, spawn_key=(i,)))
        rows = rng.integers(0, len(x), size=len(x)) if bootstrap else slice(None)
        trees.append(_grow(x[rows], y[rows], max_depth, min_leaf, split_mode, rng))
    return Forest(trees=tuple(trees), bootstrap=bootstrap, rng_seed=rng_seed)


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


# --- k nearest neighbors -----------------------------------------------------------

def knn_classify(train_features, train_labels, query, k: int,
                 n_classes: Optional[int] = None) -> Tuple[int, np.ndarray]:
    """Classify one query vector by majority vote of its k nearest rows.

    Distances are Euclidean; the vote yields a class-probability vector
    (counts / k) and the returned label is its argmax, with ties going to
    the smallest class index. The distance sort is stable, so equidistant
    training rows keep their file order. A one-row view of
    ``fit_knn(...).predict_proba``.
    """
    probs = fit_knn(train_features, train_labels, k, n_classes).predict_proba(query)
    return int(np.argmax(probs)), probs


def _labels(probs: np.ndarray):
    """Class per row of a probability matrix (ties to the smallest index);
    an int for one probability vector."""
    return int(probs.argmax()) if probs.ndim == 1 else probs.argmax(axis=1)


@dataclass(frozen=True)
class KnnModel:
    """Stored training set plus k, packaged like the other models. The
    training set must be non-empty and 1 <= k <= its rows, whether the
    model is fitted, loaded or built directly."""

    features: np.ndarray
    labels: np.ndarray
    k: int
    n_classes: int

    def __post_init__(self):
        if len(self.features) == 0:
            raise EmptyTrainingSet("no training samples")
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.k > len(self.features):
            raise KTooLarge(f"k={self.k} exceeds training size {len(self.features)}")

    def predict_proba(self, queries) -> np.ndarray:
        q, single = _as_rows(queries)
        probs = np.empty((len(q), self.n_classes))
        for i, row in enumerate(q):
            dist = np.sqrt(((self.features - row) ** 2).sum(axis=1))
            nearest = np.argsort(dist, kind="stable")[:self.k]
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

def sigmoid(z):
    """Logistic activation 1 / (1 + exp(-z))."""
    return 1.0 / (1.0 + np.exp(-np.asarray(z, dtype=float)))


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
    a = x
    last = len(model.weights) - 1
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = a @ w.T + b
        zs.append(z)
        a = softmax(z) if i == last else relu(z)
        acts.append(a)
    return zs, acts


def mlp_forward(model: MlpModel, x) -> np.ndarray:
    """Class probabilities for one input vector or a batch."""
    arr, single = _as_rows(x)
    if arr.shape[1] != model.sizes[0]:
        raise ShapeMismatch(
            f"expected {model.sizes[0]} inputs, got {arr.shape[1]}")
    _, acts = _mlp_layers(model, arr)
    return acts[-1][0] if single else acts[-1]


def mlp_backprop(model: MlpModel, x, y_onehot):
    """Cross-entropy loss and its gradients for a batch.

    Returns (loss, weight grads, bias grads, input grad). The loss is the
    mean cross-entropy over the batch; the softmax/cross-entropy pair makes
    the output-layer delta simply (probs - y) / N.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.atleast_2d(np.asarray(y_onehot, dtype=float))
    if x.shape[1] != model.sizes[0] or y.shape[1] != model.sizes[-1]:
        raise ShapeMismatch("batch shapes do not match the network")
    n = len(x)
    zs, acts = _mlp_layers(model, x)
    probs = acts[-1]
    logp = zs[-1] - zs[-1].max(axis=1, keepdims=True)
    logp = logp - np.log(np.exp(logp).sum(axis=1, keepdims=True))
    loss = float(-(y * logp).sum() / n)

    grad_w, grad_b = [None] * len(model.weights), [None] * len(model.biases)
    delta = (probs - y) / n
    for layer in range(len(model.weights) - 1, -1, -1):
        grad_w[layer] = delta.T @ acts[layer]
        grad_b[layer] = delta.sum(axis=0)
        if layer > 0:
            delta = (delta @ model.weights[layer]) * (zs[layer - 1] > 0)
    grad_x = delta @ model.weights[0]
    return loss, grad_w, grad_b, grad_x


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
    under the given seed. Returns the trained network and the per-epoch
    accuracy trace on both parts.
    """
    x = np.asarray(features, dtype=float)
    y = np.asarray(labels_onehot, dtype=float)
    if len(x) == 0:
        raise EmptyDataset("no training samples")
    if lr < 0:
        raise ValueError("learning rate must be >= 0")
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    rng = np.random.default_rng(rng_seed)
    train_idx, test_idx = train_test_split_indices(len(x), test_fraction, rng)
    if len(train_idx) == 0:
        raise EmptyDataset("test_fraction leaves no training samples")
    x_train, y_train = x[train_idx], y[train_idx]

    weights = [w.copy() for w in model.weights]
    biases = [b.copy() for b in model.biases]
    train_acc, test_acc = [], []
    for _ in range(epochs):
        perm = rng.permutation(len(x_train))
        for start in range(0, len(perm), batch_size):
            batch = perm[start:start + batch_size]
            current = MlpModel(weights=tuple(weights), biases=tuple(biases))
            _, gw, gb, _ = mlp_backprop(current, x_train[batch], y_train[batch])
            for layer in range(len(weights)):
                weights[layer] -= lr * gw[layer]
                biases[layer] -= lr * gb[layer]
        current = MlpModel(weights=tuple(weights), biases=tuple(biases))
        train_acc.append(_accuracy(current, x_train, y_train))
        if len(test_idx):
            test_acc.append(_accuracy(current, x[test_idx], y[test_idx]))
    final = MlpModel(weights=tuple(weights), biases=tuple(biases))
    return final, MlpHistory(train_accuracy=tuple(train_acc),
                             test_accuracy=tuple(test_acc))


# --- portable model serialization ----------------------------------------------------

def _wrap(kind: str, hyperparameters: dict, parameters: dict) -> dict:
    return {"format": MODEL_FORMAT, "version": MODEL_VERSION, "kind": kind,
            "hyperparameters": hyperparameters, "parameters": parameters}


def _tree_to_record(tree: RegressionTree) -> dict:
    """Nested v1 node records of a tree, made flat and then linked."""
    feature, threshold, left, right, value, n = (
        getattr(tree, name).tolist() for name in _NODE_ARRAYS)
    records = [{"leaf": v, "n": c} if f < 0 else
               {"feature": f, "threshold": t, "n": c, "value": v}
               for f, t, v, c in zip(feature, threshold, value, n)]
    for record, f, l, r in zip(records, feature, left, right):
        if f >= 0:
            record["left"], record["right"] = records[l], records[r]
    return records[0]


def _tree_from_record(root: dict, h: dict) -> RegressionTree:
    """Tree with hyperparameters h from a nested v1 node record."""
    def expand(node, depth):
        if "leaf" in node:
            return -1, 0.0, node["leaf"], node.get("n", 0), ()
        return (node["feature"], node["threshold"], node.get("value", 0.0),
                node.get("n", 0), (node["left"], node["right"]))
    return _build_tree(root, expand, max_depth=h["max_depth"],
                       min_leaf=h["min_leaf"], split_mode=h["split_mode"])


def _linear_from_dict(d: dict) -> LinearModel:
    p = d["parameters"]
    return LinearModel(theta=np.asarray(p["theta"]), squeeze=p["squeeze"])


def _polynomial_from_dict(d: dict) -> PolynomialModel:
    p, h = d["parameters"], d["hyperparameters"]
    return PolynomialModel(theta=np.asarray(p["theta"]), degree=h["degree"],
                           cross_terms=h["cross_terms"], squeeze=p["squeeze"])


def _forest_from_dict(d: dict) -> Forest:
    h = d["hyperparameters"]
    trees = tuple(_tree_from_record(t, h) for t in d["parameters"]["trees"])
    return Forest(trees=trees, bootstrap=h["bootstrap"],
                  rng_seed=h.get("rng_seed", 0))


def _knn_from_dict(d: dict) -> KnnModel:
    p, h = d["parameters"], d["hyperparameters"]
    return KnnModel(features=np.asarray(p["features"], dtype=float),
                    labels=np.asarray(p["labels"], dtype=int),
                    k=h["k"], n_classes=h["n_classes"])


def _mlp_from_dict(d: dict) -> MlpModel:
    p = d["parameters"]
    return MlpModel(weights=tuple(np.asarray(w) for w in p["weights"]),
                    biases=tuple(np.asarray(b) for b in p["biases"]))


_MODEL_KINDS: Dict[str, Callable[[dict], object]] = {
    "linear": _linear_from_dict,
    "polynomial": _polynomial_from_dict,
    "tree": lambda d: _tree_from_record(d["parameters"]["root"],
                                        d["hyperparameters"]),
    "forest": _forest_from_dict,
    "paired": lambda d: PairedRegressor(models=tuple(
        model_from_dict(c) for c in d["parameters"]["components"])),
    "knn": _knn_from_dict,
    "mlp": _mlp_from_dict,
}


def register_model_kind(kind: str, from_dict: Callable[[dict], object]):
    """Let other modules plug their model kinds into the portable format."""
    _MODEL_KINDS[kind] = from_dict


def model_to_dict(model) -> dict:
    """Portable JSON-compatible record: kind, hyperparameters, parameters."""
    return model.to_dict()


def model_from_dict(data: dict):
    """Model from its portable record. A record that is not a model record,
    or whose kind's fields are missing or mistyped, raises ValueError."""
    if not isinstance(data, dict) or data.get("format") != MODEL_FORMAT:
        raise ValueError("not a model record")
    if data.get("version") != MODEL_VERSION:
        raise ValueError(f"unsupported model version {data.get('version')}")
    kind = data.get("kind")
    if not isinstance(kind, str) or kind not in _MODEL_KINDS:
        raise ValueError(f"unknown model kind {kind!r}")
    try:
        return _MODEL_KINDS[kind](data)
    except (KeyError, TypeError, AttributeError, IndexError) as exc:
        raise ValueError(f"bad {kind} record: {type(exc).__name__}: {exc}") from exc


def save_model(model, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_dict(model), fh)


def load_model(path):
    with open(path, encoding="utf-8") as fh:
        return model_from_dict(json.load(fh))
