"""Stacked tree-ensemble position estimator.

Three tree learners (extra trees, a single CART tree, a random forest) are
each trained on one contiguous third of the rows; their predictions on all
the rows then feed a per-coordinate multiple linear regression that
produces the final coordinate estimate:

    X = a1 + W1 * x_et + W2 * x_dt + W3 * x_rf    (and likewise for Y)

Because the combiner is ordinary least squares over a feature family that
contains each single component, its in-sample RMSE never exceeds the best
component's.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Tuple

import numpy as np

from .exceptions import ShapeMismatch, TooFewSamples
from .learners import (PairedRegressor, fit_extra_trees, fit_forest, fit_linear,
                       fit_tree, model_from_dict, tree_models,
                       _model_means, _stack_trees, _wrap)

COMPONENT_NAMES = ("extra_trees", "decision_tree", "random_forest")

# Combiner coefficients published for the reference indoor testbed:
# (intercept, extra-trees, decision-tree, random-forest) per coordinate.
REFERENCE_COMBINER_X = (-0.9494, 0.8036, 0.5476, 0.5212)
REFERENCE_COMBINER_Y = (-0.8348, 0.8922, 0.5937, 0.5292)

DEFAULT_TREE_DEPTH = 25
DEFAULT_FOREST_TREES = 100
DEFAULT_EXTRA_TREES = 100


@dataclass(frozen=True)
class TreeLocModel:
    """Fitted stacking ensemble.

    components are three pairs of tree models (one per coordinate), in
    COMPONENT_NAMES order; predict raises TypeError on anything else.
    combiner_x / combiner_y are (intercept, w_et, w_dt, w_rf). mode
    is "fitted" for OLS-derived combiners or "reference" for the published
    fixed coefficients.
    """

    components: Tuple[object, object, object]
    combiner_x: Tuple[float, float, float, float]
    combiner_y: Tuple[float, float, float, float]
    mode: str = "fitted"
    rng_seed: int = 0

    def combine(self, comp_x, comp_y) -> np.ndarray:
        """Apply the combiner to raw component outputs.

        comp_x and comp_y are length-3 vectors (or (N, 3) matrices) of the
        component predictions in COMPONENT_NAMES order. The products are
        elementwise, so a row gives the same bits alone as in a batch.
        """
        cx, cy = (np.atleast_2d(np.asarray(c, dtype=float)) for c in (comp_x, comp_y))
        out = self._combine(np.stack([cx, cy], axis=-1))
        return out[0] if np.asarray(comp_x).ndim == 1 else out

    # the combiners as (4, 2): intercepts, then one row per component
    _combiner = cached_property(
        lambda self: np.array([self.combiner_x, self.combiner_y], dtype=float).T)

    def _combine(self, preds: np.ndarray) -> np.ndarray:
        """Both coordinates' combiners on (N, 3, 2) component outputs in one
        broadcast: b0 + (c_et * b1 + c_dt * b2 + c_rf * b3)."""
        p = preds * self._combiner[1:]
        return self._combiner[0] + (p[:, 0] + p[:, 1] + p[:, 2])

    @cached_property
    def _block(self):
        """One node block with the trees of the six per-coordinate models."""
        if not all(isinstance(c, PairedRegressor) and len(c.models) == 2
                   and tree_models(c) == c.models for c in self.components):
            raise TypeError("treeloc components must be three pairs of tree models")
        return _stack_trees(tree_models(self))

    def component_predictions(self, features) -> np.ndarray:
        """Stacked component outputs, shape (N, 3, 2): each model's mean
        over its own trees, all walked as one block, gives the bits of its
        own predict."""
        x = np.atleast_2d(np.asarray(features, dtype=float))
        return _model_means(self._block, x).reshape(len(x), 3, 2)

    def predict(self, features) -> np.ndarray:
        x = np.asarray(features, dtype=float)
        out = self._combine(self.component_predictions(x))
        return out[0] if x.ndim == 1 else out

    def to_dict(self) -> dict:
        return _wrap("treeloc",
                     {"mode": self.mode, "rng_seed": self.rng_seed},
                     {"combiner_x": list(self.combiner_x),
                      "combiner_y": list(self.combiner_y),
                      "components": [m.to_dict() for m in self.components]})


def _treeloc_from_dict(data: dict) -> TreeLocModel:
    p, h = data["parameters"], data["hyperparameters"]
    comps = tuple(model_from_dict(c) for c in p["components"])
    return TreeLocModel(components=comps,
                        combiner_x=tuple(p["combiner_x"]),
                        combiner_y=tuple(p["combiner_y"]),
                        mode=h["mode"], rng_seed=h.get("rng_seed", 0))


def _thirds(n: int) -> Tuple[slice, slice, slice]:
    # Equal thirds; remainder rows go to the last third.
    size = n // 3
    return slice(0, size), slice(size, 2 * size), slice(2 * size, n)


def treeloc_fit(features, targets, rng_seed: int = 0,
                tree_depth: int = DEFAULT_TREE_DEPTH,
                forest_trees: int = DEFAULT_FOREST_TREES,
                extra_trees: int = DEFAULT_EXTRA_TREES,
                min_leaf: int = 1, reference: bool = False) -> TreeLocModel:
    """Fit the stacking ensemble: contiguous thirds; combiner on all rows.

    Extra trees train on the first third of the rows, the CART tree on the
    second, the random forest on the third. Each component then predicts
    every row, and the per-coordinate combiners come from OLS of the actual
    coordinates on (1, components), using the pseudo-inverse so collinear
    component outputs still yield finite coefficients. reference=True keeps
    the published combiners instead (mode "reference") and fits none.
    """
    x = np.asarray(features, dtype=float)
    y = np.asarray(targets, dtype=float)
    if y.shape != (len(x), 2):
        raise ShapeMismatch(f"targets must have shape ({len(x)}, 2), got {y.shape}")
    if len(x) < 6:
        raise TooFewSamples(f"need at least 6 samples, got {len(x)}")

    s1, s2, s3 = _thirds(len(x))
    trees = dict(max_depth=tree_depth, min_leaf=min_leaf, rng_seed=rng_seed)
    et = fit_extra_trees(x[s1], y[s1], n_trees=extra_trees, **trees)
    dt = fit_tree(x[s2], y[s2], **trees)
    rf = fit_forest(x[s3], y[s3], n_trees=forest_trees, **trees)
    model = TreeLocModel((et, dt, rf), REFERENCE_COMBINER_X, REFERENCE_COMBINER_Y,
                         mode="reference", rng_seed=rng_seed)
    if reference:
        return model
    # One node block walks the components for the combiner fit, then the fitted model.
    preds = model.component_predictions(x)
    combiner_x, combiner_y = (tuple(fit_linear(preds[:, :, j], y[:, j]).theta[:, 0].tolist())
                              for j in (0, 1))
    fitted = TreeLocModel(model.components, combiner_x, combiner_y, "fitted", rng_seed)
    vars(fitted)["_block"] = model._block  # where cached_property keeps it
    return fitted


def treeloc_reference(components: Optional[Tuple[object, object, object]] = None
                      ) -> TreeLocModel:
    """Ensemble with the published fixed combiner coefficients.

    Components may be omitted when only the combiner arithmetic is needed:
    :meth:`TreeLocModel.combine` works, predict raises TypeError.
    """
    return TreeLocModel(components=components or (None, None, None),
                        combiner_x=REFERENCE_COMBINER_X,
                        combiner_y=REFERENCE_COMBINER_Y,
                        mode="reference")


def treeloc_predict(model: TreeLocModel, features) -> np.ndarray:
    """Coordinate estimates for RSSI rows; see TreeLocModel.predict."""
    return model.predict(features)
