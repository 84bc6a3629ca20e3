"""RSSI indoor localization toolkit.

A numpy library covering the full pipeline: log-distance radio modeling,
RSSI signal filtering, closed-form position solvers (trilateration, the
pseudo-linear least-squares family with bias compensation, and the
hyperbolic estimator), from-scratch supervised learners, a stacked
tree-ensemble coordinate estimator, and evaluation metrics. The
``rssiloc`` CLI chains these stages over CSV files.

Exports are lazy (PEP 562): ``rssiloc.X`` imports only X's home module in
``_EXPORTS``, and ``rssiloc.<module>`` only that module. No lookup is
cached here, so a patch of the home module's attribute shows through.
"""

import importlib
import sys

_EXPORTS = {  # home module: the names exported from it
    "core": "Anchor MeasurementSet OUT_OF_RANGE_DBM PathLossParams Position Scene meters "
            "position_error validate_scene",
    "ensemble": "REFERENCE_COMBINER_X REFERENCE_COMBINER_Y TreeLocModel treeloc_fit "
                "treeloc_predict treeloc_reference",
    "filters": "KalmanState gaussian_filter gaussian_kernel kalman_filter kalman_step "
               "median_filter moving_average",
    "ingest": "ClassificationDataset RegressionDataset ZONE_LABELS grid_zone load_ibeacon_csv "
              "load_regression_csv load_zone_mapping write_csv",
    "learners": "Forest KnnModel LinearModel MlpModel PairedRegressor PolynomialModel "
                "RegressionTree TreeNode fit_extra_trees fit_forest fit_knn fit_linear "
                "fit_polynomial fit_tree load_model mlp_backprop mlp_forward mlp_train "
                "model_from_dict save_model",
    "metrics": "ClassificationReport ConfusionMatrix RegressionMetrics classification_metrics "
               "confusion_matrix regression_metrics",
    "radio": "NoiseSpec distance_from_rssi measure_once measure_targets rssi_from_distance "
             "synthesize_measurements",
    "solvers": "BiasTerms DiagonalWeights LinearSystem SOLVER_NAMES bias_compensated_solve "
               "build_bias_terms build_weights estimate_position hyperbolic_solve linearize "
               "lls_solve trilaterate wls_solve",
}
_HOME = {name: f"{__name__}.{home}" for home, names in _EXPORTS.items() for name in names.split()}
__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _HOME:  # sys.modules first: import_module adds ~1 us to a lookup
        return getattr(sys.modules.get(_HOME[name]) or importlib.import_module(_HOME[name]), name)
    if name in (*_EXPORTS, "cli", "exceptions"):
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
