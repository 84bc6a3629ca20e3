"""RSSI indoor localization toolkit.

A numpy library covering the full pipeline: log-distance radio modeling,
RSSI signal filtering, closed-form position solvers (trilateration, the
pseudo-linear least-squares family with bias compensation, and the
hyperbolic estimator), from-scratch supervised learners, a stacked
tree-ensemble coordinate estimator, and evaluation metrics. The
``rssiloc`` CLI chains these stages over CSV files.
"""

from .core import (Anchor, MeasurementSet, OUT_OF_RANGE_DBM, PathLossParams,
                   Position, Scene, meters, position_error, validate_scene)
from .ensemble import (REFERENCE_COMBINER_X, REFERENCE_COMBINER_Y,
                       TreeLocModel, treeloc_fit, treeloc_predict,
                       treeloc_reference)
from .filters import (KalmanState, gaussian_filter, gaussian_kernel,
                      kalman_filter, kalman_step, median_filter,
                      moving_average)
from .ingest import (grid_zone, load_ibeacon_csv, load_regression_csv,
                     load_zone_mapping, write_csv)
from .learners import (ClassificationDataset, Forest, KnnModel, LinearModel,
                       MlpModel, PairedRegressor, PolynomialModel,
                       RegressionDataset, RegressionTree, TreeNode,
                       ZONE_LABELS, fit_extra_trees, fit_forest, fit_knn,
                       fit_linear, fit_polynomial, fit_tree, knn_classify,
                       load_model, mlp_backprop, mlp_forward, mlp_train,
                       model_from_dict, model_to_dict, save_model)
from .metrics import (ClassificationReport, ConfusionMatrix,
                      RegressionMetrics, classification_metrics,
                      confusion_matrix, regression_metrics)
from .radio import (NoiseSpec, distance_from_rssi, measure_once,
                    measure_targets, rssi_from_distance,
                    synthesize_measurements)
from .solvers import (BiasTerms, DiagonalWeights, LinearSystem, SOLVER_NAMES,
                      bias_compensated_solve, build_bias_terms, build_weights,
                      estimate_position, hyperbolic_solve, linearize,
                      lls_solve, trilaterate, wls_solve)

__version__ = "0.1.0"
