"""Regression and classification evaluation metrics.

Regression errors are measured per sample as the Euclidean norm of the
residual, which makes the 1-D and 2-D cases share one code path: RMSE is
the quadratic mean of those norms, MAE their arithmetic mean, and STD the
population standard deviation about the mean error. R^2 compares summed
squared residual norms against the variance of the truth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .exceptions import EmptyMatrix, LengthMismatch


@dataclass(frozen=True)
class RegressionMetrics:
    """Error summary for a predicted series; r2 is None when the truth has
    zero variance (the coefficient of determination is undefined there)."""

    rmse: float
    mae: float
    std_err: float
    r2: Optional[float]
    n: int


def _as_samples(values) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2:
        raise ValueError("expected a 1-D series or an (N, k) array")
    return arr


def regression_metrics(actual, predicted) -> RegressionMetrics:
    """Compute RMSE, MAE, STD of errors, and R^2.

    actual and predicted may be 1-D series or (N, k) coordinate arrays of
    equal shape.
    """
    a = _as_samples(actual)
    p = _as_samples(predicted)
    if a.shape != p.shape:
        raise LengthMismatch(f"shape mismatch: {a.shape} vs {p.shape}")
    if len(a) == 0:
        raise LengthMismatch("empty series")

    err = np.linalg.norm(p - a, axis=1)
    rmse = float(np.sqrt(np.mean(err ** 2)))
    mae = float(np.mean(err))
    std = float(np.sqrt(np.mean((err - err.mean()) ** 2)))

    ss_res = float((err ** 2).sum())
    ss_tot = float(((a - a.mean(axis=0)) ** 2).sum())
    r2 = None if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return RegressionMetrics(rmse=rmse, mae=mae, std_err=std, r2=r2, n=len(a))


@dataclass(frozen=True)
class ConfusionMatrix:
    """Per-class TP/FP/FN/TN counts derived from a K x K count table.

    table[i, j] counts samples with actual class i predicted as class j.
    """

    table: np.ndarray
    labels: Tuple[str, ...]

    def __post_init__(self):
        t = np.asarray(self.table)
        if t.ndim != 2 or t.shape[0] != t.shape[1]:
            raise ValueError("confusion table must be square")
        if np.any(t < 0):
            raise ValueError("counts must be >= 0")

    @property
    def n(self) -> int:
        return int(self.table.sum())

    def counts(self, cls: int) -> Tuple[int, int, int, int]:
        """(TP, FP, FN, TN) for one class index."""
        tp = int(self.table[cls, cls])
        fp = int(self.table[:, cls].sum()) - tp
        fn = int(self.table[cls, :].sum()) - tp
        tn = self.n - tp - fp - fn
        return tp, fp, fn, tn


def confusion_matrix(actual: Sequence[int], predicted: Sequence[int],
                     labels: Sequence[str]) -> ConfusionMatrix:
    """Tally a confusion matrix from integer class indices."""
    k = len(labels)
    table = np.zeros((k, k), dtype=int)
    for a, p in zip(actual, predicted, strict=True):
        table[int(a), int(p)] += 1
    return ConfusionMatrix(table=table, labels=tuple(labels))


@dataclass(frozen=True)
class ClassMetrics:
    """Metrics for one class; `degenerate` names the 0/0 quantities that
    were reported as 0."""

    accuracy: float
    precision: float
    sensitivity: float
    f1: float
    support: int
    degenerate: Tuple[str, ...] = ()


@dataclass(frozen=True)
class ClassificationReport:
    per_class: Dict[str, ClassMetrics]
    macro: ClassMetrics
    overall_accuracy: float


def _safe_ratio(num: float, den: float, name: str, degenerate: list) -> float:
    if den == 0:
        degenerate.append(name)
        return 0.0
    return num / den


def classification_metrics(cm: ConfusionMatrix) -> ClassificationReport:
    """Per-class and macro-averaged accuracy, precision, sensitivity, F1.

    The macro row is the unweighted mean over classes. overall_accuracy is
    the plain fraction of correctly classified samples.
    """
    if cm.n == 0:
        raise EmptyMatrix("confusion matrix has no samples")
    per_class: Dict[str, ClassMetrics] = {}
    for idx, label in enumerate(cm.labels):
        tp, fp, fn, tn = cm.counts(idx)
        flagged: list = []
        precision = _safe_ratio(tp, tp + fp, "precision", flagged)
        sensitivity = _safe_ratio(tp, tp + fn, "sensitivity", flagged)
        f1 = _safe_ratio(2.0 * precision * sensitivity,
                         precision + sensitivity, "f1", flagged)
        per_class[label] = ClassMetrics(
            accuracy=(tp + tn) / cm.n,
            precision=precision,
            sensitivity=sensitivity,
            f1=f1,
            support=tp + fn,
            degenerate=tuple(flagged),
        )
    rows = list(per_class.values())
    macro = ClassMetrics(
        accuracy=float(np.mean([r.accuracy for r in rows])),
        precision=float(np.mean([r.precision for r in rows])),
        sensitivity=float(np.mean([r.sensitivity for r in rows])),
        f1=float(np.mean([r.f1 for r in rows])),
        support=cm.n,
        degenerate=tuple(sorted({name for r in rows for name in r.degenerate})),
    )
    overall = float(np.trace(cm.table)) / cm.n
    return ClassificationReport(per_class=per_class, macro=macro,
                                overall_accuracy=overall)


def format_regression_table(rows: Dict[str, RegressionMetrics]) -> str:
    """Fixed-width text table of regression metrics, one row per series."""
    header = f"{'series':<12}{'rmse':>12}{'mae':>12}{'std':>12}{'r2':>12}{'n':>8}"
    lines = [header, "-" * len(header)]
    for name, m in rows.items():
        r2 = "undefined" if m.r2 is None else f"{m.r2:.4f}"
        lines.append(f"{name:<12}{m.rmse:>12.4f}{m.mae:>12.4f}"
                     f"{m.std_err:>12.4f}{r2:>12}{m.n:>8d}")
    return "\n".join(lines)


def format_classification_table(report: ClassificationReport) -> str:
    """Fixed-width per-class metrics table with a macro summary row."""
    header = (f"{'class':<8}{'accuracy':>10}{'precision':>11}"
              f"{'recall':>10}{'f1':>10}{'support':>9}")
    lines = [header, "-" * len(header)]
    entries = list(report.per_class.items()) + [("macro", report.macro)]
    for name, m in entries:
        lines.append(f"{name:<8}{m.accuracy:>10.4f}{m.precision:>11.4f}"
                     f"{m.sensitivity:>10.4f}{m.f1:>10.4f}{m.support:>9d}")
    lines.append(f"overall accuracy: {report.overall_accuracy:.4f}")
    return "\n".join(lines)
