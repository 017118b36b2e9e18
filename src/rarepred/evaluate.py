"""Confusion matrices, classification metrics, ROC curves, report bundles.

Undefined metrics (zero denominators) come back as nan together with a flag
naming them, so callers on heavily imbalanced data can distinguish "model
never fires" from "metric not computable".
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

import numpy as np

from .dataset import DatasetError, _write_blocks, write_table

__all__ = [
    "ConfusionMatrix",
    "Metrics",
    "ModelEvaluation",
    "confusion",
    "metrics",
    "roc",
    "auc",
    "evaluate_scores",
    "write_report",
]

METRICS = ("auc", "accuracy", "kappa", "sensitivity", "specificity")  # what grid search ranks by


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int
    fn: int
    fp: int
    tn: int

    @property
    def total(self) -> int:
        return self.tp + self.fn + self.fp + self.tn


@dataclass(frozen=True)
class Metrics:
    """Point metrics at a fixed threshold. nan fields are listed in flags."""

    accuracy: float
    kappa: float
    sensitivity: float
    specificity: float
    undefined: tuple[str, ...] = ()


def _as_binary(y: np.ndarray, what: str) -> np.ndarray:
    arr = np.asarray(y)
    if arr.ndim != 1:
        raise DatasetError(f"{what} must be 1-d")
    if not np.isin(arr, (0, 1)).all():
        raise DatasetError(f"{what} must be 0/1")
    return arr.astype(np.int64)


def _band_counts(y: np.ndarray, s: np.ndarray, lo, hi: float = math.inf):
    """True and false positives of the closed band ``lo <= s <= hi``, for a
    scalar or an array ``lo``: the one place rarepred counts them, by one sort
    of each class's scores and two ``searchsorted`` positions per band."""
    pos = np.sort(s[y == 1])
    neg = np.sort(s[y == 0])
    tp = np.searchsorted(pos, hi, "right") - np.searchsorted(pos, lo, "left")
    fp = np.searchsorted(neg, hi, "right") - np.searchsorted(neg, lo, "left")
    return tp, fp


def confusion(y_true: np.ndarray, y_pred: np.ndarray) -> ConfusionMatrix:
    yt = _as_binary(y_true, "labels")
    yp = _as_binary(y_pred, "predictions")
    if yt.shape != yp.shape:
        raise DatasetError("labels and predictions differ in length")
    tp, fp = (int(c) for c in _band_counts(yt, yp, 1))
    pos = int(yt.sum())
    return ConfusionMatrix(tp=tp, fn=pos - tp, fp=fp, tn=yt.size - pos - fp)


def metrics(cm: ConfusionMatrix) -> Metrics:
    """Accuracy, Cohen's kappa, sensitivity, specificity from counts.

    Kappa compares observed agreement with the agreement expected from the
    marginal prediction and label rates; it is undefined when that expected
    agreement is 1 (single-class data met by single-class predictions).
    """
    total = cm.total
    if total == 0:
        raise DatasetError("empty confusion matrix")
    undefined: list[str] = []

    def ratio(name: str, num: float, den: float) -> float:
        if den > 0:
            return num / den
        undefined.append(name)
        return math.nan

    accuracy = (cm.tp + cm.tn) / total
    pos = cm.tp + cm.fn
    neg = cm.fp + cm.tn
    sensitivity = ratio("sensitivity", cm.tp, pos)
    specificity = ratio("specificity", cm.tn, neg)
    pred_pos = cm.tp + cm.fp
    p_e = (pos / total) * (pred_pos / total) + (neg / total) * ((total - pred_pos) / total)
    kappa = ratio("kappa", accuracy - p_e, 1.0 - p_e)
    return Metrics(accuracy, kappa, sensitivity, specificity, tuple(undefined))


def roc(y_true: np.ndarray, scores: np.ndarray) -> np.ndarray:
    """ROC curve as an (k, 3) array of (threshold, fpr, tpr) rows.

    Thresholds are the unique scores in descending order, predicting
    positive at score >= threshold; tied scores move the curve in one step.
    A leading (+inf, 0, 0) row anchors the origin and the final row is
    always (min score, 1, 1).
    """
    yt = _as_binary(y_true, "labels")
    s = np.asarray(scores, dtype=np.float64)
    if s.shape != yt.shape:
        raise DatasetError("labels and scores differ in length")
    if not np.all(np.isfinite(s)):
        raise DatasetError("scores must be finite")
    pos = int(yt.sum())
    neg = yt.size - pos
    if pos == 0 or neg == 0:
        raise DatasetError("ROC needs both classes present")
    thresholds = np.unique(s)[::-1]
    tp, fp = _band_counts(yt, s, thresholds)
    return np.vstack([[math.inf, 0.0, 0.0], np.column_stack([thresholds, fp / neg, tp / pos])])


def auc(y_true: np.ndarray, scores: np.ndarray) -> float:
    """Area under the ROC curve by trapezoid over the grouped-tie curve.

    Equals the pair-counting statistic: the fraction of (positive,
    negative) pairs the score orders correctly, ties counting one half.
    """
    return _area(roc(y_true, scores))


def _area(curve: np.ndarray) -> float:
    """Trapezoid area under a :func:`roc` curve."""
    fpr, tpr = curve[:, 1], curve[:, 2]
    return float(np.sum(np.diff(fpr) * (tpr[1:] + tpr[:-1]) * 0.5))


# ---------------------------------------------------------------------------
# report bundles


@dataclass(frozen=True)
class ModelEvaluation:
    """Everything the report writer needs about one scored model."""

    name: str
    cm: ConfusionMatrix
    point_metrics: Metrics
    auc_value: float
    roc_points: np.ndarray
    importance: dict[str, float] = field(default_factory=dict)


def evaluate_scores(
    name: str,
    y_true: np.ndarray,
    scores: np.ndarray,
    importance: dict[str, float] | None = None,
) -> ModelEvaluation:
    """Score a model's probability outputs: positive iff score >= 0.5."""
    yt = _as_binary(y_true, "labels")
    s = np.asarray(scores, dtype=np.float64)
    cm = confusion(yt, s >= 0.5)
    curve = roc(yt, s)
    return ModelEvaluation(
        name=name,
        cm=cm,
        point_metrics=metrics(cm),
        auc_value=_area(curve),
        roc_points=curve,
        importance=dict(importance or {}),
    )


def _slug(name: str) -> str:
    return re.sub(r"[^a-z0-9]+", "_", name.lower()).strip("_")


def write_report(out_dir: str, evaluations: list[ModelEvaluation]) -> list[str]:
    """Write the evaluation bundle; returns the relative file names written.

    Layout: ``metrics.csv`` (metric rows x model columns), plus per model
    ``roc_<name>.csv`` (threshold,fpr,tpr), ``confusion_<name>.csv``, and
    ``importance_<name>.csv`` (feature,weight, descending) when importances
    are present. Names derive from the model name only, so reruns are
    byte-identical. ROC tables are formatted by column over the usable CPUs.
    """
    import os

    if not evaluations:
        raise DatasetError("nothing to report")
    names = [_slug(ev.name) for ev in evaluations]
    if len(set(names)) != len(names):
        raise DatasetError("model names collide after slugging")
    os.makedirs(out_dir, exist_ok=True)
    written: list[str] = []

    rows = {
        "Accuracy": [ev.point_metrics.accuracy for ev in evaluations],
        "Kappa": [ev.point_metrics.kappa for ev in evaluations],
        "Sensitivity": [ev.point_metrics.sensitivity for ev in evaluations],
        "Specificity": [ev.point_metrics.specificity for ev in evaluations],
        "AUC": [ev.auc_value for ev in evaluations],
    }
    write_table(
        os.path.join(out_dir, "metrics.csv"),
        ["metric", *names],
        ([metric, *values] for metric, values in rows.items()),
    )
    written.append("metrics.csv")

    for ev, slug in zip(evaluations, names):
        roc_name = f"roc_{slug}.csv"
        _write_blocks(os.path.join(out_dir, roc_name), "threshold,fpr,tpr", len(ev.roc_points),
                      lambda lo, hi: [map(repr, col) for col in ev.roc_points[lo:hi].T.tolist()])
        written.append(roc_name)

        cm_name = f"confusion_{slug}.csv"
        write_table(
            os.path.join(out_dir, cm_name),
            ["", "predicted_1", "predicted_0"],
            [["actual_1", ev.cm.tp, ev.cm.fn], ["actual_0", ev.cm.fp, ev.cm.tn]],
        )
        written.append(cm_name)

        if ev.importance:
            imp_name = f"importance_{slug}.csv"
            ordered = sorted(ev.importance.items(), key=lambda kv: (-kv[1], kv[0]))
            write_table(os.path.join(out_dir, imp_name), ["feature", "weight"], ordered)
            written.append(imp_name)
    return written
