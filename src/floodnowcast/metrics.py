"""Multi-class evaluation: confusion matrix, macro precision/recall/F1, accuracy.

Per-class precision, recall and F1 are aggregated by an unweighted mean over
all M classes (macro averaging), which keeps minority flood classes visible
in imbalanced data. Undefined per-class ratios (0/0) are scored 0, the
pessimistic convention, and an absent class still counts in the macro mean.
Accuracy is the confusion-matrix trace over the total.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import UsageError
from .pipeline import N_CLASSES

__all__ = ["ConfusionMatrix", "MetricsReport", "confusion", "macro_metrics"]


@dataclass(frozen=True)
class ConfusionMatrix:
    """Integer counts; rows are true classes, columns predicted classes."""

    counts: np.ndarray

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def support(self) -> np.ndarray:
        return self.counts.sum(axis=1)

    def to_csv(self, path: str | Path) -> None:
        m = self.counts.shape[0]
        with open(path, "w") as fh:
            fh.write("true\\pred," + ",".join(str(j) for j in range(m)) + "\n")
            for i in range(m):
                fh.write(str(i) + "," + ",".join(str(int(v)) for v in self.counts[i]) + "\n")


@dataclass(frozen=True)
class MetricsReport:
    """Per-class and macro-averaged classification scores."""

    precision: tuple[float, ...]
    recall: tuple[float, ...]
    f1: tuple[float, ...]
    macro_precision: float
    macro_recall: float
    macro_f1: float
    accuracy: float
    support: tuple[int, ...]

    def to_dict(self) -> dict:
        return {
            "per_class": {
                "precision": list(self.precision),
                "recall": list(self.recall),
                "f1": list(self.f1),
                "support": list(self.support),
            },
            "macro_precision": self.macro_precision,
            "macro_recall": self.macro_recall,
            "macro_f1": self.macro_f1,
            "accuracy": self.accuracy,
        }

    def to_json(self, path: str | Path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")


def confusion(preds, labels) -> ConfusionMatrix:
    """Count (true, predicted) pairs into an ``N_CLASSES`` x ``N_CLASSES`` matrix."""
    preds = np.asarray(preds).ravel()
    labels = np.asarray(labels).ravel()
    if preds.shape != labels.shape:
        raise UsageError(f"preds {preds.shape} and labels {labels.shape} differ in length")
    counts = np.zeros((N_CLASSES, N_CLASSES), dtype=np.int64)
    if preds.size:
        if min(preds.min(), labels.min()) < 0 or max(preds.max(), labels.max()) >= N_CLASSES:
            raise UsageError(f"classes must lie in [0, {N_CLASSES})")
        np.add.at(counts, (labels.astype(int), preds.astype(int)), 1)
    return ConfusionMatrix(counts=counts)


def macro_metrics(cm: ConfusionMatrix) -> MetricsReport:
    """Precision/recall/F1 per class plus macro means and accuracy."""
    counts = cm.counts
    if counts.sum() == 0:
        raise UsageError("empty confusion matrix")
    m = counts.shape[0]
    tp = np.diag(counts).astype(float)
    fp = counts.sum(axis=0) - tp
    fn = counts.sum(axis=1) - tp

    def safe(num, den):
        return float(num / den) if den > 0 else 0.0

    precision = tuple(safe(tp[i], tp[i] + fp[i]) for i in range(m))
    recall = tuple(safe(tp[i], tp[i] + fn[i]) for i in range(m))
    f1 = tuple(safe(2.0 * precision[i] * recall[i], precision[i] + recall[i])
               for i in range(m))
    return MetricsReport(
        precision=precision,
        recall=recall,
        f1=f1,
        macro_precision=float(sum(precision) / m),
        macro_recall=float(sum(recall) / m),
        macro_f1=float(sum(f1) / m),
        accuracy=float(tp.sum() / counts.sum()),
        support=tuple(int(v) for v in cm.support()),
    )
