"""Multi-label evaluation metrics.

AUROC follows the Mann-Whitney statistic (pairwise win probability with
half credit for ties), AUPRC is stepwise average precision over descending
unique thresholds, and "accuracy" is balanced accuracy, i.e. the mean of
recall and specificity. Descriptors whose evaluated split contains only
one class are undefined and excluded from macro means.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .errors import UndefinedMetricError

METRIC_NAMES = ("auroc", "auprc", "precision", "recall", "specificity", "accuracy")


def _validate(scores, labels) -> tuple[np.ndarray, np.ndarray]:
    scores = np.asarray(scores, dtype=np.float64).reshape(-1)
    labels = np.asarray(labels).reshape(-1)
    if scores.shape != labels.shape:
        raise ValueError(f"{scores.shape[0]} scores vs {labels.shape[0]} labels")
    if not np.all((labels == 0) | (labels == 1)):
        raise ValueError("labels must be binary")
    return scores, labels.astype(np.int64)


def _run_ends(values: np.ndarray) -> np.ndarray:
    """Index of the last element of every run of equal adjacent values."""
    return np.flatnonzero(np.append(values[1:] != values[:-1], True))


def _average_ranks(scores: np.ndarray) -> np.ndarray:
    """1-based ranks, ties sharing the average of their rank range."""
    order = np.argsort(scores, kind="stable")
    ends = _run_ends(scores[order])
    starts = np.append(0, ends[:-1] + 1)
    ranks = np.empty(scores.shape[0], dtype=np.float64)
    ranks[order] = np.repeat(0.5 * (starts + ends) + 1.0, ends - starts + 1)
    return ranks


def roc_auc(scores, labels) -> float:
    """Area under the ROC curve: P(score_pos > score_neg) + P(tie) / 2."""
    scores, labels = _validate(scores, labels)
    n_pos = int(labels.sum())
    n_neg = labels.shape[0] - n_pos
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError(
            f"AUROC undefined with {n_pos} positives and {n_neg} negatives"
        )
    ranks = _average_ranks(scores)
    pos_rank_sum = float(ranks[labels == 1].sum())
    return (pos_rank_sum - 0.5 * n_pos * (n_pos + 1)) / (n_pos * n_neg)


def pr_auc(scores, labels) -> float:
    """Average precision: precision summed at each recall increment over
    descending unique score thresholds."""
    scores, labels = _validate(scores, labels)
    n_pos = int(labels.sum())
    if n_pos == 0:
        raise UndefinedMetricError("AUPRC undefined without positives")
    order = np.argsort(-scores, kind="stable")
    ends = _run_ends(scores[order])
    tp = np.cumsum(labels[order])[ends]
    recall = tp / n_pos
    precision = tp / (ends + 1)
    # cumsum adds left to right, as the stepwise definition does; np.sum
    # would add the terms pairwise and round differently
    return float(np.cumsum(np.diff(recall, prepend=0.0) * precision)[-1])


class ConfusionMetrics(NamedTuple):
    precision: float
    recall: float
    specificity: float
    accuracy: float


def balanced_accuracy(recall: float, specificity: float) -> float:
    return (recall + specificity) / 2.0


def confusion_metrics(scores, labels, threshold: float = 0.5) -> ConfusionMetrics:
    """Threshold the scores and report precision, recall, specificity, and
    balanced accuracy. Ratios with a zero denominator come back as 0."""
    scores, labels = _validate(scores, labels)
    predicted = scores >= threshold
    actual = labels == 1
    tp = int(np.sum(predicted & actual))
    fp = int(np.sum(predicted & ~actual))
    fn = int(np.sum(~predicted & actual))
    tn = int(np.sum(~predicted & ~actual))
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    specificity = tn / (tn + fp) if tn + fp else 0.0
    return ConfusionMetrics(precision, recall, specificity,
                            balanced_accuracy(recall, specificity))


@dataclass
class EvalReport:
    """Per-descriptor and macro-averaged metrics for one split.

    ``per_descriptor[name][metric]`` is None when the descriptor had a
    single class in the split; macro values average only the defined
    descriptors.
    """

    per_descriptor: dict[str, dict[str, Optional[float]]]
    macro: dict[str, Optional[float]]
    threshold: float

    def to_json(self, config_hash: Optional[str] = None) -> str:
        payload: dict = {}
        if config_hash is not None:
            payload["config_hash"] = config_hash
        payload.update({descriptor: metrics
                        for descriptor, metrics in self.per_descriptor.items()})
        payload["macro"] = self.macro
        payload["threshold"] = self.threshold
        return json.dumps(payload, indent=2, sort_keys=True)


def eval_report(score_matrix: np.ndarray, target_matrix: np.ndarray,
                descriptors, threshold: float = 0.5) -> EvalReport:
    """Build an EvalReport from per-molecule score and binary target
    matrices (rows: molecules, columns: descriptors)."""
    scores = np.asarray(score_matrix, dtype=np.float64)
    targets = np.asarray(target_matrix)
    if scores.shape != targets.shape or scores.shape[1] != len(descriptors):
        raise ValueError(
            f"scores {scores.shape}, targets {targets.shape}, "
            f"{len(descriptors)} descriptors"
        )
    per_descriptor: dict[str, dict[str, Optional[float]]] = {}
    for col, name in enumerate(descriptors):
        col_scores = scores[:, col]
        col_labels = targets[:, col]
        n_pos = int(col_labels.sum())
        if n_pos == 0 or n_pos == col_labels.shape[0]:
            per_descriptor[name] = {metric: None for metric in METRIC_NAMES}
            continue
        conf = confusion_metrics(col_scores, col_labels, threshold)
        per_descriptor[name] = {
            "auroc": roc_auc(col_scores, col_labels),
            "auprc": pr_auc(col_scores, col_labels),
            "precision": conf.precision,
            "recall": conf.recall,
            "specificity": conf.specificity,
            "accuracy": conf.accuracy,
        }
    macro: dict[str, Optional[float]] = {}
    for metric in METRIC_NAMES:
        defined = [m[metric] for m in per_descriptor.values() if m[metric] is not None]
        macro[metric] = float(np.mean(defined)) if defined else None
    return EvalReport(per_descriptor, macro, threshold)


def macro_auroc(score_matrix: np.ndarray, target_matrix: np.ndarray) -> float:
    """Unweighted mean AUROC over descriptors with both classes present;
    0.5 when no descriptor is defined (uninformative default)."""
    scores = np.asarray(score_matrix, dtype=np.float64)
    targets = np.asarray(target_matrix)
    values = []
    for col in range(scores.shape[1]):
        try:
            values.append(roc_auc(scores[:, col], targets[:, col]))
        except UndefinedMetricError:
            continue
    return float(np.mean(values)) if values else 0.5
