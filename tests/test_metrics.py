"""Ranking and confusion metrics against brute-force oracles."""

import numpy as np
import pytest

from molpeco.checkpoints import write_csv
from molpeco.errors import UndefinedMetricError
from molpeco.metrics import (
    METRIC_NAMES,
    _average_ranks,
    balanced_accuracy,
    confusion_metrics,
    eval_report,
    macro_auroc,
    pr_auc,
    roc_auc,
)


def roc_auc_pairwise_oracle(scores, labels):
    """O(n^2) pairwise win probability with half credit for ties."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    total = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                total += 1.0
            elif p == q:
                total += 0.5
    return total / (len(pos) * len(neg))


def roc_auc_trapezoid_oracle(scores, labels):
    """Trapezoidal integration of the ROC curve over unique thresholds."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    n_pos = labels.sum()
    n_neg = len(labels) - n_pos
    points = [(0.0, 0.0)]
    for threshold in sorted(set(scores), reverse=True):
        predicted = scores >= threshold
        tpr = np.sum(predicted & (labels == 1)) / n_pos
        fpr = np.sum(predicted & (labels == 0)) / n_neg
        points.append((fpr, tpr))
    area = 0.0
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        area += (x1 - x0) * (y0 + y1) / 2.0
    return area


def pr_auc_threshold_oracle(scores, labels):
    """Recompute TP/FP from scratch at every unique threshold."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    n_pos = labels.sum()
    area = 0.0
    prev_recall = 0.0
    for threshold in sorted(set(scores), reverse=True):
        predicted = scores >= threshold
        tp = int(np.sum(predicted & (labels == 1)))
        fp = int(np.sum(predicted & (labels == 0)))
        recall = tp / n_pos
        precision = tp / (tp + fp)
        area += (recall - prev_recall) * precision
        prev_recall = recall
    return area


class TestRocAuc:
    def test_perfect_ranking(self):
        assert roc_auc([0.9, 0.1], [1, 0]) == 1.0

    def test_inverted_ranking(self):
        assert roc_auc([0.1, 0.9], [1, 0]) == 0.0

    def test_all_ties_give_half(self):
        assert roc_auc([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0]) == 0.5

    def test_matches_pairwise_oracle_on_random_instances(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = 50
            scores = np.round(rng.random(n), 2)  # rounded to force ties
            labels = rng.integers(0, 2, size=n)
            if labels.sum() in (0, n):
                labels[0] = 1 - labels[0]
            expected = roc_auc_pairwise_oracle(scores, labels)
            assert abs(roc_auc(scores, labels) - expected) <= 1e-12

    def test_matches_trapezoidal_integration(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            scores = np.round(rng.random(40), 2)
            labels = rng.integers(0, 2, size=40)
            if labels.sum() in (0, 40):
                labels[0] = 1 - labels[0]
            expected = roc_auc_trapezoid_oracle(scores, labels)
            assert abs(roc_auc(scores, labels) - expected) <= 1e-12

    def test_invariant_under_monotone_transforms(self):
        rng = np.random.default_rng(2)
        scores = rng.random(60)
        labels = rng.integers(0, 2, size=60)
        labels[0], labels[1] = 0, 1
        base = roc_auc(scores, labels)
        assert abs(roc_auc(np.exp(scores), labels) - base) <= 1e-12
        assert abs(roc_auc(3.0 * scores + 7.0, labels) - base) <= 1e-12

    def test_single_class_undefined(self):
        with pytest.raises(UndefinedMetricError):
            roc_auc([0.1, 0.9], [1, 1])

    def test_average_ranks_match_counting_oracle_exactly(self):
        # rank = 1 + (scores below) + (other scores tied) / 2, ties and
        # infinities included
        rng = np.random.default_rng(4)
        for _ in range(100):
            n = int(rng.integers(1, 40))
            scores = rng.choice([-np.inf, -1.0, 0.0, 0.25, 0.5, np.inf], size=n)
            below = (scores[None, :] < scores[:, None]).sum(axis=1)
            tied = (scores[None, :] == scores[:, None]).sum(axis=1) - 1
            assert np.array_equal(_average_ranks(scores), 1.0 + below + 0.5 * tied)


class TestPrAuc:
    def test_perfect_ranking_single_positive(self):
        assert pr_auc([0.9, 0.1], [1, 0]) == 1.0

    def test_all_equal_scores_baseline(self):
        assert abs(pr_auc([0.3] * 10, [1, 1, 1, 0, 0, 0, 0, 0, 0, 0]) - 0.3) <= 1e-12

    def test_matches_threshold_oracle_on_random_instances(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            scores = np.round(rng.random(50), 2)
            labels = rng.integers(0, 2, size=50)
            if labels.sum() == 0:
                labels[0] = 1
            expected = pr_auc_threshold_oracle(scores, labels)
            assert abs(pr_auc(scores, labels) - expected) <= 1e-12

    def test_sums_the_oracle_terms_in_the_same_order(self):
        # same terms, summed left to right: equal to the oracle bit for bit
        rng = np.random.default_rng(5)
        for _ in range(50):
            scores = rng.integers(0, 8, size=60) / 8.0
            labels = rng.integers(0, 2, size=60)
            labels[0] = 1
            assert pr_auc(scores, labels) == pr_auc_threshold_oracle(scores, labels)

    def test_no_positives_undefined(self):
        with pytest.raises(UndefinedMetricError):
            pr_auc([0.4, 0.6], [0, 0])


class TestConfusionMetrics:
    def test_perfect_predictions(self):
        out = confusion_metrics([0.9, 0.9, 0.1, 0.1], [1, 1, 0, 0])
        assert out == (1.0, 1.0, 1.0, 1.0)

    def test_all_negative_predictions_on_balanced_labels(self):
        out = confusion_metrics([0.1, 0.2, 0.3, 0.4], [1, 0, 1, 0])
        assert out.recall == 0.0
        assert out.specificity == 1.0
        assert out.accuracy == 0.5

    def test_hand_counted_case(self):
        # TP=2, FP=1, FN=1, TN=6
        scores = [0.9, 0.8, 0.7, 0.2, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1]
        labels = [1, 1, 0, 1, 0, 0, 0, 0, 0, 0]
        out = confusion_metrics(scores, labels, threshold=0.5)
        assert abs(out.precision - 2 / 3) <= 1e-15
        assert abs(out.recall - 2 / 3) <= 1e-15
        assert abs(out.specificity - 6 / 7) <= 1e-15
        assert abs(out.accuracy - (2 / 3 + 6 / 7) / 2) <= 1e-15

    def test_balanced_accuracy_matches_reported_trade_off(self):
        # recall 0.827 with specificity 0.625 averages to 0.726 exactly
        assert balanced_accuracy(0.827, 0.625) == 0.726


class TestMacroAggregation:
    def test_random_scores_concentrate_near_half(self):
        rng = np.random.default_rng(4)
        values = []
        for _ in range(100):
            scores = rng.random((40, 3))
            targets = rng.integers(0, 2, size=(40, 3))
            targets[0], targets[1] = 0, 1  # both classes guaranteed
            values.append(macro_auroc(scores, targets))
        assert abs(float(np.mean(values)) - 0.5) <= 0.05

    def test_report_row_count_and_consistency(self):
        rng = np.random.default_rng(5)
        scores = rng.random((30, 4))
        targets = rng.integers(0, 2, size=(30, 4))
        targets[:, 3] = 0  # single-class descriptor
        targets[0, :3] = 1
        targets[1, :3] = 0
        report = eval_report(scores, targets, ["a", "b", "c", "d"])
        assert len(report.per_descriptor) == 4
        assert report.per_descriptor["d"]["auroc"] is None
        # macro equals recomputation from single-descriptor calls
        for metric, recompute in [("auroc", roc_auc), ("auprc", pr_auc)]:
            values = [recompute(scores[:, col], targets[:, col]) for col in range(3)]
            assert abs(report.macro[metric] - float(np.mean(values))) <= 1e-12

    def test_all_tie_scores_give_half_auroc(self):
        scores = np.full((20, 2), 0.5)
        targets = np.zeros((20, 2), dtype=int)
        targets[:7] = 1
        report = eval_report(scores, targets, ["x", "y"])
        assert report.per_descriptor["x"]["auroc"] == 0.5
        assert report.per_descriptor["y"]["auroc"] == 0.5

    def test_json_and_csv_shapes(self, tmp_path):
        rng = np.random.default_rng(6)
        scores = rng.random((10, 2))
        targets = rng.integers(0, 2, size=(10, 2))
        targets[0], targets[1] = 1, 0
        report = eval_report(scores, targets, ["x", "y"])
        rows = [*report.per_descriptor.items(), ("macro", report.macro)]
        write_csv(tmp_path / "report.csv", "abc", ("descriptor", *METRIC_NAMES),
                  ([name, *(metrics[m] for m in METRIC_NAMES)] for name, metrics in rows))
        lines = (tmp_path / "report.csv").read_text().strip().split("\n")
        assert lines[0] == "# config_hash=abc"
        assert lines[1].startswith("descriptor,auroc,")
        assert len(lines) == 2 + 2 + 1  # comment, header, two descriptors, macro
        payload = report.to_json(config_hash="abc")
        assert '"config_hash": "abc"' in payload
