"""Unit tests for classification metrics."""

import numpy as np
import pytest

from repro.exceptions import DataError
from repro.learn.metrics import (
    accuracy,
    brier_score,
    confusion_matrix,
    f1_score,
    log_loss,
    mean_absolute_error,
    mean_squared_error,
    precision,
    recall,
    roc_auc,
    roc_curve,
)

Y_TRUE = np.array([1, 1, 0, 0, 1, 0], dtype=float)
Y_PRED = np.array([1, 0, 0, 1, 1, 0], dtype=float)


def test_confusion_counts():
    cm = confusion_matrix(Y_TRUE, Y_PRED)
    assert (cm.tp, cm.fp, cm.tn, cm.fn) == (2, 1, 2, 1)
    assert cm.n == 6
    assert cm.accuracy == pytest.approx(4 / 6)
    assert cm.precision == pytest.approx(2 / 3)
    assert cm.recall == pytest.approx(2 / 3)
    assert cm.false_positive_rate == pytest.approx(1 / 3)
    assert cm.false_negative_rate == pytest.approx(1 / 3)
    assert cm.selection_rate == pytest.approx(0.5)


def test_scalar_metrics():
    assert accuracy(Y_TRUE, Y_PRED) == pytest.approx(4 / 6)
    assert precision(Y_TRUE, Y_PRED) == pytest.approx(2 / 3)
    assert recall(Y_TRUE, Y_PRED) == pytest.approx(2 / 3)
    assert f1_score(Y_TRUE, Y_PRED) == pytest.approx(2 / 3)


def test_degenerate_precision_is_zero():
    cm = confusion_matrix(np.array([1.0, 0.0]), np.array([0.0, 0.0]))
    assert cm.precision == 0.0
    assert cm.f1 == 0.0


def test_auc_perfect_and_random():
    y = np.array([0, 0, 1, 1], dtype=float)
    assert roc_auc(y, np.array([0.1, 0.2, 0.8, 0.9])) == 1.0
    assert roc_auc(y, np.array([0.9, 0.8, 0.2, 0.1])) == 0.0
    assert roc_auc(y, np.array([0.5, 0.5, 0.5, 0.5])) == 0.5


def test_auc_handles_ties_with_midranks():
    y = np.array([0, 1, 0, 1], dtype=float)
    scores = np.array([0.3, 0.3, 0.1, 0.9])
    # Pairs: (0.3 vs 0.3)=0.5, (0.3 vs 0.9)=1, (0.1 vs 0.3)=1, (0.1 vs 0.9)=1
    assert roc_auc(y, scores) == pytest.approx(3.5 / 4)


def test_auc_requires_both_classes():
    with pytest.raises(DataError):
        roc_auc(np.ones(4), np.linspace(0, 1, 4))


def _loop_roc_auc(y_true, scores):
    """The historical midrank ``while`` loop, kept as the reference."""
    y_true = np.asarray(y_true, dtype=np.float64)
    scores = np.asarray(scores, dtype=np.float64)
    n_pos = int(np.sum(y_true == 1.0))
    n_neg = len(y_true) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise DataError("ROC AUC requires both classes present")
    order = np.argsort(scores, kind="stable")
    ranks = np.empty(len(scores), dtype=np.float64)
    sorted_scores = scores[order]
    index = 0
    while index < len(scores):
        tie_end = index
        while (tie_end + 1 < len(scores)
               and sorted_scores[tie_end + 1] == sorted_scores[index]):
            tie_end += 1
        midrank = 0.5 * (index + tie_end) + 1.0
        ranks[order[index:tie_end + 1]] = midrank
        index = tie_end + 1
    positive_rank_sum = ranks[y_true == 1.0].sum()
    return float(
        (positive_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)
    )


def _scores(kind, n, g):
    scores = g.random(n)
    if kind == "tied":
        return np.round(scores, 2)
    if kind == "three_level":
        return g.integers(0, 3, n).astype(np.float64)
    if kind == "inf":
        scores = np.round(scores, 1)
        scores[g.random(n) < 0.2] = np.inf
        scores[g.random(n) < 0.2] = -np.inf
    elif kind == "nan":
        scores[g.random(n) < 0.1] = np.nan
    return scores


def _labels(n, g):
    y = (g.random(n) < 0.3).astype(np.float64)
    y[:2] = [0.0, 1.0]  # both classes even at n=2
    return y


SCORE_KINDS = ["continuous", "tied", "three_level", "inf", "nan"]


@pytest.mark.parametrize("kind", SCORE_KINDS)
@pytest.mark.parametrize("n", [2, 3, 100, 12_000])
def test_auc_bit_identical_to_midrank_loop(kind, n):
    g = np.random.default_rng(n)
    y = _labels(n, g)
    scores = _scores(kind, n, g)
    assert roc_auc(y, scores) == _loop_roc_auc(y, scores)


def test_auc_merges_infinite_ties():
    # inf - inf is NaN: a diff-based run split would separate these.
    y = np.array([0.0, 1.0, 0.0, 1.0])
    scores = np.array([np.inf, np.inf, -np.inf, -np.inf])
    assert roc_auc(y, scores) == 0.5 == _loop_roc_auc(y, scores)


def _per_row_auc(y, scores, indices):
    out = []
    for row in indices:
        try:
            out.append(roc_auc(y[row], scores[row]))
        except DataError:
            out.append(np.nan)
    return np.array(out)


@pytest.mark.parametrize("kind", SCORE_KINDS)
@pytest.mark.parametrize("n", [2, 3, 100, 2_000])
def test_auc_resamples_match_per_row_auc(kind, n):
    g = np.random.default_rng(n + 1)
    y = _labels(n, g)
    scores = _scores(kind, n, g)
    indices = g.integers(0, n, size=(50, n))
    batched = roc_auc.resamples(y, scores, indices)
    assert np.array_equal(batched, _per_row_auc(y, scores, indices),
                          equal_nan=True)


def test_auc_resamples_mark_single_class_rows_nan():
    y = np.array([1.0] + [0.0] * 7)
    scores = np.linspace(0.0, 1.0, 8)
    indices = np.array([[1, 2, 3, 4, 5, 6, 7, 1], [0, 1, 2, 3, 4, 5, 6, 7]])
    batched = roc_auc.resamples(y, scores, indices)
    assert np.isnan(batched[0])
    assert batched[1] == roc_auc(y, scores)


def test_accuracy_resamples_match_per_row_accuracy():
    g = np.random.default_rng(7)
    y = (g.random(300) < 0.4).astype(np.float64)
    y_pred = (g.random(300) < 0.5).astype(np.float64)
    indices = g.integers(0, 300, size=(40, 300))
    expected = np.array([accuracy(y[row], y_pred[row]) for row in indices])
    assert np.array_equal(accuracy.resamples(y, y_pred, indices), expected)


def test_roc_curve_endpoints():
    y = np.array([0, 0, 1, 1], dtype=float)
    scores = np.array([0.1, 0.4, 0.35, 0.8])
    fpr, tpr, thresholds = roc_curve(y, scores)
    assert fpr[0] == 0.0 and tpr[0] == 0.0
    assert fpr[-1] == 1.0 and tpr[-1] == 1.0
    assert np.all(np.diff(fpr) >= 0)
    assert np.all(np.diff(tpr) >= 0)
    assert thresholds[0] == np.inf


def test_log_loss_and_brier():
    y = np.array([1.0, 0.0])
    good = np.array([0.9, 0.1])
    bad = np.array([0.1, 0.9])
    assert log_loss(y, good) < log_loss(y, bad)
    assert brier_score(y, good) == pytest.approx(0.01)
    # Log loss never infinite thanks to clipping.
    assert np.isfinite(log_loss(y, np.array([1.0, 0.0])))


def test_regression_metrics():
    y = np.array([1.0, 2.0, 3.0])
    pred = np.array([1.0, 2.5, 2.0])
    assert mean_squared_error(y, pred) == pytest.approx((0 + 0.25 + 1.0) / 3)
    assert mean_absolute_error(y, pred) == pytest.approx(0.5)


def test_metric_input_validation():
    with pytest.raises(DataError):
        accuracy(np.array([1.0]), np.array([1.0, 0.0]))
    with pytest.raises(DataError):
        accuracy(np.array([]), np.array([]))
