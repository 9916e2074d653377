"""Classification and regression metrics.

These are the raw ingredients; the accuracy pillar wraps them with
uncertainty (bootstrap CIs, conformal sets) because §2-Q2 demands
"meta-information on the accuracy of the output", not point scores alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import DataError


def _check_pair(y_true, y_other) -> tuple[np.ndarray, np.ndarray]:
    y_true = np.asarray(y_true, dtype=np.float64)
    y_other = np.asarray(y_other, dtype=np.float64)
    if y_true.shape != y_other.shape or y_true.ndim != 1:
        raise DataError(
            f"inputs must be equal-length 1-D arrays, got {y_true.shape} and {y_other.shape}"
        )
    if len(y_true) == 0:
        raise DataError("metric inputs are empty")
    return y_true, y_other


@dataclass(frozen=True)
class ConfusionMatrix:
    """Binary confusion counts and the rates derived from them."""

    tp: int
    fp: int
    tn: int
    fn: int

    @property
    def n(self) -> int:
        """Total examples."""
        return self.tp + self.fp + self.tn + self.fn

    @property
    def accuracy(self) -> float:
        """Fraction of correct decisions."""
        return (self.tp + self.tn) / self.n if self.n else 0.0

    @property
    def precision(self) -> float:
        """TP / predicted positives (0 when nothing was predicted positive)."""
        denominator = self.tp + self.fp
        return self.tp / denominator if denominator else 0.0

    @property
    def recall(self) -> float:
        """True positive rate."""
        denominator = self.tp + self.fn
        return self.tp / denominator if denominator else 0.0

    @property
    def false_positive_rate(self) -> float:
        """FP / actual negatives."""
        denominator = self.fp + self.tn
        return self.fp / denominator if denominator else 0.0

    @property
    def false_negative_rate(self) -> float:
        """FN / actual positives."""
        denominator = self.tp + self.fn
        return self.fn / denominator if denominator else 0.0

    @property
    def f1(self) -> float:
        """Harmonic mean of precision and recall."""
        p, r = self.precision, self.recall
        return 2.0 * p * r / (p + r) if (p + r) else 0.0

    @property
    def selection_rate(self) -> float:
        """Fraction predicted positive (the fairness base quantity)."""
        return (self.tp + self.fp) / self.n if self.n else 0.0


def confusion_matrix(y_true, y_pred) -> ConfusionMatrix:
    """Count TP/FP/TN/FN for 0/1 arrays."""
    y_true, y_pred = _check_pair(y_true, y_pred)
    tp = int(np.sum((y_true == 1.0) & (y_pred == 1.0)))
    fp = int(np.sum((y_true == 0.0) & (y_pred == 1.0)))
    tn = int(np.sum((y_true == 0.0) & (y_pred == 0.0)))
    fn = int(np.sum((y_true == 1.0) & (y_pred == 0.0)))
    return ConfusionMatrix(tp=tp, fp=fp, tn=tn, fn=fn)


#: Elements per temporary in the blocked resample kernels: large enough
#: to amortise NumPy call overhead, small enough to stay in cache and
#: off the process's peak RSS.
_BLOCK_ELEMENTS = 1 << 16


def _row_blocks(indices: np.ndarray, row_elements: int):
    """``(start, rows)`` slices of ``indices`` of about
    :data:`_BLOCK_ELEMENTS` elements, given each row's temporary size."""
    block = max(1, _BLOCK_ELEMENTS // max(1, row_elements))
    for start in range(0, len(indices), block):
        yield start, indices[start:start + block]


def accuracy(y_true, y_pred) -> float:
    """Fraction of exact matches."""
    y_true, y_pred = _check_pair(y_true, y_pred)
    return float(np.mean(y_true == y_pred))


def _accuracy_resamples(y_true, y_pred, indices) -> np.ndarray:
    """:func:`accuracy` of every row of ``indices`` at once.

    Each row's match count is an exact integer, so ``count / n`` is the
    same correctly rounded quotient ``np.mean`` returns per row.
    """
    y_true, y_pred = _check_pair(y_true, y_pred)
    correct = (y_true == y_pred).astype(np.int64)
    indices = np.asarray(indices)
    out = np.empty(len(indices), dtype=np.float64)
    for start, rows in _row_blocks(indices, indices.shape[1]):
        out[start:start + len(rows)] = (correct[rows].sum(axis=1)
                                        / indices.shape[1])
    return out


accuracy.resamples = _accuracy_resamples


def precision(y_true, y_pred) -> float:
    """Positive predictive value."""
    return confusion_matrix(y_true, y_pred).precision


def recall(y_true, y_pred) -> float:
    """True positive rate."""
    return confusion_matrix(y_true, y_pred).recall


def f1_score(y_true, y_pred) -> float:
    """Harmonic mean of precision and recall."""
    return confusion_matrix(y_true, y_pred).f1


def _tie_runs(sorted_scores: np.ndarray) -> np.ndarray:
    """Start offsets of the runs of equal values, plus the end offset.

    ``!=`` rather than ``np.diff``: ``inf - inf`` is NaN, so a diff would
    split runs of ``±inf`` that compare equal; NaNs never compare equal,
    so each one is a run of its own.
    """
    starts = np.flatnonzero(sorted_scores[1:] != sorted_scores[:-1]) + 1
    return np.concatenate(([0], starts, [len(sorted_scores)]))


def _auc_from_rank_sum(positive_rank_sum, n_pos, n_neg):
    """The Mann-Whitney AUC; one expression for every path, so their
    floats agree bit for bit."""
    return (positive_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def roc_auc(y_true, scores) -> float:
    """Area under the ROC curve via the rank (Mann-Whitney) formulation.

    Ties in the scores receive the usual midrank treatment.  Midranks
    are half-integers, so the positive-rank sum is exact in float64 in
    any summation order.  ``roc_auc.resamples`` evaluates many bootstrap
    resamples in one batched kernel (see :func:`bootstrap_paired_ci`).
    """
    y_true, scores = _check_pair(y_true, scores)
    n_pos = int(np.sum(y_true == 1.0))
    n_neg = len(y_true) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise DataError("ROC AUC requires both classes present")
    order = np.argsort(scores, kind="stable")
    runs = _tie_runs(scores[order])
    midranks = np.repeat(0.5 * (runs[:-1] + runs[1:] - 1) + 1.0,
                         np.diff(runs))
    positive_rank_sum = midranks[y_true[order] == 1.0].sum()
    return float(_auc_from_rank_sum(positive_rank_sum, n_pos, n_neg))


def _roc_auc_resamples(y_true, scores, indices) -> np.ndarray:
    """:func:`roc_auc` of every row of ``indices``; NaN where it raises.

    The scores are sorted once and each original row gets the id of its
    tie group.  A resample's midranks then follow from how many of its
    rows fall in each group: a group of ``count`` rows after ``before``
    smaller ones has twice-midrank ``2*before + count + 1``, an integer,
    so the positive-rank sum is exact and the AUC comes from the same
    float expression as :func:`roc_auc`.  NaN scores rank by their
    position within each resample, which no tie group can express, so
    those inputs are evaluated row by row.
    """
    y_true, scores = _check_pair(y_true, scores)
    indices = np.asarray(indices)
    if np.isnan(scores).any():
        return np.array([_auc_or_nan(y_true[row], scores[row])
                         for row in indices], dtype=np.float64)
    order = np.argsort(scores, kind="stable")
    runs = _tie_runs(scores[order])
    n_groups = len(runs) - 1
    group = np.empty(len(scores), dtype=np.int64)
    group[order] = np.repeat(np.arange(n_groups), np.diff(runs))
    positive = y_true == 1.0
    width = indices.shape[1]
    out = np.empty(len(indices), dtype=np.float64)
    for start, rows in _row_blocks(indices, max(n_groups, width)):
        size = len(rows)
        cells = (group[rows]
                 + n_groups * np.arange(size, dtype=np.int64)[:, None])
        count = np.bincount(cells.ravel(), minlength=size * n_groups
                            ).reshape(size, n_groups)
        pos = np.bincount(cells[positive[rows]], minlength=size * n_groups
                          ).reshape(size, n_groups)
        before = np.cumsum(count, axis=1) - count
        twice_rank_sum = (pos * (2 * before + count + 1)).sum(axis=1)
        n_pos = pos.sum(axis=1)
        n_neg = width - n_pos
        with np.errstate(divide="ignore", invalid="ignore"):
            auc = _auc_from_rank_sum(0.5 * twice_rank_sum, n_pos, n_neg)
        auc[(n_pos == 0) | (n_neg == 0)] = np.nan
        out[start:start + size] = auc
    return out


def _auc_or_nan(y_true, scores) -> float:
    try:
        return roc_auc(y_true, scores)
    except DataError:
        return float("nan")


roc_auc.resamples = _roc_auc_resamples


def roc_curve(y_true, scores) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(fpr, tpr, thresholds) sweeping the decision threshold downward."""
    y_true, scores = _check_pair(y_true, scores)
    order = np.argsort(-scores, kind="stable")
    sorted_true = y_true[order]
    sorted_scores = scores[order]
    n_pos = sorted_true.sum()
    n_neg = len(sorted_true) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise DataError("ROC curve requires both classes present")
    tps = np.cumsum(sorted_true)
    fps = np.cumsum(1.0 - sorted_true)
    distinct = np.append(np.flatnonzero(np.diff(sorted_scores)), len(scores) - 1)
    tpr = np.concatenate([[0.0], tps[distinct] / n_pos])
    fpr = np.concatenate([[0.0], fps[distinct] / n_neg])
    thresholds = np.concatenate([[np.inf], sorted_scores[distinct]])
    return fpr, tpr, thresholds


def log_loss(y_true, probabilities) -> float:
    """Mean negative log-likelihood of the true labels."""
    y_true, probabilities = _check_pair(y_true, probabilities)
    eps = 1e-12
    clipped = np.clip(probabilities, eps, 1.0 - eps)
    return float(-np.mean(
        y_true * np.log(clipped) + (1.0 - y_true) * np.log(1.0 - clipped)
    ))


def brier_score(y_true, probabilities) -> float:
    """Mean squared error of the probabilities."""
    y_true, probabilities = _check_pair(y_true, probabilities)
    return float(np.mean((probabilities - y_true) ** 2))


def mean_squared_error(y_true, y_pred) -> float:
    """Mean squared regression error."""
    y_true, y_pred = _check_pair(y_true, y_pred)
    return float(np.mean((y_true - y_pred) ** 2))


def mean_absolute_error(y_true, y_pred) -> float:
    """Mean absolute regression error."""
    y_true, y_pred = _check_pair(y_true, y_pred)
    return float(np.mean(np.abs(y_true - y_pred)))
