"""Group fairness metrics (Q1).

All metrics operate on three aligned arrays — true labels, predicted
labels (or scores), and group membership — and report both per-group
values and the worst-case disparity across groups.  Conventions:

* *difference* metrics are ``max(group values) - min(group values)``
  (0 is perfectly fair);
* *ratio* metrics are ``min / max`` (1 is perfectly fair; the US EEOC
  "four-fifths rule" flags ratios below 0.8).

Each metric factorizes the group column once (:func:`factorize_groups`)
and selects every group's rows by integer code; :class:`GroupCodes`
may be passed as ``group`` to share one factorization between metrics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import FairnessError
from repro.learn.metrics import ConfusionMatrix, confusion_matrix


@dataclass(frozen=True)
class GroupCodes:
    """One factorization of a group column: sorted values + row codes.

    ``values`` is ``np.unique`` of the column as given (the original
    group objects — never cast to a numpy string dtype, which would drop
    trailing NULs and merge ``"a"`` with ``"a\\x00"``); ``codes[i]`` is
    the position of row ``i``'s value in ``values``.  A value unequal to
    itself (NaN, NaT) matches no row — as ``group == value`` never does
    — so its rows carry code ``-1``.  Every metric here reads its
    per-group rows off these integer codes; pass a ``GroupCodes`` as
    ``group`` to share one factorization between several metrics.
    """

    values: np.ndarray
    codes: np.ndarray

    @property
    def shape(self) -> tuple:
        """The factorized column's shape."""
        return self.codes.shape

    def masks(self):
        """``(value, row mask)`` per group, in sorted-value order."""
        for code, value in enumerate(self.values):
            yield value, self.codes == code

    def sizes(self) -> np.ndarray:
        """Rows per group, aligned with ``values``."""
        return np.bincount(self.codes[self.codes >= 0],
                           minlength=len(self.values))


def factorize_groups(group) -> GroupCodes:
    """The :class:`GroupCodes` of ``group`` (codes shaped like it)."""
    if isinstance(group, GroupCodes):
        return group
    array = np.asarray(group)
    values, codes = np.unique(array, return_inverse=True)
    codes = codes.reshape(array.shape)
    if values.dtype.kind in "fcmMO":
        unmatched = np.asarray(values != values, dtype=bool)
        if unmatched.any():
            codes = np.where(unmatched[codes], -1, codes)
    return GroupCodes(values, codes)


def _check_inputs(y_pred, group, y_true=None):
    y_pred = np.asarray(y_pred, dtype=np.float64)
    if not isinstance(group, GroupCodes):
        group = np.asarray(group)
    if y_pred.shape != group.shape or y_pred.ndim != 1:
        raise FairnessError(
            f"predictions {y_pred.shape} and groups {group.shape} must be aligned 1-D arrays"
        )
    if len(y_pred) == 0:
        raise FairnessError("fairness metrics need at least one example")
    if y_true is not None:
        y_true = np.asarray(y_true, dtype=np.float64)
        if y_true.shape != y_pred.shape:
            raise FairnessError("y_true and y_pred must be aligned")
    groups = factorize_groups(group)
    if len(groups.values) < 2:
        raise FairnessError(
            f"need at least two groups, found {groups.values.tolist()}"
        )
    return y_pred, groups, y_true


@dataclass(frozen=True)
class GroupRates:
    """Per-group confusion-derived rates for one protected attribute."""

    groups: tuple
    confusions: dict[object, ConfusionMatrix]

    def per_group(self, attribute: str) -> dict[object, float]:
        """One confusion-matrix property per group."""
        return {
            group: getattr(cm, attribute)
            for group, cm in self.confusions.items()
        }

    def difference(self, attribute: str) -> float:
        """max - min of one rate across groups."""
        values = list(self.per_group(attribute).values())
        return float(max(values) - min(values))

    def ratio(self, attribute: str) -> float:
        """min / max of one rate across groups (1.0 when max is 0)."""
        values = list(self.per_group(attribute).values())
        top = max(values)
        if top == 0.0:
            return 1.0
        return float(min(values) / top)


def group_rates(y_true, y_pred, group) -> GroupRates:
    """Confusion matrices per group."""
    y_pred, groups, y_true = _check_inputs(y_pred, group, y_true)
    confusions = {
        value: confusion_matrix(y_true[mask], y_pred[mask])
        for value, mask in groups.masks()
    }
    return GroupRates(tuple(groups.values.tolist()), confusions)


def selection_rates(y_pred, group) -> dict[object, float]:
    """Fraction predicted positive, per group."""
    y_pred, groups, _ = _check_inputs(y_pred, group)
    return {
        value: float(np.mean(y_pred[mask]))
        for value, mask in groups.masks()
    }


def statistical_parity_difference(y_pred, group) -> float:
    """max - min selection rate across groups (a.k.a. demographic parity)."""
    rates = list(selection_rates(y_pred, group).values())
    return float(max(rates) - min(rates))


def disparate_impact_ratio(y_pred, group) -> float:
    """min/max selection-rate ratio; < 0.8 violates the four-fifths rule."""
    rates = list(selection_rates(y_pred, group).values())
    top = max(rates)
    if top == 0.0:
        return 1.0
    return float(min(rates) / top)


def equal_opportunity_difference(y_true, y_pred, group) -> float:
    """max - min true-positive rate across groups."""
    return group_rates(y_true, y_pred, group).difference("recall")


def equalized_odds_difference(y_true, y_pred, group) -> float:
    """Worst of the TPR gap and the FPR gap across groups."""
    rates = group_rates(y_true, y_pred, group)
    return float(max(
        rates.difference("recall"), rates.difference("false_positive_rate")
    ))


def predictive_parity_difference(y_true, y_pred, group) -> float:
    """max - min precision across groups."""
    return group_rates(y_true, y_pred, group).difference("precision")


def accuracy_difference(y_true, y_pred, group) -> float:
    """max - min accuracy across groups."""
    return group_rates(y_true, y_pred, group).difference("accuracy")


def group_calibration_gaps(y_true, probabilities, group,
                           n_bins: int = 10) -> dict[object, float]:
    """Expected calibration error within each group.

    A score calibrated overall can hide large within-group
    mis-calibration; with unequal base rates, within-group calibration and
    equalised odds cannot both hold (Kleinberg et al.) — the recidivism
    experiment demonstrates this tension.
    """
    from repro.learn.calibration import expected_calibration_error

    probabilities, groups, y_true = _check_inputs(probabilities, group,
                                                  y_true)
    return {
        value: expected_calibration_error(
            y_true[mask], probabilities[mask], n_bins
        )
        for value, mask in groups.masks()
    }


def base_rates(y_true, group) -> dict[object, float]:
    """Positive-label prevalence per group (the impossibility lever)."""
    y_true, groups, _ = _check_inputs(y_true, group)
    return {
        value: float(np.mean(y_true[mask]))
        for value, mask in groups.masks()
    }


FOUR_FIFTHS = 0.8


def passes_four_fifths_rule(y_pred, group) -> bool:
    """True when the disparate-impact ratio is at least 0.8."""
    return disparate_impact_ratio(y_pred, group) >= FOUR_FIFTHS
