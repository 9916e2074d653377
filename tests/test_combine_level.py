"""Tests for the audit plan's combine level doing each piece of work once.

* **Spilled partials resolve once per run** — every combine of a sharded
  audit shares one store read and decode per partial; the decoded values
  are dropped when the run ends, and a lost entry still raises.
* **Fairness on integer group codes** — the fairness section and its
  metrics select rows by the codes of one factorization; the per-value
  implementation they replaced is carried here as the reference, and
  both must agree exactly (values, key types, errors).  The reference
  compares elements in Python: numpy's ``group == "a\\x00"`` casts the
  scalar to a numpy string and so also matched the ``"a"`` rows.
* **Loop-invariant work hoisted** — the power note's bisection and the
  conformal set arithmetic give bit-identical results to their loops.
"""

import struct
import sys
import threading
import time
import warnings

import numpy as np
import pytest

from repro.accuracy.conformal import PredictionSet, SplitConformalClassifier
from repro.accuracy.power import minimum_detectable_gap, required_audit_size
from repro.core import FACTAuditor
from repro.data import partition, three_way_split
from repro.data.synth import CensusIncomeGenerator
from repro.engine import Executor
from repro.exceptions import DataError, FairnessError
from repro.fairness import metrics as fm
from repro.fairness.report import audit_decisions
from repro.learn.calibration import expected_calibration_error
from repro.learn.linear import LogisticRegression
from repro.learn.metrics import confusion_matrix
from repro.learn.table_model import TableClassifier
from repro.store import ArtifactStore, MemoryBackend
from repro.store.store import Spilled, resolve_spilled


def exact(value):
    """A rendering that tells key types, -0.0, and NaN bits apart."""
    if isinstance(value, dict):
        return [(exact(key), exact(item)) for key, item in value.items()]
    if isinstance(value, (list, tuple)):
        return [exact(item) for item in value]
    if isinstance(value, (float, np.floating)):
        return (type(value).__name__, struct.pack("<d", float(value)))
    return (type(value).__name__, repr(value))


# -- spilled partials: one read per run --------------------------------------

class CountingStore(ArtifactStore):
    """An in-memory store that records every ``get`` key."""

    def __init__(self, delay: float = 0.0):
        super().__init__(MemoryBackend(), name="counting")
        self.gets: list[str] = []
        self.delay = delay
        self._gets_lock = threading.Lock()

    def get(self, key, default=None):
        with self._gets_lock:
            self.gets.append(key)
        if self.delay:
            time.sleep(self.delay)
        return super().get(key, default)


@pytest.fixture(scope="module")
def fitted():
    census = CensusIncomeGenerator().generate(240, np.random.default_rng(7))
    train, calibration, test = three_way_split(
        census, 0.3, 0.2, np.random.default_rng(17)
    )
    model = TableClassifier(LogisticRegression()).fit(train)
    return model, calibration, test


def _run(fitted, store, n_jobs=1, surrogate_depth=4):
    model, calibration, test = fitted
    auditor = FACTAuditor(n_bootstrap=16, n_jobs=n_jobs, backend="thread",
                          store=store, surrogate_depth=surrogate_depth)
    plan = auditor.build_plan(model, partition(test, n_shards=4),
                              calibration, store=store)
    return Executor(n_jobs=n_jobs, backend="thread", name="audit").run(
        plan, store=store, rng=np.random.default_rng(99))


def _partial_keys(result) -> set:
    return {result[f"partial.shard{index}"].key for index in range(4)}


@pytest.mark.parametrize("n_jobs", (1, 2))
def test_cold_audit_reads_each_partial_once(fitted, n_jobs):
    store = CountingStore()
    cold = _run(fitted, store, n_jobs=n_jobs)
    keys = _partial_keys(cold)
    partial_gets = [key for key in store.gets if key in keys]
    # Five combines read the four partials (accuracy three times over,
    # for the conformal check), sharing one read of each.
    assert sorted(partial_gets) == sorted(keys)
    assert set(cold.statuses.values()) == {"miss"}


def test_warm_reaudit_reads_partials_only_for_recomputed_combines(fitted):
    store = CountingStore()
    cold = _run(fitted, store)
    keys = _partial_keys(cold)
    # An identical re-run replays every node: map hits only probe.
    store.gets.clear()
    warm = _run(fitted, store)
    assert set(warm.statuses.values()) == {"hit"}
    assert [key for key in store.gets if key in keys] == []
    # A new surrogate depth recomputes transparency alone: one read of
    # each partial, as before the partials were shared.
    store.gets.clear()
    edited = _run(fitted, store, surrogate_depth=5)
    assert edited.statuses["transparency"] == "miss"
    assert edited.statuses["fairness"] == "hit"
    assert sorted(key for key in store.gets if key in keys) == sorted(keys)


def test_decoded_partials_do_not_outlive_the_run(fitted):
    store = CountingStore()
    result = _run(fitted, store)
    handle = result["partial.shard0"]
    assert isinstance(handle, Spilled)
    store.gets.clear()
    first = resolve_spilled(handle, store)
    assert store.gets == [handle.key]          # released: read again
    assert resolve_spilled(handle, store) is first
    assert store.gets == [handle.key]          # then shared until release
    handle.release()
    resolve_spilled(handle, store)
    assert store.gets == [handle.key, handle.key]


def test_concurrent_resolves_share_the_first_decode():
    store = CountingStore(delay=0.02)
    store.put("k", {"rows": np.arange(5.0)})
    handle = Spilled("k")
    values = []
    threads = [threading.Thread(
        target=lambda: values.append(resolve_spilled(handle, store)))
        for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert store.gets == ["k"]
    assert len(values) == 8
    assert all(value is values[0] for value in values)


def test_lost_or_corrupt_partials_raise_naming_the_key():
    store = ArtifactStore(MemoryBackend(), name="lost")
    with pytest.raises(DataError, match="missing-key"):
        resolve_spilled(Spilled("missing-key"), store)
    store.backend.put("bad-key", "{not json")
    with pytest.raises(DataError, match="bad-key"):
        resolve_spilled(Spilled("bad-key"), store)
    # A failed resolve remembers nothing: a later put is found.
    handle = Spilled("late-key")
    with pytest.raises(DataError):
        resolve_spilled(handle, store)
    store.put("late-key", 3)
    assert resolve_spilled(handle, store) == 3


# -- fairness on group codes: the per-value reference ------------------------

def _ref_check(y_pred, group, y_true=None):
    y_pred = np.asarray(y_pred, dtype=np.float64)
    group = np.asarray(group)
    if y_pred.shape != group.shape or y_pred.ndim != 1:
        raise FairnessError(
            f"predictions {y_pred.shape} and groups {group.shape} must be "
            "aligned 1-D arrays"
        )
    if len(y_pred) == 0:
        raise FairnessError("fairness metrics need at least one example")
    if y_true is not None:
        y_true = np.asarray(y_true, dtype=np.float64)
        if y_true.shape != y_pred.shape:
            raise FairnessError("y_true and y_pred must be aligned")
    groups = np.unique(group)
    if len(groups) < 2:
        raise FairnessError(
            f"need at least two groups, found {groups.tolist()}"
        )
    return y_pred, group, y_true, groups


def _rows(group, value):
    """``group == value``, compared one Python element at a time.

    ``object_array == "a\\x00"`` would first cast the scalar to a numpy
    string, which drops trailing NULs and matches the ``"a"`` rows too.
    """
    return np.array([item == value for item in group.tolist()], dtype=bool)


def ref_selection_rates(y_pred, group):
    y_pred, group, _, groups = _ref_check(y_pred, group)
    return {value: float(np.mean(y_pred[_rows(group, value)]))
            for value in groups}


def ref_base_rates(y_true, group):
    y_true, group, _, groups = _ref_check(y_true, group)
    return {value: float(np.mean(y_true[_rows(group, value)]))
            for value in groups}


def ref_confusions(y_true, y_pred, group):
    y_pred, group, y_true, groups = _ref_check(y_pred, group, y_true)
    return {value: confusion_matrix(y_true[_rows(group, value)],
                                    y_pred[_rows(group, value)])
            for value in groups}


def ref_calibration_gaps(y_true, probabilities, group):
    probabilities = np.asarray(probabilities, dtype=np.float64)
    _, group, y_true, groups = _ref_check(probabilities, group, y_true)
    return {value: expected_calibration_error(
        y_true[_rows(group, value)], probabilities[_rows(group, value)], 10)
        for value in groups}


def _spread(rates: dict) -> float:
    values = list(rates.values())
    return float(max(values) - min(values))


def ref_audit(y_true, y_pred, group, probabilities=None) -> dict:
    """The report fields, computed one ``group == value`` mask at a time."""
    y_true = np.asarray(y_true, dtype=np.float64)
    y_pred = np.asarray(y_pred, dtype=np.float64)
    group = np.asarray(group)
    groups = tuple(np.unique(group).tolist())
    calibration = {}
    if probabilities is not None:
        try:
            calibration = ref_calibration_gaps(y_true, probabilities, group)
        except FairnessError:
            calibration = {}
    selection = ref_selection_rates(y_pred, group)
    base = ref_base_rates(y_true, group)
    top = max(selection.values())
    confusions = ref_confusions(y_true, y_pred, group)

    def spread(attribute):
        return _spread({value: getattr(cm, attribute)
                        for value, cm in confusions.items()})

    return {
        "groups": groups,
        "selection_rates": selection,
        "base_rates": base,
        "statistical_parity_difference": _spread(selection),
        "disparate_impact_ratio": (
            1.0 if top == 0.0 else float(min(selection.values()) / top)),
        "equal_opportunity_difference": spread("recall"),
        "equalized_odds_difference": float(max(
            spread("recall"), spread("false_positive_rate"))),
        "predictive_parity_difference": spread("precision"),
        "accuracy_difference": spread("accuracy"),
        "calibration_gaps": calibration,
    }


def _report_fields(report) -> dict:
    return {name: getattr(report, name) for name in (
        "groups", "selection_rates", "base_rates",
        "statistical_parity_difference", "disparate_impact_ratio",
        "equal_opportunity_difference", "equalized_odds_difference",
        "predictive_parity_difference", "accuracy_difference",
        "calibration_gaps")}


def _decisions(n, seed):
    rng = np.random.default_rng(seed)
    probabilities = rng.random(n)
    y_true = (rng.random(n) < 0.4).astype(np.float64)
    y_pred = (probabilities >= 0.5).astype(np.float64)
    return y_true, y_pred, probabilities, rng


GROUP_CASES = {
    "ascii_objects": lambda rng, n: rng.choice(
        np.array(["A", "B", "C"], dtype=object), n),
    "non_ascii_objects": lambda rng, n: rng.choice(
        np.array(["é", "中文", "ß", "Ωmega"], dtype=object), n),
    "trailing_nul_objects": lambda rng, n: rng.choice(
        np.array(["a", "a\x00", "a\x00\x00", "b"], dtype=object), n),
    "numpy_strings": lambda rng, n: rng.choice(np.array(["x", "yy"]), n),
    "integers": lambda rng, n: rng.integers(0, 3, n),
    "floats": lambda rng, n: rng.choice([-1.5, 0.0, 2.25], n),
    "signed_zero": lambda rng, n: rng.choice([-0.0, 0.0, 1.0], n),
    "booleans": lambda rng, n: rng.random(n) < 0.3,
    "object_ints": lambda rng, n: rng.choice(
        np.array([1, 2, 10], dtype=object), n),
}


@pytest.mark.parametrize("case", sorted(GROUP_CASES))
@pytest.mark.parametrize("with_scores", (False, True))
def test_code_based_report_equals_per_value_reference(case, with_scores):
    y_true, y_pred, probabilities, rng = _decisions(400, 3)
    group = GROUP_CASES[case](rng, 400)
    scores = probabilities if with_scores else None
    report = audit_decisions(y_true, y_pred, group, probabilities=scores)
    expected = ref_audit(y_true, y_pred, group, probabilities=scores)
    assert exact(_report_fields(report)) == exact(expected)


def test_trailing_nul_groups_stay_apart():
    y_true, y_pred, probabilities, _ = _decisions(6, 5)
    group = np.array(["a", "a\x00", "a", "a\x00", "b", "b"], dtype=object)
    report = audit_decisions(y_true, y_pred, group,
                             probabilities=probabilities)
    assert report.groups == ("a", "a\x00", "b")
    assert exact(report.selection_rates) == exact(
        ref_selection_rates(y_pred, group))


@pytest.mark.parametrize("case", sorted(GROUP_CASES))
def test_public_metrics_equal_per_value_reference(case):
    y_true, y_pred, probabilities, rng = _decisions(300, 11)
    group = GROUP_CASES[case](rng, 300)
    assert exact(fm.selection_rates(y_pred, group)) == exact(
        ref_selection_rates(y_pred, group))
    assert exact(fm.base_rates(y_true, group)) == exact(
        ref_base_rates(y_true, group))
    assert exact(fm.group_calibration_gaps(y_true, probabilities, group)) \
        == exact(ref_calibration_gaps(y_true, probabilities, group))
    rates = fm.group_rates(y_true, y_pred, group)
    expected = ref_confusions(y_true, y_pred, group)
    assert rates.confusions == expected
    assert exact(list(rates.confusions)) == exact(list(expected))
    assert exact(rates.groups) == exact(tuple(np.unique(group).tolist()))


@pytest.mark.parametrize("dtype", (np.float64, object))
@pytest.mark.parametrize("with_scores", (False, True))
def test_nan_groups_match_no_row_and_raise_as_before(dtype, with_scores):
    y_true, y_pred, probabilities, rng = _decisions(200, 2)
    group = rng.choice([0.0, 1.0, np.nan], 200).astype(dtype)
    scores = probabilities if with_scores else None
    codes = fm.factorize_groups(group)
    nan_slots = [index for index, value in enumerate(codes.values)
                 if value != value]
    assert nan_slots and not codes.sizes()[nan_slots].any()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # empty-group mean
        with pytest.raises(DataError, match="metric inputs are empty"):
            ref_audit(y_true, y_pred, group, probabilities=scores)
        with pytest.raises(DataError, match="metric inputs are empty"):
            audit_decisions(y_true, y_pred, group, probabilities=scores)
        if dtype is np.float64:
            assert exact(fm.selection_rates(y_pred, group)) == exact(
                ref_selection_rates(y_pred, group))


def test_group_errors_name_values_not_codes():
    with pytest.raises(FairnessError, match=r"found \['only'\]"):
        fm.selection_rates([1.0, 0.0], np.array(["only", "only"],
                                                dtype=object))
    with pytest.raises(FairnessError, match="aligned"):
        audit_decisions([1.0, 0.0], [1.0, 0.0], ["a", "b", "c"])


# -- hoisted loop invariants -------------------------------------------------

def ref_minimum_detectable_gap(n_per_group, baseline_rate, alpha=0.05,
                               power=0.8):
    low, high = 1e-4, baseline_rate - 1e-4
    if required_audit_size(baseline_rate, high, alpha,
                           power).n_per_group > n_per_group:
        return float("nan")
    for _ in range(60):
        mid = 0.5 * (low + high)
        needed = required_audit_size(baseline_rate, mid, alpha,
                                     power).n_per_group
        if needed <= n_per_group:
            high = mid
        else:
            low = mid
    return high


@pytest.mark.parametrize("n", (2, 9, 40, 333, 5000))
@pytest.mark.parametrize("baseline", (0.05, 0.31, 0.5, 0.93))
@pytest.mark.parametrize("design", ((0.05, 0.8), (0.01, 0.9)))
def test_minimum_detectable_gap_matches_the_stepwise_bisection(
        n, baseline, design):
    alpha, power = design
    got = minimum_detectable_gap(n, baseline, alpha, power)
    want = ref_minimum_detectable_gap(n, baseline, alpha, power)
    assert exact(got) == exact(want)


def test_power_design_values_are_pinned():
    # Digits of the quantile-per-step implementation, so a change to the
    # shared quantiles cannot hide behind the reference above.
    assert minimum_detectable_gap(3000, 0.3).hex() == "0x1.0b142bc8b7df1p-5"
    assert minimum_detectable_gap(57, 0.81, 0.01, 0.9).hex() == \
        "0x1.5b7527d9084ebp-2"
    assert required_audit_size(0.3, 0.05).n_per_group == 1251
    assert required_audit_size(0.62, 0.11, 0.01, 0.95).n_per_group == 721


class _FixedModel:
    def __init__(self, probabilities):
        self.probabilities = np.asarray(probabilities, dtype=np.float64)

    def predict_proba(self, X):
        return self.probabilities[np.asarray(X, dtype=np.intp)]


def ref_sets(probabilities, quantile):
    sets = []
    for p in probabilities:
        labels = []
        if 1.0 - (1.0 - p) <= quantile + 1e-12:
            labels.append(0.0)
        if 1.0 - p <= quantile + 1e-12:
            labels.append(1.0)
        if not labels:
            labels = [0.0, 1.0]
        sets.append(PredictionSet(tuple(labels)))
    return sets


@pytest.mark.parametrize("quantile", (0.0, 0.3, 0.5, 0.7 + 1e-13, np.inf))
def test_conformal_masks_match_the_per_row_sets(quantile):
    rng = np.random.default_rng(4)
    probabilities = np.concatenate([
        rng.random(500), [0.0, 1.0, 0.3, 0.7, 0.5, 1e-17, 1 - 1e-16, np.nan],
    ])
    labels = rng.choice([0.0, 1.0, -0.0, 2.0, np.nan], len(probabilities),
                        p=[0.45, 0.45, 0.04, 0.03, 0.03])
    conformal = SplitConformalClassifier(_FixedModel(probabilities))
    conformal._quantile = float(quantile)
    X = np.arange(len(probabilities))
    expected = ref_sets(probabilities, float(quantile))
    assert conformal.predict_sets(X) == expected
    covered = [s.covers(label) for s, label in zip(expected, labels)]
    assert conformal.covered(X, labels).tolist() == covered
    assert exact(conformal.coverage(X, labels)) == exact(
        float(np.mean(covered)))
    assert exact(conformal.mean_set_size(X)) == exact(
        float(np.mean([s.size for s in expected])))
    with pytest.raises(DataError):
        conformal.covered(X, labels[:-1])
