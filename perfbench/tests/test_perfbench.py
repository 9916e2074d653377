"""The benchmark's own tests: tiny workloads, wrong references, tracing.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import math
import os
import sys
from collections import Counter
from dataclasses import replace

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

import pytest  # noqa: E402

from perfbench import bench  # noqa: E402
from perfbench.layers import Layers  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    REAUDITS,
    AuditCold,
    AuditSharded,
    ServeRelease,
    Tally,
)

SEED = 7


def tiny(name: str):
    """Each workload at a size that runs in about a second."""
    return {
        "audit_cold": lambda: AuditCold(n_rows=600, n_bootstrap=20),
        "audit_sharded": lambda: AuditSharded(rows_per_shard=150,
                                              n_train=400, n_bootstrap=20),
        "serve_release": lambda: ServeRelease(n_queries=300, rate_qps=4000.0,
                                              open_s=0.05),
    }[name]()


NAMES = ("audit_cold", "audit_sharded", "serve_release")


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", NAMES)
def test_tiny_workload_reports_every_metric_with_no_failure(name, trace):
    tally = Tally()
    metrics, summary = bench.measure(tiny(name), SEED, 0.0, trace=trace,
                                     tally=tally)
    assert tally.attempted > 0
    assert tally.failed == 0
    declared = bench.PER_LAYER if trace else bench.END_TO_END
    assert list(metrics) == [metric for metric, _, _ in declared]
    assert all(math.isfinite(value) for value in metrics.values())
    if not trace:
        assert all(value > 0 for value in metrics.values())
    assert summary


@pytest.mark.parametrize("name", ("audit_cold", "audit_sharded"))
def test_perturbed_fingerprint_counts_one_failed_report(name):
    workload = tiny(name)
    state = workload.setup(SEED)
    outputs = workload.run_pass(state).outputs
    state["reference"] = "0" * len(state["reference"])
    tally = Tally()
    workload.check(state, outputs, tally)
    assert (tally.attempted, tally.failed) == (1 + REAUDITS, 1)


def test_epsilon_off_by_one_query_fails_that_tenants_queries():
    workload = tiny("serve_release")
    state = workload.setup(SEED)
    outputs = workload.run_pass(state).outputs
    clean = Tally()
    workload.check(state, outputs, clean)
    assert clean.failed == 0
    # The reference charges one of the first tenant's queries a
    # different ε, so its expected ledger is off by that one query.
    requests = list(state["requests"])
    requests[0] = replace(requests[0], epsilon=requests[0].epsilon * 2)
    state["requests"] = requests
    tally = Tally()
    workload.check(state, outputs, tally)
    tenant = requests[0].tenant
    expected = sum(
        sum(1 for request in requests[:len(leg["statuses"])]
            if request.tenant == tenant)
        for leg in outputs["legs"])
    assert tally.attempted == clean.attempted
    assert tally.failed == expected > 0


def test_wrong_reference_answer_fails_that_fingerprints_queries():
    workload = tiny("serve_release")
    state = workload.setup(SEED)
    outputs = workload.run_pass(state).outputs
    fingerprint = outputs["legs"][0]["fingerprints"][0]
    state["reference"][fingerprint] = [
        "-1.0" for _ in state["reference"][fingerprint]]
    tally = Tally()
    workload.check(state, outputs, tally)
    expected = sum(leg["fingerprints"].count(fingerprint)
                   for leg in outputs["legs"])
    assert tally.failed == expected > 0


@pytest.mark.parametrize("name", ("audit_cold", "audit_sharded"))
def test_traced_audit_reports_equal_untraced(name):
    workload = tiny(name)
    state = workload.setup(SEED)
    untraced = workload.run_pass(state).outputs
    layers = Layers()
    with layers:
        traced = workload.run_pass(state).outputs
    assert traced["report"].fingerprint() == untraced["report"].fingerprint()
    assert [report.fingerprint() for report in traced["edited"]] == \
        [report.fingerprint() for report in untraced["edited"]]
    totals = layers.totals()
    assert totals["core.audit_calls"] == 1 + REAUDITS
    assert totals["store.fingerprint_calls"] > 0


def test_traced_serve_answers_equal_untraced():
    workload = tiny("serve_release")
    state = workload.setup(SEED)
    untraced = workload.run_pass(state).outputs
    with Layers():
        traced = workload.run_pass(state).outputs
    for before, after in zip(untraced["legs"], traced["legs"]):
        assert after["statuses"] == before["statuses"]
        # Releases may commit in another order; per fingerprint, the
        # answers are the same multiset.
        assert Counter(zip(after["fingerprints"], after["answers"])) == \
            Counter(zip(before["fingerprints"], before["answers"]))


def test_layers_patch_callers_and_restore_originals():
    from repro.core import auditor
    from repro.learn import metrics
    from repro.store import code_fingerprint

    original = metrics.roc_auc
    print_before = code_fingerprint(original)
    with Layers():
        assert auditor.roc_auc is metrics.roc_auc
        assert metrics.roc_auc is not original
        # Same code fingerprint, so cache keys do not move.
        assert code_fingerprint(auditor.roc_auc) == print_before
    assert metrics.roc_auc is original
    assert auditor.roc_auc is original


def test_benchmark_json_declares_what_the_runner_reports():
    import json

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = json.load(handle)
    assert [(m["name"], m["unit"], m["better"])
            for m in declared["end_to_end"]] == list(bench.END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in declared["per_layer"]] == list(bench.PER_LAYER)
    from perfbench.run import WORKLOAD_NAMES
    from perfbench.workloads import WORKLOADS

    assert [w["name"] for w in declared["workloads"]] == list(WORKLOAD_NAMES)
    assert set(WORKLOADS) == set(WORKLOAD_NAMES)


def test_schedule_sends_single_queries_at_the_offered_rate():
    import numpy as np

    from perfbench.openloop import schedule

    due = schedule(5000.0, 5.0, 100_000, np.random.default_rng(0))
    assert np.all(np.diff(due) > 0)
    assert due[-1] < 5.0
    assert abs(len(due) / 5.0 - 5000.0) < 250.0
    assert len(schedule(5000.0, 5.0, 100, np.random.default_rng(0))) == 100
