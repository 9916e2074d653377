"""Tests for the DP release path's bookkeeping and data-plane kernels.

* **Scan-free kernels, same counts** — ``group_stats`` answers exactly
  what the per-candidate ``np.sum(clipped <= c)`` and per-bin
  ``np.sum(values == b)`` scans answer; those scans are carried here as
  the reference.
* **Running ledger totals** — ``epsilon_spent``/``delta_spent`` equal
  builtin ``sum`` over the ledger bit for bit (and in type) on the
  running interpreter, since FACT report fingerprints embed them.
* **Advanced composition and concurrency** — an ``AdvancedAccountant``
  tenant may hold as many concurrent reservations as its budget affords,
  and its remaining-budget view composes them as it would once committed.
* **Refused before charging** — non-finite bounds and NUL histogram bins
  are invalid queries: nothing reaches the ledger.
"""

import struct
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from repro.confidentiality.accountant import (
    AdvancedAccountant,
    PrivacyAccountant,
    _RunningSum,
    max_queries_advanced,
)
from repro.confidentiality.queries import dp_histogram
from repro.data.schema import Schema, categorical, numeric
from repro.data.table import Table
from repro.exceptions import DataError, PrivacyBudgetError
from repro.serve import (
    STATUS_OK,
    STATUS_REJECTED_INVALID,
    BudgetManager,
    QueryPlanner,
    QueryRequest,
    QueryServer,
    ServeConfig,
)
from repro.serve.batching import N_QUANTILE_CANDIDATES, group_stats


# -- the reference scans (the kernels' previous bodies) --------------------

def reference_quantile(values, lower, upper, q):
    clipped = np.clip(np.asarray(values, dtype=np.float64), lower, upper)
    candidates = np.linspace(lower, upper, N_QUANTILE_CANDIDATES).tolist()
    target_rank = q * len(clipped)
    utilities = [
        -abs(float(np.sum(clipped <= candidate)) - target_rank)
        for candidate in candidates
    ]
    return {"candidates": candidates, "utilities": utilities}


def reference_histogram(values, bins):
    values = np.asarray(values)
    return {"counts": {b: float(np.sum(values == b)) for b in bins}}


def exact(value):
    """A rendering that tells -0.0 from 0.0, int from float, NaN bits."""
    if isinstance(value, dict):
        return [(exact(key), exact(item)) for key, item in value.items()]
    if isinstance(value, list):
        return [exact(item) for item in value]
    if isinstance(value, float):
        return ("float", struct.pack("<d", value))
    return (type(value).__name__, value)


@pytest.fixture
def planner():
    rng = np.random.default_rng(11)
    n = 300
    ties = np.repeat([20.0, 35.0, 50.0], n // 6)
    spread = rng.uniform(-40.0, 140.0, n - len(ties))  # outside [0, 100]
    x = np.concatenate([ties, spread])
    x[rng.choice(n, size=17, replace=False)] = np.nan
    grid = np.linspace(0.0, 100.0, N_QUANTILE_CANDIDATES)
    x[:8] = grid[[0, 1, 2, 50, 97, 98, 99, 99]]       # values on candidates
    level = rng.choice([0.0, -0.0, 1.0, 2.5, 7.0], size=n)
    level[rng.choice(n, size=9, replace=False)] = np.nan
    city = rng.choice(["north", "south", "east", ""], size=n,
                      p=[0.4, 0.3, 0.2, 0.1])
    table = Table(Schema([numeric("x"), numeric("level"),
                          categorical("city")]),
                  {"x": x, "level": level, "city": city})
    planner = QueryPlanner()
    planner.register_table("t", table)
    return planner


def _plan(planner, **fields):
    return planner.plan(QueryRequest(tenant="a", epsilon=0.1, **fields))


@pytest.mark.parametrize("q", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("bounds", [(0.0, 100.0), (30.0, 40.0),
                                    (-1e9, 1e9), (float("-inf"), 100.0)])
def test_quantile_stats_match_reference_scan(planner, q, bounds):
    lower, upper = bounds
    # The planner refuses an infinite bound; the kernel still takes one
    # from a plan built directly.
    plan = replace(_plan(planner, kind="quantile", column="x", q=q,
                         lower=0.0, upper=1.0), lower=lower, upper=upper)
    table = planner.table("t")
    with np.errstate(invalid="ignore"):  # an infinite bound: NaN grid
        expected = reference_quantile(table.column("x"), lower, upper, q)
        stats = group_stats(plan, table)
    assert exact(stats) == exact(expected)


def test_categorical_histogram_matches_reference_scan(planner):
    table = planner.table("t")
    bins = ("", "east", "north", "south", "west")  # "" rows; absent bin
    plan = _plan(planner, kind="histogram", column="city", bins=bins)
    stats = group_stats(plan, table)
    assert exact(stats) == exact(reference_histogram(table.column("city"),
                                                     plan.bins))
    assert stats["counts"][""] > 0 and stats["counts"]["west"] == 0.0


def test_numeric_histogram_matches_reference_scan(planner):
    table = planner.table("t")
    plan = _plan(planner, kind="histogram", column="level",
                 bins=(0.0, 1.0, 2.5, 3.0, float("nan"), -5.0))
    stats = group_stats(plan, table)
    assert exact(stats) == exact(reference_histogram(table.column("level"),
                                                     plan.bins))
    nan_bin = next(b for b in plan.bins if b != b)
    assert stats["counts"][nan_bin] == 0.0
    assert stats["counts"][0.0] > 0  # both signed zeros land in bin 0.0


def test_histogram_on_column_without_missing_rows():
    table = Table(Schema([categorical("c"), numeric("v")]),
                  {"c": ["a", "b", "a"], "v": [1.0, 1.0, 2.0]})
    planner = QueryPlanner()
    planner.register_table("t", table)
    for column, bins in (("c", ("", "a", "zz")), ("v", (0.0, 1.0, 3.0))):
        plan = _plan(planner, kind="histogram", column=column, bins=bins)
        assert exact(group_stats(plan, table)) == exact(
            reference_histogram(table.column(column), plan.bins))


def test_bins_with_nul_characters_are_refused():
    # numpy strings drop trailing NULs, so the scan counts "a" rows for
    # "a\x00" too: admitting both bins would release two noisy copies of
    # one count under a single ε charge.
    table = Table(Schema([categorical("c")]), {"c": ["a", "a", "b", ""]})
    assert reference_histogram(table.column("c"), ("a\x00",)) == {
        "counts": {"a\x00": 2.0}}
    with QueryServer(ServeConfig(workers=1, seed=7)) as server:
        server.register_table("t", table)
        accountant = server.register_tenant("a", epsilon_budget=1.0)
        for bins in (("a", "a\x00"), ("\x00",), ("b", "x\x00y")):
            result = server.query(QueryRequest(
                tenant="a", kind="histogram", column="c", bins=bins,
                epsilon=0.1))
            assert result.status == STATUS_REJECTED_INVALID
            assert result.epsilon_charged == 0.0
        assert accountant.ledger == []
    # Looked up directly, such a key matches no row.
    assert table.count_values("c", ["a", "a\x00", "\x00", ""]) == [
        2, 0, 0, 1]


def test_long_bin_does_not_widen_the_lookup():
    table = Table(Schema([categorical("c")]), {"c": ["ab", "cd", "ab"]})
    planner = QueryPlanner()
    planner.register_table("t", table)
    long_bin = "ab" + "z" * 20_000
    bins = (long_bin, *(f"k{i}" for i in range(1000)), "ab")
    plan = _plan(planner, kind="histogram", column="c", bins=bins)
    tracemalloc.start()
    try:
        stats = group_stats(plan, table)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # A 1001 x 20002-character ``<U`` key array would be ~80 MB.
    assert peak < 2_000_000
    assert exact(stats) == exact(reference_histogram(table.column("c"),
                                                     plan.bins))
    assert stats["counts"]["ab"] == 2.0 and stats["counts"][long_bin] == 0.0


# -- running ledger totals == builtin sum ----------------------------------

def _bits(value):
    return type(value), struct.pack("<d", value)


@pytest.mark.parametrize("seed", range(6))
def test_ledger_totals_equal_builtin_sum(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(50, 400))
    scale = 10.0 ** rng.uniform(-6, 2, size=n)
    epsilons = (rng.choice([0.1, 0.05, 0.2, 0.01, 1.0], size=n)
                if seed % 2 else rng.uniform(0.5, 1.5, size=n) * scale)
    deltas = np.where(rng.random(n) < 0.5, 0.0, rng.uniform(0, 1e-7, n))
    accountant = PrivacyAccountant(1e12, delta_budget=1.0)
    assert accountant.epsilon_spent == 0
    assert type(accountant.epsilon_spent) is int  # sum(()) is the int 0
    for epsilon, delta in zip(epsilons.tolist(), deltas.tolist()):
        accountant.spend(epsilon, delta)
        ledger = accountant.ledger
        assert _bits(accountant.epsilon_spent) == _bits(
            sum(entry.epsilon for entry in ledger))
        assert _bits(accountant.delta_spent) == _bits(
            sum(entry.delta for entry in ledger))


def test_running_sum_mirrors_builtin_sum_on_cancellation():
    # Plain left-to-right addition gives 0.0 here; compensated sum 2.0.
    values = [1.0, 1e100, 1.0, -1e100, float("inf"), 3.0]
    total = _RunningSum()
    for k, value in enumerate(values):
        total.add(value)
        assert _bits(total.value) == _bits(sum(values[:k + 1]))


# -- advanced composition under concurrent reservations --------------------

def test_advanced_tenant_holds_concurrent_reservations():
    accountant = AdvancedAccountant(10.0, per_query_epsilon=0.1,
                                    delta_slack=1e-5)
    affordable = max_queries_advanced(10.0, 0.1, 1e-5)
    assert affordable > 2
    manager = BudgetManager()
    manager.register("adv", accountant)
    held = [manager.reserve("adv", 0.1) for _ in range(affordable)]
    assert not manager.can_reserve("adv", 0.1)
    with pytest.raises(PrivacyBudgetError):
        manager.reserve("adv", 0.1)
    # The fixed per-query ε is the only one it charges.
    manager.rollback(held.pop())
    assert not manager.can_reserve("adv", 0.2)
    assert manager.can_reserve("adv", 0.1)
    for reservation in held:
        manager.commit(reservation)
    assert len(accountant.ledger) == affordable - 1
    manager.commit(manager.reserve("adv", 0.1))
    with pytest.raises(PrivacyBudgetError):
        manager.reserve("adv", 0.1)
    assert accountant.epsilon_spent <= 10.0


def test_advanced_tenant_answers_a_coalesced_batch(small_table):
    config = ServeConfig(workers=1, seed=7, batch_window_ms=50.0,
                         cache=False)
    with QueryServer(config) as server:
        server.register_table("t", small_table)
        server.register_tenant("adv", accountant=AdvancedAccountant(
            10.0, per_query_epsilon=0.1, delta_slack=1e-5))
        results = server.submit_batch([
            QueryRequest(tenant="adv", kind="count", epsilon=0.1)
            for _ in range(6)
        ])
        batching = server.stats()["batching"]
    assert [r.status for r in results] == [STATUS_OK] * 6
    assert batching["largest_batch"] == 6
    assert len(server.budget.accountant("adv").ledger) == 6


def test_remaining_composes_pending_advanced_reservations():
    # Pending queries compose like committed ones: with every affordable
    # reservation held, the view equals what is left once they commit.
    manager = BudgetManager()
    accountant = manager.register("adv", AdvancedAccountant(
        10.0, per_query_epsilon=0.1, delta_slack=1e-5))
    assert manager.remaining("adv") == 10.0
    held = [manager.reserve("adv", 0.1) for _ in range(241)]
    assert not manager.can_reserve("adv", 0.1)
    pending_view = manager.remaining("adv")
    assert 0.0 < pending_view < 0.02
    for reservation in held:
        manager.commit(reservation)
    assert manager.remaining("adv") == pending_view == accountant.remaining()


def test_remaining_subtracts_pending_under_basic_composition():
    manager = BudgetManager()
    accountant = manager.register("basic", PrivacyAccountant(1.0))
    accountant.spend(0.3)
    manager.reserve("basic", 0.1)
    manager.reserve("basic", 0.2)
    assert manager.remaining("basic") == accountant.remaining() - sum(
        (0.1, 0.2))


# -- refused before any ε is charged ---------------------------------------

@pytest.mark.parametrize("kind", ["sum", "mean", "quantile"])
@pytest.mark.parametrize("bounds", [(float("-inf"), 100.0),
                                    (0.0, float("inf")),
                                    (float("-inf"), float("inf")),
                                    (0.0, float("nan"))])
def test_non_finite_bounds_are_rejected_uncharged(kind, bounds):
    lower, upper = bounds
    table = Table(Schema([numeric("x")]), {"x": np.arange(10.0)})
    with QueryServer(ServeConfig(workers=1, seed=7)) as server:
        server.register_table("t", table)
        accountant = server.register_tenant("a", epsilon_budget=1.0)
        result = server.query(QueryRequest(
            tenant="a", kind=kind, column="x", lower=lower, upper=upper,
            q=0.5 if kind == "quantile" else None, epsilon=0.1))
        assert result.status == STATUS_REJECTED_INVALID
        assert result.epsilon_charged == 0.0
        assert accountant.ledger == []


def test_library_histogram_refuses_nul_bins_before_charging():
    accountant = PrivacyAccountant(1.0)
    values = np.array(["a", "a", "b"], dtype=object)
    for bins in (("a", "a\x00"), ["\x00"], ("b", "x\x00y")):
        with pytest.raises(DataError, match="NUL"):
            dp_histogram(values, bins, 0.1, accountant,
                         np.random.default_rng(0))
    assert accountant.ledger == []
    released = dp_histogram(values, ["a", "b"], 0.1, accountant,
                            np.random.default_rng(0))
    assert set(released) == {"a", "b"}
    assert len(accountant.ledger) == 1
