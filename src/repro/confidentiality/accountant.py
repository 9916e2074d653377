"""The privacy-budget accountant (Q3).

"Techniques that work under a *strict privacy budget*" need someone
keeping the books.  The accountant is that someone: every DP release
must be charged before it happens, over-budget requests raise
:class:`~repro.exceptions.PrivacyBudgetError`, and the ledger itself is
an audit artefact the FACT report embeds.

Two composition accountants are provided:

* **basic** — ε's add up (tight for few queries);
* **advanced** — Dwork-Roth advanced composition: k queries at ε₀ each
  cost ``ε₀·sqrt(2k·ln(1/δ')) + k·ε₀·(e^{ε₀}−1)`` overall, buying many
  more queries at the same total budget (ablation A1).
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.exceptions import DataError, PrivacyBudgetError


@dataclass(frozen=True)
class LedgerEntry:
    """One recorded budget expenditure."""

    label: str
    epsilon: float
    delta: float


#: Whether builtin ``sum`` of floats is Neumaier-compensated (CPython
#: 3.12+); plain left-to-right addition gives 0.0 here.
_COMPENSATED_SUM = sum([1.0, 1e100, 1.0, -1e100]) == 2.0


class _RunningSum:
    """An O(1) running total equal, bit for bit, to builtin ``sum``.

    Ledger totals feed report fingerprints, so the running total adds
    left to right before CPython 3.12 and from 3.12 carries the same
    Neumaier compensation ``sum`` does, folded in on read.  Empty, it is
    the int ``0``, as ``sum(())`` is.
    """

    __slots__ = ("_total", "_compensation")

    def __init__(self):
        self._total = 0
        self._compensation = 0.0

    def add(self, value: float) -> None:
        total, result = self._total, self._total + value
        if _COMPENSATED_SUM:
            if abs(total) >= abs(value):
                self._compensation += (total - result) + value
            else:
                self._compensation += (value - result) + total
        self._total = result

    @property
    def value(self) -> float:
        compensation = self._compensation
        if compensation and math.isfinite(compensation):
            return self._total + compensation
        return self._total


class PrivacyAccountant:
    """Tracks (ε, δ) expenditure under basic composition.

    Thread-safe: :meth:`spend` holds an internal lock across the
    afford-check and the ledger append, so concurrent spenders (e.g. the
    :mod:`repro.serve` worker pool) cannot race the ledger past the
    budget.  The ε and δ totals are kept running, so every read and
    afford-check is O(1) however long the ledger grows.
    """

    def __init__(self, epsilon_budget: float, delta_budget: float = 0.0):
        if epsilon_budget <= 0:
            raise DataError("epsilon_budget must be positive")
        if delta_budget < 0:
            raise DataError("delta_budget must be non-negative")
        self.epsilon_budget = float(epsilon_budget)
        self.delta_budget = float(delta_budget)
        self._ledger: list[LedgerEntry] = []
        self._epsilon_total = _RunningSum()
        self._delta_total = _RunningSum()
        self._lock = threading.RLock()

    # -- bookkeeping ------------------------------------------------------------

    @property
    def ledger(self) -> list[LedgerEntry]:
        """All recorded expenditures, in order."""
        with self._lock:
            return list(self._ledger)

    @property
    def epsilon_spent(self) -> float:
        """Total ε charged so far (``sum`` of the ledger's ε, exactly)."""
        with self._lock:
            return self._epsilon_total.value

    @property
    def delta_spent(self) -> float:
        """Total δ charged so far (``sum`` of the ledger's δ, exactly)."""
        with self._lock:
            return self._delta_total.value

    @property
    def epsilon_remaining(self) -> float:
        """Unspent ε."""
        return self.epsilon_budget - self.epsilon_spent

    def can_afford(self, epsilon: float, delta: float = 0.0) -> bool:
        """Would charging (ε, δ) stay within budget?"""
        return (
            self.epsilon_spent + epsilon <= self.epsilon_budget + 1e-12
            and self.delta_spent + delta <= self.delta_budget + 1e-15
        )

    def remaining(self) -> float:
        """Unspent ε (alias of :attr:`epsilon_remaining`, lock-consistent)."""
        with self._lock:
            return self.epsilon_remaining

    def can_spend(self, epsilon: float, delta: float = 0.0) -> bool:
        """Non-raising affordability probe.

        Unlike :meth:`can_afford` (which :class:`AdvancedAccountant`
        overrides to *raise* on a mismatched per-query ε), this always
        answers with a boolean — what an admission controller wants.
        """
        with self._lock:
            try:
                return self.can_afford(epsilon, delta)
            except DataError:
                return False

    def can_spend_after(self, pending, epsilon: float,
                        delta: float = 0.0) -> bool:
        """Non-raising probe: can (ε, δ) be charged on top of ``pending``?

        ``pending`` holds charges already promised but not yet on the
        ledger (anything with ``.epsilon``/``.delta``, e.g. the serve
        layer's reservations); the probe answers as if they had landed.
        """
        return self.can_spend(sum(charge.epsilon for charge in pending)
                              + epsilon,
                              sum(charge.delta for charge in pending)
                              + delta)

    def remaining_after(self, pending) -> float:
        """Unspent ε once every charge in ``pending`` has landed.

        ``pending`` is as for :meth:`can_spend_after`; under basic
        composition the pending ε simply subtract.
        """
        with self._lock:
            return self.remaining() - sum(charge.epsilon
                                          for charge in pending)

    def spend(self, epsilon: float, delta: float = 0.0,
              label: str = "query") -> LedgerEntry:
        """Charge the budget or raise :class:`PrivacyBudgetError`."""
        if epsilon <= 0:
            raise DataError("spent epsilon must be positive")
        with self._lock:
            if not self.can_afford(epsilon, delta):
                raise PrivacyBudgetError(
                    f"budget exhausted: requested ε={epsilon:.4g} δ={delta:.2g} "
                    f"with ε_remaining={self.epsilon_remaining:.4g}"
                )
            entry = LedgerEntry(label=label, epsilon=float(epsilon),
                                delta=float(delta))
            self._ledger.append(entry)
            self._epsilon_total.add(entry.epsilon)
            self._delta_total.add(entry.delta)
        telemetry = obs.get()
        if telemetry is not None:
            telemetry.metrics.counter("privacy.queries").inc()
            telemetry.metrics.gauge("privacy.epsilon_spent").set(
                self.epsilon_spent
            )
            telemetry.metrics.gauge("privacy.epsilon_remaining").set(
                self.epsilon_remaining
            )
            telemetry.metrics.gauge("privacy.delta_spent").set(
                self.delta_spent
            )
        return entry

    def render_ledger(self) -> str:
        """Human-readable audit trail of the budget."""
        lines = [
            f"privacy ledger: ε {self.epsilon_spent:.4g}/{self.epsilon_budget:.4g}"
            f" spent, δ {self.delta_spent:.2g}/{self.delta_budget:.2g}"
        ]
        for entry in self._ledger:
            lines.append(f"  {entry.label}: ε={entry.epsilon:.4g} δ={entry.delta:.2g}")
        return "\n".join(lines)


def advanced_composition_epsilon(per_query_epsilon: float, n_queries: int,
                                 delta_slack: float) -> float:
    """Total ε of k queries at ε₀ under advanced composition."""
    if per_query_epsilon <= 0 or n_queries < 1:
        raise DataError("need positive per-query epsilon and n_queries >= 1")
    if not 0.0 < delta_slack < 1.0:
        raise DataError("delta_slack must be in (0, 1)")
    eps0, k = per_query_epsilon, n_queries
    return (
        eps0 * np.sqrt(2.0 * k * np.log(1.0 / delta_slack))
        + k * eps0 * (np.exp(eps0) - 1.0)
    )


def max_queries_basic(epsilon_budget: float, per_query_epsilon: float) -> int:
    """How many ε₀ queries basic composition affords."""
    if per_query_epsilon <= 0:
        raise DataError("per_query_epsilon must be positive")
    return int(np.floor(epsilon_budget / per_query_epsilon + 1e-12))


def max_queries_advanced(epsilon_budget: float, per_query_epsilon: float,
                         delta_slack: float) -> int:
    """How many ε₀ queries advanced composition affords at total budget.

    Monotone in k, so binary search.
    """
    if advanced_composition_epsilon(per_query_epsilon, 1, delta_slack) > epsilon_budget:
        return 0
    low, high = 1, 2
    while (advanced_composition_epsilon(per_query_epsilon, high, delta_slack)
           <= epsilon_budget):
        high *= 2
        if high > 10**9:
            break
    while low < high:
        mid = (low + high + 1) // 2
        if (advanced_composition_epsilon(per_query_epsilon, mid, delta_slack)
                <= epsilon_budget):
            low = mid
        else:
            high = mid - 1
    return low


class AdvancedAccountant(PrivacyAccountant):
    """Accountant that charges homogeneous queries via advanced composition.

    Assumes all queries share ``per_query_epsilon``; the effective total
    is recomputed as queries accumulate, so the budget check reflects the
    sqrt(k) growth rather than the linear one.
    """

    def __init__(self, epsilon_budget: float, per_query_epsilon: float,
                 delta_slack: float):
        super().__init__(epsilon_budget, delta_budget=delta_slack)
        if per_query_epsilon <= 0:
            raise DataError("per_query_epsilon must be positive")
        self.per_query_epsilon = float(per_query_epsilon)
        self.delta_slack = float(delta_slack)

    @property
    def epsilon_spent(self) -> float:
        """Effective ε under advanced composition of the ledger."""
        k = len(self._ledger)
        if k == 0:
            return 0.0
        return float(advanced_composition_epsilon(
            self.per_query_epsilon, k, self.delta_slack
        ))

    def _affords(self, n_queries: int) -> bool:
        """Does the n-query effective total fit the budget?"""
        prospective = advanced_composition_epsilon(
            self.per_query_epsilon, n_queries, self.delta_slack
        )
        return prospective <= self.epsilon_budget + 1e-12

    def can_afford(self, epsilon: float, delta: float = 0.0) -> bool:
        """Check the k+1-query effective total against the budget."""
        if abs(epsilon - self.per_query_epsilon) > 1e-9:
            raise DataError(
                "AdvancedAccountant only charges its fixed per-query epsilon"
            )
        return self._affords(len(self._ledger) + 1)

    def can_spend_after(self, pending, epsilon: float,
                        delta: float = 0.0) -> bool:
        """Can one more query land on top of the ``pending`` ones?

        Composition counts queries, so the probe is for
        ``len(ledger) + len(pending) + 1`` queries at the fixed
        per-query ε — not for one query of the pending ε summed.
        """
        if abs(epsilon - self.per_query_epsilon) > 1e-9:
            return False
        with self._lock:
            return self._affords(len(self._ledger) + len(pending) + 1)

    def remaining_after(self, pending) -> float:
        """Unspent ε once the ``pending`` queries have landed: the
        budget minus the composed total of ``len(ledger) +
        len(pending)`` queries, not minus the pending ε summed."""
        with self._lock:
            n_queries = len(self._ledger) + len(pending)
            spent = float(advanced_composition_epsilon(
                self.per_query_epsilon, n_queries, self.delta_slack
            )) if n_queries else 0.0
            return self.epsilon_budget - spent

    @property
    def delta_spent(self) -> float:
        """The δ' slack consumed by the composition theorem."""
        return self.delta_slack if self._ledger else 0.0
