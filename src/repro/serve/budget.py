"""Per-tenant budget management with speculative charges.

The serving loop must never burn budget on a query that fails after
admission (execution error, cancelled request) and must never let two
concurrent queries both pass an affordability check that only one of
them can afford.  The :class:`BudgetManager` solves both with a
two-phase protocol:

1. :meth:`reserve` — under the tenant's lock, check the tenant's
   accountant against (spent + **pending**) and record a pending
   reservation.  Concurrent reservations therefore see each other.
2. :meth:`commit` — the query succeeded: charge the accountant's ledger
   and drop the pending mark.  :meth:`rollback` — it failed: drop the
   pending mark and the ledger never hears about it.

Rejected or failed queries leave the ledger byte-identical to a world
where they were never submitted.

The ledgers are **sharded per tenant**: every tenant owns its own lock,
accountant, and pending list, so two tenants reserving concurrently
never serialise on each other.  A short registry lock guards only
registration and the tenant listing — the reserve/commit hot path takes
exactly one per-tenant lock and the registry is read lock-free (one
atomic dict lookup).  The accountants keep their ledger totals running,
so a reserve or commit never walks the ledger: its cost is independent
of how many queries the tenant has already paid for.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from repro.confidentiality.accountant import (
    LedgerEntry,
    PrivacyAccountant,
)
from repro.exceptions import DataError, PrivacyBudgetError


@dataclass(eq=False)  # identity semantics: equal fields ≠ same reservation
class Reservation:
    """One speculative (ε, δ) charge awaiting commit or rollback."""

    tenant: str
    epsilon: float
    delta: float
    state: str = field(default="pending")  # pending | committed | rolled_back

    @property
    def settled(self) -> bool:
        return self.state != "pending"


class _TenantShard:
    """One tenant's ledger shard: a lock, an accountant, a pending list."""

    __slots__ = ("lock", "accountant", "pending")

    def __init__(self, accountant: PrivacyAccountant):
        self.lock = threading.Lock()
        self.accountant = accountant
        self.pending: list[Reservation] = []


class BudgetManager:
    """Registry of tenant accountants with sharded two-phase spending."""

    def __init__(self):
        self._registry_lock = threading.Lock()
        self._shards: dict[str, _TenantShard] = {}

    # -- tenant registry ----------------------------------------------------

    def register(self, tenant: str,
                 accountant: PrivacyAccountant) -> PrivacyAccountant:
        """Attach ``accountant`` as ``tenant``'s budget (idempotent per name)."""
        if not tenant:
            raise DataError("tenant name must be non-empty")
        with self._registry_lock:
            if tenant in self._shards:
                raise DataError(f"tenant {tenant!r} is already registered")
            self._shards[tenant] = _TenantShard(accountant)
        return accountant

    def _shard(self, tenant: str) -> _TenantShard:
        # Lock-free read: dict lookup is atomic, and shards are never
        # removed — the hot path never touches the registry lock.
        shard = self._shards.get(tenant)
        if shard is None:
            raise DataError(
                f"unknown tenant {tenant!r}; registered: {self.tenants}"
            )
        return shard

    def accountant(self, tenant: str) -> PrivacyAccountant:
        """The accountant backing ``tenant``."""
        return self._shard(tenant).accountant

    @property
    def tenants(self) -> list[str]:
        """Registered tenant names."""
        with self._registry_lock:
            return list(self._shards)

    def __contains__(self, tenant: str) -> bool:
        return tenant in self._shards

    # -- two-phase spending -------------------------------------------------

    def pending_epsilon(self, tenant: str) -> float:
        """ε currently reserved but not yet committed for ``tenant``."""
        shard = self._shards.get(tenant)
        if shard is None:
            return 0.0
        with shard.lock:
            return sum(r.epsilon for r in shard.pending)

    def remaining(self, tenant: str) -> float:
        """Committed-plus-pending view of the tenant's unspent ε.

        The accountant composes the pending charges as it would once
        they commit (for an :class:`AdvancedAccountant`, by query count).
        """
        shard = self._shard(tenant)
        with shard.lock:
            return shard.accountant.remaining_after(shard.pending)

    def can_reserve(self, tenant: str, epsilon: float,
                    delta: float = 0.0) -> bool:
        """Would :meth:`reserve` succeed right now?"""
        shard = self._shard(tenant)
        with shard.lock:
            return shard.accountant.can_spend_after(shard.pending, epsilon,
                                                    delta)

    def reserve(self, tenant: str, epsilon: float,
                delta: float = 0.0) -> Reservation:
        """Speculatively charge (ε, δ) or raise :class:`PrivacyBudgetError`."""
        if epsilon <= 0:
            raise DataError(f"epsilon must be positive, got {epsilon}")
        if delta < 0:
            raise DataError(f"delta must be non-negative, got {delta}")
        shard = self._shard(tenant)
        with shard.lock:
            if not shard.accountant.can_spend_after(shard.pending, epsilon,
                                                    delta):
                raise PrivacyBudgetError(
                    f"tenant {tenant!r} cannot afford ε={epsilon:.4g}: "
                    f"ε_remaining={shard.accountant.remaining():.4g} with "
                    f"ε_pending={sum(r.epsilon for r in shard.pending):.4g}"
                )
            reservation = Reservation(tenant, float(epsilon), float(delta))
            shard.pending.append(reservation)
            return reservation

    def commit(self, reservation: Reservation,
               label: str = "serve.query") -> LedgerEntry:
        """Turn a reservation into a real ledger entry."""
        shard = self._shard(reservation.tenant)
        with shard.lock:
            self._check_pending(shard, reservation)
            # Spend *before* settling: if the ledger somehow refuses
            # (out-of-band spending on the same accountant), the
            # reservation stays pending and can still be rolled back.
            entry = shard.accountant.spend(
                reservation.epsilon, reservation.delta, label=label
            )
            self._settle(shard, reservation, "committed")
            return entry

    def rollback(self, reservation: Reservation) -> None:
        """Release a reservation; the ledger never sees it."""
        shard = self._shard(reservation.tenant)
        with shard.lock:
            self._check_pending(shard, reservation)
            self._settle(shard, reservation, "rolled_back")

    @staticmethod
    def _check_pending(shard: _TenantShard,
                       reservation: Reservation) -> None:
        if reservation.settled:
            raise DataError(f"reservation is already {reservation.state}")
        if reservation not in shard.pending:
            raise DataError(
                f"reservation for {reservation.tenant!r} is not pending here"
            )

    @staticmethod
    def _settle(shard: _TenantShard, reservation: Reservation,
                state: str) -> None:
        shard.pending.remove(reservation)
        reservation.state = state
