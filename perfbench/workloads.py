"""The three FACT-loop workloads: set-up, timed legs and output checks.

Each workload builds its inputs from the seed alone (``setup``), then
runs *passes*.  A pass has two timed legs, and the benchmark reports
both under workload-neutral names:

* the **batch leg** — the workload's whole input to its finished
  output, run flat out (``batch_s``);
* the **interactive leg** — what one user waits for afterwards
  (``interactive_ms``): re-auditing after one parameter edit, or one
  query arriving in an open-loop stream.

``run_pass`` only runs and times; ``check`` compares the pass's outputs
with references computed in set-up by an independent path (an audit
without a store, a serial audit of the concatenated shards, a serial
one-worker server), counting every mismatch as a failed operation.
"""

from __future__ import annotations

import gc
import math
import os
import shutil
import sys
import time
from collections import Counter
from dataclasses import dataclass, field, replace

import numpy as np

from repro.core import FACTAuditor
from repro.data import PartitionedTable, three_way_split
from repro.data.schema import ColumnRole, categorical
from repro.data.synth import CensusIncomeGenerator, CreditScoringGenerator
from repro.learn import LogisticRegression, TableClassifier
from repro.pipeline import (
    CleanStage,
    Pipeline,
    RedactStage,
    ReweighStage,
    TrainStage,
    ValidateSchemaStage,
)
from repro.serve import QueryServer, ServeConfig
from repro.serve.loadgen import TABLE_NAME, bursts, zipf_workload
from repro.store import ArtifactStore

from perfbench.openloop import run_open_loop, schedule

#: Cores this process may run on (``nproc``): the cap on workers.
NPROC = len(os.sched_getaffinity(0))

#: The interactive edit: a new transparency surrogate depth, so only the
#: transparency section recomputes and the other three replay.
EDITED_SURROGATE_DEPTH = 5

#: Re-audits per pass, each against its own copy of the warm store: the
#: leg is short next to the cold audit, so repeating it is cheap and
#: gives its median more samples.
REAUDITS = 3

#: Shards of the ``audit_sharded`` test table.
N_SHARDS = 4

#: Census rows the served table holds.
SERVE_ROWS = 5_000

#: Seconds of each serve pass's open-loop leg.
OPEN_S = 1.0

#: Scratch space for on-disk stores, inside the checkout.
WORK_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    ".perfbench_work",
)


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, stream]))


@dataclass
class Tally:
    """Operations attempted and failed, over every checked output."""

    attempted: int = 0
    failed: int = 0

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)


@dataclass
class Pass:
    """One pass's timings, outputs for ``check`` and layer counters."""

    batch_s: float
    interactive_s: list
    outputs: dict
    counters: dict = field(default_factory=dict)
    lateness_s: list = field(default_factory=list)


def _add(counters: dict, prefix: str, values: dict, keys) -> None:
    for key in keys:
        name = f"{prefix}.{key}"
        counters[name] = counters.get(name, 0) + values[key]


# -- audits -------------------------------------------------------------------

_STORE_KEYS = ("hits", "misses", "bytes_read", "bytes_written")


class AuditCold:
    """The E11 responsible loop, serial: pipeline, training, FACT audit.

    The batch leg runs ``Pipeline([ValidateSchema, Clean, Redact,
    Reweigh, Train(LR)])`` on the training split and audits the model
    with a calibration split and a fresh in-memory store.  The
    interactive leg re-audits against a copy of that warm store with the
    surrogate depth edited, so only transparency recomputes.
    """

    name = "audit_cold"

    def __init__(self, n_rows: int = 20_000, n_bootstrap: int = 250):
        self.n_rows = n_rows
        self.n_bootstrap = n_bootstrap
        self.parallelism = 1

    def setup(self, seed: int) -> dict:
        rng = _rng(seed, 1)
        generator = CreditScoringGenerator(label_bias=0.35,
                                           proxy_strength=0.85)
        data = generator.generate(self.n_rows, rng)
        data = data.with_column(
            categorical("applicant_id", role=ColumnRole.IDENTIFIER),
            [f"app_{index:06d}" for index in range(data.n_rows)],
        )
        train, calibration, test = three_way_split(data, 0.25, 0.15, rng)
        state = {
            "seed": seed, "train": train, "calibration": calibration,
            "test": test.drop(["applicant_id", "qualified"]),
        }
        result = self._pipeline(state)
        state["reference"] = self._audit(state, result, None).fingerprint()
        state["reference_edited"] = self._audit(
            state, result, None, EDITED_SURROGATE_DEPTH
        ).fingerprint()
        return state

    def _pipeline(self, state: dict):
        return Pipeline([
            ValidateSchemaStage(),
            CleanStage(),
            RedactStage(),
            ReweighStage(),
            TrainStage(TableClassifier(LogisticRegression())),
        ]).run(state["train"], _rng(state["seed"], 2))

    def _audit(self, state: dict, result, store, surrogate_depth: int = 4):
        auditor = FACTAuditor(n_bootstrap=self.n_bootstrap,
                              surrogate_depth=surrogate_depth,
                              n_jobs=1, backend="serial", store=store)
        return auditor.audit(result.model, state["test"],
                             _rng(state["seed"], 3),
                             calibration=state["calibration"],
                             pipeline_result=result, subject="responsible")

    def run_pass(self, state: dict) -> Pass:
        store = ArtifactStore.in_memory()
        start = time.perf_counter()
        result = self._pipeline(state)
        report = self._audit(state, result, store)
        batch_s = time.perf_counter() - start
        counters: dict = {}
        _add(counters, "store", store.stats(), _STORE_KEYS)
        edited, interactive_s = [], []
        for _ in range(REAUDITS):
            warm = ArtifactStore.in_memory()
            for key in store.backend.keys():
                warm.backend.put(key, store.backend.get(key))
            start = time.perf_counter()
            edited.append(self._audit(state, result, warm,
                                      EDITED_SURROGATE_DEPTH))
            interactive_s.append(time.perf_counter() - start)
            _add(counters, "store", warm.stats(), _STORE_KEYS)
        return Pass(batch_s, interactive_s,
                    {"report": report, "edited": edited}, counters)

    def check(self, state: dict, outputs: dict, tally: Tally) -> None:
        tally.check(outputs["report"].fingerprint() == state["reference"],
                    f"{self.name}: report fingerprint differs from the "
                    "store-free reference")
        for edited in outputs["edited"]:
            tally.check(edited.fingerprint() == state["reference_edited"],
                        f"{self.name}: edited re-audit differs from the "
                        "store-free reference")


class AuditSharded:
    """Census test set as a 4-shard table, process-parallel audit.

    The batch leg partitions the table and audits it cold on a fresh
    on-disk store; the interactive leg builds a new ``PartitionedTable``
    and re-audits against a copy of that warm store with the surrogate
    depth edited, so the shard partials and three sections replay from
    disk.
    """

    name = "audit_sharded"

    def __init__(self, rows_per_shard: int = 2_500, n_train: int = 4_000,
                 n_bootstrap: int = 100):
        self.rows_per_shard = rows_per_shard
        self.n_train = n_train
        self.n_bootstrap = n_bootstrap
        self.parallelism = min(NPROC, N_SHARDS)

    def setup(self, seed: int) -> dict:
        rng = _rng(seed, 11)
        generator = CensusIncomeGenerator()
        train = generator.generate(self.n_train, rng)
        test = generator.generate(self.rows_per_shard * N_SHARDS, rng)
        model = TableClassifier(LogisticRegression()).fit(train)
        state = {"seed": seed, "model": model, "test": test}
        whole = PartitionedTable.partition(test, n_shards=N_SHARDS).concat()
        state["reference"] = self._auditor(1, "serial", None).audit(
            model, whole, _rng(seed, 12)).fingerprint()
        state["reference_edited"] = self._auditor(
            1, "serial", None, EDITED_SURROGATE_DEPTH,
        ).audit(model, whole, _rng(seed, 12)).fingerprint()
        return state

    def _auditor(self, n_jobs, backend, store, surrogate_depth: int = 4):
        return FACTAuditor(n_bootstrap=self.n_bootstrap,
                           surrogate_depth=surrogate_depth,
                           n_jobs=n_jobs, backend=backend, store=store)

    def _sharded(self, state: dict, store, surrogate_depth: int = 4):
        parts = PartitionedTable.partition(state["test"], n_shards=N_SHARDS)
        auditor = self._auditor(self.parallelism, "process", store,
                                surrogate_depth)
        return auditor.audit(state["model"], parts, _rng(state["seed"], 12))

    def run_pass(self, state: dict) -> Pass:
        work = os.path.join(WORK_DIR, str(os.getpid()))
        path = os.path.join(work, "store")
        shutil.rmtree(work, ignore_errors=True)
        try:
            cold_store = ArtifactStore.on_disk(path)
            start = time.perf_counter()
            report = self._sharded(state, cold_store)
            batch_s = time.perf_counter() - start
            counters: dict = {}
            _add(counters, "store", cold_store.stats(), _STORE_KEYS)
            edited, interactive_s = [], []
            for index in range(REAUDITS):
                # A new store object on a copy of the directory: the warm
                # state a later session would open.
                copy = shutil.copytree(path, f"{path}-{index}")
                warm_store = ArtifactStore.on_disk(copy)
                start = time.perf_counter()
                edited.append(self._sharded(state, warm_store,
                                            EDITED_SURROGATE_DEPTH))
                interactive_s.append(time.perf_counter() - start)
                _add(counters, "store", warm_store.stats(), _STORE_KEYS)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        return Pass(batch_s, interactive_s,
                    {"report": report, "edited": edited}, counters)

    check = AuditCold.check


# -- serving ------------------------------------------------------------------

def _canonical(value) -> str:
    """An exact, hashable rendering of one released answer."""
    if isinstance(value, dict):
        return repr(sorted(value.items()))
    return repr(value)


class ServeRelease:
    """The Zipf dashboard trace against a query server with the answer
    cache off, so every query is a noisy DP release; two legs.

    The batch (saturation) leg submits the whole trace in bursts, as
    ``repro.serve.loadgen.run_load`` does, and times it to the last
    answer.  The interactive (open-loop) leg sends the trace's prefix
    one query at a time, at Poisson times, ``rate_qps`` per second for
    ``open_s`` seconds.  Each leg gets a fresh server, so release
    ordinals and ledgers restart.
    """

    name = "serve_release"

    def __init__(self, n_queries: int = 4_000, rate_qps: float = 600.0,
                 open_s: float = OPEN_S):
        self.n_queries = n_queries
        self.rate_qps = rate_qps
        self.open_s = open_s
        self.parallelism = min(NPROC, 2)

    def setup(self, seed: int) -> dict:
        table = CensusIncomeGenerator().generate(SERVE_ROWS, _rng(seed, 21))
        requests = zipf_workload(self.n_queries, n_tenants=16, n_shapes=64,
                                 zipf_s=1.2, seed=seed)
        config = ServeConfig(workers=self.parallelism, seed=seed,
                             batch_window_ms=2.0, cache=False,
                             max_queue_depth=max(4096, self.n_queries),
                             default_epsilon_budget=1e9)
        state = {"seed": seed, "table": table, "requests": requests,
                 "config": config,
                 "chunks": bursts(requests, mean_burst=256, seed=seed)}
        # The k-th occurrence of a fingerprint is its k-th release, so
        # the serial reference replays the whole trace.
        state["reference"] = self._serial(table, requests, config)
        return state

    @staticmethod
    def _serial(table, requests: list, config: ServeConfig) -> dict:
        """fingerprint -> answers in release order, from one worker."""
        serial = replace(config, workers=1, batch_window_ms=0.0)
        answers: dict[str, list] = {}
        with QueryServer(serial) as server:
            server.register_table(TABLE_NAME, table)
            for pending in server.submit_many(requests):
                result = pending.result()
                answers.setdefault(result.fingerprint, []).append(
                    _canonical(result.value))
        return answers

    def _server(self, state: dict) -> QueryServer:
        server = QueryServer(state["config"])
        server.register_table(TABLE_NAME, state["table"])
        return server

    def run_pass(self, state: dict) -> Pass:
        counters: dict = {"serve.queries": 0}
        server = self._server(state)
        try:
            start = time.perf_counter()
            pending = []
            for chunk in state["chunks"]:
                pending.extend(server.submit_many(chunk))
            server.drain()
            batch_s = time.perf_counter() - start
        finally:
            server.close()
        saturation = self._leg(server, [item.result() for item in pending],
                               counters)
        counters["serve.saturation_ok"] = saturation["statuses"].count("ok")
        # Only the compact record survives into the open-loop leg, so its
        # collections do not re-scan the saturation leg's objects.
        del server, pending
        gc.collect()
        open_server = self._server(state)
        due = schedule(self.rate_qps, self.open_s, len(state["requests"]),
                       _rng(state["seed"], 22))
        try:
            run = run_open_loop(open_server, state["requests"], due)
        finally:
            open_server.close()
        open_loop = self._leg(open_server, run.results, counters)
        return Pass(batch_s, list(run.latency_s),
                    {"legs": [saturation, open_loop]}, counters,
                    list(run.lateness_s))

    @staticmethod
    def _leg(server: QueryServer, results: list, counters: dict) -> dict:
        """What ``check`` needs of one leg, as flat lists of strings."""
        stats = server.stats()
        counters["serve.queries"] += len(results)
        _add(counters, "serve", stats["batching"],
             ("batches", "batched_queries"))
        return {
            "statuses": [result.status for result in results],
            "fingerprints": [result.fingerprint for result in results],
            "answers": [_canonical(result.value) for result in results],
            "ledgers": {tenant: [entry.epsilon for entry in
                                 server.budget.accountant(tenant).ledger]
                        for tenant in server.budget.tenants},
        }

    def check(self, state: dict, outputs: dict, tally: Tally) -> None:
        for leg in outputs["legs"]:
            self._check_leg(state, leg, tally)

    def _check_leg(self, state: dict, leg: dict, tally: Tally) -> None:
        statuses = leg["statuses"]
        requests = state["requests"][:len(statuses)]
        reference = state["reference"]
        failed = {index for index, status in enumerate(statuses)
                  if status != "ok"}
        by_fingerprint: dict[str, list[str]] = {}
        indices: dict[str, list[int]] = {}
        for index, (fingerprint, answer) in enumerate(
                zip(leg["fingerprints"], leg["answers"])):
            if index not in failed:
                by_fingerprint.setdefault(fingerprint, []).append(answer)
                indices.setdefault(fingerprint, []).append(index)
        for fingerprint, answers in by_fingerprint.items():
            expected = reference.get(fingerprint, [])
            if Counter(answers) != Counter(expected[:len(answers)]):
                failed.update(indices[fingerprint])
        # Exact ε accounting: each tenant's ledger holds exactly its
        # answered requests' ε (as a multiset, so the correctly rounded
        # sums agree too), whatever order releases committed in.
        charged: dict[str, list[float]] = {}
        for request, status in zip(requests, statuses):
            if status == "ok":
                charged.setdefault(request.tenant, []).append(
                    float(request.epsilon))
        ledgers = leg["ledgers"]
        for tenant in set(charged) | set(ledgers):
            ledger = ledgers.get(tenant, [])
            expected = charged.get(tenant, [])
            if sorted(ledger) != sorted(expected) or \
                    math.fsum(ledger) != math.fsum(expected):
                failed.update(index for index, request
                              in enumerate(requests)
                              if request.tenant == tenant)
        tally.attempted += len(statuses)
        tally.failed += len(failed)
        if failed:
            print(f"check failed: {self.name}: {len(failed)} of "
                  f"{len(statuses)} queries", file=sys.stderr)


WORKLOADS = {
    "audit_cold": AuditCold,
    "audit_sharded": AuditSharded,
    "serve_release": ServeRelease,
}
