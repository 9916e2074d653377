"""Per-layer self time for the traced run, measured from outside ``src/``.

:class:`Layers` replaces each layer's public entry points with a timing
wrapper for the duration of a ``with`` block and puts the originals
back afterwards.  A function is patched at every name a caller looks it
up by: every ``repro.*`` module attribute bound to the original object
is replaced, so ``repro.core.auditor.roc_auc`` is timed as well as
``repro.learn.metrics.roc_auc``.  Methods are patched on their class.

Self time is a wrapper's wall time minus the wall time of the wrapped
calls nested inside it *on the same thread*.  A call that hands work to
other threads (a pool ``map``) therefore keeps the time it waits for
them, while the nested calls run on those threads are charged to their
own layers too; calls made on server threads include time spent waiting
for the GIL.  Work done in child processes is invisible here and shows
only as ``parallel.child_cpu_s``.

The wrappers keep the original's ``__code__``, module and qualified
name, so code fingerprints (and with them every cache key) are the same
traced or not, and they pickle to the original function, so a process
worker runs untraced code.
"""

from __future__ import annotations

import importlib
import sys
import threading
import time
import types

from repro.accuracy import bootstrap
from repro.accuracy.conformal import SplitConformalClassifier
from repro.confidentiality import risk
from repro.core.auditor import FACTAuditor
from repro.data.partition import PartitionedTable
from repro.engine import node as engine_node
from repro.engine.executor import Executor
from repro.fairness import report as fairness_report
from repro.learn import metrics as learn_metrics
from repro.learn.linear import LogisticRegression
from repro.learn.preprocessing import FeatureEncoder
from repro.learn.table_model import TableClassifier
from repro.parallel.executor import ParallelExecutor
from repro.pipeline.pipeline import Pipeline
from repro.serve import batching
from repro.serve.budget import BudgetManager
from repro.serve.planner import QueryPlanner
from repro.serve.server import QueryServer
from repro.store.store import ArtifactStore
from repro.transparency import importance, surrogate

# ``repro.store`` re-exports a *function* named ``fingerprint``, which
# shadows the submodule of that name as a package attribute.
codec = importlib.import_module("repro.store.codec")
store_fingerprint = importlib.import_module("repro.store.fingerprint")

#: (module, function name, metric) — functions patched at every name.
FUNCTIONS = (
    (learn_metrics, "roc_auc", "learn.roc_auc"),
    (learn_metrics, "accuracy", "learn.accuracy"),
    (bootstrap, "bootstrap_paired_ci", "accuracy.bootstrap"),
    (bootstrap, "bootstrap_ci", "accuracy.bootstrap"),
    (fairness_report, "audit_model", "fairness.audit"),
    (fairness_report, "audit_decisions", "fairness.audit"),
    (risk, "assess_risk", "confidentiality.risk"),
    (risk, "qi_class_counts", "confidentiality.risk"),
    (risk, "risk_from_counts", "confidentiality.risk"),
    (surrogate, "fit_surrogate", "transparency.surrogate"),
    (importance, "permutation_importance", "transparency.importance"),
    (store_fingerprint, "fingerprint", "store.fingerprint"),
    (store_fingerprint, "array_fingerprint", "store.fingerprint"),
    (store_fingerprint, "table_fingerprint", "store.fingerprint"),
    (store_fingerprint, "code_fingerprint", "store.fingerprint"),
    (store_fingerprint, "object_fingerprint", "store.fingerprint"),
    (engine_node, "value_fingerprint", "store.fingerprint"),
    (codec, "encode", "store.codec"),
    (codec, "decode", "store.codec"),
    (codec, "dumps", "store.codec"),
    (codec, "loads", "store.codec"),
    (batching, "group_stats", "serve.group_stats"),
    (batching, "member_release", "serve.member_release"),
)

#: (class, method name, metric) — methods patched on their class.
METHODS = (
    (Pipeline, "run", "pipeline.run"),
    (TableClassifier, "fit", "learn.fit"),
    (LogisticRegression, "fit", "learn.fit"),
    (LogisticRegression, "predict_proba", "learn.predict"),
    (SplitConformalClassifier, "calibrate", "accuracy.conformal"),
    (SplitConformalClassifier, "predict_sets", "accuracy.conformal"),
    (SplitConformalClassifier, "coverage", "accuracy.conformal"),
    (SplitConformalClassifier, "mean_set_size", "accuracy.conformal"),
    (FeatureEncoder, "transform", "data.encode"),
    (PartitionedTable, "partition", "data.partition"),
    (PartitionedTable, "shard_fingerprint", "data.partition"),
    (PartitionedTable, "shard_fingerprints", "data.partition"),
    (FACTAuditor, "audit", "core.audit"),
    (Executor, "run", "engine.run"),
    (ArtifactStore, "get", "store.get"),
    (ArtifactStore, "_replay", "store.get"),
    (ArtifactStore, "probe", "store.get"),
    (ArtifactStore, "put", "store.put"),
    (ParallelExecutor, "map", "parallel.map"),
    (ParallelExecutor, "_make_pool", "parallel.pool_start"),
    (ParallelExecutor, "_chunk", "parallel.chunk"),
    (QueryServer, "submit", "serve.submit"),
    (QueryServer, "submit_many", "serve.submit"),
    (QueryPlanner, "plan", "serve.plan"),
    (BudgetManager, "reserve", "serve.budget"),
    (BudgetManager, "commit", "serve.budget"),
    (BudgetManager, "rollback", "serve.budget"),
)


def _unwrapped(module: str, qualname: str):
    """The original function behind a patched name (pickle target)."""
    target = importlib.import_module(module)
    for part in qualname.split("."):
        target = getattr(target, part)
    return getattr(target, "__wrapped__", target)


def _count_node_statuses(result, tally: dict) -> None:
    for status in result.statuses.values():
        tally[f"engine.node_{status}"] = tally.get(
            f"engine.node_{status}", 0) + 1


def _count_tasks(chunks, tally: dict) -> None:
    tally["parallel.tasks"] = tally.get("parallel.tasks", 0) + sum(
        len(tasks) for _, tasks in chunks)


#: Post-call hooks: metric -> fn(result, per-thread tally).
_ON_RETURN = {"engine.run": _count_node_statuses,
              "parallel.chunk": _count_tasks}


class _Timed:
    """A callable that charges its self time to one metric."""

    def __init__(self, layers: "Layers", metric: str, fn):
        self.__module__ = fn.__module__
        self.__qualname__ = fn.__qualname__
        self.__name__ = fn.__name__
        self.__doc__ = fn.__doc__
        self.__wrapped__ = fn
        if hasattr(fn, "__code__"):
            self.__code__ = fn.__code__
        self._layers = layers
        self._metric = metric
        self._on_return = _ON_RETURN.get(metric)

    def __call__(self, *args, **kwargs):
        stack, tally = self._layers._thread_state()
        nested = [0.0]
        stack.append(nested)
        start = time.perf_counter()
        try:
            result = self.__wrapped__(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            stack.pop()
            if stack:
                stack[-1][0] += elapsed
            entry = tally.get(self._metric)
            if entry is None:
                entry = tally[self._metric] = [0.0, 0]
            entry[0] += elapsed - nested[0]
            entry[1] += 1
        if self._on_return is not None:
            self._on_return(result, tally)
        return result

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        return types.MethodType(self, instance)

    def __reduce__(self):
        return _unwrapped, (self.__module__, self.__qualname__)


class Layers:
    """Context manager: patch every entry point, accumulate, restore."""

    def __init__(self):
        self._local = threading.local()
        self._tallies: list[dict] = []
        self._restore: list[tuple[object, str, object]] = []

    def _thread_state(self) -> tuple[list, dict]:
        local = self._local
        try:
            return local.stack, local.tally
        except AttributeError:
            local.stack, local.tally = [], {}
            # list.append is atomic: no lock, so a fork can never
            # inherit one held by another thread.
            self._tallies.append(local.tally)
            return local.stack, local.tally

    def __enter__(self) -> "Layers":
        modules = [module for name, module in list(sys.modules.items())
                   if module is not None
                   and (name == "repro" or name.startswith("repro."))]
        for module, name, metric in FUNCTIONS:
            original = getattr(module, name)
            wrapper = _Timed(self, metric, original)
            for holder in modules:
                for attr, value in list(vars(holder).items()):
                    if value is original:
                        self._patch(holder, attr, original, wrapper)
        for cls, name, metric in METHODS:
            original = cls.__dict__[name]
            if isinstance(original, classmethod):
                wrapper = classmethod(_Timed(self, metric, original.__func__))
            else:
                wrapper = _Timed(self, metric, original)
            self._patch(cls, name, original, wrapper)
        return self

    def _patch(self, holder, attr: str, original, wrapper) -> None:
        self._restore.append((holder, attr, original))
        setattr(holder, attr, wrapper)

    def __exit__(self, *exc_info) -> None:
        for holder, attr, original in reversed(self._restore):
            setattr(holder, attr, original)
        self._restore.clear()

    def totals(self) -> dict[str, float]:
        """``{metric}_s`` self seconds, ``{metric}_calls`` and counters."""
        merged: dict[str, float] = {}
        for tally in list(self._tallies):
            for metric, entry in list(tally.items()):
                if isinstance(entry, list):
                    merged[f"{metric}_s"] = merged.get(f"{metric}_s", 0.0) \
                        + entry[0]
                    merged[f"{metric}_calls"] = merged.get(
                        f"{metric}_calls", 0) + entry[1]
                else:
                    merged[metric] = merged.get(metric, 0) + entry
        return merged
