"""Run one workload for a fixed time and report its metrics.

``measure(workload, seed, seconds, trace=False)`` sets the workload up
several times (their median is ``setup_s``), then runs passes
until ``seconds`` have gone by, checking every pass's outputs, and
returns the end-to-end metrics.  With ``trace=True`` it sets up once
and runs rounds of three passes: untraced (the baseline), with
``repro.obs`` telemetry configured, and under the
:class:`~perfbench.layers.Layers` wrappers, so the three modes share
the run's stretch of host speed; it returns the per-layer metrics,
each normalised per traced pass.
"""

from __future__ import annotations

import gc
import os
import platform
import resource
import statistics
import sys
import time
import traceback

import numpy as np

from repro import obs

from perfbench.layers import Layers
from perfbench.workloads import NPROC, ServeRelease, Tally

#: Set-ups per run: at least ``SETUP_REPEATS``, and more until they
#: have taken ``SETUP_SECONDS``, so a cheap set-up's median is not one
#: first-call outlier; ``setup_s`` is their median.
SETUP_REPEATS = 3
SETUP_SECONDS = 3.0

#: Untraced passes per run at least, however long one takes.
MIN_PASSES = 3

#: (name, unit, better) — reported with ``--trace 0``.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("batch_s", "s", "lower"),
    ("interactive_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

#: Layers whose self time (``{layer}_s``) is reported per traced pass.
_TIMED = (
    "pipeline.run", "learn.fit", "learn.predict", "learn.roc_auc",
    "learn.accuracy", "accuracy.bootstrap", "accuracy.conformal",
    "fairness.audit", "confidentiality.risk", "transparency.surrogate",
    "transparency.importance", "data.encode", "data.partition",
    "core.audit", "engine.run", "store.fingerprint", "store.codec",
    "store.get", "store.put", "parallel.map", "serve.plan",
    "serve.group_stats", "serve.member_release", "serve.budget",
)

#: Layers whose call count (``{layer}_calls``) is reported too.
_COUNTED = ("learn.predict", "learn.roc_auc", "accuracy.bootstrap",
            "store.fingerprint")

#: (name, unit, better) — reported with ``--trace 1``.
PER_LAYER = (
    *((f"{layer}_s", "s", "lower") for layer in _TIMED),
    *((f"{layer}_calls", "count", "lower") for layer in _COUNTED),
    ("engine.node_hits", "count", "higher"),
    ("engine.node_misses", "count", "lower"),
    ("store.hits", "count", "higher"),
    ("store.misses", "count", "lower"),
    ("store.hit_frac", "ratio", "higher"),
    ("store.bytes_read", "bytes", "lower"),
    ("store.bytes_written", "bytes", "lower"),
    ("parallel.maps", "count", "lower"),
    ("parallel.tasks", "count", "lower"),
    ("parallel.child_cpu_s", "s", "lower"),
    ("parallel.efficiency", "ratio", "higher"),
    ("serve.submit_s", "s/query", "lower"),
    ("serve.batches", "count", "lower"),
    ("serve.batch_size_mean", "count", "higher"),
    ("serve.gen_lag_ms", "ms", "lower"),
    ("serve.p99_ms", "ms", "lower"),
    ("serve.latency_samples", "count", "higher"),
    ("obs.overhead_frac", "ratio", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
    ("trace.pass_s", "s", "lower"),
)


def environment(seed: int) -> dict:
    """What a result must be read with: cores, versions, seed."""
    return {"cpu_count": os.cpu_count(), "nproc": NPROC,
            "python": platform.python_version(), "numpy": np.__version__,
            "platform": platform.machine(), "seed": seed}


def _cpu(who: int) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def _one_pass(workload, state: dict, tally: Tally,
              layers: Layers | None = None):
    """Run, time and check one pass; ``None`` if it raised."""
    # The last pass's cyclic garbage (closed servers, finished plans) is
    # collected here, untimed, instead of in this pass's legs.
    gc.collect()
    wall = time.perf_counter()
    own = _cpu(resource.RUSAGE_SELF)
    children = _cpu(resource.RUSAGE_CHILDREN)
    try:
        if layers is None:
            result = workload.run_pass(state)
        else:
            with layers:
                result = workload.run_pass(state)
    except Exception:  # a broken pass is a failed operation, not a crash
        traceback.print_exc()
        tally.check(False, f"{workload.name}: pass raised")
        return None
    result.counters["wall_s"] = time.perf_counter() - wall
    result.counters["self_cpu_s"] = _cpu(resource.RUSAGE_SELF) - own
    result.counters["child_cpu_s"] = _cpu(resource.RUSAGE_CHILDREN) - children
    workload.check(state, result.outputs, tally)
    result.outputs = None
    return result


def _rounds(workload, state: dict, tally: Tally, seconds: float,
            min_rounds: int, modes: tuple) -> list:
    """Passes for ``seconds`` (``min_rounds`` rounds at least), one per
    mode in turn, so every mode sees the same stretch of the run.

    A mode is ``None`` (untraced), ``"obs"`` (``repro.obs`` telemetry
    configured) or a :class:`Layers` (traced).  Returns one list of
    passes per mode.
    """
    passes: list = [[] for _ in modes]
    rounds = 0
    start = time.perf_counter()
    while rounds < min_rounds or time.perf_counter() - start < seconds:
        rounds += 1
        for kept, mode in zip(passes, modes):
            if mode == "obs":
                obs.configure()
                try:
                    result = _one_pass(workload, state, tally)
                finally:
                    obs.reset()
            else:
                result = _one_pass(workload, state, tally, mode)
            if result is not None:
                kept.append(result)
    if not all(passes):
        raise RuntimeError(f"{workload.name}: every pass of a mode failed")
    return passes


def _median_batch(passes: list) -> float:
    return statistics.median(p.batch_s for p in passes)


def _samples(passes: list, attribute: str) -> np.ndarray:
    return np.asarray([value for p in passes
                       for value in getattr(p, attribute)])


def _median_interactive(passes: list) -> float:
    """Median over passes of each pass's median interactive sample."""
    return float(statistics.median(statistics.median(p.interactive_s)
                                   for p in passes))


def summary(workload, passes: list) -> dict:
    """The ROADMAP-named figures (report_s, qps_max, ...) for humans."""
    interactive = _samples(passes, "interactive_s")
    if isinstance(workload, ServeRelease):
        return {
            "qps_max": (statistics.median(p.counters["serve.saturation_ok"]
                                          / p.batch_s for p in passes),
                        "1/s"),
            "p50_ms": (_median_interactive(passes) * 1e3, "ms"),
            "p99_ms": (float(np.percentile(interactive, 99)) * 1e3, "ms"),
            "latency_samples": (int(interactive.size), "count"),
            "offered_qps": (workload.rate_qps, "1/s"),
        }
    return {"report_s": (_median_batch(passes), "s"),
            "reaudit_s": (_median_interactive(passes), "s"),
            "passes": (len(passes), "count")}


def end_to_end(setups: list, passes: list) -> dict:
    return {
        "setup_s": statistics.median(setups),
        "batch_s": _median_batch(passes),
        "interactive_ms": _median_interactive(passes) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _percentile_ms(samples: np.ndarray, q: float) -> float:
    return float(np.percentile(samples, q)) * 1e3 if samples.size else 0.0


def per_layer(workload, layers: Layers, baseline: list, observed: list,
              traced: list) -> dict:
    n = len(traced)
    totals = layers.totals()
    counters: dict = {}
    for p in traced:
        for key, value in p.counters.items():
            counters[key] = counters.get(key, 0) + value
    metrics = {f"{layer}_s": totals.get(f"{layer}_s", 0.0) / n
               for layer in _TIMED}
    metrics.update({f"{layer}_calls": totals.get(f"{layer}_calls", 0) / n
                    for layer in _COUNTED})
    for name in ("store.hits", "store.misses", "store.bytes_read",
                 "store.bytes_written", "serve.batches"):
        metrics[name] = counters.get(name, 0) / n
    wall = counters["wall_s"]
    serving = isinstance(workload, ServeRelease)
    latency = _samples(baseline, "interactive_s") if serving else np.zeros(0)
    lateness = _samples(baseline, "lateness_s")
    metrics.update({
        "engine.node_hits": totals.get("engine.node_hit", 0) / n,
        "engine.node_misses": totals.get("engine.node_miss", 0) / n,
        "store.hit_frac": _ratio(metrics["store.hits"],
                                 metrics["store.hits"]
                                 + metrics["store.misses"]),
        "parallel.maps": totals.get("parallel.pool_start_calls", 0) / n,
        "parallel.tasks": totals.get("parallel.tasks", 0) / n,
        "parallel.child_cpu_s": counters["child_cpu_s"] / n,
        "parallel.efficiency": _ratio(
            counters["self_cpu_s"] + counters["child_cpu_s"],
            wall * workload.parallelism),
        "serve.submit_s": _ratio(totals.get("serve.submit_s", 0.0),
                                 counters.get("serve.queries", 0)),
        "serve.batch_size_mean": _ratio(
            counters.get("serve.batched_queries", 0),
            counters.get("serve.batches", 0)),
        "serve.gen_lag_ms": _percentile_ms(lateness, 99),
        "serve.p99_ms": _percentile_ms(latency, 99),
        "serve.latency_samples": int(latency.size),
        "obs.overhead_frac": _median_batch(observed) / _median_batch(baseline)
        - 1.0,
        "trace.overhead_frac": _median_batch(traced) / _median_batch(baseline)
        - 1.0,
        "trace.pass_s": wall / n,
    })
    return {name: metrics[name] for name, _, _ in PER_LAYER}


def measure(workload, seed: int, seconds: float, trace: bool = False,
            tally: Tally | None = None) -> tuple[dict, dict]:
    """``(metrics, summary)`` for one run; failures land in ``tally``."""
    tally = tally if tally is not None else Tally()
    setups: list = []
    while not setups or (not trace and (len(setups) < SETUP_REPEATS
                                        or sum(setups) < SETUP_SECONDS)):
        # Each set-up starts from the same heap: the last one's state
        # is freed and collected first, untimed.
        state = None
        gc.collect()
        start = time.perf_counter()
        state = workload.setup(seed)
        setups.append(time.perf_counter() - start)
    # The inputs and references live for the whole run; freezing them
    # keeps the collector from re-scanning the benchmark's own data.
    gc.collect()
    gc.freeze()
    try:
        if not trace:
            (passes,) = _rounds(workload, state, tally, seconds, MIN_PASSES,
                                (None,))
            return end_to_end(setups, passes), summary(workload, passes)
        layers = Layers()
        baseline, observed, traced = _rounds(workload, state, tally,
                                             seconds, 1,
                                             (None, "obs", layers))
        return (per_layer(workload, layers, baseline, observed, traced),
                summary(workload, baseline))
    finally:
        gc.unfreeze()


def report(workload_name: str, seed: int, metrics: dict, units: dict,
           summary_: dict, tally: Tally) -> dict:
    """Print the human lines; return the final JSON object."""
    print(f"# environment {environment(seed)}")
    for name, (value, unit) in summary_.items():
        print(f"{workload_name:14s} {name:24s} {value:14.6g} {unit}")
    for name, value in metrics.items():
        print(f"{workload_name:14s} {name:24s} {value:14.6g} {units[name]}")
    print(f"{workload_name:14s} attempted {tally.attempted} failed "
          f"{tally.failed}", file=sys.stderr)
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
