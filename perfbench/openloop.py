"""Open-loop load: seeded Poisson arrivals at a fixed offered rate.

Independent users do not wait for each other, so the generator sends on
its schedule whatever the server's state; a stall makes later requests
wait, and timing each request from its *due* time (not from when it was
finally submitted) charges that wait to the server.  One thread sleeps
until the next request is due, then submits every request due by now in
one ``submit_many``.  How late it ran is reported beside the latencies,
so a generator-bound run is visible.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np


@dataclass
class OpenLoopRun:
    """One open-loop leg: per-request latency and lateness, in seconds."""

    results: list          # QueryResult per request, in trace order
    latency_s: np.ndarray  # done-callback time minus due time
    lateness_s: np.ndarray  # submit time minus due time


class _Recorder:
    """Done-callback target: stamps each request's completion time."""

    __slots__ = ("done", "index")

    def __init__(self, done: np.ndarray, index: int):
        self.done = done
        self.index = index

    def __call__(self, pending) -> None:
        self.done[self.index] = time.perf_counter()


def schedule(rate_qps: float, duration_s: float, limit: int,
             rng: np.random.Generator) -> np.ndarray:
    """Due times (seconds from the start) of the requests sent.

    Gaps between requests are exponential with mean ``1 / rate_qps``
    (a Poisson stream).  Every request due before ``duration_s`` is
    kept, at most ``limit`` of them and at least one.
    """
    due = np.cumsum(rng.exponential(1.0 / rate_qps, size=limit))
    return due[:max(1, int(np.searchsorted(due, duration_s)))]


def run_open_loop(server, requests: list, due: np.ndarray) -> OpenLoopRun:
    """Send ``requests[i]`` at ``due[i]``; wait for every answer."""
    n = len(due)
    done = np.zeros(n)
    lateness = np.zeros(n)
    pending: list = []
    start = time.perf_counter()
    sent = 0
    while sent < n:
        now = time.perf_counter() - start
        if now < due[sent]:
            time.sleep(due[sent] - now)
            continue
        upto = min(n, int(np.searchsorted(due, now, side="right")))
        lateness[sent:upto] = now - due[sent:upto]
        batch = server.submit_many(requests[sent:upto])
        for index, item in enumerate(batch, start=sent):
            item.add_done_callback(_Recorder(done, index))
        pending.extend(batch)
        sent = upto
    server.drain()
    results = [item.result() for item in pending]
    return OpenLoopRun(results=results,
                       latency_s=done - (start + due),
                       lateness_s=lateness)
