"""Open-loop load generator.

The arrival schedule and the query order are fixed by the seed before the
first request is sent.  Requests go out at their due time whether or not
earlier ones have completed, each latency is counted from the *due* time
(so a stall is charged to every request it delays), and how late the
generator itself ran is reported next to the latencies.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np


def poisson_schedule(rng: np.random.Generator, rate_qps: float,
                     duration_s: float) -> np.ndarray:
    """Due times in seconds of a Poisson process, all inside ``duration_s``."""
    count = max(int(rate_qps * duration_s), 1)
    due = np.cumsum(rng.exponential(1.0 / rate_qps, size=count))
    # Rescaling keeps the count fixed by (rate, duration) alone, so every
    # seed offers the same number of requests over the same window.
    return due * (duration_s / due[-1])


@dataclass
class OpenLoopRun:
    """What came back from one open-loop phase."""

    #: one entry per request, in due order: a Ticket, or the service's typed
    #: rejection
    handles: list
    #: seconds the generator sent each request after it was due
    lateness_s: np.ndarray
    #: admitted requests still unanswered ``settle_s`` after the last arrival
    backlog: int


def run_open_loop(submit, due_s: np.ndarray, queries: np.ndarray,
                  settle_s: float = 1.0) -> OpenLoopRun:
    """Send ``queries[i]`` at ``due_s[i]`` through ``submit``.

    Never waits on a reply while sending; ``settle_s`` after the last
    arrival it counts what is still unanswered.
    """
    handles = []
    lateness = np.empty(len(due_s), dtype=np.float64)
    start = time.perf_counter()
    for i in range(len(due_s)):
        wait = due_s[i] - (time.perf_counter() - start)
        if wait > 0:
            time.sleep(wait)
        lateness[i] = max(time.perf_counter() - start - due_s[i], 0.0)
        handles.append(submit(queries[i]))
    time.sleep(settle_s)
    backlog = sum(1 for h in handles if hasattr(h, "done") and not h.done())
    return OpenLoopRun(handles, lateness, backlog)
