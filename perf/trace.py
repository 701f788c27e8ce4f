"""In-memory span recorder for the traced run.

Spans are ``(name, start_ns, end_ns, parent, request_id)`` rows in
preallocated arrays, written out once when the run ends.  A disabled
tracer costs one branch per call, so the untraced run goes through the
same harness code.  Parents are tracked per thread: the service's worker
thread reads the device under its own stack, not under whatever the load
generator happens to have open.
"""

from __future__ import annotations

import json
import threading
import time
from pathlib import Path

import numpy as np


class Tracer:
    """Fixed-capacity span store; spans past the capacity are counted, not kept."""

    def __init__(self, enabled: bool, capacity: int = 1 << 18) -> None:
        self.enabled = enabled
        self.dropped = 0
        self._n = 0
        self._names: dict[str, int] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        size = capacity if enabled else 0
        self._name = np.zeros(size, dtype=np.int32)
        self._start = np.zeros(size, dtype=np.int64)
        self._end = np.zeros(size, dtype=np.int64)
        self._parent = np.full(size, -1, dtype=np.int32)
        self._request = np.full(size, -1, dtype=np.int64)

    def _name_id(self, name: str) -> int:
        ident = self._names.get(name)
        if ident is None:
            with self._lock:
                ident = self._names.setdefault(name, len(self._names))
        return ident

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _claim(self) -> int:
        """Next free row, or -1 (and one more dropped) when the store is full."""
        with self._lock:
            slot = self._n
            if slot >= self._name.shape[0]:
                self.dropped += 1
                return -1
            self._n = slot + 1
        return slot

    def begin(self, name: str, request_id: int = -1) -> int:
        """Open a span under the calling thread's current span."""
        if not self.enabled:
            return -1
        slot = self._claim()
        if slot < 0:
            return -1
        stack = self._stack()
        self._name[slot] = self._name_id(name)
        self._parent[slot] = stack[-1] if stack else -1
        self._request[slot] = request_id
        stack.append(slot)
        self._start[slot] = time.perf_counter_ns()
        return slot

    def end(self, slot: int) -> None:
        if slot < 0:
            return
        self._end[slot] = time.perf_counter_ns()
        self._stack().pop()

    def add(self, name: str, start_ns: int, end_ns: int, *,
            parent: int = -1, request_id: int = -1) -> int:
        """Record a span whose times were taken elsewhere (ticket stamps)."""
        if not self.enabled:
            return -1
        slot = self._claim()
        if slot < 0:
            return -1
        self._name[slot] = self._name_id(name)
        self._start[slot] = start_ns
        self._end[slot] = end_ns
        self._parent[slot] = parent
        self._request[slot] = request_id
        return slot

    # -- reading -----------------------------------------------------------

    @property
    def count(self) -> int:
        return self._n

    def durations_ns(self, name: str) -> np.ndarray:
        """Durations of every span called ``name`` (empty if none)."""
        ident = self._names.get(name)
        if ident is None:
            return np.zeros(0, dtype=np.int64)
        rows = np.flatnonzero(self._name[: self._n] == ident)
        return self._end[rows] - self._start[rows]

    def self_ns(self, name: str) -> np.ndarray:
        """Per-span self time: duration minus the time its children cover.

        Children of one parent are opened and closed on one thread, so they
        never overlap and their durations simply add up.
        """
        ident = self._names.get(name)
        if ident is None:
            return np.zeros(0, dtype=np.int64)
        n = self._n
        dur = self._end[:n] - self._start[:n]
        covered = np.zeros(n, dtype=np.int64)
        has_parent = self._parent[:n] >= 0
        np.add.at(covered, self._parent[:n][has_parent], dur[has_parent])
        rows = np.flatnonzero(self._name[:n] == ident)
        return dur[rows] - covered[rows]

    def span_cost_ns(self, samples: int = 2000) -> float:
        """Measured cost of one empty begin/end pair, on a scratch tracer."""
        scratch = Tracer(True, capacity=samples)
        t0 = time.perf_counter_ns()
        for _ in range(samples):
            scratch.end(scratch.begin("x"))
        return (time.perf_counter_ns() - t0) / samples

    def dump(self, path: Path) -> None:
        """Write the spans as one columnar JSON document."""
        n = self._n
        names = sorted(self._names, key=self._names.get)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({
                "names": names,
                "dropped": self.dropped,
                "columns": ["name", "start_ns", "end_ns", "parent",
                            "request_id"],
                "name": self._name[:n].tolist(),
                "start_ns": self._start[:n].tolist(),
                "end_ns": self._end[:n].tolist(),
                "parent": self._parent[:n].tolist(),
                "request_id": self._request[:n].tolist(),
            }, fh)
