"""Online serving layer: deadlines, admission control, graceful degradation.

The engines answer one query at a time; production traffic is an *open
loop* — queries arrive on their own clock whether or not the service is
keeping up.  :class:`SearchService` is the long-lived layer between the two:
it fronts a :class:`~repro.core.coordinator.SegmentCoordinator` with

- a **bounded admission queue**: when the queue is full an arriving query is
  rejected immediately with a typed :class:`Overloaded` result — the service
  never blocks a caller and never queues unboundedly;
- **per-query deadline budgets** that propagate into block search through the
  engines' early-stop hook (:class:`~repro.engine.early_stop.DeadlineStopper`):
  a query that waited in the queue gets only its *remaining* budget of
  simulated service time;
- **micro-batching**: a freed worker drains up to ``max_batch`` waiting
  queries into one shared-ADC batch through
  :meth:`SegmentCoordinator.search_batch`, reusing the batched executor's
  amortizations (shared lookup tables, shared decode cache);
- **graceful degradation**: under sustained overload the service sheds to
  lower ``candidate_size`` tiers (``shed_tiers``) chosen from queue occupancy
  instead of letting every query time out — latency degrades smoothly, recall
  degrades smoothly, availability does not collapse;
- a per-segment **circuit breaker** over the coordinator's quarantine
  machinery: a quarantined segment's breaker *opens* (the segment is skipped),
  after a backoff the breaker goes *half-open* (the segment is reinstated for
  one probe batch), and the probe's outcome either *closes* the breaker or
  re-opens it with a doubled backoff.

Two front ends share all of that policy code:

- :meth:`SearchService.run_trace` — a **virtual-clock** event loop over a
  precomputed arrival trace.  Searches run for real (real I/O counters, real
  results); *time* is simulated: service time is each query's
  ``parallel_latency_us`` under the segment cost models, exactly the latency
  ledger the rest of the repo reports.  Deterministic by construction: the
  same trace replays to bit-identical decisions, which the determinism suite
  relies on.
- :meth:`SearchService.start` / :meth:`~SearchService.submit` /
  :meth:`~SearchService.stop` — a **threaded** front end for long-lived use:
  worker threads drain a real :class:`queue.Queue`, callers get a
  :class:`Ticket` (or an :class:`Overloaded`) back immediately.  Queue waits
  are wall time; service time stays simulated.

While a service is live it installs a **persistent data plane** on every
disk-graph segment: a bounded thread-safe
:class:`~repro.engine.block_cache.DecodeCache` — the executor's per-batch
decode dict made long-lived and concurrency-safe.  The batched
executor detects an installed plane and leaves it alone, so concurrent
micro-batches share one cache instead of tearing down each other's.  The
install is repeated at every dispatch for any current segment still without
one — a segment swapped in by ``replace_segment`` while the service runs
is cached from its first batch — and teardown restores exactly the graphs
the service touched.

Live workers share each segment's one engine, whose round loop keeps no
per-engine scratch, and run concurrently whatever the read path: every
object on it that holds state guards itself — a cache wrapper serializes its
own reads (:class:`~repro.engine.block_cache.DelegatingDiskGraph`), and a
fault injector keys every draw on the read itself and keeps each thread's
latency spike apart, so an injected fault meets the same query whichever
worker runs it.  Which worker's query hits a cache follows thread timing;
every query is still charged exactly the blocks it took off the device.
"""

from __future__ import annotations

import heapq
import itertools
import queue as queue_mod
import threading
import time
from collections import deque
from dataclasses import dataclass, field, fields, replace
from typing import Sequence

import numpy as np

from ..storage.faults import base_disk_graph
from .batch import ExecSpec
from .block_cache import DecodeCache
from .early_stop import DeadlineStopper


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class ServeSpec:
    """Policy knobs of a :class:`SearchService`.

    Attributes:
        workers: Concurrent workers (virtual servers in trace mode, OS
            threads in live mode).
        queue_depth: Admission-queue bound; arrivals beyond it are rejected
            with :class:`Overloaded`.
        deadline_us: Per-query deadline in simulated microseconds (``None``
            disables deadlines).  The budget covers queue wait plus service:
            a query dispatched after waiting ``w`` gets ``deadline_us - w``
            of simulated search time; queries whose budget is exhausted
            while still queued are dropped as expired.
        shed_tiers: ``candidate_size`` tiers, highest (full quality) first.
            Tier 0 serves uncontended traffic; higher tiers are selected as
            queue occupancy rises (see ``shed_low`` / ``shed_high``).
        max_batch: Micro-batch bound — how many waiting queries one freed
            worker drains into a single shared-ADC batch.
        shed_low: Queue occupancy (fraction of ``queue_depth``) at which
            shedding starts (the first lower tier becomes eligible).
        shed_high: Occupancy at which the lowest tier is reached; thresholds
            for intermediate tiers are evenly spaced between the two.
        breaker_probe_us: Backoff before an open circuit breaker goes
            half-open and probes its quarantined segment, in microseconds
            (virtual time in trace mode, wall time in live mode).
        breaker_backoff: Multiplier applied to the probe interval after each
            failed probe (capped growth keeps flapping segments quiet).
        decode_cache_blocks: Capacity of the persistent decoded-block cache
            installed per segment while the service is live (0 disables it).
        min_rounds: Search rounds always granted to a deadline-limited query
            so a late dispatch still returns partial results.
        wave: Execute each dispatched micro-batch through the executor's
            ``wave`` mode (the default): shared ADC tables and one
            lockstep wave over all of the coordinator's segments whose
            reads cannot fail (``segments × queries`` rows), so queries
            landing in the same batch coalesce shared block reads.
            ``False`` selects the ``serial`` reference loop; answers are
            bit-identical either way (a cache's hit/miss split may not be).
        ingest_queue_depth: Admission bound for concurrent ingest calls
            (:meth:`SearchService.ingest` / :meth:`SearchService.remove`):
            writes beyond it are rejected with :class:`Overloaded` instead
            of piling up behind the WAL's group commit, the write-side
            mirror of query admission.
    """

    workers: int = 4
    queue_depth: int = 64
    deadline_us: float | None = None
    shed_tiers: tuple[int, ...] = (64, 32, 16)
    max_batch: int = 8
    shed_low: float = 0.25
    shed_high: float = 0.75
    breaker_probe_us: float = 50_000.0
    breaker_backoff: float = 2.0
    decode_cache_blocks: int = 4096
    min_rounds: int = 1
    wave: bool = True
    ingest_queue_depth: int = 64

    def __post_init__(self) -> None:
        if self.workers <= 0:
            raise ValueError("workers must be positive")
        if self.queue_depth <= 0:
            raise ValueError("queue_depth must be positive")
        if self.deadline_us is not None and self.deadline_us <= 0:
            raise ValueError("deadline_us must be positive (or None)")
        tiers = tuple(int(t) for t in self.shed_tiers)
        if not tiers:
            raise ValueError("shed_tiers must not be empty")
        if any(t <= 0 for t in tiers):
            raise ValueError("shed_tiers must be positive")
        if list(tiers) != sorted(tiers, reverse=True) or len(set(tiers)) != len(tiers):
            raise ValueError("shed_tiers must be strictly descending")
        object.__setattr__(self, "shed_tiers", tiers)
        if self.max_batch <= 0:
            raise ValueError("max_batch must be positive")
        if not 0.0 <= self.shed_low <= self.shed_high <= 1.0:
            raise ValueError("need 0 <= shed_low <= shed_high <= 1")
        if self.breaker_probe_us <= 0:
            raise ValueError("breaker_probe_us must be positive")
        if self.breaker_backoff < 1.0:
            raise ValueError("breaker_backoff must be >= 1")
        if self.decode_cache_blocks < 0:
            raise ValueError("decode_cache_blocks must be non-negative")
        if self.min_rounds < 0:
            raise ValueError("min_rounds must be non-negative")
        if self.ingest_queue_depth <= 0:
            raise ValueError("ingest_queue_depth must be positive")

    def with_(self, **changes) -> "ServeSpec":
        return replace(self, **changes)

    def to_dict(self) -> dict:
        return {
            "workers": self.workers,
            "queue_depth": self.queue_depth,
            "deadline_us": self.deadline_us,
            "shed_tiers": list(self.shed_tiers),
            "max_batch": self.max_batch,
            "shed_low": self.shed_low,
            "shed_high": self.shed_high,
            "breaker_probe_us": self.breaker_probe_us,
            "breaker_backoff": self.breaker_backoff,
            "decode_cache_blocks": self.decode_cache_blocks,
            "min_rounds": self.min_rounds,
            "wave": self.wave,
            "ingest_queue_depth": self.ingest_queue_depth,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ServeSpec":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown ServeSpec keys: {sorted(unknown)}")
        kwargs = dict(data)
        if "shed_tiers" in kwargs and kwargs["shed_tiers"] is not None:
            kwargs["shed_tiers"] = tuple(kwargs["shed_tiers"])
        return cls(**kwargs)


# ---------------------------------------------------------------------------
# per-query outcomes


@dataclass(frozen=True)
class Overloaded:
    """Typed rejection: the admission queue was full on arrival.

    Returned (never raised) so callers branch on the type, not on an
    exception path; carries enough state to make backpressure observable.
    """

    queue_depth: int
    queue_len: int
    at_us: float

    @property
    def rejected(self) -> bool:
        return True


@dataclass
class ServedQuery:
    """One arrival's fate, whatever it was.

    ``status`` is one of ``"ok"`` (served), ``"rejected"`` (queue full on
    arrival), ``"expired"`` (deadline exhausted while still queued).
    """

    index: int
    arrival_us: float
    status: str
    tier: int | None = None
    candidate_size: int | None = None
    dispatch_us: float | None = None
    complete_us: float | None = None
    result: object | None = None
    #: the deadline stopper cut the search short (partial-quality answer)
    truncated: bool = False
    #: served, but completed after the deadline had already passed
    deadline_missed: bool = False
    overloaded: Overloaded | None = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def shed(self) -> bool:
        """Served below full quality (a lower tier than tier 0)."""
        return self.ok and self.tier is not None and self.tier > 0

    @property
    def sojourn_us(self) -> float:
        """Arrival-to-completion time (queue wait + service)."""
        if self.complete_us is None:
            return float("nan")
        return self.complete_us - self.arrival_us


@dataclass
class ServeReport:
    """Aggregate view over one trace (or one live session) of outcomes."""

    outcomes: list[ServedQuery]
    decisions: list[tuple]
    horizon_us: float
    spec: ServeSpec

    # -- counts ------------------------------------------------------------

    @property
    def arrivals(self) -> int:
        return len(self.outcomes)

    @property
    def completed(self) -> int:
        return sum(1 for o in self.outcomes if o.ok)

    @property
    def rejected(self) -> int:
        return sum(1 for o in self.outcomes if o.status == "rejected")

    @property
    def expired(self) -> int:
        return sum(1 for o in self.outcomes if o.status == "expired")

    @property
    def shed_count(self) -> int:
        return sum(1 for o in self.outcomes if o.shed)

    @property
    def deadline_missed(self) -> int:
        return sum(
            1 for o in self.outcomes
            if o.ok and (o.deadline_missed or o.truncated)
        )

    # -- rates (all over arrivals, so they compose to <= 1 per class) ------

    def _rate(self, count: int) -> float:
        return count / self.arrivals if self.arrivals else 0.0

    @property
    def reject_rate(self) -> float:
        return self._rate(self.rejected)

    @property
    def expired_rate(self) -> float:
        return self._rate(self.expired)

    @property
    def shed_rate(self) -> float:
        return self._rate(self.shed_count)

    @property
    def deadline_miss_rate(self) -> float:
        return self._rate(self.deadline_missed)

    @property
    def degraded_fraction(self) -> float:
        """Fraction of arrivals *not* served at full quality and on time.

        The complement counts only tier-0, untruncated, deadline-respecting,
        all-segments-answered completions — the strictest service level.
        Monotone in offered load by construction, which the bench asserts.
        """
        perfect = sum(
            1 for o in self.outcomes
            if o.ok and not o.shed and not o.truncated
            and not o.deadline_missed
            and not getattr(o.result, "degraded", False)
        )
        return 1.0 - self._rate(perfect)

    # -- latency -----------------------------------------------------------

    def sojourn_percentile_us(self, pct: float) -> float:
        sojourns = [o.sojourn_us for o in self.outcomes if o.ok]
        if not sojourns:
            return float("nan")
        return float(np.percentile(sojourns, pct))

    @property
    def sustained_qps(self) -> float:
        """Completions per *elapsed* second over the whole horizon."""
        if self.horizon_us <= 0:
            return 0.0
        return self.completed / (self.horizon_us / 1e6)

    def summary(self) -> dict:
        deadline = self.spec.deadline_us
        p99_us = self.sojourn_percentile_us(99)
        return {
            "arrivals": self.arrivals,
            "completed": self.completed,
            "rejected": self.rejected,
            "expired": self.expired,
            "shed": self.shed_count,
            "deadline_missed": self.deadline_missed,
            "reject_rate": self.reject_rate,
            "expired_rate": self.expired_rate,
            "shed_rate": self.shed_rate,
            "deadline_miss_rate": self.deadline_miss_rate,
            "degraded_fraction": self.degraded_fraction,
            "sustained_qps": self.sustained_qps,
            "p50_ms": self.sojourn_percentile_us(50) / 1e3,
            "p95_ms": self.sojourn_percentile_us(95) / 1e3,
            "p99_ms": p99_us / 1e3,
            # dimensionless tail bound — comparable across workload sizes
            "p99_over_deadline": (
                p99_us / deadline if deadline else None
            ),
            "horizon_us": self.horizon_us,
        }


# ---------------------------------------------------------------------------
# circuit breaker


class CircuitBreaker:
    """Per-segment breaker over the coordinator's quarantine machinery.

    States follow the classic pattern:

    - ``closed`` — segment healthy, traffic flows.  The coordinator's own
      consecutive-failure counter is the trip wire: once it quarantines the
      segment, the breaker records ``open``.
    - ``open`` — segment skipped.  After ``probe_interval`` the breaker
      reinstates the segment and goes ``half_open``.
    - ``half_open`` — exactly the next batch through the segment is the
      probe.  A clean batch closes the breaker (interval resets); any
      failure re-quarantines the segment *administratively* (a single new
      error would not reach the coordinator's threshold again) and re-opens
      with the interval multiplied by the backoff factor.
    """

    def __init__(self, segment_index: int, spec: ServeSpec) -> None:
        self.segment_index = segment_index
        self.spec = spec
        self.state = "closed"
        self.probe_interval_us = spec.breaker_probe_us
        self.next_probe_us = 0.0

    def maybe_probe(self, coordinator, now_us: float, decisions: list) -> None:
        """Open → half-open transition when the backoff has elapsed."""
        if self.state == "open" and now_us >= self.next_probe_us:
            coordinator.reinstate(self.segment_index)
            self.state = "half_open"
            decisions.append(
                ("breaker", self.segment_index, "half_open", round(now_us, 3))
            )

    def observe(self, coordinator, now_us: float, decisions: list) -> None:
        """Fold one served batch's segment health into the breaker state."""
        i = self.segment_index
        if self.state == "closed":
            if coordinator.is_quarantined(i):
                self._open(now_us, decisions)
        elif self.state == "half_open":
            failed = coordinator.error_counts[i] > 0 or coordinator.is_quarantined(i)
            if failed:
                coordinator.quarantine_segment(i)
                self.probe_interval_us *= self.spec.breaker_backoff
                self._open(now_us, decisions)
            else:
                self.state = "closed"
                self.probe_interval_us = self.spec.breaker_probe_us
                decisions.append(("breaker", i, "closed", round(now_us, 3)))

    def _open(self, now_us: float, decisions: list) -> None:
        self.state = "open"
        self.next_probe_us = now_us + self.probe_interval_us
        decisions.append(
            ("breaker", self.segment_index, "open", round(now_us, 3))
        )


# ---------------------------------------------------------------------------
# live-mode ticket


class Ticket:
    """Handle for a query submitted to the live (threaded) front end."""

    __slots__ = ("_event", "_outcome")

    def __init__(self) -> None:
        self._event = threading.Event()
        self._outcome: ServedQuery | None = None

    def done(self) -> bool:
        return self._event.is_set()

    def result(self, timeout: float | None = None) -> ServedQuery | None:
        """The :class:`ServedQuery`, or ``None`` if the wait timed out."""
        if not self._event.wait(timeout):
            return None
        return self._outcome

    def _fulfill(self, outcome: ServedQuery) -> None:
        self._outcome = outcome
        self._event.set()


@dataclass
class _Pending:
    """One enqueued live-mode query."""

    index: int
    query: np.ndarray
    k: int
    arrival_us: float
    ticket: Ticket = field(default_factory=Ticket)


# ---------------------------------------------------------------------------
# the service


class SearchService:
    """Long-lived serving layer over a segment coordinator.

    Accepts a :class:`~repro.core.coordinator.SegmentCoordinator` or a bare
    segment index (which gets wrapped in a single-segment coordinator).

    The two front ends — :meth:`run_trace` (virtual clock, deterministic)
    and :meth:`start`/:meth:`submit`/:meth:`stop` (threaded, wall clock) —
    share the admission, shedding, deadline, and breaker policy code.
    """

    def __init__(self, coordinator, spec: ServeSpec | None = None) -> None:
        if not hasattr(coordinator, "search_batch"):
            from ..core.coordinator import SegmentCoordinator

            coordinator = SegmentCoordinator([coordinator])
        self.coordinator = coordinator
        self.spec = spec or ServeSpec()
        self.breakers = [
            CircuitBreaker(i, self.spec)
            for i in range(coordinator.num_segments)
        ]
        self._exec_spec = ExecSpec(
            mode="wave" if self.spec.wave else "serial", gc_pause=False
        )
        # Live-mode state (None while stopped).
        self._queue: queue_mod.Queue | None = None
        self._threads: list[threading.Thread] = []
        self._stop_event = threading.Event()
        self._control_lock = threading.Lock()
        self._plane_saved: list[tuple] | None = None
        self._live_outcomes: list[ServedQuery] = []
        self._live_decisions: list[tuple] = []
        self._started_us = 0.0
        self._submit_seq = itertools.count()
        # Ingest admission (write-side mirror of the query queue).
        self._ingest_target = None
        self._ingest_gate = threading.Lock()
        self._ingest_inflight = 0
        self.ingest_accepted = 0
        self.ingest_rejected = 0

    # -- shared policy helpers ---------------------------------------------

    def tier_for_occupancy(self, occupancy: float) -> int:
        """Deterministic shed-tier choice from queue occupancy in [0, 1].

        Tier thresholds are evenly spaced between ``shed_low`` (first lower
        tier) and ``shed_high`` (lowest tier); below ``shed_low`` traffic is
        served at full quality.
        """
        tiers = self.spec.shed_tiers
        if len(tiers) == 1:
            return 0
        lo, hi = self.spec.shed_low, self.spec.shed_high
        tier = 0
        span = max(len(tiers) - 2, 1)
        for t in range(1, len(tiers)):
            threshold = lo + (hi - lo) * (t - 1) / span
            if occupancy >= threshold:
                tier = t
        return tier

    def _make_stopper(self, budget_us: float) -> DeadlineStopper:
        return DeadlineStopper(
            max(budget_us, 0.0), min_rounds=self.spec.min_rounds
        )

    def _pre_dispatch(self, now_us: float, decisions: list) -> None:
        for breaker in self.breakers:
            breaker.maybe_probe(self.coordinator, now_us, decisions)

    def _post_dispatch(self, now_us: float, decisions: list) -> None:
        for breaker in self.breakers:
            breaker.observe(self.coordinator, now_us, decisions)

    def _execute_batch(
        self,
        queries: list[np.ndarray],
        k: int,
        candidate_size: int,
        stoppers: list | None,
    ) -> list:
        return self.coordinator.search_batch(
            np.asarray(queries, dtype=np.float32),
            k,
            candidate_size,
            exec_spec=self._exec_spec,
            stoppers=stoppers,
        )

    # -- ingest admission ---------------------------------------------------

    def attach_ingest(self, target) -> None:
        """Register the writable segment behind :meth:`ingest`/:meth:`remove`.

        ``target`` needs ``insert(vectors)`` and ``delete(ids)``: a
        :class:`~repro.core.lifecycle.SegmentLifecycle`, the one (WAL-backed)
        update surface.  Its searches go to its own ``search_batch``, not
        through this service's micro-batches (whose breakers index a fixed
        segment list; a lifecycle's changes at every seal).
        """
        if not (hasattr(target, "insert") and hasattr(target, "delete")):
            raise TypeError("ingest target needs insert() and delete()")
        self._ingest_target = target

    def _admit_ingest(self):
        """Reserve one ingest slot; returns an Overloaded on a full gate."""
        if self._ingest_target is None:
            raise RuntimeError("no ingest target attached (attach_ingest)")
        with self._ingest_gate:
            if self._ingest_inflight >= self.spec.ingest_queue_depth:
                self.ingest_rejected += 1
                return Overloaded(
                    self.spec.ingest_queue_depth,
                    self._ingest_inflight,
                    self._now_us() if self.running else 0.0,
                )
            self._ingest_inflight += 1
        return None

    def _release_ingest(self, accepted: bool) -> None:
        with self._ingest_gate:
            self._ingest_inflight -= 1
            if accepted:
                self.ingest_accepted += 1

    def ingest(self, vectors):
        """Durably insert vectors; returns their IDs or :class:`Overloaded`.

        Admission is bounded by ``spec.ingest_queue_depth`` concurrent
        calls; past it, writes are rejected (typed, never raised) so a
        write burst cannot starve the query workers of the WAL fsync lane.
        A returned ID array means the rows are durable — the WAL commit
        happened inside the call.
        """
        rejection = self._admit_ingest()
        if rejection is not None:
            return rejection
        accepted = False
        try:
            ids = self._ingest_target.insert(vectors)
            accepted = True
            return ids
        finally:
            self._release_ingest(accepted)

    def remove(self, ids):
        """Durably tombstone IDs; returns the live count or :class:`Overloaded`."""
        rejection = self._admit_ingest()
        if rejection is not None:
            return rejection
        accepted = False
        try:
            count = self._ingest_target.delete(ids)
            accepted = True
            return count
        finally:
            self._release_ingest(accepted)

    # -- persistent data plane ---------------------------------------------

    def _install_plane(self) -> list[tuple]:
        """Install the long-lived decode cache on every current disk
        segment that has none.

        Returns the ``(graph, previous decode_cache)`` pairs it touched, for
        :meth:`_uninstall_plane`.  Segments without a disk graph (SPANN),
        and graphs that already carry a cache, are left untouched — so a
        repeat call installs on exactly the segments swapped in since.
        """
        saved: list[tuple] = []
        if not self.spec.decode_cache_blocks:
            return saved
        for segment in self.coordinator.segments:
            engine = getattr(segment, "engine", segment)
            dg = getattr(engine, "disk_graph", None)
            if dg is None:
                continue
            graph = base_disk_graph(dg)
            if graph.decode_cache is None:
                saved.append((graph, None))
                graph.decode_cache = DecodeCache(self.spec.decode_cache_blocks)
        return saved

    def _uninstall_plane(self, saved: list[tuple]) -> None:
        for graph, cache in saved:
            graph.decode_cache = cache

    # -- virtual-clock front end -------------------------------------------

    def run_trace(
        self,
        arrivals_us: Sequence[float],
        queries: np.ndarray,
        k: int = 10,
    ) -> ServeReport:
        """Replay an arrival trace on a virtual clock; returns the report.

        ``arrivals_us`` must be non-decreasing; arrival ``i`` carries query
        ``queries[i % len(queries)]``.  Searches execute for real; service
        time is each query's simulated ``parallel_latency_us``, and a
        worker stays busy for the sum of its micro-batch's service times.
        The loop is single-threaded and allocation-order deterministic:
        identical inputs produce identical decisions, outcomes, and result
        ids — the property the determinism suite pins.
        """
        spec = self.spec
        arrivals = [float(t) for t in arrivals_us]
        if any(b < a for a, b in zip(arrivals, arrivals[1:])):
            raise ValueError("arrivals_us must be non-decreasing")
        queries = np.asarray(queries, dtype=np.float32)
        if queries.ndim == 1:
            queries = queries.reshape(1, -1)
        if not len(queries):
            raise ValueError("need at least one query vector")

        outcomes = [
            ServedQuery(index=i, arrival_us=t, status="pending")
            for i, t in enumerate(arrivals)
        ]
        decisions: list[tuple] = []
        pending: deque[int] = deque()
        free_workers = spec.workers
        horizon = arrivals[-1] if arrivals else 0.0

        # Event heap: (time, kind, seq).  kind 0 = worker freed, kind 1 =
        # arrival — at equal timestamps the freed worker is processed first
        # so it can absorb the arrival instead of bouncing it.
        events: list[tuple[float, int, int, int]] = []
        seq = itertools.count()
        for i, t in enumerate(arrivals):
            heapq.heappush(events, (t, 1, next(seq), i))

        def dispatch(now: float) -> None:
            nonlocal free_workers, horizon
            while free_workers > 0 and pending:
                self._pre_dispatch(now, decisions)
                occupancy = len(pending) / spec.queue_depth
                tier = self.tier_for_occupancy(occupancy)
                candidate_size = spec.shed_tiers[tier]
                batch: list[int] = []
                while pending and len(batch) < spec.max_batch:
                    idx = pending.popleft()
                    waited = now - outcomes[idx].arrival_us
                    if (
                        spec.deadline_us is not None
                        and waited >= spec.deadline_us
                    ):
                        outcomes[idx].status = "expired"
                        decisions.append(("expire", idx, round(now, 3)))
                        continue
                    batch.append(idx)
                if not batch:
                    continue
                free_workers -= 1
                decisions.append(
                    ("dispatch", round(now, 3), tuple(batch), tier,
                     candidate_size)
                )
                stoppers = None
                if spec.deadline_us is not None:
                    stoppers = [
                        self._make_stopper(
                            spec.deadline_us - (now - outcomes[idx].arrival_us)
                        )
                        for idx in batch
                    ]
                saved.extend(self._install_plane())
                results = self._execute_batch(
                    [queries[idx % len(queries)] for idx in batch],
                    k, candidate_size, stoppers,
                )
                busy_until = now
                for j, idx in enumerate(batch):
                    out = outcomes[idx]
                    result = results[j]
                    busy_until += result.parallel_latency_us
                    out.status = "ok"
                    out.tier = tier
                    out.candidate_size = candidate_size
                    out.dispatch_us = now
                    out.complete_us = busy_until
                    out.result = result
                    out.truncated = bool(stoppers and stoppers[j].fired)
                    out.deadline_missed = (
                        spec.deadline_us is not None
                        and out.sojourn_us > spec.deadline_us
                    )
                self._post_dispatch(now, decisions)
                horizon = max(horizon, busy_until)
                heapq.heappush(
                    events, (busy_until, 0, next(seq), -1)
                )

        saved = self._install_plane()
        try:
            while events:
                now, kind, _, payload = heapq.heappop(events)
                if kind == 0:
                    free_workers += 1
                else:
                    idx = payload
                    if len(pending) >= spec.queue_depth:
                        outcomes[idx].status = "rejected"
                        outcomes[idx].overloaded = Overloaded(
                            spec.queue_depth, len(pending), now
                        )
                        decisions.append(("reject", idx, round(now, 3)))
                    else:
                        pending.append(idx)
                dispatch(now)
        finally:
            self._uninstall_plane(saved)
        return ServeReport(
            outcomes=outcomes, decisions=decisions,
            horizon_us=horizon, spec=spec,
        )

    # -- threaded (live) front end -----------------------------------------

    @property
    def running(self) -> bool:
        return bool(self._threads)

    def _now_us(self) -> float:
        return time.monotonic() * 1e6 - self._started_us

    def start(self) -> None:
        """Install the data plane and spawn the worker threads."""
        with self._control_lock:
            if self._threads:
                raise RuntimeError("service already running")
            self._plane_saved = self._install_plane()
            self._queue = queue_mod.Queue(maxsize=self.spec.queue_depth)
            self._stop_event.clear()
            self._live_outcomes = []
            self._live_decisions = []
            self._started_us = time.monotonic() * 1e6
            self._threads = [
                threading.Thread(
                    target=self._worker_loop,
                    name=f"serve-worker-{i}",
                    daemon=True,
                )
                for i in range(self.spec.workers)
            ]
        for thread in self._threads:
            thread.start()

    def submit(self, query: np.ndarray, k: int = 10):
        """Enqueue one query; returns a :class:`Ticket` or :class:`Overloaded`.

        Never blocks: a full queue rejects immediately.
        """
        if self._queue is None:
            raise RuntimeError("service is not running")
        item = _Pending(
            index=next(self._submit_seq),
            query=np.asarray(query, dtype=np.float32),
            k=k,
            arrival_us=self._now_us(),
        )
        try:
            self._queue.put_nowait(item)
        except queue_mod.Full:
            rejection = Overloaded(
                self.spec.queue_depth, self._queue.qsize(), item.arrival_us
            )
            with self._control_lock:
                self._live_decisions.append(
                    ("reject", item.index, round(item.arrival_us, 3))
                )
                self._live_outcomes.append(ServedQuery(
                    index=item.index, arrival_us=item.arrival_us,
                    status="rejected", overloaded=rejection,
                ))
            return rejection
        return item.ticket

    def stop(self) -> ServeReport:
        """Drain the queue, stop the workers, restore the data plane.

        Queries already admitted are served before shutdown completes; the
        session's outcomes come back as a :class:`ServeReport`.
        """
        with self._control_lock:
            threads, self._threads = self._threads, []
        if not threads:
            raise RuntimeError("service is not running")
        self._stop_event.set()
        for thread in threads:
            thread.join()
        horizon = self._now_us()
        with self._control_lock:
            if self._plane_saved is not None:
                self._uninstall_plane(self._plane_saved)
                self._plane_saved = None
            self._queue = None
            outcomes = sorted(self._live_outcomes, key=lambda o: o.index)
            decisions = list(self._live_decisions)
        return ServeReport(
            outcomes=outcomes, decisions=decisions,
            horizon_us=horizon, spec=self.spec,
        )

    def _worker_loop(self) -> None:
        spec = self.spec
        assert self._queue is not None
        while True:
            try:
                first = self._queue.get(timeout=0.02)
            except queue_mod.Empty:
                if self._stop_event.is_set():
                    return
                continue
            batch = [first]
            while len(batch) < spec.max_batch:
                try:
                    batch.append(self._queue.get_nowait())
                except queue_mod.Empty:
                    break
            self._serve_live_batch(batch)

    def _serve_live_batch(self, batch: list[_Pending]) -> None:
        spec = self.spec
        now = self._now_us()
        occupancy = min(
            (self._queue.qsize() + len(batch)) / spec.queue_depth, 1.0
        ) if self._queue is not None else 1.0
        with self._control_lock:
            self._pre_dispatch(now, self._live_decisions)
            tier = self.tier_for_occupancy(occupancy)
        candidate_size = spec.shed_tiers[tier]
        live: list[_Pending] = []
        for item in batch:
            waited = now - item.arrival_us
            if spec.deadline_us is not None and waited >= spec.deadline_us:
                outcome = ServedQuery(
                    index=item.index, arrival_us=item.arrival_us,
                    status="expired",
                )
                with self._control_lock:
                    self._live_decisions.append(
                        ("expire", item.index, round(now, 3))
                    )
                    self._live_outcomes.append(outcome)
                item.ticket._fulfill(outcome)
            else:
                live.append(item)
        if not live:
            return
        stoppers = None
        if spec.deadline_us is not None:
            stoppers = [
                self._make_stopper(spec.deadline_us - (now - item.arrival_us))
                for item in live
            ]
        with self._control_lock:
            self._live_decisions.append((
                "dispatch", round(now, 3),
                tuple(item.index for item in live), tier, candidate_size,
            ))
            # A segment swapped in while the service runs gets the plane
            # at its first dispatch, not at the next restart.
            if self._plane_saved is not None:
                self._plane_saved += self._install_plane()
        results = self._execute_batch(
            [item.query for item in live], live[0].k, candidate_size, stoppers,
        )
        done = self._now_us()
        with self._control_lock:
            self._post_dispatch(done, self._live_decisions)
        for j, item in enumerate(live):
            outcome = ServedQuery(
                index=item.index, arrival_us=item.arrival_us,
                status="ok", tier=tier, candidate_size=candidate_size,
                dispatch_us=now, complete_us=done, result=results[j],
                truncated=bool(stoppers and stoppers[j].fired),
            )
            outcome.deadline_missed = (
                spec.deadline_us is not None
                and outcome.sojourn_us > spec.deadline_us
            )
            with self._control_lock:
                self._live_outcomes.append(outcome)
            item.ticket._fulfill(outcome)


# ---------------------------------------------------------------------------
# open-loop arrivals


def poisson_arrivals_us(
    rate_qps: float, count: int, seed: int = 0
) -> np.ndarray:
    """Poisson-process arrival times in microseconds (open-loop traffic).

    Inter-arrival gaps are exponential with mean ``1/rate_qps`` seconds;
    the trace is seeded so the same offered load replays identically.
    """
    if rate_qps <= 0:
        raise ValueError("rate_qps must be positive")
    if count < 0:
        raise ValueError("count must be non-negative")
    rng = np.random.default_rng(seed)
    gaps_s = rng.exponential(1.0 / rate_qps, size=count)
    return np.cumsum(gaps_s) * 1e6
