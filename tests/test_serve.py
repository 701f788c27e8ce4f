"""Online serving layer: admission, deadlines, shedding, breaker, determinism.

The expensive artifacts (two Starling segments) are module-scoped; tests
that mutate segment state (fault injection for the breaker) restore it in a
``finally`` so the shared indexes stay clean.
"""

from __future__ import annotations

import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import GraphConfig, StarlingConfig, build_starling
from repro.core.coordinator import SegmentCoordinator, split_dataset
from repro.engine import (
    DeadlineStopper,
    DecodeCache,
    Overloaded,
    RetryPolicy,
    SearchService,
    ServeSpec,
    Ticket,
    poisson_arrivals_us,
)
from repro.storage import FaultSpec, ensure_fault_injection
from repro.storage.faults import base_disk_graph
from repro.vectors import bigann_like

CONFIG = StarlingConfig(graph=GraphConfig(max_degree=16, build_ef=32, seed=1))


@pytest.fixture(scope="module")
def serve_dataset():
    return bigann_like(400, 10, seed=3)


@pytest.fixture(scope="module")
def serve_segments(serve_dataset):
    parts, offsets = split_dataset(serve_dataset, 2)
    return [build_starling(part, CONFIG) for part in parts], offsets


@pytest.fixture()
def coordinator(serve_segments):
    segments, offsets = serve_segments
    return SegmentCoordinator(segments, list(offsets))


def _plane_state(coordinator) -> list:
    """Everything the service's data plane installs, per disk segment."""
    return [
        base_disk_graph(seg.engine.disk_graph).decode_cache
        for seg in coordinator.segments
    ]


def burst(n: int, at_us: float = 0.0) -> list[float]:
    """``n`` arrivals at the same instant — maximal queue pressure."""
    return [at_us] * n


# ---------------------------------------------------------------------------
# spec


class TestServeSpec:
    def test_round_trip(self):
        spec = ServeSpec(
            workers=2, queue_depth=8, deadline_us=1500.0,
            shed_tiers=(48, 24), max_batch=4,
        )
        again = ServeSpec.from_dict(spec.to_dict())
        assert again == spec
        assert again.shed_tiers == (48, 24)

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown ServeSpec keys"):
            ServeSpec.from_dict({"workers": 2, "turbo": True})

    @pytest.mark.parametrize("bad", [
        {"workers": 0},
        {"queue_depth": 0},
        {"deadline_us": -1.0},
        {"shed_tiers": ()},
        {"shed_tiers": (16, 32)},          # must descend
        {"shed_tiers": (32, 32)},          # strictly
        {"shed_tiers": (32, 0)},
        {"max_batch": 0},
        {"shed_low": 0.9, "shed_high": 0.1},
        {"breaker_probe_us": 0.0},
        {"breaker_backoff": 0.5},
        {"min_rounds": -1},
    ])
    def test_validation(self, bad):
        with pytest.raises(ValueError):
            ServeSpec(**bad)

    def test_with_returns_new_spec(self):
        spec = ServeSpec()
        tight = spec.with_(deadline_us=100.0)
        assert tight.deadline_us == 100.0
        assert spec.deadline_us is None

    def test_tier_thresholds(self, coordinator):
        service = SearchService(
            coordinator,
            ServeSpec(shed_tiers=(64, 32, 16), shed_low=0.25, shed_high=0.75),
        )
        assert service.tier_for_occupancy(0.0) == 0
        assert service.tier_for_occupancy(0.24) == 0
        assert service.tier_for_occupancy(0.25) == 1
        assert service.tier_for_occupancy(0.74) == 1
        assert service.tier_for_occupancy(0.75) == 2
        assert service.tier_for_occupancy(1.0) == 2
        flat = SearchService(coordinator, ServeSpec(shed_tiers=(64,)))
        assert flat.tier_for_occupancy(1.0) == 0


# ---------------------------------------------------------------------------
# virtual-clock front end


class TestRunTrace:
    def test_uncontended_matches_direct_search(self, coordinator,
                                               serve_dataset):
        """With no queue pressure the service is a plain coordinator call:
        same ids, same dists, full tier, nothing shed or missed."""
        spec = ServeSpec(workers=2, queue_depth=16, deadline_us=1e9)
        queries = np.asarray(serve_dataset.queries, dtype=np.float32)
        # arrivals a full (simulated) second apart: never two in flight
        trace = [i * 1e6 for i in range(len(queries))]
        report = SearchService(coordinator, spec).run_trace(trace, queries)
        assert report.completed == len(queries)
        assert report.shed_count == 0
        assert report.deadline_missed == 0
        assert report.degraded_fraction == 0.0
        for i, outcome in enumerate(report.outcomes):
            direct = coordinator.search(queries[i], 10, spec.shed_tiers[0])
            np.testing.assert_array_equal(outcome.result.ids, direct.ids)
            np.testing.assert_allclose(outcome.result.dists, direct.dists)

    def test_admission_rejects_when_full(self, coordinator, serve_dataset):
        spec = ServeSpec(workers=1, queue_depth=2, max_batch=1,
                         shed_tiers=(32,))
        queries = np.asarray(serve_dataset.queries, dtype=np.float32)
        report = SearchService(coordinator, spec).run_trace(
            burst(10), queries
        )
        assert report.rejected > 0
        assert report.completed + report.rejected == report.arrivals
        rejected = [o for o in report.outcomes if o.status == "rejected"]
        for outcome in rejected:
            assert isinstance(outcome.overloaded, Overloaded)
            assert outcome.overloaded.rejected
            assert outcome.overloaded.queue_len >= spec.queue_depth
            assert outcome.result is None
        # rejections are logged as typed decisions too
        assert sum(1 for d in report.decisions if d[0] == "reject") == len(
            rejected
        )

    def test_rejects_monotone_in_burst_size(self, coordinator, serve_dataset):
        spec = ServeSpec(workers=1, queue_depth=4, max_batch=2,
                         shed_tiers=(32,))
        queries = np.asarray(serve_dataset.queries, dtype=np.float32)
        rejects = [
            SearchService(coordinator, spec)
            .run_trace(burst(n), queries).rejected
            for n in (4, 12, 24)
        ]
        assert rejects[0] <= rejects[1] <= rejects[2]
        assert rejects[-1] > 0

    def test_deadline_truncates_and_expires(self, coordinator, serve_dataset):
        """A deadline far below the mean service time must surface as
        truncated searches, missed deadlines, or queue expiries — never as
        unbounded sojourns."""
        queries = np.asarray(serve_dataset.queries, dtype=np.float32)
        probe = coordinator.search(queries[0], 10, 64)
        deadline = probe.parallel_latency_us / 4
        spec = ServeSpec(workers=1, queue_depth=32, max_batch=2,
                         deadline_us=deadline, shed_tiers=(64,))
        report = SearchService(coordinator, spec).run_trace(
            burst(16), queries
        )
        degraded = (
            report.expired
            + sum(1 for o in report.outcomes if o.truncated)
            + report.deadline_missed
        )
        assert degraded > 0
        # a truncated query still returns k results (min_rounds grants the
        # first frontier round before the budget is enforced)
        served = [o for o in report.outcomes if o.ok]
        assert served
        for outcome in served:
            assert len(outcome.result.ids) == 10
        summary = report.summary()
        assert summary["p99_over_deadline"] == pytest.approx(
            report.sojourn_percentile_us(99) / deadline
        )

    def test_sheds_to_lower_tiers_under_pressure(self, coordinator,
                                                 serve_dataset):
        spec = ServeSpec(workers=1, queue_depth=16, max_batch=2,
                         shed_tiers=(64, 32, 16), shed_low=0.2, shed_high=0.6)
        queries = np.asarray(serve_dataset.queries, dtype=np.float32)
        report = SearchService(coordinator, spec).run_trace(
            burst(16), queries
        )
        assert report.shed_count > 0
        shed_tiers_used = {
            d[3] for d in report.decisions if d[0] == "dispatch"
        }
        assert max(shed_tiers_used) > 0
        # every shed query records the tier's candidate size it was served at
        for outcome in report.outcomes:
            if outcome.shed:
                assert outcome.candidate_size == spec.shed_tiers[outcome.tier]
                assert outcome.candidate_size < spec.shed_tiers[0]

    def test_saturation_matches_workers_over_service_time(self, coordinator,
                                                          serve_dataset):
        """One tier, no deadline, no micro-batching: deep in overload the
        service is an M/G/c queue and sustains workers / mean service time."""
        spec = ServeSpec(workers=4, queue_depth=32, max_batch=1,
                         shed_tiers=(64,))
        queries = np.asarray(serve_dataset.queries, dtype=np.float32)
        probe = coordinator.search(queries[0], 10, 64).parallel_latency_us
        trace = poisson_arrivals_us(3.0 * spec.workers / (probe / 1e6), 240,
                                    seed=5)
        report = SearchService(coordinator, spec).run_trace(trace, queries)
        assert report.rejected > 0
        service_us = np.mean([o.result.parallel_latency_us
                              for o in report.outcomes if o.ok])
        model_qps = spec.workers / (service_us / 1e6)
        assert report.sustained_qps == pytest.approx(model_qps, rel=0.15)

    def test_arrivals_must_be_sorted(self, coordinator, serve_dataset):
        service = SearchService(coordinator, ServeSpec())
        with pytest.raises(ValueError, match="non-decreasing"):
            service.run_trace([5.0, 1.0], serve_dataset.queries)

    def test_plane_installed_only_while_running(self, coordinator,
                                                serve_dataset):
        """The persistent decode cache is a service-lifetime
        installation, restored exactly on teardown — and it is all the
        plane installs: there is no decode mode and no gather pool."""
        before = _plane_state(coordinator)
        service = SearchService(coordinator, ServeSpec())
        saved = service._install_plane()
        # (graph, previous decode_cache) and nothing else
        assert all(len(entry) == 2 for entry in saved)
        assert all(cache is not None for cache in _plane_state(coordinator))
        service._uninstall_plane(saved)
        assert _plane_state(coordinator) == before
        service.run_trace(burst(4), serve_dataset.queries)
        assert _plane_state(coordinator) == before


# ---------------------------------------------------------------------------
# circuit breaker


class TestCircuitBreaker:
    def test_lifecycle_open_half_open_closed(self, coordinator,
                                             serve_dataset):
        queries = np.asarray(serve_dataset.queries, dtype=np.float32)
        spec = ServeSpec(workers=1, queue_depth=8, max_batch=1,
                         shed_tiers=(32,), breaker_probe_us=1_000.0,
                         breaker_backoff=2.0)
        service = SearchService(coordinator, spec)
        segment = coordinator.segments[0]
        ensure_fault_injection(
            segment.disk_graph, FaultSpec(transient_error_rate=1.0, seed=5)
        )
        try:
            trace = [i * 2_000.0 for i in range(12)]
            report = service.run_trace(trace, queries)
            states = [d[2] for d in report.decisions if d[0] == "breaker"
                      and d[1] == 0]
            assert "open" in states
            # while open, merged answers come from the surviving segment
            assert report.degraded_fraction > 0.0
            assert service.breakers[0].state in ("open", "half_open")
        finally:
            base = base_disk_graph(segment.disk_graph)
            base.device = base.device.inner
        # healed: the next trace's probe closes the breaker again.  Each
        # trace starts its virtual clock at zero, so schedule the arrivals
        # past the breaker's pending backoff.
        probe_at = service.breakers[0].next_probe_us
        report = service.run_trace(
            [probe_at + i * 2_000.0 for i in range(8)], queries
        )
        states = [d[2] for d in report.decisions if d[0] == "breaker"
                  and d[1] == 0]
        assert states and states[-1] == "closed"
        assert service.breakers[0].state == "closed"
        assert not coordinator.is_quarantined(0)
        assert report.outcomes[-1].result.degraded is False

    def test_failed_probe_backs_off(self, coordinator, serve_dataset):
        queries = np.asarray(serve_dataset.queries, dtype=np.float32)
        spec = ServeSpec(workers=1, queue_depth=8, max_batch=1,
                         shed_tiers=(32,), breaker_probe_us=1_000.0,
                         breaker_backoff=3.0)
        service = SearchService(coordinator, spec)
        segment = coordinator.segments[0]
        ensure_fault_injection(
            segment.disk_graph, FaultSpec(transient_error_rate=1.0, seed=5)
        )
        try:
            service.run_trace([i * 2_000.0 for i in range(16)], queries)
            breaker = service.breakers[0]
            # every probe failed, so the interval grew beyond the base
            assert breaker.probe_interval_us > spec.breaker_probe_us
        finally:
            base = base_disk_graph(segment.disk_graph)
            base.device = base.device.inner
            coordinator.reinstate(0)


# ---------------------------------------------------------------------------
# determinism (satellite: same seed + same trace => same decisions/results)


class TestDeterminism:
    @settings(
        max_examples=6, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        rate=st.floats(min_value=50.0, max_value=5_000.0),
        deadline_ms=st.one_of(
            st.none(), st.floats(min_value=0.5, max_value=50.0)
        ),
    )
    def test_same_trace_same_decisions(self, serve_segments, seed, rate,
                                       deadline_ms):
        segments, offsets = serve_segments
        queries = np.asarray(
            bigann_like(400, 10, seed=3).queries, dtype=np.float32
        )
        trace = poisson_arrivals_us(rate, 24, seed=seed)
        spec = ServeSpec(
            workers=2, queue_depth=8, max_batch=2,
            deadline_us=deadline_ms * 1e3 if deadline_ms else None,
            shed_tiers=(64, 32, 16),
        )
        reports = [
            SearchService(
                SegmentCoordinator(list(segments), list(offsets)), spec
            ).run_trace(trace, queries)
            for _ in range(2)
        ]
        a, b = reports
        assert a.decisions == b.decisions
        assert [o.status for o in a.outcomes] == [
            o.status for o in b.outcomes
        ]
        for x, y in zip(a.outcomes, b.outcomes):
            assert x.tier == y.tier
            assert x.truncated == y.truncated
            assert x.complete_us == y.complete_us
            if x.ok:
                np.testing.assert_array_equal(x.result.ids, y.result.ids)

    def test_arrival_generator_is_seeded(self):
        a = poisson_arrivals_us(100.0, 16, seed=7)
        b = poisson_arrivals_us(100.0, 16, seed=7)
        c = poisson_arrivals_us(100.0, 16, seed=8)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)
        assert (np.diff(a) >= 0).all()


# ---------------------------------------------------------------------------
# threaded (live) front end


class TestLiveService:
    def test_submit_never_blocks_and_queue_drains(self, coordinator,
                                                  serve_dataset):
        spec = ServeSpec(workers=2, queue_depth=4, max_batch=2,
                         shed_tiers=(32,))
        service = SearchService(coordinator, spec)
        queries = np.asarray(serve_dataset.queries, dtype=np.float32)
        service.start()
        try:
            handles = [
                service.submit(queries[i % len(queries)], k=10)
                for i in range(24)
            ]
        finally:
            report = service.stop()
        overloaded = [h for h in handles if isinstance(h, Overloaded)]
        tickets = [h for h in handles if isinstance(h, Ticket)]
        assert len(overloaded) + len(tickets) == 24
        # stop() drains the queue: every accepted ticket is fulfilled
        for ticket in tickets:
            outcome = ticket.result(timeout=5.0)
            assert outcome is not None and outcome.ok
        assert report.arrivals == 24
        assert report.completed == len(tickets)
        assert report.rejected == len(overloaded)

    def test_concurrent_results_match_serial(self, coordinator,
                                             serve_dataset):
        """Thread-safety regression (shared decode cache):
        answers served by concurrent workers over the installed plane are
        bit-identical to uncontended coordinator calls."""
        spec = ServeSpec(workers=4, queue_depth=64, max_batch=4,
                         shed_tiers=(64,))
        service = SearchService(coordinator, spec)
        queries = np.asarray(serve_dataset.queries, dtype=np.float32)
        expected = [coordinator.search(q, 10, 64) for q in queries]
        for _ in range(3):  # several rounds of contention
            service.start()
            try:
                tickets = [service.submit(q, k=10) for q in queries]
            finally:
                service.stop()
            for i, ticket in enumerate(tickets):
                assert isinstance(ticket, Ticket)
                outcome = ticket.result(timeout=5.0)
                assert outcome is not None and outcome.ok
                np.testing.assert_array_equal(
                    outcome.result.ids, expected[i].ids
                )
                np.testing.assert_allclose(
                    outcome.result.dists, expected[i].dists
                )

    @pytest.mark.parametrize(
        "strategy, armed",
        [("lru", False), ("locality", False), ("lru", True)],
    )
    def test_cache_applied_while_live_is_thread_safe(
        self, serve_segments, serve_dataset, strategy, armed
    ):
        """There is no service lock: a cache strategy applied *after*
        ``start()`` is shared by two live workers that run concurrently (a
        short switch interval forces interleavings inside the wrapper).
        Answers equal the scalar oracle, every block a query was charged
        left the device, and the wrapper counted every block the queries
        asked for.  Armed, a latency-spike injector under the cache draws
        under its own lock and keeps each thread's spike apart: every spike
        it injected was charged to exactly one query, as a suffered spike
        or as a hedge's."""
        from .oracles import oracle_block_search

        segments, _ = serve_segments
        segment = segments[0]
        engine, config = segment.engine, segment.config
        queries = np.asarray(serve_dataset.queries, dtype=np.float32)
        expected = [oracle_block_search(engine, q, 10, 32) for q in queries]
        service = SearchService(
            segment,
            ServeSpec(workers=2, queue_depth=64, max_batch=2,
                      shed_tiers=(32,)),
        )
        graph = base_disk_graph(segment.disk_graph)
        device = graph.device
        injector = None
        if armed:
            # every round trip spikes, so every spike is charged somewhere
            injector = ensure_fault_injection(
                graph, FaultSpec(seed=9, latency_spike_rate=1.0)
            )
            engine.resilience = RetryPolicy(hedge_after_us=1_500.0)
        interval = sys.getswitchinterval()
        before = device.counters.snapshot()
        try:
            service.start()
            sys.setswitchinterval(1e-6)
            try:
                segment.apply_cache_strategy(
                    strategy, 6, params=(("prefetch_blocks", 1),)
                    if strategy == "locality" else (),
                )
                cache = segment.disk_graph
                tickets = [
                    service.submit(q, k=10) for _ in range(3) for q in queries
                ]
                deadline = time.monotonic() + 60.0
                outcomes = [
                    t.result(timeout=max(deadline - time.monotonic(), 0.0))
                    for t in tickets
                ]
            finally:
                sys.setswitchinterval(interval)
                service.stop()
            io = device.counters.since(before)
        finally:
            segment.apply_cache_strategy("none", 0)
            segment.config = config
            engine.resilience = None
            graph.device = device
            graph.verify_checksums = False
        assert all(o is not None and o.ok for o in outcomes)
        for i, outcome in enumerate(outcomes):
            want = expected[i % len(queries)]
            np.testing.assert_array_equal(outcome.result.ids, want.ids)
            np.testing.assert_array_equal(outcome.result.dists, want.dists)
        stats = [o.result.stats for o in outcomes]
        assert sum(s.num_ios for s in stats) == io.blocks_read
        assert cache.hits == sum(s.block_cache_hits for s in stats) > 0
        if injector is None:
            # requested = hits + fetched − prefetched, per query
            assert cache.hits + cache.misses == sum(
                s.block_cache_hits + s.num_ios - s.prefetch_blocks
                for s in stats
            )
        else:
            hedges = sum(s.fault.hedges for s in stats)
            assert 0 < hedges < sum(s.fault.latency_spikes for s in stats)
            assert injector.spikes_injected == hedges + sum(
                s.fault.latency_spikes for s in stats
            )

    def test_plane_follows_a_segment_swapped_in_while_live(
        self, coordinator, serve_dataset
    ):
        """Regression: a segment rebuilt and swapped in while the service
        runs gets the persistent decode cache at its first dispatch (not at
        the next restart), and ``stop()`` restores exactly the graphs the
        service touched — the swapped-out one included."""
        from repro.storage.repair import rebuild_segment

        parts, _ = split_dataset(serve_dataset, 2)
        before = _plane_state(coordinator)
        old_graph = base_disk_graph(coordinator.segments[1].disk_graph)
        queries = np.asarray(serve_dataset.queries, dtype=np.float32)
        service = SearchService(
            coordinator, ServeSpec(workers=2, max_batch=4, shed_tiers=(32,))
        )
        service.start()
        try:
            for ticket in [service.submit(q, k=10) for q in queries]:
                assert ticket.result(timeout=5.0).ok
            fresh = rebuild_segment(coordinator, 1, parts[1], CONFIG)
            new_graph = base_disk_graph(fresh.disk_graph)
            assert new_graph.decode_cache is None
            for ticket in [service.submit(q, k=10) for q in queries]:
                assert ticket.result(timeout=5.0).ok
            assert isinstance(new_graph.decode_cache, DecodeCache)
            assert len(new_graph.decode_cache) > 0
        finally:
            service.stop()
        assert new_graph.decode_cache is None
        assert old_graph.decode_cache is None
        assert _plane_state(coordinator) == [before[0], None]

    def test_start_twice_rejected_and_stop_restores_plane(self, coordinator,
                                                          serve_dataset):
        service = SearchService(coordinator, ServeSpec(workers=1))
        before = _plane_state(coordinator)
        for _ in range(3):  # repeated start/stop cycles must be clean
            service.start()
            assert service.running
            with pytest.raises(RuntimeError, match="already running"):
                service.start()
            # while live, every disk segment runs the persistent plane
            assert all(
                cache is not None for cache in _plane_state(coordinator)
            )
            service.stop()
            assert not service.running
            assert _plane_state(coordinator) == before

    def test_each_query_gets_its_own_k(self, coordinator, serve_dataset,
                                       monkeypatch):
        """Regression: a live micro-batch mixing ``k`` values answered every
        query with the first query's ``k``.  Each answer now equals a lone
        ``search_batch`` at that query's own ``k``."""
        spec = ServeSpec(workers=1, queue_depth=64, shed_tiers=(32,))
        queries = np.asarray(serve_dataset.queries, dtype=np.float32)
        ks = [3 if i % 2 == 0 else 10 for i in range(40)]
        search_batch = coordinator.search_batch
        release = threading.Event()

        def held(*args, **kwargs):
            # the worker waits here until every query is queued, so the
            # batches after the first are full and alternate k = 3, 10
            assert release.wait(5.0)
            return search_batch(*args, **kwargs)

        monkeypatch.setattr(coordinator, "search_batch", held)
        service = SearchService(coordinator, spec)
        service.start()
        try:
            tickets = [
                service.submit(queries[i % len(queries)], k)
                for i, k in enumerate(ks)
            ]
            release.set()
        finally:
            report = service.stop()
        assert report.completed == len(ks)
        batches = [d[2] for d in report.decisions if d[0] == "dispatch"]
        assert any(len({ks[i] for i in batch}) == 2 for batch in batches)
        for i, (ticket, k) in enumerate(zip(tickets, ks)):
            outcome = ticket.result(timeout=5.0)
            assert outcome is not None and outcome.ok
            alone = search_batch(queries[i % len(queries)][None], k, 32)[0]
            assert len(outcome.result.ids) == k
            np.testing.assert_array_equal(outcome.result.ids, alone.ids)
            np.testing.assert_array_equal(outcome.result.dists, alone.dists)

    def test_submit_during_stop_is_served(self, coordinator, serve_dataset,
                                          monkeypatch):
        """Regression: a query admitted after the last worker exited (while
        ``stop()`` joins) was accepted and never answered.  ``stop()`` now
        serves it on the stopping thread, and it is in the report; a
        ``start()`` meanwhile is refused instead of opening a second session
        under the stopping one."""
        queries = np.asarray(serve_dataset.queries, dtype=np.float32)
        service = SearchService(
            coordinator, ServeSpec(workers=1, shed_tiers=(32,))
        )
        join = threading.Thread.join
        late = []

        def join_then_submit(thread, timeout=None):
            join(thread, timeout)
            if thread.name.startswith("serve-worker") and not late:
                late.append(service.submit(queries[0], k=10))
                # a stop() in progress still owns the session
                with pytest.raises(RuntimeError, match="already running"):
                    service.start()

        service.start()
        first = service.submit(queries[1], k=10)
        assert first.result(timeout=5.0).ok
        monkeypatch.setattr(threading.Thread, "join", join_then_submit)
        report = service.stop()
        monkeypatch.undo()
        assert len(late) == 1 and isinstance(late[0], Ticket)
        outcome = late[0].result(timeout=0.5)
        assert outcome is not None and outcome.ok
        assert report.arrivals == 2 and report.completed == 2
        assert any(o is outcome for o in report.outcomes)
        with pytest.raises(RuntimeError, match="not running"):
            service.submit(queries[0], k=10)

    def test_no_lock_is_held_across_the_search(self, coordinator,
                                               serve_dataset, monkeypatch):
        """The service's control lock guards the breakers and the ledger
        only: no worker holds it while ``coordinator.search_batch`` runs."""
        queries = np.asarray(serve_dataset.queries, dtype=np.float32)
        service = SearchService(
            coordinator, ServeSpec(workers=1, shed_tiers=(32,))
        )
        search_batch = coordinator.search_batch
        held = []

        def spy(*args, **kwargs):
            held.append(service._control_lock.locked())
            return search_batch(*args, **kwargs)

        monkeypatch.setattr(coordinator, "search_batch", spy)
        service.start()
        try:
            for q in queries:  # one at a time: no submitter holds the lock
                assert service.submit(q, k=10).result(timeout=5.0).ok
        finally:
            service.stop()
        assert held and not any(held)


class TestLivePolicy:
    """Expiry and breakers on the threaded front end: the same
    ``_dispatch`` the virtual-clock tests pin, on wall time."""

    def test_queued_burst_expires(self, coordinator, serve_dataset):
        queries = np.asarray(serve_dataset.queries, dtype=np.float32)
        spec = ServeSpec(workers=1, queue_depth=32, max_batch=2,
                         deadline_us=1.0, shed_tiers=(32,))
        service = SearchService(coordinator, spec)
        service.start()
        try:
            tickets = [service.submit(q, k=10) for q in queries]
            outcomes = [t.result(timeout=5.0) for t in tickets]
        finally:
            report = service.stop()
        assert all(o is not None for o in outcomes)
        expired = {o.index for o in outcomes if o.status == "expired"}
        assert expired
        assert {d[1] for d in report.decisions if d[0] == "expire"} == expired
        assert report.expired == len(expired)
        assert report.arrivals == len(queries)
        for outcome in outcomes:
            if outcome.status == "expired":
                assert outcome.result is None and outcome.tier is None
        # an expired query is never searched
        for d in report.decisions:
            if d[0] == "dispatch":
                assert not expired & set(d[2])

    def test_breaker_opens_then_half_opens_on_wall_time(self, coordinator,
                                                        serve_dataset):
        queries = np.asarray(serve_dataset.queries, dtype=np.float32)
        probe_us = 20_000.0
        spec = ServeSpec(workers=1, shed_tiers=(32,),
                         breaker_probe_us=probe_us)
        service = SearchService(coordinator, spec)
        service.start()
        try:
            assert service.submit(queries[0], k=10).result(5.0).ok
            coordinator.quarantine_segment(0)
            hurt = service.submit(queries[1], k=10).result(5.0)
            assert hurt.ok and hurt.result.degraded
            assert service.breakers[0].state == "open"
            time.sleep(2 * probe_us / 1e6)
            healed = service.submit(queries[2], k=10).result(5.0)
            assert healed.ok and not healed.result.degraded
        finally:
            report = service.stop()
            coordinator.reinstate(0)
        moves = [(d[2], d[3]) for d in report.decisions
                 if d[0] == "breaker" and d[1] == 0]
        assert [state for state, _ in moves] == ["open", "half_open", "closed"]
        assert moves[1][1] - moves[0][1] >= probe_us
        assert service.breakers[0].state == "closed"


# ---------------------------------------------------------------------------
# shared plane primitives


class TestDecodeCache:
    def test_bounded_fifo(self):
        cache = DecodeCache(2)
        cache[1] = "a"
        cache[2] = "b"
        cache[3] = "c"  # evicts 1 (FIFO)
        assert len(cache) == 2
        assert cache.get(1) is None
        assert cache.get(2) == "b"
        assert cache.get(3) == "c"
        cache[2] = "b2"  # overwrite does not evict
        assert len(cache) == 2
        cache.clear()
        assert len(cache) == 0

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            DecodeCache(0)

    def test_concurrent_mutation_stays_bounded(self):
        cache = DecodeCache(8)
        errors = []

        def hammer(base):
            try:
                for i in range(500):
                    cache[base + i] = i
                    cache.get(base + i - 1)
                    assert len(cache) <= 8
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=hammer, args=(t * 1_000,))
            for t in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(cache) <= 8


class TestDeadlineStopper:
    def test_min_rounds_always_granted(self):
        stopper = DeadlineStopper(0.0, min_rounds=2)
        stopper.bind_costs(None, None, 128, 16)

        class _Stats:
            def latency_us(self, *args):
                return 1e9

        stopper.bind(_Stats())
        assert stopper.update([]) is False  # round 1: granted
        assert stopper.update([]) is False  # round 2: granted
        assert stopper.update([]) is True   # round 3: budget enforced
        assert stopper.fired

    def test_never_fires_within_budget(self):
        stopper = DeadlineStopper(1e12, min_rounds=0)

        class _Stats:
            def latency_us(self, *args):
                return 5.0

        stopper.bind(_Stats())
        for _ in range(10):
            assert stopper.update([]) is False
        assert not stopper.fired

    def test_rejects_negative_budget(self):
        with pytest.raises(ValueError):
            DeadlineStopper(-1.0)


# ---------------------------------------------------------------------------
# coordinator micro-batching


class TestCoordinatorSearchBatch:
    def test_matches_per_query_search(self, coordinator, serve_dataset):
        queries = np.asarray(serve_dataset.queries, dtype=np.float32)
        batched = coordinator.search_batch(queries, 10, 48)
        assert len(batched) == len(queries)
        for i, result in enumerate(batched):
            direct = coordinator.search(queries[i], 10, 48)
            np.testing.assert_array_equal(result.ids, direct.ids)
            np.testing.assert_allclose(result.dists, direct.dists)
            assert result.degraded == direct.degraded

    def test_stopper_count_validated(self, coordinator, serve_dataset):
        queries = np.asarray(serve_dataset.queries, dtype=np.float32)
        with pytest.raises(ValueError, match="stoppers"):
            coordinator.search_batch(
                queries, 10, 48, stoppers=[DeadlineStopper(1.0)]
            )
