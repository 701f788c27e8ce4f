"""Fault injection, checksums, resilient reads, and graceful degradation."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import (
    DiskANNConfig,
    SegmentCoordinator,
    StarlingConfig,
    build_diskann,
    build_starling,
)
from repro.storage import load_starling, save_starling
from repro.engine import CachedDiskGraph, QueryStats, RetryPolicy
from repro.engine.io_util import counted_read_blocks_of
from repro.storage import (
    BlockDevice,
    ChecksumError,
    FaultError,
    FaultInjector,
    FaultSpec,
    IndexLoadError,
    ReadFaultError,
    VertexFormat,
    block_checksum,
    build_disk_graph,
    device_for_blocks,
    ensure_fault_injection,
)
from repro.storage.faults import KIND_BAD_BLOCK, KIND_CHECKSUM, KIND_TRANSIENT


def make_device(num_blocks: int = 16, block_bytes: int = 64) -> BlockDevice:
    """A device whose block payloads are distinct deterministic bytes."""
    rng = np.random.default_rng(7)
    payloads = [
        rng.integers(0, 256, size=block_bytes).astype(np.uint8).tobytes()
        for _ in range(num_blocks)
    ]
    return device_for_blocks(payloads, block_bytes)


@pytest.fixture
def tiny_graph(rng):
    """12 vertices, 4-d uint8 vectors, 3 vertices per block, 4 blocks."""
    n = 12
    vectors = rng.integers(0, 256, size=(n, 4)).astype(np.uint8)
    neighbors = [
        np.asarray([(i + 1) % n, (i + 2) % n], dtype=np.uint32)
        for i in range(n)
    ]
    fmt = VertexFormat(dim=4, dtype=np.uint8, max_degree=4, block_bytes=72)
    layout = [[0, 5, 7], [1, 2, 3], [4, 6, 8], [9, 10, 11]]
    return build_disk_graph(vectors, neighbors, layout, fmt)


class TestFaultSpec:
    def test_default_is_disabled(self):
        assert not FaultSpec().enabled

    def test_any_positive_rate_enables(self):
        assert FaultSpec(transient_error_rate=0.1).enabled
        assert FaultSpec(bad_block_rate=0.1).enabled
        assert FaultSpec(corruption_rate=0.1).enabled
        assert FaultSpec(latency_spike_rate=0.1).enabled

    @pytest.mark.parametrize("field", [
        "transient_error_rate", "bad_block_rate", "corruption_rate",
        "latency_spike_rate",
    ])
    def test_rates_validated(self, field):
        with pytest.raises(ValueError, match=field):
            FaultSpec(**{field: 1.5})
        with pytest.raises(ValueError, match=field):
            FaultSpec(**{field: -0.1})

    def test_spike_shape_validated(self):
        with pytest.raises(ValueError, match="alpha"):
            FaultSpec(latency_spike_alpha=0.0)
        with pytest.raises(ValueError, match="scale"):
            FaultSpec(latency_spike_scale=-1.0)

    def test_disabled_spec_never_wraps(self, tiny_graph):
        assert ensure_fault_injection(tiny_graph, FaultSpec()) is None
        assert isinstance(tiny_graph.device, BlockDevice)

    def test_ensure_is_idempotent(self, tiny_graph):
        spec = FaultSpec(seed=3, transient_error_rate=0.1)
        inj1 = ensure_fault_injection(tiny_graph, spec)
        inj2 = ensure_fault_injection(tiny_graph, spec)
        assert inj1 is inj2
        assert isinstance(tiny_graph.device, FaultInjector)
        assert not isinstance(tiny_graph.device.inner, FaultInjector)

    def test_ensure_rewraps_on_new_spec(self, tiny_graph):
        ensure_fault_injection(tiny_graph, FaultSpec(transient_error_rate=0.1))
        inj = ensure_fault_injection(
            tiny_graph, FaultSpec(transient_error_rate=0.2)
        )
        assert inj.fault_spec.transient_error_rate == 0.2
        assert not isinstance(inj.inner, FaultInjector)


# Zero-rate specs that must be behaviourally invisible; a latency-spike-only
# spec still wraps but must keep payloads and counters identical too.
_READ_OP = st.one_of(
    st.tuples(st.just("one"), st.integers(0, 15)),
    st.tuples(st.just("many"), st.lists(st.integers(0, 15), max_size=6)),
    st.tuples(st.just("seq"), st.integers(0, 14)),
)


class TestZeroCostInvariant:
    @settings(deadline=None, max_examples=40,
              suppress_health_check=[HealthCheck.too_slow])
    @given(ops=st.lists(_READ_OP, max_size=12), seed=st.integers(0, 2**16))
    def test_zero_rate_injector_is_invisible(self, ops, seed):
        """All-zero rates: byte-identical payloads, identical IOCounters."""
        bare = make_device()
        wrapped = FaultInjector(make_device(), FaultSpec(seed=seed))

        def run(dev, op):
            kind, arg = op
            if kind == "one":
                return dev.read_block(arg)
            if kind == "many":
                return dev.read_blocks(arg)
            return dev.read_sequential(arg, 2)

        for op in ops:
            assert run(bare, op) == run(wrapped, op)
        assert wrapped.counters == bare.counters
        assert wrapped.take_injected_latency_us() == 0.0
        assert wrapped.errors_injected == 0
        assert wrapped.corruptions_injected == 0

    def test_disabled_config_leaves_engine_unarmed(self, starling_index):
        assert isinstance(starling_index.disk_graph.device, BlockDevice)
        assert starling_index.engine.resilience is None


def _run_schedule(spec: FaultSpec):
    """Drive one injector through a fixed access pattern; record everything."""
    inj = FaultInjector(make_device(), spec)
    outcomes = []
    for ids in ([0, 1, 2], [3], [4, 5], [0, 1, 2], [6, 7, 8, 9]):
        try:
            outcomes.append([bytes(p) for p in inj.read_blocks(ids)])
        except ReadFaultError as exc:
            outcomes.append(sorted(exc.failed.items()))
        outcomes.append(inj.take_injected_latency_us())
    outcomes.append(sorted(inj.bad_blocks))
    outcomes.append((inj.errors_injected, inj.corruptions_injected,
                     inj.spikes_injected))
    return outcomes


class TestDeterminism:
    @settings(deadline=None, max_examples=25,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 2**32 - 1))
    def test_same_seed_same_schedule(self, seed):
        spec = FaultSpec(
            seed=seed, transient_error_rate=0.2, bad_block_rate=0.1,
            corruption_rate=0.2, latency_spike_rate=0.3,
        )
        assert _run_schedule(spec) == _run_schedule(spec)

    @settings(deadline=None, max_examples=25,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 2**32 - 1), order=st.permutations(range(16)))
    def test_outcome_is_keyed_not_ordered(self, seed, order):
        """A block's fate at an attempt is a pure function of (seed, block,
        attempt): reading the blocks one by one in any order gives each
        the outcome it gets in block order, and a retry draws afresh."""
        spec = FaultSpec(
            seed=seed, transient_error_rate=0.3, bad_block_rate=0.1,
            corruption_rate=0.3,
        )

        def fates(ids, attempt=0):
            inj = FaultInjector(make_device(), spec)
            out = {}
            for bid in ids:
                try:
                    out[bid] = inj.read_blocks([bid], attempt)[0]
                except ReadFaultError as exc:
                    out[bid] = exc.failed[bid]
            return out

        assert fates(order) == fates(range(16))
        assert fates(order, 1) == fates(range(16), 1)
        assert any(fates(range(16), a) != fates(range(16)) for a in (1, 2))

    def test_different_seeds_differ(self):
        base = dict(transient_error_rate=0.3, corruption_rate=0.3,
                    latency_spike_rate=0.3)
        runs = {
            repr(_run_schedule(FaultSpec(seed=s, **base))) for s in range(8)
        }
        assert len(runs) > 1

    def test_bad_blocks_fixed_at_construction(self):
        spec = FaultSpec(seed=11, bad_block_rate=0.3)
        a = FaultInjector(make_device(), spec)
        b = FaultInjector(make_device(), spec)
        assert a.bad_blocks == b.bad_blocks
        assert a.bad_blocks  # 16 blocks at 30%: astronomically unlikely empty
        bad = min(a.bad_blocks)
        for _ in range(3):  # permanent: every read of a bad block fails
            with pytest.raises(ReadFaultError) as exc_info:
                a.read_block(bad)
            assert exc_info.value.failed == {bad: KIND_BAD_BLOCK}


class TestInjection:
    def test_failed_read_still_charges_counters(self):
        inj = FaultInjector(make_device(), FaultSpec(bad_block_rate=1.0))
        with pytest.raises(ReadFaultError):
            inj.read_blocks([0, 1, 2])
        assert inj.counters.blocks_read == 3
        assert inj.counters.round_trips == 1

    def test_partial_failure_carries_successes(self):
        spec = FaultSpec(seed=5, transient_error_rate=0.4)
        inj = FaultInjector(make_device(), spec)
        ids = list(range(16))
        try:
            inj.read_blocks(ids)
            pytest.fail("expected at least one transient failure at 40%")
        except ReadFaultError as exc:
            assert exc.failed
            assert all(k == KIND_TRANSIENT for k in exc.failed.values())
            assert set(exc.payloads) == set(ids) - set(exc.failed)
            bare = make_device()
            for bid, payload in exc.payloads.items():
                assert payload == bare._fetch(bid)

    def test_corruption_flips_exactly_one_bit(self):
        inj = FaultInjector(make_device(), FaultSpec(corruption_rate=1.0))
        got = inj.read_block(3)
        want = make_device()._fetch(3)
        assert got != want
        diff = int.from_bytes(got, "little") ^ int.from_bytes(want, "little")
        assert bin(diff).count("1") == 1

    def test_latency_spike_accumulates_and_pops(self):
        inj = FaultInjector(make_device(), FaultSpec(latency_spike_rate=1.0))
        inj.read_blocks([0, 1])
        first = inj.take_injected_latency_us()
        assert first > 0.0
        assert inj.take_injected_latency_us() == 0.0  # popped
        assert inj.spikes_injected == 1

    def test_hedge_read_charges_io_never_raises(self):
        inj = FaultInjector(
            make_device(),
            FaultSpec(bad_block_rate=1.0, latency_spike_rate=1.0),
        )
        before = inj.counters.snapshot()
        spike = inj.hedge_read([0, 1, 2])
        delta = inj.counters.since(before)
        assert delta.blocks_read == 3 and delta.round_trips == 1
        assert spike > 0.0
        assert inj.take_injected_latency_us() == 0.0  # pending preserved

    def test_writes_pass_through(self):
        inj = FaultInjector(make_device(), FaultSpec(transient_error_rate=1.0))
        payload = bytes(64)
        inj.write_block(0, payload)
        assert inj._fetch(0) == payload  # uncounted path bypasses injection


class TestChecksums:
    def test_block_checksum_is_crc32(self):
        assert block_checksum(b"starling") == block_checksum(b"starling")
        assert block_checksum(b"starling") != block_checksum(b"sparling")

    def test_verification_detects_corruption(self, tiny_graph):
        spec = FaultSpec(seed=2, corruption_rate=1.0)
        ensure_fault_injection(tiny_graph, spec)
        assert tiny_graph.verify_checksums
        with pytest.raises(ChecksumError):
            tiny_graph.read_block(0)
        failed = {}
        ok, _, _ = tiny_graph.read_counted([0, 1], failed=failed)
        assert not ok
        assert failed == {0: KIND_CHECKSUM, 1: KIND_CHECKSUM}

    def test_clean_blocks_pass_verification(self, tiny_graph):
        ensure_fault_injection(tiny_graph, FaultSpec(latency_spike_rate=0.01))
        failed = {}
        ok, _, _ = tiny_graph.read_counted([0, 1, 2, 3], failed=failed)
        assert not failed
        assert sorted(ok) == [0, 1, 2, 3]
        block = ok[0]
        assert sorted(block.vertex_ids) == [0, 5, 7]


class TestResilientRead:
    def test_retries_recover_transient_failures(self, tiny_graph):
        spec = FaultSpec(seed=9, transient_error_rate=0.4)
        ensure_fault_injection(tiny_graph, spec)
        stats = QueryStats()
        policy = RetryPolicy(max_retries=25, backoff_us=10.0)
        blocks = counted_read_blocks_of(
            tiny_graph, list(range(12)), stats, policy
        )
        assert len(blocks) == 4  # all four blocks eventually served
        assert stats.fault.read_errors > 0
        assert stats.fault.retries == stats.fault.read_errors
        assert stats.fault.blocks_abandoned == 0
        assert not stats.fault.degraded
        assert stats.fault.backoff_us > 0.0
        # every retry round shows up as an extra round-trip in the stats
        assert len(stats.round_trip_blocks) > 1
        assert sum(stats.round_trip_blocks) == \
            tiny_graph.device.counters.blocks_read

    def test_bad_blocks_abandoned_after_budget(self, tiny_graph):
        spec = FaultSpec(seed=1, bad_block_rate=1.0)
        ensure_fault_injection(tiny_graph, spec)
        stats = QueryStats()
        blocks = counted_read_blocks_of(
            tiny_graph, list(range(12)), stats, RetryPolicy(max_retries=2)
        )
        assert blocks == []
        assert stats.fault.blocks_abandoned == 4
        assert stats.fault.retries == 2 * 4
        assert stats.fault.degraded
        assert len(stats.round_trip_blocks) == 3  # initial + 2 retry rounds

    def test_healthy_path_matches_plain_reader(self, tiny_graph):
        plain_stats, res_stats = QueryStats(), QueryStats()
        plain = counted_read_blocks_of(tiny_graph, [0, 1, 5], plain_stats)
        resilient = counted_read_blocks_of(
            tiny_graph, [0, 1, 5], res_stats, RetryPolicy()
        )
        assert [b.block_id for b in plain] == [b.block_id for b in resilient]
        assert plain_stats.round_trip_blocks == res_stats.round_trip_blocks
        assert plain_stats.block_cache_hits == res_stats.block_cache_hits
        assert not res_stats.fault.any

    def test_spike_charged_only_to_the_read_that_drew_it(self, tiny_graph):
        """A strict read's spike is nobody's to charge: it never lands on
        the next resilient read of the thread — not on one served wholly
        from a cache (no round trip, no spike), and not on one with a trip
        of its own (charged that trip's spike alone)."""
        ensure_fault_injection(
            tiny_graph, FaultSpec(seed=4, latency_spike_rate=1.0)
        )
        policy = RetryPolicy()
        alone = QueryStats()
        counted_read_blocks_of(tiny_graph, [3], alone, policy)
        assert alone.fault.latency_spikes == 1
        cached = CachedDiskGraph(tiny_graph, 4)
        counted_read_blocks_of(cached, [0], QueryStats())  # strict miss
        hit = QueryStats()
        counted_read_blocks_of(cached, [0], hit, policy)
        assert hit.block_cache_hits == 1 and hit.num_ios == 0
        assert hit.fault == QueryStats().fault
        counted_read_blocks_of(tiny_graph, [6], QueryStats())  # strict
        after = QueryStats()
        counted_read_blocks_of(tiny_graph, [3], after, policy)
        assert after.fault == alone.fault

    def test_backoff_and_spikes_charge_io_time(self):
        stats = QueryStats()
        stats.round_trip_blocks.append(2)
        from repro.storage import DiskSpec

        base = stats.io_time_us(DiskSpec())
        stats.fault.backoff_us += 100.0
        stats.fault.injected_latency_us += 50.0
        assert stats.io_time_us(DiskSpec()) == pytest.approx(base + 150.0)

    def test_hedging_caps_spike_and_charges_duplicate(self, tiny_graph):
        spec = FaultSpec(
            seed=4, latency_spike_rate=1.0, latency_spike_scale=100.0
        )
        ensure_fault_injection(tiny_graph, spec)
        stats = QueryStats()
        policy = RetryPolicy(hedge_after_us=10.0)
        counted_read_blocks_of(tiny_graph, [0, 3], stats, policy)
        assert stats.fault.latency_spikes == 1
        assert stats.fault.hedges == 1
        assert len(stats.round_trip_blocks) == 2  # primary + hedge duplicate
        hedge_own = stats.fault.injected_latency_us - policy.hedge_after_us
        assert hedge_own >= 0.0  # capped at trigger + duplicate's own spike


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError, match="max_retries"):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError, match="backoff_us"):
            RetryPolicy(backoff_us=-1.0)
        with pytest.raises(ValueError, match="hedge_after_us"):
            RetryPolicy(hedge_after_us=-1.0)

    def test_exponential_backoff(self):
        policy = RetryPolicy(backoff_us=50.0)
        assert policy.retry_backoff_us(1) == 50.0
        assert policy.retry_backoff_us(2) == 100.0
        assert policy.retry_backoff_us(3) == 200.0


class TestEndToEndChaos:
    CHAOS = FaultSpec(
        seed=13, transient_error_rate=0.05, bad_block_rate=0.02,
        corruption_rate=0.02, latency_spike_rate=0.1,
    )

    def _build(self, dataset, graph_config):
        cfg = StarlingConfig(
            graph=graph_config, faults=self.CHAOS,
            resilience=RetryPolicy(max_retries=3, hedge_after_us=500.0),
        )
        return build_starling(dataset, cfg)

    def test_chaos_search_degrades_not_crashes(self, small_dataset,
                                               graph_config, small_truth):
        index = self._build(small_dataset, graph_config)
        assert isinstance(index.disk_graph.device, FaultInjector)
        results = [
            index.search(q, 10, 64) for q in small_dataset.queries
        ]
        faults = QueryStats()
        for r in results:
            assert len(r.ids) > 0
            assert np.all(np.isfinite(r.dists))
            assert index.latency_us(r) > 0.0
            faults.fault.merge(r.stats.fault)
        assert faults.fault.any  # the chaos actually fired
        from repro.metrics import mean_recall_at_k

        recall = mean_recall_at_k(
            [r.ids for r in results], small_truth[0], 10
        )
        assert recall > 0.5  # degraded, not destroyed

    def test_chaos_is_reproducible(self, small_dataset, graph_config):
        a = self._build(small_dataset, graph_config)
        b = self._build(small_dataset, graph_config)
        for q in small_dataset.queries[:4]:
            ra, rb = a.search(q, 10, 64), b.search(q, 10, 64)
            assert np.array_equal(ra.ids, rb.ids)
            assert np.allclose(ra.dists, rb.dists)
            assert ra.stats.fault == rb.stats.fault
            assert ra.degraded == rb.degraded
            assert a.latency_us(ra) == pytest.approx(b.latency_us(rb))

    def test_diskann_chaos_path(self, small_dataset, graph_config):
        cfg = DiskANNConfig(
            graph=graph_config,
            faults=FaultSpec(seed=3, transient_error_rate=0.1),
            resilience=RetryPolicy(max_retries=4),
        )
        index = build_diskann(small_dataset, cfg)
        result = index.search(small_dataset.queries[0], 10, 64)
        assert len(result.ids) > 0
        assert index.latency_us(result) > 0.0

    def test_chaos_config_survives_persistence(self, small_dataset,
                                               graph_config, tmp_path):
        index = self._build(small_dataset, graph_config)
        save_starling(index, tmp_path / "chaotic")
        loaded = load_starling(tmp_path / "chaotic")
        assert loaded.config.faults == self.CHAOS
        assert loaded.config.resilience == RetryPolicy(
            max_retries=3, hedge_after_us=500.0
        )
        assert isinstance(loaded.disk_graph.device, FaultInjector)
        result = loaded.search(small_dataset.queries[0], 10, 64)
        assert len(result.ids) > 0


class _FlakySegment:
    """Segment stand-in: healthy answers until told to start failing."""

    def __init__(self, inner, *, failing: bool = False):
        self.inner = inner
        self.failing = failing
        self.calls = 0

    def search(self, query, k=10, candidate_size=64):
        self.calls += 1
        if self.failing:
            raise ReadFaultError({0: KIND_BAD_BLOCK}, {})
        return self.inner.search(query, k, candidate_size)

    def range_search(self, query, radius, **kwargs):
        self.calls += 1
        if self.failing:
            raise ReadFaultError({0: KIND_BAD_BLOCK}, {})
        return self.inner.range_search(query, radius, **kwargs)

    def latency_us(self, result):
        return self.inner.latency_us(result)


class TestCoordinatorResilience:
    @pytest.fixture
    def flaky_pair(self, starling_index):
        good = _FlakySegment(starling_index)
        bad = _FlakySegment(starling_index, failing=True)
        coord = SegmentCoordinator(
            [good, bad], [0, 600], quarantine_threshold=3
        )
        return coord, good, bad

    def test_failed_segment_skipped_not_fatal(self, flaky_pair, small_dataset):
        coord, good, bad = flaky_pair
        result = coord.search(small_dataset.queries[0], k=5)
        assert result.degraded and not result.complete
        assert result.failed_segments == [1]
        assert result.quarantined_segments == []
        assert len(result.ids) == 5
        assert np.all(result.ids < 600)  # only the healthy segment answered
        assert coord.error_counts == [0, 1]
        assert coord.total_errors == [0, 1]

    def test_quarantine_after_threshold(self, flaky_pair, small_dataset):
        coord, good, bad = flaky_pair
        q = small_dataset.queries[0]
        for _ in range(3):
            coord.search(q, k=5)
        assert coord.is_quarantined(1)
        assert coord.quarantined == [1]
        calls_before = bad.calls
        result = coord.search(q, k=5)
        assert bad.calls == calls_before  # not even attempted
        assert result.quarantined_segments == [1]
        assert result.degraded

    def test_success_resets_consecutive_count(self, flaky_pair, small_dataset):
        coord, good, bad = flaky_pair
        q = small_dataset.queries[0]
        coord.search(q, k=5)
        coord.search(q, k=5)
        bad.failing = False  # segment recovers before quarantine
        result = coord.search(q, k=5)
        assert not result.degraded and result.complete
        assert coord.error_counts == [0, 0]
        assert coord.total_errors == [0, 2]

    def test_reinstate_clears_quarantine(self, flaky_pair, small_dataset):
        coord, good, bad = flaky_pair
        q = small_dataset.queries[0]
        for _ in range(3):
            coord.search(q, k=5)
        coord.reinstate(1)
        assert not coord.is_quarantined(1)
        bad.failing = False
        assert not coord.search(q, k=5).degraded

    def test_zero_threshold_disables_quarantine(self, starling_index,
                                                small_dataset):
        bad = _FlakySegment(starling_index, failing=True)
        coord = SegmentCoordinator([bad], quarantine_threshold=0)
        q = small_dataset.queries[0]
        for _ in range(5):
            result = coord.search(q, k=5)
            assert result.failed_segments == [0]
            assert result.quarantined_segments == []
        assert bad.calls == 5  # kept trying every time

    def test_range_search_survives_failures(self, flaky_pair, small_dataset):
        coord, good, bad = flaky_pair
        result = coord.range_search(
            small_dataset.queries[0], radius=small_dataset.default_radius
        )
        assert result.degraded
        assert result.failed_segments == [1]

    def test_all_segments_down_returns_empty_degraded(self, starling_index,
                                                      small_dataset):
        coord = SegmentCoordinator(
            [_FlakySegment(starling_index, failing=True)],
        )
        result = coord.search(small_dataset.queries[0], k=5)
        assert len(result) == 0
        assert result.degraded
        assert result.parallel_latency_us == 0.0


class TestDeviceLifecycle:
    def test_close_is_idempotent_memory(self):
        dev = make_device()
        dev.close()
        dev.close()
        assert dev.closed

    def test_close_is_idempotent_file(self, tmp_path):
        dev = BlockDevice(64, 4, path=tmp_path / "d.bin")
        dev.write_block(0, bytes(range(64)))
        dev.close()
        dev.close()
        assert (tmp_path / "d.bin").read_bytes()[:64] == bytes(range(64))

    def test_reads_and_writes_after_close_raise(self):
        dev = make_device()
        dev.close()
        with pytest.raises(ValueError, match="closed"):
            dev.read_block(0)
        with pytest.raises(ValueError, match="closed"):
            dev.write_block(0, bytes(64))

    def test_context_manager_closes(self):
        with make_device() as dev:
            dev.read_block(0)
        assert dev.closed

    def test_injector_close_delegates(self):
        inj = FaultInjector(make_device(), FaultSpec(transient_error_rate=0.1))
        with inj:
            pass
        assert inj.inner.closed


class TestPersistHardening:
    def test_index_load_error_is_value_error(self):
        assert issubclass(IndexLoadError, ValueError)
        assert issubclass(IndexLoadError, FaultError) is False

    def test_missing_directory(self, tmp_path):
        with pytest.raises(IndexLoadError, match="not an index directory"):
            load_starling(tmp_path / "nope")

    def test_missing_meta(self, tmp_path):
        (tmp_path / "empty").mkdir()
        with pytest.raises(IndexLoadError, match="has no meta.json"):
            load_starling(tmp_path / "empty")

    def test_unparseable_meta(self, tmp_path):
        from repro.storage.manifest import CommitTransaction

        # committed as written, so digests pass and the parse is reached
        d = tmp_path / "garbled"
        txn = CommitTransaction(d, "starling")
        txn.write_file("meta.json", b"{not json")
        txn.commit()
        with pytest.raises(IndexLoadError, match="unreadable meta.json"):
            load_starling(d)

    def test_truncated_disk_bin(self, starling_index, tmp_path):
        from repro.storage import index_files_dir

        d = tmp_path / "trunc"
        save_starling(starling_index, d)
        disk = index_files_dir(d) / "disk.bin"
        payload = disk.read_bytes()
        disk.write_bytes(payload[: len(payload) // 2])
        with pytest.raises(IndexLoadError, match="truncated or corrupt"):
            load_starling(d)

    def test_missing_required_file(self, starling_index, tmp_path):
        from repro.storage import index_files_dir

        d = tmp_path / "missing"
        save_starling(starling_index, d)
        (index_files_dir(d) / "layout.npz").unlink()
        with pytest.raises(IndexLoadError, match="layout.npz"):
            load_starling(d)
