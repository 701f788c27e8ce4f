"""Tests for the counted-read helper shared by the engines."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine import (
    CachedDiskGraph,
    LocalityBlockCache,
    PinnedBlockCache,
    QueryStats,
    RetryPolicy,
)
from repro.engine.io_util import counted_read_blocks_of
from repro.storage import VertexFormat, build_disk_graph
from repro.storage.faults import FaultSpec, ensure_fault_injection

from .conftest import example_budget


@pytest.fixture
def dg(rng):
    n = 12
    vectors = rng.integers(0, 256, size=(n, 4)).astype(np.uint8)
    lists = [np.asarray([(i + 1) % n], dtype=np.uint32) for i in range(n)]
    fmt = VertexFormat(dim=4, dtype=np.uint8, max_degree=4, block_bytes=72)
    layout = [list(range(i, i + 3)) for i in range(0, n, 3)]
    return build_disk_graph(vectors, lists, layout, fmt)


class TestCountedReads:
    def test_plain_graph_charges_all_blocks(self, dg):
        stats = QueryStats()
        blocks = counted_read_blocks_of(dg, [0, 4, 8], stats)
        assert len(blocks) == 3
        assert stats.round_trip_blocks == [3]
        assert stats.block_cache_hits == 0

    def test_same_block_targets_charge_once(self, dg):
        stats = QueryStats()
        blocks = counted_read_blocks_of(dg, [0, 1, 2], stats)  # one block
        assert len(blocks) == 1
        assert stats.round_trip_blocks == [1]

    def test_cached_graph_charges_only_misses(self, dg):
        cached = CachedDiskGraph(dg, capacity_blocks=8)
        warm = QueryStats()
        counted_read_blocks_of(cached, [0], warm)
        assert warm.round_trip_blocks == [1]

        stats = QueryStats()
        blocks = counted_read_blocks_of(cached, [0, 4], stats)
        assert len(blocks) == 2
        assert stats.round_trip_blocks == [1]  # only block of 4 fetched
        assert stats.block_cache_hits == 1

    def test_all_hits_record_no_round_trip(self, dg):
        cached = CachedDiskGraph(dg, capacity_blocks=8)
        counted_read_blocks_of(cached, [0, 4], QueryStats())
        stats = QueryStats()
        counted_read_blocks_of(cached, [0, 4], stats)
        assert stats.round_trip_blocks == []
        assert stats.block_cache_hits == 2
        assert stats.num_ios == 0


# -- one charging rule across every strategy, with and without a policy --------

STRATEGIES = {
    "plain": lambda dg: dg,
    "lru": lambda dg: CachedDiskGraph(dg, 6),
    "hot": lambda dg: PinnedBlockCache(dg, (0, 3, 7)),
    "locality": lambda dg: LocalityBlockCache(dg, 6),
    "locality+prefetch": lambda dg: LocalityBlockCache(
        dg, 8, prefetch_blocks=2
    ),
}


def _wide_graph(seed: int):
    """60 vertices in 20 blocks of 3, six random out-edges each."""
    rng = np.random.default_rng(seed)
    n = 60
    vectors = rng.integers(0, 256, size=(n, 4)).astype(np.uint8)
    lists = [
        rng.choice(n, size=6, replace=False).astype(np.uint32)
        for _ in range(n)
    ]
    fmt = VertexFormat(dim=4, dtype=np.uint8, max_degree=6, block_bytes=96)
    layout = [list(range(i, i + 3)) for i in range(0, n, 3)]
    return build_disk_graph(vectors, lists, layout, fmt)


def _wanted(dg, frontier) -> list[int]:
    return list(dict.fromkeys(dg.block_of(v) for v in frontier))


frontiers = st.lists(
    st.lists(st.integers(0, 59), min_size=1, max_size=6),
    min_size=1, max_size=12,
)


class TestOneChargingRule:
    @pytest.mark.parametrize("armed", [False, True], ids=["strict", "policy"])
    @pytest.mark.parametrize("strategy", list(STRATEGIES))
    @settings(max_examples=example_budget(25), deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(reads=frontiers, seed=st.integers(0, 2**16))
    def test_every_read_charges_what_left_the_device(
        self, strategy, armed, reads, seed
    ):
        """One ``counted_read_blocks_of`` call, whatever the strategy and
        whether a policy retries over an injector armed with transient
        errors, bad blocks and hedged spikes: ``num_ios`` is the device's
        ``blocks_read`` delta, ``prefetch_blocks`` the cache's
        ``prefetch_issued`` delta, and the blocks returned are the readable
        requested ones in first-occurrence order."""
        base = _wide_graph(seed)
        dg = STRATEGIES[strategy](base)
        policy = unreadable = None
        if armed:
            injector = ensure_fault_injection(base, FaultSpec(
                seed=seed, transient_error_rate=0.3, bad_block_rate=0.1,
                latency_spike_rate=0.3,
            ))
            # transient errors always clear within this budget (p ≈ 0.3^40)
            policy = RetryPolicy(max_retries=40, backoff_us=1.0,
                                 hedge_after_us=1.0)
            unreadable = injector.bad_blocks - set(
                getattr(dg, "pinned_block_ids", ())
            )
        device = base.device
        for frontier in reads:
            stats = QueryStats()
            before = device.counters.blocks_read
            issued = getattr(dg, "prefetch_issued", 0)
            blocks = counted_read_blocks_of(dg, frontier, stats, policy)
            assert stats.num_ios == device.counters.blocks_read - before
            assert stats.prefetch_blocks == (
                getattr(dg, "prefetch_issued", 0) - issued
            )
            readable = [
                b for b in _wanted(base, frontier)
                if not unreadable or b not in unreadable
            ]
            assert [b.block_id for b in blocks] == readable
            assert stats.fault.blocks_abandoned == (
                len(_wanted(base, frontier)) - len(readable)
            )
            for block in blocks:
                assert block.vertex_ids.tolist() == (
                    base.vertices_in_block(block.block_id).tolist()
                )
