"""Extra engine behaviours: entry-point counts, SPANN schedules, DiskANN
block cache, navigation search_ef."""

import numpy as np

from repro.core import DiskANNConfig, build_diskann
from repro.engine import BlockSearchEngine
from repro.graphs import build_navigation_graph


class TestEntryPointCount:
    def test_more_entry_points_seed_more_candidates(self, starling_index,
                                                    small_dataset):
        q = small_dataset.queries[0]
        one = BlockSearchEngine(
            starling_index.disk_graph, starling_index.pq,
            starling_index.metric, starling_index.entry_provider,
            num_entry_points=1,
        )
        many = BlockSearchEngine(
            starling_index.disk_graph, starling_index.pq,
            starling_index.metric, starling_index.entry_provider,
            num_entry_points=8,
        )
        r1 = one.search(q, 10, 64)
        r8 = many.search(q, 10, 64)
        # Both produce full results; seeding differs but quality holds.
        assert len(r1) == len(r8) == 10


class TestNavigationSearchEf:
    def test_larger_ef_costs_more_compute(self, small_dataset):
        small = build_navigation_graph(
            small_dataset.vectors, small_dataset.metric,
            sample_ratio=0.2, search_ef=4, seed=2,
        )
        large = build_navigation_graph(
            small_dataset.vectors, small_dataset.metric,
            sample_ratio=0.2, search_ef=64, seed=2,
        )
        q = small_dataset.queries[0].astype(np.float32)
        assert large.entry_walk(q, 1)[1] >= small.entry_walk(q, 1)[1]


class TestSPANNSchedules:
    def test_sequential_stats_schedule(self, spann_index, small_dataset):
        """SPANN's sequential posting reads flow into the latency model."""
        r = spann_index.search(small_dataset.queries[0], 10)
        assert r.stats.sequential_blocks  # postings were streamed
        assert r.stats.io_time_us(spann_index.disk_spec) > 0
        assert r.stats.compute_time_us(
            spann_index.compute_spec, spann_index.dim, 1
        ) > 0


class TestDiskANNBlockCache:
    def test_diskann_with_block_cache(self, small_dataset, graph_config):
        idx = build_diskann(
            small_dataset,
            DiskANNConfig(graph=graph_config, block_cache_blocks=128),
        )
        assert idx.memory.block_cache_bytes == 128 * 4096
        q = small_dataset.queries[0]
        first = idx.search(q, 10, 64)
        second = idx.search(q, 10, 64)
        assert second.stats.num_ios <= first.stats.num_ios
        assert np.array_equal(first.ids, second.ids)


class TestCoordinatorLatencyFields:
    def test_range_latencies_populated(self, small_dataset, graph_config):
        from repro.core import (
            SegmentCoordinator,
            StarlingConfig,
            build_starling,
            split_dataset,
        )

        parts, offsets = split_dataset(small_dataset, 2)
        cfg = StarlingConfig(graph=graph_config)
        coordinator = SegmentCoordinator(
            [build_starling(p, cfg) for p in parts], offsets
        )
        r = coordinator.range_search(
            small_dataset.queries[0], small_dataset.default_radius
        )
        assert len(r.per_segment_latency_us) == 2
        assert r.serial_latency_us >= r.parallel_latency_us > 0
