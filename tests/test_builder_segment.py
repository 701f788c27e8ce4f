"""End-to-end tests for the segment builders and index facades."""

import pytest

from repro.core import (
    DiskANNConfig,
    SegmentBudget,
    StarlingConfig,
    build_diskann,
    build_starling,
)
from repro.vectors import deep_like


class TestStarlingBuild:
    def test_timings_populated(self, starling_index):
        t = starling_index.timings
        assert t.disk_graph_s > 0
        assert t.shuffle_s > 0
        assert t.memory_graph_s > 0
        assert t.pq_s > 0
        assert t.hot_cache_s == 0  # Starling has no hot cache
        assert t.disk_write_s > 0
        assert t.total_s == pytest.approx(
            t.disk_graph_s + t.shuffle_s + t.memory_graph_s + t.pq_s
            + t.disk_write_s
        )

    def test_memory_footprint_decomposition(self, starling_index):
        m = starling_index.memory
        assert m.graph_bytes > 0  # C_graph
        assert m.mapping_bytes == starling_index.num_vectors * 4  # C_mapping
        assert m.pq_bytes > 0  # C_PQ
        assert m.cache_bytes == 0
        assert m.total_bytes == (
            m.graph_bytes + m.mapping_bytes + m.pq_bytes
        )

    def test_layout_or_recorded(self, starling_index):
        assert 0.0 < starling_index.layout_or <= 1.0

    def test_disk_bytes_match_format(self, starling_index):
        fmt = starling_index.disk_graph.fmt
        expected_blocks = fmt.num_blocks(starling_index.num_vectors)
        assert starling_index.disk_bytes == expected_blocks * fmt.block_bytes

    def test_budget_report(self, starling_index, small_dataset):
        budget = SegmentBudget.for_data_bytes(small_dataset.vectors.nbytes)
        report = starling_index.check_budget(budget)
        assert report.disk_ok  # index must fit 2.5x data on disk
        assert report.within_budget == (report.memory_ok and report.disk_ok)

    def test_shuffle_none_gives_id_layout(self, small_dataset, graph_config):
        idx = build_starling(
            small_dataset, StarlingConfig(graph=graph_config, shuffle="none")
        )
        eps = idx.disk_graph.fmt.vertices_per_block
        assert idx.disk_graph.vertices_in_block(0).tolist() == list(range(eps))

    def test_file_backed_build(self, small_dataset, graph_config, tmp_path):
        idx = build_starling(
            small_dataset, StarlingConfig(graph=graph_config),
            path=tmp_path / "seg.bin",
        )
        r = idx.search(small_dataset.queries[0], 10, 32)
        assert len(r) == 10
        assert (tmp_path / "seg.bin").stat().st_size == idx.disk_bytes
        idx.disk_graph.device.close()

    @pytest.mark.parametrize("shuffle", ["bnp", "gp2", "kmeans"])
    def test_alternative_shufflers(self, small_dataset, graph_config, shuffle):
        idx = build_starling(
            small_dataset,
            StarlingConfig(graph=graph_config, shuffle=shuffle),
        )
        assert idx.layout_or > 0.0

    def test_without_navigation_graph(self, small_dataset, graph_config):
        idx = build_starling(
            small_dataset,
            StarlingConfig(graph=graph_config, use_navigation_graph=False),
        )
        r = idx.search(small_dataset.queries[0], 10, 48)
        assert len(r) == 10
        assert idx.memory.graph_bytes <= 16  # fixed entry point only


class TestDiskANNBuild:
    def test_timings(self, diskann_index):
        t = diskann_index.timings
        assert t.disk_graph_s > 0
        assert t.hot_cache_s > 0  # T_hot
        assert t.shuffle_s == 0
        assert t.memory_graph_s == 0

    def test_memory_footprint(self, diskann_index):
        m = diskann_index.memory
        assert m.cache_bytes > 0  # C_hot
        assert m.mapping_bytes == 0  # ID-contiguous: no map (§6.4)
        assert m.graph_bytes == 0

    def test_id_contiguous_layout(self, diskann_index):
        eps = diskann_index.disk_graph.fmt.vertices_per_block
        for b in range(3):
            members = diskann_index.disk_graph.vertices_in_block(b)
            assert members.tolist() == list(range(b * eps, (b + 1) * eps))

    def test_no_cache_mode(self, small_dataset, graph_config):
        idx = build_diskann(
            small_dataset,
            DiskANNConfig(graph=graph_config, cache_ratio=0.0),
        )
        assert idx.cache is None
        assert idx.memory.cache_bytes == 0


class TestFacadeAPI:
    def test_search_shape(self, starling_index, small_dataset):
        r = starling_index.search(small_dataset.queries[0], k=5)
        assert len(r.ids) == 5
        assert r.dists.shape == (5,)

    def test_latency_positive(self, starling_index, small_dataset):
        r = starling_index.search(small_dataset.queries[0], 10, 32)
        assert starling_index.latency_us(r) > 0

    def test_num_vectors_dim(self, starling_index, small_dataset):
        assert starling_index.num_vectors == small_dataset.size
        assert starling_index.dim == small_dataset.dim

    def test_hnsw_starling_uses_upper_layers(self, graph_config):
        ds = deep_like(400, 6, seed=71)
        from repro.core import GraphConfig
        from repro.graphs.navigation import HNSWUpperLayers

        idx = build_starling(
            ds,
            StarlingConfig(
                graph=GraphConfig(algorithm="hnsw", max_degree=16,
                                  build_ef=32)
            ),
        )
        assert isinstance(idx.entry_provider, HNSWUpperLayers)
        r = idx.search(ds.queries[0], 10, 48)
        assert len(r) == 10
        # Counter honesty: the descent's distances are part of the bill.
        _, descent = idx.entry_provider.entry_walk(
            ds.queries[0].astype("float32"), 4
        )
        assert descent > 0
        assert r.stats.exact_distances == r.stats.vertices_loaded + descent

    def test_nsg_starling(self):
        ds = deep_like(300, 5, seed=73)
        from repro.core import GraphConfig

        idx = build_starling(
            ds,
            StarlingConfig(
                graph=GraphConfig(algorithm="nsg", max_degree=12, build_ef=24)
            ),
        )
        r = idx.search(ds.queries[0], 10, 32)
        assert len(r) == 10
