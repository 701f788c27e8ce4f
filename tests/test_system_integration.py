"""Cross-subsystem integration: persistence + updates + coordination + cache.

These tests combine features the way a deployment would, catching interface
drift the per-module suites cannot.
"""

import numpy as np
import pytest

from repro.core import (
    GraphConfig,
    LifecycleSpec,
    SegmentCoordinator,
    SegmentLifecycle,
    StarlingConfig,
    build_starling,
    split_dataset,
)
from repro.metrics import mean_recall_at_k
from repro.storage import load_starling, save_starling
from repro.vectors import deep_like, knn


@pytest.fixture(scope="module")
def cfg():
    return StarlingConfig(graph=GraphConfig(max_degree=12, build_ef=24))


class TestPersistThenCoordinate:
    def test_reloaded_segments_coordinate(self, cfg, tmp_path_factory):
        """Build → save → load each segment, then serve through the
        coordinator; recall must match the never-persisted pipeline."""
        tmp = tmp_path_factory.mktemp("coord")
        ds = deep_like(400, 8, seed=141)
        parts, offsets = split_dataset(ds, 2)
        originals = [build_starling(p, cfg) for p in parts]
        for i, seg in enumerate(originals):
            save_starling(seg, tmp / f"seg{i}")
        reloaded = [load_starling(tmp / f"seg{i}") for i in range(2)]

        truth, _ = knn(ds.vectors, ds.queries, 10, ds.metric)
        c_orig = SegmentCoordinator(originals, offsets)
        c_load = SegmentCoordinator(reloaded, offsets)
        for q in ds.queries[:4]:
            a = c_orig.search(q, 10, 48)
            b = c_load.search(q, 10, 48)
            assert np.array_equal(a.ids, b.ids)
        results = [c_load.search(q, 10, 48) for q in ds.queries]
        assert mean_recall_at_k([r.ids for r in results], truth, 10) > 0.8


class TestUpdatesThenPersist:
    def test_merged_segment_roundtrips(self, cfg, tmp_path):
        """Insert + delete + seal + compact, close, reopen: the merged
        segment is an ordinary persisted index and the global ids survive."""
        ds = deep_like(300, 6, seed=143)
        rng = np.random.default_rng(0)
        lc = SegmentLifecycle.create(
            tmp_path / "lc", lambda d: build_starling(d, cfg), dim=ds.dim,
            spec=LifecycleSpec(merge_fanout=2, tier_growth=1000.0),
        )
        lc.insert(ds.vectors)
        lc.seal()
        fresh = rng.normal(size=(10, ds.dim)).astype(np.float32)
        new_ids = lc.insert(fresh)
        lc.delete([0, 1])
        lc.seal()
        assert lc.maybe_compact() == 1
        lc.close()

        lc = SegmentLifecycle.open(
            tmp_path / "lc", lambda d: build_starling(d, cfg)
        )
        [(name, count)] = lc.segment_counts()
        assert count == lc.num_live == 300 + 10 - 2
        loaded = load_starling(tmp_path / "lc" / "segments" / name)
        assert loaded.num_vectors == 300 + 10 - 2
        r = loaded.search(ds.queries[0], 10, 48)
        assert len(r) == 10
        # Persisted segments use *local* ids; the lifecycle's catalog owns
        # the global-id translation, so new_ids stay addressable:
        found = lc.search(fresh[0], 5)
        assert len(found) == 5
        assert found.ids[0] == new_ids[0]
        assert all(vid not in (0, 1) for vid in found.ids.tolist())
        assert new_ids.min() >= 300
        lc.close()


class TestCacheWithUpdates:
    def test_block_cached_segment_updates(self, tmp_path):
        cfg = StarlingConfig(
            graph=GraphConfig(max_degree=12, build_ef=24),
            block_cache_blocks=64,
        )
        ds = deep_like(300, 6, seed=145)
        lc = SegmentLifecycle.create(
            tmp_path / "lc", lambda d: build_starling(d, cfg), dim=ds.dim
        )
        lc.insert(ds.vectors)
        lc.seal()
        lc.insert(ds.queries[1:3])
        lc.delete([7])
        q = ds.queries[0]
        first = lc.search(q, 5)
        second = lc.search(q, 5)
        assert np.array_equal(first.ids, second.ids)
        assert second.stats.num_ios <= first.stats.num_ios
        assert second.stats.block_cache_hits > 0
        lc.close()


class TestCoordinatorOverMixedFrameworks:
    def test_heterogeneous_segments(self, cfg):
        """The coordinator only needs the search/latency protocol, so a
        Starling segment and a DiskANN segment can serve side by side
        (e.g. mid-migration)."""
        from repro.core import DiskANNConfig, build_diskann

        ds = deep_like(400, 6, seed=147)
        parts, offsets = split_dataset(ds, 2)
        segments = [
            build_starling(parts[0], cfg),
            build_diskann(
                parts[1],
                DiskANNConfig(graph=GraphConfig(max_degree=12, build_ef=24)),
            ),
        ]
        coordinator = SegmentCoordinator(segments, offsets)
        truth, _ = knn(ds.vectors, ds.queries, 10, ds.metric)
        results = [coordinator.search(q, 10, 48) for q in ds.queries]
        assert mean_recall_at_k([r.ids for r in results], truth, 10) > 0.75
