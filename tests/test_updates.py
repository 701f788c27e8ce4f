"""Tests for the §7 data-update extension (dynamic index + bitset + merge)."""

import numpy as np
import pytest

from repro.core import (
    GraphConfig,
    StarlingConfig,
    UpdatableSegment,
    build_starling,
)
from repro.core import updates
from repro.core.updates import DynamicIndex
from repro.vectors import deep_like, get_metric


@pytest.fixture()
def segment():
    ds = deep_like(400, 8, seed=101)
    cfg = StarlingConfig(graph=GraphConfig(max_degree=12, build_ef=24))
    index = build_starling(ds, cfg)
    return UpdatableSegment(index, ds, lambda d: build_starling(d, cfg)), ds


class TestDynamicIndex:
    def test_add_and_search(self, rng):
        m = get_metric("l2")
        idx = DynamicIndex(4, np.float32, m)
        vecs = rng.normal(size=(10, 4)).astype(np.float32)
        idx.add(vecs)
        assert len(idx) == 10
        ids, dists, computed = idx.search(vecs[3], 1)
        assert ids[0] == 3
        assert computed == 10

    def test_empty_search(self):
        idx = DynamicIndex(4, np.float32, get_metric("l2"))
        ids, dists, computed = idx.search(np.zeros(4, dtype=np.float32), 5)
        assert ids.size == 0
        assert computed == 0

    def test_dim_check(self):
        idx = DynamicIndex(4, np.float32, get_metric("l2"))
        with pytest.raises(ValueError, match="dim"):
            idx.add(np.zeros((2, 5), dtype=np.float32))

    def test_memory_grows(self, rng):
        idx = DynamicIndex(4, np.float32, get_metric("l2"))
        idx.add(rng.normal(size=(5, 4)).astype(np.float32))
        before = idx.memory_bytes
        idx.add(rng.normal(size=(5, 4)).astype(np.float32))
        assert idx.memory_bytes == 2 * before


class TestInsert:
    def test_inserted_vector_is_findable(self, segment, rng):
        seg, ds = segment
        new = ds.vectors[7].astype(np.float32) + 0.001
        ids = seg.insert(new)
        r = seg.search(new, k=3)
        assert ids[0] in r.ids

    def test_ids_are_fresh_and_sequential(self, segment, rng):
        seg, ds = segment
        a = seg.insert(rng.normal(size=(2, ds.dim)).astype(np.float32))
        b = seg.insert(rng.normal(size=(1, ds.dim)).astype(np.float32))
        assert a.tolist() == [ds.size, ds.size + 1]
        assert b.tolist() == [ds.size + 2]
        assert seg.pending_inserts == 3

    def test_live_count(self, segment, rng):
        seg, ds = segment
        seg.insert(rng.normal(size=(3, ds.dim)).astype(np.float32))
        assert seg.num_live == ds.size + 3


class TestInputHardening:
    """Typed errors instead of silent coercion (satellite of the lifecycle PR)."""

    def test_wrong_dim_rejected(self, segment, rng):
        seg, ds = segment
        with pytest.raises(updates.InvalidVectorError, match="dim"):
            seg.insert(rng.normal(size=(2, ds.dim + 1)).astype(np.float32))

    def test_cross_kind_dtype_rejected(self, segment, rng):
        seg, ds = segment
        with pytest.raises(updates.InvalidVectorError, match="dtype"):
            seg.insert((rng.normal(size=(2, ds.dim)) * 100).astype(np.int32))

    def test_same_kind_dtype_cast_allowed(self, segment, rng):
        seg, ds = segment
        ids = seg.insert(rng.normal(size=(2, ds.dim)))  # float64 -> float32
        assert ids.size == 2

    def test_non_contiguous_view_rejected(self, segment, rng):
        seg, ds = segment
        wide = rng.normal(size=(3, ds.dim * 2)).astype(np.float32)
        with pytest.raises(updates.InvalidVectorError, match="contiguous"):
            seg.insert(wide[:, ::2])

    def test_empty_insert_rejected(self, segment, rng):
        seg, ds = segment
        with pytest.raises(updates.InvalidVectorError, match="empty"):
            seg.insert(np.empty((0, ds.dim), dtype=np.float32))

    def test_three_dim_payload_rejected(self, segment, rng):
        seg, ds = segment
        with pytest.raises(updates.InvalidVectorError):
            seg.insert(rng.normal(size=(2, 2, ds.dim)).astype(np.float32))

    def test_float_ids_rejected(self, segment):
        seg, _ = segment
        with pytest.raises(updates.InvalidVectorError, match="integers"):
            seg.delete([1.5])

    def test_nested_ids_rejected(self, segment):
        seg, _ = segment
        with pytest.raises(updates.InvalidVectorError, match="1-D"):
            seg.delete([[1, 2], [3, 4]])

    def test_error_types_are_value_errors(self):
        assert issubclass(updates.InvalidVectorError, updates.UpdateError)
        assert issubclass(updates.UnknownIdError, updates.UpdateError)
        assert issubclass(updates.UpdateError, ValueError)


class TestDelete:
    def test_deleted_vector_disappears_from_results(self, segment):
        seg, ds = segment
        q = ds.queries[0]
        r1 = seg.search(q, k=5)
        victim = int(r1.ids[0])
        assert seg.delete([victim]) == 1
        r2 = seg.search(q, k=5)
        assert victim not in r2.ids

    def test_delete_unknown_id_raises(self, segment):
        seg, _ = segment
        with pytest.raises(updates.UnknownIdError) as exc:
            seg.delete([10**6])
        assert 10**6 in exc.value.ids

    def test_delete_unknown_id_ignored_when_lenient(self, segment):
        seg, _ = segment
        assert seg.delete([10**6], strict=False) == 0

    def test_double_delete_counted_once(self, segment):
        seg, _ = segment
        assert seg.delete([3]) == 1
        assert seg.delete([3]) == 0
        assert seg.num_deleted == 1

    def test_delete_dynamic_insert(self, segment, rng):
        seg, ds = segment
        new_ids = seg.insert(rng.normal(size=(1, ds.dim)).astype(np.float32))
        assert seg.delete(new_ids) == 1
        r = seg.search(ds.queries[0], k=10)
        assert new_ids[0] not in r.ids


class TestSearchSemantics:
    def test_results_merge_static_and_dynamic(self, segment, rng):
        seg, ds = segment
        q = ds.queries[1].astype(np.float32)
        near = q + rng.normal(0, 1e-3, size=ds.dim).astype(np.float32)
        new_id = seg.insert(near)[0]
        r = seg.search(q, k=5)
        assert r.ids[0] == new_id  # planted nearest wins
        assert (np.diff(r.dists) >= -1e-9).all()

    def test_stats_account_dynamic_compute(self, segment, rng):
        seg, ds = segment
        seg.insert(rng.normal(size=(50, ds.dim)).astype(np.float32))
        r = seg.search(ds.queries[0], k=5)
        assert r.stats.exact_distances > 50  # static + dynamic scans


class TestRangeSearch:
    def test_static_results_filtered_by_bitset(self, segment):
        seg, ds = segment
        radius = ds.default_radius
        before = seg.search(ds.queries[0], k=3)
        victim = int(before.ids[0])
        seg.delete([victim])
        r = seg.range_search(ds.queries[0], radius)
        assert victim not in r.ids
        assert (r.dists <= radius).all()

    def test_dynamic_inserts_appear_in_range(self, segment, rng):
        seg, ds = segment
        q = ds.queries[1].astype(np.float32)
        planted = q + rng.normal(0, 1e-3, size=ds.dim).astype(np.float32)
        new_id = seg.insert(planted)[0]
        r = seg.range_search(q, ds.default_radius)
        assert new_id in r.ids

    def test_results_sorted(self, segment):
        seg, ds = segment
        r = seg.range_search(ds.queries[2], ds.default_radius)
        assert (np.diff(r.dists) >= -1e-9).all()

    def test_matches_ground_truth_subset(self, segment):
        seg, ds = segment
        from repro.vectors import range_search as brute

        radius = ds.default_radius
        truth = brute(ds.vectors, ds.queries, radius, ds.metric)
        fresh = UpdatableSegment(
            seg.static_index, ds, rebuild=lambda d: seg.static_index
        ) if seg.pending_inserts or seg.num_deleted else seg
        r = fresh.range_search(ds.queries[3], radius)
        base_hits = {vid for vid in r.ids.tolist() if vid < ds.size}
        assert base_hits <= set(truth[3].tolist())


class TestMerge:
    def test_merge_preserves_live_set(self, segment, rng):
        seg, ds = segment
        q = ds.queries[2].astype(np.float32)
        near = q + rng.normal(0, 1e-3, size=ds.dim).astype(np.float32)
        new_id = seg.insert(near)[0]
        before = seg.search(q, k=5)
        seg.merge()
        assert seg.merges == 1
        assert seg.pending_inserts == 0
        assert seg.num_deleted == 0
        after = seg.search(q, k=5)
        assert after.ids[0] == new_id
        assert set(after.ids.tolist()) == set(before.ids.tolist())

    def test_merge_drops_deleted_forever(self, segment):
        seg, ds = segment
        r = seg.search(ds.queries[0], k=3)
        victim = int(r.ids[0])
        seg.delete([victim])
        live_before = seg.num_live
        seg.merge()
        assert seg.num_live == live_before
        r2 = seg.search(ds.queries[0], k=10)
        assert victim not in r2.ids

    def test_merge_rebuilds_static_index(self, segment, rng):
        seg, ds = segment
        old_static = seg.static_index
        seg.insert(rng.normal(size=(5, ds.dim)).astype(np.float32))
        seg.merge()
        assert seg.static_index is not old_static
        assert seg.static_index.num_vectors == ds.size + 5

