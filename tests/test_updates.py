"""Tests for the §7 data-update scheme on ``SegmentLifecycle``: the memtable
is the dynamic index, tombstones are the deletion bitset, seal + compaction
is the merge-and-rebuild."""

import shutil

import numpy as np
import pytest

from repro.core import (
    GraphConfig,
    InvalidVectorError,
    LifecycleSpec,
    SegmentLifecycle,
    StarlingConfig,
    UnknownIdError,
    UpdateError,
    build_starling,
)
from repro.vectors import deep_like

CFG = StarlingConfig(graph=GraphConfig(max_degree=12, build_ef=24))
#: one size tier, merged two at a time: ``maybe_compact`` folds every
#: sealed segment into one rebuilt index
SPEC = LifecycleSpec(merge_fanout=2, tier_growth=1000.0)


def rebuild(dataset):
    return build_starling(dataset, CFG)


def _merge(lc) -> None:
    """Fold the memtable and every sealed segment into one rebuilt index."""
    lc.seal()
    lc.maybe_compact()
    assert lc.num_segments == 1


@pytest.fixture(scope="module")
def sealed_base(tmp_path_factory):
    """400 rows sealed as two segments (global ids 0..399), no memtable."""
    ds = deep_like(400, 8, seed=101)
    root = tmp_path_factory.mktemp("updates") / "lc"
    lc = SegmentLifecycle.create(root, rebuild, dim=ds.dim, spec=SPEC)
    for lo in (0, 200):
        lc.insert(ds.vectors[lo:lo + 200])
        lc.seal()
    lc.close()
    return root, ds


@pytest.fixture()
def segment(sealed_base, tmp_path):
    root, ds = sealed_base
    shutil.copytree(root, tmp_path / "lc")
    lc = SegmentLifecycle.open(tmp_path / "lc", rebuild, spec=SPEC)
    yield lc, ds
    lc.close()


@pytest.fixture()
def memtable(tmp_path):
    """A fresh dim-4 lifecycle: every row lives in the memtable."""
    lc = SegmentLifecycle.create(tmp_path / "mem", rebuild, dim=4)
    yield lc
    lc.close()


class TestDynamicIndex:
    """The memtable: an exact in-memory scan of the unsealed rows."""

    def test_add_and_search(self, memtable, rng):
        vecs = rng.normal(size=(10, 4)).astype(np.float32)
        memtable.insert(vecs)
        assert memtable.pending_rows == 10
        r = memtable.search(vecs[3], 1)
        assert r.ids[0] == 3
        assert r.stats.exact_distances == 10

    def test_empty_search(self, memtable):
        r = memtable.search(np.zeros(4, dtype=np.float32), 5)
        assert r.ids.size == 0
        assert r.stats.exact_distances == 0

    def test_dim_check(self, memtable):
        with pytest.raises(ValueError, match="dim"):
            memtable.insert(np.zeros((2, 5), dtype=np.float32))

    def test_memory_grows(self, memtable, rng):
        memtable.insert(rng.normal(size=(5, 4)).astype(np.float32))
        before = memtable.pending_rows
        memtable.insert(rng.normal(size=(5, 4)).astype(np.float32))
        assert memtable.pending_rows == 2 * before


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
        assert seg.pending_rows == 3

    def test_live_count(self, segment, rng):
        seg, ds = segment
        seg.insert(rng.normal(size=(3, ds.dim)).astype(np.float32))
        assert seg.num_live == ds.size + 3


class TestInputHardening:
    """Typed errors instead of silent coercion."""

    def test_wrong_dim_rejected(self, segment, rng):
        seg, ds = segment
        with pytest.raises(InvalidVectorError, match="dim"):
            seg.insert(rng.normal(size=(2, ds.dim + 1)).astype(np.float32))

    def test_cross_kind_dtype_rejected(self, segment, rng):
        seg, ds = segment
        with pytest.raises(InvalidVectorError, match="dtype"):
            seg.insert((rng.normal(size=(2, ds.dim)) * 100).astype(np.int32))

    def test_same_kind_dtype_cast_allowed(self, segment, rng):
        seg, ds = segment
        ids = seg.insert(rng.normal(size=(2, ds.dim)))  # float64 -> float32
        assert ids.size == 2

    def test_non_contiguous_view_rejected(self, segment, rng):
        seg, ds = segment
        wide = rng.normal(size=(3, ds.dim * 2)).astype(np.float32)
        with pytest.raises(InvalidVectorError, match="contiguous"):
            seg.insert(wide[:, ::2])

    def test_empty_insert_rejected(self, segment, rng):
        seg, ds = segment
        with pytest.raises(InvalidVectorError, match="empty"):
            seg.insert(np.empty((0, ds.dim), dtype=np.float32))

    def test_three_dim_payload_rejected(self, segment, rng):
        seg, ds = segment
        with pytest.raises(InvalidVectorError):
            seg.insert(rng.normal(size=(2, 2, ds.dim)).astype(np.float32))

    def test_float_ids_rejected(self, segment):
        seg, _ = segment
        with pytest.raises(InvalidVectorError, match="integers"):
            seg.delete([1.5])

    def test_nested_ids_rejected(self, segment):
        seg, _ = segment
        with pytest.raises(InvalidVectorError, match="1-D"):
            seg.delete([[1, 2], [3, 4]])

    def test_error_types_are_value_errors(self):
        assert issubclass(InvalidVectorError, UpdateError)
        assert issubclass(UnknownIdError, UpdateError)
        assert issubclass(UpdateError, ValueError)


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
        with pytest.raises(UnknownIdError) as exc:
            seg.delete([10**6])
        assert 10**6 in exc.value.ids

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
        assert r.stats.exact_distances > 50  # sealed + memtable scans


class TestMerge:
    """Seal + compaction: the merge-and-rebuild."""

    def test_merge_preserves_live_set(self, segment, rng):
        seg, ds = segment
        q = ds.queries[2].astype(np.float32)
        near = q + rng.normal(0, 1e-3, size=ds.dim).astype(np.float32)
        new_id = seg.insert(near)[0]
        seg.insert(rng.normal(size=(1, ds.dim)).astype(np.float32))
        before = seg.search(q, k=5)
        _merge(seg)
        assert seg.pending_rows == 0
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
        _merge(seg)
        assert seg.num_live == live_before
        assert seg.num_deleted == 0
        assert victim not in seg._sealed[0].ids
        r2 = seg.search(ds.queries[0], k=10)
        assert victim not in r2.ids

    def test_merge_rebuilds_static_index(self, segment, rng):
        seg, ds = segment
        old = [s.index for s in seg._sealed]
        seg.insert(rng.normal(size=(5, ds.dim)).astype(np.float32))
        _merge(seg)
        assert all(seg._sealed[0].index is not index for index in old)
        assert seg._sealed[0].index.num_vectors == ds.size + 5
