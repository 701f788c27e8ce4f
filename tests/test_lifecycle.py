"""Tests for the WAL-backed segment lifecycle (core/lifecycle.py)."""

import shutil
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import (
    GraphConfig,
    InvalidVectorError,
    LifecycleError,
    LifecycleSpec,
    NavigationConfig,
    PQConfig,
    SegmentCoordinator,
    SegmentLifecycle,
    StarlingConfig,
    UnknownIdError,
    build_starling,
    plan_compaction,
)
from repro.core import coordinator as coordinator_module
from repro.engine.serve import Overloaded, SearchService, ServeSpec
from repro.storage.faults import FaultSpec, ensure_fault_injection
from repro.storage.persist import load_starling
from repro.storage.wal import replay_wal
from repro.vectors import get_metric, knn

from .oracles import oracle_lifecycle_search

DIM = 8

CFG = StarlingConfig(
    graph=GraphConfig(max_degree=8, build_ef=16, seed=1),
    navigation=NavigationConfig(
        sample_ratio=0.3, max_degree=8, build_ef=16, search_ef=16
    ),
    pq=PQConfig(num_subspaces=4, num_centroids=16),
)


def rebuild(ds):
    return build_starling(ds, CFG)


@pytest.fixture()
def rng():
    return np.random.default_rng(11)


def _rows(rng, n):
    return rng.normal(size=(n, DIM)).astype(np.float32)


def _make(tmp_path, **spec_kwargs):
    spec = LifecycleSpec(**spec_kwargs) if spec_kwargs else None
    return SegmentLifecycle.create(
        tmp_path / "lc", rebuild, dim=DIM, spec=spec
    )


def _mirror_topk(mirror: dict, query, k):
    """Exact reference answer over the live-id mirror."""
    metric = get_metric("l2")
    ids = np.asarray(sorted(mirror), dtype=np.int64)
    data = np.stack([mirror[int(i)] for i in ids])
    dists = metric.distances(query, data)
    order = np.argsort(dists, kind="stable")[:k]
    return set(ids[order].tolist())


class TestPlanCompaction:
    SPEC = LifecycleSpec(merge_fanout=3, tier_growth=4.0)

    def test_empty_until_tier_fills(self):
        assert plan_compaction([], self.SPEC) == []
        assert plan_compaction([("a", 10), ("b", 10)], self.SPEC) == []

    def test_picks_smallest_in_lowest_full_tier(self):
        segs = [("a", 10), ("b", 300), ("c", 12), ("d", 9), ("e", 11)]
        # tier of 9..12 = floor(log4) = 1; four members -> three smallest
        assert plan_compaction(segs, self.SPEC) == ["d", "a", "e"]

    def test_deterministic_and_order_insensitive(self):
        segs = [("a", 10), ("b", 12), ("c", 11), ("d", 500), ("e", 480)]
        first = plan_compaction(segs, self.SPEC)
        assert first == plan_compaction(list(reversed(segs)), self.SPEC)
        assert first == plan_compaction(segs, self.SPEC)

    def test_name_breaks_count_ties(self):
        segs = [("b", 10), ("a", 10), ("c", 10), ("d", 10)]
        assert plan_compaction(segs, self.SPEC) == ["a", "b", "c"]

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            LifecycleSpec(merge_fanout=1)
        with pytest.raises(ValueError):
            LifecycleSpec(tier_growth=1.0)
        with pytest.raises(ValueError):
            LifecycleSpec(seal_threshold=0)


class TestMemtablePath:
    def test_insert_assigns_sequential_global_ids(self, tmp_path, rng):
        lc = _make(tmp_path)
        a = lc.insert(_rows(rng, 3))
        b = lc.insert(_rows(rng, 2))
        assert a.tolist() == [0, 1, 2]
        assert b.tolist() == [3, 4]
        assert lc.num_live == 5 and lc.pending_rows == 5

    def test_memtable_search_is_exact(self, tmp_path, rng):
        lc = _make(tmp_path)
        rows = _rows(rng, 10)
        lc.insert(rows)
        mirror = {i: rows[i] for i in range(10)}
        q = _rows(rng, 1)[0]
        res = lc.search(q, k=4)
        assert set(res.ids.tolist()) == _mirror_topk(mirror, q, 4)

    def test_insert_is_durable_before_ack(self, tmp_path, rng):
        lc = _make(tmp_path)
        rows = _rows(rng, 4)
        lc.insert(rows)
        lc.delete([1])
        lc.close()  # no seal: everything lives in the WAL

        lc2 = SegmentLifecycle.open(tmp_path / "lc", rebuild)
        assert lc2.num_live == 3 and lc2.pending_rows == 4
        assert lc2.live_ids() == {0, 2, 3}
        q = rows[2]
        assert int(lc2.search(q, k=1).ids[0]) == 2

    def test_unknown_delete_raises_known_noop(self, tmp_path, rng):
        lc = _make(tmp_path)
        lc.insert(_rows(rng, 3))
        with pytest.raises(UnknownIdError):
            lc.delete([99])
        assert lc.delete([1]) == 1
        assert lc.delete([1]) == 0  # tombstoned: no-op, not unknown

    def test_input_validation_delegates(self, tmp_path, rng):
        lc = _make(tmp_path)
        with pytest.raises(InvalidVectorError):
            lc.insert(rng.normal(size=(2, DIM + 1)).astype(np.float32))
        with pytest.raises(InvalidVectorError):
            lc.delete([1.5])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_insert_rejected_before_ack(self, tmp_path, rng, bad):
        """A NaN or ±inf row must not be acknowledged: once in the WAL it
        would fail every later seal's graph build, and every reopen would
        replay it back into the memtable."""
        lc = _make(tmp_path, seal_threshold=32)
        wal = tmp_path / "lc" / "wal.log"
        before = wal.read_bytes()
        rows = _rows(rng, 3)
        rows[1, 4] = bad
        with pytest.raises(InvalidVectorError, match="finite"):
            lc.insert(rows)
        assert wal.read_bytes() == before
        assert replay_wal(wal).records == []
        assert lc.num_live == 0 and lc.pending_rows == 0
        assert lc.insert(_rows(rng, 40)).tolist() == list(range(40))
        assert lc.num_segments == 1 and lc.pending_rows == 0
        lc.close()


class TestSealAndReopen:
    def test_seal_moves_rows_to_immutable_segment(self, tmp_path, rng):
        lc = _make(tmp_path)
        rows = _rows(rng, 20)
        lc.insert(rows)
        assert lc.seal()
        assert lc.pending_rows == 0 and lc.num_segments == 1
        assert lc.segment_counts() == [("seg-000001", 20)]
        # WAL was truncated: the records are folded into the segment.
        assert replay_wal(tmp_path / "lc" / "wal.log").records == []
        q = rows[7]
        assert int(lc.search(q, k=1).ids[0]) == 7

    def test_auto_seal_at_threshold(self, tmp_path, rng):
        lc = _make(tmp_path, seal_threshold=16)
        lc.insert(_rows(rng, 20))
        assert lc.num_segments == 1 and lc.pending_rows == 0
        lc.insert(_rows(rng, 4))
        assert lc.num_segments == 1 and lc.pending_rows == 4

    def test_seal_empty_is_noop(self, tmp_path):
        lc = _make(tmp_path)
        assert not lc.seal()

    def test_one_row_seal_is_deferred(self, tmp_path, rng):
        """The graph builder needs two rows: a lone acknowledged row stays
        in the WAL-backed memtable — searched, replayed on reopen — rather
        than raising out of the insert that made it durable."""
        lc = _make(tmp_path, seal_threshold=1)
        row = _rows(rng, 1)
        assert lc.insert(row).tolist() == [0]  # the auto-seal declines
        assert not lc.seal()                   # and so does an explicit one
        assert lc.pending_rows == 1 and lc.num_segments == 0
        assert lc.search(row[0], k=1).ids.tolist() == [0]
        lc.close()

        lc2 = SegmentLifecycle.open(
            tmp_path / "lc", rebuild, spec=LifecycleSpec(seal_threshold=1)
        )
        assert lc2.pending_rows == 1 and lc2.live_ids() == {0}
        assert lc2.search(row[0], k=1).ids.tolist() == [0]
        assert lc2.insert(_rows(rng, 1)).tolist() == [1]  # two rows: seals
        assert lc2.pending_rows == 0 and lc2.num_segments == 1
        assert lc2.live_ids() == {0, 1}
        lc2.close()

    def test_reopen_restores_sealed_and_memtable(self, tmp_path, rng):
        lc = _make(tmp_path)
        rows = _rows(rng, 20)
        lc.insert(rows)
        lc.seal()
        tail = _rows(rng, 3)
        lc.insert(tail)
        lc.delete([5])
        lc.close()

        lc2 = SegmentLifecycle.open(tmp_path / "lc", rebuild)
        assert lc2.num_segments == 1
        assert lc2.pending_rows == 3
        assert lc2.num_live == 22
        assert 5 not in lc2.live_ids()
        q = tail[0]
        assert int(lc2.search(q, k=1).ids[0]) == 20

    def test_writes_after_sealed_reopen_survive_next_reopen(self, tmp_path,
                                                             rng):
        """A seal truncates the WAL; the reopened log must not restart its
        LSNs below the catalog watermark, or replay skips the new records."""
        lc = _make(tmp_path)
        lc.insert(_rows(rng, 4))
        lc.seal()
        lc.close()

        lc2 = SegmentLifecycle.open(tmp_path / "lc", rebuild)
        assert lc2.insert(_rows(rng, 3)).tolist() == [4, 5, 6]
        assert lc2.delete([0]) == 1
        lc2.close()

        lc3 = SegmentLifecycle.open(tmp_path / "lc", rebuild)
        assert lc3.live_ids() == {1, 2, 3, 4, 5, 6}
        lc3.close()

    def test_closed_lifecycle_rejects_writes(self, tmp_path, rng):
        lc = _make(tmp_path)
        rows = _rows(rng, 4)
        lc.insert(rows)
        lc.delete([1])
        before = lc.state_fingerprint()
        lc.close()
        lc.close()  # idempotent

        for write in (
            lambda: lc.insert(_rows(rng, 2)),
            lambda: lc.delete([0]),
            lc.seal,
            lc.compact_once,
        ):
            with pytest.raises(LifecycleError, match="not open"):
                write()
        assert lc.state_fingerprint() == before
        # reads need no WAL
        assert int(lc.search(rows[2], k=1).ids[0]) == 2

        lc2 = SegmentLifecycle.open(tmp_path / "lc", rebuild)
        assert lc2.state_fingerprint() == before
        assert lc2.num_live == 3
        lc2.close()

    def test_tombstones_mask_across_generations(self, tmp_path, rng):
        lc = _make(tmp_path)
        rows = _rows(rng, 20)
        lc.insert(rows)
        lc.seal()
        q = rows[3]
        assert int(lc.search(q, k=1).ids[0]) == 3
        lc.delete([3])  # sealed vector, masked not rewritten
        res = lc.search(q, k=5)
        assert 3 not in res.ids.tolist()
        assert len(res) == 5

    def test_load_starling_rejects_lifecycle_root(self, tmp_path, rng):
        from repro.storage.persist import IndexLoadError

        lc = _make(tmp_path)
        lc.insert(_rows(rng, 16))
        lc.seal()
        with pytest.raises(IndexLoadError, match="lifecycle"):
            load_starling(tmp_path / "lc")
        # The sealed segment itself is an ordinary index directory.
        seg = load_starling(tmp_path / "lc" / "segments" / "seg-000001")
        assert seg.num_vectors == 16


class TestCompaction:
    def _filled(self, tmp_path, rng, *, seals=3, rows_per_seal=16):
        lc = _make(tmp_path, merge_fanout=3, tier_growth=100.0)
        mirror = {}
        for _ in range(seals):
            rows = _rows(rng, rows_per_seal)
            ids = lc.insert(rows)
            mirror.update(zip(ids.tolist(), rows))
            lc.seal()
        return lc, mirror

    def test_compaction_merges_and_drops_tombstones(self, tmp_path, rng):
        lc, mirror = self._filled(tmp_path, rng)
        victims = [0, 17, 33]
        lc.delete(victims)
        for vid in victims:
            del mirror[vid]
        assert lc.compaction_candidates() == [
            "seg-000001", "seg-000002", "seg-000003"
        ]
        assert lc.compact_once()
        assert lc.num_segments == 1
        assert lc.num_deleted == 0  # tombstones physically dropped
        assert lc.num_live == len(mirror) == 45
        q = _rows(rng, 1)[0]
        got = set(lc.search(q, k=5, candidate_size=64).ids.tolist())
        want = _mirror_topk(mirror, q, 5)
        assert len(got & want) >= 4  # ANN: allow one boundary swap

    def test_compacted_ids_survive_reopen(self, tmp_path, rng):
        lc, mirror = self._filled(tmp_path, rng)
        lc.delete([1, 2])
        del mirror[1], mirror[2]
        lc.compact_once()
        lc.close()
        lc2 = SegmentLifecycle.open(tmp_path / "lc", rebuild)
        assert lc2.live_ids() == set(mirror)
        assert lc2.state_fingerprint() == lc.state_fingerprint()

    def test_merge_prunes_unreferenced_segment_dirs(self, tmp_path, rng):
        lc, _ = self._filled(tmp_path, rng)
        lc.compact_once()
        seg_root = tmp_path / "lc" / "segments"
        names = sorted(p.name for p in seg_root.iterdir() if p.is_dir())
        # The rollback catalog still references the merged inputs, so they
        # survive the first merge; a later seal+merge cycle retires them.
        assert "seg-000004" in names

    def test_maybe_compact_runs_to_quiescence(self, tmp_path, rng):
        lc, mirror = self._filled(tmp_path, rng, seals=3)
        ran = lc.maybe_compact()
        assert ran == 1
        assert lc.compaction_candidates() == []
        assert lc.live_ids() == set(mirror)

    def test_one_survivor_merge_is_deferred(self, tmp_path, rng):
        """A merge whose tombstones leave exactly one live row commits
        nothing (no one-row segment can be built); once that row goes too,
        the merge retires the victims."""
        lc, mirror = self._filled(tmp_path, rng, rows_per_seal=2)
        lc.delete([0, 1, 2, 3, 4])
        before = lc.state_fingerprint()
        assert lc.compaction_candidates()
        assert not lc.compact_once()
        assert lc.maybe_compact() == 0
        assert lc.state_fingerprint() == before
        assert lc.live_ids() == {5} and lc.compactions == 0
        assert lc.search(mirror[5], k=3).ids.tolist() == [5]
        lc.delete([5])
        assert lc.compact_once()
        assert lc.num_segments == 0 and lc.num_deleted == 0

    def test_new_ids_continue_after_compaction(self, tmp_path, rng):
        lc, mirror = self._filled(tmp_path, rng)
        lc.compact_once()
        ids = lc.insert(_rows(rng, 2))
        assert ids.tolist() == [48, 49]


class TestReplayIdempotence:
    def test_crash_between_seal_commit_and_truncate(self, tmp_path, rng):
        """The classic double-replay: catalog committed, WAL never truncated."""
        lc = _make(tmp_path)
        rows = _rows(rng, 16)
        lc.insert(rows)
        wal_path = tmp_path / "lc" / "wal.log"
        pre_truncate = wal_path.read_bytes()
        lc.seal()
        lc.close()
        # Put the already-applied records back: exactly what a crash between
        # the catalog commit and the WAL truncation leaves behind.
        wal_path.write_bytes(pre_truncate)

        lc2 = SegmentLifecycle.open(tmp_path / "lc", rebuild)
        assert lc2.num_live == 16
        assert lc2.pending_rows == 0  # applied records skipped, not doubled
        lc3 = SegmentLifecycle.open(tmp_path / "lc", rebuild)
        assert lc2.state_fingerprint() == lc3.state_fingerprint()

    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        ops=st.lists(
            st.one_of(
                st.tuples(st.just("insert"), st.integers(1, 4)),
                st.tuples(st.just("delete"), st.integers(0, 30)),
            ),
            min_size=1,
            max_size=12,
        )
    )
    def test_replaying_any_log_twice_is_identical(self, tmp_path, ops):
        """Property: open() is a pure function of the on-disk state."""
        rng = np.random.default_rng(5)
        root = tmp_path / f"lc-{abs(hash(tuple(ops))) % 10**8:08d}"
        lc = SegmentLifecycle.create(root, rebuild, dim=DIM)
        live = []
        for op, arg in ops:
            if op == "insert":
                live.extend(lc.insert(_rows(rng, arg)).tolist())
            elif live:
                vid = live[arg % len(live)]
                lc.delete([vid])
                live.remove(vid)
        lc.close()
        first = SegmentLifecycle.open(root, rebuild)
        second = SegmentLifecycle.open(root, rebuild)
        assert first.state_fingerprint() == second.state_fingerprint()
        assert first.live_ids() == set(live)


class TestSearchDuringCompaction:
    def test_queries_serve_throughout_a_merge(self, tmp_path, rng):
        lc = _make(tmp_path, merge_fanout=3, tier_growth=100.0)
        inserted = set()
        for _ in range(3):
            ids = lc.insert(_rows(rng, 16))
            inserted.update(ids.tolist())
            lc.seal()
        queries = _rows(rng, 4)
        stop = threading.Event()
        failures: list[BaseException] = []
        served = [0]

        def hammer():
            while not stop.is_set():
                for q in queries:
                    try:
                        res = lc.search(q, k=5)
                    except BaseException as exc:  # noqa: BLE001
                        failures.append(exc)
                        stop.set()
                        return
                    # Whole-generation snapshots only: every id must come
                    # from the committed id space, and k must be filled.
                    if len(res) != 5 or not set(res.ids.tolist()) <= inserted:
                        failures.append(AssertionError(str(res.ids)))
                        stop.set()
                        return
                    served[0] += 1

        thread = threading.Thread(target=hammer)
        thread.start()
        try:
            assert lc.compact_once()
        finally:
            stop.set()
            thread.join()
        assert not failures
        assert served[0] > 0
        assert lc.num_segments == 1


class TestCoordinatorReplaceRace:
    def test_replace_under_live_searches(self, rng):
        ds_rows = _rows(rng, 64)
        from repro.vectors.dataset import VectorDataset

        def dataset(offset):
            return VectorDataset(
                name=f"part{offset}",
                vectors=ds_rows,
                queries=np.zeros((1, DIM), np.float32),
                metric="l2",
            )

        a = rebuild(dataset(0))
        b = rebuild(dataset(1))
        coord = SegmentCoordinator([a, b], [0, 64])
        queries = _rows(rng, 4)
        stop = threading.Event()
        failures: list[BaseException] = []

        def hammer():
            while not stop.is_set():
                for q in queries:
                    try:
                        res = coord.search(q, k=5)
                    except BaseException as exc:  # noqa: BLE001
                        failures.append(exc)
                        stop.set()
                        return
                    if len(res) != 5:
                        failures.append(AssertionError("short result"))
                        stop.set()
                        return

        thread = threading.Thread(target=hammer)
        thread.start()
        try:
            for _ in range(25):
                coord.replace_segment(1, b, offset=64)
                coord.quarantine_segment(0)
                coord.reinstate(0)
        finally:
            stop.set()
            thread.join()
        assert not failures

    def test_replace_swaps_lists_not_elements(self, rng):
        from repro.vectors.dataset import VectorDataset

        ds = VectorDataset(
            name="x", vectors=_rows(rng, 32),
            queries=np.zeros((1, DIM), np.float32), metric="l2",
        )
        index = rebuild(ds)
        coord = SegmentCoordinator([index, index], [0, 32])
        before_segments = coord.segments
        before_offsets = coord.id_offsets
        coord.replace_segment(0, index, offset=5)
        assert coord.segments is not before_segments
        assert coord.id_offsets is not before_offsets
        assert before_offsets[0] == 0 and coord.id_offsets[0] == 5


class TestIngestAdmission:
    class _SlowTarget:
        def __init__(self):
            self.release = threading.Event()
            self.entered = threading.Event()

        def insert(self, vectors):
            self.entered.set()
            assert self.release.wait(5.0)
            return np.arange(len(vectors), dtype=np.int64)

        def delete(self, ids):
            return len(ids)

    def _service(self, rng, **spec):
        from repro.vectors.dataset import VectorDataset

        ds = VectorDataset(
            name="serve", vectors=_rows(rng, 48),
            queries=np.zeros((1, DIM), np.float32), metric="l2",
        )
        return SearchService(rebuild(ds), ServeSpec(**spec))

    def test_spec_validates_depth(self):
        with pytest.raises(ValueError):
            ServeSpec(ingest_queue_depth=0)
        spec = ServeSpec(ingest_queue_depth=2)
        assert spec.to_dict()["ingest_queue_depth"] == 2
        assert ServeSpec.from_dict(spec.to_dict()) == spec

    def test_requires_attached_target(self, rng):
        service = self._service(rng)
        with pytest.raises(RuntimeError, match="attach_ingest"):
            service.ingest(np.zeros((1, DIM), np.float32))
        with pytest.raises(TypeError):
            service.attach_ingest(object())

    def test_ingest_and_remove_pass_through(self, tmp_path, rng):
        service = self._service(rng)
        lc = _make(tmp_path)
        service.attach_ingest(lc)
        ids = service.ingest(_rows(rng, 3))
        assert ids.tolist() == [0, 1, 2]
        assert service.remove([1]) == 1
        assert service.ingest_accepted == 2
        assert service.ingest_rejected == 0

    def test_overload_rejects_typed(self, rng):
        service = self._service(rng, ingest_queue_depth=1)
        target = self._SlowTarget()
        service.attach_ingest(target)
        rows = np.zeros((1, DIM), np.float32)
        results = {}

        def blocked():
            results["first"] = service.ingest(rows)

        thread = threading.Thread(target=blocked)
        thread.start()
        assert target.entered.wait(5.0)
        rejected = service.ingest(rows)  # gate full: typed rejection
        target.release.set()
        thread.join()
        assert isinstance(rejected, Overloaded)
        assert rejected.queue_depth == 1
        assert results["first"].tolist() == [0]
        assert service.ingest_accepted == 1
        assert service.ingest_rejected == 1


# -- one fan-out ---------------------------------------------------------------

FAN_DIM = 48
FAN_K = 10
FAN_GAMMA = 12
#: sealed segment sizes in seal order; the last is smaller than the
#: over-fetch ``k + min(tombstones, Γ)`` once more than Γ rows are deleted
FAN_SEALS = (150, 90, 40, 16)
FAN_KINDS = {
    "l2-f32": ("float32", "l2"),
    "l2-u8": ("uint8", "l2"),
    "ip": ("float32", "ip"),
}
#: tombstone counts: none, fewer than Γ, more than Γ
FAN_TOMBS = (0, 5, 30)
FAN_CACHED = StarlingConfig(
    graph=CFG.graph, navigation=CFG.navigation, pq=CFG.pq,
    block_cache_blocks=64,
)


def _fan_rows(kind, rng, n):
    if FAN_KINDS[kind][0] == "uint8":
        return rng.integers(0, 256, size=(n, FAN_DIM)).astype(np.uint8)
    return rng.normal(size=(n, FAN_DIM)).astype(np.float32)


def _fan_queries(rows, rng, n=9):
    data = rows.astype(np.float32)
    noise = rng.normal(0.0, 0.5 * float(np.std(data)), size=(n, FAN_DIM))
    return (data[rng.integers(0, len(data), size=n)] + noise).astype(
        np.float32
    )


def _fan_build(root, kind, rng, seals, rebuild_fn=rebuild):
    dtype, metric = FAN_KINDS[kind]
    lc = SegmentLifecycle.create(
        root, rebuild_fn, dim=FAN_DIM, dtype=dtype, metric=metric
    )
    rows = []
    for size in seals:
        batch = _fan_rows(kind, rng, size)
        rows.append(batch)
        lc.insert(batch)
        assert lc.seal()
    return lc, rows


def _fan_mutate(lc, kind, rng, *, memtable, tombstones):
    if memtable:
        lc.insert(_fan_rows(kind, rng, 20))
    live = sorted(lc.live_ids())
    count = min(tombstones, len(live) // 2)
    if count:
        lc.delete(rng.choice(live, size=count, replace=False))


def _same_answer(got, want):
    assert np.array_equal(got.ids, want.ids)
    assert np.array_equal(got.dists, want.dists)
    assert got.ids.dtype == want.ids.dtype
    assert got.dists.dtype == want.dists.dtype
    assert got.stats.__dict__ == want.stats.__dict__


@pytest.fixture(scope="module")
def fan_out_dirs(tmp_path_factory):
    """Per kind: a lifecycle directory after 0, 1, ... 4 seals, plus the
    sealed rows (their queries come from them)."""
    root = tmp_path_factory.mktemp("fan-out")
    out = {}
    for seed, kind in enumerate(FAN_KINDS):
        rng = np.random.default_rng(60 + seed)
        dtype, metric = FAN_KINDS[kind]
        lc = SegmentLifecycle.create(
            root / f"{kind}-build", rebuild, dim=FAN_DIM, dtype=dtype,
            metric=metric,
        )
        dirs, rows = [], []
        for sealed in range(len(FAN_SEALS) + 1):
            copy = root / f"{kind}-{sealed}"
            shutil.copytree(lc.root, copy)
            dirs.append(copy)
            if sealed < len(FAN_SEALS):
                batch = _fan_rows(kind, rng, FAN_SEALS[sealed])
                rows.append(batch)
                lc.insert(batch)
                assert lc.seal()
        lc.close()
        out[kind] = (dirs, np.concatenate(rows))
    return out


class TestOneFanOut:
    """``SegmentLifecycle.search`` / ``search_batch`` — one coordinator
    fan-out over the sealed segments, the memtable's exact scan, one mask
    and one merge — equal the per-segment loop they replaced
    (``tests/oracles.py::oracle_lifecycle_search``) row for row: ids,
    distances and the whole ``QueryStats``."""

    @pytest.mark.parametrize("kind", list(FAN_KINDS))
    @pytest.mark.parametrize("sealed", range(len(FAN_SEALS) + 1))
    def test_matches_per_segment_loop(self, fan_out_dirs, tmp_path,
                                      monkeypatch, kind, sealed):
        calls = []
        union = coordinator_module.search_segments

        def spy(engines, *args, **kwargs):
            calls.append(len(engines))
            return union(engines, *args, **kwargs)

        monkeypatch.setattr(coordinator_module, "search_segments", spy)
        dirs, rows = fan_out_dirs[kind]
        rng = np.random.default_rng(sealed)
        queries = _fan_queries(rows, rng)
        for memtable in (False, True):
            root = tmp_path / f"mem{int(memtable)}"
            shutil.copytree(dirs[sealed], root)
            lc = SegmentLifecycle.open(root, rebuild)
            assert lc.num_segments == sealed
            if memtable:
                # copies of sealed rows tie with them: the merge's id order
                # decides between the two
                twins = rows[: sum(FAN_SEALS[:sealed])][:10]
                lc.insert(np.concatenate([twins, _fan_rows(kind, rng, 10)]))
            deleted = 0
            for tombstones in FAN_TOMBS:
                live = sorted(lc.live_ids())
                count = min(tombstones, len(live) // 2) - deleted
                if count > 0:
                    lc.delete(rng.choice(live, size=count, replace=False))
                    deleted += count
                want = [
                    oracle_lifecycle_search(lc, q, FAN_K, FAN_GAMMA)
                    for q in queries
                ]
                calls.clear()
                batch = lc.search_batch(queries, FAN_K, FAN_GAMMA)
                # plain segments: one wave per batch, every segment in it
                assert calls == ([sealed] if sealed else [])
                singles = [lc.search(q, FAN_K, FAN_GAMMA) for q in queries]
                for got_batch, got_single, expected in zip(
                    batch, singles, want
                ):
                    _same_answer(got_batch, expected)
                    _same_answer(got_single, expected)
                    assert not got_batch.degraded
                    assert set(got_batch.ids.tolist()) <= lc.live_ids()
            lc.close()

    def test_operating_point_has_recall_below_one(self, fan_out_dirs,
                                                  tmp_path):
        """At Γ = FAN_GAMMA the fan-out misses true neighbours, so a wrong
        frontier or merge could show in the matrix above."""
        dirs, rows = fan_out_dirs["l2-f32"]
        shutil.copytree(dirs[-1], tmp_path / "lc")
        lc = SegmentLifecycle.open(tmp_path / "lc", rebuild)
        queries = _fan_queries(rows, np.random.default_rng(3), n=32)
        truth, _ = knn(rows, queries, FAN_K, get_metric("l2"))
        got = lc.search_batch(queries, FAN_K, FAN_GAMMA)
        recall = np.mean([
            len(set(r.ids.tolist()) & set(t.tolist())) / FAN_K
            for r, t in zip(got, truth)
        ])
        assert 0.5 < recall < 1.0
        lc.close()

    def test_cached_segments_join_the_wave(self, tmp_path, monkeypatch):
        """A block cache no longer keeps a segment out of the union: the
        cached sealed segments answer a batch as one wave, each reading
        through its own cache row by row.  Three handles on one directory —
        fresh caches each — agree with the oracle: one query at a time on
        everything, cache hits included; a whole batch on everything but
        the cache's charges, which follow the wave's read order."""

        def cached(ds):
            return build_starling(ds, FAN_CACHED)

        rng = np.random.default_rng(8)
        lc, rows = _fan_build(
            tmp_path / "lc", "l2-f32", rng, FAN_SEALS[:3], cached
        )
        _fan_mutate(lc, "l2-f32", rng, memtable=True, tombstones=30)
        lc.close()
        queries = _fan_queries(np.concatenate(rows), rng)
        waves = []
        real = coordinator_module.search_segments

        def spy(engines, *args, **kwargs):
            waves.append(len(engines))
            return real(engines, *args, **kwargs)

        monkeypatch.setattr(coordinator_module, "search_segments", spy)
        ref, batch_lc, single_lc = (
            SegmentLifecycle.open(tmp_path / "lc", cached) for _ in range(3)
        )
        assert ref._sealed[0].index.config.block_cache_blocks == 64
        want = [
            oracle_lifecycle_search(ref, q, FAN_K, FAN_GAMMA) for q in queries
        ]
        batch = batch_lc.search_batch(queries, FAN_K, FAN_GAMMA)
        assert waves == [len(batch_lc._sealed)] and waves[0] > 1
        singles = [single_lc.search(q, FAN_K, FAN_GAMMA) for q in queries]
        assert any(r.stats.block_cache_hits for r in want)
        charges = ("round_trip_blocks", "block_cache_hits", "prefetch_blocks")
        for got_batch, got_single, expected in zip(batch, singles, want):
            _same_answer(got_single, expected)
            assert np.array_equal(got_batch.ids, expected.ids)
            assert np.array_equal(got_batch.dists, expected.dists)
            assert {
                f: v for f, v in got_batch.stats.__dict__.items()
                if f not in charges
            } == {
                f: v for f, v in expected.stats.__dict__.items()
                if f not in charges
            }
        for handle in (ref, batch_lc, single_lc):
            handle.close()

    def test_faulting_segment_degrades_the_answer(self, tmp_path):
        """A sealed segment whose reads fail drops out of the answer with
        ``degraded=True``; the other segments' rows are intact."""
        rng = np.random.default_rng(9)
        lc, rows = _fan_build(tmp_path / "lc", "l2-f32", rng, FAN_SEALS[:3])
        _fan_mutate(lc, "l2-f32", rng, memtable=True, tombstones=5)
        queries = _fan_queries(np.concatenate(rows), rng)
        healthy = lc.search_batch(queries, FAN_K, FAN_GAMMA)
        assert not any(r.degraded for r in healthy)

        bad = lc._sealed[1]
        ensure_fault_injection(
            bad.index.disk_graph, FaultSpec(seed=1, bad_block_rate=1.0)
        )
        # the reference: the same state without the failing segment
        ref = SegmentLifecycle.open(tmp_path / "lc", rebuild)
        ref._sealed = [seg for seg in ref._sealed if seg.name != bad.name]
        for _ in range(2):  # no quarantine: every batch tries it again
            batch = lc.search_batch(queries, FAN_K, FAN_GAMMA)
            for q, got in zip(queries, batch):
                assert got.degraded
                assert not set(got.ids.tolist()) & set(bad.ids.tolist())
                _same_answer(
                    got, oracle_lifecycle_search(ref, q, FAN_K, FAN_GAMMA)
                )
        single = lc.search(queries[0], FAN_K, FAN_GAMMA)
        assert single.degraded
        assert lc._coordinator.total_errors == [0, 3, 0]
        ref.close()
        lc.close()
