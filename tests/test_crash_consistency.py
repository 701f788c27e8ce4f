"""Crash-consistency property harness for atomic index persistence.

The invariant under test (the tentpole acceptance criterion): crash a save
at *every* injection point the commit protocol exposes, and a subsequent
load must return either the previous generation or the new one — verified
bit-identical via manifest digests — and never a hybrid, never an unhandled
traceback.

Two differently-seeded Starling indexes over the same dataset play "old"
and "new": their ``disk.bin`` payloads differ byte-for-byte (different
shuffle seeds), so which generation survived is decidable from raw bytes,
not just from search behaviour.

Environment hooks for the CI ``crash-smoke`` job:

- ``REPRO_CRASH_SEED``  — offsets the fault-schedule seeds (seed matrix).
- ``REPRO_CRASH_REPORT`` — write a JSON fsck/outcome report to this path.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import (
    LifecycleSpec,
    SegmentLifecycle,
    StarlingConfig,
    build_starling,
)
from repro.storage import (
    CrashInjector,
    IndexLoadError,
    SimulatedCrash,
    WriteFaultSpec,
    fsck,
    load_starling,
    read_manifest,
    save_starling,
)
from repro.storage.manifest import verify_generation

CRASH_SEED = int(os.environ.get("REPRO_CRASH_SEED", "0"))

#: recorded outcomes, written to REPRO_CRASH_REPORT at module teardown
_OUTCOMES: list[dict] = []


@pytest.fixture(scope="module", autouse=True)
def crash_report():
    yield
    path = os.environ.get("REPRO_CRASH_REPORT")
    if path:
        Path(path).write_text(json.dumps({
            "seed": CRASH_SEED,
            "cases": len(_OUTCOMES),
            "outcomes": _OUTCOMES,
        }, indent=2) + "\n")


@pytest.fixture(scope="module")
def index_b(small_dataset):
    """A second index over the same data, distinguishable byte-for-byte.

    A different *graph* seed changes the edges and hence every block of
    ``disk.bin`` — which generation survived a crash is then decidable from
    raw bytes, not just from search behaviour.
    """
    from repro.core import GraphConfig

    index = build_starling(
        small_dataset,
        StarlingConfig(
            graph=GraphConfig(max_degree=16, build_ef=32, seed=9), seed=7
        ),
    )
    return index


@pytest.fixture(scope="module")
def save_ops(starling_index, tmp_path_factory):
    """The commit protocol's operation sequence, recorded by a dry run."""
    recorder = CrashInjector()
    d = tmp_path_factory.mktemp("ops") / "idx"
    save_starling(starling_index, d, injector=recorder)
    return recorder.ops


def _payload_of(index) -> bytes:
    dg = index.disk_graph
    return b"".join(dg.device._fetch(b) for b in range(dg.num_blocks))


def _probe(index, queries):
    return [tuple(index.search(q, 5, 48).ids.tolist()) for q in queries]


def _assert_old_or_new(directory, idx_a, idx_b, old_digests, queries):
    """The core invariant: the directory holds exactly A or exactly B."""
    loaded = load_starling(directory)  # never a traceback
    manifest = read_manifest(directory)
    gen_dir = directory / manifest.directory
    assert not verify_generation(gen_dir, manifest), "committed gen corrupt"

    disk = (gen_dir / "disk.bin").read_bytes()
    payload_a, payload_b = _payload_of(idx_a), _payload_of(idx_b)
    assert disk in (payload_a, payload_b), "disk.bin is neither A nor B"
    if disk == payload_a:
        # bit-identical old generation: every digest unchanged
        cur = {n: e.crc32 for n, e in manifest.files.items()}
        assert cur == old_digests, "old generation mutated by a failed save"
        assert _probe(loaded, queries) == _probe(idx_a, queries)
        return "old"
    assert _probe(loaded, queries) == _probe(idx_b, queries)
    return "new"


def _crash_case(tmp_path, idx_a, idx_b, spec, queries):
    """Save A cleanly, crash a save of B per ``spec``, check the invariant."""
    d = tmp_path / "idx"
    save_starling(idx_a, d)
    old = {n: e.crc32 for n, e in read_manifest(d).files.items()}
    injector = CrashInjector(spec)
    crashed = False
    try:
        save_starling(idx_b, d, injector=injector)
    except SimulatedCrash:
        crashed = True
    outcome = _assert_old_or_new(d, idx_a, idx_b, old, queries)
    report = fsck(d)
    assert report.exit_code in (0, 1), report.to_dict()
    _assert_old_or_new(d, idx_a, idx_b, old, queries)
    _OUTCOMES.append({
        "mode": spec.mode, "crash_op": spec.crash_op,
        "crashed": crashed, "survivor": outcome, "fsck": report.status,
    })
    return outcome


class TestExhaustiveCrashSweep:
    """Kill the save at every op boundary; the invariant must hold at all."""

    def test_every_injection_point(self, tmp_path, starling_index, index_b,
                                   save_ops, small_dataset):
        queries = small_dataset.queries[:4]
        # the classifier relies on A and B being byte-distinguishable
        assert _payload_of(starling_index) != _payload_of(index_b)
        survivors = {}
        for op in range(len(save_ops)):
            case_dir = tmp_path / f"op{op:02d}"
            case_dir.mkdir()
            survivors[op] = _crash_case(
                case_dir, starling_index, index_b,
                WriteFaultSpec(crash_op=op, seed=CRASH_SEED), queries,
            )
        # sanity on the sweep itself: crashes before the pointer replace
        # keep the old generation, crashes after it serve the new one
        replace_op = save_ops.index("replace:MANIFEST.json")
        assert all(
            s == "old" for op, s in survivors.items() if op <= replace_op
        )
        assert survivors[len(save_ops) - 1] == "new"
        assert "new" in survivors.values() and "old" in survivors.values()

    def test_torn_write_at_every_file(self, tmp_path, starling_index, index_b,
                                      save_ops, small_dataset):
        queries = small_dataset.queries[:4]
        write_ops = [
            i for i, op in enumerate(save_ops) if op.startswith("write:")
        ]
        for op in write_ops:
            case_dir = tmp_path / f"torn{op:02d}"
            case_dir.mkdir()
            _crash_case(
                case_dir, starling_index, index_b,
                WriteFaultSpec(
                    crash_op=op, mode="torn", seed=CRASH_SEED + op
                ),
                queries,
            )


class TestLostDurability:
    """A skipped fsync surfaces as post-commit corruption; fsck rolls back."""

    def test_missed_fsync_detected_and_repaired(
        self, tmp_path, starling_index, index_b, save_ops, small_dataset
    ):
        queries = small_dataset.queries[:4]
        fsync_ops = [
            i for i, op in enumerate(save_ops) if op.startswith("fsync:")
        ]
        for op in fsync_ops:
            d = tmp_path / f"fs{op:02d}"
            save_starling(starling_index, d)
            injector = CrashInjector(
                WriteFaultSpec(crash_op=op, mode="lost_durability")
            )
            with pytest.raises(SimulatedCrash):
                save_starling(index_b, d, injector=injector)
            # the pointer committed but bytes were lost: the load must
            # REFUSE (typed error) rather than serve wrong neighbors
            with pytest.raises(IndexLoadError):
                load_starling(d)
            report = fsck(d)
            assert report.exit_code == 1, report.to_dict()
            loaded = load_starling(d)  # rolled back to the old generation
            assert _probe(loaded, queries) == _probe(starling_index, queries)
            _OUTCOMES.append({
                "mode": "lost_durability", "crash_op": op,
                "crashed": True, "survivor": "old", "fsck": report.status,
            })


class TestFirstSaveCrash:
    """With no previous generation there is nothing to fall back to — but
    the failure must stay typed and fsck's verdict honest."""

    def test_crash_during_first_save(self, tmp_path, starling_index,
                                     save_ops):
        for op in range(len(save_ops)):
            d = tmp_path / f"first{op:02d}"
            injector = CrashInjector(WriteFaultSpec(crash_op=op))
            with pytest.raises(SimulatedCrash):
                save_starling(starling_index, d, injector=injector)
            try:
                load_starling(d)
                loadable = True
            except IndexLoadError:
                loadable = False
            report = fsck(d)
            if loadable:
                assert report.exit_code in (0, 1)
            else:
                # either fsck adopts an orphaned-but-complete generation,
                # or it honestly reports there is nothing to recover
                if report.exit_code == 2:
                    continue
                load_starling(d)  # repaired: must load now


class TestCrashProperty:
    """Hypothesis drives (mode, op, seed) through the same invariant."""

    @settings(
        max_examples=25, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        op_choice=st.integers(min_value=0, max_value=10_000),
        mode=st.sampled_from(["crash", "torn"]),
        seed=st.integers(min_value=0, max_value=7),
    )
    def test_random_crash_point(self, tmp_path, starling_index, index_b,
                                save_ops, small_dataset, op_choice, mode,
                                seed):
        if mode == "torn":
            eligible = [
                i for i, op in enumerate(save_ops) if op.startswith("write:")
            ]
        else:
            eligible = list(range(len(save_ops)))
        op = eligible[op_choice % len(eligible)]
        case_dir = tmp_path / f"hyp-{mode}-{op}-{seed}"
        case_dir.mkdir(exist_ok=True)
        _crash_case(
            case_dir, starling_index, index_b,
            WriteFaultSpec(crash_op=op, mode=mode, seed=CRASH_SEED + seed),
            small_dataset.queries[:2],
        )


class TestAbortLeavesNoPartialFiles:
    """A non-crash failure mid-save must leave the destination untouched."""

    def test_failed_save_aborts_stage(self, tmp_path, starling_index,
                                      monkeypatch, small_dataset):
        d = tmp_path / "idx"
        save_starling(starling_index, d)
        before = sorted(p.name for p in d.iterdir())
        old = {n: e.crc32 for n, e in read_manifest(d).files.items()}

        from repro.storage import manifest as manifest_mod

        real_fsync = manifest_mod._fsync_file
        calls = {"n": 0}

        def flaky(path):
            calls["n"] += 1
            if calls["n"] == 3:
                raise OSError("disk full")
            real_fsync(path)

        monkeypatch.setattr(manifest_mod, "_fsync_file", flaky)
        with pytest.raises(OSError, match="disk full"):
            save_starling(starling_index, d)
        monkeypatch.undo()

        assert sorted(p.name for p in d.iterdir()) == before
        cur = {n: e.crc32 for n, e in read_manifest(d).files.items()}
        assert cur == old
        load_starling(d)

    def test_save_into_fresh_dir_failure_leaves_no_debris(
        self, tmp_path, starling_index, monkeypatch
    ):
        from repro.storage import manifest as manifest_mod

        def boom(path):
            raise OSError("disk full")

        monkeypatch.setattr(manifest_mod, "_fsync_file", boom)
        d = tmp_path / "idx"
        with pytest.raises(OSError):
            save_starling(starling_index, d)
        monkeypatch.undo()
        assert [p.name for p in d.iterdir()] == []


# -- segment lifecycle: WAL + seals + compaction under crashes ----------------
#
# The invariant is the streaming-ingest contract: after a crash at ANY
# announced lifecycle boundary, fsck + reopen must recover every write that
# was acknowledged (insert/delete returned) and may additionally surface the
# single in-flight operation — atomically, never a prefix of its rows — and
# the recovered state must be one consistent generation (verified digests,
# searchable, no duplicate ids).


_LC_DIM = 8
_LC_SPEC = LifecycleSpec(merge_fanout=2, tier_growth=100.0)


def _lc_cfg():
    from repro.core import GraphConfig, NavigationConfig, PQConfig

    return StarlingConfig(
        graph=GraphConfig(max_degree=8, build_ef=16, seed=1),
        navigation=NavigationConfig(
            sample_ratio=0.3, max_degree=8, build_ef=16, search_ef=16
        ),
        pq=PQConfig(num_subspaces=4, num_centroids=16),
    )


def _lc_rebuild(ds):
    return build_starling(ds, _lc_cfg())


def _lc_rows():
    rng = np.random.default_rng(101)
    return (
        rng.normal(size=(16, _LC_DIM)).astype(np.float32),
        rng.normal(size=(16, _LC_DIM)).astype(np.float32),
    )


def _run_lifecycle_script(root, injector=None):
    """The scripted ingest workload every sweep case replays.

    Touches each announced lifecycle boundary: WAL append + fsync (two
    inserts and a delete), two seals (segment save, catalog commit, WAL
    truncation, pruning), and one compaction (merge commit that drops the
    tombstones).  Returns ``(acked, pending, crashed)``: the live rows whose
    operations acknowledged before any crash, the one in-flight operation
    (or None when the crash hit a pure reorganization step), and whether the
    injector fired.
    """
    rows_a, rows_b = _lc_rows()
    doomed = [0, 17, 31]
    lc = SegmentLifecycle.open(
        root, _lc_rebuild, spec=_LC_SPEC, injector=injector
    )
    acked: dict[int, bytes] = {}
    pending = None
    crashed = False
    try:
        pending = ("insert", {i: rows_a[i].tobytes() for i in range(16)})
        lc.insert(rows_a)
        acked.update(pending[1])
        pending = None
        lc.seal()
        pending = ("insert", {16 + i: rows_b[i].tobytes() for i in range(16)})
        lc.insert(rows_b)
        acked.update(pending[1])
        pending = ("delete", doomed)
        lc.delete(doomed)
        for gid in doomed:
            acked.pop(gid)
        pending = None
        lc.seal()
        lc.compact_once()
    except SimulatedCrash:
        crashed = True
    finally:
        lc.close()
    return acked, pending, crashed


def _lc_live_vectors(lc) -> dict[int, bytes]:
    """``{global_id: row_bytes}`` over sealed segments + memtable − tombstones."""
    fp = lc.state_fingerprint()
    row_bytes = _LC_DIM * 4  # float32
    out: dict[int, bytes] = {}
    for _name, ids, raw in fp["segments"]:
        for i, gid in enumerate(ids):
            out[int(gid)] = raw[i * row_bytes:(i + 1) * row_bytes]
    for gid, raw in fp["memtable"]:
        out[int(gid)] = raw
    for gid in fp["tombstones"]:
        out.pop(int(gid), None)
    return out


def _lc_allowed(acked, pending):
    """Legal recovery outcomes: acked state, or acked + the in-flight op."""
    allowed = [dict(acked)]
    if pending is None:
        return allowed
    kind, payload = pending
    alt = dict(acked)
    if kind == "insert":
        alt.update(payload)
    else:
        for gid in payload:
            alt.pop(gid, None)
    allowed.append(alt)
    return allowed


def _lifecycle_case(case_dir, spec, *, expect_lost=False):
    """Crash the scripted workload per ``spec``; fsck; reopen; check."""
    root = case_dir / "lc"
    SegmentLifecycle.create(
        root, _lc_rebuild, dim=_LC_DIM, spec=_LC_SPEC
    ).close()
    acked, pending, crashed = _run_lifecycle_script(root, CrashInjector(spec))
    report = fsck(root)
    assert report.exit_code in (0, 1), report.to_dict()
    lc = SegmentLifecycle.open(root, _lc_rebuild, spec=_LC_SPEC)
    try:
        recovered = _lc_live_vectors(lc)
        probe = lc.search(np.zeros(_LC_DIM, dtype=np.float32), k=5)
        assert set(probe.ids.tolist()) <= set(recovered)
        if len(recovered) >= 5:
            assert len(probe.ids) == 5, "recovered lifecycle cannot fill k"
    finally:
        lc.close()
    allowed = _lc_allowed(acked, pending)
    assert any(recovered == state for state in allowed), (
        f"recovered state matches neither acked nor acked+in-flight "
        f"(op={spec.crash_op} mode={spec.mode}): recovered ids "
        f"{sorted(recovered)}, acked ids {sorted(acked)}"
    )
    survivor = "acked" if recovered == allowed[0] else "acked+inflight"
    if expect_lost:
        assert crashed, "lost-durability case must die before acking"
        assert survivor == "acked", "dropped unsynced bytes must not surface"
    _OUTCOMES.append({
        "mode": f"lifecycle-{spec.mode}", "crash_op": spec.crash_op,
        "crashed": crashed, "survivor": survivor, "fsck": report.status,
    })
    return survivor


@pytest.fixture(scope="module")
def lifecycle_ops(tmp_path_factory):
    """The scripted workload's full op sequence, recorded by a dry run."""
    root = tmp_path_factory.mktemp("lc-ops") / "lc"
    SegmentLifecycle.create(
        root, _lc_rebuild, dim=_LC_DIM, spec=_LC_SPEC
    ).close()
    recorder = CrashInjector()
    acked, pending, crashed = _run_lifecycle_script(root, recorder)
    assert not crashed and pending is None and len(acked) == 29
    return recorder.ops


class TestLifecycleCrashSweep:
    """Kill the ingest workload at every boundary it announces."""

    def test_script_announces_every_boundary(self, lifecycle_ops):
        ops = lifecycle_ops
        assert "write:wal" in ops and "fsync:wal" in ops
        assert "truncate:wal" in ops
        assert "write:tombstones.npz" in ops and "write:catalog.json" in ops
        assert "prune:segments" in ops
        # three segment saves (two seals + one merge) and three catalog
        # commits each run the full commit protocol
        assert ops.count("replace:MANIFEST.json") == 6

    def test_every_injection_point(self, tmp_path, lifecycle_ops):
        survivors = {}
        for op in range(len(lifecycle_ops)):
            case_dir = tmp_path / f"lc{op:03d}"
            case_dir.mkdir()
            survivors[op] = _lifecycle_case(
                case_dir, WriteFaultSpec(crash_op=op, seed=CRASH_SEED)
            )
        # sanity: the sweep exercised both outcomes (a crash right before a
        # WAL fsync keeps the in-flight rows off the acked state; a crash
        # right after leaves them recoverable)
        assert "acked" in survivors.values()
        assert "acked+inflight" in survivors.values()

    def test_torn_write_at_every_file(self, tmp_path, lifecycle_ops):
        write_ops = [
            i for i, op in enumerate(lifecycle_ops)
            if op.startswith("write:")
        ]
        for op in write_ops:
            case_dir = tmp_path / f"lctorn{op:03d}"
            case_dir.mkdir()
            _lifecycle_case(
                case_dir,
                WriteFaultSpec(crash_op=op, mode="torn", seed=CRASH_SEED + op),
            )


class TestLifecycleLostDurability:
    """A skipped fsync plus power loss must never surface unacked rows."""

    def test_skipped_wal_fsync_loses_only_unacked(self, tmp_path,
                                                  lifecycle_ops):
        wal_fsyncs = [
            i for i, op in enumerate(lifecycle_ops) if op == "fsync:wal"
        ]
        assert len(wal_fsyncs) == 3  # two inserts + one delete
        for op in wal_fsyncs:
            case_dir = tmp_path / f"lcfs{op:03d}"
            case_dir.mkdir()
            _lifecycle_case(
                case_dir,
                WriteFaultSpec(
                    crash_op=op, mode="lost_durability", seed=CRASH_SEED
                ),
                expect_lost=True,
            )

    def test_skipped_file_fsync_recovers_acked(self, tmp_path, lifecycle_ops):
        file_fsyncs = [
            i for i, op in enumerate(lifecycle_ops)
            if op.startswith("fsync:") and op != "fsync:wal"
        ]
        for op in file_fsyncs:
            case_dir = tmp_path / f"lcld{op:03d}"
            case_dir.mkdir()
            _lifecycle_case(
                case_dir,
                WriteFaultSpec(
                    crash_op=op, mode="lost_durability", seed=CRASH_SEED
                ),
                expect_lost=True,
            )


class TestLifecycleDebris:
    """Named debris scenarios: fsck must diagnose and repair each exactly."""

    def _crashed_root(self, tmp_path, ops, label, *, which=0, mode="crash"):
        op = [i for i, o in enumerate(ops) if o == label][which]
        root = tmp_path / "lc"
        SegmentLifecycle.create(
            root, _lc_rebuild, dim=_LC_DIM, spec=_LC_SPEC
        ).close()
        acked, pending, crashed = _run_lifecycle_script(
            root, CrashInjector(WriteFaultSpec(crash_op=op, seed=CRASH_SEED))
        )
        assert crashed
        return root, acked, pending

    def test_orphaned_wal_after_seal_commit(self, tmp_path, lifecycle_ops):
        """Crash between the seal's catalog commit and the WAL truncation:
        the log survives fully applied, and replay must not double-apply."""
        root, acked, _ = self._crashed_root(
            tmp_path, lifecycle_ops, "truncate:wal", which=0
        )
        report = fsck(root)
        assert report.exit_code == 1, report.to_dict()
        assert any("WAL fully applied" in p for p in report.problems)
        assert any("truncated fully-applied WAL" in a for a in report.actions)
        lc = SegmentLifecycle.open(root, _lc_rebuild, spec=_LC_SPEC)
        try:
            assert lc.pending_rows == 0  # nothing replayed twice
            assert _lc_live_vectors(lc) == acked
        finally:
            lc.close()
        assert fsck(root).exit_code == 0  # repair converged

    def test_crashed_merge_stage_dir_swept(self, tmp_path, lifecycle_ops):
        """Crash while staging the merge's catalog commit: a stage dir and a
        fully-saved but unreferenced merged segment are both debris."""
        last_stage = [
            i for i, o in enumerate(lifecycle_ops) if o == "fsync-dir:stage"
        ][-1]
        root = tmp_path / "lc"
        SegmentLifecycle.create(
            root, _lc_rebuild, dim=_LC_DIM, spec=_LC_SPEC
        ).close()
        acked, pending, crashed = _run_lifecycle_script(
            root,
            CrashInjector(WriteFaultSpec(crash_op=last_stage, seed=CRASH_SEED)),
        )
        assert crashed and pending is None
        assert (root / "segments" / "seg-000003").is_dir()  # the orphan
        report = fsck(root)
        assert report.exit_code == 1, report.to_dict()
        assert any("stray staging dir" in p for p in report.problems)
        assert any(
            "orphaned segment dir segments/seg-000003" in p
            for p in report.problems
        )
        assert not (root / "segments" / "seg-000003").exists()
        lc = SegmentLifecycle.open(root, _lc_rebuild, spec=_LC_SPEC)
        try:
            assert _lc_live_vectors(lc) == acked
            # pre-merge segment set still serves
            assert {n for n, _ in lc.segment_counts()} == {
                "seg-000001", "seg-000002"
            }
        finally:
            lc.close()
        assert fsck(root).exit_code == 0

    def test_torn_tombstone_flush_keeps_old_catalog(self, tmp_path,
                                                    lifecycle_ops):
        """Torn write of tombstones.npz during the second seal's catalog
        commit: the old catalog keeps serving and WAL replay re-derives the
        tombstones the torn flush failed to persist."""
        op = [
            i for i, o in enumerate(lifecycle_ops)
            if o == "write:tombstones.npz"
        ][1]  # [0] = first seal, [1] = second seal (carries the deletes)
        root = tmp_path / "lc"
        SegmentLifecycle.create(
            root, _lc_rebuild, dim=_LC_DIM, spec=_LC_SPEC
        ).close()
        acked, pending, crashed = _run_lifecycle_script(
            root,
            CrashInjector(
                WriteFaultSpec(crash_op=op, mode="torn", seed=CRASH_SEED)
            ),
        )
        assert crashed and pending is None
        report = fsck(root)
        assert report.exit_code == 1, report.to_dict()
        lc = SegmentLifecycle.open(root, _lc_rebuild, spec=_LC_SPEC)
        try:
            assert _lc_live_vectors(lc) == acked
            assert lc.num_deleted == 3  # acked deletes re-derived from WAL
            probe = lc.search(np.zeros(_LC_DIM, dtype=np.float32), k=5)
            assert 0 not in probe.ids.tolist()
        finally:
            lc.close()
        assert fsck(root).exit_code == 0
