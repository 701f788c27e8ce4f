"""Crash-safe segment lifecycle: WAL → sealed segments → compaction (§7).

Vector databases (Milvus, the paper's host system) give each data segment a
*lifecycle*: it is born growing (writes land in a mutable buffer), gets
sealed into an immutable disk-resident index, and is later compacted with
its siblings in the background while queries keep serving.  Starling
optimizes the sealed form; this module supplies the rest of the lifecycle
around the existing builder and the manifest commit substrate:

- **Durability.**  Every ``insert``/``delete`` is appended to a write-ahead
  log (:mod:`repro.storage.wal`) and fsynced *before* the call returns; the
  in-memory memtable and tombstone set are redo state that replay rebuilds.
- **Sealing.**  When the memtable is large enough (or on demand) its rows
  are built into an immutable Starling segment via the normal builder and
  persisted with :func:`~repro.storage.persist.save_starling`; the catalog
  commit that follows makes the segment visible and records the WAL
  watermark (``applied_lsn``) so replay skips folded records; only then is
  the WAL truncated.
- **Tombstones.**  Deletes mask IDs at search time across *all* sealed
  segments and the memtable; compaction is what physically drops them.
- **Compaction.**  A deterministic size-tiered policy
  (:func:`plan_compaction`) derives the merge set purely from catalog
  metadata — the same state always picks the same merge — and each merge
  commits as a new catalog generation via
  :class:`~repro.storage.manifest.CommitTransaction`.  Queries keep serving
  the old segment list until the in-memory pointer swap after the commit,
  so a search concurrent with a merge sees either entirely-old or
  entirely-new, never a mix.

On-disk layout::

    <dir>/MANIFEST.json          catalog commit pointer
    <dir>/gen-XXXXXX/            catalog generation: catalog.json (segment
                                 list, counters, applied_lsn), ids.npz
                                 (per-segment global IDs), tombstones.npz
    <dir>/wal.log                the write-ahead delta log
    <dir>/segments/seg-XXXXXX/   one sealed segment (its own manifest tree)

Every mutation boundary — WAL append/fsync, segment save, catalog commit,
WAL truncation, segment-dir pruning — is announced through an optional
:class:`~repro.storage.faults.CrashInjector`, so the exhaustive crash sweep
in ``tests/test_crash_consistency.py`` can kill the lifecycle at every one
of them and assert that fsck + reopen recovers every acknowledged write.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import threading
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from ..engine.cost import QueryStats
from ..engine.results import SearchResult
from ..storage.faults import CrashInjector, SimulatedCrash, base_disk_graph
from ..storage.manifest import (
    CommitTransaction,
    DigestMismatchError,
    ManifestError,
    npz_bytes,
    read_generation_manifest,
    read_manifest,
    verify_generation,
)
from ..storage.wal import WriteAheadLog
from ..vectors.dataset import VectorDataset
from ..vectors.metrics import get_metric
from .coordinator import SegmentCoordinator, merge_top_k

__all__ = [
    "InvalidVectorError",
    "LifecycleError",
    "LifecycleSpec",
    "SealedSegment",
    "SegmentLifecycle",
    "UnknownIdError",
    "UpdateError",
    "plan_compaction",
]

CATALOG_NAME = "catalog.json"
IDS_NAME = "ids.npz"
TOMBSTONES_NAME = "tombstones.npz"
WAL_NAME = "wal.log"
SEGMENTS_DIR = "segments"
SEG_PREFIX = "seg-"
_CATALOG_VERSION = 1


class LifecycleError(RuntimeError):
    """The lifecycle directory is in a state the caller cannot proceed from."""


class UpdateError(ValueError):
    """Base class of update-path input errors (insert/delete validation)."""


class InvalidVectorError(UpdateError):
    """An insert payload has the wrong shape, dtype, or memory layout.

    Raised instead of letting numpy silently coerce (lossy casts, copies of
    non-contiguous views) or fail later with an opaque shape error deep in
    the search path.
    """


class UnknownIdError(UpdateError):
    """A delete names IDs this segment never allocated (or long compacted).

    Carries the offending IDs in :attr:`ids`.
    """

    def __init__(self, ids) -> None:
        self.ids = [int(v) for v in ids]
        preview = ", ".join(str(v) for v in self.ids[:8])
        if len(self.ids) > 8:
            preview += ", ..."
        super().__init__(f"unknown vector id(s): {preview}")


def validate_vectors(vectors, *, dim: int, dtype: np.dtype) -> np.ndarray:
    """Validate an insert payload; returns a C-contiguous ``(n, dim)`` array.

    Typed failures (:class:`InvalidVectorError`) instead of silent numpy
    coercion: the array must be 1-D or 2-D with row width ``dim``, non-empty,
    C-contiguous (no strided views — the caller's layout bug, not ours to
    hide with a copy), and its dtype must be ``dtype`` or safely castable to
    it within the same kind (float→float, int→int); cross-kind casts like
    int→float or complex→float are rejected.  A float payload must be
    finite: a NaN or ±inf row would be acknowledged, then fail every seal's
    graph build after it (and every replay would bring it back).
    """
    dtype = np.dtype(dtype)
    if isinstance(vectors, np.ndarray) and not vectors.flags.c_contiguous:
        raise InvalidVectorError(
            "vectors must be C-contiguous (got a strided/transposed view); "
            "pass np.ascontiguousarray(...) explicitly if a copy is intended"
        )
    arr = np.asarray(vectors)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    if arr.ndim != 2:
        raise InvalidVectorError(
            f"vectors must be 1-D or 2-D, got {arr.ndim}-D shape {arr.shape}"
        )
    if arr.shape[0] == 0:
        raise InvalidVectorError("empty insert (zero vectors)")
    if arr.shape[1] != dim:
        raise InvalidVectorError(
            f"vector dim {arr.shape[1]} != segment dim {dim}"
        )
    if arr.dtype != dtype:
        # numpy's "same_kind" rule admits int->float; we want literally the
        # same kind (float->float, int->int) so an integer payload against a
        # float segment is a caller bug, not a silent up-cast.
        if arr.dtype.kind != dtype.kind or not np.can_cast(
            arr.dtype, dtype, casting="same_kind"
        ):
            raise InvalidVectorError(
                f"dtype {arr.dtype} is not safely castable to segment "
                f"dtype {dtype} (same-kind casts only)"
            )
        arr = arr.astype(dtype)
    if dtype.kind == "f" and not np.isfinite(arr).all():
        raise InvalidVectorError("vectors must be finite (got NaN or ±inf)")
    return np.ascontiguousarray(arr)


def validate_ids(ids) -> np.ndarray:
    """Validate a delete payload; returns a 1-D int64 array.

    Rejects floats/bools/nested shapes with :class:`InvalidVectorError`
    instead of letting ``asarray(..., dtype=int64)`` truncate silently.
    """
    arr = np.asarray(ids)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    if arr.ndim != 1:
        raise InvalidVectorError(
            f"ids must be a scalar or 1-D sequence, got shape {arr.shape}"
        )
    if arr.size and not (
        np.issubdtype(arr.dtype, np.integer)
        and arr.dtype != np.bool_
    ):
        raise InvalidVectorError(
            f"ids must be integers, got dtype {arr.dtype}"
        )
    return arr.astype(np.int64, copy=False)


@dataclass(frozen=True)
class LifecycleSpec:
    """Policy knobs of a :class:`SegmentLifecycle`.

    Attributes:
        seal_threshold: Memtable row count at which an insert auto-seals the
            growing buffer into an immutable segment (``None`` = only
            explicit :meth:`SegmentLifecycle.seal` calls seal).
        merge_fanout: How many sealed segments of one size tier trigger (and
            participate in) a merge.
        tier_growth: Size ratio between consecutive tiers: a segment of
            ``count`` rows belongs to tier ``floor(log(count, tier_growth))``.
    """

    seal_threshold: int | None = None
    merge_fanout: int = 3
    tier_growth: float = 4.0

    def __post_init__(self) -> None:
        if self.seal_threshold is not None and self.seal_threshold <= 0:
            raise ValueError("seal_threshold must be positive (or None)")
        if self.merge_fanout < 2:
            raise ValueError("merge_fanout must be at least 2")
        if self.tier_growth <= 1.0:
            raise ValueError("tier_growth must be > 1")

    def with_(self, **changes) -> "LifecycleSpec":
        return replace(self, **changes)


@dataclass(frozen=True)
class SealedSegment:
    """One immutable sealed segment: its index plus the global-ID mapping.

    ``ids[v]`` is the global ID of the index's local vertex ``v``;
    ``vectors`` keeps the raw rows for compaction rebuilds (on reopen they
    are decoded back out of the persisted blocks).
    """

    name: str
    ids: np.ndarray
    index: object
    vectors: np.ndarray

    @property
    def count(self) -> int:
        return int(self.ids.size)


def plan_compaction(
    segments: list[tuple[str, int]], spec: LifecycleSpec
) -> list[str]:
    """Deterministic size-tiered merge choice from metadata alone.

    Buckets segments into size tiers (``floor(log(count, tier_growth))``)
    and, in the *lowest* tier holding at least ``merge_fanout`` segments,
    picks the ``merge_fanout`` smallest (ties broken by name).  Pure
    function of ``(name, count)`` metadata, so any two replicas — or the
    same node before and after a crash — derive the identical merge.
    Returns the chosen names, or ``[]`` when no tier is full.
    """
    tiers: dict[int, list[tuple[int, str]]] = {}
    for name, count in segments:
        tier = int(math.floor(math.log(max(count, 1), spec.tier_growth)))
        tiers.setdefault(tier, []).append((count, name))
    for tier in sorted(tiers):
        members = tiers[tier]
        if len(members) >= spec.merge_fanout:
            members.sort()
            return [name for _, name in members[: spec.merge_fanout]]
    return []


def _decode_all_vectors(index) -> np.ndarray:
    """Recover a sealed segment's raw rows from its decoded disk blocks.

    Uses the uncounted analysis path (``device._fetch``), so reopening a
    lifecycle does not charge query I/O counters.
    """
    base = base_disk_graph(index.disk_graph)
    n = base.num_vertices
    vectors: np.ndarray | None = None
    for block_id in range(base.num_blocks):
        block = base._decode(block_id, base.device._fetch(block_id))
        if vectors is None:
            vectors = np.empty((n, block.vectors.shape[1]),
                               dtype=block.vectors.dtype)
        vectors[block.vertex_ids.astype(np.int64)] = block.vectors
    if vectors is None:
        raise LifecycleError("sealed segment has no blocks to decode")
    return vectors


def _coordinator_of(sealed: list[SealedSegment]) -> SegmentCoordinator | None:
    """The fan-out over a sealed list: every segment is tried on every
    search (no quarantine — a faulting one drops out of that answer only);
    ``None`` while nothing is sealed."""
    if not sealed:
        return None
    return SegmentCoordinator(
        [seg.index for seg in sealed], quarantine_threshold=0
    )


class SegmentLifecycle:
    """WAL-backed growing segment with sealed generations and compaction.

    Construct with :meth:`create` (fresh directory) or :meth:`open`
    (recover: load catalog, replay WAL).  ``rebuild`` is the builder
    closure ``(VectorDataset) -> segment index`` used for seals and merges
    (normally a :func:`repro.core.builder.build_starling` partial).

    Thread contract: mutations (insert/delete/seal/compact) serialize on an
    internal ingest lock; searches never take it — they snapshot the sealed
    list (with the coordinator that fans out over it), memtable, and
    tombstones under a short state lock and then run lock-free, so queries
    keep serving the pre-merge segment set while a compaction builds, right
    up to the atomic post-commit swap.
    """

    def __init__(
        self,
        directory: str | os.PathLike,
        rebuild,
        *,
        dim: int,
        dtype: np.dtype,
        metric,
        spec: LifecycleSpec | None = None,
        injector: CrashInjector | None = None,
        _internal: bool = False,
    ) -> None:
        if not _internal:
            raise TypeError(
                "use SegmentLifecycle.create(...) or SegmentLifecycle.open(...)"
            )
        self.root = Path(directory)
        self.rebuild = rebuild
        self.dim = int(dim)
        self.dtype = np.dtype(dtype)
        self.metric = get_metric(metric)
        self.spec = spec or LifecycleSpec()
        self.injector = injector
        self._state_lock = threading.Lock()
        self._ingest_lock = threading.RLock()
        self._sealed: list[SealedSegment] = []
        #: the fan-out over ``_sealed`` (None while nothing is sealed),
        #: swapped together with it
        self._coordinator: SegmentCoordinator | None = None
        self._mem_ids: list[int] = []
        self._mem_rows: list[np.ndarray] = []
        self._tombstones: frozenset[int] = frozenset()
        self._live_ids: set[int] = set()
        self._next_id = 0
        self._next_seg = 1
        self._applied_lsn = 0
        self.catalog_generation = 0
        self._wal: WriteAheadLog | None = None
        self.seals = 0
        self.compactions = 0

    # -- construction ------------------------------------------------------

    @classmethod
    def create(
        cls,
        directory: str | os.PathLike,
        rebuild,
        *,
        dim: int,
        dtype="float32",
        metric="l2",
        spec: LifecycleSpec | None = None,
        injector: CrashInjector | None = None,
    ) -> "SegmentLifecycle":
        """Initialize a fresh lifecycle directory (empty catalog + WAL)."""
        root = Path(directory)
        if (root / "MANIFEST.json").exists():
            raise LifecycleError(f"{root} already holds a lifecycle catalog")
        self = cls(
            root, rebuild, dim=dim, dtype=dtype, metric=metric,
            spec=spec, injector=injector, _internal=True,
        )
        root.mkdir(parents=True, exist_ok=True)
        (root / SEGMENTS_DIR).mkdir(exist_ok=True)
        self._commit_catalog()
        self._wal = WriteAheadLog(root / WAL_NAME, injector=injector)
        return self

    @classmethod
    def open(
        cls,
        directory: str | os.PathLike,
        rebuild,
        *,
        spec: LifecycleSpec | None = None,
        injector: CrashInjector | None = None,
        strict: bool = False,
    ) -> "SegmentLifecycle":
        """Recover a lifecycle: verified catalog load, then WAL replay.

        The catalog generation is digest-verified before anything is
        interpreted; each referenced sealed segment loads through its own
        verified manifest.  WAL records at or below the catalog's
        ``applied_lsn`` watermark are skipped (they were folded into a
        sealed segment whose truncation never ran), making replay — and
        re-replay after a crash between replay and truncation — idempotent.
        """
        from ..storage.persist import load_starling

        root = Path(directory)
        manifest = read_manifest(root)
        if manifest is None:
            raise LifecycleError(f"{root} has no lifecycle catalog")
        if manifest.kind != "lifecycle":
            raise LifecycleError(
                f"{root} holds a {manifest.kind!r} index, not a lifecycle"
            )
        gen_dir = root / manifest.directory
        problems = verify_generation(gen_dir, manifest, strict=strict)
        if problems:
            raise DigestMismatchError(
                f"lifecycle catalog in {root} fails verification: "
                + "; ".join(problems)
            )
        try:
            catalog = json.loads((gen_dir / CATALOG_NAME).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise LifecycleError(f"unreadable catalog in {gen_dir}: {exc}") from exc
        if catalog.get("format_version") != _CATALOG_VERSION:
            raise LifecycleError(
                f"unsupported catalog version {catalog.get('format_version')}"
            )

        self = cls(
            root, rebuild,
            dim=catalog["dim"], dtype=catalog["dtype"],
            metric=catalog["metric"], spec=spec, injector=injector,
            _internal=True,
        )
        self.catalog_generation = manifest.generation
        self._next_id = int(catalog["next_id"])
        self._next_seg = int(catalog["next_seg"])
        self._applied_lsn = int(catalog["applied_lsn"])

        ids_npz = np.load(gen_dir / IDS_NAME)
        flat = ids_npz["ids_flat"].astype(np.int64)
        offsets = ids_npz["ids_offsets"].astype(np.int64)
        entries = catalog["segments"]
        if offsets.size != len(entries) + 1:
            raise LifecycleError("catalog segment list and ids.npz disagree")
        sealed: list[SealedSegment] = []
        for i, entry in enumerate(entries):
            seg_ids = flat[offsets[i]: offsets[i + 1]].copy()
            if seg_ids.size != int(entry["count"]):
                raise LifecycleError(
                    f"segment {entry['name']} id count mismatch"
                )
            index = load_starling(
                root / SEGMENTS_DIR / entry["name"], strict=strict
            )
            if index.num_vectors != seg_ids.size:
                raise LifecycleError(
                    f"segment {entry['name']} holds {index.num_vectors} "
                    f"vectors but the catalog records {seg_ids.size}"
                )
            sealed.append(SealedSegment(
                name=entry["name"], ids=seg_ids, index=index,
                vectors=_decode_all_vectors(index),
            ))
        self._sealed = sealed
        self._coordinator = _coordinator_of(sealed)
        tombs = np.load(gen_dir / TOMBSTONES_NAME)["ids"].astype(np.int64)
        self._tombstones = frozenset(int(t) for t in tombs)
        self._live_ids = {
            int(g) for seg in sealed for g in seg.ids.tolist()
        } - set(self._tombstones)

        self._wal = WriteAheadLog(root / WAL_NAME, injector=injector)
        self._wal.resume_after(self._applied_lsn)
        for record in self._wal.opened_with.records:
            if record.lsn <= self._applied_lsn:
                continue  # folded into a sealed segment before the crash
            if record.op == "insert":
                for row, gid in zip(record.vectors, record.ids.tolist()):
                    if gid in self._live_ids or gid in self._tombstones:
                        continue  # double replay: already applied
                    self._mem_ids.append(gid)
                    self._mem_rows.append(
                        np.ascontiguousarray(row, dtype=self.dtype)
                    )
                    self._live_ids.add(gid)
                self._next_id = max(
                    self._next_id, int(record.ids.max()) + 1
                )
            else:
                # Tombstone only ids that still exist: a compaction that ran
                # after this record was logged may have dropped the rows
                # physically already (the watermark only advances at seal),
                # and re-adding their tombstones would leak them forever —
                # no future merge could ever retire them.
                dropped = {int(g) for g in record.ids.tolist()}
                present = dropped & self._live_ids
                if present:
                    self._tombstones = self._tombstones | present
                    self._live_ids -= present
        return self

    def close(self) -> None:
        """Release the WAL; idempotent.  Writes raise afterwards — a second
        ``open()`` of this directory may own the log now — searches do not."""
        with self._ingest_lock:
            if self._wal is not None:
                self._wal.close()
                self._wal = None

    # -- accounting --------------------------------------------------------

    @property
    def num_live(self) -> int:
        return len(self._live_ids)

    @property
    def num_deleted(self) -> int:
        return len(self._tombstones)

    @property
    def pending_rows(self) -> int:
        """Memtable rows not yet sealed (durable in the WAL)."""
        return len(self._mem_ids)

    @property
    def num_segments(self) -> int:
        return len(self._sealed)

    def segment_counts(self) -> list[tuple[str, int]]:
        with self._state_lock:
            return [(seg.name, seg.count) for seg in self._sealed]

    def live_ids(self) -> set[int]:
        return set(self._live_ids)

    def state_fingerprint(self) -> dict:
        """Canonical snapshot of the logical state (replay-idempotence tests)."""
        with self._state_lock:
            sealed = list(self._sealed)
            mem_ids = list(self._mem_ids)
            mem_rows = [row.tobytes() for row in self._mem_rows]
            tombs = sorted(self._tombstones)
        return {
            "segments": [
                (seg.name, seg.ids.tolist(), seg.vectors.tobytes())
                for seg in sealed
            ],
            "memtable": list(zip(mem_ids, mem_rows)),
            "tombstones": tombs,
            "next_id": self._next_id,
            "applied_lsn": self._applied_lsn,
        }

    # -- catalog commits ---------------------------------------------------

    def _commit_catalog(
        self,
        *,
        sealed: list[SealedSegment] | None = None,
        tombstones: frozenset[int] | None = None,
        applied_lsn: int | None = None,
        next_seg: int | None = None,
    ):
        """Commit lifecycle metadata as a new catalog generation.

        Caller must hold the ingest lock (or be in ``create()``).  The state
        to commit is passed explicitly so ``self`` is not mutated until the
        commit succeeds — a concurrent search keeps snapshotting the old
        state, and a crash mid-commit needs no in-memory rollback.  The
        commit protocol keeps the previous catalog generation for rollback,
        which is why segment-dir pruning consults every surviving generation.
        """
        sealed = self._sealed if sealed is None else sealed
        tombstones = self._tombstones if tombstones is None else tombstones
        applied_lsn = (
            self._applied_lsn if applied_lsn is None else applied_lsn
        )
        next_seg = self._next_seg if next_seg is None else next_seg
        catalog = {
            "kind": "lifecycle",
            "format_version": _CATALOG_VERSION,
            "dim": self.dim,
            "dtype": self.dtype.name,
            "metric": self.metric.name,
            "next_id": self._next_id,
            "next_seg": next_seg,
            "applied_lsn": applied_lsn,
            "segments": [
                {"name": seg.name, "count": seg.count} for seg in sealed
            ],
        }
        counts = [seg.count for seg in sealed]
        offsets = np.zeros(len(counts) + 1, dtype=np.int64)
        if counts:
            offsets[1:] = np.cumsum(counts)
        flat = (
            np.concatenate([seg.ids for seg in sealed])
            if sealed else np.empty(0, dtype=np.int64)
        )
        files = {
            CATALOG_NAME: json.dumps(catalog, indent=2).encode(),
            IDS_NAME: npz_bytes(ids_flat=flat, ids_offsets=offsets),
            TOMBSTONES_NAME: npz_bytes(
                ids=np.asarray(sorted(tombstones), dtype=np.int64)
            ),
        }
        txn = CommitTransaction(self.root, "lifecycle", injector=self.injector)
        try:
            for name, data in files.items():
                txn.write_file(name, data)
            manifest = txn.commit()
        except SimulatedCrash:
            raise  # leave debris: that is exactly what the sweep inspects
        except BaseException:
            txn.abort()
            raise
        self.catalog_generation = manifest.generation
        return manifest

    def _referenced_segments(self) -> set[str]:
        """Segment names referenced by the current *or* previous catalog
        generation (rollback must stay servable)."""
        from ..storage.manifest import list_generations

        names: set[str] = set()
        for _, gen_dir in list_generations(self.root):
            try:
                manifest = read_generation_manifest(gen_dir)
            except ManifestError:
                continue
            if manifest is None:
                continue
            try:
                catalog = json.loads((gen_dir / CATALOG_NAME).read_text())
            except (OSError, json.JSONDecodeError):
                continue
            names.update(e["name"] for e in catalog.get("segments", ()))
        return names

    def _prune_segment_dirs(self) -> None:
        """Remove sealed-segment dirs no surviving catalog references."""
        keep = self._referenced_segments()
        seg_root = self.root / SEGMENTS_DIR
        if not seg_root.is_dir():
            return
        if self.injector is not None:
            self.injector.checkpoint("prune:segments")
        for child in sorted(seg_root.iterdir()):
            if child.is_dir() and child.name not in keep:
                shutil.rmtree(child, ignore_errors=True)

    # -- updates -----------------------------------------------------------

    def insert(self, vectors) -> np.ndarray:
        """Durably add vectors; returns their global IDs.

        The WAL append + fsync happens *before* the memtable mutation and
        before this method returns — a crash after return can never lose
        the rows.  May auto-seal when the memtable reaches
        ``spec.seal_threshold``.
        """
        arr = validate_vectors(vectors, dim=self.dim, dtype=self.dtype)
        with self._ingest_lock:
            wal = self._require_wal()
            ids = np.arange(
                self._next_id, self._next_id + arr.shape[0], dtype=np.int64
            )
            wal.append_insert(ids, arr)
            wal.commit()  # durability point: acknowledged from here on
            with self._state_lock:
                self._mem_ids.extend(ids.tolist())
                self._mem_rows.extend(
                    np.ascontiguousarray(row) for row in arr
                )
                self._live_ids.update(ids.tolist())
                self._next_id += arr.shape[0]
            if (
                self.spec.seal_threshold is not None
                and len(self._mem_ids) >= self.spec.seal_threshold
            ):
                self.seal()
        return ids

    def delete(self, ids) -> int:
        """Durably tombstone IDs; returns how many were live.

        Unknown IDs (never allocated, or compacted away long ago) raise
        :class:`UnknownIdError`; deleting an
        already-deleted ID is a no-op.
        """
        requested = validate_ids(ids).tolist()
        with self._ingest_lock:
            wal = self._require_wal()
            unknown = [
                gid for gid in requested
                if gid not in self._live_ids and gid not in self._tombstones
            ]
            if unknown:
                raise UnknownIdError(unknown)
            live = sorted(
                {gid for gid in requested if gid in self._live_ids}
            )
            if not live:
                return 0
            wal.append_delete(np.asarray(live, dtype=np.int64))
            wal.commit()  # durability point
            with self._state_lock:
                self._tombstones = self._tombstones | set(live)
                self._live_ids -= set(live)
            return len(live)

    def _require_wal(self) -> WriteAheadLog:
        if self._wal is None:
            raise LifecycleError("lifecycle is not open")
        return self._wal

    # -- queries -----------------------------------------------------------

    def _snapshot(self):
        with self._state_lock:
            sealed = list(self._sealed)
            coordinator = self._coordinator
            mem_n = len(self._mem_ids)
            mem_ids = self._mem_ids[: mem_n]
            mem_rows = self._mem_rows[: mem_n]
            tombstones = self._tombstones
        return sealed, coordinator, mem_ids, mem_rows, tombstones

    def search(
        self, query: np.ndarray, k: int = 10, candidate_size: int = 64
    ) -> SearchResult:
        """Top-k over live vectors: a :meth:`search_batch` of one."""
        query = np.asarray(query, dtype=np.float32)
        return self.search_batch(query[None], k, candidate_size)[0]

    def search_batch(
        self, queries: np.ndarray, k: int = 10, candidate_size: int = 64
    ) -> list[SearchResult]:
        """Top-k per query over live vectors across every sealed segment +
        memtable.

        One fan-out: the sealed segments answer the whole batch through the
        snapshot's :class:`~repro.core.coordinator.SegmentCoordinator` (its
        plain segments as one lockstep wave), each over-fetching by the
        tombstone count — ``k + min(tombstones, candidate_size)`` rows — so
        post-filtering can still fill ``k``: tombstoned IDs still route
        inside sealed graphs until compaction drops them.  The memtable is
        one exact scan per query, cut at the same over-fetch.  One mask
        drops the tombstones and one
        :func:`~repro.core.coordinator.merge_top_k` ranks sealed and
        memtable candidates together.  A sealed segment whose search raises
        a :class:`~repro.storage.faults.FaultError` drops out of the batch;
        its answers are flagged ``degraded``.
        """
        queries = np.asarray(queries, dtype=np.float32)
        sealed, coordinator, mem_ids, mem_rows, tombstones = self._snapshot()
        slack = k + min(len(tombstones), candidate_size)
        answers, failed = {}, []
        if coordinator is not None:
            _, answers, failed, _ = coordinator.fan_out(
                queries, slack, candidate_size
            )
        data = np.stack(mem_rows) if mem_rows else None
        mem_ids = np.asarray(mem_ids, dtype=np.int64)
        dead = np.fromiter(tombstones, dtype=np.int64, count=len(tombstones))
        out: list[SearchResult] = []
        for q, query in enumerate(queries):
            stats = QueryStats()
            degraded = bool(failed)
            dists_parts, id_parts = [np.empty(0)], [mem_ids[:0]]
            for i in sorted(answers):
                result = answers[i][q]
                stats.merge(result.stats)
                degraded |= bool(result.degraded)
                dists_parts.append(result.dists)
                id_parts.append(sealed[i].ids[result.ids])
            if data is not None:
                dists = self.metric.distances(query, data)
                stats.exact_distances += int(data.shape[0])
                order = np.argsort(dists, kind="stable")[:slack]
                dists_parts.append(dists[order])
                id_parts.append(mem_ids[order])
            ids = np.concatenate(id_parts)
            live = ~np.isin(ids, dead)
            ids, dists = merge_top_k(
                [np.concatenate(dists_parts)[live]], [ids[live]], k
            )
            out.append(SearchResult(
                ids=ids, dists=dists, stats=stats, degraded=degraded
            ))
        return out

    # -- sealing -----------------------------------------------------------

    def _build_segment(self, name: str, ids: np.ndarray, rows: np.ndarray):
        """Build + persist one immutable segment; returns its SealedSegment."""
        from ..storage.persist import save_starling

        dataset = VectorDataset(
            name=name,
            vectors=rows,
            queries=np.zeros((1, self.dim), dtype=np.float32),
            metric=self.metric,
        )
        index = self.rebuild(dataset)
        save_starling(
            index, self.root / SEGMENTS_DIR / name, injector=self.injector
        )
        return SealedSegment(name=name, ids=ids, index=index, vectors=rows)

    def seal(self) -> bool:
        """Seal the memtable into an immutable segment.

        Returns False, leaving the memtable as it is, when it holds fewer
        than two rows: the graph builder needs two, and a lone row is
        already durable in the WAL, searched from the memtable and replayed
        on reopen — it seals with the next insert.

        Order of operations (each a crash boundary the sweep covers):
        build + save the segment, commit the catalog that references it
        (recording ``applied_lsn``), truncate the WAL, swap the in-memory
        state.  A crash before the catalog commit leaves the old catalog +
        full WAL (the save's debris is fsck's to sweep); a crash after it
        leaves applied records in the WAL that replay skips.
        """
        with self._ingest_lock:
            wal = self._require_wal()
            if len(self._mem_ids) < 2:
                return False
            name = f"{SEG_PREFIX}{self._next_seg:06d}"
            ids = np.asarray(self._mem_ids, dtype=np.int64)
            rows = np.stack(self._mem_rows).astype(self.dtype, copy=False)
            segment = self._build_segment(name, ids, rows)

            new_sealed = self._sealed + [segment]
            new_applied = wal.last_lsn
            self._commit_catalog(
                sealed=new_sealed, applied_lsn=new_applied,
                next_seg=self._next_seg + 1,
            )
            # Durable from here.  The swap moves the rows from memtable to
            # sealed in one locked step, so no search snapshot can ever see
            # the same ID in both.
            coordinator = _coordinator_of(new_sealed)
            with self._state_lock:
                self._sealed = new_sealed
                self._coordinator = coordinator
                self._mem_ids = []
                self._mem_rows = []
            self._applied_lsn = new_applied
            self._next_seg += 1
            self.seals += 1
            wal.truncate()
            self._prune_segment_dirs()
            return True

    # -- compaction --------------------------------------------------------

    def compaction_candidates(self) -> list[str]:
        """Names the deterministic size-tiered policy would merge next."""
        return plan_compaction(self.segment_counts(), self.spec)

    def compact_once(self) -> bool:
        """Run one deterministic merge; returns False when none is due, or
        when tombstones leave the due one exactly one survivor (a segment
        the graph builder cannot build: nothing is committed, the victims
        keep serving).

        The merged segment is built and saved while queries keep serving
        the old segment list; the catalog commit plus the in-memory swap
        under the state lock is the only moment the serving set changes —
        atomically, old list to new list.
        """
        with self._ingest_lock:
            self._require_wal()  # a closed lifecycle must not commit catalogs
            chosen = self.compaction_candidates()
            if not chosen:
                return False
            by_name = {seg.name: seg for seg in self._sealed}
            victims = [by_name[name] for name in chosen]
            tombstones = self._tombstones
            id_parts: list[np.ndarray] = []
            row_parts: list[np.ndarray] = []
            for seg in victims:
                live = np.asarray(
                    [gid not in tombstones for gid in seg.ids.tolist()],
                    dtype=bool,
                )
                id_parts.append(seg.ids[live])
                row_parts.append(seg.vectors[live])
            merged_ids = (
                np.concatenate(id_parts) if id_parts
                else np.empty(0, dtype=np.int64)
            )
            dropped_tombs = {
                int(gid) for seg in victims for gid in seg.ids.tolist()
            } & set(tombstones)

            if merged_ids.size == 1:
                return False
            merged_segment: SealedSegment | None = None
            if merged_ids.size:
                name = f"{SEG_PREFIX}{self._next_seg:06d}"
                rows = np.concatenate(row_parts).astype(self.dtype, copy=False)
                merged_segment = self._build_segment(name, merged_ids, rows)

            survivors = [
                seg for seg in self._sealed if seg.name not in set(chosen)
            ]
            new_sealed = survivors + (
                [merged_segment] if merged_segment is not None else []
            )
            new_tombstones = self._tombstones - dropped_tombs
            next_seg = self._next_seg + (
                1 if merged_segment is not None else 0
            )
            self._commit_catalog(
                sealed=new_sealed, tombstones=new_tombstones,
                next_seg=next_seg,
            )
            # The pointer swap: queries snapshotting from here on see the
            # merged segment; in-flight searches finish on the old list.
            coordinator = _coordinator_of(new_sealed)
            with self._state_lock:
                self._sealed = new_sealed
                self._coordinator = coordinator
                self._tombstones = new_tombstones
            self._next_seg = next_seg
            self.compactions += 1
            self._prune_segment_dirs()
            return True

    def maybe_compact(self, max_merges: int | None = None) -> int:
        """Run merges until the policy is satisfied; returns how many ran."""
        ran = 0
        while max_merges is None or ran < max_merges:
            if not self.compact_once():
                break
            ran += 1
        return ran
