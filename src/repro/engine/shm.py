"""Shared-memory process fan-out: map the index, don't pickle it.

Fork-based process pools inherit the whole segment index for free, but a
``spawn`` (or ``forkserver``) context starts from a blank interpreter —
shipping the index by pickle would copy the disk image, the PQ codes, and
the query matrix once per worker.  This module exports exactly those big
payloads into named ``multiprocessing.shared_memory`` segments and sends
workers a small picklable :class:`IndexImage` instead: each worker maps the
segments and rebuilds an equivalent index *over the mappings*, so the
per-worker cost is metadata-sized regardless of segment size.

Lifecycle rules:

- The parent owns every segment through a :class:`ShmExport`; segments are
  unlinked in the executor's ``finally`` (even on worker crashes) and, as a
  backstop, by a ``weakref.finalize`` if the export is dropped without
  ``close`` — no leaked ``/dev/shm`` entries either way.
- Workers only *attach*.  On Python < 3.13 the resource tracker would
  register each attachment and unlink the segment when any worker exits,
  yanking it from everyone else; :func:`_untrack` reverses that
  registration, leaving cleanup solely to the owning parent.
- A killed worker's mappings are reclaimed by the OS; the named segment
  itself survives until the parent's unlink, which the ``finally`` runs
  precisely because the pool raised.

The rebuilt index is equivalence-grade: the engines are reconstructed with
the same kwargs, the PQ with the same codebook/codes, the device with the
same payload bytes, so per-query results and ``QueryStats`` counters are
bit-identical to the fork path and to the serial loop.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory

import numpy as np

from ..storage.codec import VertexFormat
from ..storage.device import BlockDevice, DiskSpec
from ..storage.disk_graph import DiskGraph
from ..vectors.metrics import get_metric


class ShmExportError(RuntimeError):
    """The index cannot be exported to shared memory (fallback: threads)."""


# -- parent side (create / unlink) ------------------------------------------


@dataclass(frozen=True)
class ArraySpec:
    """Picklable handle for one numpy array living in a named segment."""

    name: str
    shape: tuple
    dtype: str


def _release_segments(segments: list) -> None:
    for shm in segments:
        try:
            shm.close()
        except OSError:  # pragma: no cover - close on a dead mapping
            pass
        try:
            shm.unlink()
        except FileNotFoundError:  # already unlinked (idempotent cleanup)
            pass


class ShmExport:
    """Parent-side owner of the shared-memory segments for one batch.

    ``close`` unlinks everything; a finalizer does the same if the export
    is garbage-collected first, so a crashed batch cannot leak segments.
    """

    def __init__(self) -> None:
        self._segments: list[shared_memory.SharedMemory] = []
        self._finalizer = weakref.finalize(
            self, _release_segments, self._segments
        )

    def share_array(self, array: np.ndarray) -> ArraySpec:
        """Copy one array into a fresh segment; returns its handle."""
        arr = np.ascontiguousarray(array)
        shm = shared_memory.SharedMemory(create=True, size=max(1, arr.nbytes))
        self._segments.append(shm)
        if arr.nbytes:
            view = np.ndarray(arr.shape, dtype=arr.dtype, buffer=shm.buf)
            view[...] = arr
        return ArraySpec(shm.name, tuple(arr.shape), arr.dtype.str)

    @property
    def num_segments(self) -> int:
        return len(self._segments)

    def close(self) -> None:
        """Unlink every segment (idempotent)."""
        self._finalizer()


# -- worker side (attach) ----------------------------------------------------


def _attach_untracked(name: str) -> shared_memory.SharedMemory:
    """Attach a segment without registering it with the resource tracker.

    Until Python 3.13 (``track=False``), every ``SharedMemory(name=...)``
    attach registers the segment with the resource tracker — which spawn
    workers *share* with the parent, so a worker's exit-time cleanup (or a
    post-attach ``unregister``) would clobber the parent's own
    registration and unlink (or KeyError on) segments the parent still
    owns.  Workers are attachers, never owners: registration is suppressed
    for the duration of the attach, leaving exactly one registration — the
    creating parent's.
    """
    original = resource_tracker.register
    resource_tracker.register = lambda *args, **kwargs: None
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original


def attach_array(
    spec: ArraySpec,
) -> tuple[np.ndarray, shared_memory.SharedMemory]:
    """Map a segment and view it as the described array (zero-copy)."""
    shm = _attach_untracked(spec.name)
    arr = np.ndarray(spec.shape, dtype=np.dtype(spec.dtype), buffer=shm.buf)
    return arr, shm


# -- index export ------------------------------------------------------------


@dataclass
class IndexImage:
    """Everything a worker needs to rebuild the index: big payloads as
    shared-memory handles, small state pickled inline."""

    kind: str  # "starling" | "diskann"
    # device
    blocks: ArraySpec  # raw block image, uint8
    block_bytes: int
    num_blocks: int
    disk_spec: DiskSpec
    # graph
    fmt: VertexFormat
    vertex_to_block: ArraySpec
    block_ids_flat: ArraySpec
    block_ids_offsets: ArraySpec
    # PQ
    pq_codes: ArraySpec
    pq_centroids: ArraySpec
    pq_num_subspaces: int
    pq_num_centroids: int
    pq_dim: int
    pq_pad: int
    pq_metric: str
    # engine
    metric: str
    entry_provider: object  # the in-memory navigation structure (small)
    engine_kwargs: dict
    cache: object | None  # HotVertexCache for the baseline
    # batch payload
    queries: ArraySpec
    tables: ArraySpec | None


def _engine_kind(engine) -> str:
    # Local imports: engines import nothing from here, but keep the module
    # importable even if an engine module is mid-refactor.
    from .beam_search import BeamSearchEngine
    from .block_search import BlockSearchEngine

    if isinstance(engine, BlockSearchEngine):
        return "starling"
    if isinstance(engine, BeamSearchEngine):
        return "diskann"
    raise ShmExportError(
        f"engine {type(engine).__name__} has no shared-memory export"
    )


def exportable(engine) -> bool:
    """Cheap static check whether :func:`export_index` can succeed."""
    try:
        _engine_kind(engine)
    except ShmExportError:
        return False
    graph = getattr(engine, "disk_graph", None)
    if type(graph) is not DiskGraph:
        return False
    device = graph.device
    if type(device) is not BlockDevice or device.closed:
        return False
    if engine.resilience is not None:
        return False
    pq = getattr(engine, "pq", None)
    return pq is not None and pq.codebook is not None and pq.codes is not None


def _device_image(device: BlockDevice) -> np.ndarray:
    """The device's full payload as one uint8 array (uncounted read)."""
    if device._file is not None:
        device._file.flush()
        device._file.seek(0)
        raw = device._file.read(device.block_bytes * device.num_blocks)
        return np.frombuffer(raw, dtype=np.uint8)
    return np.frombuffer(bytes(device._blocks), dtype=np.uint8)


def export_index(
    index, engine, queries: np.ndarray, tables: np.ndarray | None,
) -> tuple[IndexImage, ShmExport]:
    """Export ``index``'s big payloads to shared memory.

    Raises :class:`ShmExportError` for index shapes with no export path
    (wrapped disk graphs, armed resilience, untrained PQ); the executor
    falls back to thread fan-out in that case.
    """
    if not exportable(engine):
        raise ShmExportError(
            "index shape not supported by the shared-memory export"
        )
    kind = _engine_kind(engine)
    graph: DiskGraph = engine.disk_graph
    device = graph.device
    pq = engine.pq

    export = ShmExport()
    try:
        blocks = export.share_array(_device_image(device))
        vertex_to_block = export.share_array(graph.vertex_to_block)
        flat = (
            np.concatenate(graph._block_ids)
            if graph._block_ids
            else np.zeros(0, dtype=np.uint32)
        )
        offsets = np.zeros(len(graph._block_ids) + 1, dtype=np.int64)
        np.cumsum(
            [len(ids) for ids in graph._block_ids], out=offsets[1:]
        )
        block_ids_flat = export.share_array(flat)
        block_ids_offsets = export.share_array(offsets)
        pq_codes = export.share_array(pq.codes)
        pq_centroids = export.share_array(pq.codebook.centroids)
        queries_spec = export.share_array(
            np.asarray(queries, dtype=np.float32)
        )
        tables_spec = (
            export.share_array(tables) if tables is not None else None
        )

        if kind == "starling":
            engine_kwargs = {
                "beam_width": engine.beam_width,
                "pruning_ratio": engine.pruning_ratio,
                "use_pq_routing": engine.use_pq_routing,
                "pipeline": engine.pipeline,
                "num_entry_points": engine.num_entry_points,
                "early_termination": engine.early_termination,
            }
            cache = None
        else:
            engine_kwargs = {
                "beam_width": engine.beam_width,
                "use_pq_routing": engine.use_pq_routing,
                "num_entry_points": engine.num_entry_points,
                "early_termination": engine.early_termination,
            }
            cache = engine.cache

        image = IndexImage(
            kind=kind,
            blocks=blocks,
            block_bytes=device.block_bytes,
            num_blocks=device.num_blocks,
            disk_spec=device.spec,
            fmt=graph.fmt,
            vertex_to_block=vertex_to_block,
            block_ids_flat=block_ids_flat,
            block_ids_offsets=block_ids_offsets,
            pq_codes=pq_codes,
            pq_centroids=pq_centroids,
            pq_num_subspaces=pq.num_subspaces,
            pq_num_centroids=pq.num_centroids,
            pq_dim=pq.codebook.dim,
            pq_pad=pq.codebook.pad,
            pq_metric=pq.metric.name,
            metric=engine.metric.name,
            entry_provider=engine.entry_provider,
            engine_kwargs=engine_kwargs,
            cache=cache,
            queries=queries_spec,
            tables=tables_spec,
        )
    except Exception:
        export.close()
        raise
    return image, export


# -- worker-side rebuild -----------------------------------------------------


class RebuiltIndex:
    """Worker-side stand-in for the segment index facade.

    The facades (:class:`~repro.core.segment.StarlingIndex` /
    ``DiskANNIndex``) delegate ``search`` straight to the engine and
    ``range_search`` to the matching range driver, so this thin shim is
    behaviour-identical for the batch entry points.
    """

    def __init__(self, kind: str, engine) -> None:
        self.kind = kind
        self.engine = engine

    def search(self, query, k: int = 10, candidate_size: int = 64,
               *, table=None):
        return self.engine.search(query, k, candidate_size, table=table)

    def range_search(self, query, radius: float, *, table=None, **kwargs):
        from .range_search import (
            incremental_range_search,
            repeated_anns_range_search,
        )

        if self.kind == "starling":
            return incremental_range_search(
                self.engine, query, radius, table=table, **kwargs
            )
        return repeated_anns_range_search(
            self.engine, query, radius, table=table, **kwargs
        )


#: worker-side mappings kept alive for the process lifetime (closing them
#: would invalidate every array view the rebuilt index hands out)
_ATTACHMENTS: list[shared_memory.SharedMemory] = []


def build_worker_state(image: IndexImage):
    """Attach the segments and rebuild ``(index, queries, tables)``.

    Runs once per worker (pool initializer).  All heavy arrays are views of
    the shared mappings; only the navigation structure and engine kwargs
    were pickled.
    """
    from ..quantization.pq import PQCodebook, ProductQuantizer
    from .arena import ArenaPool
    from .beam_search import BeamSearchEngine
    from .block_search import BlockSearchEngine

    def attach(spec: ArraySpec) -> np.ndarray:
        arr, shm = attach_array(spec)
        _ATTACHMENTS.append(shm)
        return arr

    blocks = attach(image.blocks)
    device = BlockDevice(
        image.block_bytes,
        image.num_blocks,
        spec=image.disk_spec,
        buffer=blocks.data,
    )
    vertex_to_block = attach(image.vertex_to_block)
    flat = attach(image.block_ids_flat)
    offsets = attach(image.block_ids_offsets)
    block_ids = [
        flat[offsets[b]: offsets[b + 1]] for b in range(image.num_blocks)
    ]
    graph = DiskGraph(device, image.fmt, vertex_to_block, block_ids)

    pq = ProductQuantizer(
        image.pq_num_subspaces, image.pq_num_centroids, image.pq_metric
    )
    pq.codebook = PQCodebook(
        centroids=attach(image.pq_centroids),
        dim=image.pq_dim,
        pad=image.pq_pad,
    )
    pq.codes = attach(image.pq_codes)

    metric = get_metric(image.metric)
    if image.kind == "starling":
        engine = BlockSearchEngine(
            graph, pq, metric, image.entry_provider, **image.engine_kwargs
        )
    else:
        engine = BeamSearchEngine(
            graph, pq, metric, image.entry_provider,
            cache=image.cache, **image.engine_kwargs,
        )
    engine.arena_pool = ArenaPool()

    queries = attach(image.queries)
    tables = attach(image.tables) if image.tables is not None else None
    return RebuiltIndex(image.kind, engine), queries, tables
