"""Save and load built segment indexes, crash-consistently.

A built Starling index is expensive (graph construction dominates, Fig. 8),
so production deployments build once and serve many times.  This module
persists everything a :class:`~repro.core.segment.StarlingIndex` or
:class:`~repro.core.segment.DiskANNIndex` needs into one directory:

    meta.json      configuration, formats, metric, bookkeeping
    disk.bin       the block device payload (the disk-resident graph)
    layout.npz     vertex→block mapping and per-block vertex ids
    pq.npz         PQ codebook + short codes
    nav.npz        navigation graph (Starling) — sample, edges, entry point
    cache.npz      hot-vertex cache (DiskANN), if present

Saves are atomic: the files above are staged, fsynced, and committed into a
``gen-NNNNNN`` generation directory behind a ``MANIFEST.json`` pointer with
per-file digests (see :mod:`repro.storage.manifest`); the previous generation
is kept for rollback and a crash at any point leaves either the old or the
new generation loadable — never a hybrid.  Loads verify the manifest digests
before touching a byte of index data and raise typed
:class:`IndexLoadError` subclasses on damage; ``repro-starling fsck`` (backed
by :mod:`repro.storage.repair`) rolls back or re-derives what it can.

These two save/load pairs persist *immutable* segments only.  Durable
updates go through :class:`repro.core.lifecycle.SegmentLifecycle`, which
seals each segment with :func:`save_starling` and commits its own catalog;
a directory without a ``MANIFEST.json`` is not an index.

Loading never re-runs construction; the restored index answers queries with
identical results and identical I/O counts.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict
from pathlib import Path

import numpy as np

from ..engine.cache import HotVertexCache
from ..graphs.adjacency import AdjacencyGraph, pad_rows
from ..graphs.navigation import FixedEntryPoint, NavigationGraph
from ..quantization.pq import PQCodebook, ProductQuantizer
from ..vectors.metrics import get_metric
from .codec import VertexFormat
from .device import BlockDevice, DiskSpec
from .disk_graph import DiskGraph
from .faults import CrashInjector, SimulatedCrash
from .manifest import (
    CommitTransaction,
    DigestMismatchError,
    IndexLoadError,
    Manifest,
    ManifestError,
    npz_bytes,
    read_manifest,
    verify_generation,
)

_FORMAT_VERSION = 1

__all__ = [
    "IndexLoadError",
    "index_files_dir",
    "load_diskann",
    "load_starling",
    "read_index_meta",
    "save_diskann",
    "save_starling",
]


def index_files_dir(directory: str | os.PathLike) -> Path:
    """Resolve where an index directory's files live (no digest checks).

    Resolves to the current generation directory.  Raises
    :class:`IndexLoadError`/:class:`ManifestError` when there is no index or
    the pointer is corrupt or stale.
    """
    return _resolve_files_dir(Path(directory), verify=False)


def _resolve_files_dir(
    directory: Path, *, verify: bool = True, strict: bool = False
) -> Path:
    if not directory.is_dir():
        raise IndexLoadError(f"{directory} is not an index directory")
    manifest = read_manifest(directory)  # ManifestError if corrupt
    if manifest is None:
        raise IndexLoadError(
            f"{directory} has no meta.json under a committed generation "
            "(no MANIFEST.json)"
        )
    if manifest.kind not in ("starling", "diskann"):
        # E.g. a lifecycle root: its generations hold catalog metadata, not
        # index files; its sealed segments live under <dir>/segments/<name>.
        raise IndexLoadError(
            f"{directory} holds a {manifest.kind!r} directory, not a segment "
            "index (repro.core.lifecycle.SegmentLifecycle.open reads a "
            "lifecycle root)"
        )
    gen_dir = directory / manifest.directory
    if not gen_dir.is_dir():
        raise ManifestError(
            f"stale manifest in {directory}: generation directory "
            f"{manifest.directory} is missing"
        )
    if verify:
        problems = verify_generation(gen_dir, manifest, strict=strict)
        if problems:
            raise DigestMismatchError(
                f"index directory {directory} fails manifest verification: "
                + "; ".join(problems)
            )
    return gen_dir


def read_index_meta(directory: str | os.PathLike) -> dict:
    """Read the current generation's ``meta.json`` (tooling like ``info``)."""
    files_dir = index_files_dir(directory)
    try:
        return json.loads((files_dir / "meta.json").read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise IndexLoadError(
            f"unreadable meta.json in {files_dir}: {exc}"
        ) from exc


def _read_meta(files_dir: Path, expected_kind: str) -> dict:
    """Validate and parse ``meta.json``, raising :class:`IndexLoadError`."""
    meta_path = files_dir / "meta.json"
    if not meta_path.is_file():
        raise IndexLoadError(f"{files_dir} has no meta.json")
    try:
        meta = json.loads(meta_path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise IndexLoadError(f"unreadable meta.json in {files_dir}: {exc}") from exc
    if meta.get("kind") != expected_kind:
        raise IndexLoadError(
            f"{files_dir} does not hold a "
            f"{'Starling' if expected_kind == 'starling' else 'DiskANN'} index"
        )
    if meta.get("format_version") != _FORMAT_VERSION:
        raise IndexLoadError(
            f"unsupported index format version {meta.get('format_version')}"
        )
    missing = [
        key for key in ("metric", "vertex_format", "num_blocks", "pq",
                        "disk_spec", "compute_spec", "config")
        if key not in meta
    ]
    if missing:
        raise IndexLoadError(
            f"meta.json in {files_dir} is missing keys: {', '.join(missing)}"
        )
    return meta


def _require_files(directory: Path, names: tuple[str, ...]) -> None:
    missing = [n for n in names if not (directory / n).is_file()]
    if missing:
        raise IndexLoadError(
            f"index directory {directory} is missing: {', '.join(missing)}"
        )


def _pack_ragged(arrays: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Concatenate ragged int arrays into (flat, offsets)."""
    offsets = np.zeros(len(arrays) + 1, dtype=np.int64)
    np.cumsum([a.size for a in arrays], out=offsets[1:])
    flat = (
        np.concatenate([np.asarray(a, dtype=np.uint32) for a in arrays])
        if arrays and offsets[-1] > 0
        else np.empty(0, dtype=np.uint32)
    )
    return flat, offsets


def _unpack_ragged(flat: np.ndarray, offsets: np.ndarray) -> list[np.ndarray]:
    return [
        flat[offsets[i]: offsets[i + 1]].copy()
        for i in range(offsets.size - 1)
    ]


def _atomic_commit(
    directory: str | os.PathLike,
    kind: str,
    files: dict[str, bytes],
    injector: CrashInjector | None,
) -> Manifest:
    """Commit serialized files as one new generation; all-or-nothing.

    An ordinary exception aborts the transaction and leaves the destination
    exactly as it was (no partial files leak into the live directory); a
    :class:`SimulatedCrash` re-raises *without* cleanup, because debris is
    precisely what the crash-consistency harness wants to find.  Returns the
    committed :class:`Manifest`.
    """
    txn = CommitTransaction(Path(directory), kind, injector=injector)
    try:
        for name, data in files.items():
            txn.write_file(name, data)
        return txn.commit()
    except SimulatedCrash:
        raise
    except BaseException:
        txn.abort()
        raise


def _common_files(index) -> tuple[dict[str, bytes], dict]:
    """Serialize the pieces shared by both index flavours.

    Returns ``(files, meta)`` — everything stays in memory so the atomic
    commit can digest the intended bytes before a single write happens.
    """
    dg: DiskGraph = index.disk_graph
    payload = b"".join(
        dg.device._fetch(block_id) for block_id in range(dg.num_blocks)
    )
    flat, offsets = _pack_ragged(
        [dg.vertices_in_block(b) for b in range(dg.num_blocks)]
    )
    pq: ProductQuantizer = index.pq
    if not isinstance(pq, ProductQuantizer):
        raise NotImplementedError(
            "persistence currently supports the default PQ router only; "
            f"got {type(pq).__name__}"
        )
    files = {
        "disk.bin": payload,
        "layout.npz": npz_bytes(
            vertex_to_block=dg.vertex_to_block,
            block_ids_flat=flat,
            block_ids_offsets=offsets,
        ),
        "pq.npz": npz_bytes(
            centroids=pq.codebook.centroids,
            codes=pq.codes,
            dim=np.asarray([pq.codebook.dim]),
            pad=np.asarray([pq.codebook.pad]),
        ),
    }
    fmt = dg.fmt
    # No build timings: wall clock in a saved artefact makes two saves of
    # one index differ in bytes.  A loaded index reports ``BuildTimings()``
    # (a "timings" key in an older save is ignored).
    meta = {
        "format_version": _FORMAT_VERSION,
        "metric": index.metric.name,
        "vertex_format": {
            "dim": fmt.dim,
            "dtype": str(fmt.dtype),
            "max_degree": fmt.max_degree,
            "block_bytes": fmt.block_bytes,
        },
        "num_blocks": dg.num_blocks,
        "pq": {
            "num_subspaces": pq.num_subspaces,
            "num_centroids": pq.num_centroids,
        },
        "memory": asdict(index.memory),
        "disk_spec": asdict(index.disk_spec),
        "compute_spec": asdict(index.compute_spec),
    }
    return files, meta


def _restore_chaos_fields(cfg_dict: dict) -> dict:
    """Rebuild nested FaultSpec/RetryPolicy dataclasses from their dicts.

    Older index directories predate the chaos fields, and ``asdict`` turns
    the nested dataclasses into plain dicts on save.  The I/O-strategy
    params ride the same restore: JSON turns their hashable tuple-of-pairs
    form into lists of lists, which must come back as tuples so the
    restored config hashes and compares equal to the one it was saved from,
    a saved ``null`` cache strategy comes back as ``"lru"``, and an older
    save's ``layout_strategy`` (which overrode ``shuffle`` when set) comes
    back as ``shuffle``.
    """
    from ..engine.resilience import RetryPolicy
    from .faults import FaultSpec

    if isinstance(cfg_dict.get("faults"), dict):
        cfg_dict["faults"] = FaultSpec(**cfg_dict["faults"])
    if isinstance(cfg_dict.get("resilience"), dict):
        cfg_dict["resilience"] = RetryPolicy(**cfg_dict["resilience"])
    for name in ("layout_params", "cache_params"):
        if isinstance(cfg_dict.get(name), list):
            cfg_dict[name] = tuple(tuple(p) for p in cfg_dict[name])
    # Older saves wrote ``null`` for "LRU iff a capacity is set", which is
    # what "lru" now means at every capacity.
    if cfg_dict.get("cache_strategy", "lru") is None:
        cfg_dict["cache_strategy"] = "lru"
    layout = cfg_dict.pop("layout_strategy", None)
    if layout is not None:
        cfg_dict["shuffle"] = layout
    return cfg_dict


def _load_common(files_dir: Path, meta: dict):
    """Restore the disk graph and PQ shared by both index flavours."""
    _require_files(files_dir, ("disk.bin", "layout.npz", "pq.npz"))
    try:
        vf = meta["vertex_format"]
        fmt = VertexFormat(
            dim=vf["dim"], dtype=np.dtype(vf["dtype"]),
            max_degree=vf["max_degree"], block_bytes=vf["block_bytes"],
        )
        spec = DiskSpec(**meta["disk_spec"])
    except (KeyError, TypeError, ValueError) as exc:
        raise IndexLoadError(
            f"invalid vertex_format/disk_spec in {files_dir}: {exc}"
        ) from exc
    device = BlockDevice(fmt.block_bytes, meta["num_blocks"], spec=spec)
    try:
        payload = (files_dir / "disk.bin").read_bytes()
        expected = fmt.block_bytes * meta["num_blocks"]
        if len(payload) != expected:
            raise IndexLoadError(
                f"truncated or corrupt disk.bin: holds {len(payload)} bytes; "
                f"expected {expected}"
            )
        for block_id in range(meta["num_blocks"]):
            off = block_id * fmt.block_bytes
            device.write_block(block_id, payload[off: off + fmt.block_bytes])
        device.reset_counters()

        try:
            layout = np.load(files_dir / "layout.npz")
            block_ids = _unpack_ragged(
                layout["block_ids_flat"], layout["block_ids_offsets"]
            )
            vertex_to_block = layout["vertex_to_block"].astype(np.uint32)
        except (OSError, KeyError, ValueError) as exc:
            raise IndexLoadError(
                f"unreadable layout.npz in {files_dir}: {exc}"
            ) from exc
        if len(block_ids) != meta["num_blocks"]:
            raise IndexLoadError(
                f"layout.npz describes {len(block_ids)} blocks; meta.json "
                f"says {meta['num_blocks']}"
            )
        try:
            disk_graph = DiskGraph(device, fmt, vertex_to_block, block_ids)
        except ValueError as exc:
            raise IndexLoadError(
                f"layout.npz in {files_dir} does not fit the vertex format: "
                f"{exc}"
            ) from exc

        metric = get_metric(meta["metric"])
        try:
            pq_npz = np.load(files_dir / "pq.npz")
            pq = ProductQuantizer(
                meta["pq"]["num_subspaces"], meta["pq"]["num_centroids"], metric
            )
            pq.codebook = PQCodebook(
                centroids=pq_npz["centroids"],
                dim=int(pq_npz["dim"][0]),
                pad=int(pq_npz["pad"][0]),
            )
            pq.codes = pq_npz["codes"]
        except (OSError, KeyError, ValueError) as exc:
            raise IndexLoadError(
                f"unreadable pq.npz in {files_dir}: {exc}"
            ) from exc
    except BaseException:
        # the device never escapes a failed load half-populated
        device.close()
        raise
    return disk_graph, pq, metric


def save_starling(
    index,
    directory: str | os.PathLike,
    *,
    injector: CrashInjector | None = None,
) -> Manifest:
    """Persist a StarlingIndex atomically (directory created if missing).

    HNSW-upper-layer navigation (Starling-HNSW) is not yet serializable;
    save such indexes after converting to a sampled navigation graph, or
    rebuild them.  ``injector`` arms write-path fault injection (tests).
    Returns the committed manifest.
    """
    from ..core.segment import StarlingIndex

    if not isinstance(index, StarlingIndex):
        raise TypeError(f"expected StarlingIndex, got {type(index).__name__}")
    files, meta = _common_files(index)
    meta["kind"] = "starling"
    meta["config"] = asdict(index.config)
    meta["layout_or"] = index.layout_or
    # The "hot" cache strategy's block set is selected offline by the
    # builder (sampled searches over the in-memory graph, unavailable at
    # load time), so it must ride the manifest round-trip.
    pinned = getattr(index.disk_graph, "pinned_block_ids", None)
    if pinned is None:
        pinned = getattr(index, "_pinned_blocks", None)
    if pinned is not None:
        meta["pinned_blocks"] = [int(b) for b in pinned]

    provider = index.entry_provider
    if isinstance(provider, NavigationGraph):
        flat, offsets = _pack_ragged(provider.graph.neighbor_lists())
        files["nav.npz"] = npz_bytes(
            sample_ids=provider.sample_ids,
            sample_vectors=provider.sample_vectors,
            edges_flat=flat,
            edges_offsets=offsets,
            entry=np.asarray([provider.entry]),
            max_degree=np.asarray([provider.graph.max_degree]),
            search_ef=np.asarray([provider.search_ef]),
        )
        meta["entry_provider"] = "navigation_graph"
    elif isinstance(provider, FixedEntryPoint):
        meta["entry_provider"] = "fixed"
        meta["fixed_entry"] = provider.vertex_id
    else:
        raise NotImplementedError(
            f"cannot persist entry provider {type(provider).__name__}; "
            "only NavigationGraph and FixedEntryPoint are supported"
        )
    files["meta.json"] = json.dumps(meta, indent=2).encode()
    return _atomic_commit(directory, "starling", files, injector)


def load_starling(directory: str | os.PathLike, *, strict: bool = False):
    """Load a StarlingIndex saved by :func:`save_starling`.

    Manifest digests (CRC32; SHA-256 too under ``strict``) are verified
    before any index data is interpreted; damage raises a typed
    :class:`IndexLoadError` subclass instead of producing wrong neighbors.
    """
    from ..core.config import StarlingConfig, GraphConfig, NavigationConfig, PQConfig
    from ..core.segment import BuildTimings, MemoryFootprint, StarlingIndex
    from ..engine.cost import ComputeSpec

    files_dir = _resolve_files_dir(Path(directory), strict=strict)
    meta = _read_meta(files_dir, "starling")
    disk_graph, pq, metric = _load_common(files_dir, meta)

    cfg_dict = dict(meta["config"])
    cfg = StarlingConfig(
        graph=GraphConfig(**cfg_dict.pop("graph")),
        navigation=NavigationConfig(**cfg_dict.pop("navigation")),
        pq=PQConfig(**cfg_dict.pop("pq")),
        **_restore_chaos_fields(cfg_dict),
    )
    if cfg.block_cache_blocks > 0:
        from ..engine.cache_strategies import wrap_with_cache_strategy

        disk_graph = wrap_with_cache_strategy(
            disk_graph, cfg.cache_strategy, cfg.block_cache_blocks,
            params=cfg.cache_params,
            pinned_blocks=meta.get("pinned_blocks"),
        )

    if meta["entry_provider"] == "navigation_graph":
        _require_files(files_dir, ("nav.npz",))
        nav_npz = np.load(files_dir / "nav.npz")
        counts = np.diff(nav_npz["edges_offsets"])
        graph = AdjacencyGraph.from_padded(
            pad_rows(nav_npz["edges_flat"], counts, int(counts.max(initial=0))),
            counts, int(nav_npz["max_degree"][0]),
        )
        provider = NavigationGraph(
            nav_npz["sample_ids"].astype(np.int64),
            nav_npz["sample_vectors"],
            graph,
            int(nav_npz["entry"][0]),
            metric,
            search_ef=int(nav_npz["search_ef"][0]),
        )
    else:
        provider = FixedEntryPoint(int(meta["fixed_entry"]))

    return StarlingIndex(
        disk_graph, pq, metric, provider, cfg,
        BuildTimings(),
        MemoryFootprint(**meta["memory"]),
        layout_or=float(meta["layout_or"]),
        disk_spec=DiskSpec(**meta["disk_spec"]),
        compute_spec=ComputeSpec(**meta["compute_spec"]),
    )


def save_diskann(
    index,
    directory: str | os.PathLike,
    *,
    injector: CrashInjector | None = None,
) -> Manifest:
    """Persist a DiskANNIndex atomically (directory created if missing).

    See :func:`save_starling` for ``injector``; returns the committed
    manifest.
    """
    from ..core.segment import DiskANNIndex

    if not isinstance(index, DiskANNIndex):
        raise TypeError(f"expected DiskANNIndex, got {type(index).__name__}")
    files, meta = _common_files(index)
    meta["kind"] = "diskann"
    meta["config"] = asdict(index.config)
    if not isinstance(index.entry_provider, FixedEntryPoint):
        raise NotImplementedError(
            "DiskANN persistence expects a fixed entry point"
        )
    meta["fixed_entry"] = index.entry_provider.vertex_id
    if index.cache is not None:
        ids = np.asarray(sorted(index.cache._entries), dtype=np.int64)
        vectors = np.stack([index.cache._entries[int(v)][0] for v in ids])
        lists = [index.cache._entries[int(v)][1] for v in ids]
        flat, offsets = _pack_ragged(lists)
        files["cache.npz"] = npz_bytes(
            ids=ids, vectors=vectors, edges_flat=flat, edges_offsets=offsets,
        )
        meta["has_cache"] = True
    else:
        meta["has_cache"] = False
    files["meta.json"] = json.dumps(meta, indent=2).encode()
    return _atomic_commit(directory, "diskann", files, injector)


def load_diskann(directory: str | os.PathLike, *, strict: bool = False):
    """Load a DiskANNIndex saved by :func:`save_diskann`."""
    from ..core.config import DiskANNConfig, GraphConfig, PQConfig
    from ..core.segment import BuildTimings, DiskANNIndex, MemoryFootprint
    from ..engine.cost import ComputeSpec

    files_dir = _resolve_files_dir(Path(directory), strict=strict)
    meta = _read_meta(files_dir, "diskann")
    disk_graph, pq, metric = _load_common(files_dir, meta)

    cfg_dict = dict(meta["config"])
    cfg = DiskANNConfig(
        graph=GraphConfig(**cfg_dict.pop("graph")),
        pq=PQConfig(**cfg_dict.pop("pq")),
        **_restore_chaos_fields(cfg_dict),
    )
    cache = None
    if meta["has_cache"]:
        _require_files(files_dir, ("cache.npz",))
        npz = np.load(files_dir / "cache.npz")
        lists = _unpack_ragged(npz["edges_flat"], npz["edges_offsets"])
        cache = HotVertexCache(npz["ids"], npz["vectors"], lists)
    return DiskANNIndex(
        disk_graph, pq, metric, FixedEntryPoint(int(meta["fixed_entry"])),
        cfg, BuildTimings(),
        MemoryFootprint(**meta["memory"]), cache=cache,
        disk_spec=DiskSpec(**meta["disk_spec"]),
        compute_spec=ComputeSpec(**meta["compute_spec"]),
    )

