"""Verify and repair persisted index directories (``repro-starling fsck``).

The atomic-commit protocol (:mod:`repro.storage.manifest`) guarantees that a
crash leaves either the old or the new generation current — but the debris
it leaves behind (stray staging dirs, an orphaned generation with no
pointer, a committed generation whose unsynced bytes never hit the media)
still needs an offline scrubber, and bit rot can damage even a cleanly
committed directory.  :func:`fsck` walks one index directory and:

1. sweeps staging debris from interrupted saves;
2. re-adopts the newest self-verifying generation when the commit pointer
   is missing, corrupt, or stale (crash between rename and pointer write);
3. verifies the current generation's digests; on damage it first tries to
   **re-derive** what is derivable — ``nav.npz`` for a Starling index is a
   deterministic seeded function of the vectors already in ``disk.bin``,
   and a DiskANN ``layout.npz`` is pure id-contiguous arithmetic — and
   otherwise **rolls back** to the previous generation;
4. reports ``unrecoverable`` when neither works, at which point the serving
   layer quarantines the segment and rebuilds it from source vectors
   (:func:`rebuild_segment`).

A segment-lifecycle root (:mod:`repro.core.lifecycle`) gets one more pass:
its sealed segments are scrubbed recursively, and its write-ahead log and
orphaned segment directories are reconciled with the committed catalog.

Exit-code contract (mirrored by the CLI): 0 clean, 1 repaired (or would
repair, under ``--no-repair``), 2 unrecoverable.
"""

from __future__ import annotations

import json
import os
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .codec import VertexFormat
from .manifest import (
    GEN_MANIFEST_NAME,
    Manifest,
    ManifestError,
    generation_name,
    list_generations,
    list_stage_dirs,
    npz_bytes,
    read_generation_manifest,
    read_manifest,
    verify_generation,
    write_pointer,
)

__all__ = ["FsckReport", "fsck", "rebuild_segment"]

#: canonical staging order for repaired generations (matches save_*)
_FILE_ORDER = (
    "disk.bin", "layout.npz", "pq.npz", "nav.npz", "cache.npz", "meta.json",
)


@dataclass
class FsckReport:
    """What fsck found and what it did about it.

    ``status`` is one of ``clean`` / ``repaired`` / ``unrecoverable``;
    under ``repair=False`` a repairable directory still reports
    ``repaired`` (the actions read "would ..."), so the exit code tells
    operators whether a real run is needed.
    """

    path: str
    status: str = "clean"
    kind: str | None = None
    generation: int | None = None
    problems: list[str] = field(default_factory=list)
    actions: list[str] = field(default_factory=list)

    @property
    def exit_code(self) -> int:
        return {"clean": 0, "repaired": 1}.get(self.status, 2)

    def to_dict(self) -> dict:
        return {
            "path": self.path,
            "status": self.status,
            "exit_code": self.exit_code,
            "kind": self.kind,
            "generation": self.generation,
            "problems": self.problems,
            "actions": self.actions,
        }

    def write_json(self, path: str | os.PathLike) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2) + "\n")


def _generation_self_verifies(gen_dir: Path) -> Manifest | None:
    """A generation is usable iff its own manifest copy verifies its files."""
    try:
        manifest = read_generation_manifest(gen_dir)
    except ManifestError:
        return None
    if manifest is None:
        return None
    if verify_generation(gen_dir, manifest):
        return None
    return manifest


def _commit_repaired(
    root: Path, gen_dir: Path, manifest: Manifest, replacements: dict[str, bytes]
) -> Manifest:
    """Commit a new generation: intact files + re-derived replacements."""
    from .manifest import CommitTransaction

    files: dict[str, bytes] = {}
    for name in _FILE_ORDER:
        if name in replacements:
            files[name] = replacements[name]
        elif name in manifest.files:
            files[name] = (gen_dir / name).read_bytes()
    for name in manifest.files:  # anything outside the canonical order
        if name not in files and name != GEN_MANIFEST_NAME:
            files[name] = (gen_dir / name).read_bytes()
    txn = CommitTransaction(root, manifest.kind)
    try:
        for name, data in files.items():
            txn.write_file(name, data)
        return txn.commit()
    except BaseException:
        txn.abort()
        raise


def _rederive_nav(gen_dir: Path, manifest: Manifest) -> bytes | None:
    """Rebuild ``nav.npz`` from the vectors already stored in ``disk.bin``.

    The navigation graph is a deterministic seeded function of the segment's
    vectors (sampling and graph construction both take ``config.seed``), so
    as long as ``disk.bin``/``layout.npz``/``meta.json`` are intact we can
    re-derive an equivalent navigation layer without the source dataset.
    """
    from ..graphs.navigation import build_navigation_graph
    from .persist import _pack_ragged

    try:
        meta = json.loads((gen_dir / "meta.json").read_text())
        if meta.get("entry_provider") != "navigation_graph":
            return None
        vf = meta["vertex_format"]
        fmt = VertexFormat(
            dim=vf["dim"], dtype=np.dtype(vf["dtype"]),
            max_degree=vf["max_degree"], block_bytes=vf["block_bytes"],
        )
        payload = (gen_dir / "disk.bin").read_bytes()
        layout = np.load(gen_dir / "layout.npz")
        offsets = layout["block_ids_offsets"]
        flat = layout["block_ids_flat"]
        n = int(layout["vertex_to_block"].size)
        vectors = np.empty((n, fmt.dim), dtype=fmt.dtype)
        for b in range(offsets.size - 1):
            ids = flat[offsets[b]: offsets[b + 1]].astype(np.int64)
            block = payload[b * fmt.block_bytes: (b + 1) * fmt.block_bytes]
            vectors[ids] = fmt.split_block_views(block, ids.size)[0]
        cfg = meta["config"]
        provider = build_navigation_graph(
            vectors, meta["metric"],
            sample_ratio=cfg["navigation"]["sample_ratio"],
            algorithm=cfg["graph"]["algorithm"],
            max_degree=cfg["navigation"]["max_degree"],
            build_ef=cfg["navigation"]["build_ef"],
            search_ef=cfg["navigation"]["search_ef"],
            seed=cfg["seed"],
        )
    except (OSError, KeyError, TypeError, ValueError, json.JSONDecodeError):
        return None
    flat, offsets = _pack_ragged(provider.graph.neighbor_lists())
    return npz_bytes(
        sample_ids=provider.sample_ids,
        sample_vectors=provider.sample_vectors,
        edges_flat=flat,
        edges_offsets=offsets,
        entry=np.asarray([provider.entry]),
        max_degree=np.asarray([provider.graph.max_degree]),
        search_ef=np.asarray([provider.search_ef]),
    )


def _rederive_diskann_layout(gen_dir: Path) -> bytes | None:
    """Rebuild a DiskANN ``layout.npz`` by arithmetic.

    DiskANN uses the id-contiguous layout (vertex *v* lives in block
    ``v // ε``), so the mapping is fully determined by the vector count
    (recoverable from the PQ codes) and the vertex format.
    """
    from .persist import _pack_ragged

    try:
        meta = json.loads((gen_dir / "meta.json").read_text())
        if meta.get("kind") != "diskann":
            return None
        vf = meta["vertex_format"]
        fmt = VertexFormat(
            dim=vf["dim"], dtype=np.dtype(vf["dtype"]),
            max_degree=vf["max_degree"], block_bytes=vf["block_bytes"],
        )
        n = int(np.load(gen_dir / "pq.npz")["codes"].shape[0])
    except (OSError, KeyError, TypeError, ValueError, json.JSONDecodeError):
        return None
    eps = fmt.vertices_per_block
    ids = [
        np.arange(b * eps, min((b + 1) * eps, n), dtype=np.uint32)
        for b in range(fmt.num_blocks(n))
    ]
    flat, offsets = _pack_ragged(ids)
    return npz_bytes(
        vertex_to_block=(np.arange(n, dtype=np.uint32) // eps).astype(np.uint32),
        block_ids_flat=flat,
        block_ids_offsets=offsets,
    )


def _try_rederive(
    gen_dir: Path, manifest: Manifest, damaged: set[str]
) -> dict[str, bytes] | None:
    """Re-derive every damaged file, or ``None`` if any is underivable."""
    replacements: dict[str, bytes] = {}
    for name in damaged:
        if name == GEN_MANIFEST_NAME:
            continue  # regenerated by the repair commit itself
        if name == "nav.npz" and manifest.kind == "starling":
            data = _rederive_nav(gen_dir, manifest)
        elif name == "layout.npz" and manifest.kind == "diskann":
            data = _rederive_diskann_layout(gen_dir)
        else:
            data = None
        if data is None:
            return None
        replacements[name] = data
    return replacements


def fsck(
    directory: str | os.PathLike, *, repair: bool = True, strict: bool = False
) -> FsckReport:
    """Scrub one index directory; see the module docstring for the phases.

    Args:
        directory: Index directory or segment-lifecycle root.
        repair: Perform repairs; when False, only report what would be done
            (the report's status/exit code still reflects repairability).
        strict: Verify SHA-256 digests in addition to size + CRC32.
    """
    root = Path(directory)
    report = _fsck_root(root, repair=repair, strict=strict)
    if (
        report.kind == "lifecycle"
        and report.status != "unrecoverable"
        and report.generation is not None
    ):
        _fsck_lifecycle(root, report, repair=repair, strict=strict)
    return report


_STATUS_ORDER = {"clean": 0, "repaired": 1, "unrecoverable": 2}


def _escalate(report: FsckReport, status: str) -> None:
    if _STATUS_ORDER[status] > _STATUS_ORDER[report.status]:
        report.status = status


def _fsck_lifecycle(
    root: Path, report: FsckReport, *, repair: bool, strict: bool
) -> None:
    """Scrub a segment-lifecycle directory's extra surfaces.

    Beyond the catalog commit (already settled by ``_fsck_root``), a
    lifecycle has three things an index directory does not: the sealed
    segment trees under ``segments/`` (each its own manifest-committed
    index, scrubbed recursively), the write-ahead log (torn tail from a
    crashed append, tmp debris from a crashed truncation, a fully-applied
    log a crash left un-truncated), and orphaned segment directories —
    debris of a seal or merge that died between the segment save and the
    catalog commit, recognizable because no surviving catalog generation
    references them.
    """
    from .wal import WalError, replay_wal, truncate_torn_tail

    gen_dir = root / generation_name(report.generation)
    try:
        catalog = json.loads((gen_dir / "catalog.json").read_text())
    except (OSError, json.JSONDecodeError) as exc:
        report.status = "unrecoverable"
        report.problems.append(f"lifecycle catalog unreadable: {exc}")
        return

    # Phase L1: recurse into every sealed segment the catalog serves.
    seg_root = root / "segments"
    for entry in catalog.get("segments", ()):
        name = entry["name"]
        sub = _fsck_root(seg_root / name, repair=repair, strict=strict)
        report.problems.extend(f"segments/{name}: {p}" for p in sub.problems)
        report.actions.extend(f"segments/{name}: {a}" for a in sub.actions)
        _escalate(report, sub.status)
    if report.status == "unrecoverable":
        report.actions.append(
            "a referenced sealed segment is unrecoverable; "
            "quarantine the lifecycle and rebuild from source vectors"
        )
        return

    # Phase L2: the write-ahead log.
    wal_tmp = root / "wal.log.tmp"
    if wal_tmp.is_file():
        report.problems.append(
            "stray wal.log.tmp (crash during WAL truncation)"
        )
        if repair:
            wal_tmp.unlink()
            report.actions.append("removed wal.log.tmp")
        else:
            report.actions.append("would remove wal.log.tmp")
        _escalate(report, "repaired")
    wal_path = root / "wal.log"
    applied = int(catalog.get("applied_lsn", 0))
    if not wal_path.is_file():
        report.problems.append("missing wal.log")
        if repair:
            truncate_torn_tail(wal_path, 0)
            report.actions.append("created an empty WAL")
        else:
            report.actions.append("would create an empty WAL")
        _escalate(report, "repaired")
    else:
        try:
            scan = replay_wal(wal_path)
        except WalError as exc:
            # The header itself is unusable (external corruption): no
            # record can be attributed, so the only repair is a reset.
            report.problems.append(f"WAL header unusable: {exc}")
            if repair:
                truncate_torn_tail(wal_path, 0)
                report.actions.append("reset wal.log to an empty log")
            else:
                report.actions.append("would reset wal.log to an empty log")
            _escalate(report, "repaired")
        else:
            if scan.torn:
                report.problems.extend(
                    f"wal.log: {p}" for p in scan.problems
                )
                if repair:
                    truncate_torn_tail(wal_path, scan.valid_bytes)
                    report.actions.append(
                        "truncated torn WAL tail "
                        f"(kept {len(scan.records)} intact records)"
                    )
                else:
                    report.actions.append("would truncate torn WAL tail")
                _escalate(report, "repaired")
            if scan.records and scan.last_lsn <= applied:
                report.problems.append(
                    "WAL fully applied by the committed catalog "
                    "(crash between seal commit and WAL truncation)"
                )
                if repair:
                    truncate_torn_tail(wal_path, 0)
                    report.actions.append("truncated fully-applied WAL")
                else:
                    report.actions.append("would truncate fully-applied WAL")
                _escalate(report, "repaired")

    # Phase L3: orphaned sealed-segment directories.  Any surviving catalog
    # generation (current or the rollback target) may reference a segment,
    # so only directories referenced by none of them are debris.
    referenced: set[str] = set()
    for _, any_gen in list_generations(root):
        try:
            any_catalog = json.loads((any_gen / "catalog.json").read_text())
        except (OSError, json.JSONDecodeError):
            continue
        referenced.update(
            e["name"] for e in any_catalog.get("segments", ())
        )
    if seg_root.is_dir():
        for child in sorted(seg_root.iterdir()):
            if not child.is_dir() or child.name in referenced:
                continue
            report.problems.append(
                f"orphaned segment dir segments/{child.name} "
                "(crashed seal or merge)"
            )
            if repair:
                shutil.rmtree(child, ignore_errors=True)
                report.actions.append(f"removed segments/{child.name}")
            else:
                report.actions.append(f"would remove segments/{child.name}")
            _escalate(report, "repaired")


def _fsck_root(
    directory: str | os.PathLike, *, repair: bool = True, strict: bool = False
) -> FsckReport:
    """One directory's manifest-level phases (no lifecycle recursion)."""
    root = Path(directory)
    report = FsckReport(path=str(root))
    if not root.is_dir():
        report.status = "unrecoverable"
        report.problems.append(f"{root} is not an index directory")
        return report

    # Phase 1: staging debris from interrupted saves.
    for stage in list_stage_dirs(root):
        report.problems.append(f"stray staging dir {stage.name} (interrupted save)")
        if repair:
            shutil.rmtree(stage, ignore_errors=True)
            report.actions.append(f"removed {stage.name}")
        else:
            report.actions.append(f"would remove {stage.name}")
    pointer_tmp = root / "MANIFEST.json.tmp"
    if pointer_tmp.is_file():
        report.problems.append(
            "stray MANIFEST.json.tmp (crash during pointer write)"
        )
        if repair:
            pointer_tmp.unlink()
            report.actions.append("removed MANIFEST.json.tmp")
        else:
            report.actions.append("would remove MANIFEST.json.tmp")

    # Phase 2: the commit pointer.
    try:
        pointer = read_manifest(root)
    except ManifestError as exc:
        report.problems.append(str(exc))
        pointer = None
        pointer_damaged = True
    else:
        pointer_damaged = False

    if pointer is not None:
        gen_dir = root / pointer.directory
        if not gen_dir.is_dir():
            report.problems.append(
                f"stale pointer: generation directory {pointer.directory} "
                "is missing"
            )
            pointer = None
            pointer_damaged = True

    generations = list_generations(root)
    if pointer is None and not pointer_damaged:
        # No MANIFEST.json at all: not an index, or an orphaned generation
        # from a crash between rename and pointer write.
        if not generations:
            report.status = "unrecoverable"
            report.problems.append(
                "no MANIFEST.json and no generations: not an index directory"
            )
            return report
        report.problems.append("missing commit pointer (crash before commit)")
        pointer_damaged = True

    if pointer_damaged:
        # Adopt the newest generation that verifies against its own
        # embedded manifest copy.
        for gen, gen_dir in reversed(generations):
            adopted = _generation_self_verifies(gen_dir)
            if adopted is None:
                report.problems.append(
                    f"{gen_dir.name} does not self-verify; skipped"
                )
                continue
            if repair:
                write_pointer(root, adopted)
                report.actions.append(
                    f"recovered pointer from {gen_dir.name}"
                )
            else:
                report.actions.append(
                    f"would recover pointer from {gen_dir.name}"
                )
            report.kind = adopted.kind
            report.generation = adopted.generation
            report.status = "repaired"
            return report
        report.status = "unrecoverable"
        report.problems.append("no generation self-verifies; rebuild required")
        return report

    # Phase 3: verify the current generation.
    report.kind = pointer.kind
    report.generation = pointer.generation
    gen_dir = root / pointer.directory
    problems = verify_generation(gen_dir, pointer, strict=strict)
    if not problems:
        report.status = "repaired" if report.problems else "clean"
        return report
    report.problems.extend(problems)
    damaged = {p.split(":", 1)[0] for p in problems}

    # Phase 3a: re-derive derivable artifacts in place.
    intact_ok = not verify_generation(
        gen_dir, pointer, strict=strict,
        names=tuple(n for n in pointer.files if n not in damaged),
    )
    replacements = (
        _try_rederive(gen_dir, pointer, damaged) if intact_ok else None
    )
    if replacements is not None:
        if repair:
            repaired = _commit_repaired(root, gen_dir, pointer, replacements)
            report.generation = repaired.generation
            report.actions.append(
                "re-derived " + ", ".join(sorted(replacements))
                + f"; committed {repaired.directory}"
            )
        else:
            report.actions.append(
                "would re-derive " + ", ".join(sorted(replacements))
            )
        report.status = "repaired"
        return report

    # Phase 3b: roll back to the newest older generation that self-verifies.
    for gen, prev_dir in reversed(generations):
        if gen >= pointer.generation:
            continue
        previous = _generation_self_verifies(prev_dir)
        if previous is None:
            continue
        if repair:
            write_pointer(root, previous)
            shutil.rmtree(gen_dir, ignore_errors=True)
            report.actions.append(
                f"rolled back {pointer.directory} -> {prev_dir.name}"
            )
        else:
            report.actions.append(
                f"would roll back {pointer.directory} -> {prev_dir.name}"
            )
        report.generation = previous.generation
        report.status = "repaired"
        return report

    report.status = "unrecoverable"
    report.actions.append("quarantine the segment and rebuild from vectors")
    return report


def rebuild_segment(
    coordinator,
    segment_index: int,
    dataset,
    config=None,
    *,
    directory: str | os.PathLike | None = None,
    kind: str = "starling",
):
    """Last-resort recovery: rebuild a segment fsck gave up on.

    Quarantines the segment in the coordinator, rebuilds its index from the
    source vectors via :mod:`repro.core.builder`, optionally re-persists it
    (a fresh generation), and swaps it back into serving.  Returns the new
    index.
    """
    from ..core.builder import build_diskann, build_starling

    coordinator.quarantine_segment(segment_index)
    if kind == "starling":
        index = build_starling(dataset, config)
    elif kind == "diskann":
        index = build_diskann(dataset, config)
    else:
        raise ValueError(f"unknown index kind {kind!r}")
    if directory is not None:
        from .persist import save_diskann, save_starling

        if kind == "starling":
            save_starling(index, directory)
        else:
            save_diskann(index, directory)
    coordinator.replace_segment(segment_index, index)
    return index
