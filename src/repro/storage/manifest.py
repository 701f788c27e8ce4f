"""Atomic generation commits for persisted index directories.

A crash (or an injected write fault) in the middle of a plain
write-files-in-place save leaves a silently mixed old/new directory.  This
module gives persistence the classic database commit protocol instead:

    <dir>/MANIFEST.json       commit pointer: current generation + per-file
                              sizes and CRC32/SHA-256 digests
    <dir>/gen-000001/         a committed generation (immutable; also holds
                              its own self-verifying _manifest.json copy)
    <dir>/.stage-000002/      an in-flight save (crash debris until renamed)

Commit protocol (:class:`CommitTransaction`):

1. stage every file into ``.stage-G`` and fsync each one;
2. write the generation's own ``_manifest.json`` into the stage dir, so any
   surviving generation can be verified without the top-level pointer;
3. fsync the stage dir, rename it to ``gen-G``, fsync the parent;
4. write ``MANIFEST.json.tmp``, fsync it, and ``os.replace`` it over
   ``MANIFEST.json`` — **the commit point** — then fsync the parent again;
5. prune generations older than the immediately previous one (kept for
   rollback).

A crash at any step therefore leaves either the old pointer (debris is
ignored by the loader and swept by ``repro fsck``) or the new pointer over a
fully fsynced generation — never a hybrid.  Every filesystem mutation runs
through an optional :class:`~repro.storage.faults.CrashInjector` so the
crash-consistency harness can kill the save at every boundary.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import shutil
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

MANIFEST_NAME = "MANIFEST.json"
GEN_MANIFEST_NAME = "_manifest.json"
MANIFEST_VERSION = 1
_GEN_PREFIX = "gen-"
_STAGE_PREFIX = ".stage-"


class IndexLoadError(ValueError):
    """A persisted index directory is missing, truncated, or corrupt.

    Subclasses :class:`ValueError` so callers that predate the typed error
    keep working; new code should catch this instead of raw numpy/JSON
    exceptions.
    """


class ManifestError(IndexLoadError):
    """The commit pointer is missing its generation, corrupt, or malformed."""


class DigestMismatchError(IndexLoadError):
    """A committed file fails its manifest size/CRC32/SHA-256 verification."""


@dataclass(frozen=True)
class FileEntry:
    """Size and digests of one committed file."""

    size: int
    crc32: str
    sha256: str


@dataclass
class Manifest:
    """The commit pointer: which generation is current, and its digests."""

    kind: str
    generation: int
    directory: str
    files: dict[str, FileEntry]
    manifest_version: int = MANIFEST_VERSION

    def to_json(self) -> str:
        return json.dumps(
            {
                "manifest_version": self.manifest_version,
                "kind": self.kind,
                "generation": self.generation,
                "dir": self.directory,
                "files": {
                    name: {"size": e.size, "crc32": e.crc32, "sha256": e.sha256}
                    for name, e in self.files.items()
                },
            },
            indent=2,
        )

    @classmethod
    def from_json(cls, text: str) -> "Manifest":
        try:
            raw = json.loads(text)
            return cls(
                kind=raw["kind"],
                generation=int(raw["generation"]),
                directory=str(raw["dir"]),
                files={
                    name: FileEntry(
                        size=int(e["size"]),
                        crc32=str(e["crc32"]),
                        sha256=str(e["sha256"]),
                    )
                    for name, e in raw["files"].items()
                },
                manifest_version=int(raw["manifest_version"]),
            )
        except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
            raise ManifestError(f"malformed manifest: {exc}") from exc


def digest_entry(data: bytes) -> FileEntry:
    return FileEntry(
        size=len(data),
        crc32=f"{zlib.crc32(data) & 0xFFFFFFFF:08x}",
        sha256=hashlib.sha256(data).hexdigest(),
    )


def npz_bytes(**arrays) -> bytes:
    """Serialize arrays to ``.npz`` bytes in memory (stageable + digestable)."""
    buf = io.BytesIO()
    np.savez(buf, **arrays)
    return buf.getvalue()


def generation_name(generation: int) -> str:
    return f"{_GEN_PREFIX}{generation:06d}"


def read_manifest(root: Path) -> Manifest | None:
    """Parse the commit pointer; ``None`` if absent, typed error if corrupt."""
    path = Path(root) / MANIFEST_NAME
    if not path.is_file():
        return None
    try:
        text = path.read_text()
    except OSError as exc:
        raise ManifestError(f"unreadable {MANIFEST_NAME} in {root}: {exc}") from exc
    try:
        return Manifest.from_json(text)
    except ManifestError as exc:
        raise ManifestError(f"corrupt {MANIFEST_NAME} in {root}: {exc}") from exc


def read_generation_manifest(gen_dir: Path) -> Manifest | None:
    """Parse a generation's self-describing manifest copy (None/typed error)."""
    path = Path(gen_dir) / GEN_MANIFEST_NAME
    if not path.is_file():
        return None
    try:
        text = path.read_text()
    except OSError as exc:
        raise ManifestError(
            f"unreadable {GEN_MANIFEST_NAME} in {gen_dir}: {exc}"
        ) from exc
    return Manifest.from_json(text)


def list_generations(root: Path) -> list[tuple[int, Path]]:
    """Committed generation dirs under ``root``, sorted oldest first."""
    out: list[tuple[int, Path]] = []
    for child in Path(root).iterdir() if Path(root).is_dir() else []:
        if child.is_dir() and child.name.startswith(_GEN_PREFIX):
            suffix = child.name[len(_GEN_PREFIX):]
            if suffix.isdigit():
                out.append((int(suffix), child))
    return sorted(out)


def list_stage_dirs(root: Path) -> list[Path]:
    """Crash debris: staging dirs that never reached their rename."""
    root = Path(root)
    if not root.is_dir():
        return []
    return sorted(
        child for child in root.iterdir()
        if child.is_dir() and child.name.startswith(_STAGE_PREFIX)
    )


def verify_generation(
    gen_dir: Path,
    manifest: Manifest,
    *,
    strict: bool = False,
    names: tuple[str, ...] | None = None,
) -> list[str]:
    """Check committed files against manifest digests; returns problems.

    CRC32 is always checked (fast); SHA-256 only under ``strict`` — CRC32
    catches every seeded corruption class, SHA-256 hardens against
    adversarial collisions.
    """
    gen_dir = Path(gen_dir)
    problems: list[str] = []
    for name, entry in manifest.files.items():
        if names is not None and name not in names:
            continue
        path = gen_dir / name
        if not path.is_file():
            problems.append(f"{name}: missing from {gen_dir}")
            continue
        data = path.read_bytes()
        if len(data) != entry.size:
            problems.append(
                f"{name}: truncated or corrupt: holds {len(data)} bytes; "
                f"expected {entry.size}"
            )
            continue
        if f"{zlib.crc32(data) & 0xFFFFFFFF:08x}" != entry.crc32:
            problems.append(f"{name}: CRC32 mismatch (bit rot or torn write)")
            continue
        if strict and hashlib.sha256(data).hexdigest() != entry.sha256:
            problems.append(f"{name}: SHA-256 mismatch")
    return problems


def _fsync_file(path: Path) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _fsync_dir(path: Path) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def write_pointer(root: Path, manifest: Manifest, injector=None) -> None:
    """Atomically (re)write the commit pointer (also used by fsck rollback)."""
    root = Path(root)
    tmp = root / (MANIFEST_NAME + ".tmp")
    data = manifest.to_json().encode()
    if injector is not None:
        injector.checkpoint(f"write:{MANIFEST_NAME}")
        data = injector.filter_write(MANIFEST_NAME, data)
    tmp.write_bytes(data)
    if injector is not None:
        injector.after_write(MANIFEST_NAME)
        injector.checkpoint(f"fsync:{MANIFEST_NAME}")
        if injector.skip_fsync(MANIFEST_NAME):
            os.replace(tmp, root / MANIFEST_NAME)
            return
    _fsync_file(tmp)
    if injector is not None:
        injector.checkpoint(f"replace:{MANIFEST_NAME}")
    os.replace(tmp, root / MANIFEST_NAME)
    if injector is not None:
        injector.checkpoint("fsync-dir:root")
    _fsync_dir(root)


class CommitTransaction:
    """Stage files for one generation and commit them atomically.

    Usage::

        txn = CommitTransaction(directory, "starling", injector=injector)
        try:
            for name, data in files.items():
                txn.write_file(name, data)
            txn.commit()
        except SimulatedCrash:
            raise          # a crash leaves its debris for fsck, on purpose
        except BaseException:
            txn.abort()    # a normal failure must not leak partial files
            raise
    """

    def __init__(self, root: Path, kind: str, injector=None) -> None:
        self.root = Path(root)
        self.kind = kind
        self.injector = injector
        self.root.mkdir(parents=True, exist_ok=True)
        try:
            pointer = read_manifest(self.root)
            pointer_gen = pointer.generation if pointer else 0
        except ManifestError:
            pointer_gen = 0  # saving over a corrupt pointer starts a fresh gen
        highest = max((g for g, _ in list_generations(self.root)), default=0)
        self.generation = max(pointer_gen, highest) + 1
        self.files: dict[str, FileEntry] = {}
        self._stage = self.root / f"{_STAGE_PREFIX}{self.generation:06d}"
        if self._stage.exists():
            shutil.rmtree(self._stage)
        self._stage.mkdir()
        self._renamed = False
        self._committed = False

    @property
    def generation_dir(self) -> Path:
        return self.root / generation_name(self.generation)

    # -- staging -----------------------------------------------------------

    def _checkpoint(self, label: str) -> None:
        if self.injector is not None:
            self.injector.checkpoint(label)

    def write_file(self, name: str, data: bytes) -> None:
        """Stage one file; digests are computed from the *intended* bytes,
        so a torn or unsynced write is detectable after the fact."""
        self._checkpoint(f"write:{name}")
        payload = data
        if self.injector is not None:
            payload = self.injector.filter_write(name, data)
        (self._stage / name).write_bytes(payload)
        if self.injector is not None:
            self.injector.after_write(name)
        self.files[name] = digest_entry(data)
        self._checkpoint(f"fsync:{name}")
        if self.injector is not None and self.injector.skip_fsync(name):
            return
        _fsync_file(self._stage / name)

    # -- commit ------------------------------------------------------------

    def commit(self) -> Manifest:
        manifest = Manifest(
            kind=self.kind,
            generation=self.generation,
            directory=generation_name(self.generation),
            files=self.files,
        )
        # The in-dir copy is snapshotted before it stages itself, so a
        # generation's own manifest lists every file except itself.
        gen_copy = Manifest(
            kind=manifest.kind, generation=manifest.generation,
            directory=manifest.directory, files=dict(self.files),
        )
        self.write_file(GEN_MANIFEST_NAME, gen_copy.to_json().encode())
        manifest.files = dict(self.files)
        self._checkpoint("fsync-dir:stage")
        _fsync_dir(self._stage)
        self._checkpoint("rename:generation")
        os.rename(self._stage, self.generation_dir)
        self._renamed = True
        self._checkpoint("fsync-dir:root")
        _fsync_dir(self.root)
        write_pointer(self.root, manifest, self.injector)
        self._committed = True
        if self.injector is not None:
            # "Missed fsync": the pointer committed but some staged bytes
            # never reached the media; the power loss surfaces only now.
            self.injector.drop_unsynced(self.generation_dir, self.root)
        self._checkpoint("prune")
        self.prune()
        self._checkpoint("done")
        return manifest

    def prune(self) -> None:
        """Drop old generations, keeping the rollback target.

        The rollback target is the newest generation that actually *exists*
        below the one just committed — not ``generation - 1`` by arithmetic:
        a stale pointer can skip numbers, and deleting the only
        self-verifying older generation would defeat fsck rollback.
        """
        existing = list_generations(self.root)
        keep = {self.generation}
        previous = max(
            (g for g, _ in existing if g < self.generation), default=None
        )
        if previous is not None:
            keep.add(previous)
        for gen, path in existing:
            if gen not in keep:
                shutil.rmtree(path, ignore_errors=True)

    def abort(self) -> None:
        """Undo a failed save: the destination must be left untouched."""
        shutil.rmtree(self._stage, ignore_errors=True)
        if self._renamed and not self._committed:
            shutil.rmtree(self.generation_dir, ignore_errors=True)
