"""Write-ahead delta log for streaming ingest (the segment's redo log).

Every ``insert``/``delete`` against a growing segment is encoded as one
append-only record and made durable *before* the call acknowledges: the
classic WAL contract.  The format is deliberately minimal —

    file   := header record*
    header := magic "RWAL" (4 bytes) | version u32
    record := payload_len u32 | crc32(payload) u32 | payload

    payload := op u8 | lsn u64 | count u32 | body
    body    := ids (count x i64)                                   (delete)
             | dim u32 | dtype_len u8 | dtype | ids | vector bytes (insert)

— with a CRC32 per record so replay can tell a committed record from the
torn tail a crash leaves behind.  Replay stops at the first record that is
short, fails its CRC, or does not decode: everything before it was fsynced
and acknowledged, everything after it never was.

Durability protocol (:class:`WriteAheadLog`):

- :meth:`append_insert` / :meth:`append_delete` buffer records in memory and
  assign LSNs;
- :meth:`commit` writes every buffered record in **one** ``write`` +
  ``fsync`` (group commit — many records, one fsync), which is the
  acknowledgment point;
- :meth:`truncate` atomically resets the log to empty after its records have
  been folded into a sealed segment (tmp header + ``os.replace``).

Records carry their LSN so replay composes with the catalog's
``applied_lsn`` watermark: a crash *between* the catalog commit that seals a
segment and the WAL truncation that follows leaves already-applied records
in the log, and replay simply skips them — replaying the same log twice
yields the same state.

Every mutation is announced through an optional
:class:`~repro.storage.faults.CrashInjector` using the same label scheme as
the manifest commit protocol (``write:wal``, ``fsync:wal``,
``truncate:wal``), so the exhaustive crash sweep covers the WAL boundaries
too.  A skipped fsync (``lost_durability`` mode) is modelled as an immediate
power loss: the unsynced suffix is dropped and :class:`SimulatedCrash`
raised *before* the acknowledgment — a WAL that cannot fsync must not ack.
"""

from __future__ import annotations

import os
import struct
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .faults import CrashInjector, SimulatedCrash

__all__ = [
    "WalError",
    "WalRecord",
    "WalReplay",
    "WriteAheadLog",
    "replay_wal",
    "truncate_torn_tail",
]

_MAGIC = b"RWAL"
_VERSION = 1
_HEADER = struct.Struct("<4sI")  # magic, version
_REC_HEADER = struct.Struct("<II")  # payload length, crc32(payload)
_REC_PREFIX = struct.Struct("<BQI")  # op, lsn, count

_OP_INSERT = 1
_OP_DELETE = 2
_OP_NAMES = {_OP_INSERT: "insert", _OP_DELETE: "delete"}

#: label used for every injector hook (prefix-compatible with
#: ``CrashInjector.write_op_indices`` / ``fsync_op_indices``)
_WAL = "wal"


class WalError(ValueError):
    """The write-ahead log is structurally unusable (bad header/version)."""


@dataclass(frozen=True)
class WalRecord:
    """One decoded log record.

    ``op`` is ``"insert"`` (``vectors`` holds the payload rows, aligned with
    ``ids``) or ``"delete"`` (``vectors`` is ``None``).
    """

    lsn: int
    op: str
    ids: np.ndarray
    vectors: np.ndarray | None = None


@dataclass
class WalReplay:
    """What a replay scan found.

    ``valid_bytes`` is the offset just past the last intact record — the
    truncation point for a torn tail.  ``torn`` is True when trailing bytes
    past that offset failed to parse (crash mid-append).
    """

    records: list[WalRecord] = field(default_factory=list)
    valid_bytes: int = _HEADER.size
    torn: bool = False
    problems: list[str] = field(default_factory=list)

    @property
    def last_lsn(self) -> int:
        return max((r.lsn for r in self.records), default=0)


def _encode_record(record: WalRecord) -> bytes:
    ids = np.ascontiguousarray(record.ids, dtype=np.int64)
    op = _OP_INSERT if record.op == "insert" else _OP_DELETE
    parts = [_REC_PREFIX.pack(op, record.lsn, ids.size)]
    if op == _OP_INSERT:
        vectors = np.ascontiguousarray(record.vectors)
        dtype = vectors.dtype.str.encode()
        parts.append(struct.pack("<IB", vectors.shape[1], len(dtype)))
        parts.append(dtype)
        parts.append(ids.tobytes())
        parts.append(vectors.tobytes())
    else:
        parts.append(ids.tobytes())
    payload = b"".join(parts)
    return _REC_HEADER.pack(len(payload), zlib.crc32(payload) & 0xFFFFFFFF) + payload


def _decode_payload(payload: bytes) -> WalRecord:
    op, lsn, count = _REC_PREFIX.unpack_from(payload)
    if op not in _OP_NAMES:
        raise ValueError(f"unknown op {op}")
    offset = _REC_PREFIX.size
    if op == _OP_INSERT:
        dim, dtype_len = struct.unpack_from("<IB", payload, offset)
        offset += 5
        dtype = np.dtype(payload[offset: offset + dtype_len].decode())
        offset += dtype_len
        ids = np.frombuffer(payload, dtype=np.int64, count=count, offset=offset)
        offset += ids.nbytes
        vectors = np.frombuffer(
            payload, dtype=dtype, count=count * dim, offset=offset
        ).reshape(count, dim)
        if offset + vectors.nbytes != len(payload):
            raise ValueError("trailing bytes after insert payload")
        return WalRecord(lsn=lsn, op="insert", ids=ids.copy(),
                         vectors=vectors.copy())
    ids = np.frombuffer(payload, dtype=np.int64, count=count, offset=offset)
    if offset + ids.nbytes != len(payload):
        raise ValueError("trailing bytes after delete payload")
    return WalRecord(lsn=lsn, op="delete", ids=ids.copy())


def replay_wal(path: str | os.PathLike) -> WalReplay:
    """Scan a log file, tolerating a torn tail (and a missing file).

    Raises :class:`WalError` only when the *header* is unusable — a log
    whose first bytes never made it to disk holds no acknowledged records,
    so a short/absent file replays as empty rather than erroring.
    """
    path = Path(path)
    out = WalReplay()
    if not path.is_file():
        return out
    data = path.read_bytes()
    if len(data) < _HEADER.size:
        out.torn = bool(data)
        out.valid_bytes = 0
        if data:
            out.problems.append("truncated WAL header")
        return out
    magic, version = _HEADER.unpack_from(data)
    if magic != _MAGIC:
        raise WalError(f"{path} is not a write-ahead log (bad magic)")
    if version != _VERSION:
        raise WalError(f"unsupported WAL version {version} in {path}")
    offset = _HEADER.size
    while offset < len(data):
        if offset + _REC_HEADER.size > len(data):
            out.torn = True
            out.problems.append("torn record header at tail")
            break
        length, crc = _REC_HEADER.unpack_from(data, offset)
        start = offset + _REC_HEADER.size
        payload = data[start: start + length]
        if len(payload) < length:
            out.torn = True
            out.problems.append("torn record payload at tail")
            break
        if zlib.crc32(payload) & 0xFFFFFFFF != crc:
            out.torn = True
            out.problems.append("record CRC mismatch at tail")
            break
        try:
            record = _decode_payload(payload)
        except (ValueError, struct.error) as exc:
            out.torn = True
            out.problems.append(f"undecodable record at tail: {exc}")
            break
        out.records.append(record)
        offset = start + length
        out.valid_bytes = offset
    return out


def truncate_torn_tail(path: str | os.PathLike, valid_bytes: int) -> None:
    """Discard everything past the last intact record (fsck repair).

    ``valid_bytes == 0`` means even the header was torn: the file is reset
    to a fresh empty log.
    """
    path = Path(path)
    if valid_bytes <= 0:
        path.write_bytes(_HEADER.pack(_MAGIC, _VERSION))
    else:
        with open(path, "r+b") as fh:
            fh.truncate(valid_bytes)
    with open(path, "rb") as fh:
        os.fsync(fh.fileno())


class WriteAheadLog:
    """Append-only redo log with group commit and crash injection hooks.

    Opening an existing log scans it (:attr:`opened_with` keeps the replay
    result) and silently discards any torn tail — those bytes were never
    acknowledged.  A missing file is created with a fresh header.
    """

    def __init__(
        self,
        path: str | os.PathLike,
        *,
        injector: CrashInjector | None = None,
    ) -> None:
        self.path = Path(path)
        self.injector = injector
        self._pending: list[WalRecord] = []
        if self.path.is_file():
            self.opened_with = replay_wal(self.path)
            if self.opened_with.torn:
                truncate_torn_tail(self.path, self.opened_with.valid_bytes)
        else:
            self.opened_with = WalReplay()
            self.path.write_bytes(_HEADER.pack(_MAGIC, _VERSION))
            with open(self.path, "rb") as fh:
                os.fsync(fh.fileno())
        self._next_lsn = self.opened_with.last_lsn + 1
        self._synced_bytes = max(self.path.stat().st_size, _HEADER.size)

    # -- appends -----------------------------------------------------------

    @property
    def last_lsn(self) -> int:
        """LSN of the most recently *assigned* record (0 when empty)."""
        return self._next_lsn - 1

    @property
    def pending_records(self) -> int:
        return len(self._pending)

    def resume_after(self, lsn: int) -> None:
        """Never assign an LSN at or below ``lsn`` (the catalog watermark).

        Truncation empties the file, so a log reopened after a seal would
        otherwise restart at LSN 1 — and the records it then acknowledges
        would replay as already applied, i.e. be lost.
        """
        self._next_lsn = max(self._next_lsn, lsn + 1)

    def append_insert(self, ids, vectors) -> WalRecord:
        record = WalRecord(
            lsn=self._next_lsn, op="insert",
            ids=np.ascontiguousarray(ids, dtype=np.int64),
            vectors=np.ascontiguousarray(vectors),
        )
        self._next_lsn += 1
        self._pending.append(record)
        return record

    def append_delete(self, ids) -> WalRecord:
        record = WalRecord(
            lsn=self._next_lsn, op="delete",
            ids=np.ascontiguousarray(ids, dtype=np.int64),
        )
        self._next_lsn += 1
        self._pending.append(record)
        return record

    # -- group commit ------------------------------------------------------

    def commit(self) -> int:
        """Write + fsync every buffered record in one batch; the ack point.

        Returns the last durable LSN.  All buffered records share one
        ``write`` and one ``fsync`` — fsync batching — so a multi-record
        operation pays a single durability round-trip.
        """
        if not self._pending:
            return self.last_lsn
        batch = b"".join(_encode_record(r) for r in self._pending)
        last = self._pending[-1].lsn
        self._pending = []
        injector = self.injector
        if injector is not None:
            injector.checkpoint(f"write:{_WAL}")
            batch = injector.filter_write(_WAL, batch)
        with open(self.path, "ab") as fh:
            fh.write(batch)
            fh.flush()
            if injector is not None:
                injector.after_write(_WAL)
                injector.checkpoint(f"fsync:{_WAL}")
                if injector.skip_fsync(_WAL):
                    # Missed fsync + power loss: the unsynced suffix never
                    # reaches the media and the process dies before it can
                    # acknowledge — an un-fsynced WAL must not ack.
                    fh.truncate(self._synced_bytes)
                    injector.crashed = True
                    raise SimulatedCrash(
                        "power loss dropped unsynced WAL bytes"
                    )
            os.fsync(fh.fileno())
        self._synced_bytes = self.path.stat().st_size
        return last

    # -- truncation after seal ---------------------------------------------

    def truncate(self) -> None:
        """Atomically reset the log to empty (records folded into a seal).

        Uses the tmp-file + ``os.replace`` idiom so a crash mid-truncation
        leaves either the full old log (replay skips applied records via the
        catalog watermark) or a fresh empty one — never a half-written file.
        """
        self._pending = []
        if self.injector is not None:
            self.injector.checkpoint(f"truncate:{_WAL}")
        tmp = self.path.with_suffix(self.path.suffix + ".tmp")
        tmp.write_bytes(_HEADER.pack(_MAGIC, _VERSION))
        with open(tmp, "rb") as fh:
            os.fsync(fh.fileno())
        os.replace(tmp, self.path)
        dir_fd = os.open(self.path.parent, os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)
        self._synced_bytes = _HEADER.size

    def close(self) -> None:
        self._pending = []
