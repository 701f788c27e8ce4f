"""Simulated block device with exact I/O accounting.

This is the substrate substitution documented in DESIGN.md: the paper runs on
an NVMe SSD with ``O_DIRECT``; we run on a block store that serves η-KB blocks
from memory or from a backing file and *counts* every block read and every
round-trip.  Latency is then derived from an explicit :class:`DiskSpec` cost
model rather than measured, which keeps the paper's comparisons (who issues
fewer I/Os) exact while making them hardware-independent.

The cost model encodes the paper's "central assumption" (§7): with modern
SSDs, fetching a small batch of random blocks in one round-trip costs almost
the same as fetching one block.  A round-trip therefore pays a fixed latency
plus a small per-extra-block transfer charge.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from typing import Iterable, Sequence


class DeviceClosedError(ValueError):
    """Raised when a closed :class:`BlockDevice` is used.

    Subclasses :class:`ValueError` so pre-existing callers that caught the
    untyped error keep working; long-lived services catch this type to tell
    a lifecycle bug apart from a bad argument.
    """


@dataclass(frozen=True)
class DiskSpec:
    """Latency model of the simulated disk.

    Defaults approximate a datacenter NVMe SSD: ~100 µs for a random 4 KB
    read round-trip, with subsequent blocks in the same batched round-trip
    costing only transfer time.

    Attributes:
        round_trip_us: Fixed cost of one I/O round-trip (queue + seek).
        extra_block_us: Marginal cost per block beyond the first in a batched
            round-trip (bounded bandwidth; keeps huge beams from being free).
        sequential_block_us: Per-block cost of a sequential streaming read
            after the first block (used by SPANN posting lists).
    """

    round_trip_us: float = 100.0
    extra_block_us: float = 12.0
    sequential_block_us: float = 6.0

    def random_read_us(self, num_blocks: int) -> float:
        """Simulated time for one round-trip fetching ``num_blocks`` blocks."""
        if num_blocks <= 0:
            return 0.0
        return self.round_trip_us + self.extra_block_us * (num_blocks - 1)

    def sequential_read_us(self, num_blocks: int) -> float:
        """Simulated time for one sequential read of ``num_blocks`` blocks."""
        if num_blocks <= 0:
            return 0.0
        return self.round_trip_us + self.sequential_block_us * (num_blocks - 1)


@dataclass
class IOCounters:
    """Cumulative I/O statistics for a device (or a per-query snapshot)."""

    blocks_read: int = 0
    round_trips: int = 0
    blocks_written: int = 0

    def snapshot(self) -> "IOCounters":
        return IOCounters(self.blocks_read, self.round_trips, self.blocks_written)

    def since(self, earlier: "IOCounters") -> "IOCounters":
        """Delta between this snapshot and an earlier one."""
        return IOCounters(
            self.blocks_read - earlier.blocks_read,
            self.round_trips - earlier.round_trips,
            self.blocks_written - earlier.blocks_written,
        )


class BlockDevice:
    """Fixed-block-size store, in memory or backed by a real file.

    The file-backed mode exists to keep the segment's *disk budget* honest
    (the index genuinely occupies ρ·η bytes on disk); read timing is always
    simulated from :class:`DiskSpec`.
    """

    def __init__(
        self,
        block_bytes: int,
        num_blocks: int,
        *,
        path: str | os.PathLike | None = None,
        spec: DiskSpec | None = None,
        buffer: memoryview | bytearray | None = None,
    ) -> None:
        if block_bytes <= 0:
            raise ValueError("block_bytes must be positive")
        if num_blocks < 0:
            raise ValueError("num_blocks must be non-negative")
        if path is not None and buffer is not None:
            raise ValueError("path and buffer are mutually exclusive")
        self.block_bytes = block_bytes
        self.num_blocks = num_blocks
        self.spec = spec or DiskSpec()
        self.counters = IOCounters()
        # Counted reads mutate shared state (counters; the file offset in
        # file-backed mode), so they are serialized for thread-pool callers.
        self._lock = threading.Lock()
        self._path = os.fspath(path) if path is not None else None
        self._closed = False
        if buffer is not None:
            # Externally owned storage (e.g. a shared-memory
            # mapping): the device reads/writes it in place and never frees
            # it — the owner controls the mapping's lifetime.
            if len(buffer) < block_bytes * num_blocks:
                raise ValueError(
                    f"buffer of {len(buffer)} B cannot hold "
                    f"{num_blocks} x {block_bytes} B blocks"
                )
            self._file = None
            self._blocks = buffer
        elif self._path is None:
            self._file = None
            self._blocks = bytearray(block_bytes * num_blocks)
        else:
            self._blocks = None
            self._file = open(self._path, "w+b")
            if num_blocks:
                self._file.truncate(block_bytes * num_blocks)

    # -- lifecycle ---------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    def sync(self) -> None:
        """Force file-backed writes down to the media (fsync); no-op in
        memory mode.  Persistence calls this before committing a manifest
        that vouches for the payload's durability."""
        self._check_open()
        if self._file is not None:
            self._file.flush()
            os.fsync(self._file.fileno())

    def close(self) -> None:
        """Close the device; idempotent for both backends.

        File-backed writes are flushed and fsynced before closing so the
        backing file is durably complete on disk; the in-memory buffer is
        released.
        """
        if self._closed:
            return
        if self._file is not None:
            try:
                self._file.flush()
                os.fsync(self._file.fileno())
            finally:
                self._file.close()
                self._file = None
        self._closed = True
        self._blocks = None

    def _check_open(self) -> None:
        if self._closed:
            raise DeviceClosedError("I/O operation on closed BlockDevice")

    def __enter__(self) -> "BlockDevice":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def path(self) -> str | None:
        return self._path

    @property
    def disk_bytes(self) -> int:
        """Total bytes this device occupies (the segment's disk cost)."""
        return self.block_bytes * self.num_blocks

    # -- raw block access --------------------------------------------------

    def _check_block_id(self, block_id: int) -> None:
        if not 0 <= block_id < self.num_blocks:
            raise IndexError(
                f"block id {block_id} out of range (device has "
                f"{self.num_blocks} blocks)"
            )

    def write_block(self, block_id: int, data: bytes) -> None:
        """Write one full block (used only at index-build time)."""
        self._check_open()
        self._check_block_id(block_id)
        if len(data) != self.block_bytes:
            raise ValueError(
                f"block payload of {len(data)} B; expected {self.block_bytes} B"
            )
        if self._file is not None:
            self._file.seek(block_id * self.block_bytes)
            self._file.write(data)
        else:
            off = block_id * self.block_bytes
            self._blocks[off : off + self.block_bytes] = data
        self.counters.blocks_written += 1

    def _fetch(self, block_id: int) -> bytes:
        self._check_open()
        if self._file is not None:
            self._file.seek(block_id * self.block_bytes)
            return self._file.read(self.block_bytes)
        off = block_id * self.block_bytes
        # bytes(memoryview) copies once; slicing the bytearray first would
        # copy twice (slice → bytes).  The payload stays immutable ``bytes``
        # so callers can hold zero-copy numpy views over it without racing
        # a later write_block.
        with memoryview(self._blocks) as mv:
            return bytes(mv[off : off + self.block_bytes])

    # -- counted reads -----------------------------------------------------

    def read_block(self, block_id: int) -> bytes:
        """Read one block: one round-trip, one block charged."""
        self._check_block_id(block_id)
        self._check_open()
        with self._lock:
            self.counters.blocks_read += 1
            self.counters.round_trips += 1
            return self._fetch(block_id)

    def read_blocks(self, block_ids: Sequence[int]) -> list[bytes]:
        """Batched random read: one round-trip for the whole batch.

        This models the paper's central assumption that a beam of random
        block fetches completes in roughly one disk round-trip.
        """
        ids = list(block_ids)
        for bid in ids:
            self._check_block_id(bid)
        if not ids:
            return []
        self._check_open()
        with self._lock:
            self.counters.blocks_read += len(ids)
            self.counters.round_trips += 1
            return [self._fetch(bid) for bid in ids]

    def charge_batched_read(self, num_blocks: int) -> None:
        """Account one batched round-trip without touching the media.

        Exists for callers that can prove the payload bytes are redundant
        (e.g. the disk graph's decode cache holds every block of the batch)
        but must keep the I/O ledger byte-identical to an uncached run.
        """
        if num_blocks <= 0:
            return
        self._check_open()
        with self._lock:
            self.counters.blocks_read += num_blocks
            self.counters.round_trips += 1

    def read_sequential(self, first_block: int, num_blocks: int) -> list[bytes]:
        """Sequential streaming read of ``num_blocks`` contiguous blocks."""
        if num_blocks <= 0:
            return []
        self._check_block_id(first_block)
        if first_block + num_blocks > self.num_blocks:
            raise IndexError(
                f"sequential read of {num_blocks} blocks from block "
                f"{first_block} overruns the device ({self.num_blocks} blocks)"
            )
        self._check_open()
        with self._lock:
            self.counters.blocks_read += num_blocks
            self.counters.round_trips += 1
            return [self._fetch(first_block + i) for i in range(num_blocks)]

    # -- accounting helpers --------------------------------------------------

    def reset_counters(self) -> None:
        self.counters = IOCounters()


def device_for_blocks(
    blocks: Iterable[bytes],
    block_bytes: int,
    *,
    path: str | os.PathLike | None = None,
    spec: DiskSpec | None = None,
) -> BlockDevice:
    """Build a device pre-populated with the given block payloads."""
    blocks = list(blocks)
    device = BlockDevice(block_bytes, len(blocks), path=path, spec=spec)
    for i, payload in enumerate(blocks):
        device.write_block(i, payload)
    return device
