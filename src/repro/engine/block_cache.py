"""LRU block cache in front of the disk-resident graph.

The paper's conclusion lists cache optimizations as future work, and its
SSNPP analysis (§6.2) observes how much a cache that happens to hold the
hot region helps the baseline.  :class:`CachedDiskGraph` wraps a
:class:`~repro.storage.disk_graph.DiskGraph` with a block-granular LRU:
hits serve decoded blocks from memory and charge no device I/O, misses fall
through to the device.  The engines charge a query the fetch count the
read reports — the misses — so cached reads are invisible in mean-I/O
numbers, exactly how a page cache behaves under ``O_DIRECT``-free
operation.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Sequence

from ..storage.disk_graph import DiskBlock, DiskGraph


class DecodeCache:
    """Bounded, thread-safe decoded-block cache for long-lived installs.

    Exposes the mapping surface :class:`DiskGraph` expects of its
    ``decode_cache`` slot (``get`` / item assignment), so the serving layer
    can install one instance for the life of a service instead of the
    executor's per-batch plain dict.  Every operation holds one lock;
    eviction is true LRU — a ``get`` hit refreshes recency, so an entry the
    workload keeps re-hitting survives eviction pressure from one-shot
    fills.  Like the per-batch dict, the cache
    sits *behind* the I/O accounting — hits and evictions change only decode
    work, never a counter — so capacity is purely a memory bound.

    Args:
        capacity_blocks: Maximum decoded blocks held (must be positive; use
            ``None`` for the ``decode_cache`` slot to disable caching).
    """

    def __init__(self, capacity_blocks: int) -> None:
        if capacity_blocks <= 0:
            raise ValueError("capacity_blocks must be positive")
        self.capacity_blocks = capacity_blocks
        self._lock = threading.Lock()
        self._blocks: OrderedDict[int, DiskBlock] = OrderedDict()

    def __len__(self) -> int:
        with self._lock:
            return len(self._blocks)

    def get(self, block_id: int, default: DiskBlock | None = None):
        with self._lock:
            block = self._blocks.get(block_id)
            if block is None:
                return default
            self._blocks.move_to_end(block_id)
            return block

    def __setitem__(self, block_id: int, block: DiskBlock) -> None:
        with self._lock:
            if block_id not in self._blocks:
                while len(self._blocks) >= self.capacity_blocks:
                    self._blocks.popitem(last=False)
            self._blocks[block_id] = block
            self._blocks.move_to_end(block_id)

    def clear(self) -> None:
        with self._lock:
            self._blocks.clear()


class DelegatingDiskGraph:
    """The one cache seam: a disk-graph wrapper with a block cache in front.

    Exposes the same non-read API as :class:`DiskGraph` by forwarding to
    ``inner``, and implements every read in terms of two hooks a strategy
    supplies — :meth:`_lookup` (the cached block, or ``None``) and
    :meth:`_admit` (offer a freshly read block to the cache).  The one
    partition loop (:meth:`_partition`) splits a request into hits and
    misses and keeps the ``hits`` / ``misses`` counters; misses cost one
    device round trip through ``inner``'s :meth:`read_counted` and are
    charged exactly (see :mod:`repro.engine.cache_strategies` for the
    honesty rules).

    Safe to share between threads: each read holds the wrapper's one lock
    across partition, inner read and admit.  Which query hits then follows
    which read took the lock first — the round loop's (round, row) order
    within a wave, thread timing across concurrent callers.
    """

    def __init__(self, inner: DiskGraph) -> None:
        self.inner = inner
        self.hits = 0
        self.misses = 0
        self._lock = threading.Lock()

    # -- delegated surface ---------------------------------------------------

    @property
    def device(self):
        return self.inner.device

    @property
    def fmt(self):
        return self.inner.fmt

    @property
    def vertex_to_block(self):
        return self.inner.vertex_to_block

    @property
    def num_vertices(self) -> int:
        return self.inner.num_vertices

    @property
    def num_blocks(self) -> int:
        return self.inner.num_blocks

    @property
    def mapping_bytes(self) -> int:
        return self.inner.mapping_bytes

    @property
    def disk_bytes(self) -> int:
        return self.inner.disk_bytes

    def block_of(self, vertex_id: int) -> int:
        return self.inner.block_of(vertex_id)

    def blocks_of(self, vertex_ids):
        return self.inner.blocks_of(vertex_ids)

    def vertices_in_block(self, block_id: int):
        return self.inner.vertices_in_block(block_id)

    def peek_vertex(self, vertex_id: int):
        return self.inner.peek_vertex(vertex_id)

    # -- cache accounting ------------------------------------------------------

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    # -- strategy hooks ----------------------------------------------------------

    def _lookup(self, block_id: int) -> DiskBlock | None:
        """The cached block (refreshing whatever the strategy tracks), or
        ``None`` on a miss."""
        raise NotImplementedError

    def _admit(self, block: DiskBlock) -> None:
        """Offer a block just read from the device to the cache."""

    # -- reads -------------------------------------------------------------------

    def _partition(
        self, block_ids: Sequence[int]
    ) -> tuple[dict[int, DiskBlock], list[int]]:
        """``(hits by id, missing ids in request order)``, counted."""
        found: dict[int, DiskBlock] = {}
        missing: list[int] = []
        for bid in block_ids:
            block = self._lookup(bid)
            if block is None:
                missing.append(bid)
            else:
                found[bid] = block
        self.hits += len(block_ids) - len(missing)
        self.misses += len(missing)
        return found, missing

    def _fetch(self, found: dict[int, DiskBlock], block_ids, failed, attempt):
        """Read ``block_ids`` from ``inner`` in one round trip and admit what
        arrived (a block that failed is never cached) into ``found``."""
        got = self.inner.read_counted(block_ids, failed=failed, attempt=attempt)[0]
        for block in got.values():
            self._admit(block)
        found.update(got)

    def read_counted(
        self,
        block_ids: Sequence[int],
        *,
        failed: dict[int, str] | None = None,
        frontier: Sequence[int] | None = None,
        attempt: int = 0,
    ) -> tuple[dict[int, DiskBlock], int, int]:
        """Cache-aware :meth:`DiskGraph.read_counted`: hits come from
        memory (they never fault), the misses cost one round trip, and the
        fetch count is this call's misses."""
        with self._lock:
            found, missing = self._partition(block_ids)
            if missing:
                self._fetch(found, missing, failed, attempt)
        return found, len(missing), 0

    def read_block(self, block_id: int) -> DiskBlock:
        return self.read_counted((block_id,))[0][block_id]

    def read_blocks(self, block_ids: Sequence[int]) -> list[DiskBlock]:
        found = self.read_counted(block_ids)[0]
        return [found[bid] for bid in block_ids]


class CachedDiskGraph(DelegatingDiskGraph):
    """A DiskGraph wrapper adding an LRU cache of decoded blocks, held in a
    :class:`DecodeCache` (the one LRU of decoded blocks).

    Args:
        inner: The disk graph to wrap.
        capacity_blocks: Maximum blocks held (0 disables caching).
    """

    def __init__(self, inner: DiskGraph, capacity_blocks: int) -> None:
        if capacity_blocks < 0:
            raise ValueError("capacity_blocks must be non-negative")
        super().__init__(inner)
        self.capacity_blocks = capacity_blocks
        self._lru = DecodeCache(max(capacity_blocks, 1))

    @property
    def cached_blocks(self) -> int:
        return len(self._lru)

    @property
    def memory_bytes(self) -> int:
        """Budgeted footprint: capacity × block size (decoded overhead is
        proportional, so the raw block size is the honest budget unit)."""
        return self.capacity_blocks * self.fmt.block_bytes

    def clear(self) -> None:
        with self._lock:
            self._lru.clear()
            self.hits = 0
            self.misses = 0

    def _lookup(self, block_id: int) -> DiskBlock | None:
        return self._lru.get(block_id)

    def _admit(self, block: DiskBlock) -> None:
        if self.capacity_blocks:
            self._lru[block.block_id] = block
