"""Pluggable block-cache strategies for the disk search engines.

One seam over every way the engines keep decoded blocks in memory:

``"none"``      no cache — every read hits the device.
``"lru"``       :class:`~repro.engine.block_cache.CachedDiskGraph`, recency
                eviction.
``"hot"``       :class:`PinnedBlockCache` — the block-granular analogue of
                DiskANN's hot-vertex cache (Appendix J): sampled searches
                count block visits offline, the hottest blocks are pinned
                for the index's lifetime.  Preloading is build/load-time
                I/O, like DiskANN's offline cache fill; queries never pay
                for pinned blocks.
``"locality"``  :class:`LocalityBlockCache` — GoVector-style query-locality
                cache: retention by decayed access heat plus a credit for
                blocks adjacent to the current search frontier (they are
                where the walk goes next), with optional pull-prefetch of
                the hottest predicted blocks.

Every strategy is a :class:`~repro.engine.block_cache.DelegatingDiskGraph`
and answers one read, ``read_counted(block_ids, *, failed, frontier)``,
which returns ``(blocks by id, blocks fetched, of those prefetched)``.
:func:`repro.engine.io_util.counted_read_blocks_of` turns that into a
query's bill by one rule, on every attempt of a strict or a resilient
read alike:

- **hits are invisible** — a cached block charges no device read, exactly
  like a page-cache hit: ``block_cache_hits`` gets requested − (fetched −
  prefetched);
- **misses are charged exactly** — ``fetched`` is the wrapper's own
  per-call count, never a device-counter delta, so interleaved queries
  can't misattribute each other's reads;
- **prefetches are charged, not hidden** — a prefetched block is fetched by
  the device in the same round trip and appears in the round-trip's block
  count (``QueryStats.round_trip_blocks`` → ``num_ios``) *and* in the
  dedicated ``QueryStats.prefetch_blocks`` counter.  Prefetching can never
  reduce total device reads; what it buys is round trips (the block rides
  an already-issued trip instead of forcing a later one).

The sum of per-query ``num_ios`` over a run therefore always equals the
device's ``blocks_read`` delta, whatever the strategy, wave width, number of
threads, or retry policy.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..storage.disk_graph import DiskBlock, DiskGraph
from .block_cache import CachedDiskGraph, DelegatingDiskGraph
from .cache import sample_visits

CACHE_STRATEGY_NAMES = ("none", "lru", "hot", "locality")


def cache_params_dict(params) -> dict:
    """Tuple-of-pairs cache params → dict (tuple form keeps configs hashable)."""
    return {str(k): v for k, v in (params or ())}


class PinnedBlockCache(DelegatingDiskGraph):
    """A fixed set of blocks held in memory for the index's lifetime.

    The block-granular analogue of DiskANN's hot-vertex cache: membership is
    decided offline (see :func:`select_hot_blocks`), nothing is ever
    admitted or evicted at query time, so behaviour is deterministic and
    identical across serial/batched execution orders.  The pinned blocks are
    read from the device once at construction — build/load-time I/O, the
    same place DiskANN charges its cache fill.
    """

    def __init__(self, inner: DiskGraph, pinned_block_ids) -> None:
        super().__init__(inner)
        ids = sorted({int(b) for b in pinned_block_ids})
        bad = [b for b in ids if not 0 <= b < inner.num_blocks]
        if bad:
            raise ValueError(f"pinned block ids out of range: {bad[:5]}")
        self.pinned_block_ids = tuple(ids)
        self._pinned: dict[int, DiskBlock] = {
            block.block_id: block for block in inner.read_blocks(ids)
        } if ids else {}

    @property
    def cached_blocks(self) -> int:
        return len(self._pinned)

    @property
    def memory_bytes(self) -> int:
        return len(self._pinned) * self.fmt.block_bytes

    def _lookup(self, block_id: int) -> DiskBlock | None:
        return self._pinned.get(block_id)


class LocalityBlockCache(DelegatingDiskGraph):
    """GoVector-style query-locality cache over the disk graph.

    Two signals replace plain recency:

    - **decayed access heat**: every access bumps a block's heat; heat
      decays geometrically per counted read, blending recency with a
      short-horizon access count (how short is the ``decay`` knob).
    - **frontier-adjacency credit**: after serving a frontier read, the
      blocks holding the frontier vertices' out-neighbours get a fractional
      heat credit — they are where the walk plausibly goes next.  The same
      credited set feeds the optional pull-prefetch: on the *next* counted
      read, up to ``prefetch_blocks`` of the hottest predicted-and-uncached
      blocks ride along in the same round trip (charged in full; see the
      module docstring's honesty rules).

    Eviction removes the coldest cached block (ties: larger block id first,
    so lower ids — often entry regions — are sticky and the order is
    deterministic).

    Args:
        inner: The disk graph to wrap.
        capacity_blocks: Maximum blocks held (0 disables caching).
        decay: Per-counted-read geometric heat decay in (0, 1].  The
            default (0.5) keeps heat close to recency — measured on the
            iospace sweep, slow decay (≥ 0.9) over-retains one-time-hot
            blocks and loses to a plain LRU; the cache's edge comes from
            the adjacency credit, not from frequency.
        adjacency_credit: Heat granted to each frontier-adjacent block —
            the blocks the walk plausibly (re-)enters next.  The default
            (1.0, a full access' worth) is what beats equal-capacity LRU
            on device reads in the sweep.
        prefetch_blocks: Max predicted blocks pulled per counted read
            (0 disables prefetch — the default, since prefetch can only
            trade device reads for round trips, never reduce reads).
    """

    def __init__(
        self,
        inner: DiskGraph,
        capacity_blocks: int,
        *,
        decay: float = 0.5,
        adjacency_credit: float = 1.0,
        prefetch_blocks: int = 0,
    ) -> None:
        super().__init__(inner)
        if capacity_blocks < 0:
            raise ValueError("capacity_blocks must be non-negative")
        if not 0.0 < decay <= 1.0:
            raise ValueError("decay must be in (0, 1]")
        if adjacency_credit < 0.0:
            raise ValueError("adjacency_credit must be non-negative")
        if prefetch_blocks < 0:
            raise ValueError("prefetch_blocks must be non-negative")
        self.capacity_blocks = capacity_blocks
        self.decay = decay
        self.adjacency_credit = adjacency_credit
        self.prefetch_blocks = prefetch_blocks
        self._cache: dict[int, DiskBlock] = {}
        self._heat: dict[int, float] = {}
        self._last_tick: dict[int, int] = {}
        self._tick = 0
        self._predicted: set[int] = set()
        self.prefetch_issued = 0

    # -- accounting ----------------------------------------------------------

    @property
    def cached_blocks(self) -> int:
        return len(self._cache)

    @property
    def memory_bytes(self) -> int:
        return self.capacity_blocks * self.fmt.block_bytes

    def clear(self) -> None:
        with self._lock:
            self._cache.clear()
            self._heat.clear()
            self._last_tick.clear()
            self._predicted.clear()
            self._tick = 0
            self.hits = 0
            self.misses = 0
            self.prefetch_issued = 0

    # -- heat bookkeeping ------------------------------------------------------

    def _decayed_heat(self, block_id: int) -> float:
        heat = self._heat.get(block_id, 0.0)
        if heat == 0.0:
            return 0.0
        age = self._tick - self._last_tick.get(block_id, self._tick)
        return heat * (self.decay ** age)

    def _bump(self, block_id: int, amount: float) -> None:
        self._heat[block_id] = self._decayed_heat(block_id) + amount
        self._last_tick[block_id] = self._tick

    def _admit(self, block: DiskBlock) -> None:
        if self.capacity_blocks == 0:
            return
        self._cache[block.block_id] = block
        while len(self._cache) > self.capacity_blocks:
            coldest = min(
                self._cache, key=lambda b: (self._decayed_heat(b), -b)
            )
            del self._cache[coldest]

    def _credit_adjacency(self, vertex_ids, by_block: dict[int, DiskBlock]):
        """Heat-credit the blocks the frontier's out-edges point into."""
        if self.adjacency_credit == 0.0 and self.prefetch_blocks == 0:
            return
        vertex_to_block = self.inner.vertex_to_block
        predicted: set[int] = set()
        for vid in vertex_ids:
            bid = int(vertex_to_block[int(vid)])
            block = by_block.get(bid)
            if block is None:
                continue
            try:
                pos = block.index_of(vid)
            except KeyError:
                continue
            nbrs = block.neighbors_of(pos)
            if len(nbrs) == 0:
                continue
            dest = np.unique(vertex_to_block[np.asarray(nbrs, dtype=np.int64)])
            for d in dest.tolist():
                d = int(d)
                if d != bid:
                    predicted.add(d)
        for bid in sorted(predicted):
            self._bump(bid, self.adjacency_credit)
        self._predicted = predicted

    def _pick_prefetch(self, exclude: set[int], incoming: int) -> list[int]:
        """Predicted blocks worth pulling, bounded by the cache room left
        after this round's ``incoming`` demand misses are admitted (a
        prefetch that immediately evicts demand data is pure waste)."""
        if self.prefetch_blocks == 0 or not self._predicted:
            return []
        candidates = [
            b for b in self._predicted
            if b not in self._cache and b not in exclude
        ]
        candidates.sort(key=lambda b: (-self._decayed_heat(b), b))
        room = max(self.capacity_blocks - len(self._cache) - incoming, 0)
        return candidates[: min(self.prefetch_blocks, room)]

    # -- reads ---------------------------------------------------------------

    def _partition(self, block_ids):
        self._tick += 1
        return super()._partition(block_ids)

    def _lookup(self, block_id: int) -> DiskBlock | None:
        block = self._cache.get(block_id)
        self._bump(block_id, 1.0)
        return block

    def read_counted(
        self,
        block_ids: Sequence[int],
        *,
        failed: dict[int, str] | None = None,
        frontier: Sequence[int] | None = None,
    ) -> tuple[dict[int, DiskBlock], int, int]:
        """Counted read; a frontier read also prefetches and credits.

        With ``frontier`` (the vertex ids the read serves), up to
        ``prefetch_blocks`` predicted blocks ride the misses' round trip and
        the frontier's out-neighbour blocks are heat-credited.  The fetch
        count includes the prefetch — it left the device in this round trip
        and must appear in the query's I/O bill — and the third element
        says how many of the fetched blocks it was.  A prefetched block that
        faults is dropped from ``failed``: nothing asked for it, so nothing
        retries it, and it is never cached.
        """
        if frontier is None:
            return super().read_counted(block_ids, failed=failed)
        with self._lock:
            found, missing = self._partition(block_ids)
            pulled = self._pick_prefetch(set(block_ids), len(missing))
            if missing or pulled:
                self._fetch(found, missing + pulled, failed)
            if pulled:
                self.prefetch_issued += len(pulled)
                if failed:
                    for bid in pulled:
                        failed.pop(bid, None)
            self._credit_adjacency(frontier, found)
        return found, len(missing) + len(pulled), len(pulled)


def select_hot_blocks(
    graph,
    vectors: np.ndarray,
    metric,
    entry_point: int,
    assignment: np.ndarray,
    capacity_blocks: int,
    *,
    num_sample_queries: int = 64,
    candidate_size: int = 64,
    seed: int = 0,
) -> tuple[int, ...]:
    """Pick the blocks to pin, by sampled-search visit counts per block.

    The DiskANN hot-cache procedure (Appendix J) at block granularity:
    jittered base vectors stand in for a query pool, greedy searches on the
    in-memory graph count per-vertex visits, and the counts aggregate over
    the layout ``assignment`` into per-block heat.  Deterministic in
    ``seed``; an offline build step whose time the builder charges to
    ``T_hot``, exactly like the vertex-granular cache.
    """
    if capacity_blocks <= 0:
        return ()
    visits, picked = sample_visits(
        graph, vectors, metric, entry_point,
        num_sample_queries=num_sample_queries,
        candidate_size=candidate_size, seed=seed,
    )
    visits[entry_point] += picked  # the entry block must be pinned
    assignment = np.asarray(assignment, dtype=np.int64)
    num_blocks = int(assignment.max()) + 1 if assignment.size else 0
    block_visits = np.zeros(num_blocks, dtype=np.int64)
    np.add.at(block_visits, assignment, visits)
    hot = np.argsort(-block_visits, kind="stable")[:capacity_blocks]
    return tuple(sorted(int(b) for b in hot))


def wrap_with_cache_strategy(
    disk_graph: DiskGraph,
    name: str,
    capacity_blocks: int,
    *,
    params=(),
    pinned_blocks=None,
):
    """Wrap a disk graph per the named cache strategy.

    ``params`` is the hashable tuple-of-pairs form from the config;
    ``pinned_blocks`` supplies the offline selection for ``"hot"`` (the
    builder computes it, the persist layer round-trips it).
    """
    if name not in CACHE_STRATEGY_NAMES:
        raise ValueError(
            f"unknown cache strategy {name!r}; expected one of "
            f"{CACHE_STRATEGY_NAMES}"
        )
    if name == "none" or capacity_blocks <= 0:
        return disk_graph
    if name == "lru":
        return CachedDiskGraph(disk_graph, capacity_blocks)
    if name == "hot":
        if pinned_blocks is None:
            raise ValueError(
                "the 'hot' cache strategy needs its pinned block set "
                "(built offline by the builder, persisted in meta.json)"
            )
        return PinnedBlockCache(
            disk_graph, tuple(pinned_blocks)[:capacity_blocks]
        )
    opts = cache_params_dict(params)
    return LocalityBlockCache(
        disk_graph, capacity_blocks,
        decay=float(opts.get("decay", 0.5)),
        adjacency_credit=float(opts.get("adjacency_credit", 1.0)),
        prefetch_blocks=int(opts.get("prefetch_blocks", 0)),
    )
