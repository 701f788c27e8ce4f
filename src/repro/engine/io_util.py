"""Counted block reads shared by the disk search engines.

Engines must charge a query only for the blocks that actually left the
device — with an LRU block cache in front of the disk graph, some of a
batch's blocks are served from memory.  Reading through this helper records
the read's own fetch count as the round-trip's size and credits the remainder
as block-cache hits.

With a :class:`~repro.engine.resilience.RetryPolicy`, the read goes through
the resilient path instead: failed or corrupt blocks are retried (each retry
a fresh, fully charged round-trip) and blocks that stay unreadable are
abandoned — absent from the returned list and counted in ``stats.fault`` —
so the engines can skip the affected vertices rather than crash.
"""

from __future__ import annotations

from typing import Sequence

from .cost import QueryStats
from .resilience import RetryPolicy, resilient_read_blocks_of


def counted_read_blocks_of(disk_graph, vertex_ids: Sequence[int],
                           stats: QueryStats,
                           resilience: RetryPolicy | None = None):
    """Fetch the blocks holding ``vertex_ids``; charge exactly the misses."""
    if resilience is not None:
        return resilient_read_blocks_of(disk_graph, vertex_ids, stats,
                                        resilience)
    # The read reports its own fetch count, so per-query accounting does not
    # depend on exclusive ownership of the device counters (queries may
    # interleave on one device under the batched executor).
    blocks, fetched = disk_graph.read_blocks_of_counted(vertex_ids)
    # A locality cache may have pulled predicted blocks in the same round
    # trip; they are inside ``fetched`` (charged in full) and are attributed
    # — not discounted — via the prefetch counter.
    taker = getattr(disk_graph, "take_prefetched", None)
    prefetched = taker() if taker is not None else 0
    if fetched:
        stats.round_trip_blocks.append(fetched)
    stats.prefetch_blocks += prefetched
    stats.block_cache_hits += len(blocks) - (fetched - prefetched)
    return blocks
