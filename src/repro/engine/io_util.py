"""The counted block read shared by the disk search engines.

Engines must charge a query only for the blocks that actually left the
device — with a block cache in front of the disk graph, some of a batch's
blocks are served from memory.  Every read goes through one seam method,
``disk_graph.read_counted``, which reports its own fetch and prefetch
counts, and :func:`counted_read_blocks_of` charges every attempt by one
rule (see :mod:`repro.engine.cache_strategies`).

With a :class:`~repro.engine.resilience.RetryPolicy`, failed or corrupt
blocks are retried (each retry a fresh, fully charged round-trip that
reads only the failures and predicts nothing) and blocks that stay
unreadable are abandoned — absent from the returned list and counted in
``stats.fault`` — so the engines can skip the affected vertices rather than
crash.  Without one, the first fault raises.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .cost import QueryStats
from .resilience import RetryPolicy, settle_attempt


def counted_read_blocks_of(disk_graph, vertex_ids: Sequence[int],
                           stats: QueryStats,
                           resilience: RetryPolicy | None = None):
    """Fetch the blocks holding ``vertex_ids``; charge exactly the misses.

    Returns the blocks that arrived, in first-occurrence order of the
    vertices that asked for them.
    """
    # Beam-sized id lists: a dict-based dedup beats ``np.unique`` here.
    wanted = list(dict.fromkeys(
        disk_graph.vertex_to_block[np.asarray(vertex_ids, dtype=np.int64)]
        .tolist()
    ))
    found: dict = {}
    remaining, frontier, attempt = wanted, vertex_ids, 0
    while True:
        failed = None if resilience is None else {}
        got, fetched, prefetched = disk_graph.read_counted(
            remaining, failed=failed, frontier=frontier
        )
        if fetched:
            stats.round_trip_blocks.append(fetched)
        stats.prefetch_blocks += prefetched
        stats.block_cache_hits += len(remaining) - (fetched - prefetched)
        found.update(got)
        if resilience is None or not settle_attempt(
            disk_graph.device, remaining, failed, attempt, stats, resilience
        ):
            break
        attempt += 1
        remaining, frontier = sorted(failed), None
    return [found[bid] for bid in wanted if bid in found]
