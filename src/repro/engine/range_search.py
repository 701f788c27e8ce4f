"""Range-search (RS) drivers for the disk engines (§5.3).

Two strategies, matching the paper's comparison:

- :func:`incremental_range_search` — Starling's algorithm: search with a
  candidate set C, collect exact-distance results R and the kicked set P;
  whenever |R ∩ radius| / |C| ≥ φ (Eq. 7) double C, re-admit the closer
  kicked vertices, and *resume* (visited state preserved — no vertex is
  re-read from disk).
- :func:`repeated_anns_range_search` — the DiskANN baseline from the
  NeurIPS'21 competition: call ANNS with doubling k until the farthest
  returned result falls outside the radius.  Every restart re-traverses the
  same path and pays its disk I/Os again, which is exactly the overhead
  Fig. 4/5 exposes.

Both drivers work against any engine exposing the ``_seed``/``_run``/
``search`` protocol (BeamSearchEngine and BlockSearchEngine do).
"""

from __future__ import annotations

import numpy as np

from .cost import QueryStats
from .results import RangeResult


def incremental_range_search(
    engine,
    query: np.ndarray,
    radius: float,
    *,
    initial_candidate_size: int = 32,
    ratio_threshold: float = 0.5,
    max_candidate_size: int = 4096,
    table: np.ndarray | None = None,
) -> RangeResult:
    """Starling's RS: dynamic candidate-set doubling with a kicked set.

    Args:
        engine: A disk search engine.
        query: Query vector.
        radius: Distance threshold r; results satisfy ``dist <= radius``.
        initial_candidate_size: Starting |C|.
        ratio_threshold: φ of Eq. 7 (paper's optimum: 0.5).
        max_candidate_size: Safety cap on |C| growth.
        table: Optional precomputed ADC table for the query (the batched
            executor's shared build); ``None`` builds it in ``_seed``.
    """
    if not 0.0 < ratio_threshold <= 1.0:
        raise ValueError("ratio_threshold must be in (0, 1]")
    query = np.asarray(query, dtype=np.float32)
    stats = QueryStats(pipelined=getattr(engine, "pipeline", False))
    candidates, results, table = engine._seed(
        query, initial_candidate_size, stats, table=table, track_kicked=True
    )
    while True:
        engine._run(query, candidates, results, table, stats)
        in_range, _ = results.within(radius)
        ratio = len(in_range) / candidates.capacity
        if ratio < ratio_threshold or candidates.capacity >= max_candidate_size:
            break
        # Most candidates were results: widen the search and resume.
        candidates.grow(min(candidates.capacity * 2, max_candidate_size))
        kicked, candidates.kicked = candidates.kicked, []
        candidates.readmit(kicked)
        if not candidates.has_unvisited():
            break  # nothing left to explore: the frontier is exhausted
    ids, dists = results.within(radius)
    return RangeResult(ids, dists, stats,
                       final_candidate_size=candidates.capacity,
                       degraded=stats.fault.degraded)


def repeated_anns_range_search(
    engine,
    query: np.ndarray,
    radius: float,
    *,
    initial_k: int = 16,
    max_k: int = 8192,
    candidate_headroom: float = 1.25,
    table: np.ndarray | None = None,
) -> RangeResult:
    """The baseline RS: repeat ANNS with doubling k (wasteful on purpose).

    Each round runs a *fresh* top-k search with candidate size
    ``k · candidate_headroom``; all disk I/Os of every round accumulate.
    Stops once the k-th result lies beyond the radius (so no further result
    can be missing) or k reaches ``max_k``.
    """
    if initial_k <= 0:
        raise ValueError("initial_k must be positive")
    query = np.asarray(query, dtype=np.float32)
    total = QueryStats(pipelined=getattr(engine, "pipeline", False))
    k = initial_k
    ids = np.empty(0, dtype=np.int64)
    dists = np.empty(0, dtype=np.float64)
    while True:
        result = engine.search(
            query, k, max(int(k * candidate_headroom), initial_k), table=table
        )
        total.merge(result.stats)
        within = result.dists <= radius
        ids, dists = result.ids[within], result.dists[within]
        got_all = len(result.ids) < k or not within.all()
        if got_all or k >= max_k:
            break
        total.restarts += 1
        k *= 2
    return RangeResult(ids, dists, total, final_candidate_size=k,
                       degraded=total.fault.degraded)
