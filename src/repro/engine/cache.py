"""DiskANN's hot-vertex cache (baseline in-memory strategy, Appendix J).

DiskANN samples a pool of queries offline, runs disk-graph searches, counts
how often each vertex is visited, and pins the top-π fraction of vertices
(full vector + neighbour IDs) in memory.  A search that lands on a cached
vertex pays no disk I/O for it.  The paper contrasts this with Starling's
in-memory navigation graph and finds the navigation graph both cheaper in
memory and faster (Fig. 8(b), App. J).
"""

from __future__ import annotations

import numpy as np

from ..graphs.adjacency import AdjacencyGraph
from ..vectors.metrics import Metric


class HotVertexCache:
    """In-memory cache of (vector, neighbour IDs) for frequently hit vertices."""

    def __init__(
        self,
        vertex_ids: np.ndarray,
        vectors: np.ndarray,
        neighbor_lists: list[np.ndarray],
    ) -> None:
        self._entries: dict[int, tuple[np.ndarray, np.ndarray]] = {
            int(vid): (vectors[i], neighbor_lists[i])
            for i, vid in enumerate(vertex_ids)
        }
        self._vector_bytes = int(vectors.nbytes)
        self._edge_bytes = int(sum(a.nbytes for a in neighbor_lists))
        self._id_bytes = int(np.asarray(vertex_ids).nbytes)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, vertex_id: int) -> bool:
        return vertex_id in self._entries

    def get(self, vertex_id: int) -> tuple[np.ndarray, np.ndarray] | None:
        """Cached (vector, neighbours) or None — never touches the disk."""
        return self._entries.get(vertex_id)

    @property
    def memory_bytes(self) -> int:
        """C_hot of Eq. 11: vectors + neighbour IDs + the id map."""
        return self._vector_bytes + self._edge_bytes + self._id_bytes


def sample_visits(
    graph: AdjacencyGraph,
    vectors: np.ndarray,
    metric: Metric,
    entry_point: int,
    *,
    num_sample_queries: int,
    candidate_size: int,
    seed: int,
) -> tuple[np.ndarray, int]:
    """Per-vertex visit counts of greedy searches on the in-memory graph
    for jittered base vectors (DiskANN's sampled query pool), and how many
    searches ran; deterministic in ``seed``.  Both hot caches draw from it."""
    from ..graphs.search import greedy_search  # local import: avoid cycle

    n = graph.num_vertices
    rng = np.random.default_rng(seed)
    visits = np.zeros(n, dtype=np.int64)
    pick = rng.choice(n, size=min(num_sample_queries, n), replace=False)
    scale = np.abs(vectors[pick].astype(np.float32)).mean() * 0.05 + 1e-6
    for vid in pick:
        query = vectors[vid].astype(np.float32) + rng.normal(
            0.0, scale, size=vectors.shape[1]
        ).astype(np.float32)
        _, _, trace = greedy_search(
            graph, vectors, metric, query, [entry_point], candidate_size,
            collect_visited=True,
        )
        visits[trace.visited] += 1
    return visits, len(pick)


def build_hot_vertex_cache(
    graph: AdjacencyGraph,
    vectors: np.ndarray,
    metric: Metric,
    entry_point: int,
    *,
    cache_ratio: float = 0.06,
    num_sample_queries: int = 64,
    candidate_size: int = 64,
    seed: int = 0,
) -> HotVertexCache:
    """Sample queries (:func:`sample_visits`), count vertex visits, cache
    the hottest π·|V| vertices.

    This is an offline build step; the paper notes it is slow precisely
    because the real system must do it on disk — our builder charges its
    time into T_hot of Eq. 9.
    """
    if not 0.0 < cache_ratio <= 1.0:
        raise ValueError("cache_ratio must be in (0, 1]")
    n = graph.num_vertices
    visits, _ = sample_visits(
        graph, vectors, metric, entry_point,
        num_sample_queries=num_sample_queries,
        candidate_size=candidate_size, seed=seed,
    )
    # The entry point is always hit first; make sure it is cached.
    visits[entry_point] += num_sample_queries

    num_cached = max(int(round(cache_ratio * n)), 1)
    hot = np.argsort(-visits, kind="stable")[:num_cached]
    hot = np.sort(hot)
    return HotVertexCache(
        hot,
        np.ascontiguousarray(vectors[hot]),
        [graph.neighbors(int(v)).copy() for v in hot],
    )
