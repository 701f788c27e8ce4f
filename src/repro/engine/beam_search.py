"""DiskANN-style vertex search on the disk-resident graph (the baseline).

The classic strategy of Appendix B: the candidate set is ordered by PQ
approximate distance; each step pops a beam of the closest unvisited
candidates, reads *their* blocks from disk (one batched round-trip — the
central assumption of §7), uses **only the target vertex** of each block
(ξ·ε = 1), computes its exact distance, and pushes its neighbours by PQ
distance.  A hot-vertex cache can serve targets without disk I/O.
"""

from __future__ import annotations

import numpy as np

from ..quantization.pq import ProductQuantizer
from ..storage.disk_graph import DiskGraph
from ..vectors.metrics import Metric
from .block_search import BlockSearchEngine
from .cache import HotVertexCache
from .cost import QueryStats
from .frontier import CandidateSet, ResultSet, ordered_unique
from .early_stop import AdaptiveEarlyStopper
from .io_util import counted_read_blocks_of
from .results import SearchResult


class BeamSearchEngine:
    """Vertex-granularity disk search (DiskANN's strategy).

    Args:
        disk_graph: The disk-resident graph index.
        pq: Trained Product Quantizer holding the dataset's short codes.
        metric: Full-precision distance.
        entry_provider: Entry-point source (fixed medoid for the baseline).
        cache: Optional hot-vertex cache.
        beam_width: W — candidates expanded (and blocks fetched) per
            round-trip.
        use_pq_routing: Route by PQ approximate distance (Fig. 11(c)); when
            False, every neighbour's exact distance is fetched from disk
            before it can enter the candidate set.
        num_entry_points: How many entry points to request per query.
        resilience: Retry/hedging policy for faulty devices; ``None`` keeps
            the zero-overhead fast read path.  With a policy, vertices whose
            blocks stay unreadable are skipped (the search continues and the
            result is flagged ``degraded``) instead of raising.
    """

    #: label used by benches and tables
    name = "diskann"

    def __init__(
        self,
        disk_graph: DiskGraph,
        pq: ProductQuantizer,
        metric: Metric,
        entry_provider,
        *,
        cache: HotVertexCache | None = None,
        beam_width: int = 4,
        use_pq_routing: bool = True,
        num_entry_points: int = 1,
        early_termination: int | None = None,
        resilience=None,
    ) -> None:
        if beam_width <= 0:
            raise ValueError("beam_width must be positive")
        self.disk_graph = disk_graph
        self.pq = pq
        self.metric = metric
        self.entry_provider = entry_provider
        self.cache = cache
        self.beam_width = beam_width
        self.use_pq_routing = use_pq_routing
        self.num_entry_points = num_entry_points
        self.resilience = resilience
        if early_termination is not None and early_termination < 1:
            raise ValueError("early_termination patience must be >= 1")
        self.early_termination = early_termination

    # -- helpers ---------------------------------------------------------------

    # One router and one seed for both engines: block search's are the
    # general form (its seed also takes a precomputed walk and a plane row).
    _routing_distances = BlockSearchEngine._routing_distances
    _seed = BlockSearchEngine._seed

    # -- main loop ---------------------------------------------------------------

    def search(
        self,
        query: np.ndarray,
        k: int,
        candidate_size: int,
        *,
        table: np.ndarray | None = None,
        stopper=None,
    ) -> SearchResult:
        """Answer one ANNS query; ``candidate_size`` is the paper's Γ.

        ``stopper`` overrides the engine's own adaptive early termination
        (see :class:`~repro.engine.early_stop.DeadlineStopper`).
        """
        query = np.asarray(query, dtype=np.float32)
        stats = QueryStats()
        candidates, results, table = self._seed(
            query, candidate_size, stats, table=table
        )
        if stopper is None:
            stopper = (
                AdaptiveEarlyStopper(k, self.early_termination)
                if self.early_termination is not None else None
            )
        elif hasattr(stopper, "bind"):
            stopper.bind(stats)
        self._run(query, candidates, results, table, stats, stopper=stopper)
        ids, dists = results.top_k(k)
        return SearchResult(ids, dists, stats, degraded=stats.fault.degraded)

    def _run(
        self,
        query: np.ndarray,
        candidates: CandidateSet,
        results: ResultSet,
        table: np.ndarray | None,
        stats: QueryStats,
        *,
        stopper: AdaptiveEarlyStopper | None = None,
    ) -> None:
        """Drain the candidate set (shared with the range-search driver)."""
        while candidates.has_unvisited():
            if stopper is not None and stopper.update(results):
                break
            batch = candidates.pop_unvisited(self.beam_width)
            stats.hops += len(batch)
            served: list[tuple[int, np.ndarray, np.ndarray]] = []
            misses: list[int] = []
            for vid in batch:
                entry = self.cache.get(vid) if self.cache is not None else None
                if entry is not None:
                    stats.cache_hits += 1
                    served.append((vid, entry[0], entry[1]))
                else:
                    misses.append(vid)
            if misses:
                blocks = counted_read_blocks_of(
                    self.disk_graph, misses, stats, self.resilience
                )
                for block in blocks:
                    stats.vertices_loaded += len(block)
                by_block = {b.block_id: b for b in blocks}
                for vid in misses:
                    block = by_block.get(self.disk_graph.block_of(vid))
                    if block is None:
                        # Unreadable after retries: skip the vertex, keep
                        # searching from the rest of the frontier.
                        stats.fault.vertices_abandoned += 1
                        continue
                    pos = block.index_of(vid)
                    served.append(
                        (vid, block.vectors[pos], block.neighbors_of(pos))
                    )
                    # The baseline discards every non-target vertex in a block.
                    stats.vertices_used += 1

            if not served:
                continue
            # One batched exact-distance evaluation over the beam's served
            # vectors (mirrors block search's per-block kernel).
            vecs = np.stack([vector for _, vector, _ in served])
            dists = self.metric.distances(query, vecs)
            stats.exact_distances += len(served)
            results.add_many(
                np.asarray([vid for vid, _, _ in served], dtype=np.int64),
                dists,
            )
            explore = np.concatenate([nbrs for _, _, nbrs in served])
            # One vectorized freshness mask, then insertion-ordered dedup
            # shared with block search so frontier traces are comparable
            # across engines (seen-filter and dedup commute: a duplicate's
            # seen-status is the same at every occurrence).
            fresh = explore[candidates.unseen(explore)]
            if fresh.size:
                ids = ordered_unique(fresh).astype(np.int64)
                route = self._routing_distances(query, table, ids, stats)
                candidates.push_many(ids, route)
