"""Starling's block search on the shuffled disk-resident graph (§5.1, Alg. 2).

Where the baseline uses only the target vertex of every loaded block, block
search examines the whole block: it computes exact distances to every vertex
record the I/O already paid for, keeps the target plus the top-((ε−1)·σ)
closest co-located vertices (block pruning), folds them into the result set,
and explores all of their neighbour IDs through PQ routing.  Combined with a
block-shuffled layout (high OR(G)) this raises the vertex utilization ratio ξ
and cuts the number of disk I/Os.

The third optimization — the I/O-and-computation pipeline — is modelled in
the cost layer: results produced by this engine carry ``pipelined=True`` so
their simulated latency overlaps T_io with T_comp (see
:meth:`repro.engine.cost.QueryStats.latency_us`).
"""

from __future__ import annotations

import math

import numpy as np

from ..quantization.pq import ProductQuantizer
from ..storage.disk_graph import DiskGraph
from ..vectors.metrics import Metric
from .cost import QueryStats
from .frontier import CandidateSet, ResultSet, ordered_unique
from .early_stop import AdaptiveEarlyStopper
from .io_util import counted_read_blocks_of
from .results import SearchResult


class BlockSearchEngine:
    """Block-granularity disk search (Starling's strategy).

    Args:
        disk_graph: Disk-resident graph, ideally with a shuffled layout.
        pq: Trained Product Quantizer with the dataset's short codes.
        metric: Full-precision distance.
        entry_provider: Entry-point source (the in-memory navigation graph).
        beam_width: W — blocks fetched per round-trip.
        pruning_ratio: σ — fraction of the (ε−1) non-target vertices whose
            neighbours are explored (paper's optimum: 0.3).  σ = 0 degenerates
            to the baseline's target-only behaviour (App. K).
        use_pq_routing: Route by PQ distance; False mirrors Fig. 11(c).
        pipeline: Model the I/O-and-computation pipeline (§5.1).
        num_entry_points: Entry points requested from the provider.
        resilience: Retry/hedging policy for faulty devices; ``None`` keeps
            the zero-overhead fast read path.  With a policy, blocks that
            stay unreadable are skipped (their target vertices abandoned,
            the result flagged ``degraded``) instead of raising.
        fold_coresident: Block-aware re-entry suppression — the search-side
            half of the bamg layout strategy's contract.  When a round's
            block is in memory, every *candidate-set* member co-resident in
            it is folded immediately (exact distance, result entry,
            neighbour expansion, visited mark) instead of being popped in a
            later round and re-fetching a block this round already paid
            for.  Off by default: it changes the traversal order, so the
            default configuration stays bit-identical to earlier releases.
    """

    name = "starling"

    def __init__(
        self,
        disk_graph: DiskGraph,
        pq: ProductQuantizer,
        metric: Metric,
        entry_provider,
        *,
        beam_width: int = 4,
        pruning_ratio: float = 0.3,
        use_pq_routing: bool = True,
        pipeline: bool = True,
        num_entry_points: int = 4,
        early_termination: int | None = None,
        resilience=None,
        fold_coresident: bool = False,
    ) -> None:
        if beam_width <= 0:
            raise ValueError("beam_width must be positive")
        if not 0.0 <= pruning_ratio <= 1.0:
            raise ValueError("pruning_ratio must be in [0, 1]")
        self.disk_graph = disk_graph
        self.pq = pq
        self.metric = metric
        self.entry_provider = entry_provider
        self.beam_width = beam_width
        self.pruning_ratio = pruning_ratio
        self.use_pq_routing = use_pq_routing
        self.pipeline = pipeline
        self.num_entry_points = num_entry_points
        self.resilience = resilience
        self.fold_coresident = fold_coresident
        if early_termination is not None and early_termination < 1:
            raise ValueError("early_termination patience must be >= 1")
        self.early_termination = early_termination
        #: optional :class:`~repro.engine.arena.ArenaPool` installed by the
        #: batched executor's zero-copy plane.  When set, each round's exact-
        #: distance kernel input is gathered into a reused arena instead of a
        #: freshly allocated ``np.concatenate`` — same contiguous layout and
        #: values, so the kernel output is bit-identical.
        self.arena_pool = None

    # -- helpers ---------------------------------------------------------------

    def _routing_distances(
        self,
        query: np.ndarray,
        table: np.ndarray | None,
        ids: np.ndarray,
        stats: QueryStats,
    ) -> np.ndarray:
        if self.use_pq_routing:
            stats.pq_distances += int(ids.size)
            return self.pq.distances_from_table(table, ids)
        blocks = counted_read_blocks_of(
            self.disk_graph, [int(v) for v in ids], stats, self.resilience
        )
        lookup: dict[int, np.ndarray] = {}
        for block in blocks:
            stats.vertices_loaded += len(block)
            for pos, vid in enumerate(block.vertex_ids):
                lookup[int(vid)] = block.vectors[pos]
        dists = np.empty(ids.size, dtype=np.float64)
        for i, vid in enumerate(ids):
            vector = lookup.get(int(vid))
            if vector is None:
                # Block unreadable: deprioritize instead of aborting.
                stats.fault.vertices_abandoned += 1
                dists[i] = np.inf
                continue
            dists[i] = self.metric.distance(query, vector)
            stats.exact_distances += 1
            stats.vertices_used += 1
        return dists

    def _seed(
        self,
        query: np.ndarray,
        candidate_size: int,
        stats: QueryStats,
        *,
        table: np.ndarray | None = None,
        walk: tuple[np.ndarray, int] | None = None,
        track_kicked: bool = False,
        candidates: CandidateSet | None = None,
    ) -> tuple[CandidateSet, ResultSet, np.ndarray | None]:
        """Seed one query's candidate and result sets from its entry walk.

        ``track_kicked`` is the range-search driver's (§5.3); a top-k
        search never reads the kicked set.  ``candidates`` is an empty set
        to seed in place of a fresh one — the wave engine passes a row of
        its :class:`~repro.engine.frontier.FrontierPlane`.
        """
        if self.use_pq_routing:
            # A precomputed ADC table (from the batched executor's shared
            # lookup_tables build) is bit-identical to building it here.
            if table is None:
                table = self.pq.lookup_table(query)
        else:
            table = None
        # Likewise a precomputed entry walk (the wave engine's lockstep
        # round 0): ``(entry ids, distance computations)``.
        if walk is None:
            walk = self.entry_provider.entry_walk(
                query, self.num_entry_points
            )
        entries, walk_distances = walk
        # The navigation-graph walk is in-memory compute, not I/O.
        stats.exact_distances += walk_distances
        if candidates is None:
            candidates = CandidateSet(
                candidate_size,
                track_kicked=track_kicked,
                max_vertex_id=self.disk_graph.num_vertices - 1,
            )
        results = ResultSet()
        ids = np.asarray(entries, dtype=np.int64)
        dists = self._routing_distances(query, table, ids, stats)
        for vid, d in zip(ids.tolist(), dists.tolist()):
            candidates.push(vid, d)
        return candidates, results, table

    # -- round primitives --------------------------------------------------------
    #
    # One lockstep round of Algorithm 2 decomposes into (a) reading the
    # frontier's blocks, (b) one fused exact-distance kernel call, (c) the
    # per-block target/pruning selection below, and (d) the PQ-routed
    # frontier expansion.  (c) and (d) are factored out so the serial
    # ``_drain`` and the multi-query :class:`~repro.engine.wave_search.
    # WaveSearchEngine` run literally the same selection code — their
    # per-query outcomes are identical by construction, not by parallel
    # maintenance of two copies.

    def _select_round(
        self,
        round_blocks,
        targets_by_block: dict[int, list[int]],
        all_dists: list[float],
        keep_quota: int,
    ) -> tuple[
        list[int], list[float], list[int], list[float], list, int, int
    ]:
        """Target extraction + block pruning for one round's blocks.

        ``all_dists`` holds the round's exact distances, concatenated in
        block order.  Returns ``(res_ids, res_dists, keep_ids, keep_dists,
        explore_parts, loaded, used)`` where ``loaded`` counts every vertex
        whose distance was computed (feeds ``vertices_loaded`` *and*
        ``exact_distances``) and ``used`` counts targets plus kept
        co-located vertices (feeds ``vertices_used``).
        """
        res_ids: list[int] = []
        res_dists: list[float] = []
        keep_ids: list[int] = []
        keep_dists: list[float] = []
        explore_parts: list[np.ndarray] = []
        loaded = 0
        used = 0
        offset = 0
        for block in round_blocks:
            size = len(block)
            loaded += size
            targets = targets_by_block[block.block_id]
            dists = all_dists[offset:offset + size]
            offset += size
            ids = block.ids_list()
            neighbors_of = block.neighbors_of

            # Targets live in this block by construction.
            index_of = block.index_of
            if len(targets) == 1:
                target_pos = [index_of(targets[0])]
            else:
                target_pos = sorted({index_of(v) for v in targets})
            for pos in target_pos:
                res_ids.append(ids[pos])
                res_dists.append(dists[pos])
                explore_parts.append(neighbors_of(pos))

            # Block pruning: examine only the top-((ε−1)·σ) non-target
            # vertices; distant co-located vertices are discarded early.
            rest = list(range(size))
            for pos in reversed(target_pos):
                del rest[pos]
            keep = min(keep_quota, len(rest))
            used += len(target_pos) + keep
            if keep:
                # Stable sort by distance == stable argsort: ties keep
                # their in-block order.
                rest.sort(key=dists.__getitem__)
                chosen = rest[:keep]
                keep_ids.extend([ids[i] for i in chosen])
                keep_dists.extend([dists[i] for i in chosen])
                explore_parts.extend([neighbors_of(i) for i in chosen])
        return (
            res_ids, res_dists, keep_ids, keep_dists, explore_parts,
            loaded, used,
        )

    def _fold_coresident_targets(
        self,
        candidates: CandidateSet,
        round_blocks,
        targets_by_block: dict[int, list[int]],
    ) -> None:
        """Promote co-resident candidate-set members to this round's targets.

        Every in-set unvisited candidate living in a block the round has
        already fetched is consumed *now* — it joins ``targets_by_block``
        (so :meth:`_select_round` gives it an exact distance, a result-set
        entry and a neighbour expansion, exactly as a later pop would) and
        is marked visited so it never triggers a re-read of a block that
        was in memory this round.  Iteration follows the candidate set's
        ``(dist, id)`` order, so the fold is deterministic.
        """
        pending = candidates.unvisited_members()
        if pending.size == 0:
            return
        in_round = {b.block_id for b in round_blocks}
        for vid, bid in zip(
            pending.tolist(), self.disk_graph.blocks_of(pending).tolist()
        ):
            if bid in in_round:
                targets_by_block[bid].append(vid)
                candidates.mark_visited(vid)

    def _expand_frontier(
        self,
        query: np.ndarray,
        table: np.ndarray | None,
        candidates: CandidateSet,
        explore_parts: list,
        stats: QueryStats,
    ) -> None:
        """Push one round's explored neighbour IDs through PQ routing."""
        if not explore_parts:
            return
        explore = np.concatenate(explore_parts)
        # One vectorized freshness mask, then insertion-ordered dedup
        # shared with beam search (one helper, one order).  Filtering
        # first shrinks the dedup input; a duplicate's seen-status is the
        # same at every occurrence, so the order of the two steps does not
        # change the output.
        fresh = explore[candidates.unseen(explore)]
        if fresh.size:
            ids = ordered_unique(fresh).astype(np.int64)
            route = self._routing_distances(query, table, ids, stats)
            candidates.push_many(ids, route)

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
        """Answer one ANNS query per Algorithm 2.

        ``stopper`` overrides the engine's own adaptive early termination;
        the serving layer passes a :class:`DeadlineStopper` here.  Stoppers
        exposing ``bind`` get the live per-query stats attached before the
        walk starts.
        """
        query = np.asarray(query, dtype=np.float32)
        stats = QueryStats(pipelined=self.pipeline)
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
        pool = self.arena_pool
        arena = pool.acquire(self.disk_graph.fmt) if pool is not None else None
        try:
            self._drain(
                query, candidates, results, table, stats,
                stopper=stopper, arena=arena,
            )
        finally:
            if pool is not None:
                pool.release(arena)

    def _drain(
        self,
        query: np.ndarray,
        candidates: CandidateSet,
        results: ResultSet,
        table: np.ndarray | None,
        stats: QueryStats,
        *,
        stopper: AdaptiveEarlyStopper | None,
        arena,
    ) -> None:
        dg = self.disk_graph
        beam_width = self.beam_width
        keep_quota = math.ceil(
            (dg.fmt.vertices_per_block - 1) * self.pruning_ratio
        )
        # Fused fast path for the plain disk graph: one vertex→block
        # gather serves both the deduplicated read batch and the target
        # grouping (the generic helper and the per-vertex ``block_of``
        # loop each redo the lookup).  Read order and accounting match
        # ``counted_read_blocks_of`` exactly: first-occurrence block
        # order, one round-trip, zero cache hits — and plain reads raise
        # on failure, so no block can be missing.
        fast = self.resilience is None and type(dg) is DiskGraph
        if fast:
            vertex_to_block = dg.vertex_to_block
            read_blocks = dg.read_blocks
            round_trip_append = stats.round_trip_blocks.append
        metric_kernel = self.metric.distances_kernel(query)
        # Per-round counter updates accumulate in locals and flush to
        # ``stats`` in the ``finally`` — one attribute store per drain
        # instead of several per block, with accurate counts even when a
        # fault aborts the drain mid-round.
        hops = vertices_loaded = exact_distances = vertices_used = 0
        try:
            while candidates.has_unvisited():
                if stopper is not None and stopper.update(results):
                    break
                batch = candidates.pop_unvisited(beam_width)
                hops += len(batch)
                targets_by_block: dict[int, list[int]] = {}
                if fast:
                    bids = vertex_to_block[batch].tolist()
                    round_blocks = read_blocks(list(dict.fromkeys(bids)))
                    round_trip_append(len(round_blocks))
                    for vid, bid in zip(batch, bids):
                        targets_by_block.setdefault(bid, []).append(vid)
                else:
                    blocks = counted_read_blocks_of(
                        dg, batch, stats, self.resilience
                    )
                    for vid in batch:
                        targets_by_block.setdefault(
                            dg.block_of(vid), []
                        ).append(vid)
                    by_block = {b.block_id: b for b in blocks}
                    for block_id, targets in targets_by_block.items():
                        if block_id not in by_block:
                            # Unreadable after retries: skip these targets,
                            # keep draining the rest of the frontier.
                            stats.fault.vertices_abandoned += len(targets)
                    round_blocks = blocks
                if self.fold_coresident and round_blocks:
                    self._fold_coresident_targets(
                        candidates, round_blocks, targets_by_block
                    )

                # Exact distances to every vertex of every block in the
                # round — the I/O is already paid, the computation is what
                # block pruning bounds.  One fused kernel call for the whole
                # round; the L2 kernel is row-wise consistent, so the
                # per-block slices equal what per-block calls would produce.
                all_dists: list[float] = []
                if round_blocks:
                    if arena is not None:
                        # Zero-copy plane: gather the round's vectors into a
                        # reused arena (no per-round matrix allocation; the
                        # arena is held for the whole drain and reset each
                        # round) and run the kernel against the arena's
                        # scratch workspace, so the steady-state round makes
                        # no data allocations at all.  The rows are the
                        # blocks' kernel-dtype matrices — the same promotion
                        # the metric applies to the concatenate below — so
                        # the fused kernel sees identical input either way.
                        rows = arena.load_rows(
                            [b.kernel_vectors() for b in round_blocks]
                        )
                        all_dists = metric_kernel(
                            rows, arena.scratch_rows(rows.shape[0])
                        ).tolist()
                    else:
                        all_dists = metric_kernel(
                            np.concatenate([b.vectors for b in round_blocks])
                            if len(round_blocks) > 1
                            else round_blocks[0].vectors,
                        ).tolist()
                # Per-block work is ε-sized (~a dozen vertices), where plain
                # Python lists beat numpy call overhead, so the selection
                # runs on the ``tolist()`` view; the result-set fold and the
                # visited-push are deferred to one bulk call per round
                # (min-merge is order-independent and the pushed ids are
                # unique across the round, so the per-block and per-round
                # folds are outcome-identical).
                (
                    res_ids, res_dists, keep_ids, keep_dists,
                    explore_parts, loaded, used,
                ) = self._select_round(
                    round_blocks, targets_by_block, all_dists, keep_quota
                )
                vertices_loaded += loaded
                exact_distances += loaded
                vertices_used += used
                if keep_ids:
                    res_ids.extend(keep_ids)
                    res_dists.extend(keep_dists)
                    # They are in memory now; never fetch them again.
                    candidates.push_visited_many(keep_ids, keep_dists)
                if res_ids:
                    results.add_many(res_ids, res_dists)

                self._expand_frontier(
                    query, table, candidates, explore_parts, stats
                )
        finally:
            stats.hops += hops
            stats.vertices_loaded += vertices_loaded
            stats.exact_distances += exact_distances
            stats.vertices_used += vertices_used
