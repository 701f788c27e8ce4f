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

**One driver.**  Every block search runs the lockstep round loop of
:meth:`BlockSearchEngine._rounds`: :meth:`~BlockSearchEngine.search_wave`
advances a whole wave of queries through it, :meth:`~BlockSearchEngine.search`
is a wave of one, and range search (§5.3) resumes one already-seeded query
through it via :meth:`~BlockSearchEngine._run`.  Scheduling chooses nothing
but the wave's *width* (the executor runs a batch as one wave; see
:mod:`repro.engine.batch`), and the width chooses the form of a round's
work: a narrow wave runs the per-query
primitives below; a wide one (``len(queries) >= LOCKSTEP_MIN_WAVE``, the
entry walk's constant and the one wide-wave switch) keeps its candidate sets
in a :class:`~repro.engine.frontier.FrontierPlane` and runs each step as one
array pass over the wave (:class:`_BlockPlane`).  Per round the loop

1. checks every live query's stopper, then pops the frontier
   (``beam_width`` closest unvisited candidates) of every query still live —
   per query, or as one masked scan over the plane that hands back flat
   ``(row, vertex)`` items;
2. reads the frontier's blocks.  This is the loop's one fork, chosen per
   segment (:func:`_coalesces`): over a plain
   :class:`~repro.storage.disk_graph.DiskGraph` with no
   :class:`~repro.engine.resilience.RetryPolicy` the wave's requests there
   are deduplicated into **one** coalesced read (a block several queries
   want is read and decoded once; each query is still charged its own
   unique blocks, the saving shows only in
   :class:`~repro.engine.cost.WaveStats`); behind a cache wrapper or a retry
   policy each live query reads its own blocks through
   :func:`~repro.engine.io_util.counted_read_blocks_of` in (round,
   query-index) order, so cache hits, prefetch attribution, retries, hedges
   and abandoned blocks are accounted per query, and a cache sees its reads
   in that fixed order.  A wide wave holds the
   round's blocks as one :class:`~repro.storage.disk_graph.BlockStack`,
   addressed by its (query, block) *pairs* — each query's distinct blocks in
   first-occurrence order;
3. optionally folds each query's co-resident candidates into its targets
   (the bamg contract — it touches only that query's state, so it is a
   per-query step at every width);
4. computes exact distances to every vertex of every block with **one**
   fused row-paired L2 reduction across the wave — over the queries' blocks
   gathered contiguously, or over a wide wave's ``[pairs · ε, dim]``
   difference plane (IP routes through BLAS, whose fusion across queries is
   not bit-stable, so IP runs one kernel call per query);
5. selects (target extraction plus block pruning) and hands the chosen
   vertices to the result set, the visited-push and the PQ-routed frontier
   expansion: :meth:`_select_round` and the per-query pushes on a narrow
   wave; on a wide one :func:`_select_plane` — one stable sort over
   ``[pairs, ε]`` — then one neighbour-row gather and one pass each over
   the frontier plane.

Lockstep is scheduling, not semantics: each query's candidate set, result
set, stopper and counters evolve exactly as in the scalar Algorithm 2
(``tests/oracles.py::oracle_block_search`` — the reference the equivalence
suites compare against), and queries finish independently.  A stateful read
(a cache wrapper, exact routing behind one) is issued in the fixed (round,
row) order — every live row's pop and read, then every row's fold, select
and expand — so a cache's charges equal that replay
(``tests/oracles.py::oracle_wave_search``), whatever the width.

**Several segments, one wave.**  A wave's rows may search different
segments (:func:`search_segments`, the coordinator's micro-batch: one row
per segment × query, segment-major).  Each row keeps its segment's local
vertex and block ids and touches segment data — the vertex→block map, the
device, the PQ codes, the navigation graph — through its own engine; the
round's reads, decode and ADC gather are done per segment and everything
else runs once over all rows.  A one-segment wave is the same loop with one
segment, which is all :meth:`~BlockSearchEngine.search_wave` is.
"""

from __future__ import annotations

import math

import numpy as np

from ..graphs.navigation import LOCKSTEP_MIN_WAVE, entry_walks
from ..quantization.pq import ProductQuantizer
from ..storage.disk_graph import BlockStack, DiskGraph
from ..vectors.metrics import Metric, fused_sq_norms
from .cost import QueryStats, WaveStats
from .frontier import CandidateSet, FrontierPlane, ResultSet, ordered_unique
from .early_stop import AdaptiveEarlyStopper
from .io_util import counted_read_blocks_of
from .results import SearchResult


def _coalesces(engine) -> bool:
    """The read fork, per segment: a plain disk graph without a retry policy
    is stateless and raises on failure, so a wave's reads there merge into
    one union read; behind a cache or a retry policy each row reads its own
    blocks through the counted seam, where a block may come back absent."""
    return engine.resilience is None and type(engine.disk_graph) is DiskGraph


class _QueryState:
    """One query's independent traversal state inside a wave."""

    __slots__ = (
        "row", "seg", "engine", "query", "table", "stats", "candidates",
        "results", "stopper", "kernel", "hops", "loaded", "used",
    )

    def __init__(self, row, seg, engine, query, table, stats, candidates,
                 results, stopper, kernel) -> None:
        #: position in the wave: the query's row in ``tables`` and the plane
        self.row = row
        #: the segment the row searches: its position among the wave's
        #: segments, and that segment's engine (graph, device, PQ codes)
        self.seg = seg
        self.engine = engine
        self.query = query
        self.table = table
        self.stats = stats
        self.candidates = candidates
        self.results = results
        self.stopper = stopper
        #: per-query exact-distance kernel; ``None`` under the fused L2 path
        self.kernel = kernel
        # Per-round counter updates accumulate here and flush to ``stats``
        # once — accurate even when a fault aborts the loop mid-round.
        self.hops = 0
        self.loaded = 0
        self.used = 0

    def flush(self) -> None:
        stats = self.stats
        stats.hops += self.hops
        stats.vertices_loaded += self.loaded
        stats.exact_distances += self.loaded
        stats.vertices_used += self.used
        self.hops = self.loaded = self.used = 0


def _first_occurrence(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(distinct, group)``: the distinct keys in order of first occurrence
    and every key's index among them."""
    distinct, first, inverse = np.unique(
        keys, return_index=True, return_inverse=True
    )
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    return distinct[order], rank[inverse]


def _select_plane(
    slot_ids: np.ndarray, valid: np.ndarray, dist: np.ndarray,
    item_pair: np.ndarray, vids: np.ndarray, keep_quota: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:meth:`BlockSearchEngine._select_round` for every (query, block) pair
    of a round at once.

    ``slot_ids`` / ``valid`` / ``dist`` are the pairs' ``[P, ε]`` vertex
    ids, occupied-slot mask and exact distances; target ``vids[j]`` lives in
    pair ``item_pair[j]`` (``KeyError`` if it does not, as ``index_of``
    raises).  Returns ``(sel_pair, sel_slot, kept)``: every chosen ``(pair,
    slot)`` in the scalar loop's explore order — pair by pair, a pair's
    targets by position, then the first ``min(keep_quota, #rest)`` of its
    co-located vertices by distance, flagged ``kept``.  The sort is stable,
    so equal distances keep their in-block order, and keyed by class first,
    so an empty slot never outranks a vertex whatever its distance.
    """
    hit = (slot_ids[item_pair] == vids[:, None]) & valid[item_pair]
    found = hit.any(axis=1)
    if not found.all():
        lost = int(vids[np.flatnonzero(~found)[0]])
        raise KeyError(f"vertex {lost} is not in the block it maps to")
    target = np.zeros(valid.shape, dtype=bool)
    target[item_pair, hit.argmax(axis=1)] = True
    slots = np.arange(valid.shape[1])
    order = np.lexsort((
        np.where(target, slots, dist),
        np.where(target, 0, np.where(valid, 1, 2)),
    ), axis=1)
    n_target = target.sum(axis=1)
    n_keep = np.minimum(keep_quota, valid.sum(axis=1) - n_target)
    sel_pair, sel_rank = np.nonzero(slots < (n_target + n_keep)[:, None])
    return sel_pair, order[sel_pair, sel_rank], sel_rank >= n_target[sel_pair]


class _BlockPlane:
    """A wide wave's round as array passes over its (query, block) pairs
    instead of a Python loop per pair: the popped ``(row, vertex)`` items
    give the pairs, the round's blocks arrive as one ``BlockStack`` (each
    plain segment's coalesced union read decoded in place, the counted
    rows' blocks stacked), and exact distances, selection and the neighbour
    gather run once over ``[pairs, ε]`` arrays in the scalar order.

    The rows may belong to several segments.  Rows are segment-major, and
    every per-row array of a round — items, pairs, explored neighbours — is
    row-ordered, so a segment's share of it is one contiguous run
    (:meth:`_by_segment`).  Only the steps that read segment data take the
    runs apart: the vertex→block lookup, the read (one per segment, so
    each device sees its own round trips), and the ADC gather.  Ids stay
    local to their segment throughout.
    """

    def __init__(self, engine, plane, tables, states, keep_quota):
        self.engine = engine
        self.plane = plane
        self.tables = tables
        self.states = states
        self.keep_quota = keep_quota
        self.queries = np.stack([st.query for st in states])
        #: per-query hops / vertices loaded / vertices used, handed to the
        #: states once by :meth:`flush`
        self.counts = np.zeros((3, len(states)), dtype=np.int64)
        #: ``(engine, first row)`` per segment, in row order
        self.segments = [
            (st.engine, st.row) for i, st in enumerate(states)
            if i == 0 or st.seg != states[i - 1].seg
        ]
        self.first_rows = np.asarray(
            [row for _, row in self.segments] + [len(states)]
        )
        #: a ``(row, block)`` pair's key is ``row * stride + block``
        self.stride = max(e.disk_graph.num_blocks for e, _ in self.segments)

    def flush(self) -> None:
        for st, counts in zip(self.states, self.counts.T.tolist()):
            st.hops, st.loaded, st.used = counts

    def _by_segment(self, rows: np.ndarray):
        """``(engine, lo, hi)``: each segment's run ``[lo, hi)`` of an
        ascending per-item row array, empty runs skipped.  A wave of one
        segment is one run over the whole array."""
        if len(self.segments) == 1:
            return [(self.segments[0][0], 0, rows.size)]
        cuts = np.searchsorted(rows, self.first_rows).tolist()
        return [
            (engine, lo, hi)
            for (engine, _), lo, hi in zip(self.segments, cuts, cuts[1:])
            if hi > lo
        ]

    def round(self, live) -> tuple[int, int]:
        """Advance every live query one round; returns the wave's block
        reads ``(requested, issued)``."""
        eng, width = self.engine, len(self.states)
        fmt = eng.disk_graph.fmt
        live_rows = np.fromiter((st.row for st in live), np.int64, len(live))
        item_rows, vids = self.plane.pop_flat(live_rows, eng.beam_width)
        self.counts[0] += np.bincount(item_rows, minlength=width)

        def spans(rows: np.ndarray):
            """``(state, lo, hi)`` per live query: its run ``[lo, hi)`` of
            an ascending per-item row list."""
            per_row = np.bincount(rows, minlength=width)
            ends = np.cumsum(per_row[live_rows]).tolist()
            return zip(live, [0] + ends, ends)

        # The round's pairs: distinct (row, block) in first-occurrence
        # order — row-major, so grouped by query and by segment.
        bids = np.empty(vids.size, dtype=np.int64)
        for engine, lo, hi in self._by_segment(item_rows):
            bids[lo:hi] = engine.disk_graph.vertex_to_block[vids[lo:hi]]
        pair_key, item_pair = _first_occurrence(item_rows * self.stride + bids)
        pair_row, pair_bid = np.divmod(pair_key, self.stride)
        asked = pair_key.size
        # The read, per segment (:func:`_coalesces`); ``pair_u`` is each
        # pair's block in the round's stack, ``back`` whether it arrived.
        pair_u = np.empty_like(pair_bid)
        back = np.ones(asked, dtype=bool)
        blocks: list = []
        issued = 0
        for (st, lo, hi), (_, ilo, ihi) in zip(
            spans(pair_row), spans(item_rows)
        ):
            if _coalesces(st.engine):
                # Charged to this query in full, whoever else in the wave
                # asked for the same block.
                st.stats.round_trip_blocks.append(hi - lo)
                continue
            # This row's own counted read, in (round, row) order.
            mine = counted_read_blocks_of(
                st.engine.disk_graph, vids[ilo:ihi].tolist(), st.stats,
                st.engine.resilience,
            )
            issued += hi - lo
            if len(mine) < hi - lo:
                back[lo:hi] = np.isin(
                    pair_bid[lo:hi], [b.block_id for b in mine]
                )
            pair_u[lo:hi][back[lo:hi]] = np.arange(
                len(blocks), len(blocks) + len(mine)
            )
            blocks += mine
        stacks = [BlockStack.of_blocks(blocks, fmt)] if blocks else []
        held = len(blocks)
        for engine, lo, hi in self._by_segment(pair_row):
            if _coalesces(engine):
                # One read of the wave's blocks here, decoded side by side.
                union, pair_u[lo:hi] = _first_occurrence(pair_bid[lo:hi])
                pair_u[lo:hi] += held
                stacks.append(
                    engine.disk_graph.read_block_stack(union.tolist())
                )
                held += union.size
                issued += union.size
        if not back.all():
            # Unreadable after retries: those pairs drop out and their
            # targets are abandoned; the rest of the frontier drains.
            lost = ~back[item_pair]
            for st, lo, hi in spans(item_rows):
                st.stats.fault.vertices_abandoned += int(lost[lo:hi].sum())
            vids = vids[~lost]
            item_pair = (np.cumsum(back) - 1)[item_pair[~lost]]
            pair_row, pair_bid = pair_row[back], pair_bid[back]
            pair_u = pair_u[back]
            if not stacks:
                return asked, issued
        stack = (
            stacks[0] if len(stacks) == 1
            else BlockStack(*map(np.concatenate, zip(*stacks)))
        )
        if eng.fold_coresident:
            item_pair, vids = self._fold(
                spans(pair_row), pair_bid, item_pair, vids
            )

        # Exact distances to every slot of every pair.  L2 is one fused
        # row-wise reduction (bit-identical per row to a per-query call);
        # IP routes through BLAS, whose result depends on the matrix it is
        # handed, so each query's occupied slots go through its own kernel.
        slot_ids = stack.vertex_ids[pair_u]
        sizes = stack.sizes[pair_u]
        valid = np.arange(slot_ids.shape[1]) < sizes[:, None]
        vectors = stack.vectors[pair_u]
        if eng.metric.name == "l2":
            diff = vectors - self.queries[pair_row][:, None, :]
            dist = fused_sq_norms(
                diff.reshape(-1, diff.shape[2])
            ).reshape(valid.shape)
        else:
            dist = np.zeros(valid.shape)
            for st, lo, hi in spans(pair_row):
                occupied = valid[lo:hi]
                dist[lo:hi][occupied] = st.kernel(vectors[lo:hi][occupied])
        sel_pair, sel_slot, kept = _select_plane(
            slot_ids, valid, dist, item_pair, vids, self.keep_quota
        )

        # Hand-off.  ``sel`` walks every pair's chosen slots in explore
        # order, pairs grouped by query.  A result set is an id →
        # min-distance map, so each query takes its run of ``sel`` as is.
        sel_row = pair_row[sel_pair]
        sel_ids = slot_ids[sel_pair, sel_slot].astype(np.int64)
        sel_dist = dist[sel_pair, sel_slot].astype(np.float64)
        self.counts[1] += np.bincount(
            pair_row, weights=sizes, minlength=width
        ).astype(np.int64)
        self.counts[2] += np.bincount(sel_row, minlength=width)
        ids, dists = sel_ids.tolist(), sel_dist.tolist()
        for st, lo, hi in spans(sel_row):
            st.results.add_many(ids[lo:hi], dists[lo:hi])
        if kept.any():
            # They are in memory now; never fetch them again.
            self.plane.push_visited(
                sel_row[kept], sel_ids[kept], sel_dist[kept]
            )
        sel_u = pair_u[sel_pair]
        degree = stack.nbr_counts[sel_u, sel_slot]
        explore = np.arange(fmt.max_degree) < degree[:, None]
        if explore.any():
            self._expand(
                np.repeat(sel_row, degree),
                stack.nbr_ids[sel_u, sel_slot][explore],
            )
        return asked, issued

    def _fold(self, pair_spans, pair_bid, item_pair, vids):
        """:meth:`BlockSearchEngine._fold_coresident_targets` per live query:
        its co-resident candidates become extra ``(pair, vertex)`` items."""
        pairs, folded = item_pair.tolist(), vids.tolist()
        for st, lo, hi in pair_spans:
            pending = st.candidates.unvisited_members()
            pair_of = dict(zip(pair_bid[lo:hi].tolist(), range(lo, hi)))
            for vid, bid in zip(
                pending.tolist(),
                st.engine.disk_graph.vertex_to_block[pending].tolist(),
            ):
                if bid in pair_of:
                    pairs.append(pair_of[bid])
                    folded.append(vid)
                    st.candidates.mark_visited(vid)
        return np.asarray(pairs), np.asarray(folded)

    def _expand(self, item_rows: np.ndarray, ids: np.ndarray) -> None:
        """:meth:`BlockSearchEngine._expand_frontier` for the whole wave in
        one pass: ``ids`` are the round's explored neighbour IDs, ``ids[j]``
        explored by query (plane and table row) ``item_rows[j]``, queries in
        ascending order.

        The freshness mask and the first-occurrence dedup run on the flat
        ``(row, id)`` address, which keeps each query's survivors in its
        scalar order; one flat ADC gather per segment routes them all (a
        row's table indexes its own segment's codes).
        """
        plane, states = self.plane, self.states
        key = plane.flat(item_rows, ids)
        fresh = np.flatnonzero(plane.unseen(key))
        if not fresh.size:
            return
        first = np.unique(key[fresh], return_index=True)[1]
        first.sort()
        fresh = fresh[first]
        item_rows = item_rows[fresh]
        ids = ids[fresh].astype(np.int64)
        for row, routed in enumerate(np.bincount(item_rows).tolist()):
            states[row].stats.pq_distances += routed
        route = np.empty(ids.size)
        for engine, lo, hi in self._by_segment(item_rows):
            route[lo:hi] = engine.pq.distances_from_tables(
                self.tables, item_rows[lo:hi], ids[lo:hi]
            )
        plane.push_new(item_rows, ids, route)


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

    # -- helpers ---------------------------------------------------------------

    def _routing_distances(
        self,
        query: np.ndarray,
        table: np.ndarray | None,
        ids: np.ndarray,
        stats: QueryStats,
    ) -> np.ndarray:
        """Approximate (PQ) or exact (extra I/O) distances used for routing.

        The one router and, with :meth:`_seed`, the one seed of both engines:
        :class:`~repro.engine.beam_search.BeamSearchEngine` binds the two.
        """
        if self.use_pq_routing:
            stats.pq_distances += int(ids.size)
            return self.pq.distances_from_table(table, ids)
        # Exact routing: the full-precision vectors live on disk, so every
        # routing decision costs block reads (this is what Fig. 11(c) shows).
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
        to seed in place of a fresh one — a wide wave passes a row of its
        :class:`~repro.engine.frontier.FrontierPlane`.
        """
        if self.use_pq_routing:
            # A precomputed ADC table (one row of a shared lookup_tables
            # build) is bit-identical to building it here.
            if table is None:
                table = self.pq.lookup_table(query)
        else:
            table = None
        # Likewise a precomputed entry walk (a wave's round 0):
        # ``(entry ids, distance computations)``.
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
    # One round of Algorithm 2 decomposes into (a) reading the frontier's
    # blocks, (b) one fused exact-distance kernel call, (c) the per-block
    # target/pruning selection below, and (d) the PQ-routed frontier
    # expansion.  (c), the fold and (d) are per-query primitives the round
    # loop calls for every live query of a narrow wave; the scalar oracle in
    # ``tests/oracles.py`` calls the same ones, and a wide wave's
    # ``_BlockPlane`` reproduces their order over arrays.

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
        """Answer one ANNS query per Algorithm 2: a wave of one.

        ``stopper`` overrides the engine's own adaptive early termination;
        the serving layer passes a :class:`DeadlineStopper` here.  Stoppers
        exposing ``bind`` get the live per-query stats attached before the
        walk starts.
        """
        query = np.asarray(query, dtype=np.float32)
        return self.search_wave(
            query[None], k, candidate_size,
            tables=None if table is None else table[None],
            stoppers=None if stopper is None else [stopper],
        )[0]

    def search_wave(
        self,
        queries: np.ndarray,
        k: int,
        candidate_size: int,
        *,
        tables: np.ndarray | None = None,
        stoppers=None,
        wave_stats: WaveStats | None = None,
    ) -> list[SearchResult]:
        """Answer one ANNS query per row of ``queries`` in lockstep rounds.

        ``tables`` optionally carries a shared ADC build (row per query);
        ``stoppers`` one early-stop object per query, checked every round
        for every live query.  ``wave_stats``, when given, accumulates the
        wave-level counters of this call.  Returns per-query
        :class:`~repro.engine.results.SearchResult` objects in query order;
        each has the ids, distances and ``degraded`` flag of the query's own
        wave of one.  Its charges equal them too unless a cache sits in
        front of the graph; then they equal the serial primitives replayed
        in the wave's (round, row) order (``tests/oracles.py::
        oracle_wave_search``).

        The one-segment call of :func:`search_segments`.
        """
        return search_segments(
            [self], queries, k, candidate_size,
            tables=tables, stoppers=stoppers, wave_stats=wave_stats,
        )[0]

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
        """Drain one already-seeded query through the round loop (the
        range-search driver's resume, §5.3)."""
        state = self._state(
            0, 0, query, table, stats, candidates, results, stopper
        )
        self._rounds([state], None, None, None)

    def _state(
        self, row, seg, query, table, stats, candidates, results, stopper
    ):
        # L2 distances come from the wave-wide fused reduction; any other
        # metric runs its own kernel per query.
        return _QueryState(
            row, seg, self, query, table, stats, candidates, results,
            stopper,
            None if self.metric.name == "l2"
            else self.metric.distances_kernel(query),
        )

    def _rounds(self, states, plane, tables, wave_stats) -> None:
        """The block-search round loop: advance ``states`` in lockstep until
        every query's frontier drains or its stopper fires.

        ``plane`` is the wave's :class:`FrontierPlane` (``None`` on a narrow
        wave, whose states then own plain candidate sets) and ``tables`` its
        ``[B, M, ks]`` ADC build.  The states may search several segments
        (:func:`search_segments`): each touches segment data — its graph,
        device and PQ codes — and picks its read (:func:`_coalesces`)
        through its own ``engine``, while the round's configuration (W, σ,
        the fold, the metric) is this engine's, which every segment of the
        wave shares.  All scratch is
        local to the call, so concurrent calls on one engine are safe.
        """
        beam_width = self.beam_width
        keep_quota = math.ceil(
            (self.disk_graph.fmt.vertices_per_block - 1) * self.pruning_ratio
        )
        fold = self.fold_coresident
        fused_l2 = self.metric.name == "l2"
        select_round = self._select_round
        diff: np.ndarray | None = None
        if plane is not None:
            wave = _BlockPlane(self, plane, tables, states, keep_quota)
        rounds = requested = issued = 0
        live = states
        try:
            while True:
                # Phase 1 — per-query stopper check + frontier pop; queries
                # whose frontier drained (or whose stopper fired) finish.
                live = [
                    st for st in live
                    if st.candidates.has_unvisited() and not (
                        st.stopper is not None
                        and st.stopper.update(st.results)
                    )
                ]
                if not live:
                    break
                rounds += 1
                if plane is not None:
                    # A wide wave: phases 1–4 as array passes over the
                    # round's (query, block) pairs.
                    asked, read = wave.round(live)
                    requested += asked
                    issued += read
                    continue
                batches = [
                    st.candidates.pop_unvisited(beam_width) for st in live
                ]

                # Phase 2 — read.  ``targets_by_block`` keeps first-
                # occurrence order, so its keys are the query's
                # deduplicated read batch.
                entries: list[tuple] = []
                # Per segment: its engine, the insertion-ordered set of the
                # wave's requested block IDs there (values unused; filled
                # via C-level dict updates) and how many live queries asked.
                unions: dict[int, list] = {}
                for st, batch in zip(live, batches):
                    st.hops += len(batch)
                    dg = st.engine.disk_graph
                    targets_by_block: dict[int, list[int]] = {}
                    if _coalesces(st.engine):
                        bids = dg.vertex_to_block[batch].tolist()
                        for vid, bid in zip(batch, bids):
                            targets_by_block.setdefault(bid, []).append(vid)
                        # Charged to this query in full, whoever else in
                        # the wave asked for the same block.
                        st.stats.round_trip_blocks.append(
                            len(targets_by_block)
                        )
                        union = unions.get(st.seg)
                        if union is None:
                            union = unions[st.seg] = [st.engine, {}, 0]
                        union[1].update(targets_by_block)
                        union[2] += 1
                        q_blocks = None
                    else:
                        q_blocks = counted_read_blocks_of(
                            dg, batch, st.stats, st.engine.resilience
                        )
                        for vid in batch:
                            targets_by_block.setdefault(
                                dg.block_of(vid), []
                            ).append(vid)
                        if len(q_blocks) < len(targets_by_block):
                            # Unreadable after retries: skip those blocks'
                            # targets, keep draining the frontier.
                            got = {b.block_id for b in q_blocks}
                            st.stats.fault.vertices_abandoned += sum(
                                len(targets)
                                for bid, targets in targets_by_block.items()
                                if bid not in got
                            )
                        issued += len(targets_by_block)
                    requested += len(targets_by_block)
                    entries.append((st, targets_by_block, q_blocks))
                for seg, (engine, union, asking) in unions.items():
                    # One physical read per segment for the wave's union
                    # there; each block decodes once.  A segment's lone
                    # live query's union is its own read batch, in order.
                    union_ids = list(union)
                    union_blocks = engine.disk_graph.read_blocks(union_ids)
                    issued += len(union_ids)
                    unions[seg] = (
                        union_blocks if asking == 1
                        else dict(zip(union_ids, union_blocks))
                    )

                # Phase 3 — exact distances to every vertex of every block
                # in the round (the I/O is paid; block pruning bounds the
                # computation).  Every query's blocks are gathered
                # contiguously; L2 stages each query's subtraction into its
                # span and reduces the whole plane in one row-wise-
                # consistent call, IP runs its kernel per span.
                mats = []
                spans: list[tuple] = []
                total = 0
                for st, targets_by_block, q_blocks in entries:
                    if q_blocks is None:
                        got = unions[st.seg]
                        q_blocks = (
                            got if isinstance(got, list)
                            else [got[bid] for bid in targets_by_block]
                        )
                    if fold and q_blocks:
                        st.engine._fold_coresident_targets(
                            st.candidates, q_blocks, targets_by_block
                        )
                    start = total
                    for block in q_blocks:
                        # Raw rows: the kernel's own promotion of them is
                        # the one cast.
                        m = block.vectors
                        mats.append(m)
                        total += m.shape[0]
                    spans.append(
                        (st, q_blocks, targets_by_block, start, total)
                    )
                all_dists: list[float] = []
                if mats:
                    rows = np.concatenate(mats) if len(mats) > 1 else mats[0]
                    if fused_l2:
                        if diff is None or diff.shape[0] < total:
                            have = 0 if diff is None else diff.shape[0]
                            # the kernel's compute dtype: float rows as
                            # they are, integer rows as float32
                            diff = np.empty(
                                (max(total, have * 2), rows.shape[1]),
                                dtype=rows.dtype if rows.dtype.kind == "f"
                                else np.float32,
                            )
                        for st, _, _, start, end in spans:
                            np.subtract(
                                rows[start:end], st.query,
                                out=diff[start:end],
                            )
                        all_dists = fused_sq_norms(diff[:total]).tolist()
                    else:
                        parts = [
                            st.kernel(rows[start:end])
                            for st, _, _, start, end in spans if end > start
                        ]
                        all_dists = (
                            np.concatenate(parts) if len(parts) > 1
                            else parts[0]
                        ).tolist()

                # Phase 4 — per-query target/pruning selection, the
                # visited-push and the frontier expansion.
                for st, q_blocks, targets_by_block, start, end in spans:
                    (
                        res_ids, res_dists, keep_ids, keep_dists,
                        explore_parts, loaded, used,
                    ) = select_round(
                        q_blocks, targets_by_block,
                        all_dists[start:end], keep_quota,
                    )
                    st.loaded += loaded
                    st.used += used
                    if keep_ids:
                        res_ids.extend(keep_ids)
                        res_dists.extend(keep_dists)
                        # They are in memory now; never fetch them again.
                        st.candidates.push_visited_many(keep_ids, keep_dists)
                    if res_ids:
                        st.results.add_many(res_ids, res_dists)
                    st.engine._expand_frontier(
                        st.query, st.table, st.candidates, explore_parts,
                        st.stats,
                    )
        finally:
            if plane is not None:
                wave.flush()
            for st in states:
                st.flush()
            if wave_stats is not None:
                wave_stats.queries += len(states)
                wave_stats.rounds += rounds
                wave_stats.requested_block_reads += requested
                wave_stats.issued_block_reads += issued


def search_segments(
    engines: list[BlockSearchEngine],
    queries: np.ndarray,
    k: int,
    candidate_size: int,
    *,
    tables: np.ndarray | None = None,
    stoppers=None,
    wave_stats: WaveStats | None = None,
) -> list[list[SearchResult]]:
    """Answer every query in every segment of ``engines`` as one lockstep
    wave.

    The wave has ``len(engines) × len(queries)`` rows, segment-major: row
    ``g * len(queries) + i`` is query ``i`` in segment ``g``, and
    ``tables`` / ``stoppers`` (optional, one per row) follow the same order.
    Every row evolves exactly as it would in its own segment's
    :meth:`BlockSearchEngine.search_wave` — the round loop reads each row's
    graph, device and PQ codes through the row's engine and everything else
    is per-row state — so the wave's width alone changes: rows from all
    segments count towards :data:`LOCKSTEP_MIN_WAVE`, and round 0 walks
    every segment's navigation graph in one lockstep wave
    (:func:`~repro.graphs.navigation.entry_walks`).  Ids stay local to
    their segment; each device sees one coalesced read per round, exactly
    its own wave's.  The frontier plane's flag columns are sized by the
    largest segment, not their sum.

    The segments must share the round's configuration
    (:func:`union_key`).  Returns ``results[g][i]``; ``wave_stats``, when
    given, accumulates the wave-level counters of the one wave.
    """
    queries = np.asarray(queries, dtype=np.float32)
    if len(engines) > 1 and len({union_key(e) for e in engines}) > 1:
        raise ValueError("the segments of one wave must share union_key")
    if not len(queries):
        return [[] for _ in engines]
    lead = engines[0]
    # Round 0 — the navigation walk touches no device, so the whole wave
    # walks up front (in lockstep from ``LOCKSTEP_MIN_WAVE`` rows on); each
    # row is the query's own scalar walk in its own segment.
    walks = entry_walks(
        [e.entry_provider for e in engines], queries, lead.num_entry_points
    )
    if tables is None and lead.use_pq_routing:
        tables = (
            lead.pq.lookup_tables(queries) if len(engines) == 1
            else np.concatenate([e.pq.lookup_tables(queries) for e in engines])
        )
    width = len(engines) * len(queries)
    # A wave wide enough for the lockstep entry walk keeps its frontiers in
    # one plane (same crossover, same constant); a narrower one allocates
    # none and runs the per-query primitives.  The plane's expansion is an
    # ADC gather, so it needs PQ routing.
    plane = (
        FrontierPlane(
            width, candidate_size,
            max(e.disk_graph.num_vertices for e in engines),
        )
        if width >= LOCKSTEP_MIN_WAVE and lead.use_pq_routing
        else None
    )
    states: list[_QueryState] = []
    for seg, (engine, (entry_ids, walk_distances)) in enumerate(
        zip(engines, walks)
    ):
        walk_distances = walk_distances.tolist()
        for i, q in enumerate(queries):
            row = len(states)
            stats = QueryStats(pipelined=engine.pipeline)
            candidates, results, table = engine._seed(
                q, candidate_size, stats,
                table=tables[row] if tables is not None else None,
                walk=(entry_ids[i], walk_distances[i]),
                candidates=plane.row(row) if plane is not None else None,
            )
            stopper = stoppers[row] if stoppers is not None else None
            if stopper is None:
                stopper = (
                    AdaptiveEarlyStopper(k, engine.early_termination)
                    if engine.early_termination is not None else None
                )
            elif hasattr(stopper, "bind"):
                stopper.bind(stats)
            states.append(engine._state(
                row, seg, q, table, stats, candidates, results, stopper
            ))
    lead._rounds(states, plane, tables, wave_stats)
    answers = [
        SearchResult(
            *st.results.top_k(k), st.stats, degraded=st.stats.fault.degraded,
        )
        for st in states
    ]
    rows = len(queries)
    return [answers[g * rows:(g + 1) * rows] for g in range(len(engines))]


def union_key(engine: BlockSearchEngine) -> tuple:
    """What the segments of one :func:`search_segments` wave must share:
    the round's configuration (W, σ, entry count, pipeline, fold, early
    termination, routing, metric), the record format its stacked blocks
    join under and the PQ shape its stacked tables need.  How a segment
    reads is not shared: each segment of a round picks its own read
    (:func:`_coalesces`)."""
    pq, fmt = engine.pq, engine.disk_graph.fmt
    return (
        engine.beam_width, engine.pruning_ratio, engine.num_entry_points,
        engine.pipeline, engine.fold_coresident, engine.early_termination,
        engine.use_pq_routing, engine.metric.name, fmt.dim, np.dtype(fmt.dtype).str, fmt.vertices_per_block,
        fmt.max_degree, pq.num_subspaces, pq.num_centroids,
    )
