"""Lockstep wave traversal for the online query path.

The batched executor amortizes *per-batch* costs (one ADC table build, one
decode per block) but still walks queries one at a time, so per-*round*
costs — the device round-trip dispatch and the exact-distance kernel call —
are paid once per (query, round).  This module applies the
:mod:`repro.graphs.wavebuild` treatment to the query path: a
:class:`WaveSearchEngine` advances a whole wave of in-flight queries in
lockstep rounds.  Per round it

1. checks every live query's stopper, then pops the frontier
   (``beam_width`` closest unvisited candidates) of every query still
   live — per query on a narrow wave, as **one** masked scan over the
   wave's :class:`~repro.engine.frontier.FrontierPlane` on a wide one,
2. dedupes the union of the wave's requested block IDs and issues **one**
   coalesced :meth:`~repro.storage.disk_graph.DiskGraph.read_blocks` call —
   a block requested by several queries in the same round is physically
   read and decoded once,
3. gathers every query's block vectors into one shared arena plane, stages
   each query's subtraction into its span of the shared scratch plane, and
   runs **one** fused row-paired distance reduction
   (:func:`~repro.vectors.metrics.fused_sq_norms`) across the whole wave,
4. runs the per-query target/pruning selection through the exact round
   primitive of :class:`~repro.engine.block_search.BlockSearchEngine`
   (``_select_round``), then the visited-push of the kept co-located
   vertices and the PQ-routed frontier expansion — through the engine's
   per-query primitives on a narrow wave; on a wide one as **one** pass
   each over the plane: one freshness gather and first-occurrence dedup on
   the ``(query, vertex)`` key, one flat ADC gather over the wave's
   ``[B, M, ks]`` tables, and one sorted merge of every row's survivors
   into its ``Γ``-prefix.

The plane is the wave's candidate sets as ``[B, Γ]`` / ``[B, n]`` arrays;
each query's :class:`~repro.engine.frontier.CandidateSet` is a row view of
it, so seeding and the rare tied row (equal distances across the ``Γ`` cut,
re-run through the row's scalar push) share its state.  Width alone picks
the path — ``len(queries) >= LOCKSTEP_MIN_WAVE``, the entry walk's
constant: below it the plane's per-round numpy dispatch costs more than the
per-query calls it replaces (docs/PERFORMANCE.md, "The wave frontier
plane"), and a narrow wave allocates none.

Before the first round ("round 0") the wave's entry points come from one
:meth:`~repro.graphs.navigation.NavigationGraph.entry_points_batch` call,
which walks the navigation graph for every query in lockstep through the
index builders' :func:`~repro.graphs.wavebuild.wave_greedy_search` kernel.

Lockstep is scheduling, not semantics (the ``wavebuild`` contract): each
query's candidate set, result set, stopper, and counters evolve exactly as
in its own serial :meth:`BlockSearchEngine.search` call, and queries finish
independently — a query whose frontier drains (or whose stopper fires)
simply drops out of subsequent rounds.  Per-query results and per-query
:class:`~repro.engine.cost.QueryStats` are **bit-identical** to the serial
loop:

- every query is still charged its own per-round unique-block count in
  ``round_trip_blocks`` — cross-query sharing never silently under-counts a
  query's I/O.  The physical saving is surfaced honestly in the wave-level
  :attr:`WaveStats.coalesced_block_reads` counter instead (the device's
  *running totals* advance by the coalesced reads actually issued, the same
  global-counter divergence process mode already documents);
- the fused L2 reduction is row-wise consistent (each output row reads only
  its own difference row), so each query's slice of the wave-wide kernel
  output equals its own per-round kernel call.  The IP kernel routes
  through BLAS (``base @ q``), whose fusion across queries is *not*
  guaranteed bit-stable, so IP waves fall back to one kernel call per query
  on its contiguous arena slice — still one read and one decode per block
  per round.

Eligibility (enforced by :func:`wave_capable` +
:meth:`~repro.engine.batch.BatchExecutor.effective_mode`): a plain
:class:`~repro.storage.disk_graph.DiskGraph` (no LRU wrapper — its hit
accounting is read-order dependent), no resilience policy, PQ routing on,
and no armed fault injector (its sequential RNG makes the fault schedule a
function of the global read order).  Anything else degrades to the in-order
``batched`` mode, keeping the executor's equivalence contract intact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..graphs.navigation import LOCKSTEP_MIN_WAVE
from ..storage.disk_graph import DiskGraph
from ..vectors.metrics import fused_sq_norms
from .block_search import BlockSearchEngine
from .cost import QueryStats
from .early_stop import AdaptiveEarlyStopper
from .frontier import FrontierPlane
from .results import SearchResult


def wave_capable(engine) -> bool:
    """Whether ``engine`` supports the lockstep wave path.

    Mirrors the serial ``_drain`` fast-path conditions (plain disk graph,
    no resilience layer) plus PQ routing — routing by full-precision reads
    issues per-query mid-round I/O that coalescing would reorder.  The
    bamg co-resident fold changes the serial traversal itself (rounds
    consume whole blocks), so it too degrades to the in-order batched
    mode rather than silently diverging from the serial reference.
    """
    return (
        isinstance(engine, BlockSearchEngine)
        and engine.resilience is None
        and engine.use_pq_routing
        and not engine.fold_coresident
        and type(engine.disk_graph) is DiskGraph
    )


@dataclass
class WaveStats:
    """Wave-level traversal counters (per-query stats live in QueryStats).

    Attributes:
        queries: Queries executed through the wave engine.
        rounds: Lockstep rounds advanced (a round serves every live query).
        requested_block_reads: Σ over (query, round) of the query's unique
            requested blocks — exactly what the per-query
            ``round_trip_blocks`` charge, i.e. the reads a serial loop
            would issue.
        issued_block_reads: Σ over rounds of the deduplicated wave-wide
            union — the reads physically issued.
    """

    queries: int = 0
    rounds: int = 0
    requested_block_reads: int = 0
    issued_block_reads: int = 0

    @property
    def coalesced_block_reads(self) -> int:
        """Physical reads saved by cross-query coalescing (the honest
        counter for sharing: per-query charges stay serial-identical)."""
        return self.requested_block_reads - self.issued_block_reads

    def to_dict(self) -> dict:
        return {
            "queries": self.queries,
            "rounds": self.rounds,
            "requested_block_reads": self.requested_block_reads,
            "issued_block_reads": self.issued_block_reads,
            "coalesced_block_reads": self.coalesced_block_reads,
        }


class _QueryState:
    """One query's independent traversal state inside a wave."""

    __slots__ = (
        "row", "query", "table", "stats", "candidates", "results", "stopper",
        "kernel", "hops", "loaded", "used",
    )

    def __init__(self, row, query, table, stats, candidates, results,
                 stopper, kernel) -> None:
        #: position in the wave: the query's row in ``tables`` and the plane
        self.row = row
        self.query = query
        self.table = table
        self.stats = stats
        self.candidates = candidates
        self.results = results
        self.stopper = stopper
        self.kernel = kernel
        # Per-round counter updates accumulate here and flush to ``stats``
        # once (same totals as the serial drain's local accumulation).
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


class WaveSearchEngine:
    """Multi-query lockstep block search over one
    :class:`~repro.engine.block_search.BlockSearchEngine`.

    Constructed per batch by the executor's ``wave`` mode; accumulates
    coalescing telemetry in :attr:`stats`.
    """

    def __init__(self, engine: BlockSearchEngine) -> None:
        if not wave_capable(engine):
            raise ValueError("engine is not wave-capable")
        self.engine = engine
        self.stats = WaveStats()
        self._diff: np.ndarray | None = None

    def _diff_rows(self, count: int, dim: int, dtype) -> np.ndarray:
        """Reused ``(count, dim)`` difference-plane buffer for the fused-L2
        reduction when no arena is installed (with an arena the arena's own
        scratch plane is used instead), grown geometrically like an arena.

        ``dtype`` follows the gathered rows, matching the compute dtype the
        serial kernel's subtraction would produce."""
        buf = self._diff
        if (
            buf is None or buf.shape[0] < count or buf.shape[1] != dim
            or buf.dtype != dtype
        ):
            have = 0 if buf is None else buf.shape[0]
            buf = np.empty((max(count, have * 2), dim), dtype=dtype)
            self._diff = buf
        return buf[:count]

    def _expand_plane(self, plane, tables, states, item_rows, ids) -> None:
        """:meth:`BlockSearchEngine._expand_frontier` for the whole wave in
        one pass: ``ids`` are the round's explored neighbour IDs, ``ids[j]``
        explored by query (plane and table row) ``item_rows[j]``, queries
        in ascending order.

        The freshness mask and the first-occurrence dedup run on the flat
        ``(row, id)`` address, which keeps each query's survivors in its
        serial order; one flat ADC gather routes them all.
        """
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
        route = self.engine.pq.distances_from_tables(tables, item_rows, ids)
        plane.push_new(item_rows, ids, route.astype(np.float64))

    def search_wave(
        self,
        queries: np.ndarray,
        k: int,
        candidate_size: int,
        *,
        tables: np.ndarray | None = None,
        stoppers=None,
    ) -> list[SearchResult]:
        """Answer one ANNS query per row of ``queries`` in lockstep rounds.

        ``tables`` optionally carries the executor's shared ADC build (row
        per query); ``stoppers`` one early-stop object per query.  Stoppers
        are checked every lockstep round for every live query — exactly the
        per-round cadence of the serial drain — so a mid-wave deadline
        expires on the same round it would serially.  Returns per-query
        :class:`~repro.engine.results.SearchResult` objects in query order,
        bit-identical to the serial loop.
        """
        eng = self.engine
        dg = eng.disk_graph
        metric = eng.metric
        beam_width = eng.beam_width
        keep_quota = math.ceil(
            (dg.fmt.vertices_per_block - 1) * eng.pruning_ratio
        )
        vertex_to_block = dg.vertex_to_block
        read_blocks = dg.read_blocks
        fused_l2 = metric.name == "l2"

        # Round 0 — seeding is pure per-query work (the navigation walk
        # touches no device), so the whole wave walks the navigation graph
        # in lockstep up front; each row is the query's own scalar walk.
        queries = np.asarray(queries, dtype=np.float32)
        entry_ids, walk_distances = eng.entry_provider.entry_points_batch(
            queries, eng.num_entry_points
        )
        walk_distances = walk_distances.tolist()
        if tables is None:
            tables = eng.pq.lookup_tables(queries)
        # A wave wide enough for the lockstep entry walk keeps its
        # frontiers in one plane (same crossover, same constant); a
        # narrower one allocates none and runs the per-query primitives.
        plane = (
            FrontierPlane(len(queries), candidate_size, dg.num_vertices)
            if len(queries) >= LOCKSTEP_MIN_WAVE else None
        )
        states: list[_QueryState] = []
        for i, q in enumerate(queries):
            stats = QueryStats(pipelined=eng.pipeline)
            candidates, results, table = eng._seed(
                q, candidate_size, stats, table=tables[i],
                walk=(entry_ids[i], walk_distances[i]),
                candidates=plane.row(i) if plane is not None else None,
            )
            stopper = stoppers[i] if stoppers is not None else None
            if stopper is None:
                stopper = (
                    AdaptiveEarlyStopper(k, eng.early_termination)
                    if eng.early_termination is not None else None
                )
            elif hasattr(stopper, "bind"):
                stopper.bind(stats)
            states.append(_QueryState(
                i, q, table, stats, candidates, results, stopper,
                None if fused_l2 else metric.distances_kernel(q),
            ))

        pool = eng.arena_pool
        arena = pool.acquire(dg.fmt) if pool is not None else None
        wave = self.stats
        wave.queries += len(states)
        live = states
        try:
            while live:
                # Phase 1 — per-query stopper check + frontier pop, in the
                # exact order of the serial round head; queries whose
                # frontier drained (or whose stopper fired) finish here.
                live = [
                    st for st in live
                    if st.candidates.has_unvisited() and not (
                        st.stopper is not None
                        and st.stopper.update(st.results)
                    )
                ]
                if not live:
                    break
                if plane is None:
                    batches = [
                        st.candidates.pop_unvisited(beam_width) for st in live
                    ]
                else:
                    live_rows = np.fromiter(
                        (st.row for st in live), np.int64, len(live)
                    )
                    batches = plane.pop(live_rows, beam_width)
                entries: list[tuple] = []
                # Insertion-ordered set of the wave's requested block IDs
                # (values unused; filled via C-level dict updates).
                union: dict[int, object] = {}
                requested = 0
                for st, batch in zip(live, batches):
                    st.hops += len(batch)
                    bids = vertex_to_block[batch].tolist()
                    targets_by_block: dict[int, list[int]] = {}
                    for vid, bid in zip(batch, bids):
                        targets_by_block.setdefault(bid, []).append(vid)
                    # dict insertion order == first-occurrence order, so
                    # the keys are the serial path's deduplicated read
                    # batch — charged to this query exactly as serially.
                    q_unique = list(targets_by_block)
                    st.stats.round_trip_blocks.append(len(q_unique))
                    requested += len(q_unique)
                    union.update(targets_by_block)
                    entries.append((st, q_unique, targets_by_block))
                wave.rounds += 1
                wave.requested_block_reads += requested

                # Phase 2 — one coalesced physical read for the wave-wide
                # union (first-occurrence order across the wave); each
                # block decodes once into the shared plane.
                union_ids = list(union)
                by_block = dict(zip(union_ids, read_blocks(union_ids)))
                wave.issued_block_reads += len(union_ids)

                # Phase 3 — gather every query's blocks contiguously (in
                # its own first-occurrence order) and run the round's
                # exact distances: per-span staged subtraction + one fused
                # reduction for L2, one per-query slice call for IP (BLAS
                # fusion across queries is not bit-stable; see module
                # docstring).
                mats = []
                spans: list[tuple] = []
                total = 0
                for st, q_unique, targets_by_block in entries:
                    q_blocks = [by_block[bid] for bid in q_unique]
                    start = total
                    for block in q_blocks:
                        mats.append(block.kernel_vectors())
                        total += len(block)
                    spans.append(
                        (st, q_blocks, targets_by_block, start, total)
                    )
                if arena is not None:
                    rows = arena.load_rows(mats)
                else:
                    rows = (
                        np.concatenate(mats) if len(mats) > 1 else mats[0]
                    )
                if fused_l2:
                    # Each span's subtraction is the serial kernel's own
                    # ``np.subtract(rows, q, out=scratch)`` on this query's
                    # rows; only the destination offset differs.
                    diff = (
                        arena.scratch_rows(total)
                        if arena is not None
                        else self._diff_rows(total, rows.shape[1], rows.dtype)
                    )
                    for st, _, _, start, end in spans:
                        np.subtract(
                            rows[start:end], st.query, out=diff[start:end]
                        )
                    all_dists = fused_sq_norms(diff).tolist()
                else:
                    parts = [
                        st.kernel(rows[start:end])
                        for st, _, _, start, end in spans
                    ]
                    all_dists = (
                        np.concatenate(parts) if len(parts) > 1
                        else parts[0]
                    ).tolist()

                # Phase 4 — per-query target/pruning selection through the
                # serial engine's own primitive; the visited-push and the
                # frontier expansion run per query on a narrow wave and as
                # one pass each over the plane on a wide one.
                # (the wave-wide lists stay empty on a narrow wave)
                keep_counts: list[int] = []
                wave_keep_ids: list[int] = []
                wave_keep_dists: list[float] = []
                explore_counts: list[int] = []
                wave_explore: list[np.ndarray] = []
                for st, q_blocks, targets_by_block, start, end in spans:
                    (
                        res_ids, res_dists, keep_ids, keep_dists,
                        explore_parts, loaded, used,
                    ) = eng._select_round(
                        q_blocks, targets_by_block,
                        all_dists[start:end], keep_quota,
                    )
                    st.loaded += loaded
                    st.used += used
                    if keep_ids:
                        res_ids.extend(keep_ids)
                        res_dists.extend(keep_dists)
                        if plane is None:
                            st.candidates.push_visited_many(
                                keep_ids, keep_dists
                            )
                    if res_ids:
                        st.results.add_many(res_ids, res_dists)
                    if plane is None:
                        eng._expand_frontier(
                            st.query, st.table, st.candidates, explore_parts,
                            st.stats,
                        )
                    else:
                        keep_counts.append(len(keep_ids))
                        wave_keep_ids.extend(keep_ids)
                        wave_keep_dists.extend(keep_dists)
                        explore_counts.append(
                            sum(map(len, explore_parts))
                        )
                        wave_explore.extend(explore_parts)
                if wave_keep_ids:
                    plane.push_visited(
                        np.repeat(live_rows, keep_counts),
                        np.asarray(wave_keep_ids, dtype=np.int64),
                        np.asarray(wave_keep_dists, dtype=np.float64),
                    )
                if wave_explore:
                    self._expand_plane(
                        plane, tables, states,
                        np.repeat(live_rows, explore_counts),
                        np.concatenate(wave_explore),
                    )
        finally:
            if pool is not None:
                pool.release(arena)
            for st in states:
                st.flush()

        return [
            SearchResult(
                *st.results.top_k(k), st.stats,
                degraded=st.stats.fault.degraded,
            )
            for st in states
        ]
