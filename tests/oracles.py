"""Test-side oracles: the references ``src/`` is checked against.

**The one decode.**  The per-vertex copying decoder used to live on
:class:`~repro.storage.codec.VertexFormat`; it is kept here, byte for byte,
as the reference the production view decode
(:meth:`~repro.storage.codec.VertexFormat.split_block_views`) is checked
against.  :class:`CopyDecodeDiskGraph` plugs it under a real index so whole
searches can be compared, not just single blocks.

**The one driver.**  The scalar Algorithm 2 loop used to live on
:class:`~repro.engine.block_search.BlockSearchEngine` as ``_seed`` +
``_drain`` (one query at a time, a "fast" and a counted/resilient read
branch).  It is kept here — :class:`OracleBlockSearch` /
:func:`oracle_block_search` — as the reference the production lockstep round
loop (``BlockSearchEngine._rounds``) is checked against at every width.  It
seeds through the scalar entry walk and the per-query ADC table, so it also
checks the wave's batched round 0.  :func:`oracle_wave_search` replays it
in the round loop's (round, row) order: the reference for a wide wave's
charges behind a stateful cache.

**The one ADC table build.**  ``ProductQuantizer.lookup_tables`` used to
build its ``(Q, M, ks)`` tables one subspace at a time; that loop is kept
here — :func:`oracle_lookup_tables` — as the reference the one-call build
is checked against, bit for bit.

**The one lifecycle fan-out.**  ``SegmentLifecycle.search`` used to loop
``seg.index.search`` over its sealed segments (each clamped to the
segment's row count) and merge ``(distance, id)`` tuples with the memtable's
exact scan; that loop is kept here — :func:`oracle_lifecycle_search` — as
the reference the coordinator fan-out plus one merge is checked against.

**The one NSG build.**  The per-point construction loop and its MRNG
selection used to be ``repro.graphs.nsg.build_nsg``'s body and
``mrng_select``; they are kept here — :func:`oracle_build_nsg` /
:func:`oracle_mrng_select` — as the reference the production wave build is
checked against, graph for graph.

**The one k-means++ seeding.**  ``kmeans`` used to seed one subspace at a
time (256 sequential ``rng.choice`` + ``pairwise_l2_squared`` steps each),
and the product quantizer called it once per subspace; that loop is kept
here — :func:`oracle_kmeanspp_seeds` / :func:`oracle_kmeans` — as the
reference the lockstep seeding of all M subspaces is checked against, seed
for seed and codebook for codebook.

**The one adjacency load.**  Graph builders and loaders used to fill an
``AdjacencyGraph`` one ``set_neighbors`` call per vertex, and reachability
was a per-vertex BFS; :func:`oracle_adjacency_from_padded` /
:func:`oracle_reachable_from` keep both as the references
``AdjacencyGraph.from_padded`` and ``reachable_from`` are checked against.
"""

from __future__ import annotations

import math

import numpy as np

from repro.engine.cost import QueryStats
from repro.engine.early_stop import AdaptiveEarlyStopper
from repro.engine.frontier import CandidateSet, ResultSet
from repro.engine.io_util import counted_read_blocks_of
from repro.engine.results import SearchResult
from repro.graphs.adjacency import AdjacencyGraph
from repro.graphs.knn import knn_graph
from repro.graphs.nsg import NSGParams, _ensure_connectivity
from repro.graphs.search import greedy_search
from repro.graphs.vamana import medoid
from repro.quantization.kmeans import KMeansResult
from repro.storage.codec import ID_BYTES, ID_DTYPE, VertexFormat
from repro.storage.disk_graph import DiskBlock, DiskGraph
from repro.vectors.metrics import Metric, get_metric, pairwise_l2_squared


def decode_vertex(
    fmt: VertexFormat, record: bytes | memoryview
) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of ``fmt.encode_vertex``; returns ``(vector, neighbors)``."""
    record = memoryview(record)
    if len(record) != fmt.record_bytes:
        raise ValueError(
            f"record of {len(record)} B; expected {fmt.record_bytes} B"
        )
    vb = fmt.vector_bytes
    vector = np.frombuffer(record[:vb], dtype=fmt.dtype).copy()
    count = int(np.frombuffer(record[vb : vb + ID_BYTES], dtype=ID_DTYPE)[0])
    if count > fmt.max_degree:
        raise ValueError(f"corrupt record: degree {count} > Λ={fmt.max_degree}")
    ids = np.frombuffer(
        record[vb + ID_BYTES : vb + ID_BYTES + count * ID_BYTES], dtype=ID_DTYPE
    ).copy()
    return vector, ids


def decode_block(
    fmt: VertexFormat, block: bytes | memoryview, count: int
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Unpack the first ``count`` records of a block, one vertex at a time."""
    block = memoryview(block)
    if len(block) != fmt.block_bytes:
        raise ValueError(f"block of {len(block)} B; expected {fmt.block_bytes} B")
    if not 0 <= count <= fmt.vertices_per_block:
        raise ValueError(f"count {count} out of range 0..{fmt.vertices_per_block}")
    vectors = np.empty((count, fmt.dim), dtype=fmt.dtype)
    neighbor_lists: list[np.ndarray] = []
    rb = fmt.record_bytes
    for i in range(count):
        vec, nbrs = decode_vertex(fmt, block[i * rb : (i + 1) * rb])
        vectors[i] = vec
        neighbor_lists.append(nbrs)
    return vectors, neighbor_lists


class CopyDecodeDiskGraph(DiskGraph):
    """A :class:`DiskGraph` whose blocks come from the oracle decoder.

    Every array a block hands out is an owned copy assembled from
    :func:`decode_block`'s per-vertex output, so nothing aliases the
    payload; reads, checksums and the decode cache are inherited unchanged.
    """

    @classmethod
    def adopt(cls, graph: DiskGraph) -> "CopyDecodeDiskGraph":
        """An oracle graph over the same device, format and mapping."""
        if type(graph) is not DiskGraph:
            raise TypeError("adopt() wants the physical DiskGraph, unwrapped")
        twin = cls(
            graph.device, graph.fmt, graph.vertex_to_block,
            [graph.vertices_in_block(b) for b in range(graph.num_blocks)],
        )
        twin.block_checksums = graph.block_checksums
        twin.verify_checksums = graph.verify_checksums
        return twin

    def _decode(self, block_id: int, payload: bytes) -> DiskBlock:
        cache = self.decode_cache
        if cache is not None:
            hit = cache.get(block_id)
            if hit is not None:
                return hit
        ids = self.vertices_in_block(block_id)
        vectors, lists = decode_block(self.fmt, payload, len(ids))
        counts = np.asarray([len(a) for a in lists], dtype=np.int64)
        padded = np.zeros((len(ids), self.fmt.max_degree), dtype=ID_DTYPE)
        for row, nbrs in zip(padded, lists):
            row[: len(nbrs)] = nbrs
        block = DiskBlock(block_id, ids, vectors, counts, padded)
        if cache is not None:
            cache[block_id] = block
        return block


class OracleBlockSearch:
    """Scalar Algorithm 2 over a :class:`BlockSearchEngine`'s configuration.

    One query at a time, no waves, no plane: the loop
    ``BlockSearchEngine`` ran before its lockstep round loop became the only
    driver.  Exposes the ``_seed`` / ``_run`` / ``search`` protocol, so
    :func:`repro.engine.range_search.incremental_range_search` can be driven
    by it (the oracle range loop).  It shares the engine's per-query round
    primitives (``_routing_distances``, ``_select_round``,
    ``_fold_coresident_targets``, ``_expand_frontier``) and nothing else.
    """

    def __init__(self, engine) -> None:
        self.engine = engine
        self.pipeline = engine.pipeline

    def _seed(
        self,
        query: np.ndarray,
        candidate_size: int,
        stats: QueryStats,
        *,
        table: np.ndarray | None = None,
        track_kicked: bool = False,
    ) -> tuple[CandidateSet, ResultSet, np.ndarray | None]:
        eng = self.engine
        if eng.use_pq_routing:
            if table is None:
                table = eng.pq.lookup_table(query)
        else:
            table = None
        entries, walk_distances = eng.entry_provider.entry_walk(
            query, eng.num_entry_points
        )
        # The navigation-graph walk is in-memory compute, not I/O.
        stats.exact_distances += walk_distances
        candidates = CandidateSet(
            candidate_size,
            track_kicked=track_kicked,
            max_vertex_id=eng.disk_graph.num_vertices - 1,
        )
        results = ResultSet()
        ids = np.asarray(entries, dtype=np.int64)
        dists = eng._routing_distances(query, table, ids, stats)
        for vid, d in zip(ids.tolist(), dists.tolist()):
            candidates.push(vid, d)
        return candidates, results, table

    def search(
        self,
        query: np.ndarray,
        k: int,
        candidate_size: int,
        *,
        table: np.ndarray | None = None,
        stopper=None,
    ) -> SearchResult:
        steps, finish = self._begin(query, k, candidate_size, table, stopper)
        for _ in steps:
            pass
        return finish()

    def _begin(self, query, k, candidate_size, table, stopper):
        """Seed one query: returns its round steps (:meth:`_steps`) and a
        callable that builds its result once they are exhausted."""
        eng = self.engine
        query = np.asarray(query, dtype=np.float32)
        stats = QueryStats(pipelined=eng.pipeline)
        candidates, results, table = self._seed(
            query, candidate_size, stats, table=table
        )
        if stopper is None:
            stopper = (
                AdaptiveEarlyStopper(k, eng.early_termination)
                if eng.early_termination is not None else None
            )
        elif hasattr(stopper, "bind"):
            stopper.bind(stats)
        steps = self._steps(
            query, candidates, results, table, stats, stopper=stopper
        )

        def finish() -> SearchResult:
            ids, dists = results.top_k(k)
            return SearchResult(
                ids, dists, stats, degraded=stats.fault.degraded
            )

        return steps, finish

    def _run(
        self,
        query: np.ndarray,
        candidates: CandidateSet,
        results: ResultSet,
        table: np.ndarray | None,
        stats: QueryStats,
        *,
        stopper=None,
    ) -> None:
        for _ in self._steps(
            query, candidates, results, table, stats, stopper=stopper
        ):
            pass

    def _steps(
        self,
        query: np.ndarray,
        candidates: CandidateSet,
        results: ResultSet,
        table: np.ndarray | None,
        stats: QueryStats,
        *,
        stopper=None,
    ):
        """Algorithm 2 on one query, one step per ``next``: each round
        yields after its stopper check (the query is live), after its pop
        and read, and after its fold, select and expand.  :meth:`_run`
        drains it at once; :func:`oracle_wave_search` interleaves many."""
        eng = self.engine
        dg = eng.disk_graph
        beam_width = eng.beam_width
        keep_quota = math.ceil(
            (dg.fmt.vertices_per_block - 1) * eng.pruning_ratio
        )
        # Fused fast path for the plain disk graph: one vertex→block
        # gather serves both the deduplicated read batch and the target
        # grouping.  Read order and accounting match
        # ``counted_read_blocks_of`` exactly: first-occurrence block
        # order, one round-trip, zero cache hits — and plain reads raise
        # on failure, so no block can be missing.
        fast = eng.resilience is None and type(dg) is DiskGraph
        if fast:
            vertex_to_block = dg.vertex_to_block
            read_blocks = dg.read_blocks
            round_trip_append = stats.round_trip_blocks.append
        metric_kernel = eng.metric.distances_kernel(query)
        # Per-round counter updates accumulate in locals and flush to
        # ``stats`` in the ``finally`` — accurate counts even when a fault
        # aborts the drain mid-round.
        hops = vertices_loaded = exact_distances = vertices_used = 0
        try:
            while candidates.has_unvisited():
                if stopper is not None and stopper.update(results):
                    break
                yield
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
                        dg, batch, stats, eng.resilience
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
                yield
                if eng.fold_coresident and round_blocks:
                    eng._fold_coresident_targets(
                        candidates, round_blocks, targets_by_block
                    )

                # Exact distances to every vertex of every block in the
                # round; one fused kernel call (the L2 kernel is row-wise
                # consistent, so the per-block slices equal what per-block
                # calls would produce).
                all_dists: list[float] = []
                if round_blocks:
                    all_dists = metric_kernel(
                        np.concatenate([b.vectors for b in round_blocks])
                        if len(round_blocks) > 1
                        else round_blocks[0].vectors,
                    ).tolist()
                (
                    res_ids, res_dists, keep_ids, keep_dists,
                    explore_parts, loaded, used,
                ) = eng._select_round(
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

                eng._expand_frontier(
                    query, table, candidates, explore_parts, stats
                )
                yield
        finally:
            stats.hops += hops
            stats.vertices_loaded += vertices_loaded
            stats.exact_distances += exact_distances
            stats.vertices_used += vertices_used


def oracle_block_search(
    engine, query, k, candidate_size, *, table=None, stopper=None
) -> SearchResult:
    """One ANNS query through the scalar oracle loop."""
    return OracleBlockSearch(engine).search(
        query, k, candidate_size, table=table, stopper=stopper
    )


def oracle_wave_search(
    engine, queries, k, candidate_size, *, stoppers=None
) -> list[SearchResult]:
    """:class:`OracleBlockSearch` replayed in the round loop's order.

    Every query is seeded first, in row order (a wave's round 0 — under
    exact routing, its first reads).  Then each round runs every live
    query's stopper check, then every live query's pop and read in row
    order, then every query's fold, select and expand in row order: the
    (round, row) order both branches of ``BlockSearchEngine._rounds`` issue
    reads in.  Behind a stateful cache a wave's charges must equal this
    replay; the serial oracle only fixes its answers.
    """
    oracle = OracleBlockSearch(engine)
    runs = [
        oracle._begin(
            q, k, candidate_size, None,
            stoppers[i] if stoppers is not None else None,
        )
        for i, q in enumerate(queries)
    ]
    live = [steps for steps, _ in runs]
    while live:
        live = [steps for steps in live if next(steps, False) is None]
        for _ in range(2):  # pop and read; fold, select and expand
            for steps in live:
                next(steps)
    return [finish() for _, finish in runs]


def oracle_lookup_tables(pq, queries: np.ndarray) -> np.ndarray:
    """ADC tables one subspace at a time: ``(Q, M, ks)`` float32."""
    parts = pq._split(np.atleast_2d(queries))  # (Q, M, sub_dim)
    centroids = pq.codebook.centroids
    tables = np.empty(
        (parts.shape[0], pq.num_subspaces, pq.num_centroids), dtype=np.float32
    )
    for m in range(pq.num_subspaces):
        if pq.metric.name == "l2":
            diff = parts[:, m, None, :] - centroids[m][None]
            tables[:, m, :] = np.einsum("qkd,qkd->qk", diff, diff)
        else:
            tables[:, m, :] = -np.einsum(
                "qd,kd->qk", parts[:, m, :], centroids[m]
            )
    return tables


def oracle_mrng_select(
    point: int,
    candidates: np.ndarray,
    candidate_dists: np.ndarray,
    vectors: np.ndarray,
    metric: Metric,
    max_degree: int,
) -> np.ndarray:
    """MRNG edge selection: keep c unless a kept edge p* is closer to c.

    Identical to RobustPrune with α = 1 — NSG's defining rule.
    """
    order = np.argsort(candidate_dists, kind="stable")
    cand = candidates[order]
    cand_d = candidate_dists[order]
    mask = cand != point
    cand, cand_d = cand[mask], cand_d[mask]
    selected: list[int] = []
    for c, d_c in zip(cand, cand_d):
        if len(selected) >= max_degree:
            break
        c = int(c)
        occluded = False
        for s in selected:
            if metric.distance(vectors[s], vectors[c]) < d_c:
                occluded = True
                break
        if not occluded:
            selected.append(c)
    return np.asarray(selected, dtype=np.int64)


def oracle_build_nsg(
    vectors: np.ndarray,
    metric: Metric | str = "l2",
    params: NSGParams | None = None,
) -> tuple[AdjacencyGraph, int]:
    """Build an NSG one point at a time; returns ``(graph, navigating_node)``."""
    params = params or NSGParams()
    metric = get_metric(metric)
    n = vectors.shape[0]
    if n < 2:
        raise ValueError("need at least two vectors")

    base = knn_graph(vectors, min(params.knn_k, n - 1), metric, seed=params.seed)
    nav = medoid(vectors, metric, seed=params.seed)

    graph = AdjacencyGraph(n, params.max_degree)
    for point in range(n):
        _, _, trace = greedy_search(
            base, vectors, metric, vectors[point], [nav],
            params.build_ef, collect_visited=True,
        )
        cand = np.unique(
            np.concatenate(
                [
                    np.asarray(trace.visited, dtype=np.int64),
                    base.neighbors(point).astype(np.int64),
                ]
            )
        )
        cand = cand[cand != point]
        dists = metric.distances(vectors[point], vectors[cand])
        graph.set_neighbors(
            point,
            oracle_mrng_select(
                point, cand, dists, vectors, metric, params.max_degree
            ),
        )

    _ensure_connectivity(graph, vectors, metric, nav)
    return graph, nav


def oracle_lifecycle_search(lc, query, k, candidate_size) -> SearchResult:
    """Top-k over a lifecycle's live vectors, one sealed segment at a time."""
    sealed, _, mem_ids, mem_rows, tombstones = lc._snapshot()
    slack = k + min(len(tombstones), candidate_size)
    stats = QueryStats()
    merged: list[tuple[float, int]] = []
    for seg in sealed:
        result = seg.index.search(
            query, min(slack, seg.count), candidate_size
        )
        stats.merge(result.stats)
        for d, vid in zip(result.dists, result.ids):
            gid = int(seg.ids[int(vid)])
            if gid not in tombstones:
                merged.append((float(d), gid))
    if mem_rows:
        data = np.stack(mem_rows)
        dists = lc.metric.distances(
            np.asarray(query, dtype=np.float32), data
        )
        stats.exact_distances += int(data.shape[0])
        order = np.argsort(dists, kind="stable")[:slack]
        for pos in order.tolist():
            gid = mem_ids[pos]
            if gid not in tombstones:
                merged.append((float(dists[pos]), gid))
    merged.sort()
    top = merged[:k]
    return SearchResult(
        ids=np.asarray([gid for _, gid in top], dtype=np.int64),
        dists=np.asarray([d for d, _ in top], dtype=np.float64),
        stats=stats,
    )


def oracle_kmeanspp_seeds(
    data: np.ndarray, k: int, rng: np.random.Generator
) -> np.ndarray:
    """k-means++ initialisation: spread seeds proportionally to distance."""
    n = data.shape[0]
    seeds = np.empty(k, dtype=np.int64)
    seeds[0] = rng.integers(n)
    closest = pairwise_l2_squared(data[seeds[0]][None, :], data)[0]
    for i in range(1, k):
        total = float(closest.sum())
        if total <= 0.0:
            # All remaining points coincide with an existing seed: fill
            # the rest with distinct non-seed points so no centroid index
            # is duplicated (k <= n is validated by the callers).
            pool = np.setdiff1d(np.arange(n), seeds[:i])
            seeds[i:] = rng.choice(pool, size=k - i, replace=False)
            break
        probs = closest / total
        seeds[i] = rng.choice(n, p=probs)
        d_new = pairwise_l2_squared(data[seeds[i]][None, :], data)[0]
        np.minimum(closest, d_new, out=closest)
    return seeds


def oracle_kmeans(
    data: np.ndarray,
    k: int,
    *,
    max_iters: int = 25,
    tol: float = 1e-4,
    seed: int = 0,
) -> KMeansResult:
    """Train k-means on ``data`` (any numeric dtype; promoted to float32)."""
    data = np.asarray(data)
    n = data.shape[0]
    if not 0 < k <= n:
        raise ValueError(f"k={k} out of range (1..{n})")
    x = data.astype(np.float32, copy=False)
    rng = np.random.default_rng(seed)
    centroids = x[oracle_kmeanspp_seeds(x, k, rng)].copy()

    assignment = np.zeros(n, dtype=np.int32)
    prev_inertia = np.inf
    iteration = 0
    for iteration in range(1, max_iters + 1):
        dists = pairwise_l2_squared(x, centroids)
        assignment = dists.argmin(axis=1).astype(np.int32)
        min_dists = dists[np.arange(n), assignment]
        inertia = float(min_dists.sum())

        counts = np.bincount(assignment, minlength=k)
        sums = np.zeros_like(centroids)
        np.add.at(sums, assignment, x)
        nonempty = counts > 0
        centroids[nonempty] = sums[nonempty] / counts[nonempty, None]

        empty = np.flatnonzero(~nonempty)
        if empty.size:
            # Steal the points that fit their cluster worst.
            worst = np.argsort(min_dists)[::-1][: empty.size]
            centroids[empty] = x[worst]

        if prev_inertia - inertia <= tol * max(prev_inertia, 1.0):
            break
        prev_inertia = inertia

    dists = pairwise_l2_squared(x, centroids)
    assignment = dists.argmin(axis=1).astype(np.int32)
    inertia = float(dists[np.arange(n), assignment].sum())
    return KMeansResult(centroids, assignment, inertia, iteration)


def oracle_adjacency_from_padded(
    ids: np.ndarray, counts: np.ndarray, max_degree: int
) -> AdjacencyGraph:
    """The graph as builders and loaders filled it: one ``set_neighbors``
    call per vertex, in vertex order."""
    graph = AdjacencyGraph(len(counts), max_degree)
    for u, c in enumerate(counts):
        graph.set_neighbors(u, ids[u, :c])
    return graph


def oracle_reachable_from(graph: AdjacencyGraph, start: int) -> np.ndarray:
    """Boolean reachability mask from ``start`` (directed BFS)."""
    seen = np.zeros(graph.num_vertices, dtype=bool)
    seen[start] = True
    frontier = [start]
    while frontier:
        nxt: list[int] = []
        for u in frontier:
            for v in graph.neighbors(u):
                v = int(v)
                if not seen[v]:
                    seen[v] = True
                    nxt.append(v)
        frontier = nxt
    return seen
