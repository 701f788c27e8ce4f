"""Wave-batched graph construction (the parallel build pipeline).

The serial Vamana/NSG builders spend their time in thousands of independent
greedy searches plus per-vertex RobustPrune — both dominated by numpy call
overhead on tiny arrays.  This module processes vertices in
seed-deterministic *waves*: one vectorized multi-query kernel runs the whole
wave's searches in lockstep against a frozen graph snapshot, one lockstep
prune kernel selects the whole wave's edges, and reverse edges merge through
grouped scatters instead of per-edge appends.

Determinism contract (see :class:`~repro.buildspec.BuildSpec`):

- Each query in a wave evolves independently — lockstep is scheduling, not
  semantics.
- For NSG the searches run over the *static* kNN base graph, so waves see
  exactly what a per-point loop sees: the wave build is NSG's only build,
  its graph independent of the wave size and bit-identical to the per-point
  reference (``tests/oracles.py::oracle_build_nsg``).
- For Vamana, points inside one wave do not observe each other's edges
  (staleness one wave wide), so the graph differs from serial — the
  standard trade of parallel Vamana builds — but is a pure function of
  (seed, wave_size).

The per-query kernels mirror the serial ones exactly: the lockstep search
reproduces :func:`~repro.graphs.search.greedy_search`'s visited set (same
pool-of-``ef`` evolution, same termination), and the lockstep prune
reproduces :func:`~repro.graphs.vamana.robust_prune` / NSG's MRNG rule
(``tests/oracles.py::oracle_mrng_select``) per point, including their stable
tie-breaks.

The lockstep search is also the query side's round 0: the navigation graph
walks a wave of queries through it, and a wave spanning several segments
walks each row over its own segment's graph (:func:`lockstep_walk` with one
:class:`WaveGraph` per segment).
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from ..buildspec import BuildSpec
from ..vectors.metrics import Metric, get_metric
from .adjacency import AdjacencyGraph, random_regular_graph
from .knn import knn_graph
from .nsg import NSGParams, _ensure_connectivity
from .vamana import VamanaParams, medoid


class WavePool(NamedTuple):
    """Where each query of a lockstep wave stopped.

    Attributes:
        ids: ``(num_queries, ef)`` final pools in ascending distance, padded
            with -1 where fewer than ``ef`` vertices were reachable.
        dists: The matching distances (``inf`` padding).
        scored: ``(num_queries,)`` vertices whose distance was computed —
            the serial search's ``SearchTrace.distance_computations``.
        tied: ``(num_queries,)`` rows where some merge saw two equal
            distances among the kept pool plus the first entry it dropped.
            The serial heaps break such ties by id and by arrival order,
            the stable merge here by position, so a tied row may differ
            from :func:`~repro.graphs.search.greedy_search`; an untied
            row's pool, ``scored`` and visited set equal it bit for bit.
    """

    ids: np.ndarray
    dists: np.ndarray
    scored: np.ndarray
    tied: np.ndarray


class WaveGraph(NamedTuple):
    """One graph a lockstep wave walks: out-neighbours, vectors, entries.

    ``neighbor_lists`` is anything indexable by vertex id that returns the
    id array of out-neighbours (a list of arrays, or a dense-matrix view);
    ``entries`` are the vertices every walk over this graph starts from.
    """

    neighbor_lists: object
    vectors: np.ndarray
    entries: Sequence[int]


def wave_greedy_search(
    neighbor_lists,
    vectors: np.ndarray,
    metric: Metric,
    queries: np.ndarray,
    entry_points: Sequence[int],
    ef: int,
    *,
    as_matrix: bool = False,
    with_pool: bool = False,
):
    """Run a wave of greedy searches over one graph in lockstep; returns
    visited sets.

    Per query this is exactly :func:`~repro.graphs.search.greedy_search`
    with ``collect_visited=True``: a pool of the ``ef`` best visited
    vertices, expand the closest unexpanded pool entry, mark every fresh
    neighbour visited, stop when no unexpanded pool entry remains.  The
    lockstep form amortizes each round's distance computations into a single
    row-paired kernel call across the whole wave.

    The one-graph call of :func:`lockstep_walk`.  Returns one sorted
    ``int64`` array of visited vertex ids per query, or the raw
    ``(num_queries, n)`` visited mask when ``as_matrix`` is set; with
    ``with_pool`` the result is ``(visited, WavePool)`` — the index builders
    consume the visited sets, the navigation graph's batch entry walk the
    pools.
    """
    visited, pool = lockstep_walk(
        [WaveGraph(neighbor_lists, vectors, entry_points)], [len(queries)],
        metric, queries, ef, with_pool=with_pool,
    )
    visited = visited.reshape(len(queries), vectors.shape[0])
    out = visited if as_matrix else [
        np.flatnonzero(row) for row in visited
    ]
    return (out, pool) if with_pool else out


def lockstep_walk(
    graphs: Sequence[WaveGraph],
    row_counts: Sequence[int],
    metric: Metric,
    queries: np.ndarray,
    ef: int,
    *,
    with_pool: bool = False,
) -> tuple[np.ndarray, WavePool | None]:
    """The lockstep greedy-search kernel, one graph per row.

    Rows are graph-major: ``graphs[g]`` walks the next ``row_counts[g]``
    rows of ``queries`` from its own ``entries``.  Row ``i`` evolves exactly as
    :func:`wave_greedy_search` over its own graph alone would — every
    per-row step (the pool merge, the visited marks, the row-paired
    distances) reads that row only — so a wave over several segments'
    navigation graphs walks as one.

    Returns ``(visited, pool)``: the flat visited plane, where row ``i``
    owns the next ``n_i`` flags (``n_i`` its own graph's vertex count, so
    the plane is the sum of the rows' graphs, never rows × the largest),
    and the :class:`WavePool` (``None`` unless ``with_pool``).
    """
    if ef <= 0:
        raise ValueError("ef must be positive")
    if len(graphs) != len(row_counts) or sum(row_counts) != len(queries):
        raise ValueError("row_counts must split queries among the graphs")
    entries = []
    for graph in graphs:
        mine = list(dict.fromkeys(int(e) for e in graph.entries))
        if not mine:
            raise ValueError("entry_points must be non-empty")
        if len(mine) > ef:
            raise ValueError("more entry points than pool slots")
        entries.append(mine)
    q = np.ascontiguousarray(queries, dtype=np.float32)
    num_queries = q.shape[0]
    per_graph = np.asarray(row_counts, dtype=np.int64)
    first_row = np.concatenate(([0], np.cumsum(per_graph)))
    row_n = np.repeat(
        np.asarray([g.vectors.shape[0] for g in graphs], dtype=np.int64),
        per_graph,
    )
    base = np.cumsum(row_n) - row_n
    one_graph = len(graphs) == 1
    row_graph = np.repeat(np.arange(len(graphs)), per_graph)

    visited = np.zeros(int(row_n.sum()), dtype=bool)
    # Pool state: id -1 / dist inf rows are padding; padding is born
    # "expanded" so the selection argmin can never pick it.
    pool_ids = np.full((num_queries, ef), -1, dtype=np.int64)
    pool_d = np.full((num_queries, ef), np.inf, dtype=np.float64)
    pool_exp = np.ones((num_queries, ef), dtype=bool)
    tied = np.zeros(num_queries, dtype=bool)
    for graph, mine, lo, hi in zip(
        graphs, entries, first_row.tolist(), first_row[1:].tolist()
    ):
        if lo == hi:
            continue
        shape = (hi - lo, q.shape[1])
        for j, e in enumerate(mine):
            visited[base[lo:hi] + e] = True
            pool_ids[lo:hi, j] = e
            pool_d[lo:hi, j] = metric.rowwise(
                q[lo:hi], np.broadcast_to(graph.vectors[e], shape)
            )
            pool_exp[lo:hi, j] = False
        if with_pool and len(mine) > 1:
            seeds = np.sort(pool_d[lo:hi, : len(mine)], axis=1)
            tied[lo:hi] |= (seeds[:, 1:] == seeds[:, :-1]).any(axis=1)

    row_range = np.arange(num_queries)
    while True:
        masked = np.where(pool_exp, np.inf, pool_d)
        best = np.argmin(masked, axis=1)
        act = np.flatnonzero(masked[row_range, best] < np.inf)
        if act.size == 0:
            break
        expand = pool_ids[act, best[act]]
        pool_exp[act, best[act]] = True

        if one_graph:
            lists = graphs[0].neighbor_lists
            nbr_arrays = [lists[u] for u in expand.tolist()]
        else:
            nbr_arrays = [
                graphs[g].neighbor_lists[u]
                for g, u in zip(row_graph[act].tolist(), expand.tolist())
            ]
        lens = np.fromiter(
            (a.size for a in nbr_arrays), dtype=np.int64, count=act.size
        )
        if int(lens.sum()) == 0:
            continue
        flat = np.concatenate(nbr_arrays).astype(np.int64, copy=False)
        rows_local = np.repeat(np.arange(act.size), lens)
        rows = act[rows_local]
        key = base[rows] + flat
        fresh = ~visited[key]
        if not fresh.any():
            continue
        rows_local, rows, flat = rows_local[fresh], rows[fresh], flat[fresh]
        visited[key[fresh]] = True
        if one_graph:
            targets = graphs[0].vectors[flat]
        else:
            # ``rows`` ascends, so each graph's rows are one run of it.
            cuts = np.searchsorted(rows, first_row).tolist()
            targets = np.concatenate([
                graph.vectors[flat[lo:hi]]
                for graph, lo, hi in zip(graphs, cuts, cuts[1:])
            ])
        d = metric.rowwise(q[rows], targets).astype(np.float64)

        # Scatter the ragged neighbour lists into a padded (act, max_new)
        # rectangle, then merge with the pool in one stable top-ef sort.
        counts = np.bincount(rows_local, minlength=act.size)
        starts = np.zeros(act.size, dtype=np.int64)
        np.cumsum(counts[:-1], out=starts[1:])
        col = np.arange(flat.size) - starts[rows_local]
        max_new = int(counts.max())
        new_d = np.full((act.size, max_new), np.inf)
        new_ids = np.full((act.size, max_new), -1, dtype=np.int64)
        new_d[rows_local, col] = d
        new_ids[rows_local, col] = flat

        cat_d = np.concatenate([pool_d[act], new_d], axis=1)
        cat_ids = np.concatenate([pool_ids[act], new_ids], axis=1)
        cat_exp = np.concatenate([pool_exp[act], new_ids == -1], axis=1)
        order = np.argsort(cat_d, axis=1, kind="stable")
        row_base = (np.arange(act.size) * (ef + max_new))[:, None]
        flat_idx = order[:, :ef] + row_base
        pool_d[act] = cat_d.ravel()[flat_idx]
        pool_ids[act] = cat_ids.ravel()[flat_idx]
        pool_exp[act] = cat_exp.ravel()[flat_idx]
        if with_pool:
            # One column past the pool, so a tie across the cut shows too.
            ranked = cat_d.ravel()[order[:, : ef + 1] + row_base]
            tied[act] |= (
                (ranked[:, 1:] == ranked[:, :-1]) & (ranked[:, 1:] < np.inf)
            ).any(axis=1)

    if not with_pool:
        return visited, None
    # Every visited vertex was scored exactly once, when it was marked.
    scored = np.add.reduceat(visited, base, dtype=np.int64)
    return visited, WavePool(pool_ids, pool_d, scored, tied)


def _prune_flat(
    num: int,
    points: np.ndarray,
    rows: np.ndarray,
    cand_ids: np.ndarray,
    vectors: np.ndarray,
    metric: Metric,
    max_degree: int,
    alpha: float,
    strict: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """Lockstep α-RNG selection over flat ``(row, candidate)`` pairs.

    The candidate pool lives in compacted flat arrays that shrink every
    round instead of a padded rectangle, so each round costs a handful of
    numpy calls on the surviving pairs only.  Returns ``(selected,
    counts)`` where ``selected`` is ``(num, max_degree)`` padded with -1 and
    row ``w`` keeps its first ``counts[w]`` entries, in selection
    (ascending-distance) order.
    """
    selected = np.full((num, max_degree), -1, dtype=np.int64)
    counts = np.zeros(num, dtype=np.int64)
    if rows.size == 0:
        return selected, counts
    d = metric.rowwise(vectors[points[rows]], vectors[cand_ids]).astype(
        np.float64
    )
    # Row-major, ascending distance within a row, ascending id on ties —
    # the serial pruners' stable argsort over np.unique output.
    order = np.lexsort((cand_ids, d, rows))
    rows, cand_ids, d = rows[order], cand_ids[order], d[order]

    while rows.size:
        # The head of each row group is its closest surviving candidate.
        heads = np.flatnonzero(
            np.concatenate(([True], rows[1:] != rows[:-1]))
        )
        sel_rows = rows[heads]
        stars = cand_ids[heads]
        selected[sel_rows, counts[sel_rows]] = stars
        counts[sel_rows] += 1

        # One combined survival filter per round: occlusion by the row's
        # fresh star, minus the heads themselves, minus every entry of a
        # row that just hit max_degree (the serial loops' early break —
        # those rows see no occlusion check, but retiring them wholesale
        # is the same thing).
        star_of = np.empty(num, dtype=np.int64)
        star_of[sel_rows] = stars
        d_star = metric.rowwise(
            vectors[star_of[rows]], vectors[cand_ids]
        ).astype(np.float64)
        if strict:
            keep = d_star >= d
        elif metric.name == "ip":
            # Same sign-safety as robust_prune: negated inner products are
            # negative, so the α scaling is skipped.
            keep = d_star > d
        else:
            keep = alpha * d_star > d
        keep[heads] = False
        full = sel_rows[counts[sel_rows] >= max_degree]
        if full.size:
            retired = np.zeros(num, dtype=bool)
            retired[full] = True
            keep &= ~retired[rows]
        rows, cand_ids, d = rows[keep], cand_ids[keep], d[keep]
    return selected, counts


def robust_prune_wave(
    points: np.ndarray,
    cand_lists: Sequence[np.ndarray],
    vectors: np.ndarray,
    metric: Metric,
    max_degree: int,
    alpha: float,
    *,
    strict: bool = False,
) -> list[np.ndarray]:
    """Lockstep α-RNG edge selection for a wave of points.

    Per point this reproduces :func:`~repro.graphs.vamana.robust_prune`
    exactly (``strict=False``) or NSG's MRNG rule
    (``strict=True`` — occlusion on strictly-closer kept edges, no α
    scaling).  Candidate lists must already be deduplicated, sorted
    ascending by id, and free of the point itself, which is what
    ``np.union1d``-based assembly produces — the same precondition the
    serial pruners establish with ``np.unique``.
    """
    num = len(points)
    lens = np.fromiter((c.size for c in cand_lists), dtype=np.int64, count=num)
    if num == 0 or int(lens.sum()) == 0:
        return [np.empty(0, dtype=np.int64) for _ in range(num)]
    pts = np.asarray(points, dtype=np.int64)
    rows = np.repeat(np.arange(num), lens)
    flat = np.concatenate(
        [c for c in cand_lists if c.size]
    ).astype(np.int64, copy=False)
    selected, counts = _prune_flat(
        num, pts, rows, flat, vectors, metric, max_degree, alpha, strict
    )
    return [selected[w, : counts[w]].copy() for w in range(num)]


class _DenseAdjacency:
    """Row view over the build-time ``(n, slack)`` adjacency matrix.

    Quacks like ``AdjacencyGraph.neighbor_lists()`` for the search kernel:
    indexing by vertex id yields its current out-neighbour ids.
    """

    __slots__ = ("adj", "deg")

    def __init__(self, adj: np.ndarray, deg: np.ndarray) -> None:
        self.adj = adj
        self.deg = deg

    def __getitem__(self, vertex: int) -> np.ndarray:
        return self.adj[vertex, : self.deg[vertex]]


def build_vamana_waves(
    vectors: np.ndarray,
    metric: Metric | str,
    params: VamanaParams,
    spec: BuildSpec,
) -> tuple[AdjacencyGraph, int]:
    """Wave-batched Vamana build; same contract as ``build_vamana``.

    The schedule mirrors the serial build exactly — same seeded random
    graph, same medoid, same per-pass permutation, same slack capacity —
    but consumes the permutation ``wave_size`` points at a time.  Each
    wave: (1) search all wave points against the frozen snapshot,
    (2) lockstep-prune their new adjacency lists, (3) apply them in wave
    order, (4) insert reverse edges in wave order under the slack cap via
    one grouped scatter, (5) lockstep-re-prune overflowing vertices (in
    sorted order) at the wave boundary instead of serial's immediate
    re-prune.

    The graph lives in a dense ``(n, slack)`` id matrix during the build so
    edge merges are grouped scatters; it is validated back into an
    :class:`AdjacencyGraph` at the end.
    """
    metric = get_metric(metric)
    n = vectors.shape[0]
    if n < 2:
        raise ValueError("need at least two vectors")
    vectors = np.ascontiguousarray(vectors, dtype=np.float32)
    rng = np.random.default_rng(params.seed)
    max_degree = params.max_degree

    init_degree = min(max_degree, n - 1)
    base = random_regular_graph(n, init_degree, seed=params.seed)
    slack = max_degree + max(max_degree // 2, 1)
    adj = np.full((n, slack), -1, dtype=np.int64)
    adj[:, :init_degree] = np.vstack(base.neighbor_lists()).astype(np.int64)
    deg = np.full(n, init_degree, dtype=np.int64)
    view = _DenseAdjacency(adj, deg)
    entry = medoid(vectors, metric, seed=params.seed)
    slots = np.arange(slack)

    for alpha in (1.0, params.alpha):
        order = rng.permutation(n)
        for lo in range(0, n, spec.wave_size):
            wave = order[lo : lo + spec.wave_size].astype(np.int64)
            num = wave.size
            vis = wave_greedy_search(
                view, vectors, metric, vectors[wave], [entry],
                params.build_ef, as_matrix=True,
            )
            # Candidates = visited ∪ current neighbours, minus the point —
            # marked into the visited mask so one np.nonzero yields every
            # row's candidate list sorted ascending.
            cur_counts = deg[wave]
            nb_rows = np.repeat(np.arange(num), cur_counts)
            nb_ids = adj[wave][slots < cur_counts[:, None]]
            vis[nb_rows, nb_ids] = True
            vis[np.arange(num), wave] = False
            rows, cand = np.nonzero(vis)
            new_lists, new_counts = _prune_flat(
                num, wave, rows.astype(np.int64), cand.astype(np.int64),
                vectors, metric, max_degree, alpha, False,
            )
            ok = new_counts > 0
            adj[wave[ok], :max_degree] = new_lists[ok]
            deg[wave[ok]] = new_counts[ok]

            # Reverse edges, grouped by target: row-major flatten keeps the
            # serial insertion order (wave order, then selection order).
            tgt = new_lists[new_lists != -1]
            src = np.repeat(wave, new_counts)
            present = (
                (adj[tgt] == src[:, None]) & (slots < deg[tgt][:, None])
            ).any(axis=1)
            tgt, src = tgt[~present], src[~present]
            if tgt.size:
                grouped = np.argsort(tgt, kind="stable")
                tgt, src = tgt[grouped], src[grouped]
                uniq, starts, group_len = np.unique(
                    tgt, return_index=True, return_counts=True
                )
                pos = np.arange(tgt.size) - np.repeat(starts, group_len)
                slot = deg[tgt] + pos
                fits = slot < slack
                adj[tgt[fits], slot[fits]] = src[fits]
                deg[uniq] += np.minimum(group_len, slack - deg[uniq])
                if not fits.all():
                    # Slack overflow: batch-re-prune the targets over
                    # (current neighbours ∪ pending sources), like serial's
                    # immediate prune_into but once per wave.
                    over_t, over_s = tgt[~fits], src[~fits]
                    pend, pend_start, pend_len = np.unique(
                        over_t, return_index=True, return_counts=True
                    )
                    cand_lists = []
                    for j, t in enumerate(pend):
                        extra = over_s[
                            pend_start[j] : pend_start[j] + pend_len[j]
                        ]
                        c = np.union1d(extra, adj[t, : deg[t]])
                        cand_lists.append(c[c != t])
                    pruned, pruned_counts = _prune_flat(
                        pend.size, pend,
                        np.repeat(
                            np.arange(pend.size),
                            np.fromiter(
                                (c.size for c in cand_lists),
                                dtype=np.int64, count=pend.size,
                            ),
                        ),
                        np.concatenate(cand_lists),
                        vectors, metric, max_degree, alpha, False,
                    )
                    ok = pruned_counts > 0
                    adj[pend[ok], :max_degree] = pruned[ok]
                    deg[pend[ok]] = pruned_counts[ok]

    # Final tightening, batched: every vertex must respect Λ = R.
    over = np.flatnonzero(deg > max_degree)
    if over.size:
        cand_lists = [np.sort(adj[v, : deg[v]]) for v in over]
        pruned_lists = robust_prune_wave(
            over, cand_lists, vectors, metric, max_degree, params.alpha
        )
        for v, nbrs in zip(over, pruned_lists):
            v = int(v)
            adj[v, : nbrs.size] = nbrs
            deg[v] = nbrs.size

    return AdjacencyGraph.from_padded(adj, deg, max_degree), entry


def build_nsg_waves(
    vectors: np.ndarray,
    metric: Metric | str,
    params: NSGParams,
    spec: BuildSpec,
) -> tuple[AdjacencyGraph, int]:
    """The NSG build (what :func:`~repro.graphs.nsg.build_nsg` runs).

    NSG searches run over the *static* kNN base graph and each vertex's
    MRNG selection is independent, so waving introduces no staleness at
    all: every ``wave_size`` produces the graph of the per-point loop.
    """
    metric = get_metric(metric)
    n = vectors.shape[0]
    if n < 2:
        raise ValueError("need at least two vectors")

    base = knn_graph(
        vectors, min(params.knn_k, n - 1), metric, seed=params.seed
    )
    nav = medoid(vectors, metric, seed=params.seed)
    dense = np.ascontiguousarray(vectors, dtype=np.float32)
    base_lists = base.neighbor_lists()

    adj = np.zeros((n, params.max_degree), dtype=np.int64)
    deg = np.zeros(n, dtype=np.int64)
    for lo in range(0, n, spec.wave_size):
        wave = np.arange(lo, min(lo + spec.wave_size, n), dtype=np.int64)
        num = wave.size
        vis = wave_greedy_search(
            base_lists, dense, metric, dense[wave], [nav],
            params.build_ef, as_matrix=True,
        )
        nbrs = [base_lists[int(p)] for p in wave]
        lens = np.fromiter((a.size for a in nbrs), dtype=np.int64, count=num)
        vis[
            np.repeat(np.arange(num), lens),
            np.concatenate(nbrs).astype(np.int64, copy=False),
        ] = True
        vis[np.arange(num), wave] = False
        rows, cand = np.nonzero(vis)
        selected, counts = _prune_flat(
            num, wave, rows.astype(np.int64), cand.astype(np.int64),
            dense, metric, params.max_degree, 1.0, True,
        )
        adj[wave] = selected
        deg[wave] = counts

    graph = AdjacencyGraph.from_padded(adj, deg, params.max_degree)
    _ensure_connectivity(graph, vectors, metric, nav)
    return graph, nav
