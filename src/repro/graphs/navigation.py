"""In-memory navigation graph (§4.2) and other entry-point providers.

Starling samples a small fraction μ of the segment's vectors, builds a graph
index on the sample with the same algorithm as the disk-based graph, and uses
it to answer "give me entry points near this query" without any disk I/O.
The baseline (DiskANN) instead starts from a fixed medoid; HNSW's upper
layers provide a third, multi-layered variant (§7, In-memory graph).

All three implement the same provider protocol so the disk search engines are
agnostic to how entry points are produced.  A provider defines one method,
``entry_walk``, which returns the entry ids *and* the number of distances it
computed, so the engines charge the walk to ``QueryStats.exact_distances``
from the return value instead of reading provider state back.
"""

from __future__ import annotations

from typing import Protocol

import numpy as np

from ..vectors.metrics import Metric, get_metric
from .adjacency import AdjacencyGraph
from .hnsw import HNSWIndex, HNSWParams, build_hnsw
from .nsg import NSGParams, build_nsg
from .search import greedy_search
from .vamana import VamanaParams, build_vamana
from .wavebuild import WaveGraph, lockstep_walk

#: Narrowest wave that takes the lockstep walk.  The scalar walk costs the
#: same per query at any width; the lockstep kernel's per-round numpy
#: dispatch is shared by the wave, so its cost per query falls with the
#: width.  Measured (docs/PERFORMANCE.md, "Round 0"), they cross at width
#: ≈ 8 on 150–300-sample graphs and ≈ 16 on a 30-sample one; 16 is the
#: width from which lockstep never lost.
#:
#: It is the one wide-wave switch: ``BlockSearchEngine.search_wave`` keeps a
#: wave of at least this width in a ``FrontierPlane`` and runs its rounds as
#: array passes over the wave's (query, block) pairs (same trade, per-round
#: dispatch shared by the wave).  A wave over several segments counts its
#: rows — segments × queries — against it (``entry_walks``,
#: ``block_search.search_segments``).  The planes' own crossover sits lower —
#: against the per-query primitives on ``batch_uniform``'s index they read
#: 0.5–0.6 at width 1, 0.73 at 2, 1.0–1.1 at 4, 1.19 at 8, 1.37 at 12,
#: 1.34–1.40 at 16, 1.45–1.55 at 24, 1.41–1.63 at 32, 1.63–1.83 at 64 and
#: 1.8 at 128 (docs/PERFORMANCE.md, "The wave block plane") — so 16 is
#: safely on their winning side, and width-1 paths must not take them.
LOCKSTEP_MIN_WAVE = 16


class EntryPointProvider(Protocol):
    """Anything that can seed a disk-graph search with entry points."""

    def entry_walk(self, query: np.ndarray, count: int) -> tuple[np.ndarray, int]:
        """``(ids, distance_computations)``: global vertex IDs to start the
        disk search from, and the distances computed to find them."""
        ...

    def entry_points(self, query: np.ndarray, count: int) -> np.ndarray:
        """The ids of :meth:`entry_walk` alone."""
        ...

    def entry_points_batch(
        self, queries: np.ndarray, count: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`entry_walk` for every row of ``queries``:
        ``(ids[B, count], distance_computations[B])``."""
        ...

    @property
    def memory_bytes(self) -> int:
        """Main-memory footprint charged against the segment budget."""
        ...


class _WalkProvider:
    """The provider protocol in terms of ``entry_walk``."""

    def entry_points(self, query: np.ndarray, count: int) -> np.ndarray:
        return self.entry_walk(query, count)[0]

    def entry_points_batch(
        self, queries: np.ndarray, count: int
    ) -> tuple[np.ndarray, np.ndarray]:
        walks = [self.entry_walk(q, count) for q in queries]
        # Every query explores from the same entry, so a provider that comes
        # up short (fewer reachable vertices than ``count``) does so by the
        # same amount on every row.
        return (
            np.stack([ids for ids, _ in walks]),
            np.asarray([scored for _, scored in walks], dtype=np.int64),
        )


class FixedEntryPoint(_WalkProvider):
    """The baseline strategy: always start from one fixed vertex (medoid)."""

    def __init__(self, vertex_id: int) -> None:
        self.vertex_id = vertex_id

    def entry_walk(self, query: np.ndarray, count: int) -> tuple[np.ndarray, int]:
        return np.asarray([self.vertex_id], dtype=np.int64), 0

    @property
    def memory_bytes(self) -> int:
        return 8


class NavigationGraph(_WalkProvider):
    """Sampled in-memory graph returning query-aware dynamic entry points."""

    def __init__(
        self,
        sample_ids: np.ndarray,
        sample_vectors: np.ndarray,
        graph: AdjacencyGraph,
        entry: int,
        metric: Metric,
        *,
        search_ef: int = 32,
    ) -> None:
        self.sample_ids = sample_ids
        self.sample_vectors = sample_vectors
        self.graph = graph
        self.entry = entry
        self.metric = metric
        self.search_ef = search_ef

    def entry_walk(self, query: np.ndarray, count: int) -> tuple[np.ndarray, int]:
        ids, _, trace = greedy_search(
            self.graph, self.sample_vectors, self.metric, query,
            [self.entry], max(self.search_ef, count), count,
        )
        return self.sample_ids[ids], trace.distance_computations

    def entry_points_batch(
        self, queries: np.ndarray, count: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Walk a whole wave of queries in lockstep.

        Row ``i`` equals ``entry_walk(queries[i], count)`` bit for bit.  The
        wave runs through the index builders' multi-query kernel; narrow
        waves (below :data:`LOCKSTEP_MIN_WAVE`) and IP waves take the scalar
        walk — the scalar IP kernel is BLAS ``base @ q``, which the
        lockstep kernel's row-paired einsum does not reproduce bit for bit
        — and so does any row the kernel reports as tied.  The kernel's
        visited plane is per-call scratch of ``len(queries) × num_samples``
        bytes; nothing derived is cached on the graph.
        """
        queries = np.asarray(queries, dtype=np.float32)
        if len(queries) < LOCKSTEP_MIN_WAVE or self.metric.name != "l2":
            return super().entry_points_batch(queries, count)
        return _walk_together([self], queries, count)[0]

    @property
    def num_samples(self) -> int:
        return int(self.sample_ids.shape[0])

    @property
    def memory_bytes(self) -> int:
        """Vector data + adjacency lists + global-ID map (C_graph, §6.4)."""
        edge_bytes = sum(a.nbytes for a in self.graph.neighbor_lists())
        return self.sample_vectors.nbytes + edge_bytes + self.sample_ids.nbytes


def entry_walks(
    providers, queries: np.ndarray, count: int
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Round 0 of a wave over several segments: every query walks every
    provider.

    Returns ``providers[g].entry_points_batch(queries, count)`` for every
    ``g``, bit for bit.  When the wave's rows — ``len(providers) ×
    len(queries)`` — reach :data:`LOCKSTEP_MIN_WAVE` and every provider is
    an L2 :class:`NavigationGraph` walking the same pool size, the rows walk
    as *one* lockstep wave, each over its own segment's graph
    (:func:`~repro.graphs.wavebuild.lockstep_walk`); a row the kernel
    reports as tied is re-walked through its own graph's scalar
    :meth:`~NavigationGraph.entry_walk`.  Otherwise each provider answers
    for itself, which for a wave narrower than the switch is the scalar
    walk.
    """
    queries = np.asarray(queries, dtype=np.float32)
    together = (
        len(providers) * len(queries) >= LOCKSTEP_MIN_WAVE
        and all(
            isinstance(p, NavigationGraph) and p.metric.name == "l2"
            for p in providers
        )
        and len({max(p.search_ef, count) for p in providers}) == 1
    )
    if not together:
        return [p.entry_points_batch(queries, count) for p in providers]
    return _walk_together(providers, queries, count)


def _walk_together(
    navs: list[NavigationGraph], queries: np.ndarray, count: int
) -> list[tuple[np.ndarray, np.ndarray]]:
    """One lockstep wave of every query over every graph of ``navs`` (L2,
    one pool size): :func:`entry_walks`' wide case."""
    rows = len(queries)
    _, pool = lockstep_walk(
        [
            WaveGraph(p.graph.neighbor_lists(), p.sample_vectors, [p.entry])
            for p in navs
        ],
        [rows] * len(navs), navs[0].metric,
        queries if len(navs) == 1 else np.concatenate([queries] * len(navs)),
        max(navs[0].search_ef, count), with_pool=True,
    )
    walks = []
    for g, nav in enumerate(navs):
        mine = slice(g * rows, (g + 1) * rows)
        # A graph with fewer reachable samples than ``count`` leaves -1
        # padding in the pool; trim it (by the same amount on every row of
        # the graph) before it can index ``sample_ids``.
        local = pool.ids[mine, :count]
        local = local[:, : int((local[0] >= 0).sum())]
        ids = nav.sample_ids[local]
        scored = pool.scored[mine]
        for i in np.flatnonzero(pool.tied[mine]):
            ids[i], scored[i] = nav.entry_walk(queries[i], count)
        walks.append((ids, scored))
    return walks


class HNSWUpperLayers(_WalkProvider):
    """HNSW's upper layers as a multi-layered navigation structure (§6.7).

    Used by Starling-HNSW: the layer-0 graph lives on disk, the higher layers
    stay in memory and their greedy descent yields the entry point.
    """

    def __init__(self, index: HNSWIndex) -> None:
        self.index = index

    def entry_walk(self, query: np.ndarray, count: int) -> tuple[np.ndarray, int]:
        ep, scored = self.index.descend(query)
        return np.asarray([ep], dtype=np.int64), scored

    @property
    def memory_bytes(self) -> int:
        upper = self.index.upper_layer_vertices()
        vec_bytes = int(upper.size) * self.index.vectors.shape[1] * (
            self.index.vectors.dtype.itemsize
        )
        edge_bytes = 0
        for layer in self.index.layers[1:]:
            edge_bytes += sum(a.nbytes for a in layer.neighbor_lists())
        return vec_bytes + edge_bytes


def build_navigation_graph(
    vectors: np.ndarray,
    metric: Metric | str,
    *,
    sample_ratio: float = 0.1,
    algorithm: str = "vamana",
    max_degree: int = 16,
    build_ef: int = 48,
    search_ef: int = 32,
    seed: int = 0,
) -> NavigationGraph:
    """Sample μ·n vectors and build an in-memory graph index on them.

    Args:
        vectors: The segment's full vector array.
        metric: Distance metric.
        sample_ratio: μ — fraction of vectors sampled (paper default ≈ 0.1).
        algorithm: ``"vamana"``, ``"nsg"`` or ``"hnsw"`` — the paper uses the
            same algorithm as the disk-based graph.
        max_degree: Λ' — smaller than the disk graph's Λ (§4.2 space cost).
        build_ef: construction list size L.
        search_ef: pool size used when answering entry-point queries.
        seed: RNG seed for sampling and construction.
    """
    metric = get_metric(metric)
    if not 0.0 < sample_ratio <= 1.0:
        raise ValueError("sample_ratio must be in (0, 1]")
    n = vectors.shape[0]
    m = max(int(round(sample_ratio * n)), 2)
    m = min(m, n)
    rng = np.random.default_rng(seed)
    sample_ids = np.sort(rng.choice(n, size=m, replace=False)).astype(np.int64)
    sample_vectors = np.ascontiguousarray(vectors[sample_ids])

    build_ef = max(build_ef, max_degree)
    if algorithm == "vamana":
        graph, entry = build_vamana(
            sample_vectors, metric,
            VamanaParams(max_degree=max_degree, build_ef=build_ef, seed=seed),
        )
    elif algorithm == "nsg":
        graph, entry = build_nsg(
            sample_vectors, metric,
            NSGParams(max_degree=max_degree, build_ef=build_ef, seed=seed),
        )
    elif algorithm == "hnsw":
        index = build_hnsw(
            sample_vectors, metric,
            HNSWParams(m=max(max_degree // 2, 2), ef_construction=build_ef,
                       seed=seed),
        )
        graph, entry = index.base_layer, index.entry_point
    else:
        raise ValueError(
            f"unknown navigation algorithm {algorithm!r}; expected "
            "'vamana', 'nsg' or 'hnsw'"
        )
    return NavigationGraph(
        sample_ids, sample_vectors, graph, entry, metric, search_ef=search_ef
    )
