"""HNSW (Malkov & Yashunin, TPAMI 2020) — hierarchical navigable small world.

Starling uses HNSW two ways (§6.7, §7): its layer-0 graph can serve as the
disk-based graph ("Starling-HNSW"), and the upper layers form a natural
multi-layered in-memory navigation graph.  This implementation exposes both:
:attr:`HNSWIndex.base_layer` and :meth:`HNSWIndex.descend_entry_point`.
"""

from __future__ import annotations


from dataclasses import dataclass

import numpy as np

from ..vectors.metrics import Metric, get_metric
from .adjacency import AdjacencyGraph
from .search import greedy_search


@dataclass(frozen=True)
class HNSWParams:
    """Construction hyper-parameters."""

    m: int = 16  # out-degree of upper layers; layer 0 allows 2*m
    ef_construction: int = 64
    seed: int = 0

    def __post_init__(self) -> None:
        if self.m <= 1:
            raise ValueError("m must be > 1")
        if self.ef_construction < self.m:
            raise ValueError("ef_construction must be at least m")

    @property
    def m0(self) -> int:
        return 2 * self.m

    @property
    def level_lambda(self) -> float:
        return 1.0 / np.log(self.m)


class HNSWIndex:
    """A built HNSW index over an in-memory vector array."""

    def __init__(
        self,
        vectors: np.ndarray,
        metric: Metric,
        params: HNSWParams,
        layers: list[AdjacencyGraph],
        levels: np.ndarray,
        entry_point: int,
    ) -> None:
        self.vectors = vectors
        self.metric = metric
        self.params = params
        self.layers = layers
        self.levels = levels
        self.entry_point = entry_point

    @property
    def max_level(self) -> int:
        return len(self.layers) - 1

    @property
    def base_layer(self) -> AdjacencyGraph:
        """Layer-0 graph — what Starling-HNSW stores on disk."""
        return self.layers[0]

    def descend(
        self, query: np.ndarray, *, to_level: int = 0
    ) -> tuple[int, int]:
        """Greedy descent through the upper layers, ef=1 per layer.

        Returns ``(entry point, distance computations)`` for a search at
        ``to_level`` — the HNSW-native form of the navigation graph's
        "query-aware dynamic entry point", and what finding it cost.
        """
        ep = self.entry_point
        d_ep = self.metric.distance(query, self.vectors[ep])
        scored = 1
        for level in range(self.max_level, to_level, -1):
            improved = True
            while improved:
                improved = False
                for v in self.layers[level].neighbors(ep):
                    v = int(v)
                    d = self.metric.distance(query, self.vectors[v])
                    scored += 1
                    if d < d_ep:
                        ep, d_ep = v, d
                        improved = True
        return ep, scored

    def descend_entry_point(self, query: np.ndarray, *, to_level: int = 0) -> int:
        """The entry point of :meth:`descend` alone."""
        return self.descend(query, to_level=to_level)[0]

    def search(self, query: np.ndarray, k: int, ef: int) -> tuple[np.ndarray, np.ndarray]:
        """Full in-memory ANN search (descend, then beam on layer 0)."""
        ep = self.descend_entry_point(query)
        ids, dists, _ = greedy_search(
            self.base_layer, self.vectors, self.metric, query, [ep],
            max(ef, k), k,
        )
        return ids, dists

    def upper_layer_vertices(self) -> np.ndarray:
        """Vertices present above layer 0 (the multi-layer navigation set)."""
        return np.flatnonzero(self.levels >= 1)


def _select_neighbors_heuristic(
    point: int,
    candidates: list[tuple[float, int]],
    vectors: np.ndarray,
    metric: Metric,
    m: int,
) -> list[int]:
    """HNSW's SELECT-NEIGHBORS-HEURISTIC (keeps spatially diverse edges)."""
    selected: list[int] = []
    selected_d: list[float] = []
    for d_c, c in sorted(candidates):
        if c == point:
            continue
        if len(selected) >= m:
            break
        ok = True
        for s, __ in zip(selected, selected_d):
            if metric.distance(vectors[c], vectors[s]) < d_c:
                ok = False
                break
        if ok:
            selected.append(c)
            selected_d.append(d_c)
    if len(selected) < m:
        chosen = set(selected)
        for d_c, c in sorted(candidates):
            if len(selected) >= m:
                break
            if c != point and c not in chosen:
                selected.append(c)
                chosen.add(c)
    return selected


def build_hnsw(
    vectors: np.ndarray,
    metric: Metric | str = "l2",
    params: HNSWParams | None = None,
) -> HNSWIndex:
    """Incrementally insert every vector; returns the built index."""
    metric = get_metric(metric)
    params = params or HNSWParams()
    n = vectors.shape[0]
    if n < 2:
        raise ValueError("need at least two vectors")
    rng = np.random.default_rng(params.seed)

    levels = np.minimum(
        np.floor(-np.log(rng.uniform(size=n)) * params.level_lambda).astype(int),
        12,
    )
    levels[0] = int(levels.max())  # ensure the first insert owns the top level
    max_level = int(levels.max())
    layers = [
        AdjacencyGraph(n, params.m0 if lvl == 0 else params.m)
        for lvl in range(max_level + 1)
    ]
    entry_point = 0

    def search_layer(
        query: np.ndarray, ep: int, ef: int, level: int
    ) -> list[tuple[float, int]]:
        ids, dists, _ = greedy_search(
            layers[level], vectors, metric, query, [ep], ef
        )
        return list(zip(dists.tolist(), ids.tolist()))

    for point in range(1, n):
        q = vectors[point]
        l_point = int(levels[point])
        ep = entry_point
        # Greedy descent above the insertion level.
        for level in range(int(levels[entry_point]), l_point, -1):
            found = search_layer(q, ep, 1, level)
            if found:
                ep = found[0][1]
        # Insert with efConstruction from the top insertion layer down.
        for level in range(min(l_point, int(levels[entry_point])), -1, -1):
            candidates = search_layer(q, ep, params.ef_construction, level)
            m_here = params.m0 if level == 0 else params.m
            chosen = _select_neighbors_heuristic(
                point, candidates, vectors, metric, m_here
            )
            layers[level].set_neighbors(point, chosen)
            for nbr in chosen:
                if not layers[level].add_edge(nbr, point):
                    # Overflow: re-select the neighbour's adjacency list.
                    nbr_cands = [
                        (metric.distance(vectors[nbr], vectors[int(x)]), int(x))
                        for x in layers[level].neighbors(nbr)
                    ]
                    nbr_cands.append(
                        (metric.distance(vectors[nbr], vectors[point]), point)
                    )
                    layers[level].set_neighbors(
                        nbr,
                        _select_neighbors_heuristic(
                            nbr, nbr_cands, vectors, metric, m_here
                        ),
                    )
            if candidates:
                ep = candidates[0][1]
        if l_point > int(levels[entry_point]):
            entry_point = point

    return HNSWIndex(vectors, metric, params, layers, levels, entry_point)
