"""NSG — Navigating Spreading-out Graph (Fu et al., VLDB 2019).

One of the three graph algorithms Starling supports as its disk-based graph
(§6.7, "Starling-NSG").  Construction:

1. build an (approximate) kNN graph;
2. find the navigating node — the vertex closest to the dataset centroid;
3. for every vertex, search the kNN graph from the navigating node and apply
   the MRNG edge-selection rule over (visited ∪ kNN) candidates;
4. graft a spanning tree from the navigating node so the graph stays
   connected (NSG's DFS step).

Step 3 has one implementation, the wave build of
:func:`repro.graphs.wavebuild.build_nsg_waves`: the searches run over the
static kNN graph and each vertex's selection is independent, so a wave of
vertices sees exactly what one vertex at a time would.  The per-point loop
is the test reference (``tests/oracles.py::oracle_build_nsg``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..buildspec import BuildSpec
from ..vectors.metrics import Metric
from .adjacency import AdjacencyGraph


@dataclass(frozen=True)
class NSGParams:
    """Construction hyper-parameters."""

    max_degree: int = 32
    build_ef: int = 64  # search list used while selecting candidates
    knn_k: int = 24  # degree of the base kNN graph
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_degree <= 0:
            raise ValueError("max_degree must be positive")
        if self.knn_k <= 0:
            raise ValueError("knn_k must be positive")


def build_nsg(
    vectors: np.ndarray,
    metric: Metric | str = "l2",
    params: NSGParams | None = None,
    *,
    spec: BuildSpec | None = None,
) -> tuple[AdjacencyGraph, int]:
    """Build an NSG; returns ``(graph, navigating_node)``.

    ``spec`` contributes only its ``wave_size`` — how many vertices each
    lockstep kernel call covers.  The graph does not depend on it (nor on
    the mode): NSG has one build.
    """
    from .wavebuild import build_nsg_waves

    return build_nsg_waves(
        vectors, metric, params or NSGParams(), spec or BuildSpec()
    )


def _ensure_connectivity(
    graph: AdjacencyGraph,
    vectors: np.ndarray,
    metric: Metric,
    nav: int,
) -> None:
    """NSG's tree-grafting step: link unreachable vertices into the graph.

    Repeatedly finds a vertex not reachable from the navigating node, searches
    for its nearest reachable vertex, and adds an edge from that vertex (making
    room by dropping its farthest neighbour if full).

    The drop-farthest rule alone can livelock: grafting u may evict the edge
    keeping w reachable, and re-grafting w may evict u's edge again, forever.
    First-time grafts keep that classic rule.  A vertex that comes back after
    an earlier graft is re-attached without dropping — at its nearest
    reachable vertex with spare capacity — and if every anchor is full, the
    replacement edge is protected from future drops.  Every iteration then
    either spends a first-time graft (≤ n), grows the edge count, or grows
    the protected set, so the loop terminates.
    """
    n = graph.num_vertices
    if n <= 1:
        return
    grafted = np.zeros(n, dtype=bool)
    protected: set[tuple[int, int]] = set()
    while True:
        reachable = graph.reachable_from(nav)
        missing = np.flatnonzero(~reachable)
        if missing.size == 0:
            return
        u = int(missing[0])
        reach_ids = np.flatnonzero(reachable)
        d = metric.distances(vectors[u], vectors[reach_ids])
        if grafted[u]:
            # A later drop disconnected u again: attach without dropping.
            attached = False
            for a in reach_ids[np.argsort(d, kind="stable")]:
                if graph.add_edge(int(a), u):
                    protected.add((int(a), u))
                    attached = True
                    break
            if attached:
                continue
            # All reachable anchors full: fall through to drop-farthest,
            # but protect the new edge so the eviction cycle cannot recur.
            protected.add((int(reach_ids[np.argmin(d)]), u))
        grafted[u] = True
        anchor = int(reach_ids[np.argmin(d)])
        if not graph.add_edge(anchor, u):
            nbrs = graph.neighbors(anchor).astype(np.int64)
            nd = metric.distances(vectors[anchor], vectors[nbrs])
            droppable = np.asarray(
                [(anchor, int(v)) not in protected for v in nbrs]
            )
            if not droppable.any():  # pragma: no cover - extreme corner
                droppable[:] = True
            nd = np.where(droppable, nd, -np.inf)
            drop = int(np.argmax(nd))
            new = np.delete(nbrs, drop)
            graph.set_neighbors(anchor, np.append(new, u))
        # Loop: attaching u may make a whole unreachable component reachable.
