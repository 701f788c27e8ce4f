"""Pluggable layout strategies: one seam over every block-placement heuristic.

Starling answers the disk-layout question with block shuffling (maximize
OR(G), §4.1); the follow-on literature answers it differently — BAMG prunes
the *graph* so greedy search crosses block boundaries monotonically instead
of repacking the blocks.  This module turns the choice into an explicit
strategy object with two hooks:

``assign(graph, vertices_per_block, *, vectors=None) -> Layout``
    Place every vertex into a block (a partition of V with ≤ ε per block).

``prune_for_layout(graph, layout, vectors, metric) -> AdjacencyGraph``
    Optionally rewrite the graph *given* the chosen layout, before it is
    serialized to disk.  The default is the identity, so every pre-existing
    shuffler behaves exactly as before; the BAMG strategy drops
    block-redundant edges here.

Both hooks are pure functions of their inputs (no hidden RNG beyond the
configured seed), so a strategy composes with the wave-batched build path:
identical graphs in → identical layouts and pruned graphs out, preserving
the serial-vs-wave bit-identity gates.

The built-in names are the values of ``StarlingConfig.shuffle``: the
shufflers ("none", "bnf", "bnp", "bns", "gp1", "gp2", "gp3", "kmeans") plus
"bamg".  Strategy
parameters travel as a tuple of ``(key, value)`` pairs — hashable, so bench
memoization keyed on frozen configs keeps working, and JSON-safe for the
persist round-trip.
"""

from __future__ import annotations

import numpy as np

from ..graphs.adjacency import AdjacencyGraph
from ..vectors.metrics import Metric
from .bnf import bnf_layout
from .bnp import bnp_layout
from .bns import bns_layout
from .layout import Layout, assignment_from_layout, id_contiguous_layout
from .partitioning import (
    gp1_hierarchical_clustering_layout,
    gp2_greedy_growing_layout,
    gp3_restreaming_layout,
    kmeans_layout,
)

StrategyParams = tuple[tuple[str, object], ...]


def params_dict(params: StrategyParams) -> dict:
    """Tuple-of-pairs params → dict (the tuple form keeps configs hashable)."""
    return {str(k): v for k, v in (params or ())}


class LayoutStrategy:
    """Base strategy: id-contiguous placement, identity pruning.

    Subclasses override :meth:`assign` (and optionally
    :meth:`prune_for_layout`).  ``iterations`` / ``gain_threshold`` / ``seed``
    mirror the knobs ``StarlingConfig`` already carries for the shufflers.
    """

    name = "none"
    #: whether :meth:`assign` needs the raw vectors (gp1 / kmeans / bamg)
    needs_vectors = False

    def __init__(self, *, iterations: int = 8, gain_threshold: float = 0.01,
                 seed: int = 0, params: StrategyParams = ()) -> None:
        self.iterations = iterations
        self.gain_threshold = gain_threshold
        self.seed = seed
        self.params = tuple(params or ())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(params={self.params!r})"

    def assign(
        self, graph: AdjacencyGraph, vertices_per_block: int,
        *, vectors: np.ndarray | None = None,
    ) -> Layout:
        return id_contiguous_layout(graph.num_vertices, vertices_per_block)

    def prune_for_layout(
        self,
        graph: AdjacencyGraph,
        layout: Layout,
        vectors: np.ndarray | None,
        metric: Metric | None,
    ) -> AdjacencyGraph:
        """Rewrite the graph for the chosen layout; identity by default."""
        return graph


class BnpStrategy(LayoutStrategy):
    name = "bnp"

    def assign(self, graph, vertices_per_block, *, vectors=None):
        return bnp_layout(graph, vertices_per_block)


class BnfStrategy(LayoutStrategy):
    name = "bnf"

    def assign(self, graph, vertices_per_block, *, vectors=None):
        return bnf_layout(
            graph, vertices_per_block, max_iterations=self.iterations,
            gain_threshold=self.gain_threshold,
        ).layout


class BnsStrategy(LayoutStrategy):
    name = "bns"

    def assign(self, graph, vertices_per_block, *, vectors=None):
        return bns_layout(
            graph, vertices_per_block, max_iterations=self.iterations,
            gain_threshold=self.gain_threshold,
        ).layout


class Gp1Strategy(LayoutStrategy):
    name = "gp1"
    needs_vectors = True

    def assign(self, graph, vertices_per_block, *, vectors=None):
        return gp1_hierarchical_clustering_layout(
            graph, vectors, vertices_per_block, seed=self.seed
        )


class Gp2Strategy(LayoutStrategy):
    name = "gp2"

    def assign(self, graph, vertices_per_block, *, vectors=None):
        return gp2_greedy_growing_layout(
            graph, vertices_per_block, seed=self.seed
        )


class Gp3Strategy(LayoutStrategy):
    name = "gp3"

    def assign(self, graph, vertices_per_block, *, vectors=None):
        return gp3_restreaming_layout(
            graph, vertices_per_block, max_iterations=self.iterations,
            gain_threshold=self.gain_threshold,
        ).layout


class KmeansStrategy(LayoutStrategy):
    name = "kmeans"
    needs_vectors = True

    def assign(self, graph, vertices_per_block, *, vectors=None):
        return kmeans_layout(graph, vectors, vertices_per_block,
                             seed=self.seed)


def bamg_prune(
    graph: AdjacencyGraph,
    layout: Layout,
    vectors: np.ndarray,
    metric: Metric,
    *,
    alpha: float = 1.2,
    refill: bool = True,
) -> AdjacencyGraph:
    """BAMG-style block-aware monotonic pruning of a laid-out graph.

    Starling's block search examines *every* vertex record of a loaded block
    (that I/O is already paid), so multiple out-edges of ``u`` landing in the
    same destination block are redundant: once greedy search enters the
    block, all of its members are candidates anyway.  The rule:

    - intra-block edges are always kept (they cost no extra I/O and carry
      the layout's OR(G) locality);
    - cross-block edges collapse to one **portal** per destination block —
      the closest neighbour in that block (ties: first in adjacency order);
    - portals are then α-occluded against each other, nearest first: portal
      ``v`` is dropped when an already-kept portal ``w`` satisfies
      ``α · d(w, v) ≤ d(u, v)`` — the search can reach ``v``'s block region
      through ``w``'s block while moving monotonically toward the query.
      ``alpha <= 0`` disables occlusion (portal collapse only);
    - with ``refill`` (the default), the degree slots freed by the collapse
      are re-spent on 2-hop **portals to blocks not yet covered** by ``u``'s
      out-edges: candidates are the neighbours-of-neighbours, closest first
      (ties toward the smaller id), at most one per new destination block,
      α-occluded against the kept portals, never exceeding the original
      out-degree.  Collapse alone only shortens adjacency lists — it is the
      refill that raises the number of *distinct* blocks reachable per block
      read, which is what converts the freed slots into fewer round trips.

    The function is deterministic and pure in ``(graph, layout, vectors)``:
    identical inputs give bit-identical outputs, so it composes with the
    wave-batched build path (whose serial-vs-wave graphs are themselves
    bit-identical).  Surviving original edges keep their adjacency order;
    refilled portals follow them.
    """
    n = graph.num_vertices
    assignment = assignment_from_layout(layout, n)
    pruned = AdjacencyGraph(n, graph.max_degree)
    for u in range(n):
        nbrs = graph.neighbors(u)
        if nbrs.size == 0:
            continue
        nbr_blocks = assignment[nbrs]
        cross = nbr_blocks != assignment[u]
        if not cross.any():
            pruned.set_neighbors(u, nbrs)
            continue
        dists = metric.distances(
            vectors[u].astype(np.float32, copy=False), vectors[nbrs]
        )
        # One portal per destination block: the closest cross-block
        # neighbour; np.argmin on the first axis breaks ties toward the
        # earlier adjacency position, which is stable and deterministic.
        portal_pos: dict[int, int] = {}
        for pos in np.flatnonzero(cross):
            block = int(nbr_blocks[pos])
            best = portal_pos.get(block)
            if best is None or dists[pos] < dists[best]:
                portal_pos[block] = int(pos)
        portals = sorted(portal_pos.values(),
                         key=lambda p: (dists[p], p))
        if alpha > 0.0 and len(portals) > 1:
            kept: list[int] = []
            for pos in portals:
                v = int(nbrs[pos])
                occluded = False
                for kpos in kept:
                    w = int(nbrs[kpos])
                    if alpha * metric.distance(vectors[w], vectors[v]) \
                            <= dists[pos]:
                        occluded = True
                        break
                if not occluded:
                    kept.append(pos)
            portals = kept
        keep_mask = ~cross
        keep_mask[portals] = True
        kept = nbrs[keep_mask]
        free = nbrs.size - kept.size
        if refill and free > 0:
            extra = _refill_portals(
                u, nbrs, kept, portals, free, graph, vectors, metric,
                assignment, alpha,
            )
            if extra:
                kept = np.concatenate(
                    [kept, np.asarray(extra, dtype=kept.dtype)]
                )
        pruned.set_neighbors(u, kept)
    return pruned


def _refill_portals(
    u: int,
    nbrs: np.ndarray,
    kept: np.ndarray,
    portals: list[int],
    free: int,
    graph: AdjacencyGraph,
    vectors: np.ndarray,
    metric: Metric,
    assignment: np.ndarray,
    alpha: float,
) -> list[int]:
    """2-hop portal candidates for the degree slots the collapse freed.

    Deterministic: the pool is the sorted union of neighbours-of-neighbours,
    visited closest-to-``u`` first (ties toward the smaller id), one portal
    per still-uncovered destination block, α-occluded against the portals
    already kept and against each other.
    """
    covered = set(assignment[kept].tolist())
    covered.add(int(assignment[u]))
    pool = np.unique(
        np.concatenate([graph.neighbors(int(v)) for v in nbrs])
    )
    pool = pool[(pool != u) & ~np.isin(pool, nbrs)]
    if pool.size == 0:
        return []
    pool = pool[~np.isin(assignment[pool], np.fromiter(covered, dtype=int))]
    if pool.size == 0:
        return []
    pd = metric.distances(
        vectors[u].astype(np.float32, copy=False), vectors[pool]
    )
    guards = [int(nbrs[p]) for p in portals]
    added: list[int] = []
    new_blocks: set[int] = set()
    for idx in np.lexsort((pool, pd)):
        if len(added) >= free:
            break
        v = int(pool[idx])
        block = int(assignment[v])
        if block in new_blocks:
            continue
        if alpha > 0.0 and any(
            alpha * metric.distance(vectors[w], vectors[v]) <= pd[idx]
            for w in guards + added
        ):
            continue
        added.append(v)
        new_blocks.add(block)
    return added


class BamgStrategy(LayoutStrategy):
    """Block-aware monotonic pruning on top of a base placement strategy.

    Params (as ``(key, value)`` pairs):
        ``base``: name of the placement strategy the layout comes from
            (default ``"bnf"`` — the paper's best shuffler, so the
            bamg-vs-base comparison isolates the pruning effect).
        ``alpha``: occlusion slack (default 1.2, Vamana's α); ``0`` keeps
            every portal.
        ``refill``: re-spend freed degree slots on 2-hop portals to
            uncovered blocks (default on; see :func:`bamg_prune`).
    """

    name = "bamg"
    needs_vectors = True

    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs)
        opts = params_dict(self.params)
        self.alpha = float(opts.pop("alpha", 1.2))
        self.refill = bool(opts.pop("refill", True))
        # Consumed by the engine (StarlingConfig.fold_coresident), accepted
        # here so the strict unknown-param check doesn't reject it.
        self.fold = bool(opts.pop("fold", True))
        self.base_name = str(opts.pop("base", "bnf"))
        if opts:
            raise ValueError(f"unknown bamg params: {sorted(opts)}")
        if self.base_name == self.name:
            raise ValueError("bamg cannot stack on itself")
        self.base = get_layout_strategy(
            self.base_name, iterations=self.iterations,
            gain_threshold=self.gain_threshold, seed=self.seed,
        )

    def assign(self, graph, vertices_per_block, *, vectors=None):
        return self.base.assign(graph, vertices_per_block, vectors=vectors)

    def prune_for_layout(self, graph, layout, vectors, metric):
        if vectors is None or metric is None:
            raise ValueError("bamg pruning needs vectors and a metric")
        return bamg_prune(graph, layout, vectors, metric, alpha=self.alpha,
                          refill=self.refill)


LAYOUT_STRATEGIES: dict[str, type[LayoutStrategy]] = {
    cls.name: cls
    for cls in (
        LayoutStrategy, BnpStrategy, BnfStrategy, BnsStrategy,
        Gp1Strategy, Gp2Strategy, Gp3Strategy, KmeansStrategy, BamgStrategy,
    )
}

LAYOUT_STRATEGY_NAMES = tuple(LAYOUT_STRATEGIES)


def get_layout_strategy(
    name: str,
    *,
    iterations: int = 8,
    gain_threshold: float = 0.01,
    seed: int = 0,
    params: StrategyParams = (),
) -> LayoutStrategy:
    """Instantiate a registered strategy by name.

    ``iterations`` / ``gain_threshold`` / ``seed`` carry the config knobs the
    shufflers already honoured; ``params`` carries strategy-specific options.
    """
    try:
        cls = LAYOUT_STRATEGIES[name]
    except KeyError:
        raise ValueError(
            f"unknown layout strategy {name!r}; expected one of "
            f"{LAYOUT_STRATEGY_NAMES}"
        ) from None
    return cls(iterations=iterations, gain_threshold=gain_threshold,
               seed=seed, params=params)
