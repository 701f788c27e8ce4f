"""I/O-strategy design-space sweep: layout × block-cache strategies.

One shared Vamana graph, navigation graph, and PQ router are built once;
each sweep cell then lays the graph out with one
:class:`~repro.layout.strategies.LayoutStrategy` (pruning included, for
"bamg"), serializes it to a *fresh* block device, fronts it with one
block-cache strategy at equal capacity, and runs the same serial query
batch.  Reported per cell: the paper's I/O metrics — mean device block
reads, mean round trips, OR(G) (Eq. 5) — plus recall@k.  Everything in the
report is a counter or a ratio of counters; no wall clock is recorded.

Counter honesty is asserted per cell, not assumed: the sum of the
per-query ``num_ios`` / ``round_trips`` counters must equal the device
counter delta across the batch.  Cache hits are therefore invisible (they
never left the device) and locality prefetches are charged in full (they
did).

Three headline ratios are dimensionless, hence comparable across machine
sizes; ``benchmarks/test_iospace.py`` checks them for drift against the
committed ``BENCH_iospace.json``:

- ``bamg_round_trip_ratio`` — bamg vs its own unpruned base layout, no
  cache (lower is better: the point of block-aware pruning is fewer
  re-entries, i.e. fewer round trips);
- ``bamg_recall_ratio`` — same cells, recall@k (higher is better: the
  pruning must not cost accuracy);
- ``locality_vs_lru_reads_ratio`` — locality vs LRU device block reads at
  equal capacity on the bnf layout (lower is better).

Run via ``benchmarks/test_iospace.py`` or the CLI's ``bench-iospace``
command; both emit ``BENCH_iospace.json``.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

import numpy as np

from ..core.config import StarlingConfig
from ..core.segment import BuildTimings, MemoryFootprint, StarlingIndex
from ..engine.cache_strategies import select_hot_blocks, wrap_with_cache_strategy
from ..layout.layout import assignment_from_layout, overlap_ratio
from ..layout.strategies import get_layout_strategy
from ..metrics import mean_recall_at_k
from ..storage.codec import VertexFormat
from ..storage.disk_graph import build_disk_graph

#: default workload family — uint8 vectors pack many vertices per block,
#: which is the regime where layout and caching decisions matter most
DEFAULT_FAMILY = "bigann"

#: layout axis: ``(strategy name, strategy params)`` per cell row
DEFAULT_LAYOUTS: tuple[tuple[str, tuple], ...] = (
    ("none", ()),
    ("bnf", ()),
    ("bamg", (("base", "bnf"),)),
)

#: cache axis (columns); all run at the same :data:`DEFAULT_CAPACITY_BLOCKS`
DEFAULT_CACHES = ("none", "lru", "hot", "locality")

#: default cache capacity as a fraction of the graph's block count — an
#: absolute default would mean wildly different cache pressure across the
#: ``REPRO_BENCH_N`` sizings (32 blocks is 18% of a 3000-vector bigann
#: graph but 43% of a 1500-vector one, where both caches trivially cover
#: the working set and the comparison collapses into noise)
DEFAULT_CAPACITY_FRACTION = 0.15

#: floor on the derived capacity, in blocks
MIN_CAPACITY_BLOCKS = 8

DEFAULT_CANDIDATE_SIZE = 64


@dataclass
class CellResult:
    """One (layout strategy × cache strategy) sweep cell."""

    layout: str
    cache: str
    or_g: float
    recall: float
    mean_block_reads: float
    mean_round_trips: float
    mean_cache_hits: float
    mean_prefetch_blocks: float
    device_blocks_read: int
    device_round_trips: int
    counters_honest: bool


@dataclass
class IOSpaceReport:
    """Full sweep matrix plus the guardable headline ratios."""

    family: str
    num_vectors: int
    num_queries: int
    k: int
    candidate_size: int
    capacity_blocks: int
    cells: list[CellResult] = field(default_factory=list)

    def cell(self, layout: str, cache: str) -> CellResult:
        for c in self.cells:
            if c.layout == layout and c.cache == cache:
                return c
        raise KeyError(f"no sweep cell ({layout!r}, {cache!r})")

    # -- headline ratios (dimensionless, guarded) -------------------------

    @property
    def bamg_base_layout(self) -> str:
        """The shuffler bamg laid blocks out with (its comparison row)."""
        for c in self.cells:
            if c.layout == "bamg":
                return "bnf"
        return "bnf"

    @property
    def bamg_round_trip_ratio(self) -> float:
        """Round trips, bamg vs its unpruned base layout (no cache)."""
        base = self.cell(self.bamg_base_layout, "none").mean_round_trips
        if base <= 0:
            return 0.0
        return self.cell("bamg", "none").mean_round_trips / base

    @property
    def bamg_recall_ratio(self) -> float:
        """Recall@k, bamg vs its unpruned base layout (no cache)."""
        base = self.cell(self.bamg_base_layout, "none").recall
        if base <= 0:
            return 0.0
        return self.cell("bamg", "none").recall / base

    @property
    def locality_vs_lru_reads_ratio(self) -> float:
        """Device block reads, locality vs LRU at equal capacity (bnf)."""
        base = self.cell("bnf", "lru").mean_block_reads
        if base <= 0:
            return 0.0
        return self.cell("bnf", "locality").mean_block_reads / base

    @property
    def counters_honest(self) -> bool:
        """Every cell's per-query counters matched its device delta."""
        return bool(self.cells) and all(c.counters_honest for c in self.cells)

    def to_dict(self) -> dict:
        return {
            "workload": {
                "family": self.family,
                "num_vectors": self.num_vectors,
                "num_queries": self.num_queries,
                "k": self.k,
                "candidate_size": self.candidate_size,
                "capacity_blocks": self.capacity_blocks,
            },
            "headline": {
                "bamg_round_trip_ratio": self.bamg_round_trip_ratio,
                "bamg_recall_ratio": self.bamg_recall_ratio,
                "locality_vs_lru_reads_ratio": (
                    self.locality_vs_lru_reads_ratio
                ),
            },
            "counters_honest": self.counters_honest,
            "cells": [asdict(c) for c in self.cells],
        }

    def write_json(self, path: str) -> str:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2)
            fh.write("\n")
        return path

    def matrix(self, attr: str) -> list[list[float]]:
        """One metric as a layout-rows × cache-columns value grid."""
        layouts = list(dict.fromkeys(c.layout for c in self.cells))
        caches = list(dict.fromkeys(c.cache for c in self.cells))
        return [
            [getattr(self.cell(lo, ca), attr) for ca in caches]
            for lo in layouts
        ]


def run_iospace(
    family: str = DEFAULT_FAMILY,
    *,
    num_queries: int | None = None,
    k: int = 10,
    candidate_size: int = DEFAULT_CANDIDATE_SIZE,
    capacity_blocks: int | None = None,
    layouts: tuple[tuple[str, tuple], ...] = DEFAULT_LAYOUTS,
    caches: tuple[str, ...] = DEFAULT_CACHES,
) -> IOSpaceReport:
    """Sweep the layout × cache strategy matrix on one shared graph.

    The expensive shared artifacts (Vamana graph, navigation graph, PQ,
    exact ground truth) are built once through the memoized workload
    helpers; only the per-cell disk serialization and query batch vary.
    Queries run serially so each cell's device delta is attributable.
    ``capacity_blocks=None`` derives the equal cache capacity from the
    graph size (:data:`DEFAULT_CAPACITY_FRACTION` of its blocks).
    """
    from .workloads import knn_truth, vamana_graph

    graph, entry, ds = vamana_graph(family)
    vectors = ds.vectors
    metric = ds.metric
    queries = np.asarray(ds.queries, dtype=np.float32)
    if num_queries is not None:
        queries = queries[:num_queries]
    truth = knn_truth(family, None, k)[: len(queries)]

    cfg = StarlingConfig()
    fmt = VertexFormat(
        dim=ds.dim,
        dtype=vectors.dtype,
        max_degree=graph.max_degree,
        block_bytes=cfg.block_bytes,
    )
    if capacity_blocks is None:
        capacity_blocks = max(
            MIN_CAPACITY_BLOCKS,
            round(DEFAULT_CAPACITY_FRACTION * fmt.num_blocks(len(vectors))),
        )

    # Shared read-path components, built once (identical across cells so
    # cell differences are attributable to layout/cache alone).
    from ..graphs.navigation import build_navigation_graph
    from ..quantization.pq import ProductQuantizer

    entry_provider = build_navigation_graph(
        vectors, metric,
        sample_ratio=cfg.navigation.sample_ratio,
        algorithm="vamana",
        max_degree=cfg.navigation.max_degree,
        build_ef=cfg.navigation.build_ef,
        search_ef=cfg.navigation.search_ef,
        seed=cfg.seed,
    )
    pq = ProductQuantizer(
        cfg.pq.num_subspaces, cfg.pq.num_centroids, metric
    ).fit_dataset(vectors, seed=cfg.seed)

    report = IOSpaceReport(
        family=family,
        num_vectors=int(vectors.shape[0]),
        num_queries=len(queries),
        k=k,
        candidate_size=candidate_size,
        capacity_blocks=capacity_blocks,
    )

    for layout_name, layout_params in layouts:
        strategy = get_layout_strategy(
            layout_name,
            iterations=cfg.shuffle_iterations,
            gain_threshold=cfg.shuffle_gain_threshold,
            seed=cfg.seed,
            params=layout_params,
        )
        layout = strategy.assign(graph, fmt.vertices_per_block,
                                 vectors=vectors)
        pruned = strategy.prune_for_layout(graph, layout, vectors, metric)
        or_g = overlap_ratio(pruned, layout)
        assignment = assignment_from_layout(layout, pruned.num_vertices)
        pinned = None
        if "hot" in caches and capacity_blocks > 0:
            pinned = select_hot_blocks(
                pruned, vectors, metric, entry, assignment,
                capacity_blocks, seed=cfg.seed,
            )
        neighbor_lists = pruned.neighbor_lists()

        for cache_name in caches:
            # A fresh device per cell: counters start at zero and no cache
            # state leaks between cells.
            base = build_disk_graph(vectors, neighbor_lists, layout, fmt)
            disk_graph = wrap_with_cache_strategy(
                base, cache_name, capacity_blocks, pinned_blocks=pinned,
            )
            cell_cfg = cfg.with_(
                shuffle=layout_name,
                layout_params=layout_params,
                cache_strategy=cache_name,
                block_cache_blocks=(
                    capacity_blocks if cache_name != "none" else 0
                ),
            )
            index = StarlingIndex(
                disk_graph, pq, metric, entry_provider, cell_cfg,
                BuildTimings(), MemoryFootprint(), layout_or=or_g,
            )

            # Snapshot after construction so the pinned cache's preload
            # (build/load-time I/O) stays out of the per-query delta.
            before = disk_graph.device.counters.snapshot()
            results = [
                index.search(q, k, candidate_size) for q in queries
            ]
            delta = disk_graph.device.counters.snapshot().since(before)

            sum_ios = sum(r.stats.num_ios for r in results)
            sum_trips = sum(r.stats.round_trips for r in results)
            n = len(results)
            report.cells.append(CellResult(
                layout=layout_name,
                cache=cache_name,
                or_g=or_g,
                recall=mean_recall_at_k(
                    [r.ids for r in results], truth, k
                ),
                mean_block_reads=sum_ios / n,
                mean_round_trips=sum_trips / n,
                mean_cache_hits=(
                    sum(r.stats.block_cache_hits for r in results) / n
                ),
                mean_prefetch_blocks=(
                    sum(r.stats.prefetch_blocks for r in results) / n
                ),
                device_blocks_read=delta.blocks_read,
                device_round_trips=delta.round_trips,
                counters_honest=(
                    sum_ios == delta.blocks_read
                    and sum_trips == delta.round_trips
                ),
            ))
    return report
