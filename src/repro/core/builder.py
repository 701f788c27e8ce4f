"""End-to-end segment index construction pipelines.

Starling's offline pipeline (Eq. 8): build the disk-based graph, block-shuffle
its layout, build the in-memory navigation graph on a sample, and train PQ.
DiskANN's (Eq. 9): build the same graph, gather hot vertices, train PQ.
Every step is timed so Fig. 8(a)'s breakdown can be regenerated.
"""

from __future__ import annotations

import os
import time

import numpy as np

from ..buildspec import BuildSpec
from ..engine.block_cache import CachedDiskGraph
from ..engine.cache import build_hot_vertex_cache
from ..engine.cache_strategies import (
    select_hot_blocks,
    wrap_with_cache_strategy,
)
from ..engine.cost import ComputeSpec
from ..graphs.adjacency import AdjacencyGraph
from ..graphs.hnsw import HNSWIndex, HNSWParams, build_hnsw
from ..graphs.navigation import (
    FixedEntryPoint,
    HNSWUpperLayers,
    build_navigation_graph,
)
from ..graphs.nsg import NSGParams, build_nsg
from ..graphs.vamana import VamanaParams, build_vamana
from ..layout.layout import (
    assignment_from_layout,
    id_contiguous_layout,
    overlap_ratio,
)
from ..layout.strategies import get_layout_strategy
from ..quantization.opq import OptimizedProductQuantizer
from ..quantization.pq import ProductQuantizer
from ..quantization.scalar import ScalarQuantizer
from ..storage.codec import VertexFormat
from ..storage.device import DiskSpec
from ..storage.disk_graph import build_disk_graph
from ..vectors.dataset import VectorDataset
from .config import DiskANNConfig, GraphConfig, StarlingConfig
from .segment import BuildTimings, DiskANNIndex, MemoryFootprint, StarlingIndex


def _build_graph(
    vectors: np.ndarray, metric, cfg: GraphConfig,
    spec: BuildSpec | None = None,
) -> tuple[AdjacencyGraph, int, HNSWIndex | None]:
    """Dispatch on the configured graph algorithm.

    Returns ``(graph, entry_point, hnsw_index_or_None)`` — the HNSW index is
    kept so its upper layers can serve as the navigation structure.
    ``spec`` selects the wave-batched construction path for Vamana and NSG;
    HNSW's insertion order is inherently sequential, so it ignores it.
    """
    if cfg.algorithm == "vamana":
        graph, entry = build_vamana(
            vectors, metric,
            VamanaParams(
                max_degree=cfg.max_degree, build_ef=cfg.build_ef,
                alpha=cfg.alpha, seed=cfg.seed,
            ),
            spec=spec,
        )
        return graph, entry, None
    if cfg.algorithm == "nsg":
        graph, entry = build_nsg(
            vectors, metric,
            NSGParams(
                max_degree=cfg.max_degree, build_ef=cfg.build_ef,
                seed=cfg.seed,
            ),
            spec=spec,
        )
        return graph, entry, None
    index = build_hnsw(
        vectors, metric,
        HNSWParams(
            m=max(cfg.max_degree // 2, 2), ef_construction=cfg.build_ef,
            seed=cfg.seed,
        ),
    )
    return index.base_layer, index.entry_point, index


def _layout_strategy(config: StarlingConfig):
    """The configured :class:`~repro.layout.strategies.LayoutStrategy`.

    The strategy wrappers call the exact shuffler entry points the old
    inline dispatch did, with the same arguments — so the default
    configuration produces bit-identical layouts to earlier releases.
    """
    return get_layout_strategy(
        config.shuffle,
        iterations=config.shuffle_iterations,
        gain_threshold=config.shuffle_gain_threshold,
        seed=config.seed,
        params=config.layout_params,
    )


def _build_quantizer(kind: str, pq_cfg, metric, vectors, seed: int):
    """Instantiate the configured approximate router (PQ / OPQ / SQ8)."""
    if kind == "pq":
        return ProductQuantizer(
            pq_cfg.num_subspaces, pq_cfg.num_centroids, metric
        ).fit_dataset(vectors, seed=seed)
    if kind == "opq":
        return OptimizedProductQuantizer(
            pq_cfg.num_subspaces, pq_cfg.num_centroids, metric
        ).fit_dataset(vectors, seed=seed)
    if kind == "sq8":
        return ScalarQuantizer(metric).fit_dataset(vectors, seed=seed)
    raise ValueError(f"unknown quantizer {kind!r}")


def build_starling(
    dataset: VectorDataset,
    config: StarlingConfig | None = None,
    *,
    path: str | os.PathLike | None = None,
    disk_spec: DiskSpec | None = None,
    compute_spec: ComputeSpec | None = None,
    build_spec: BuildSpec | None = None,
) -> StarlingIndex:
    """Build a complete Starling index for one segment.

    Args:
        dataset: The segment's vectors (queries are ignored at build time).
        config: Full configuration; defaults follow the paper.
        path: Optional backing file for the disk-resident graph.
        disk_spec: Disk latency model for simulated query time.
        compute_spec: Compute cost model.
        build_spec: Build strategy (serial / wave-batched);
            the default serial path is bit-identical to earlier releases.
    """
    config = config or StarlingConfig()
    vectors = dataset.vectors
    metric = dataset.metric
    timings = BuildTimings()

    t0 = time.perf_counter()
    graph, entry, hnsw_index = _build_graph(
        vectors, metric, config.graph, build_spec
    )
    timings.disk_graph_s = time.perf_counter() - t0

    fmt = VertexFormat(
        dim=dataset.dim,
        dtype=vectors.dtype,
        max_degree=graph.max_degree,
        block_bytes=config.block_bytes,
    )
    t0 = time.perf_counter()
    strategy = _layout_strategy(config)
    layout = strategy.assign(graph, fmt.vertices_per_block, vectors=vectors)
    # Layout-aware graph rewrite (identity for the shufflers; BAMG drops
    # block-redundant edges here).  What goes to disk — and what OR(G)
    # describes — is the pruned graph.
    graph = strategy.prune_for_layout(graph, layout, vectors, metric)
    layout_or = overlap_ratio(graph, layout)
    timings.shuffle_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    if not config.use_navigation_graph:
        entry_provider = FixedEntryPoint(entry)
    elif config.graph.algorithm == "hnsw" and hnsw_index is not None:
        entry_provider = HNSWUpperLayers(hnsw_index)
    else:
        entry_provider = build_navigation_graph(
            vectors, metric,
            sample_ratio=config.navigation.sample_ratio,
            algorithm=config.graph.algorithm,
            max_degree=config.navigation.max_degree,
            build_ef=config.navigation.build_ef,
            search_ef=config.navigation.search_ef,
            seed=config.seed,
        )
    timings.memory_graph_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    pq = _build_quantizer(config.quantizer, config.pq, metric, vectors,
                          config.seed)
    timings.pq_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    disk_graph = build_disk_graph(
        vectors, graph.neighbor_lists(), layout, fmt,
        path=path, spec=disk_spec,
    )
    timings.disk_write_s = time.perf_counter() - t0
    cache_name = config.cache_strategy
    pinned = None
    if cache_name == "hot" and config.block_cache_blocks > 0:
        # Offline hot-block selection, charged to T_hot like DiskANN's
        # vertex-granular equivalent.
        t0 = time.perf_counter()
        pinned = select_hot_blocks(
            graph, vectors, metric, entry,
            assignment_from_layout(layout, graph.num_vertices),
            config.block_cache_blocks, seed=config.seed,
        )
        timings.hot_cache_s = time.perf_counter() - t0
    disk_graph = wrap_with_cache_strategy(
        disk_graph, cache_name, config.block_cache_blocks,
        params=config.cache_params, pinned_blocks=pinned,
    )
    memory = MemoryFootprint(
        graph_bytes=entry_provider.memory_bytes,
        mapping_bytes=disk_graph.mapping_bytes,
        pq_bytes=pq.code_bytes + pq.codebook_bytes,
        block_cache_bytes=getattr(disk_graph, "memory_bytes", 0),
    )
    return StarlingIndex(
        disk_graph, pq, metric, entry_provider, config, timings, memory,
        layout_or=layout_or, disk_spec=disk_spec, compute_spec=compute_spec,
    )


def build_diskann(
    dataset: VectorDataset,
    config: DiskANNConfig | None = None,
    *,
    path: str | os.PathLike | None = None,
    disk_spec: DiskSpec | None = None,
    compute_spec: ComputeSpec | None = None,
    build_spec: BuildSpec | None = None,
) -> DiskANNIndex:
    """Build the baseline DiskANN index for one segment."""
    config = config or DiskANNConfig()
    vectors = dataset.vectors
    metric = dataset.metric
    timings = BuildTimings()

    t0 = time.perf_counter()
    graph, entry, _ = _build_graph(vectors, metric, config.graph, build_spec)
    timings.disk_graph_s = time.perf_counter() - t0

    fmt = VertexFormat(
        dim=dataset.dim,
        dtype=vectors.dtype,
        max_degree=graph.max_degree,
        block_bytes=config.block_bytes,
    )
    layout = id_contiguous_layout(graph.num_vertices, fmt.vertices_per_block)

    t0 = time.perf_counter()
    cache = None
    if config.cache_ratio > 0.0:
        cache = build_hot_vertex_cache(
            graph, vectors, metric, entry,
            cache_ratio=config.cache_ratio,
            num_sample_queries=config.cache_sample_queries,
            seed=config.seed,
        )
    timings.hot_cache_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    pq = _build_quantizer(config.quantizer, config.pq, metric, vectors,
                          config.seed)
    timings.pq_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    disk_graph = build_disk_graph(
        vectors, graph.neighbor_lists(), layout, fmt,
        path=path, spec=disk_spec,
    )
    timings.disk_write_s = time.perf_counter() - t0
    if config.block_cache_blocks > 0:
        disk_graph = CachedDiskGraph(disk_graph, config.block_cache_blocks)
    memory = MemoryFootprint(
        block_cache_bytes=getattr(disk_graph, "memory_bytes", 0),
        cache_bytes=cache.memory_bytes if cache is not None else 0,
        pq_bytes=pq.code_bytes + pq.codebook_bytes,
        # DiskANN's ID-contiguous layout locates blocks arithmetically, so it
        # carries no vertex→block map (§6.4).
        mapping_bytes=0,
    )
    return DiskANNIndex(
        disk_graph, pq, metric, FixedEntryPoint(entry), config, timings,
        memory, cache=cache, disk_spec=disk_spec, compute_spec=compute_spec,
    )
