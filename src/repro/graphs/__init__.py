"""Graph indexes: Vamana, HNSW, NSG, kNN graphs, and navigation structures."""

from .adjacency import (
    AdjacencyGraph,
    from_neighbor_lists,
    load_graph,
    random_regular_graph,
    save_graph,
)
from .diagnostics import (
    DegreeStats,
    GraphReport,
    degree_statistics,
    edge_lengths,
    graph_report,
    long_link_fraction,
    nearest_neighbor_scale,
    neighbor_cluster_scatter,
)
from .hnsw import HNSWIndex, HNSWParams, build_hnsw
from .knn import exact_knn_graph, knn_graph, nn_descent_knn_graph
from .navigation import (
    EntryPointProvider,
    FixedEntryPoint,
    HNSWUpperLayers,
    NavigationGraph,
    build_navigation_graph,
)
from .nsg import NSGParams, build_nsg
from .search import SearchTrace, greedy_search
from .vamana import VamanaParams, build_vamana, medoid, robust_prune
from .wavebuild import (
    build_nsg_waves,
    build_vamana_waves,
    robust_prune_wave,
    wave_greedy_search,
)

__all__ = [
    "AdjacencyGraph",
    "DegreeStats",
    "EntryPointProvider",
    "GraphReport",
    "degree_statistics",
    "edge_lengths",
    "graph_report",
    "long_link_fraction",
    "nearest_neighbor_scale",
    "neighbor_cluster_scatter",
    "FixedEntryPoint",
    "HNSWIndex",
    "HNSWParams",
    "HNSWUpperLayers",
    "NSGParams",
    "NavigationGraph",
    "SearchTrace",
    "VamanaParams",
    "build_hnsw",
    "build_navigation_graph",
    "build_nsg",
    "build_nsg_waves",
    "build_vamana",
    "build_vamana_waves",
    "exact_knn_graph",
    "from_neighbor_lists",
    "greedy_search",
    "knn_graph",
    "load_graph",
    "medoid",
    "nn_descent_knn_graph",
    "random_regular_graph",
    "robust_prune",
    "robust_prune_wave",
    "save_graph",
    "wave_greedy_search",
]
