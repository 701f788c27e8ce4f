"""Directed adjacency-list graphs used by every index in this package.

Edges are directed and stored as per-vertex numpy ID arrays, exactly how the
disk format stores them (§4.1 Notations).  The container enforces the
invariants every builder relies on: IDs in range, no self-loops, no duplicate
neighbours, and degree at most Λ.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

ID_DTYPE = np.uint32


class AdjacencyGraph:
    """A directed graph over vertices ``0..n-1`` with bounded out-degree."""

    def __init__(self, num_vertices: int, max_degree: int) -> None:
        if num_vertices <= 0:
            raise ValueError("num_vertices must be positive")
        if max_degree <= 0:
            raise ValueError("max_degree must be positive")
        self.num_vertices = num_vertices
        self.max_degree = max_degree
        self._neighbors: list[np.ndarray] = [
            np.empty(0, dtype=ID_DTYPE) for _ in range(num_vertices)
        ]

    # -- construction ---------------------------------------------------------

    def set_neighbors(self, vertex: int, neighbors: Iterable[int]) -> None:
        """Replace a vertex's adjacency list, enforcing all invariants."""
        arr = np.asarray(list(neighbors), dtype=np.int64)
        if arr.size:
            if arr.min() < 0 or arr.max() >= self.num_vertices:
                raise ValueError(f"neighbour id out of range for vertex {vertex}")
            if np.any(arr == vertex):
                raise ValueError(f"self-loop on vertex {vertex}")
            # Dedupe while preserving order: builders store neighbours in
            # ascending-distance order and search quality tooling relies on it.
            _, first = np.unique(arr, return_index=True)
            arr = arr[np.sort(first)]
        if arr.size > self.max_degree:
            raise ValueError(
                f"vertex {vertex}: degree {arr.size} exceeds Λ={self.max_degree}"
            )
        self._neighbors[vertex] = arr.astype(ID_DTYPE)

    @classmethod
    def from_padded(
        cls, ids: np.ndarray, counts: np.ndarray, max_degree: int
    ) -> "AdjacencyGraph":
        """The graph whose vertex ``v`` lists ``ids[v, :counts[v]]``.

        Equal to a :meth:`set_neighbors` call per vertex in vertex order,
        first error included: the range, self-loop and over-Λ checks run on
        the whole flat id array, and only a row that holds a duplicate is
        deduped (order-preserving), on its own.
        """
        ids = np.asarray(ids)
        counts = np.asarray(counts, dtype=np.int64)
        n = counts.size
        graph = cls(n, max_degree)
        width = ids.shape[1]
        keep = np.arange(width) < counts[:, None]
        out_of_range = (((ids < 0) | (ids >= n)) & keep).any(axis=1)
        loop = ((ids == np.arange(n)[:, None]) & keep).any(axis=1)
        # A duplicate sorts next to its twin; padding slots get distinct
        # negative keys so they never match (a negative id only matters in
        # a row that fails the range check first).
        keyed = np.where(keep, ids, -1 - np.arange(width))
        keyed.sort(axis=1)
        degree = counts.copy()
        for v in np.flatnonzero((keyed[:, 1:] == keyed[:, :-1]).any(axis=1)):
            first = np.unique(ids[v, : counts[v]], return_index=True)[1]
            keep[v] = False
            keep[v, first] = True
            degree[v] = first.size
        del keyed
        bad = out_of_range | loop | (degree > max_degree)
        if bad.any():
            v = int(np.argmax(bad))
            if out_of_range[v]:
                raise ValueError(f"neighbour id out of range for vertex {v}")
            if loop[v]:
                raise ValueError(f"self-loop on vertex {v}")
            raise ValueError(
                f"vertex {v}: degree {degree[v]} exceeds Λ={max_degree}"
            )
        kept = ids[keep].astype(ID_DTYPE)
        bounds = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(degree, out=bounds[1:])
        bounds = bounds.tolist()
        graph._neighbors = [
            kept[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])
        ]
        return graph

    def add_edge(self, u: int, v: int) -> bool:
        """Add edge u→v if capacity allows; returns True if added."""
        if u == v:
            return False
        current = self._neighbors[u]
        if v in current:
            return False
        if current.size >= self.max_degree:
            return False
        self._neighbors[u] = np.append(current, ID_DTYPE(v))
        return True

    # -- access ---------------------------------------------------------------

    def neighbors(self, vertex: int) -> np.ndarray:
        return self._neighbors[vertex]

    def neighbor_lists(self) -> list[np.ndarray]:
        """All adjacency lists (shared, do not mutate)."""
        return self._neighbors

    def out_degree(self, vertex: int) -> int:
        return int(self._neighbors[vertex].size)

    def degrees(self) -> np.ndarray:
        return np.fromiter(
            (a.size for a in self._neighbors), dtype=np.int64,
            count=self.num_vertices,
        )

    @property
    def num_edges(self) -> int:
        return int(self.degrees().sum())

    @property
    def average_degree(self) -> float:
        return self.num_edges / self.num_vertices

    def copy(self) -> "AdjacencyGraph":
        g = AdjacencyGraph(self.num_vertices, self.max_degree)
        g._neighbors = [a.copy() for a in self._neighbors]
        return g

    # -- analysis --------------------------------------------------------------

    def is_connected_from(self, start: int) -> bool:
        """True if every vertex is reachable from ``start`` along edges."""
        return self.reachable_from(start).all()

    def reachable_from(self, start: int) -> np.ndarray:
        """Boolean reachability mask from ``start`` (directed BFS).

        Level-synchronous: each level gathers its frontier's lists in one
        concatenate and keeps the ids the ``seen`` mask has not marked.
        """
        seen = np.zeros(self.num_vertices, dtype=bool)
        seen[start] = True
        lists = self._neighbors
        frontier = [start]
        while frontier:
            reached = np.concatenate([lists[u] for u in frontier])
            fresh = np.unique(reached[~seen[reached]])
            seen[fresh] = True
            frontier = fresh.tolist()
        return seen


def pad_rows(
    flat: np.ndarray, counts: np.ndarray, width: int, dtype=None
) -> np.ndarray:
    """The ragged rows ``flat`` (row ``i`` = its next ``counts[i]``
    entries) as one ``[len(counts), width, ...]`` array, zero past each
    row's count."""
    flat = np.asarray(flat)
    out = np.zeros(
        (len(counts), width) + flat.shape[1:], dtype=dtype or flat.dtype
    )
    out[np.arange(width) < counts[:, None]] = flat
    return out


def random_regular_graph(
    num_vertices: int, degree: int, *, seed: int = 0
) -> AdjacencyGraph:
    """Random directed graph with out-degree ``min(degree, n-1)`` per vertex.

    Vamana initializes from such a graph before refinement.
    """
    degree = min(degree, num_vertices - 1)
    rng = np.random.default_rng(seed)
    ids = np.empty((max(num_vertices, 0), max(degree, 0)), dtype=np.int64)
    for u in range(num_vertices):
        choices = rng.choice(num_vertices - 1, size=degree, replace=False)
        # Shift ids >= u to skip the self-loop.
        ids[u] = np.where(choices >= u, choices + 1, choices)
    return AdjacencyGraph.from_padded(
        ids, np.full(ids.shape[0], ids.shape[1]), max(degree, 1)
    )


def save_graph(graph: AdjacencyGraph, path) -> None:
    """Persist an adjacency graph as a compressed .npz (flat + offsets).

    Graph construction dominates experiment runtime, so layout-only studies
    (the Appendix C–G benches) benefit from caching built graphs on disk.
    """
    lists = graph.neighbor_lists()
    offsets = np.zeros(len(lists) + 1, dtype=np.int64)
    np.cumsum([a.size for a in lists], out=offsets[1:])
    flat = (
        np.concatenate(lists) if offsets[-1] > 0
        else np.empty(0, dtype=ID_DTYPE)
    )
    np.savez_compressed(
        path, flat=flat, offsets=offsets,
        max_degree=np.asarray([graph.max_degree]),
    )


def load_graph(path) -> AdjacencyGraph:
    """Inverse of :func:`save_graph`."""
    data = np.load(path)
    offsets = data["offsets"]
    flat = data["flat"]
    if offsets.size <= 1:
        raise ValueError(f"{path!r} holds no vertices")
    counts = np.diff(offsets)
    return AdjacencyGraph.from_padded(
        pad_rows(flat, counts, int(counts.max())), counts,
        int(data["max_degree"][0]),
    )


def from_neighbor_lists(
    neighbor_lists: Sequence[Sequence[int]], max_degree: int | None = None
) -> AdjacencyGraph:
    """Build a graph from raw adjacency lists."""
    n = len(neighbor_lists)
    cap = max_degree
    if cap is None:
        cap = max((len(lst) for lst in neighbor_lists), default=1) or 1
    graph = AdjacencyGraph(n, cap)
    for u, lst in enumerate(neighbor_lists):
        graph.set_neighbors(u, lst)
    return graph
