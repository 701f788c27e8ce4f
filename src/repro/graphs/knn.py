"""Approximate k-nearest-neighbour graph construction.

NSG refines a kNN graph (Fu et al., VLDB 2019), so we need one.  For segment
scales used in this reproduction an exact chunked construction is affordable;
for larger inputs an NN-Descent refinement (Dong et al., WWW 2011 — the
method that also inspires the paper's BNS shuffler) over a random start is
provided.
"""

from __future__ import annotations

import numpy as np

from ..vectors.metrics import Metric, get_metric
from .adjacency import AdjacencyGraph


def _nearest_excluding_self(
    vectors: np.ndarray, start: int, stop: int, k: int, metric: Metric
) -> np.ndarray:
    """``[stop - start, k]`` nearest ids of rows ``start:stop``, self
    excluded, ascending by distance (its ``[chunk, n]`` blocks die here)."""
    d = metric.pairwise(vectors[start:stop], vectors)
    rows = np.arange(stop - start)
    d[rows, np.arange(start, stop)] = np.inf  # mask self
    idx = np.argpartition(d, k - 1, axis=1)[:, :k]
    idx_d = np.take_along_axis(d, idx, axis=1)
    order = np.argsort(idx_d, axis=1, kind="stable")
    return np.take_along_axis(idx, order, axis=1)


def exact_knn_graph(
    vectors: np.ndarray,
    k: int,
    metric: Metric | str = "l2",
    *,
    chunk_size: int = 512,
) -> AdjacencyGraph:
    """Exact directed kNN graph (self excluded), chunked over queries."""
    metric = get_metric(metric)
    n = vectors.shape[0]
    if not 0 < k < n:
        raise ValueError(f"k={k} out of range (1..{n - 1})")
    ids = np.empty((n, k), dtype=np.int64)
    for start in range(0, n, chunk_size):
        stop = min(start + chunk_size, n)
        ids[start:stop] = _nearest_excluding_self(
            vectors, start, stop, k, metric
        )
    return AdjacencyGraph.from_padded(ids, np.full(n, k), k)


def nn_descent_knn_graph(
    vectors: np.ndarray,
    k: int,
    metric: Metric | str = "l2",
    *,
    iterations: int = 6,
    sample_rate: float = 0.6,
    seed: int = 0,
) -> AdjacencyGraph:
    """NN-Descent: neighbours-of-neighbours refinement of a random kNN graph.

    Converges to a high-recall kNN graph in a handful of iterations because
    "a neighbour of a neighbour is likely a neighbour".
    """
    metric = get_metric(metric)
    n = vectors.shape[0]
    if not 0 < k < n:
        raise ValueError(f"k={k} out of range (1..{n - 1})")
    rng = np.random.default_rng(seed)

    # current[u]: list of (dist, v) sorted ascending, length k.
    ids = np.empty((n, k), dtype=np.int64)
    for u in range(n):
        choice = rng.choice(n - 1, size=k, replace=False)
        ids[u] = np.where(choice >= u, choice + 1, choice)
    dists = np.empty((n, k), dtype=np.float64)
    for u in range(n):
        dists[u] = metric.distances(vectors[u], vectors[ids[u]])
    order = np.argsort(dists, axis=1, kind="stable")
    ids = np.take_along_axis(ids, order, axis=1)
    dists = np.take_along_axis(dists, order, axis=1)

    for _ in range(iterations):
        updates = 0
        reverse: list[list[int]] = [[] for _ in range(n)]
        for u in range(n):
            for v in ids[u]:
                reverse[int(v)].append(u)
        for u in range(n):
            local = set(ids[u].tolist()) | set(reverse[u])
            local.discard(u)
            pool = list(local)
            if len(pool) > int(k / sample_rate) + 1:
                pool = list(
                    rng.choice(pool, size=int(k / sample_rate) + 1, replace=False)
                )
            # Candidate set: neighbours of the pooled vertices.
            cand: set[int] = set()
            for v in pool:
                cand.update(int(x) for x in ids[v])
            cand.discard(u)
            cand -= set(ids[u].tolist())
            if not cand:
                continue
            cand_arr = np.fromiter(cand, dtype=np.int64)
            cand_d = metric.distances(vectors[u], vectors[cand_arr])
            merged_ids = np.concatenate([ids[u], cand_arr])
            merged_d = np.concatenate([dists[u], cand_d])
            top = np.argsort(merged_d, kind="stable")[:k]
            new_ids = merged_ids[top]
            if not np.array_equal(new_ids, ids[u]):
                updates += 1
            ids[u] = new_ids
            dists[u] = merged_d[top]
        if updates == 0:
            break

    return AdjacencyGraph.from_padded(ids, np.full(n, k), k)


def knn_graph(
    vectors: np.ndarray,
    k: int,
    metric: Metric | str = "l2",
    *,
    exact_threshold: int = 6000,
    seed: int = 0,
) -> AdjacencyGraph:
    """Exact construction below ``exact_threshold`` points, NN-Descent above."""
    if vectors.shape[0] <= exact_threshold:
        return exact_knn_graph(vectors, k, metric)
    return nn_descent_knn_graph(vectors, k, metric, seed=seed)
