"""Lloyd's k-means with k-means++ seeding, implemented on numpy.

Used by the Product Quantizer (one codebook per subspace) and by SPANN's
hierarchical balanced clustering.  Kept deliberately small and deterministic:
given a seed, results are reproducible across runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..vectors.metrics import pairwise_l2_squared


@dataclass
class KMeansResult:
    """Trained centroids plus the final assignment and inertia."""

    centroids: np.ndarray  # (k, dim) float32
    assignment: np.ndarray  # (n,) int32
    inertia: float
    iterations: int


def _kmeanspp_seeds(
    parts: np.ndarray, k: int, rngs: Sequence[np.random.Generator]
) -> np.ndarray:
    """k-means++ seeds for every subspace ``parts[:, m, :]``, in lockstep.

    Returns ``[M, k]`` point indices.  Subspace ``m`` draws from
    ``rngs[m]`` exactly what a one-subspace k-means++ loop draws
    (``tests/oracles.py::oracle_kmeans``), so its seeds are the same:

    * ``rng.choice(n, p=closest / total)`` is spelled out as the steps
      numpy takes for it — float64 ``cumsum``, divide by the last entry,
      one ``rng.random()`` draw, ``searchsorted(side="right")`` (here a
      count of the entries ``<=`` the draw, the same index on a
      non-decreasing array) — so it consumes the same stream;
    * ``pairwise_l2_squared``'s ``‖x‖²`` is the same einsum, computed once
      instead of per step, and the cross term is one stacked matmul whose
      per-subspace slice is the BLAS call the 2-D form makes on the same
      view;
    * a subspace whose remaining points all coincide with a seed finishes
      on its own, exactly as the loop does, while the rest continue.
    """
    n, num, _ = parts.shape
    seeds = np.empty((num, k), dtype=np.int64)
    seeds[:, 0] = [rng.integers(n) for rng in rngs]
    columns = np.arange(num)
    xt = parts.transpose(1, 2, 0)  # [M, dim, n]: subspace m's x.T
    norms = np.stack([
        np.einsum("ij,ij->i", parts[:, m], parts[:, m]) for m in columns
    ])

    def spread(picks: np.ndarray) -> np.ndarray:
        """``pairwise_l2_squared(x_m[picks[m]], x_m)`` for every m."""
        q = parts[picks, columns]
        cross = np.matmul(q[:, None, :], xt)[:, 0, :]
        d = np.einsum("ij,ij->i", q, q)[:, None] + norms - 2.0 * cross
        return np.maximum(d, 0.0, out=d)

    closest = spread(seeds[:, 0])
    live = columns
    for i in range(1, k):
        rows = closest if live.size == num else closest[live]
        totals = rows.sum(axis=1)
        if not np.isfinite(totals).all():
            raise ValueError("k-means++ distances are not finite")
        spent = totals <= 0.0
        if spent.any():
            # All remaining points coincide with an existing seed: fill
            # the rest with distinct non-seed points so no centroid index
            # is duplicated (k <= n is validated by the callers).
            for m in live[spent]:
                pool = np.setdiff1d(np.arange(n), seeds[m, :i])
                seeds[m, i:] = rngs[m].choice(pool, size=k - i, replace=False)
            live, rows, totals = live[~spent], rows[~spent], totals[~spent]
            if not live.size:
                break
        cdf = (rows / totals[:, None]).astype(np.float64).cumsum(axis=1)
        cdf /= cdf[:, -1:]
        draws = np.array([rngs[m].random() for m in live])
        seeds[live, i] = (cdf <= draws[:, None]).sum(axis=1)
        if i + 1 < k:
            # A spent subspace's column already holds valid indices; its
            # row is computed and never read again.
            np.minimum(closest, spread(seeds[:, i]), out=closest)
    return seeds


def _lloyd(
    x: np.ndarray, centroids: np.ndarray, max_iters: int, tol: float
) -> KMeansResult:
    """Lloyd iterations from ``centroids`` (updated in place)."""
    n, k = x.shape[0], centroids.shape[0]
    assignment = np.zeros(n, dtype=np.int32)
    prev_inertia = np.inf
    iteration = 0
    for iteration in range(1, max_iters + 1):
        dists = pairwise_l2_squared(x, centroids)
        assignment = dists.argmin(axis=1).astype(np.int32)
        min_dists = dists[np.arange(n), assignment]
        inertia = float(min_dists.sum())

        counts = np.bincount(assignment, minlength=k)
        sums = np.zeros_like(centroids)
        np.add.at(sums, assignment, x)
        nonempty = counts > 0
        centroids[nonempty] = sums[nonempty] / counts[nonempty, None]

        empty = np.flatnonzero(~nonempty)
        if empty.size:
            # Steal the points that fit their cluster worst.
            worst = np.argsort(min_dists)[::-1][: empty.size]
            centroids[empty] = x[worst]

        # Known defect, kept until an answer-changing change fixes it: on
        # the first pass ``prev_inertia`` is inf, so this reads
        # ``inf <= inf`` and every run stops after one Lloyd step
        # (``iterations == 1`` whatever ``max_iters`` is).  Fixing it moves
        # every PQ codebook and every count row.
        if prev_inertia - inertia <= tol * max(prev_inertia, 1.0):
            break
        prev_inertia = inertia

    dists = pairwise_l2_squared(x, centroids)
    assignment = dists.argmin(axis=1).astype(np.int32)
    inertia = float(dists[np.arange(n), assignment].sum())
    return KMeansResult(centroids, assignment, inertia, iteration)


def kmeans_subspaces(
    parts: np.ndarray,
    k: int,
    *,
    max_iters: int = 25,
    tol: float = 1e-4,
    seed: int = 0,
) -> list[KMeansResult]:
    """Train k-means on each subspace ``parts[:, m, :]`` of an
    ``[n, M, dim]`` array; subspace ``m`` is seeded with ``seed + m``.

    The M k-means++ seedings run as one lockstep pass; Lloyd then runs per
    subspace (an ``[M, n, k]`` distance block would cost M times the
    memory of one).  Each result equals a k-means on that subspace alone.
    """
    parts = np.asarray(parts)
    n = parts.shape[0]
    if not 0 < k <= n:
        raise ValueError(f"k={k} out of range (1..{n})")
    x = parts.astype(np.float32, copy=False)
    rngs = [np.random.default_rng(seed + m) for m in range(x.shape[1])]
    seeds = _kmeanspp_seeds(x, k, rngs)
    return [
        _lloyd(x[:, m], x[:, m][seeds[m]].copy(), max_iters, tol)
        for m in range(x.shape[1])
    ]


def kmeans(
    data: np.ndarray,
    k: int,
    *,
    max_iters: int = 25,
    tol: float = 1e-4,
    seed: int = 0,
) -> KMeansResult:
    """Train k-means on ``data`` (any numeric dtype; promoted to float32).

    Empty clusters are re-seeded from the points currently farthest from
    their centroid, so the result always has exactly ``k`` non-empty clusters
    when ``n >= k``.
    """
    data = np.asarray(data)
    return kmeans_subspaces(
        data[:, None, :], k, max_iters=max_iters, tol=tol, seed=seed
    )[0]


def balanced_kmeans(
    data: np.ndarray,
    k: int,
    max_cluster_size: int,
    *,
    seed: int = 0,
    max_iters: int = 25,
) -> KMeansResult:
    """k-means whose clusters are capped at ``max_cluster_size`` points.

    Greedy capacity-constrained assignment: points are processed in order of
    how much they prefer their best cluster and spill to the nearest cluster
    with room.  Used by SPANN's hierarchical balanced clustering and by the
    k-means layout baseline (§7, Comparison analysis with SPANN).
    """
    data = np.asarray(data)
    n = data.shape[0]
    if max_cluster_size * k < n:
        raise ValueError(
            f"cannot pack {n} points into {k} clusters of at most "
            f"{max_cluster_size}"
        )
    base = kmeans(data, k, seed=seed, max_iters=max_iters)
    x = data.astype(np.float32, copy=False)
    dists = pairwise_l2_squared(x, base.centroids)
    order = np.argsort(dists.min(axis=1))
    capacity = np.full(k, max_cluster_size, dtype=np.int64)
    assignment = np.full(n, -1, dtype=np.int32)
    pref = np.argsort(dists, axis=1)
    for idx in order:
        for c in pref[idx]:
            if capacity[c] > 0:
                assignment[idx] = c
                capacity[c] -= 1
                break
    inertia = float(dists[np.arange(n), assignment].sum())
    return KMeansResult(base.centroids, assignment, inertia, base.iterations)
