"""Optimized Product Quantization (Ge et al., CVPR 2013) — OPQ-NP.

The paper's related work lists OPQ among the quantizers FAISS-style systems
use to tighten PQ's quantization error.  OPQ learns an orthonormal rotation
R jointly with the codebooks by alternating:

1. fix R, train/encode a PQ on the rotated data X·R;
2. fix the codes, solve the orthogonal Procrustes problem
   ``min_R ||X·R − X̂||_F`` via SVD of ``Xᵀ·X̂``.

:class:`OptimizedProductQuantizer` is drop-in compatible with
:class:`~repro.quantization.pq.ProductQuantizer` where the engines are
concerned (``lookup_table`` / ``distances_from_table`` / ``codes`` /
``num_subspaces``), so a Starling index can route on OPQ codes by simply
passing one to the engine.

Note: the ADC tables rotate the *query* (distances are invariant under the
shared rotation), so no per-vector work is added at search time.
"""

from __future__ import annotations

import numpy as np

from ..vectors.metrics import Metric, get_metric
from .pq import ProductQuantizer


class OptimizedProductQuantizer:
    """PQ with a learned orthonormal pre-rotation (OPQ-NP).

    Args:
        num_subspaces: M.
        num_centroids: ks per subspace.
        metric: ``"l2"`` (OPQ's objective is Euclidean; IP callers should
            use plain PQ).
        iterations: alternating optimization rounds.
    """

    def __init__(
        self,
        num_subspaces: int = 8,
        num_centroids: int = 256,
        metric: str | Metric = "l2",
        *,
        iterations: int = 5,
    ) -> None:
        metric = get_metric(metric)
        if metric.name != "l2":
            raise ValueError(
                "OPQ optimizes a Euclidean objective; use ProductQuantizer "
                "for inner-product data"
            )
        if iterations < 1:
            raise ValueError("iterations must be >= 1")
        self.metric = metric
        self.iterations = iterations
        self.pq = ProductQuantizer(num_subspaces, num_centroids, metric)
        self.rotation: np.ndarray | None = None  # (dim, dim), orthonormal

    # -- drop-in surface -------------------------------------------------------

    @property
    def num_subspaces(self) -> int:
        return self.pq.num_subspaces

    @property
    def num_centroids(self) -> int:
        return self.pq.num_centroids

    @property
    def codes(self) -> np.ndarray | None:
        return self.pq.codes

    @property
    def code_bytes(self) -> int:
        return self.pq.code_bytes

    @property
    def codebook_bytes(self) -> int:
        rot = 0 if self.rotation is None else int(self.rotation.nbytes)
        return self.pq.codebook_bytes + rot

    # -- training ---------------------------------------------------------------

    def _rotate(self, x: np.ndarray) -> np.ndarray:
        return np.atleast_2d(x).astype(np.float32) @ self.rotation

    def train(self, vectors: np.ndarray, *, seed: int = 0,
              train_size: int = 20_000) -> "OptimizedProductQuantizer":
        """Alternate PQ training and Procrustes rotation updates."""
        vectors = np.atleast_2d(vectors).astype(np.float32)
        n, dim = vectors.shape
        rng = np.random.default_rng(seed)
        sample = (
            vectors[rng.choice(n, size=train_size, replace=False)]
            if n > train_size else vectors
        )
        self.rotation = np.eye(dim, dtype=np.float32)
        for _ in range(self.iterations):
            rotated = self._rotate(sample)
            self.pq.train(rotated, seed=seed)
            decoded = self.pq.decode(self.pq.encode(rotated))
            # Orthogonal Procrustes: R = U Vᵀ of SVD(Xᵀ X̂).
            u, _, vt = np.linalg.svd(sample.T @ decoded)
            self.rotation = (u @ vt).astype(np.float32)
        # Final codebook fit under the final rotation.
        self.pq.train(self._rotate(sample), seed=seed)
        return self

    def encode(self, vectors: np.ndarray) -> np.ndarray:
        if self.rotation is None:
            raise RuntimeError("train() must be called before encode()")
        return self.pq.encode(self._rotate(vectors))

    def fit_dataset(self, vectors: np.ndarray, *, seed: int = 0,
                    ) -> "OptimizedProductQuantizer":
        self.train(vectors, seed=seed)
        self.pq.codes = self.encode(vectors)
        return self

    def decode(self, codes: np.ndarray) -> np.ndarray:
        """Reconstruct in the *original* space (un-rotate)."""
        if self.rotation is None:
            raise RuntimeError("train() must be called before decode()")
        return self.pq.decode(codes) @ self.rotation.T

    # -- ADC ------------------------------------------------------------------------

    def lookup_tables(self, queries: np.ndarray) -> np.ndarray:
        """ADC tables for a batch of rotated queries, shape ``(Q, M, ks)``.

        The rotation uses an einsum contraction instead of ``@`` so each row
        of a batched rotation is bit-identical to rotating that query alone
        (BLAS GEMMs do not guarantee this); see
        :meth:`ProductQuantizer.lookup_tables`.
        """
        if self.rotation is None:
            raise RuntimeError("train() must be called before lookup_tables()")
        queries = np.atleast_2d(queries).astype(np.float32)
        rotated = np.einsum("qd,de->qe", queries, self.rotation)
        return self.pq.lookup_tables(rotated)

    def lookup_table(self, query: np.ndarray) -> np.ndarray:
        """ADC table for the rotated query (L2 is rotation-invariant)."""
        return self.lookup_tables(np.asarray(query)[None, :])[0]

    def distances_from_table(self, table: np.ndarray,
                             ids: np.ndarray) -> np.ndarray:
        return self.pq.distances_from_table(table, ids)

    def distances_from_tables(self, tables: np.ndarray, rows: np.ndarray,
                              ids: np.ndarray) -> np.ndarray:
        return self.pq.distances_from_tables(tables, rows, ids)

    # -- diagnostics -----------------------------------------------------------------

    def reconstruction_error(self, vectors: np.ndarray) -> float:
        """Mean squared reconstruction error in the original space."""
        vectors = np.atleast_2d(vectors).astype(np.float32)
        rec = self.decode(self.encode(vectors))
        return float(((vectors - rec) ** 2).sum(axis=1).mean())
