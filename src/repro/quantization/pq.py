"""Product Quantization (Jégou et al., TPAMI 2011) — the paper's "PQ short codes".

Both DiskANN and Starling keep PQ-compressed vectors in main memory and use
asymmetric distance computation (ADC) to pick the next disk read without
touching the disk (§5.1, "PQ-based approximate distance").  The memory
footprint of the codes is the B budget in Tab. 16/21.

For inner-product datasets the same machinery applies with per-subspace
inner-product lookup tables (negated, so smaller is still better).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..vectors.metrics import (
    Metric,
    _einsum,
    get_metric,
    pairwise_l2_squared,
)
from .kmeans import kmeans_subspaces


@dataclass
class PQCodebook:
    """Trained per-subspace centroids.

    Attributes:
        centroids: shape ``(num_subspaces, num_centroids, sub_dim)`` float32.
        dim: original dimensionality (= num_subspaces * sub_dim after padding).
        pad: zero-padding columns appended so dim divides evenly.
    """

    centroids: np.ndarray
    dim: int
    pad: int

    @property
    def num_subspaces(self) -> int:
        return self.centroids.shape[0]

    @property
    def num_centroids(self) -> int:
        return self.centroids.shape[1]

    @property
    def sub_dim(self) -> int:
        return self.centroids.shape[2]


class ProductQuantizer:
    """Encode vectors to short codes and answer approximate distances.

    Args:
        num_subspaces: M — number of independent subquantizers.
        num_centroids: ks — codebook size per subspace (≤ 256 keeps codes at
            one byte per subspace).
        metric: ``"l2"`` or ``"ip"``.
    """

    def __init__(
        self,
        num_subspaces: int = 8,
        num_centroids: int = 256,
        metric: str | Metric = "l2",
    ) -> None:
        if num_subspaces <= 0:
            raise ValueError("num_subspaces must be positive")
        if not 1 < num_centroids <= 256:
            raise ValueError("num_centroids must be in 2..256")
        self.num_subspaces = num_subspaces
        self.num_centroids = num_centroids
        self.metric = get_metric(metric)
        self.codebook: PQCodebook | None = None
        self.codes: np.ndarray | None = None
        # per-subspace offsets into a flattened (M, ks) table; built lazily
        # because train() may clamp num_centroids on tiny segments
        self._flat_offsets: np.ndarray | None = None

    # -- training / encoding -------------------------------------------------

    def _split(self, x: np.ndarray) -> np.ndarray:
        """Pad and reshape to ``(n, M, sub_dim)`` float32."""
        assert self.codebook is not None
        x = np.atleast_2d(x).astype(np.float32, copy=False)
        if self.codebook.pad:
            x = np.pad(x, ((0, 0), (0, self.codebook.pad)))
        return x.reshape(x.shape[0], self.num_subspaces, self.codebook.sub_dim)

    def train(
        self,
        vectors: np.ndarray,
        *,
        seed: int = 0,
        max_iters: int = 15,
        train_size: int = 20_000,
    ) -> "ProductQuantizer":
        """Fit per-subspace codebooks on (a sample of) ``vectors``; subspace
        ``m``'s k-means is seeded with ``seed + m``, and the M k-means++
        seedings run as one lockstep pass (:func:`kmeans_subspaces`)."""
        vectors = np.atleast_2d(vectors)
        n, dim = vectors.shape
        if n < 2:
            raise ValueError("need at least 2 training vectors")
        # Small segments cannot populate a full codebook; clamp ks so tiny
        # datasets still train (codes stay 1 byte/subspace either way).
        self.num_centroids = min(self.num_centroids, n)
        pad = (-dim) % self.num_subspaces
        sub_dim = (dim + pad) // self.num_subspaces
        self.codebook = PQCodebook(
            centroids=np.zeros(
                (self.num_subspaces, self.num_centroids, sub_dim), dtype=np.float32
            ),
            dim=dim,
            pad=pad,
        )
        rng = np.random.default_rng(seed)
        if n > train_size:
            sample = vectors[rng.choice(n, size=train_size, replace=False)]
        else:
            sample = vectors
        results = kmeans_subspaces(
            self._split(sample), self.num_centroids, seed=seed,
            max_iters=max_iters,
        )
        for m, result in enumerate(results):
            self.codebook.centroids[m] = result.centroids
        return self

    def encode(self, vectors: np.ndarray) -> np.ndarray:
        """Quantize vectors to uint8 codes of shape ``(n, M)``."""
        if self.codebook is None:
            raise RuntimeError("train() must be called before encode()")
        parts = self._split(np.atleast_2d(vectors))
        codes = np.empty((parts.shape[0], self.num_subspaces), dtype=np.uint8)
        for m in range(self.num_subspaces):
            d = pairwise_l2_squared(parts[:, m, :], self.codebook.centroids[m])
            codes[:, m] = d.argmin(axis=1)
        return codes

    def fit_dataset(
        self, vectors: np.ndarray, *, seed: int = 0
    ) -> "ProductQuantizer":
        """Train on the dataset and store its codes for later lookups."""
        self.train(vectors, seed=seed)
        self.codes = self.encode(vectors)
        return self

    def decode(self, codes: np.ndarray) -> np.ndarray:
        """Reconstruct approximate vectors from codes (for testing)."""
        if self.codebook is None:
            raise RuntimeError("train() must be called before decode()")
        codes = np.atleast_2d(codes)
        out = np.empty(
            (codes.shape[0], self.num_subspaces, self.codebook.sub_dim),
            dtype=np.float32,
        )
        for m in range(self.num_subspaces):
            out[:, m, :] = self.codebook.centroids[m][codes[:, m]]
        flat = out.reshape(codes.shape[0], -1)
        return flat[:, : self.codebook.dim]

    # -- asymmetric distance computation -------------------------------------

    def lookup_tables(self, queries: np.ndarray) -> np.ndarray:
        """ADC lookup tables for a query batch, shape ``(Q, M, ks)``.

        The kernels are einsum-based rather than BLAS GEMM expansions because
        einsum reductions are row-consistent: the table computed for a query
        inside a batch is bit-identical to the table computed for that query
        alone.  That property is what lets the batched executor share one
        table build across a batch while guaranteeing results identical to
        the serial per-query loop.  All ``M`` subspaces reduce in one call;
        each entry is the same ``sub_dim``-long reduction a per-subspace
        call makes, so the tables equal the per-subspace loop's bit for bit
        (``tests/oracles.py::oracle_lookup_tables``).
        """
        if self.codebook is None:
            raise RuntimeError("train() must be called before lookup_tables()")
        parts = self._split(np.atleast_2d(queries))  # (Q, M, sub_dim)
        centroids = self.codebook.centroids  # (M, ks, sub_dim)
        if self.metric.name == "l2":
            diff = parts[:, :, None, :] - centroids[None]
            return _einsum("qmkd,qmkd->qmk", diff, diff)
        return -_einsum("qmd,mkd->qmk", parts, centroids)

    def lookup_table(self, query: np.ndarray) -> np.ndarray:
        """ADC lookup table for one query, shape ``(M, ks)``.

        For L2 the entry is the squared distance from the query's subvector to
        each centroid; for IP it is the negated partial inner product.  Summing
        one entry per subspace gives the approximate distance.
        """
        return self.lookup_tables(np.asarray(query)[None, :])[0]

    def _code_offsets(self, ids: np.ndarray) -> np.ndarray:
        """``m * ks + codes[id, m]``: each id's entries in a flat table."""
        if self.codes is None:
            raise RuntimeError("fit_dataset() must be called first")
        if self._flat_offsets is None:
            self._flat_offsets = (
                np.arange(self.num_subspaces, dtype=np.int64)
                * self.num_centroids
            )
        return self.codes[np.asarray(ids, dtype=np.int64)] + self._flat_offsets

    def distances_from_table(
        self, table: np.ndarray, ids: np.ndarray
    ) -> np.ndarray:
        """Approximate distances for stored vectors ``ids`` given a table.

        A flat gather — ``table.reshape(-1)[m*ks + codes[:, m]]`` — rather
        than ``take_along_axis`` on the transpose: same elements, same
        ``sum`` reduction order, a fraction of the indexing overhead on the
        beam-sized id lists this runs on.
        """
        return table.reshape(-1)[self._code_offsets(ids)].sum(axis=1)

    def distances_from_tables(
        self, tables: np.ndarray, rows: np.ndarray, ids: np.ndarray
    ) -> np.ndarray:
        """Element ``j`` is ``distances_from_table(tables[rows[j]], ids[j])``,
        for all ``j`` in one gather over the ``(Q, M, ks)`` stack.

        The same ``M`` table entries reach the same last-axis ``sum`` as in
        the per-table form, so every element is bit-identical to it.
        """
        offsets = self._code_offsets(ids)
        offsets += (rows * (self.num_subspaces * self.num_centroids))[:, None]
        return tables.reshape(-1)[offsets].sum(axis=1)

    # -- accounting ------------------------------------------------------------

    @property
    def code_bytes(self) -> int:
        """Memory footprint of the stored codes (C_PQ, Fig. 8(b))."""
        return 0 if self.codes is None else self.codes.nbytes

    @property
    def codebook_bytes(self) -> int:
        return 0 if self.codebook is None else self.codebook.centroids.nbytes
