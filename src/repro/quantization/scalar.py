"""Scalar quantization (SQ8): one byte per dimension, per-dim affine codec.

The other compression scheme production vector databases ship next to PQ
(e.g. Milvus's SQ8): each dimension is quantized independently to 256 levels
between its observed min and max.  Compared with PQ at the same budget it
keeps per-dimension structure (better for low-error reconstruction) but
cannot exploit cross-dimension redundancy, and its codes are D bytes rather
than M.

:class:`ScalarQuantizer` exposes the same duck-typed surface the engines
route through (``lookup_table`` / ``distances_from_table`` / ``codes`` /
``num_subspaces`` / byte accounting), so it can replace PQ as Starling's
approximate router via ``StarlingConfig(quantizer="sq8")``.
"""

from __future__ import annotations

import numpy as np

from ..vectors.metrics import Metric, get_metric


class ScalarQuantizer:
    """Per-dimension 8-bit affine quantizer with asymmetric distances."""

    def __init__(self, metric: str | Metric = "l2") -> None:
        self.metric = get_metric(metric)
        self.lo: np.ndarray | None = None  # (dim,)
        self.scale: np.ndarray | None = None  # (dim,)
        self.codes: np.ndarray | None = None  # (n, dim) uint8

    # -- surface parity with ProductQuantizer ---------------------------------

    @property
    def num_subspaces(self) -> int:
        """For the cost model: one "subspace" per dimension."""
        return 0 if self.lo is None else int(self.lo.shape[0])

    @property
    def code_bytes(self) -> int:
        return 0 if self.codes is None else int(self.codes.nbytes)

    @property
    def codebook_bytes(self) -> int:
        if self.lo is None:
            return 0
        return int(self.lo.nbytes + self.scale.nbytes)

    # -- training / encoding ----------------------------------------------------

    def train(self, vectors: np.ndarray) -> "ScalarQuantizer":
        """Fit per-dimension [min, max] ranges."""
        vectors = np.atleast_2d(vectors).astype(np.float32)
        if vectors.shape[0] < 2:
            raise ValueError("need at least 2 training vectors")
        self.lo = vectors.min(axis=0)
        span = vectors.max(axis=0) - self.lo
        # Constant dimensions quantize to a single level.
        span[span == 0] = 1.0
        self.scale = span / 255.0
        return self

    def encode(self, vectors: np.ndarray) -> np.ndarray:
        if self.lo is None:
            raise RuntimeError("train() must be called before encode()")
        vectors = np.atleast_2d(vectors).astype(np.float32)
        q = np.rint((vectors - self.lo) / self.scale)
        return np.clip(q, 0, 255).astype(np.uint8)

    def decode(self, codes: np.ndarray) -> np.ndarray:
        if self.lo is None:
            raise RuntimeError("train() must be called before decode()")
        return np.atleast_2d(codes).astype(np.float32) * self.scale + self.lo

    def fit_dataset(self, vectors: np.ndarray, *,
                    seed: int = 0) -> "ScalarQuantizer":
        """Train and store the dataset's codes (seed accepted for parity)."""
        self.train(vectors)
        self.codes = self.encode(vectors)
        return self

    # -- asymmetric distances ------------------------------------------------------

    def lookup_tables(self, queries: np.ndarray) -> np.ndarray:
        """Batched "tables": the float query rows themselves, shape (Q, dim).

        Trivially row-consistent with :meth:`lookup_table`, which is all the
        batched executor needs from this surface.
        """
        if self.lo is None:
            raise RuntimeError("train() must be called before lookup_tables()")
        return np.atleast_2d(queries).astype(np.float32)

    def lookup_table(self, query: np.ndarray) -> np.ndarray:
        """The "table" for SQ is just the float query (per-dim affine codec
        admits direct asymmetric computation)."""
        if self.lo is None:
            raise RuntimeError("train() must be called before lookup_table()")
        return np.asarray(query, dtype=np.float32)

    def distances_from_table(self, table: np.ndarray,
                             ids: np.ndarray) -> np.ndarray:
        if self.codes is None:
            raise RuntimeError("fit_dataset() must be called first")
        rows = self.decode(self.codes[np.asarray(ids, dtype=np.int64)])
        return self.metric.distances(table, rows).astype(np.float64)

    def distances_from_tables(self, tables: np.ndarray, rows: np.ndarray,
                              ids: np.ndarray) -> np.ndarray:
        """Element ``j`` is ``distances_from_table(tables[rows[j]], ids[j])``.

        The metric kernel takes one query, so this is one
        :meth:`distances_from_table` call per distinct row.
        """
        out = np.empty(ids.size, dtype=np.float64)
        for r in np.unique(rows).tolist():
            mine = rows == r
            out[mine] = self.distances_from_table(tables[r], ids[mine])
        return out
