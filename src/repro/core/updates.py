"""Incremental updates at the database level (§7, "Data update").

Starling itself optimizes a *static* index; vector databases layer updates
on top (the paper cites ADBV's scheme): a small **dynamic index** in memory
absorbs inserts, a **deletion bitset** masks deleted vectors in both
indexes, and an asynchronous **merge** folds the dynamic data into a freshly
rebuilt disk-resident index — at which point block shuffling and the
navigation graph "come into play" again.

:class:`UpdatableSegment` implements exactly that scheme around any static
segment index built by :func:`repro.core.builder.build_starling` — in
memory: it is the paper's model and persists nothing.  The durable write
path is :class:`repro.core.lifecycle.SegmentLifecycle`, which reuses this
module's input validation.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..engine.cost import QueryStats
from ..engine.results import SearchResult
from ..vectors.dataset import VectorDataset
from ..vectors.metrics import Metric


class UpdateError(ValueError):
    """Base class of update-path input errors (insert/delete validation)."""


class InvalidVectorError(UpdateError):
    """An insert payload has the wrong shape, dtype, or memory layout.

    Raised instead of letting numpy silently coerce (lossy casts, copies of
    non-contiguous views) or fail later with an opaque shape error deep in
    the search path.
    """


class UnknownIdError(UpdateError):
    """A delete names IDs this segment never allocated (or long compacted).

    Carries the offending IDs in :attr:`ids`.
    """

    def __init__(self, ids) -> None:
        self.ids = [int(v) for v in ids]
        preview = ", ".join(str(v) for v in self.ids[:8])
        if len(self.ids) > 8:
            preview += ", ..."
        super().__init__(f"unknown vector id(s): {preview}")


def validate_vectors(vectors, *, dim: int, dtype: np.dtype) -> np.ndarray:
    """Validate an insert payload; returns a C-contiguous ``(n, dim)`` array.

    Typed failures (:class:`InvalidVectorError`) instead of silent numpy
    coercion: the array must be 1-D or 2-D with row width ``dim``, non-empty,
    C-contiguous (no strided views — the caller's layout bug, not ours to
    hide with a copy), and its dtype must be ``dtype`` or safely castable to
    it within the same kind (float→float, int→int); cross-kind casts like
    int→float or complex→float are rejected.
    """
    dtype = np.dtype(dtype)
    if isinstance(vectors, np.ndarray) and not vectors.flags.c_contiguous:
        raise InvalidVectorError(
            "vectors must be C-contiguous (got a strided/transposed view); "
            "pass np.ascontiguousarray(...) explicitly if a copy is intended"
        )
    arr = np.asarray(vectors)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    if arr.ndim != 2:
        raise InvalidVectorError(
            f"vectors must be 1-D or 2-D, got {arr.ndim}-D shape {arr.shape}"
        )
    if arr.shape[0] == 0:
        raise InvalidVectorError("empty insert (zero vectors)")
    if arr.shape[1] != dim:
        raise InvalidVectorError(
            f"vector dim {arr.shape[1]} != segment dim {dim}"
        )
    if arr.dtype != dtype:
        # numpy's "same_kind" rule admits int->float; we want literally the
        # same kind (float->float, int->int) so an integer payload against a
        # float segment is a caller bug, not a silent up-cast.
        if arr.dtype.kind != dtype.kind or not np.can_cast(
            arr.dtype, dtype, casting="same_kind"
        ):
            raise InvalidVectorError(
                f"dtype {arr.dtype} is not safely castable to segment "
                f"dtype {dtype} (same-kind casts only)"
            )
        arr = arr.astype(dtype)
    return np.ascontiguousarray(arr)


def validate_ids(ids) -> np.ndarray:
    """Validate a delete payload; returns a 1-D int64 array.

    Rejects floats/bools/nested shapes with :class:`InvalidVectorError`
    instead of letting ``asarray(..., dtype=int64)`` truncate silently.
    """
    arr = np.asarray(ids)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    if arr.ndim != 1:
        raise InvalidVectorError(
            f"ids must be a scalar or 1-D sequence, got shape {arr.shape}"
        )
    if arr.size and not (
        np.issubdtype(arr.dtype, np.integer)
        and arr.dtype != np.bool_
    ):
        raise InvalidVectorError(
            f"ids must be integers, got dtype {arr.dtype}"
        )
    return arr.astype(np.int64, copy=False)


class DynamicIndex:
    """In-memory growing index for freshly inserted vectors.

    Kept intentionally simple (exact scan): the dynamic side holds only the
    between-merges delta, which databases keep small precisely so that an
    exact in-memory scan stays cheap.
    """

    def __init__(self, dim: int, dtype: np.dtype, metric: Metric) -> None:
        self.dim = dim
        self.dtype = np.dtype(dtype)
        self.metric = metric
        self._chunks: list[np.ndarray] = []
        self._count = 0

    def __len__(self) -> int:
        return self._count

    def add(self, vectors: np.ndarray) -> None:
        vectors = np.atleast_2d(np.asarray(vectors, dtype=self.dtype))
        if vectors.shape[1] != self.dim:
            raise ValueError(
                f"vector dim {vectors.shape[1]} != segment dim {self.dim}"
            )
        self._chunks.append(vectors.copy())
        self._count += vectors.shape[0]

    def vectors(self) -> np.ndarray:
        if not self._chunks:
            return np.empty((0, self.dim), dtype=self.dtype)
        return np.concatenate(self._chunks)

    def search(
        self, query: np.ndarray, k: int
    ) -> tuple[np.ndarray, np.ndarray, int]:
        """Exact scan; returns (local ids, distances, distance count)."""
        data = self.vectors()
        if data.shape[0] == 0:
            return np.empty(0, dtype=np.int64), np.empty(0), 0
        dists = self.metric.distances(
            np.asarray(query, dtype=np.float32), data
        )
        order = np.argsort(dists, kind="stable")[:k]
        return order, dists[order], int(data.shape[0])

    @property
    def memory_bytes(self) -> int:
        return sum(int(c.nbytes) for c in self._chunks)


class UpdatableSegment:
    """Static disk index + dynamic in-memory index + deletion bitset.

    IDs are global and stable: the static index owns ``0..n_static-1``,
    inserts get ``n_static, n_static+1, ...``.  After a merge the rebuilt
    static index renumbers nothing the caller can observe — deleted IDs
    simply never come back.

    Args:
        static_index: Any segment index with ``search(q, k, Γ)``.
        dataset: The dataset the static index was built from.
        rebuild: Callback ``(VectorDataset) -> static index`` used by
            :meth:`merge` (normally a ``build_starling`` closure).
    """

    def __init__(
        self,
        static_index,
        dataset: VectorDataset,
        rebuild: Callable[[VectorDataset], object],
    ) -> None:
        self.static_index = static_index
        self.rebuild = rebuild
        self.metric = dataset.metric
        self._static_vectors = dataset.vectors
        self._static_ids = np.arange(dataset.size, dtype=np.int64)
        self._queries = dataset.queries
        self._default_radius = dataset.default_radius
        self._name = dataset.name
        self.dynamic = DynamicIndex(
            dataset.dim, dataset.vectors.dtype, dataset.metric
        )
        self._dynamic_ids: list[int] = []
        self._next_id = dataset.size
        self._deleted: set[int] = set()
        self.merges = 0

    # -- size accounting -------------------------------------------------------

    @property
    def num_live(self) -> int:
        return (
            self._static_ids.size + len(self._dynamic_ids) - len(self._deleted)
        )

    @property
    def num_deleted(self) -> int:
        return len(self._deleted)

    @property
    def pending_inserts(self) -> int:
        return len(self._dynamic_ids)

    # -- updates ------------------------------------------------------------------

    def insert(self, vectors: np.ndarray) -> np.ndarray:
        """Add vectors to the dynamic index; returns their global IDs.

        Input is validated up front (:func:`validate_vectors`): wrong dim,
        cross-kind dtype, empty batches, and non-contiguous views raise
        :class:`InvalidVectorError` instead of being silently coerced.
        """
        vectors = validate_vectors(
            vectors, dim=self.dynamic.dim, dtype=self.dynamic.dtype
        )
        self.dynamic.add(vectors)
        ids = np.arange(
            self._next_id, self._next_id + vectors.shape[0], dtype=np.int64
        )
        self._dynamic_ids.extend(ids.tolist())
        self._next_id += vectors.shape[0]
        return ids

    def delete(self, ids, *, strict: bool = True) -> int:
        """Mark IDs deleted (bitset semantics); returns how many were live.

        Deleting an already-deleted ID is a no-op (contributes 0 to the
        return value).  IDs this segment never allocated raise
        :class:`UnknownIdError` under ``strict`` (the default); pass
        ``strict=False`` for the legacy ignore-unknown behaviour.
        """
        requested = validate_ids(ids).tolist()
        known = set(self._static_ids.tolist()) | set(self._dynamic_ids)
        unknown = [vid for vid in requested
                   if vid not in known and vid not in self._deleted]
        if unknown and strict:
            raise UnknownIdError(unknown)
        marked = 0
        for vid in requested:
            if vid in known and vid not in self._deleted:
                self._deleted.add(vid)
                marked += 1
        return marked

    # -- queries ---------------------------------------------------------------------

    def search(
        self, query: np.ndarray, k: int = 10, candidate_size: int = 64
    ) -> SearchResult:
        """Top-k over live vectors: static (disk) ∪ dynamic (memory),
        minus the deletion bitset.

        Deleted static vertices still participate in *routing* (they remain
        in the graph until the next merge) but are filtered from results —
        the standard bitset semantics.
        """
        # Over-fetch from the static side so post-filtering can still fill k.
        slack = k + min(len(self._deleted), candidate_size)
        static = self.static_index.search(
            query, min(slack, self._static_ids.size), candidate_size
        )
        stats = QueryStats()
        stats.merge(static.stats)

        merged: list[tuple[float, int]] = [
            (float(d), int(self._static_ids[vid]))
            for d, vid in zip(static.dists, static.ids)
            if int(self._static_ids[vid]) not in self._deleted
        ]
        local_ids, dyn_dists, computed = self.dynamic.search(query, slack)
        stats.exact_distances += computed
        for d, pos in zip(dyn_dists, local_ids):
            vid = self._dynamic_ids[int(pos)]
            if vid not in self._deleted:
                merged.append((float(d), vid))
        merged.sort()
        top = merged[:k]
        return SearchResult(
            ids=np.asarray([vid for _, vid in top], dtype=np.int64),
            dists=np.asarray([d for d, _ in top], dtype=np.float64),
            stats=stats,
        )

    def range_search(self, query: np.ndarray, radius: float):
        """RS over live vectors: static RS ∪ dynamic scan, minus deletions."""
        from ..engine.results import RangeResult

        static = self.static_index.range_search(query, radius)
        stats = QueryStats()
        stats.merge(static.stats)
        merged: list[tuple[float, int]] = [
            (float(d), int(self._static_ids[vid]))
            for d, vid in zip(static.dists, static.ids)
            if int(self._static_ids[vid]) not in self._deleted
        ]
        data = self.dynamic.vectors()
        if data.shape[0]:
            dists = self.metric.distances(
                np.asarray(query, dtype=np.float32), data
            )
            stats.exact_distances += int(data.shape[0])
            for pos in np.flatnonzero(dists <= radius):
                vid = self._dynamic_ids[int(pos)]
                if vid not in self._deleted:
                    merged.append((float(dists[pos]), vid))
        merged.sort()
        return RangeResult(
            ids=np.asarray([vid for _, vid in merged], dtype=np.int64),
            dists=np.asarray([d for d, _ in merged], dtype=np.float64),
            stats=stats,
            final_candidate_size=getattr(static, "final_candidate_size", 0),
        )

    # -- merge ------------------------------------------------------------------------

    def merge(self) -> None:
        """Fold dynamic data into a rebuilt static index (async in a real DB).

        Deleted vectors are dropped for good; the shuffled layout and
        navigation graph are rebuilt over the merged data (§7).
        """
        live_static = np.asarray(
            [vid for vid in self._static_ids.tolist()
             if vid not in self._deleted],
            dtype=np.int64,
        )
        live_dynamic = [
            (vid, pos) for pos, vid in enumerate(self._dynamic_ids)
            if vid not in self._deleted
        ]
        dyn_vectors = self.dynamic.vectors()
        id_to_old_row = {
            int(vid): row for row, vid in enumerate(self._static_ids)
        }
        parts = [self._static_vectors[[id_to_old_row[v] for v in
                                       live_static.tolist()]]]
        if live_dynamic:
            parts.append(dyn_vectors[[pos for _, pos in live_dynamic]])
        merged_vectors = np.concatenate(parts) if parts else parts[0]
        merged_ids = np.concatenate([
            live_static,
            np.asarray([vid for vid, _ in live_dynamic], dtype=np.int64),
        ])

        merged_dataset = VectorDataset(
            name=f"{self._name}+merge{self.merges + 1}",
            vectors=merged_vectors,
            queries=self._queries,
            metric=self.metric,
            default_radius=self._default_radius,
        )
        self.static_index = self.rebuild(merged_dataset)
        self._static_vectors = merged_vectors
        self._static_ids = merged_ids
        self.dynamic = DynamicIndex(
            merged_vectors.shape[1], merged_vectors.dtype, self.metric
        )
        self._dynamic_ids = []
        self._deleted = set()
        self.merges += 1
