"""Test-side oracles for the one decode ``src/`` performs.

The per-vertex copying decoder used to live on
:class:`~repro.storage.codec.VertexFormat`; it is kept here, byte for byte,
as the reference the production view decode
(:meth:`~repro.storage.codec.VertexFormat.split_block_views`) is checked
against.  :class:`CopyDecodeDiskGraph` plugs it under a real index so whole
searches can be compared, not just single blocks.
"""

from __future__ import annotations

import numpy as np

from repro.storage.codec import ID_BYTES, ID_DTYPE, VertexFormat
from repro.storage.disk_graph import DiskBlock, DiskGraph


def decode_vertex(
    fmt: VertexFormat, record: bytes | memoryview
) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of ``fmt.encode_vertex``; returns ``(vector, neighbors)``."""
    record = memoryview(record)
    if len(record) != fmt.record_bytes:
        raise ValueError(
            f"record of {len(record)} B; expected {fmt.record_bytes} B"
        )
    vb = fmt.vector_bytes
    vector = np.frombuffer(record[:vb], dtype=fmt.dtype).copy()
    count = int(np.frombuffer(record[vb : vb + ID_BYTES], dtype=ID_DTYPE)[0])
    if count > fmt.max_degree:
        raise ValueError(f"corrupt record: degree {count} > Λ={fmt.max_degree}")
    ids = np.frombuffer(
        record[vb + ID_BYTES : vb + ID_BYTES + count * ID_BYTES], dtype=ID_DTYPE
    ).copy()
    return vector, ids


def decode_block(
    fmt: VertexFormat, block: bytes | memoryview, count: int
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Unpack the first ``count`` records of a block, one vertex at a time."""
    block = memoryview(block)
    if len(block) != fmt.block_bytes:
        raise ValueError(f"block of {len(block)} B; expected {fmt.block_bytes} B")
    if not 0 <= count <= fmt.vertices_per_block:
        raise ValueError(f"count {count} out of range 0..{fmt.vertices_per_block}")
    vectors = np.empty((count, fmt.dim), dtype=fmt.dtype)
    neighbor_lists: list[np.ndarray] = []
    rb = fmt.record_bytes
    for i in range(count):
        vec, nbrs = decode_vertex(fmt, block[i * rb : (i + 1) * rb])
        vectors[i] = vec
        neighbor_lists.append(nbrs)
    return vectors, neighbor_lists


class CopyDecodeDiskGraph(DiskGraph):
    """A :class:`DiskGraph` whose blocks come from the oracle decoder.

    Every array a block hands out is an owned copy assembled from
    :func:`decode_block`'s per-vertex output, so nothing aliases the
    payload; reads, checksums and the decode cache are inherited unchanged.
    """

    @classmethod
    def adopt(cls, graph: DiskGraph) -> "CopyDecodeDiskGraph":
        """An oracle graph over the same device, format and mapping."""
        if type(graph) is not DiskGraph:
            raise TypeError("adopt() wants the physical DiskGraph, unwrapped")
        twin = cls(
            graph.device, graph.fmt, graph.vertex_to_block, graph._block_ids
        )
        twin.block_checksums = graph.block_checksums
        twin.verify_checksums = graph.verify_checksums
        return twin

    def _decode(self, block_id: int, payload: bytes) -> DiskBlock:
        cache = self.decode_cache
        if cache is not None:
            hit = cache.get(block_id)
            if hit is not None:
                return hit
        ids = self._block_ids[block_id]
        vectors, lists = decode_block(self.fmt, payload, len(ids))
        counts = np.asarray([len(a) for a in lists], dtype=np.int64)
        padded = np.zeros((len(ids), self.fmt.max_degree), dtype=ID_DTYPE)
        for row, nbrs in zip(padded, lists):
            row[: len(nbrs)] = nbrs
        block = DiskBlock(block_id, ids, vectors, counts, padded)
        if cache is not None:
            cache[block_id] = block
        return block
