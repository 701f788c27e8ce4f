"""Vertex record serialization into fixed-size disk blocks.

Matches the paper's on-disk format (§4.1, Example 2): each vertex record is

    vector data (D * itemsize bytes)
  + neighbour count λ (uint32)
  + neighbour IDs, padded to the maximum degree Λ (Λ * uint32)

so a record occupies γ KB.  A block of η KB holds ε = ⌊η/γ⌋ records; records
never straddle a block boundary and the block tail is zero padding.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

ID_DTYPE = np.dtype(np.uint32)
ID_BYTES = ID_DTYPE.itemsize


def block_checksum(payload: bytes | memoryview) -> int:
    """CRC32 of one block payload (the integrity unit is the I/O unit).

    Stored out-of-band per block (4 B each, charged to the mapping memory)
    so the on-disk record format — and therefore ε and every layout — is
    unchanged; verification detects silent corruption before a decoded
    vector can poison distance computations.  ``zlib.crc32`` consumes any
    buffer directly, so memoryview payloads are checksummed without an
    intermediate ``bytes`` copy.
    """
    return zlib.crc32(payload) & 0xFFFFFFFF


@dataclass(frozen=True)
class VertexFormat:
    """Byte layout of one vertex record on disk.

    Attributes:
        dim: Vector dimensionality D.
        dtype: Storage dtype of vector components.
        max_degree: Λ — ID slots allocated per vertex (padding under-full
            adjacency lists, footnote 4 of the paper).
        block_bytes: η in bytes; the smallest disk I/O unit (default 4 KB).
    """

    dim: int
    dtype: np.dtype
    max_degree: int
    block_bytes: int = 4096

    def __post_init__(self) -> None:
        object.__setattr__(self, "dtype", np.dtype(self.dtype))
        if self.dim <= 0:
            raise ValueError("dim must be positive")
        if self.max_degree <= 0:
            raise ValueError("max_degree must be positive")
        if self.block_bytes <= 0:
            raise ValueError("block_bytes must be positive")
        if self.record_bytes > self.block_bytes:
            raise ValueError(
                f"one vertex record ({self.record_bytes} B) does not fit a "
                f"block ({self.block_bytes} B); lower max_degree or raise "
                "block_bytes"
            )

    @property
    def vector_bytes(self) -> int:
        return self.dim * self.dtype.itemsize

    @property
    def record_bytes(self) -> int:
        """γ in bytes: vector + degree word + Λ padded neighbour IDs."""
        return self.vector_bytes + ID_BYTES + self.max_degree * ID_BYTES

    @property
    def vertices_per_block(self) -> int:
        """ε = ⌊η/γ⌋ — maximum vertex records per block."""
        return self.block_bytes // self.record_bytes

    def num_blocks(self, num_vertices: int) -> int:
        """ρ = ⌈|V|/ε⌉ — blocks needed for the whole graph."""
        if num_vertices < 0:
            raise ValueError("num_vertices must be non-negative")
        eps = self.vertices_per_block
        return -(-num_vertices // eps)

    def encode_vertex(self, vector: np.ndarray, neighbors: np.ndarray) -> bytes:
        """Serialize one vertex record (vector, λ, padded neighbour IDs)."""
        vector = np.asarray(vector, dtype=self.dtype)
        if vector.shape != (self.dim,):
            raise ValueError(f"vector shape {vector.shape} != ({self.dim},)")
        neighbors = np.asarray(neighbors, dtype=ID_DTYPE)
        if neighbors.ndim != 1 or neighbors.size > self.max_degree:
            raise ValueError(
                f"neighbour list of length {neighbors.size} exceeds Λ="
                f"{self.max_degree}"
            )
        padded = np.zeros(self.max_degree, dtype=ID_DTYPE)
        padded[: neighbors.size] = neighbors
        count = np.asarray([neighbors.size], dtype=ID_DTYPE)
        return vector.tobytes() + count.tobytes() + padded.tobytes()

    def encode_block(
        self,
        vectors: np.ndarray,
        neighbor_lists: list[np.ndarray],
    ) -> bytes:
        """Pack up to ε vertex records into one zero-padded η-KB block."""
        if len(neighbor_lists) != len(vectors):
            raise ValueError("vectors and neighbor_lists length mismatch")
        if len(vectors) > self.vertices_per_block:
            raise ValueError(
                f"{len(vectors)} records exceed block capacity "
                f"ε={self.vertices_per_block}"
            )
        parts = [
            self.encode_vertex(vec, nbrs)
            for vec, nbrs in zip(vectors, neighbor_lists)
        ]
        payload = b"".join(parts)
        return payload + b"\x00" * (self.block_bytes - len(payload))

    def split_block_views(
        self, block: bytes | memoryview, count: int | np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Zero-copy strided views of the records of a block, or of a stack.

        With an integer ``count``, ``block`` is one block and the views
        cover its first ``count`` records: ``(vectors, degrees,
        neighbor_ids)`` where ``vectors`` is a ``(count, dim)`` view,
        ``degrees`` a ``(count,)`` int64 array (the λ words — materialized,
        they must be validated and are 4 B each), and ``neighbor_ids`` the
        ``(count, Λ)`` padded ID matrix view.  With an array of ``U``
        per-block record counts, ``block`` is ``U`` blocks back to back and
        the views cover all ε slots of each — ``(U, ε, dim)``, ``(U, ε)``,
        ``(U, ε, Λ)`` — with the degree of every slot past its block's
        count read as 0 and never validated.  One block is a stack of one:
        both shapes come from the same field views.

        The views alias ``block``: no record bytes are copied, and they are
        read-only whenever the payload is.  Rows of both matrix views are
        contiguous (the record fields are laid out contiguously), so
        per-row consumers see ordinary contiguous 1-D arrays.

        Raises ``ValueError`` for short blocks, out-of-range counts, and
        corrupt degree words, so torn or truncated payloads cannot silently
        decode.
        """
        block = memoryview(block)
        eps = self.vertices_per_block
        rb, vb = self.record_bytes, self.vector_bytes
        stacked = not isinstance(count, (int, np.integer))
        if stacked:
            count = np.asarray(count, dtype=np.int64)
            blocks = count.size
            low, high = (int(count.min()), int(count.max())) if blocks else (0, 0)
        else:
            blocks, low, high = 1, count, count
        if len(block) != blocks * self.block_bytes:
            raise ValueError(
                f"{len(block)} B for {blocks} block(s); expected "
                f"{self.block_bytes} B each"
            )
        if not 0 <= low <= high <= eps:
            raise ValueError(f"count {count} out of range 0..{eps}")
        if stacked:
            raw = np.frombuffer(block, dtype=np.uint8)
            raw = raw.reshape(blocks, self.block_bytes)[:, : eps * rb]
            raw = raw.reshape(blocks, eps, rb)
        else:
            raw = np.frombuffer(block, dtype=np.uint8, count=count * rb)
            raw = raw.reshape(count, rb)
        vectors = raw[..., :vb].view(self.dtype)
        degrees = raw[..., vb : vb + ID_BYTES].view(ID_DTYPE)[..., 0]
        degrees = degrees.astype(np.int64)
        if stacked and low < eps:
            degrees[np.arange(eps) >= count[:, None]] = 0
        if degrees.size and int(degrees.max()) > self.max_degree:
            bad = int(degrees.max())
            raise ValueError(f"corrupt record: degree {bad} > Λ={self.max_degree}")
        neighbor_ids = raw[..., vb + ID_BYTES :].view(ID_DTYPE)
        return vectors, degrees, neighbor_ids
