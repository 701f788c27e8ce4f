"""Disk-resident graph index: blocks on a device + vertex→block mapping.

A :class:`DiskGraph` is the physical form of a graph index (Appendix B of the
paper): every vertex record (vector + adjacency list) lives in exactly one
η-KB block on a :class:`~repro.storage.device.BlockDevice`, and an in-memory
``vertex→block`` array locates it.  The baseline (DiskANN) layout is
ID-contiguous so the mapping is implicit; Starling's shuffled layouts need the
explicit mapping, whose memory footprint is charged in the paper's Fig. 8(b).
"""

from __future__ import annotations

import os
from typing import NamedTuple, Sequence

import numpy as np

from ..graphs.adjacency import pad_rows
from .codec import VertexFormat, block_checksum
from .device import BlockDevice, DiskSpec
from .faults import KIND_CHECKSUM, ChecksumError, ReadFaultError


class DiskBlock:
    """One decoded block: the vertices it stores and their adjacency lists.

    ``vectors``, ``nbr_counts`` (the validated λ words) and ``nbr_ids`` (the
    padded ``(c, Λ)`` ID matrix) are what
    :meth:`~repro.storage.codec.VertexFormat.split_block_views` returns for
    one block: the two matrices are zero-copy views of the block payload,
    read-only whenever the payload is.  The per-query round primitives read
    adjacency through :meth:`neighbors_of` for the few positions a round
    keeps; a wide wave never builds these objects on its coalesced path —
    it reads a whole round's blocks as one :class:`BlockStack`.
    """

    __slots__ = (
        "block_id", "vertex_ids", "vectors", "nbr_counts", "nbr_ids",
        "_ids_list", "_nbr_slices",
    )

    def __init__(
        self,
        block_id: int,
        vertex_ids: np.ndarray,  # shape (c,), uint32
        vectors: np.ndarray,  # shape (c, dim)
        nbr_counts: np.ndarray,  # shape (c,), int64
        nbr_ids: np.ndarray,  # shape (c, Λ), uint32
    ) -> None:
        self.block_id = block_id
        self.vertex_ids = vertex_ids
        self.vectors = vectors
        self.nbr_counts = nbr_counts
        self.nbr_ids = nbr_ids
        #: lazily built Python-int view of ``vertex_ids`` for the engines'
        #: small per-block loops (a block holds ~ε vertices — list indexing
        #: beats numpy scalar extraction at that size)
        self._ids_list: list[int] | None = None
        #: adjacency slices already handed out, by position (see
        #: :meth:`neighbors_of`)
        self._nbr_slices: list[np.ndarray | None] | None = None

    def __len__(self) -> int:
        return len(self.vertex_ids)

    def neighbors_of(self, pos: int) -> np.ndarray:
        """Adjacency IDs of the vertex at block position ``pos``.

        A zero-copy slice of the padded ID matrix; it aliases the decoded
        payload and must not be written.  Each slice is made on first use
        and kept: a decode pays for none, and a block that stays in a
        decode or LRU cache hands later queries a list lookup, not a fresh
        numpy slice (≈ 3 % of ``serve_open``'s closed-loop qps).
        """
        slices = self._nbr_slices
        if slices is None:
            slices = self._nbr_slices = [None] * len(self.vertex_ids)
        nbrs = slices[pos]
        if nbrs is None:
            nbrs = slices[pos] = self.nbr_ids[pos, : self.nbr_counts[pos]]
        return nbrs

    def ids_list(self) -> list[int]:
        """``vertex_ids`` as a cached list of Python ints."""
        if self._ids_list is None:
            self._ids_list = self.vertex_ids.tolist()
        return self._ids_list

    def index_of(self, vertex_id: int) -> int:
        """Position of ``vertex_id`` inside this block.

        A linear scan of at most ε ids — cheaper than building an id→position
        map per decode.  Raises ``KeyError`` for a vertex stored elsewhere.
        """
        try:
            return self.ids_list().index(int(vertex_id))
        except ValueError:
            raise KeyError(
                f"vertex {vertex_id} not in block {self.block_id}"
            ) from None


class BlockStack(NamedTuple):
    """A batch of blocks decoded side by side: entry ``u`` is one block.

    ``vertex_ids`` ``[U, ε]`` and ``sizes`` ``[U]`` say which vertices each
    block stores; ``vectors`` ``[U, ε, dim]``, ``nbr_counts`` ``[U, ε]`` and
    ``nbr_ids`` ``[U, ε, Λ]`` are the stacked form of what a
    :class:`DiskBlock` holds.  A slot past its block's size stores no
    vertex — id 0, degree 0, vector unspecified — so consumers mask by
    ``sizes``.
    """

    vertex_ids: np.ndarray
    sizes: np.ndarray
    vectors: np.ndarray
    nbr_counts: np.ndarray
    nbr_ids: np.ndarray

    @classmethod
    def of_blocks(
        cls, blocks: Sequence[DiskBlock], fmt: VertexFormat
    ) -> "BlockStack":
        """Stack already-decoded blocks (what a per-query counted read — a
        cache wrapper, the resilient path — hands back)."""
        sizes = np.fromiter(map(len, blocks), np.int64, len(blocks))
        fields = [
            pad_rows(
                np.concatenate([getattr(b, name) for b in blocks]),
                sizes, fmt.vertices_per_block,
            )
            for name in ("vertex_ids", "vectors", "nbr_counts", "nbr_ids")
        ]
        return cls(fields[0], sizes, *fields[1:])


def _id_table(
    block_ids: Sequence[np.ndarray], eps: int
) -> tuple[np.ndarray, np.ndarray]:
    """``(ids[num_blocks, ε], sizes[num_blocks])`` of a ragged per-block
    vertex-id list; zero past each block's size, read-only."""
    sizes = np.fromiter(map(len, block_ids), np.int64, len(block_ids))
    if sizes.size and int(sizes.max()) > eps:
        raise ValueError(
            f"a block lists {int(sizes.max())} vertices, exceeding ε={eps}"
        )
    flat = np.concatenate(block_ids) if len(block_ids) else []
    table = pad_rows(flat, sizes, eps, np.uint32)
    table.flags.writeable = sizes.flags.writeable = False
    return table, sizes


class DiskGraph:
    """Graph index stored block-wise on a simulated device.

    Construction happens through :func:`build_disk_graph`; at query time the
    engines read through :meth:`read_counted` (batched, one round-trip) and
    account for every block read through its fetch count.
    """

    def __init__(
        self,
        device: BlockDevice,
        fmt: VertexFormat,
        vertex_to_block: np.ndarray,
        block_ids: Sequence[np.ndarray],
    ) -> None:
        self.device = device
        self.fmt = fmt
        self.vertex_to_block = vertex_to_block
        # ``layout[b]`` as one ``[num_blocks, ε]`` table plus the block
        # sizes, built here once (index build, persist load) and read-only
        # afterwards: a single block slices a row, a stack gathers rows.
        self._block_ids, self._block_sizes = _id_table(
            block_ids, fmt.vertices_per_block
        )
        #: per-block CRC32 table (uint32); computed lazily by
        #: :meth:`enable_checksum_verification`
        self.block_checksums: np.ndarray | None = None
        self.verify_checksums = False
        #: optional {block_id: DiskBlock} map of already-decoded blocks.  When
        #: set (by :class:`~repro.engine.batch.BatchExecutor` for one batch,
        #: by the serving layer while it is live), :meth:`_decode` serves
        #: repeat decodes from it.  The device read itself is still issued
        #: and counted — the cache amortizes only the Python-side decode, so
        #: I/O counters stay byte-identical to uncached execution.
        self.decode_cache: dict[int, DiskBlock] | None = None
        #: read by nothing under ``src/``: ``perf/probes.py`` still saves and
        #: restores it, so it stays assignable until the next benchmark PR
        self.decode_mode: str = "view"

    # -- shape ---------------------------------------------------------------

    @property
    def num_vertices(self) -> int:
        return int(self.vertex_to_block.shape[0])

    @property
    def num_blocks(self) -> int:
        return self.device.num_blocks

    @property
    def mapping_bytes(self) -> int:
        """Memory cost of the vertex→block mapping (C_mapping, §6.4).

        Includes the per-block CRC32 table once checksum verification is
        enabled (4 B per block, the price of integrity).
        """
        total = self.vertex_to_block.nbytes
        if self.block_checksums is not None:
            total += self.block_checksums.nbytes
        return total

    @property
    def disk_bytes(self) -> int:
        return self.device.disk_bytes

    def block_of(self, vertex_id: int) -> int:
        return int(self.vertex_to_block[vertex_id])

    def blocks_of(self, vertex_ids) -> np.ndarray:
        """Bulk vertex→block lookup: one fancy-index instead of a Python loop."""
        return self.vertex_to_block[
            np.asarray(vertex_ids, dtype=np.int64)
        ].astype(np.int64)

    def vertices_in_block(self, block_id: int) -> np.ndarray:
        return self._block_ids[block_id, : self._block_sizes[block_id]]

    # -- integrity -----------------------------------------------------------

    def enable_checksum_verification(self) -> None:
        """Turn on per-block CRC32 verification of every counted read.

        The checksum table is computed from the device's current contents if
        missing (an uncounted offline pass, like index build itself).  After
        this, a read whose payload does not match raises
        :class:`~repro.storage.faults.ChecksumError` — or reports the block
        as failed through :meth:`read_counted` — instead of silently
        decoding corrupt vectors.
        """
        if self.block_checksums is None:
            self.block_checksums = np.asarray(
                [block_checksum(self.device._fetch(b))
                 for b in range(self.device.num_blocks)],
                dtype=np.uint32,
            )
        self.verify_checksums = True

    def _payload_ok(self, block_id: int, payload: bytes) -> bool:
        if not self.verify_checksums or self.block_checksums is None:
            return True
        return block_checksum(payload) == int(self.block_checksums[block_id])

    # -- counted reads ---------------------------------------------------------

    def _decode(self, block_id: int, payload: bytes) -> DiskBlock:
        cache = self.decode_cache
        if cache is not None:
            hit = cache.get(block_id)
            if hit is not None:
                return hit
        ids = self.vertices_in_block(block_id)
        block = DiskBlock(
            block_id, ids, *self.fmt.split_block_views(payload, len(ids))
        )
        if cache is not None:
            cache[block_id] = block
        return block

    def read_block(self, block_id: int) -> DiskBlock:
        """Read and decode one block (one device round-trip)."""
        payload = self.device.read_block(block_id)
        if not self._payload_ok(block_id, payload):
            raise ChecksumError(block_id)
        return self._decode(block_id, payload)

    def read_payloads(
        self, block_ids: Sequence[int], failed: dict[int, str] | None = None,
        *, attempt: int = 0,
    ) -> list[bytes | None]:
        """The verified raw read every batched read is built on: one device
        round-trip for ``block_ids``, each payload checked against its CRC.

        A block that cannot be read or fails its checksum raises
        (:class:`~repro.storage.faults.ReadFaultError` /
        :class:`~repro.storage.faults.ChecksumError`) — unless the caller
        passes a ``failed`` dict, in which case it is reported there as
        ``{block_id: fault_kind}`` and its payload reads ``None``.  The
        retry ``attempt`` goes to the device (a fault injector's key).
        """
        try:
            payloads = self.device.read_blocks(block_ids, attempt)
        except ReadFaultError as exc:
            if failed is None:
                raise
            failed.update(exc.failed)
            payloads = [exc.payloads.get(bid) for bid in block_ids]
        if self.verify_checksums:
            for i, (bid, payload) in enumerate(zip(block_ids, payloads)):
                if payload is None or self._payload_ok(bid, payload):
                    continue
                if failed is None:
                    raise ChecksumError(bid)
                failed[bid] = KIND_CHECKSUM
                payloads[i] = None
        return payloads

    def read_blocks(self, block_ids: Sequence[int]) -> list[DiskBlock]:
        """Read a batch of blocks in one round-trip."""
        cache = self.decode_cache
        if (
            cache is not None
            and not self.verify_checksums
            and type(self.device) is BlockDevice
        ):
            # Full-batch cache hit: the payload bytes would be thrown away
            # (every block decodes from the cache), so skip the media fetch
            # and charge the round-trip directly — counters stay identical.
            # Gated on the exact device type because a wrapping device (a
            # fault injector) decides each block's fault when it is read,
            # and on checksum verification, which needs the raw payload.
            blocks = [cache.get(bid) for bid in block_ids]
            if None not in blocks:
                if blocks:
                    self.device.charge_batched_read(len(blocks))
                return blocks
        payloads = self.read_payloads(block_ids)
        return [self._decode(bid, p) for bid, p in zip(block_ids, payloads)]

    def read_block_stack(self, block_ids: Sequence[int]) -> BlockStack:
        """Read a batch of blocks in one round-trip, decoded as one stack
        (one set of field views over the joined payloads, no per-block
        object) — how a wide wave reads the union of a round's blocks."""
        sizes = self._block_sizes[block_ids]
        payload = b"".join(self.read_payloads(block_ids))
        return BlockStack(
            self._block_ids[block_ids], sizes,
            *self.fmt.split_block_views(payload, sizes),
        )

    def read_counted(
        self,
        block_ids: Sequence[int],
        *,
        failed: dict[int, str] | None = None,
        frontier: Sequence[int] | None = None,
        attempt: int = 0,
    ) -> tuple[dict[int, DiskBlock], int, int]:
        """The counted read every engine charges a query for:
        ``(blocks by id, blocks fetched from the device, of those prefetched)``.

        One round-trip for ``block_ids`` (distinct ids).  Without ``failed``
        it is :meth:`read_blocks` and a fault raises; with a ``failed`` dict,
        read errors and checksum mismatches land there as ``{block_id:
        fault_kind}`` and the block is absent from the result, so a
        resilience layer can retry exactly the failures; ``attempt`` says
        which retry of the query's read this is.  The fetch count is
        local, not a device-counter delta, which keeps per-query stats exact
        when queries interleave on one device.  ``frontier`` (the vertex ids
        the read serves) is a hint for the cache wrappers; a bare disk graph
        fetches everything it is asked for and prefetches nothing.
        """
        if failed is None:
            blocks = self.read_blocks(block_ids)
            return dict(zip(block_ids, blocks)), len(block_ids), 0
        payloads = self.read_payloads(block_ids, failed, attempt=attempt)
        found = {
            bid: self._decode(bid, payload)
            for bid, payload in zip(block_ids, payloads) if payload is not None
        }
        return found, len(block_ids), 0

    # -- uncounted access (build/analysis only) -----------------------------

    def peek_vertex(self, vertex_id: int) -> tuple[np.ndarray, np.ndarray]:
        """Fetch one vertex without I/O accounting (offline analysis only).

        Returns ``(vector, neighbors)`` as read-only views aliasing the
        block payload; copy before mutating.
        """
        block_id = self.block_of(vertex_id)
        payload = self.device._fetch(block_id)
        block = self._decode(block_id, payload)
        pos = block.index_of(vertex_id)
        return block.vectors[pos], block.neighbors_of(pos)


def build_disk_graph(
    vectors: np.ndarray,
    neighbor_lists: Sequence[np.ndarray],
    layout: Sequence[Sequence[int]],
    fmt: VertexFormat,
    *,
    path: str | os.PathLike | None = None,
    spec: DiskSpec | None = None,
) -> DiskGraph:
    """Serialize a graph index to a block device following ``layout``.

    Args:
        vectors: All base vectors, shape ``(n, dim)``.
        neighbor_lists: Adjacency list per vertex (each at most Λ IDs).
        layout: Block-level graph layout — ``layout[b]`` lists the vertex IDs
            stored in block ``b``.  Must partition ``range(n)`` with at most
            ε vertices per block (Def. 1 of the paper).
        fmt: On-disk record format.
        path: Optional backing file; in-memory store if omitted.
        spec: Disk latency model.
    """
    n = vectors.shape[0]
    if len(neighbor_lists) != n:
        raise ValueError("neighbor_lists length must match number of vectors")
    eps = fmt.vertices_per_block
    seen = np.zeros(n, dtype=bool)
    total = 0
    for block in layout:
        if len(block) > eps:
            raise ValueError(
                f"layout block holds {len(block)} vertices, exceeding ε={eps}"
            )
        for vid in block:
            if not 0 <= vid < n:
                raise ValueError(f"layout references unknown vertex {vid}")
            if seen[vid]:
                raise ValueError(f"layout stores vertex {vid} twice")
            seen[vid] = True
            total += 1
    if total != n:
        raise ValueError(
            f"layout covers {total} of {n} vertices; it must be a partition"
        )

    device = BlockDevice(fmt.block_bytes, len(layout), path=path, spec=spec)
    vertex_to_block = np.empty(n, dtype=np.uint32)
    block_ids: list[np.ndarray] = []
    for b, block in enumerate(layout):
        ids = np.asarray(list(block), dtype=np.uint32)
        block_ids.append(ids)
        vertex_to_block[ids] = b
        payload = fmt.encode_block(
            vectors[ids], [np.asarray(neighbor_lists[v]) for v in ids]
        )
        device.write_block(b, payload)
    device.reset_counters()  # build writes don't count against queries
    return DiskGraph(device, fmt, vertex_to_block, block_ids)
