"""Preallocated decode arenas: the zero-copy data plane's memory owner.

Gathering a round's block vectors with ``np.concatenate`` allocates a fresh
kernel-input matrix every round.  An :class:`Arena` owns three contiguous
arrays sized for a whole search round (vector matrix, CSR-style neighbour
count and padded neighbour-ID arrays) into which
:meth:`~repro.storage.codec.VertexFormat.decode_block_into` bulk-copies
records; every downstream consumer then works on zero-copy views of the
arena.  Arenas are reused across rounds and queries through an
:class:`ArenaPool`, so the steady-state search path performs **zero
per-block data allocations** — the pool only allocates when a round needs
more capacity than any round before it, and the :attr:`Arena.grow_events` /
:attr:`Arena.bytes_allocated` counters let the microbenchmark harness
assert exactly that.

Ownership rules (documented for every consumer):

- An arena's contents are valid only until the next :meth:`Arena.reset` —
  one search round.  Views handed out by ``decode_block_into`` or
  :meth:`Arena.rows` alias the arena and go stale with it; anything that
  must outlive the round (result ids/distances, frontier pushes) copies the
  scalars it needs, which the engines already do.
- A pool-acquired arena is exclusively owned until released; the pool is
  lock-protected so thread-mode executors can share one pool safely.
"""

from __future__ import annotations

import threading

import numpy as np

from ..storage.codec import ID_DTYPE, VertexFormat

#: default row capacity of a fresh arena — beam_width × ε rarely exceeds
#: this, so most searches never grow their arena at all
DEFAULT_CAPACITY = 256


class Arena:
    """Caller-owned decode target for one search round.

    Attributes:
        vectors: ``(capacity, dim)`` matrix in the distance kernel's compute
            dtype (float storage dtypes kept, integer ones promoted to
            float32 — mirroring the metric's own input promotion, so the
            values the kernel sees are bit-identical either way).
        nbr_counts: ``(capacity,)`` int64 — λ per decoded vertex.
        nbr_ids: ``(capacity, Λ)`` uint32 — padded neighbour IDs.
        filled: Rows currently holding decoded records.
    """

    def __init__(self, fmt: VertexFormat, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.dim = fmt.dim
        self.dtype = np.dtype(fmt.dtype)
        # Vector rows are stored in the exact-distance kernel's compute
        # dtype (the same promotion the metric itself applies), so integer
        # payload rows are cast exactly once — during the strided copy in —
        # and the kernel consumes the arena with no per-round ``astype``.
        self.kernel_dtype = (
            self.dtype
            if self.dtype in (np.float32, np.float64)
            else np.dtype(np.float32)
        )
        self.max_degree = fmt.max_degree
        self.filled = 0
        #: allocation telemetry for the zero-steady-state-allocation gate
        self.grow_events = 0
        self.bytes_allocated = 0
        self._allocate(capacity)

    def _allocate(self, capacity: int) -> None:
        self.vectors = np.empty((capacity, self.dim), dtype=self.kernel_dtype)
        self.nbr_counts = np.empty(capacity, dtype=np.int64)
        self.nbr_ids = np.empty((capacity, self.max_degree), dtype=ID_DTYPE)
        self.bytes_allocated += (
            self.vectors.nbytes + self.nbr_counts.nbytes + self.nbr_ids.nbytes
        )

    @property
    def capacity(self) -> int:
        return self.vectors.shape[0]

    def compatible_with(self, fmt: VertexFormat) -> bool:
        return (
            self.dim == fmt.dim
            and self.dtype == np.dtype(fmt.dtype)
            and self.max_degree == fmt.max_degree
        )

    def reset(self) -> None:
        """Start a new round; existing views into the arena go stale."""
        self.filled = 0

    def ensure(self, extra: int) -> None:
        """Guarantee room for ``extra`` more rows, growing geometrically.

        Growth is the only allocation an arena ever performs after
        construction; a steady-state search (every round no larger than the
        largest seen) triggers none.
        """
        need = self.filled + extra
        capacity = self.capacity
        if need <= capacity:
            return
        new_capacity = max(capacity * 2, need)
        old = self.vectors, self.nbr_counts, self.nbr_ids
        self.grow_events += 1
        self._allocate(new_capacity)
        n = self.filled
        if n:
            self.vectors[:n] = old[0][:n]
            self.nbr_counts[:n] = old[1][:n]
            self.nbr_ids[:n] = old[2][:n]

    def append_block(
        self, fmt: VertexFormat, payload: bytes | memoryview, count: int
    ) -> slice:
        """Decode one block's records onto the end of the arena."""
        self.ensure(count)
        offset = self.filled
        fmt.decode_block_into(payload, count, self, offset)
        self.filled += count
        return slice(offset, offset + count)

    def append_rows(self, vectors: np.ndarray) -> slice:
        """Bulk-append already-decoded vector rows (beam gather path)."""
        n = len(vectors)
        self.ensure(n)
        offset = self.filled
        self.vectors[offset : offset + n] = vectors
        self.filled += n
        return slice(offset, offset + n)

    def rows(self) -> np.ndarray:
        """Contiguous view of every filled vector row (the kernel input)."""
        return self.vectors[: self.filled]

    def load_rows(self, matrices) -> np.ndarray:
        """Reset, append each matrix, and return the filled view.

        The one-call-per-round form of ``reset`` + ``append_rows`` +
        ``rows`` used by the round kernel's gather.
        """
        total = 0
        for m in matrices:
            total += m.shape[0]
        self.filled = 0
        self.ensure(total)
        buf = self.vectors
        offset = 0
        for m in matrices:
            n = m.shape[0]
            buf[offset:offset + n] = m
            offset += n
        self.filled = offset
        return buf[:offset]

    def scratch_rows(self, count: int) -> np.ndarray:
        """A ``(count, dim)`` kernel-dtype workspace, reused across rounds.

        Lazily sized to the arena's capacity (and re-sized with it), so the
        distance kernel can write its intermediate into preallocated memory
        instead of a fresh per-round array.
        """
        buf = getattr(self, "_scratch", None)
        if buf is None or buf.shape[0] < count:
            buf = np.empty(
                (max(count, self.capacity), self.dim),
                dtype=self.kernel_dtype,
            )
            self._scratch = buf
            self.bytes_allocated += buf.nbytes
        return buf[:count]


class ArenaPool:
    """Reusable arenas keyed by record format, safe for concurrent callers.

    ``acquire`` hands out a free compatible arena (or builds one — the only
    allocation path); ``release`` returns it.  Engines hold a pool for the
    duration of a batch so every query and round reuses the same few
    buffers.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._free: list[Arena] = []
        #: arenas ever constructed (not a high-water mark of concurrency)
        self.created = 0

    def acquire(self, fmt: VertexFormat, capacity: int = DEFAULT_CAPACITY) -> Arena:
        with self._lock:
            for i, arena in enumerate(self._free):
                if arena.compatible_with(fmt):
                    del self._free[i]
                    arena.reset()
                    return arena
            self.created += 1
        return Arena(fmt, capacity)

    def release(self, arena: Arena) -> None:
        with self._lock:
            self._free.append(arena)

    @property
    def idle(self) -> int:
        with self._lock:
            return len(self._free)
