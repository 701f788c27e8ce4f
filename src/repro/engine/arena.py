"""Preallocated gather arenas: reused kernel-input memory for search rounds.

Gathering a round's block vectors with ``np.concatenate`` allocates a fresh
kernel-input matrix every round.  An :class:`Arena` owns one contiguous
vector matrix sized for a whole search round (plus a same-shape scratch
workspace for the distance kernel) into which the round's rows are copied
once; the kernel then works on a zero-copy view of the arena.  Arenas are
reused across rounds and queries through an :class:`ArenaPool`, so the
steady-state search path performs **zero per-round gather allocations** —
the pool only allocates when a round needs more capacity than any round
before it.

Ownership rules (documented for every consumer):

- An arena's contents are valid only until the next :meth:`Arena.reset` —
  one search round.  Views handed out by :meth:`Arena.load_rows` or
  :meth:`Arena.rows` alias the arena and go stale with it; anything that
  must outlive the round (result ids/distances, frontier pushes) copies the
  scalars it needs, which the engines already do.
- A pool-acquired arena is exclusively owned until released; the pool is
  lock-protected so the service's worker threads can share one pool safely.
"""

from __future__ import annotations

import threading

import numpy as np

from ..storage.codec import VertexFormat

#: default row capacity of a fresh arena — beam_width × ε rarely exceeds
#: this, so most searches never grow their arena at all
DEFAULT_CAPACITY = 256


class Arena:
    """Caller-owned gather target for one search round.

    Attributes:
        vectors: ``(capacity, dim)`` matrix in the distance kernel's compute
            dtype (float storage dtypes kept, integer ones promoted to
            float32 — mirroring the metric's own input promotion, so the
            values the kernel sees are bit-identical either way).
        filled: Rows currently holding gathered vectors.
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
        self.filled = 0
        self.vectors = np.empty((capacity, self.dim), dtype=self.kernel_dtype)

    @property
    def capacity(self) -> int:
        return self.vectors.shape[0]

    def compatible_with(self, fmt: VertexFormat) -> bool:
        return self.dim == fmt.dim and self.dtype == np.dtype(fmt.dtype)

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
        old = self.vectors
        self.vectors = np.empty(
            (max(capacity * 2, need), self.dim), dtype=self.kernel_dtype
        )
        self.vectors[: self.filled] = old[: self.filled]

    def rows(self) -> np.ndarray:
        """Contiguous view of every filled vector row (the kernel input)."""
        return self.vectors[: self.filled]

    def load_rows(self, matrices) -> np.ndarray:
        """Reset, copy each matrix in, and return the filled view — the
        round kernel's one-call-per-round gather."""
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
