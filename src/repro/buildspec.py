"""How an index build is executed (:class:`BuildSpec`).

The build-side counterpart of the query path's
:class:`~repro.engine.batch.ExecSpec`: index construction is dominated by
thousands of independent greedy searches plus per-vertex edge selection,
which three strategies schedule.

- ``serial`` — the reference per-point loop.  Bit-identical to the
  historical builders: every adjacency list, layout, and codebook matches a
  build that predates :class:`BuildSpec`.
- ``batched`` — wave-batched construction.  Vertices are processed in
  seed-deterministic waves; each wave's greedy searches run through one
  vectorized multi-query kernel against a frozen graph snapshot, and edge
  updates are applied with a deterministic merge.  The resulting graph is
  *not* bit-identical to ``serial`` (within a wave, points do not see each
  other's edges) but is fully deterministic for a fixed seed and holds
  recall within tolerance — the standard trade of parallel Vamana builds.
- ``processes`` — the ``batched`` wave schedule with the search phase
  fanned out over a fork-based process pool.  Wave searches are pure
  functions of the snapshot, so the result is bit-identical to ``batched``
  for *any* worker count; on machines without ``fork`` the mode degrades to
  ``batched``.

Quantizer training is embarrassingly parallel across the M sub-codebooks
(each is seeded independently), so every mode trains identical codebooks;
``processes`` merely overlaps them.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass

#: build strategies understood by :class:`BuildSpec`
BUILD_MODES = ("serial", "batched", "processes")

#: default wave width — big enough to amortize one numpy kernel call across
#: the wave, small enough that intra-wave staleness does not hurt recall
DEFAULT_WAVE_SIZE = 64


@dataclass(frozen=True)
class BuildSpec:
    """How an index build is executed.

    Attributes:
        mode: ``serial`` (default, bit-identical to the historical
            builders), ``batched`` (vectorized waves), or ``processes``
            (waves with a fork pool for the search phase).
        workers: Pool size for ``processes``; ignored by the other modes.
            Results are independent of ``workers`` by construction.
        wave_size: Vertices per wave in the parallel modes.  Part of the
            deterministic schedule: the same ``wave_size`` always yields
            the same graph.
    """

    mode: str = "serial"
    workers: int = 4
    wave_size: int = DEFAULT_WAVE_SIZE

    def __post_init__(self) -> None:
        if self.mode not in BUILD_MODES:
            raise ValueError(
                f"mode must be one of {BUILD_MODES}, got {self.mode!r}"
            )
        if self.workers <= 0:
            raise ValueError("workers must be positive")
        if self.wave_size <= 0:
            raise ValueError("wave_size must be positive")

    @property
    def parallel(self) -> bool:
        """True when the wave-batched pipeline is requested."""
        return self.mode != "serial"

    def effective_mode(self) -> str:
        """The mode actually used after platform gates.

        ``processes`` needs the fork start method (the builders' state —
        vectors, the mutable graph — is inherited, not pickled); without it
        the wave schedule still runs, single-process.
        """
        if self.mode == "processes" and (
            "fork" not in multiprocessing.get_all_start_methods()
        ):
            return "batched"
        return self.mode
