"""How an index build is executed (:class:`BuildSpec`).

The build-side counterpart of the query path's
:class:`~repro.engine.batch.ExecSpec`: index construction is dominated by
thousands of independent greedy searches plus per-vertex edge selection,
which two strategies schedule.

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

The two modes differ only where their outputs do: Vamana.  NSG's searches
run over a static kNN base graph, so its one (wave) build is the same graph
under either mode, and quantizer training has no mode at all — the M
sub-codebooks' k-means++ seedings run as one lockstep pass (subspace ``m``
on its own generator, ``seed + m``), then Lloyd refines them in order.
"""

from __future__ import annotations

from dataclasses import dataclass

#: build strategies understood by :class:`BuildSpec`
BUILD_MODES = ("serial", "batched")

#: default wave width — big enough to amortize one numpy kernel call across
#: the wave, small enough that intra-wave staleness does not hurt recall
DEFAULT_WAVE_SIZE = 64


@dataclass(frozen=True)
class BuildSpec:
    """How an index build is executed.

    Attributes:
        mode: ``serial`` (default, bit-identical to the historical
            builders) or ``batched`` (vectorized waves).
        wave_size: Vertices per wave of a ``batched`` build.  Part of the
            deterministic schedule: the same ``wave_size`` always yields
            the same graph.
    """

    mode: str = "serial"
    wave_size: int = DEFAULT_WAVE_SIZE

    def __post_init__(self) -> None:
        if self.mode not in BUILD_MODES:
            raise ValueError(
                f"mode must be one of {BUILD_MODES}, got {self.mode!r}"
            )
        if self.wave_size <= 0:
            raise ValueError("wave_size must be positive")

    @property
    def parallel(self) -> bool:
        """True when the wave-batched pipeline is requested."""
        return self.mode != "serial"
