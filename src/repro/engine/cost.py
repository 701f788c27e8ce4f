"""Query cost model: T_total = T_I/O + T_comp + T_other (Eq. 4).

Every disk engine fills a :class:`QueryStats` with *exact counts* — blocks
read, round-trips issued, exact and PQ distance computations, hops — and the
cost model converts counts into simulated time.  This is the reproduction's
substitute for wall-clock measurement (see DESIGN.md): latency and QPS are
monotone functions of the counts, so the paper's comparisons survive even
though absolute microseconds are synthetic.

The paper's I/O-and-computation pipeline (§5.1) is modelled at this level:
with the pipeline on, disk reads and distance computations overlap, so the
query pays ``max(T_io, T_comp)`` instead of their sum.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..storage.device import DiskSpec


@dataclass(frozen=True)
class ComputeSpec:
    """Cost of in-memory work, calibrated to the paper's time breakdown.

    Defaults are chosen so the simulated time breakdown lands near the
    paper's Fig. 11(d): disk I/O ≈ 90+% of a DiskANN query and ≈ 60% of a
    Starling query (which examines several vertices per loaded block).

    Attributes:
        exact_ns_per_dim: Nanoseconds per dimension of one full-precision
            distance computation.
        pq_ns_per_subspace: Nanoseconds per subspace of one ADC lookup.
        other_us_per_hop: Fixed per-hop bookkeeping (queues, sorting).
    """

    exact_ns_per_dim: float = 8.0
    pq_ns_per_subspace: float = 25.0
    other_us_per_hop: float = 1.0

    def exact_us(self, dim: int) -> float:
        return self.exact_ns_per_dim * dim / 1000.0

    def pq_us(self, num_subspaces: int) -> float:
        return self.pq_ns_per_subspace * num_subspaces / 1000.0


@dataclass
class FaultStats:
    """Fault-path counters of one query (all zero on a healthy device).

    Retries and hedges also appear as extra entries in
    :attr:`QueryStats.round_trip_blocks` — the duplicate I/O is charged at
    full price — while the *waiting* components (backoff delays, the latency
    spikes actually suffered) are carried here in simulated microseconds and
    folded into :meth:`QueryStats.io_time_us`.
    """

    #: failed block reads that were re-issued
    retries: int = 0
    #: duplicate reads issued against a latency spike
    hedges: int = 0
    #: read errors observed (transient + permanent, before retry)
    read_errors: int = 0
    #: checksum mismatches detected (silent corruption caught)
    corrupt_blocks: int = 0
    #: blocks given up on after exhausting retries
    blocks_abandoned: int = 0
    #: candidate vertices skipped because their block was unreadable
    vertices_abandoned: int = 0
    #: latency spikes suffered (post-hedging)
    latency_spikes: int = 0
    #: simulated extra time from spikes, after any hedge won the race
    injected_latency_us: float = 0.0
    #: simulated time spent in retry backoff waits
    backoff_us: float = 0.0

    @property
    def any(self) -> bool:
        """Whether any fault activity was observed at all."""
        return (
            self.retries > 0 or self.hedges > 0 or self.read_errors > 0
            or self.corrupt_blocks > 0 or self.blocks_abandoned > 0
            or self.vertices_abandoned > 0 or self.latency_spikes > 0
        )

    @property
    def degraded(self) -> bool:
        """Whether the answer may be missing data (not merely delayed)."""
        return self.blocks_abandoned > 0 or self.vertices_abandoned > 0

    def extra_io_us(self) -> float:
        return self.injected_latency_us + self.backoff_us

    def merge(self, other: "FaultStats") -> None:
        self.retries += other.retries
        self.hedges += other.hedges
        self.read_errors += other.read_errors
        self.corrupt_blocks += other.corrupt_blocks
        self.blocks_abandoned += other.blocks_abandoned
        self.vertices_abandoned += other.vertices_abandoned
        self.latency_spikes += other.latency_spikes
        self.injected_latency_us += other.injected_latency_us
        self.backoff_us += other.backoff_us


@dataclass
class QueryStats:
    """Exact counts accumulated while answering one query."""

    #: blocks fetched per random round-trip, in issue order
    round_trip_blocks: list[int] = field(default_factory=list)
    #: blocks fetched per sequential read (SPANN posting lists)
    sequential_blocks: list[int] = field(default_factory=list)
    exact_distances: int = 0
    pq_distances: int = 0
    hops: int = 0
    #: total vertex records present in the blocks read from disk
    vertices_loaded: int = 0
    #: vertex records the engine actually examined (target + pruned survivors)
    vertices_used: int = 0
    cache_hits: int = 0
    #: blocks served by a block cache (LRU/pinned/locality) instead of the device
    block_cache_hits: int = 0
    #: blocks a locality cache pulled ahead of demand — charged in full
    #: inside :attr:`round_trip_blocks` (they left the device); this counter
    #: only attributes the share, it never discounts it
    prefetch_blocks: int = 0
    #: extra full searches triggered by restarts (DiskANN-style RS)
    restarts: int = 0
    #: whether the engine ran with the I/O-and-computation pipeline (§5.1)
    pipelined: bool = False
    #: fault-path counters (retries, hedges, corruption, abandonment)
    fault: FaultStats = field(default_factory=FaultStats)

    # -- derived counts ------------------------------------------------------

    @property
    def blocks_read(self) -> int:
        return sum(self.round_trip_blocks) + sum(self.sequential_blocks)

    @property
    def num_ios(self) -> int:
        """Mean-I/Os metric of the paper: blocks read from disk."""
        return self.blocks_read

    @property
    def round_trips(self) -> int:
        return len(self.round_trip_blocks) + len(self.sequential_blocks)

    @property
    def vertex_utilization(self) -> float:
        """ξ — fraction of loaded vertex records that were useful (§3.1)."""
        if self.vertices_loaded == 0:
            return 0.0
        return self.vertices_used / self.vertices_loaded

    # -- time model ------------------------------------------------------------

    def io_time_us(self, disk: DiskSpec) -> float:
        total = sum(disk.random_read_us(b) for b in self.round_trip_blocks)
        total += sum(disk.sequential_read_us(b) for b in self.sequential_blocks)
        # Injected latency spikes and retry backoff are time-on-the-I/O-path.
        return total + self.fault.extra_io_us()

    def compute_time_us(
        self, comp: ComputeSpec, dim: int, num_subspaces: int
    ) -> float:
        return (
            self.exact_distances * comp.exact_us(dim)
            + self.pq_distances * comp.pq_us(num_subspaces)
        )

    def other_time_us(self, comp: ComputeSpec) -> float:
        return self.hops * comp.other_us_per_hop

    def latency_us(
        self,
        disk: DiskSpec,
        comp: ComputeSpec,
        dim: int,
        num_subspaces: int,
        *,
        pipeline: bool | None = None,
    ) -> float:
        """Simulated query latency under the cost model.

        With the I/O-and-computation pipeline (§5.1), disk reads and distance
        computations overlap, so the larger of the two dominates.  Defaults to
        the mode the engine recorded in :attr:`pipelined`.
        """
        io = self.io_time_us(disk)
        compute = self.compute_time_us(comp, dim, num_subspaces)
        other = self.other_time_us(comp)
        if pipeline is None:
            pipeline = self.pipelined
        if pipeline:
            return max(io, compute) + other
        return io + compute + other

    # -- composition -------------------------------------------------------------

    def merge(self, other: "QueryStats") -> None:
        """Fold another stats object into this one (multi-phase queries)."""
        self.round_trip_blocks.extend(other.round_trip_blocks)
        self.sequential_blocks.extend(other.sequential_blocks)
        self.exact_distances += other.exact_distances
        self.pq_distances += other.pq_distances
        self.hops += other.hops
        self.vertices_loaded += other.vertices_loaded
        self.vertices_used += other.vertices_used
        self.cache_hits += other.cache_hits
        self.block_cache_hits += other.block_cache_hits
        self.prefetch_blocks += other.prefetch_blocks
        self.restarts += other.restarts
        self.fault.merge(other.fault)


@dataclass
class WaveStats:
    """Wave-level traversal counters (per-query stats live in QueryStats).

    Attributes:
        queries: Queries advanced through the round loop.
        rounds: Lockstep rounds advanced (a round serves every live query).
        requested_block_reads: Σ over (query, round) of the query's unique
            requested blocks — what the per-query ``round_trip_blocks``
            charge on the coalesced path, i.e. the reads a sequence of
            waves of one would issue.
        issued_block_reads: Σ over rounds of the deduplicated wave-wide
            union — the reads physically issued.  Equal to the requested
            count wherever the loop reads per query (width 1, caches,
            resilience): nothing is coalesced there.
    """

    queries: int = 0
    rounds: int = 0
    requested_block_reads: int = 0
    issued_block_reads: int = 0

    @property
    def coalesced_block_reads(self) -> int:
        """Physical reads saved by cross-query coalescing (the honest
        counter for sharing: per-query charges stay width-independent)."""
        return self.requested_block_reads - self.issued_block_reads

    def to_dict(self) -> dict:
        return {
            "queries": self.queries,
            "rounds": self.rounds,
            "requested_block_reads": self.requested_block_reads,
            "issued_block_reads": self.issued_block_reads,
            "coalesced_block_reads": self.coalesced_block_reads,
        }
