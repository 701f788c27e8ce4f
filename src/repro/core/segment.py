"""Segment index facades: :class:`StarlingIndex` and :class:`DiskANNIndex`.

These are the user-facing objects of the library.  Each wraps one data
segment's disk-resident graph plus its in-memory structures and exposes
``search`` (ANNS) and ``range_search`` (RS), returning results *and* the
exact I/O / compute counters from which the simulated latency is derived.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..engine.beam_search import BeamSearchEngine
from ..engine.block_search import BlockSearchEngine
from ..engine.cache import HotVertexCache
from ..engine.cost import ComputeSpec
from ..engine.range_search import (
    incremental_range_search,
    repeated_anns_range_search,
)
from ..engine.results import RangeResult, SearchResult
from ..graphs.navigation import EntryPointProvider
from ..quantization.pq import ProductQuantizer
from ..storage.device import DiskSpec
from ..storage.disk_graph import DiskGraph
from ..storage.faults import ensure_fault_injection
from ..vectors.metrics import Metric
from .config import DiskANNConfig, SegmentBudget, StarlingConfig


@dataclass
class BuildTimings:
    """Wall-clock seconds of each offline index-processing step (Eq. 8/9)."""

    disk_graph_s: float = 0.0
    shuffle_s: float = 0.0  # T_shuffling (Starling only)
    memory_graph_s: float = 0.0  # T_memory_graph (Starling only)
    hot_cache_s: float = 0.0  # T_hot (DiskANN only)
    pq_s: float = 0.0
    disk_write_s: float = 0.0  # serialising blocks to the disk file

    @property
    def total_s(self) -> float:
        return (
            self.disk_graph_s + self.shuffle_s + self.memory_graph_s
            + self.hot_cache_s + self.pq_s + self.disk_write_s
        )


@dataclass
class MemoryFootprint:
    """Main-memory cost decomposition (Eq. 10/11, Fig. 8(b))."""

    graph_bytes: int = 0  # C_graph: in-memory navigation graph
    mapping_bytes: int = 0  # C_mapping: vertex→block map
    cache_bytes: int = 0  # C_hot: hot-vertex cache
    pq_bytes: int = 0  # C_PQ&others: short codes + codebooks
    block_cache_bytes: int = 0  # optional LRU block cache capacity

    @property
    def total_bytes(self) -> int:
        return (
            self.graph_bytes + self.mapping_bytes + self.cache_bytes
            + self.pq_bytes + self.block_cache_bytes
        )


@dataclass
class BudgetReport:
    """Index space usage versus the segment's limits."""

    memory_bytes: int
    disk_bytes: int
    budget: SegmentBudget

    @property
    def memory_ok(self) -> bool:
        return self.memory_bytes <= self.budget.memory_bytes

    @property
    def disk_ok(self) -> bool:
        return self.disk_bytes <= self.budget.disk_bytes

    @property
    def within_budget(self) -> bool:
        return self.memory_ok and self.disk_ok


class _SegmentIndexBase:
    """Shared plumbing of the two segment index flavours."""

    def __init__(
        self,
        disk_graph: DiskGraph,
        pq: ProductQuantizer,
        metric: Metric,
        entry_provider: EntryPointProvider,
        timings: BuildTimings,
        memory: MemoryFootprint,
        *,
        disk_spec: DiskSpec | None = None,
        compute_spec: ComputeSpec | None = None,
    ) -> None:
        self.disk_graph = disk_graph
        self.pq = pq
        self.metric = metric
        self.entry_provider = entry_provider
        self.timings = timings
        self.memory = memory
        self.disk_spec = disk_spec or DiskSpec()
        self.compute_spec = compute_spec or ComputeSpec()

    # -- space accounting --------------------------------------------------------

    @property
    def num_vectors(self) -> int:
        return self.disk_graph.num_vertices

    @property
    def dim(self) -> int:
        return self.disk_graph.fmt.dim

    @property
    def memory_bytes(self) -> int:
        return self.memory.total_bytes

    @property
    def disk_bytes(self) -> int:
        return self.disk_graph.disk_bytes

    def check_budget(self, budget: SegmentBudget) -> BudgetReport:
        return BudgetReport(self.memory_bytes, self.disk_bytes, budget)

    # -- cost model ------------------------------------------------------------

    def latency_us(self, result) -> float:
        """Simulated latency of one query result under the segment's specs."""
        return result.stats.latency_us(
            self.disk_spec, self.compute_spec, self.dim,
            self.pq.num_subspaces,
        )

    def _bind_costs(self, stopper) -> None:
        """Attach this segment's cost model to a cost-aware stopper (the
        serving layer's deadline budgets), so its clock prices I/O and
        compute exactly like :meth:`latency_us`."""
        if stopper is not None and hasattr(stopper, "bind_costs"):
            stopper.bind_costs(
                self.disk_spec, self.compute_spec, self.dim,
                self.pq.num_subspaces,
            )


class StarlingIndex(_SegmentIndexBase):
    """Starling on one data segment: shuffled layout + navigation graph +
    block search.  Build with :func:`repro.core.builder.build_starling`."""

    name = "starling"

    def __init__(
        self,
        disk_graph: DiskGraph,
        pq: ProductQuantizer,
        metric: Metric,
        entry_provider: EntryPointProvider,
        config: StarlingConfig,
        timings: BuildTimings,
        memory: MemoryFootprint,
        *,
        layout_or: float = 0.0,
        disk_spec: DiskSpec | None = None,
        compute_spec: ComputeSpec | None = None,
    ) -> None:
        super().__init__(
            disk_graph, pq, metric, entry_provider, timings, memory,
            disk_spec=disk_spec, compute_spec=compute_spec,
        )
        self.config = config
        self.layout_or = layout_or
        # Chaos wiring: a fault-enabled config injects faults (idempotently,
        # so both fresh builds and persisted reloads get them) and arms the
        # retry/hedging policy; the default spec leaves the fast path alone.
        ensure_fault_injection(disk_graph, config.faults)
        self.engine = BlockSearchEngine(
            disk_graph, pq, metric, entry_provider,
            beam_width=config.beam_width,
            pruning_ratio=config.pruning_ratio,
            use_pq_routing=config.use_pq_routing,
            pipeline=config.pipeline,
            num_entry_points=config.num_entry_points,
            resilience=config.resilience if config.faults.enabled else None,
            fold_coresident=config.fold_coresident,
        )

    def apply_cache_strategy(
        self, name: str, capacity_blocks: int, *, params: tuple = (),
    ) -> None:
        """Re-wrap the disk graph with a different block-cache strategy.

        Serves the CLI's ``search --cache-strategy`` override: the stored
        index keeps the strategy it was built with, but a load-time caller
        may trade it for another without rebuilding.  The existing cache
        layer (if any) is discarded; ``"hot"`` is only available when the
        current wrapper already carries a pinned set (it is selected
        offline at build time), reused at the new capacity.
        """
        from ..engine.cache_strategies import wrap_with_cache_strategy
        from ..storage.faults import base_disk_graph

        # The offline-selected hot set is stashed on the index so that a
        # hot → other → hot round of re-wraps doesn't lose it with the
        # discarded wrapper.
        pinned = getattr(self.disk_graph, "pinned_block_ids", None)
        if pinned is not None:
            self._pinned_blocks = tuple(pinned)
        else:
            pinned = getattr(self, "_pinned_blocks", None)
        base = base_disk_graph(self.disk_graph)
        wrapped = wrap_with_cache_strategy(
            base, name, capacity_blocks, params=params, pinned_blocks=pinned,
        )
        self.disk_graph = wrapped
        self.engine.disk_graph = wrapped
        self.config = self.config.with_(
            cache_strategy=name, cache_params=tuple(params),
            block_cache_blocks=capacity_blocks,
        )
        self.memory.block_cache_bytes = (
            getattr(wrapped, "memory_bytes", 0) if wrapped is not base else 0
        )

    def search(
        self, query: np.ndarray, k: int = 10, candidate_size: int = 64,
        *, table: np.ndarray | None = None, stopper=None,
    ) -> SearchResult:
        """Approximate k-nearest-neighbour search (Algorithm 2) — the
        engine runs it as a wave of one.

        ``table`` is an optional precomputed ADC table (one row of the
        batched executor's shared :meth:`ProductQuantizer.lookup_tables`
        build) — bit-identical to the table built per query.  ``stopper``
        overrides the engine's early termination.
        """
        self._bind_costs(stopper)
        return self.engine.search(
            query, k, candidate_size, table=table, stopper=stopper
        )

    def search_wave(
        self, queries: np.ndarray, k: int = 10, candidate_size: int = 64,
        *, tables: np.ndarray | None = None, stoppers=None, wave_stats=None,
    ) -> list[SearchResult]:
        """One query per row of ``queries`` through the engine's round loop
        (:meth:`BlockSearchEngine.search_wave`), with this segment's cost
        model bound to every cost-aware stopper."""
        for stopper in stoppers or ():
            self._bind_costs(stopper)
        return self.engine.search_wave(
            queries, k, candidate_size,
            tables=tables, stoppers=stoppers, wave_stats=wave_stats,
        )

    def range_search(
        self,
        query: np.ndarray,
        radius: float,
        *,
        initial_candidate_size: int = 32,
        ratio_threshold: float = 0.5,
        table: np.ndarray | None = None,
    ) -> RangeResult:
        """Range search with dynamic candidate doubling (§5.3)."""
        return incremental_range_search(
            self.engine, query, radius,
            initial_candidate_size=initial_candidate_size,
            ratio_threshold=ratio_threshold,
            table=table,
        )


class DiskANNIndex(_SegmentIndexBase):
    """The baseline framework: ID-contiguous layout, hot-vertex cache,
    vertex-granularity beam search, RS by repeated ANNS."""

    name = "diskann"

    def __init__(
        self,
        disk_graph: DiskGraph,
        pq: ProductQuantizer,
        metric: Metric,
        entry_provider: EntryPointProvider,
        config: DiskANNConfig,
        timings: BuildTimings,
        memory: MemoryFootprint,
        *,
        cache: HotVertexCache | None = None,
        disk_spec: DiskSpec | None = None,
        compute_spec: ComputeSpec | None = None,
    ) -> None:
        super().__init__(
            disk_graph, pq, metric, entry_provider, timings, memory,
            disk_spec=disk_spec, compute_spec=compute_spec,
        )
        self.config = config
        self.cache = cache
        ensure_fault_injection(disk_graph, config.faults)
        self.engine = BeamSearchEngine(
            disk_graph, pq, metric, entry_provider,
            cache=cache,
            beam_width=config.beam_width,
            use_pq_routing=config.use_pq_routing,
            resilience=config.resilience if config.faults.enabled else None,
        )

    def search(
        self, query: np.ndarray, k: int = 10, candidate_size: int = 64,
        *, table: np.ndarray | None = None, stopper=None,
    ) -> SearchResult:
        """Approximate k-nearest-neighbour search (vertex beam search)."""
        self._bind_costs(stopper)
        return self.engine.search(
            query, k, candidate_size, table=table, stopper=stopper
        )

    def range_search(
        self,
        query: np.ndarray,
        radius: float,
        *,
        initial_k: int = 16,
        table: np.ndarray | None = None,
    ) -> RangeResult:
        """Range search by repeatedly calling ANNS with doubling k."""
        return repeated_anns_range_search(
            self.engine, query, radius, initial_k=initial_k, table=table
        )
