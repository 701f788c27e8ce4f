"""Batched query execution with amortized wall-clock cost.

The engines' *simulated* metrics — block reads, round trips, vertex
utilization, and the latency derived from them — are functions of each
query's traversal (and, behind a block cache, of the order the cache saw
the reads in), not of the machine the batch runs on.
:class:`BatchExecutor` exploits that gap: it runs a query batch through any
engine while amortizing the *real* (wall clock) cost across the batch,
returning the plain per-query loop's ids and distances — and, on a read
path without a cache, its very :class:`~repro.engine.cost.QueryStats`
counters.

Two modes (:class:`ExecSpec`).  ``serial`` is the plain ``index.search``
loop with no amortization at all: the reference, and what an index without
a disk graph (SPANN's posting lists) always runs.  ``wave``, the default,
shares three things across the batch, each individually counter-neutral:

- **ADC tables** — one batched
  :meth:`~repro.quantization.pq.ProductQuantizer.lookup_tables` build for
  the whole batch; row ``i`` is bit-identical to the table query ``i`` would
  have built itself.
- **Decode cache** — a dict of decoded blocks installed on the physical
  :class:`~repro.storage.disk_graph.DiskGraph` for the duration of the
  batch.  It sits *behind* the I/O accounting (every device read is still
  issued and counted), so only the Python-side payload decode is skipped.
- **Rounds** — a block-search index advances the batch through the one
  round loop (:meth:`~repro.engine.block_search.BlockSearchEngine.
  search_wave`): coalesced block reads and one fused kernel per round.

Scheduling chooses nothing but the wave's **width**: a block-search batch
runs as one wave, whatever cache sits in front of the graph and however
the index routes.  A cache never changes what a block holds, so a wide
wave's answers (ids, distances, ``degraded``) equal the serial loop's; its
stateful reads — a cache wrapper's hits and evictions, exact routing's
mid-round reads — happen in the round loop's fixed (round, row) order, so
its charges (hits, fetches, prefetches, round trips) equal the serial
primitives replayed in that order (``tests/oracles.py::
oracle_wave_search``), not necessarily width 1's.  An armed
:class:`~repro.storage.faults.FaultInjector` is no exception: it keys every
fault on ``(seed, block, attempt)``, not on the read order, so a wide
wave's answers and :class:`~repro.engine.cost.FaultStats` equal the serial
loop's too.  The DiskANN baseline's
:class:`~repro.engine.beam_search.BeamSearchEngine` keeps its own driver
and runs in order under the same shared tables and cache.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..storage.faults import base_disk_graph
from .cost import WaveStats

#: execution strategies understood by :class:`ExecSpec`
EXEC_MODES = ("serial", "wave")


@dataclass(frozen=True)
class ExecSpec:
    """How a query batch is executed.

    Attributes:
        mode: ``serial`` is the reference per-query loop with no
            amortization at all; ``wave`` (the default) shares the ADC table
            build and the decode cache across the batch and advances
            block-search indexes through the lockstep round loop as one
            wave.
        gc_pause: Pause the cyclic garbage collector for the span of the
            batch (restored — and left to collect — afterwards), so the
            rounds' transient allocations do not trigger generation scans
            mid-batch.
            Purely a scheduling choice: it cannot affect results.
    """

    mode: str = "wave"
    gc_pause: bool = True

    def __post_init__(self) -> None:
        if self.mode not in EXEC_MODES:
            raise ValueError(
                f"mode must be one of {EXEC_MODES}, got {self.mode!r}"
            )


@contextmanager
def amortized(graphs, gc_pause: bool):
    """Install a batch's shared decode cache on each physical graph of
    ``graphs``, and hold off the cyclic collector (``gc_pause``).

    Only an *empty* slot is filled (and emptied again on exit).  One that
    is already occupied belongs to a long-lived owner (the serving layer's
    persistent plane) and is left alone: concurrent batches must share one
    cache, not tear down each other's installs.  A graph without the seam
    has no slot.
    """
    own = [
        graph for graph in graphs
        if hasattr(graph, "decode_cache") and graph.decode_cache is None
    ]
    pause = gc_pause and gc.isenabled()
    for graph in own:
        graph.decode_cache = {}
    if pause:
        gc.disable()
    try:
        yield
    finally:
        if pause:
            gc.enable()
        for graph in own:
            graph.decode_cache = None


class BatchExecutor:
    """Run query batches through a segment index with amortized cost.

    Accepts a segment index (:class:`~repro.core.segment.StarlingIndex`,
    :class:`~repro.core.segment.DiskANNIndex`) or any object with the same
    ``search``/``range_search`` surface and an ``engine`` attribute; a bare
    engine works for ANNS batches.

    Args:
        index: The index (or engine) to execute against.
        spec: Execution strategy; defaults to ``wave``.
    """

    def __init__(self, index, spec: ExecSpec | None = None) -> None:
        self.index = index
        self.engine = getattr(index, "engine", index)
        self.spec = spec or ExecSpec()
        #: :class:`~repro.engine.cost.WaveStats` of the most recent
        #: ``search_batch`` call's one wave (None when that call did not
        #: run the round loop: ``serial`` mode, a beam or SPANN index, a
        #: range batch)
        self.last_wave_stats = None

    def _plain_loop(self) -> bool:
        """``serial`` mode, or an index with no disk graph (SPANN's posting
        lists have nothing for the amortizations to share)."""
        return (
            self.spec.mode == "serial"
            or getattr(self.engine, "disk_graph", None) is None
        )

    # -- shared amortizations ----------------------------------------------

    def _tables(self, queries: np.ndarray) -> np.ndarray | None:
        pq = getattr(self.engine, "pq", None)
        if pq is None or not getattr(self.engine, "use_pq_routing", True):
            return None
        return pq.lookup_tables(queries)

    def _amortized(self):
        return amortized(
            [base_disk_graph(self.engine.disk_graph)], self.spec.gc_pause
        )

    # -- batch entry points ------------------------------------------------

    def search_batch(
        self,
        queries: np.ndarray | Sequence[np.ndarray],
        k: int = 10,
        candidate_size: int = 64,
        *,
        stoppers: Sequence | None = None,
    ) -> list:
        """Answer one ANNS query per row of ``queries``.

        Returns the per-query :class:`~repro.engine.results.SearchResult`
        list in query order, bit-identical to
        ``[index.search(q, k, candidate_size) for q in queries]`` — behind
        a block cache, up to the cache's charges (see the module
        docstring).

        ``stoppers`` optionally supplies one early-stop object per query
        (the serving layer's per-query deadline budgets); each query's
        stopper is checked every round of its own traversal, at any width.
        """
        queries = np.asarray(queries, dtype=np.float32)
        self.last_wave_stats = None
        if queries.size == 0:
            return []
        if stoppers is not None and len(stoppers) != len(queries):
            raise ValueError(
                f"{len(stoppers)} stoppers for {len(queries)} queries"
            )
        if stoppers is None:
            stoppers = [None] * len(queries)
        search = self.index.search
        if self._plain_loop():
            return [
                search(q, k, candidate_size, stopper=s) if s is not None
                else search(q, k, candidate_size)
                for q, s in zip(queries, stoppers)
            ]
        tables = self._tables(queries)
        with self._amortized():
            search_wave = getattr(self.index, "search_wave", None)
            if search_wave is None:
                # The beam baseline keeps its own driver: in order.
                return [
                    search(
                        q, k, candidate_size, stopper=s,
                        table=tables[i] if tables is not None else None,
                    )
                    for i, (q, s) in enumerate(zip(queries, stoppers))
                ]
            stats = WaveStats()
            results = search_wave(
                queries, k, candidate_size, tables=tables,
                stoppers=stoppers, wave_stats=stats,
            )
        self.last_wave_stats = stats
        return results

    def range_batch(
        self,
        queries: np.ndarray | Sequence[np.ndarray],
        radius: float,
        **kwargs,
    ) -> list:
        """Answer one range query per row of ``queries``.

        ``kwargs`` are forwarded to the index's ``range_search`` (e.g.
        ``initial_candidate_size``).  Returns per-query
        :class:`~repro.engine.results.RangeResult` objects in query order,
        bit-identical to the serial loop.  Range search restarts with
        doubled candidate sets at query-dependent times, so each query
        resumes through the round loop on its own (width 1), in order,
        under the batch's shared tables, cache and pool.
        """
        queries = np.asarray(queries, dtype=np.float32)
        self.last_wave_stats = None
        if queries.size == 0:
            return []
        range_search = self.index.range_search
        if self._plain_loop():
            return [range_search(q, radius, **kwargs) for q in queries]
        tables = self._tables(queries)
        with self._amortized():
            return [
                range_search(
                    q, radius, **kwargs,
                    table=tables[i] if tables is not None else None,
                )
                for i, q in enumerate(queries)
            ]
