"""Batched query execution with amortized wall-clock cost.

The engines' *simulated* metrics — block reads, round trips, vertex
utilization, and the latency derived from them — are functions of each
query's traversal alone, so they are independent of how a batch of queries
is scheduled onto the machine.  :class:`BatchExecutor` exploits that gap: it
runs a query batch through any engine while amortizing the *real* (wall
clock) cost across the batch, guaranteed to return results bit-identical to
the plain per-query loop — same ids, same distances, same
:class:`~repro.engine.cost.QueryStats` counters.

Four amortizations, each individually counter-neutral:

- **Shared ADC tables** — one batched
  :meth:`~repro.quantization.pq.ProductQuantizer.lookup_tables` build for
  the whole batch instead of one :meth:`lookup_table` per query.  The
  single-query path routes through the same batched kernel, so row ``i`` of
  the shared build is bit-identical to the table query ``i`` would have
  built itself.
- **Shared decode cache** — a dict of decoded blocks installed on the
  physical :class:`~repro.storage.disk_graph.DiskGraph` for the duration of
  the batch.  Every device read is still issued and counted (the cache sits
  *behind* the I/O accounting, skipping only the Python-side payload
  decode), so per-query I/O counters are untouched while the dominant
  decode cost is paid once per block instead of once per (query, block).
- **Arena pool** — for the duration of the batch the engine's round
  kernels gather their input through a reused
  :class:`~repro.engine.arena.ArenaPool` instead of allocating per-round
  matrices.  The gathered layout equals the allocated one, so results and
  counters are bit-identical.
- **Fan-out** — optional thread or process pools
  (:class:`concurrent.futures`) for genuinely parallel machines.  Thread
  mode serializes the entry-point walk (the navigation graph keeps per-walk
  trace state) and relies on the device's internal lock for exact counter
  totals; process mode forks workers that each search a contiguous shard.
  Without ``fork`` (or with ``start_method="spawn"`` requested), workers
  map the disk image, PQ tables, and query matrix through
  ``multiprocessing.shared_memory`` (:mod:`repro.engine.shm`) instead of
  receiving pickled copies; indexes with no export path fall back to
  threads.

Fault injection is order-sensitive — :class:`~repro.storage.faults.
FaultInjector` draws from one sequential RNG, so the fault schedule depends
on the global read order.  When faults are armed the executor therefore
degrades fan-out modes to the in-order ``batched`` mode, keeping the read
sequence (and hence every injected fault and every
:class:`~repro.engine.cost.FaultStats` counter) identical to the serial
loop.  The same gate applies to the LRU
:class:`~repro.engine.block_cache.CachedDiskGraph` wrapper, whose hit
accounting is order-dependent and not thread-safe.
"""

from __future__ import annotations

import gc
import multiprocessing
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..storage.faults import FaultInjector, base_disk_graph

#: execution strategies understood by :class:`ExecSpec`
EXEC_MODES = ("serial", "batched", "wave", "threads", "processes")


@dataclass(frozen=True)
class ExecSpec:
    """How a query batch is executed.

    Attributes:
        mode: ``serial`` is the reference per-query loop with no
            amortization at all; ``batched`` (the default) keeps the serial
            order but shares the ADC table build and the decode cache;
            ``wave`` advances the whole batch in lockstep rounds through
            :class:`~repro.engine.wave_search.WaveSearchEngine` (coalesced
            block reads + one fused kernel per round, per-query results
            and counters still bit-identical); ``threads`` / ``processes``
            fan out over a ``concurrent.futures`` pool.
        workers: Pool size for the fan-out modes.
        share_tables: Build all queries' ADC tables in one batched kernel
            call up front.
        decode_cache: Install a shared decoded-block cache on the physical
            disk graph for the duration of the batch.
        gc_pause: Pause the cyclic garbage collector for the span of the
            batch (restored — and left to collect — afterwards).  The
            arena pool already removes the bulk of per-round
            allocations; pausing the collector stops the remaining
            transient churn from triggering generation scans mid-batch.
            Purely a scheduling choice: it cannot affect results.
        start_method: Multiprocessing start method for ``processes`` mode;
            ``None`` prefers ``fork`` when available.  Non-fork methods use
            the shared-memory export instead of pickled state.
    """

    mode: str = "batched"
    workers: int = 4
    share_tables: bool = True
    decode_cache: bool = True
    gc_pause: bool = True
    start_method: str | None = None

    def __post_init__(self) -> None:
        if self.mode not in EXEC_MODES:
            raise ValueError(
                f"mode must be one of {EXEC_MODES}, got {self.mode!r}"
            )
        if self.workers <= 0:
            raise ValueError("workers must be positive")
        if self.start_method not in (None, "fork", "spawn", "forkserver"):
            raise ValueError(
                f"unknown start_method {self.start_method!r}"
            )


# Fork-inherited state for process mode: the index (with its open device)
# cannot be pickled, so workers receive it by forking after this global is
# set.  Only index positions travel through the task queue.
_FORK_STATE: tuple | None = None


def _forked_search(args: tuple[int, int, int]) -> object:
    index, queries, tables = _FORK_STATE
    i, k, candidate_size = args
    table = tables[i] if tables is not None else None
    return index.search(queries[i], k, candidate_size, table=table)


def _forked_range(args: tuple[int, float, dict]) -> object:
    index, queries, tables = _FORK_STATE
    i, radius, kwargs = args
    table = tables[i] if tables is not None else None
    return index.range_search(queries[i], radius, table=table, **kwargs)


def _shm_worker_init(image) -> None:
    """Spawn-pool initializer: rebuild the index over shared mappings.

    Reuses the ``_FORK_STATE`` slot so the same task functions serve both
    process backends.
    """
    global _FORK_STATE
    from .shm import build_worker_state

    _FORK_STATE = build_worker_state(image)


class BatchExecutor:
    """Run query batches through a segment index with amortized cost.

    Accepts a segment index (:class:`~repro.core.segment.StarlingIndex`,
    :class:`~repro.core.segment.DiskANNIndex`) or any object with the same
    ``search``/``range_search`` surface and an ``engine`` attribute; a bare
    engine works for ANNS batches.

    Args:
        index: The index (or engine) to execute against.
        spec: Execution strategy; defaults to in-order ``batched``.
    """

    def __init__(self, index, spec: ExecSpec | None = None) -> None:
        self.index = index
        self.engine = getattr(index, "engine", index)
        self.spec = spec or ExecSpec()
        #: :class:`~repro.engine.wave_search.WaveStats` of the most recent
        #: ``wave``-mode batch (None when the last batch ran another mode)
        self.last_wave_stats = None

    # -- mode resolution ---------------------------------------------------

    def _faults_armed(self) -> bool:
        device = getattr(
            base_disk_graph(self.engine.disk_graph), "device", None
        )
        return isinstance(device, FaultInjector) and device.fault_spec.enabled

    def _process_start_method(self) -> str:
        if self.spec.start_method is not None:
            return self.spec.start_method
        methods = multiprocessing.get_all_start_methods()
        return "fork" if "fork" in methods else "spawn"

    def effective_mode(self) -> str:
        """The mode actually used, after the determinism gates.

        Fan-out reorders device reads, which would shift the fault
        injector's sequential RNG draws and an LRU block cache's hit
        pattern; both gates fall back to the in-order ``batched`` mode so
        results and counters stay bit-identical to the serial loop.
        ``processes`` without ``fork`` needs the shared-memory export; an
        index with no export path falls back to threads.
        """
        mode = self.spec.mode
        if getattr(self.engine, "disk_graph", None) is None:
            # Non-disk-graph indexes (SPANN's posting lists) have nothing
            # for the amortizations to share; run the plain loop.
            return "serial"
        if mode == "wave":
            from .wave_search import wave_capable

            # Coalescing merges the wave's reads into one union fetch, so
            # anything whose behaviour depends on the global read order or
            # count — an armed fault injector, the LRU wrapper, a
            # resilience layer, full-precision routing reads, or a non-
            # block engine — degrades to the in-order ``batched`` mode.
            if not wave_capable(self.engine) or self._faults_armed():
                return "batched"
        if mode in ("threads", "processes"):
            if self._faults_armed():
                return "batched"
            if hasattr(self.engine.disk_graph, "inner"):
                return "batched"
        if mode == "processes":
            method = self._process_start_method()
            if method not in multiprocessing.get_all_start_methods():
                return "threads"
            if method != "fork":
                from .shm import exportable

                if not exportable(self.engine):
                    return "threads"
        return mode

    # -- shared amortizations ----------------------------------------------

    def _tables(self, queries: np.ndarray) -> np.ndarray | None:
        if not self.spec.share_tables:
            return None
        pq = getattr(self.engine, "pq", None)
        if pq is None or not getattr(self.engine, "use_pq_routing", True):
            return None
        return pq.lookup_tables(queries)

    def _bind_stopper_costs(self, stoppers) -> None:
        """Attach the index's cost model to every cost-aware stopper.

        Mirrors what each ``index.search`` call does on the per-query
        paths; a bare engine has no cost model, and then neither path
        binds one.
        """
        index = self.index
        if not hasattr(index, "disk_spec"):
            return
        for stopper in stoppers:
            if stopper is not None and hasattr(stopper, "bind_costs"):
                stopper.bind_costs(
                    index.disk_spec, index.compute_spec, index.dim,
                    index.pq.num_subspaces,
                )

    @contextmanager
    def _shared_decode_cache(self, enabled: bool):
        graph = base_disk_graph(self.engine.disk_graph)
        if not enabled or not hasattr(graph, "decode_cache"):
            yield
            return
        if graph.decode_cache is not None:
            # A long-lived cache is already installed (the serving layer's
            # persistent plane).  Leave it: concurrent batches must share
            # one cache, not tear down each other's installs.
            yield
            return
        previous = graph.decode_cache
        graph.decode_cache = {}
        try:
            yield
        finally:
            graph.decode_cache = previous

    @contextmanager
    def _arena_pool(self):
        """Install an arena pool on the engine for the batch.

        The pool is an executor amortization like the shared decode cache:
        the ``serial`` reference loop never sees it, and it is removed when
        the batch ends.
        """
        if (
            not hasattr(self.engine, "arena_pool")
            or self.engine.arena_pool is not None
        ):
            # No arena seam, or a long-lived owner (the serving layer)
            # already installed a pool; reuse it rather than swapping pools
            # out from under concurrent batches.
            yield
            return
        from .arena import ArenaPool

        self.engine.arena_pool = ArenaPool()
        try:
            yield
        finally:
            self.engine.arena_pool = None

    @contextmanager
    def _gc_pause(self, enabled: bool):
        """Hold off the cyclic collector while a batch runs.

        Per-round garbage is flat (arena reuse, preallocated search state),
        so mid-batch generation scans only add latency.  The collector is
        re-enabled on exit if it was enabled before; anything deferred is
        collected on its next pass.
        """
        if not enabled or not gc.isenabled():
            yield
            return
        gc.disable()
        try:
            yield
        finally:
            gc.enable()

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
        ``[index.search(q, k, candidate_size) for q in queries]``.

        ``stoppers`` optionally supplies one early-stop object per query
        (the serving layer's per-query deadline budgets).  Stoppers carry
        per-search state that must observe the queries in submission order,
        so fan-out modes degrade to the in-order ``batched`` mode when they
        are given; the ``wave`` mode keeps them — each query's stopper is
        checked every lockstep round, exactly the serial cadence.
        """
        queries = np.asarray(queries, dtype=np.float32)
        self.last_wave_stats = None
        if queries.size == 0:
            return []
        if stoppers is not None and len(stoppers) != len(queries):
            raise ValueError(
                f"{len(stoppers)} stoppers for {len(queries)} queries"
            )
        mode = self.effective_mode()
        if stoppers is not None and mode in ("threads", "processes"):
            mode = "batched"
        if mode == "serial":
            if stoppers is None:
                return [
                    self.index.search(q, k, candidate_size) for q in queries
                ]
            return [
                self.index.search(q, k, candidate_size, stopper=s)
                for q, s in zip(queries, stoppers)
            ]
        tables = self._tables(queries)
        if mode == "wave":
            from .wave_search import WaveSearchEngine

            # The wave path drives the engine directly, so it replicates
            # the cost-model binding the index's ``search`` would perform
            # for each stopper before any search starts.
            if stoppers is not None:
                self._bind_stopper_costs(stoppers)
            wave = WaveSearchEngine(self.engine)
            with self._shared_decode_cache(self.spec.decode_cache), \
                    self._arena_pool(), \
                    self._gc_pause(self.spec.gc_pause):
                results = wave.search_wave(
                    queries, k, candidate_size,
                    tables=tables, stoppers=stoppers,
                )
            self.last_wave_stats = wave.stats
            return results

        def one(i: int):
            table = tables[i] if tables is not None else None
            if stoppers is None:
                return self.index.search(
                    queries[i], k, candidate_size, table=table
                )
            return self.index.search(
                queries[i], k, candidate_size, table=table,
                stopper=stoppers[i],
            )

        if mode == "processes":
            return self._run_processes(
                _forked_search,
                [(i, k, candidate_size) for i in range(len(queries))],
                queries, tables,
            )
        with self._shared_decode_cache(self.spec.decode_cache), \
                self._arena_pool(), \
                self._gc_pause(self.spec.gc_pause):
            if mode == "batched":
                return [one(i) for i in range(len(queries))]
            return self._run_threads(one, len(queries))

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
        bit-identical to the serial loop.
        """
        queries = np.asarray(queries, dtype=np.float32)
        self.last_wave_stats = None
        if queries.size == 0:
            return []
        mode = self.effective_mode()
        if mode == "wave":
            # Range search restarts with doubled candidate sets at
            # query-dependent times, which has no lockstep analogue yet;
            # run the in-order batched amortizations instead.
            mode = "batched"
        if mode == "serial":
            return [
                self.index.range_search(q, radius, **kwargs) for q in queries
            ]
        tables = self._tables(queries)

        def one(i: int):
            table = tables[i] if tables is not None else None
            return self.index.range_search(
                queries[i], radius, table=table, **kwargs
            )

        if mode == "processes":
            return self._run_processes(
                _forked_range,
                [(i, radius, kwargs) for i in range(len(queries))],
                queries, tables,
            )
        with self._shared_decode_cache(self.spec.decode_cache), \
                self._arena_pool(), \
                self._gc_pause(self.spec.gc_pause):
            if mode == "batched":
                return [one(i) for i in range(len(queries))]
            return self._run_threads(one, len(queries))

    # -- fan-out backends --------------------------------------------------

    def _run_threads(self, one, count: int) -> list:
        with ThreadPoolExecutor(max_workers=self.spec.workers) as pool:
            return list(pool.map(one, range(count)))

    def _run_processes(self, worker, tasks: list, queries, tables) -> list:
        """Run a process pool over index positions.

        ``fork`` workers inherit the index (and the installed arena pool)
        by address-space copy; other start methods map the heavy
        payloads through the shared-memory export and rebuild the index per
        worker.  Workers accumulate device counters and decode caches in
        their own address spaces; the per-query stats inside each returned
        result are complete and identical, but the parent device's
        *running totals* do not advance — process mode trades global
        counter visibility for parallelism.
        """
        method = self._process_start_method()
        if method != "fork":
            return self._run_processes_shm(worker, tasks, queries, tables)
        global _FORK_STATE
        _FORK_STATE = (self.index, queries, tables)
        try:
            context = multiprocessing.get_context("fork")
            with self._arena_pool():
                with ProcessPoolExecutor(
                    max_workers=self.spec.workers, mp_context=context
                ) as pool:
                    return list(pool.map(worker, tasks))
        finally:
            _FORK_STATE = None

    def _run_processes_shm(self, worker, tasks: list, queries, tables) -> list:
        """Spawn-safe process pool: payloads travel via shared memory.

        The parent owns every segment and unlinks them in ``finally`` —
        including when a worker crashes mid-batch — so no ``/dev/shm``
        entries outlive the call.
        """
        from .shm import export_index

        image, export = export_index(
            self.index, self.engine, queries, tables
        )
        try:
            context = multiprocessing.get_context(
                self._process_start_method()
            )
            with ProcessPoolExecutor(
                max_workers=self.spec.workers,
                mp_context=context,
                initializer=_shm_worker_init,
                initargs=(image,),
            ) as pool:
                return list(pool.map(worker, tasks))
        finally:
            export.close()
