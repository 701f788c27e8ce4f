"""Wall-clock benchmark of the batched executor (the one *measured* timer).

Every other number the bench layer reports is **simulated**: latencies are
derived from exact I/O and compute counters through
:class:`~repro.storage.device.DiskSpec` /
:class:`~repro.engine.cost.ComputeSpec`, so they are deterministic and
machine-independent.  This module is the deliberate exception — it times the
Python process itself to show that the
:class:`~repro.engine.batch.BatchExecutor` amortizations (shared ADC
tables, shared decode cache, lockstep wave coalescing) cut real execution
time while leaving every simulated counter untouched.

Three legs run on the same fixed workload: the ``serial`` per-query loop
(the reference), the in-order ``batched`` mode, and the lockstep ``wave``
mode.  The wave leg additionally reports its coalescing counters
(requested/issued/saved physical block reads) from
:class:`~repro.engine.wave_search.WaveStats` — the wall-clock gain of
coalescing is modest on a machine where the decode cache already makes
repeat reads cheap, but the physical-read saving is large and exact.

The workload is fixed so runs are comparable: the 256-dimensional ``ssnpp``
synthetic family (the widest vectors of the four, hence the largest
per-block decode cost — the cost the batch amortizes), sized by the usual
``REPRO_BENCH_N`` / ``REPRO_BENCH_QUERIES`` environment knobs.

Run via ``benchmarks/test_wallclock.py`` or the CLI's ``bench-wallclock``
command; both emit ``BENCH_wallclock.json``.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field

import numpy as np

from ..engine.batch import BatchExecutor, ExecSpec
from .envinfo import environment_metadata

#: default query count — high enough that most blocks are touched by
#: several queries, which is what the shared decode cache amortizes
DEFAULT_NUM_QUERIES = 120

#: default workload family (see module docstring)
DEFAULT_FAMILY = "ssnpp"

#: default candidate-set size Γ — a deep, high-recall search: the longer the
#: traversal, the more block decodes there are to amortize relative to the
#: fixed per-query seeding cost, which is the regime batching targets
DEFAULT_CANDIDATE_SIZE = 96

#: comparison legs timed against the serial reference (in run order)
BENCH_MODES = ("batched", "wave")


def query_counters(results) -> list[dict[str, int]]:
    """The per-query I/O counters that must survive batching unchanged."""
    return [
        {
            "block_reads": int(r.stats.num_ios),
            "round_trips": int(r.stats.round_trips),
            "vertices_used": int(r.stats.vertices_used),
        }
        for r in results
    ]


@dataclass
class WallclockReport:
    """Measured serial-vs-batched-vs-wave timings on the fixed workload.

    Per-leg fields are ``None`` when that leg was skipped (the CLI's
    ``--exec-mode`` restricts the comparison legs); the aggregate
    :attr:`results_identical` / :attr:`counters_identical` properties AND
    over the legs that ran.
    """

    family: str
    num_vectors: int
    num_queries: int
    k: int
    candidate_size: int
    repeats: int
    serial_s: float
    batched_s: float | None = None
    wave_s: float | None = None
    batched_results_identical: bool | None = None
    batched_counters_identical: bool | None = None
    wave_results_identical: bool | None = None
    wave_counters_identical: bool | None = None
    wave_requested_block_reads: int | None = None
    wave_issued_block_reads: int | None = None
    wave_coalesced_block_reads: int | None = None
    counters: list[dict[str, int]] = field(default_factory=list)

    @property
    def wave_coalesced_fraction(self) -> float:
        """Fraction of the wave's requested physical reads saved by
        cross-query coalescing — sizing-independent (≈ how often a round's
        block is wanted by more than one query), hence guardable."""
        if not self.wave_requested_block_reads:
            return 0.0
        return (
            self.wave_coalesced_block_reads / self.wave_requested_block_reads
        )

    @property
    def results_identical(self) -> bool:
        legs = [
            flag
            for flag in (
                self.batched_results_identical, self.wave_results_identical
            )
            if flag is not None
        ]
        return bool(legs) and all(legs)

    @property
    def counters_identical(self) -> bool:
        legs = [
            flag
            for flag in (
                self.batched_counters_identical, self.wave_counters_identical
            )
            if flag is not None
        ]
        return bool(legs) and all(legs)

    def _ms_per_query(self, total_s: float | None) -> float:
        return (total_s or 0.0) / self.num_queries * 1e3

    def _leg(self, total_s: float) -> dict:
        """Absolute numbers for one leg: total seconds and ms/query."""
        return {
            "total_s": total_s,
            "ms_per_query": self._ms_per_query(total_s),
        }

    @property
    def serial_ms_per_query(self) -> float:
        return self._ms_per_query(self.serial_s)

    @property
    def batched_ms_per_query(self) -> float:
        return self._ms_per_query(self.batched_s)

    @property
    def wave_ms_per_query(self) -> float:
        return self._ms_per_query(self.wave_s)

    def to_dict(self) -> dict:
        out: dict = {
            "workload": {
                "family": self.family,
                "num_vectors": self.num_vectors,
                "num_queries": self.num_queries,
                "k": self.k,
                "candidate_size": self.candidate_size,
                "repeats": self.repeats,
            },
            "serial": self._leg(self.serial_s),
        }
        if self.batched_s is not None:
            out["batched"] = {
                **self._leg(self.batched_s),
                "results_identical": self.batched_results_identical,
                "counters_identical": self.batched_counters_identical,
            }
        if self.wave_s is not None:
            out["wave"] = {
                **self._leg(self.wave_s),
                "results_identical": self.wave_results_identical,
                "counters_identical": self.wave_counters_identical,
                "requested_block_reads": self.wave_requested_block_reads,
                "issued_block_reads": self.wave_issued_block_reads,
                "coalesced_block_reads": self.wave_coalesced_block_reads,
                "coalesced_fraction": self.wave_coalesced_fraction,
            }
        out["results_identical"] = self.results_identical
        out["counters_identical"] = self.counters_identical
        out["environment"] = environment_metadata()
        out["per_query_counters"] = self.counters
        return out

    def write_json(self, path: str) -> str:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2)
            fh.write("\n")
        return path


def _results_equal(a, b) -> bool:
    return all(
        np.array_equal(x.ids, y.ids)
        and np.array_equal(x.dists, y.dists)
        and x.stats.__dict__ == y.stats.__dict__
        for x, y in zip(a, b)
    )


def run_wallclock(
    family: str = DEFAULT_FAMILY,
    *,
    num_queries: int | None = None,
    k: int = 10,
    candidate_size: int = DEFAULT_CANDIDATE_SIZE,
    repeats: int = 3,
    modes: tuple[str, ...] = BENCH_MODES,
) -> WallclockReport:
    """Time the serial loop against the batched and wave executors.

    Each side runs ``repeats`` times and keeps its best (minimum) total —
    the standard way to suppress scheduler noise in wall-clock
    micro-benchmarks.  The serial reference is the executor's ``serial``
    mode, i.e. the plain per-query loop with no amortization; ``modes``
    selects the comparison legs (a subset of :data:`BENCH_MODES`).
    """
    unknown = set(modes) - set(BENCH_MODES)
    if unknown:
        raise ValueError(
            f"unknown wallclock modes {sorted(unknown)}; "
            f"expected a subset of {BENCH_MODES}"
        )
    # Imported lazily so the memoized builders are shared with the other
    # benches without making them an import-time dependency of the package.
    from .workloads import dataset, starling_index

    if num_queries is None:
        num_queries = int(
            os.environ.get("REPRO_BENCH_QUERIES", str(DEFAULT_NUM_QUERIES))
        )
    ds = dataset(family, None, num_queries)
    index = starling_index(family)
    queries = np.asarray(ds.queries, dtype=np.float32)[:num_queries]

    serial = BatchExecutor(index, ExecSpec(mode="serial"))

    # Warm-up: JIT-free Python still pays first-touch costs (imports, lazy
    # caches, branch warm-up) that belong to neither side.
    serial.search_batch(queries[:2], k, candidate_size)

    def timed(executor):
        best_s = float("inf")
        out = None
        for _ in range(repeats):
            t0 = time.perf_counter()
            out = executor.search_batch(queries, k, candidate_size)
            best_s = min(best_s, time.perf_counter() - t0)
        return best_s, out

    serial_s, serial_results = timed(serial)
    counters_serial = query_counters(serial_results)
    report = WallclockReport(
        family=family,
        num_vectors=index.num_vectors,
        num_queries=len(queries),
        k=k,
        candidate_size=candidate_size,
        repeats=repeats,
        serial_s=serial_s,
        counters=counters_serial,
    )

    if "batched" in modes:
        batched = BatchExecutor(index, ExecSpec(mode="batched"))
        report.batched_s, results = timed(batched)
        report.batched_results_identical = _results_equal(
            serial_results, results
        )
        report.batched_counters_identical = (
            counters_serial == query_counters(results)
        )
    if "wave" in modes:
        wave = BatchExecutor(index, ExecSpec(mode="wave"))
        report.wave_s, results = timed(wave)
        report.wave_results_identical = _results_equal(
            serial_results, results
        )
        report.wave_counters_identical = (
            counters_serial == query_counters(results)
        )
        # One WaveStats per search_batch call: the last timed run's
        # coalescing telemetry (identical across runs — the traversal is
        # deterministic).  None when the executor gated back to batched.
        stats = wave.last_wave_stats
        report.wave_requested_block_reads = (
            stats.requested_block_reads if stats is not None else 0
        )
        report.wave_issued_block_reads = (
            stats.issued_block_reads if stats is not None else 0
        )
        report.wave_coalesced_block_reads = (
            stats.coalesced_block_reads if stats is not None else 0
        )
    return report
