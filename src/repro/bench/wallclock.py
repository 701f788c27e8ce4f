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

Two legs run on the same fixed workload: the ``serial`` per-query loop (the
reference) and the ``wave`` mode.  The wave leg additionally reports its
coalescing counters (requested/issued/saved physical block reads) from
:class:`~repro.engine.cost.WaveStats` — the physical-read saving is large
and exact.

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
    """Measured serial-vs-wave timings on the fixed workload."""

    family: str
    num_vectors: int
    num_queries: int
    k: int
    candidate_size: int
    repeats: int
    serial_s: float
    wave_s: float
    results_identical: bool
    counters_identical: bool
    wave_requested_block_reads: int
    wave_issued_block_reads: int
    wave_coalesced_block_reads: int
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
    def serial_ms_per_query(self) -> float:
        return self.serial_s / self.num_queries * 1e3

    @property
    def wave_ms_per_query(self) -> float:
        return self.wave_s / self.num_queries * 1e3

    def to_dict(self) -> dict:
        return {
            "workload": {
                "family": self.family,
                "num_vectors": self.num_vectors,
                "num_queries": self.num_queries,
                "k": self.k,
                "candidate_size": self.candidate_size,
                "repeats": self.repeats,
            },
            "serial": {
                "total_s": self.serial_s,
                "ms_per_query": self.serial_ms_per_query,
            },
            "wave": {
                "total_s": self.wave_s,
                "ms_per_query": self.wave_ms_per_query,
                "requested_block_reads": self.wave_requested_block_reads,
                "issued_block_reads": self.wave_issued_block_reads,
                "coalesced_block_reads": self.wave_coalesced_block_reads,
                "coalesced_fraction": self.wave_coalesced_fraction,
            },
            "results_identical": self.results_identical,
            "counters_identical": self.counters_identical,
            "environment": environment_metadata(),
            "per_query_counters": self.counters,
        }

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
) -> WallclockReport:
    """Time the serial loop against the wave executor.

    Each side runs ``repeats`` times and keeps its best (minimum) total —
    the standard way to suppress scheduler noise in wall-clock
    micro-benchmarks.  The serial reference is the executor's ``serial``
    mode, i.e. the plain per-query loop with no amortization.
    """
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
    wave = BatchExecutor(index, ExecSpec(mode="wave"))

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
    wave_s, wave_results = timed(wave)
    counters = query_counters(serial_results)
    # One WaveStats per search_batch call: the last timed run's coalescing
    # telemetry (identical across runs — the traversal is deterministic).
    stats = wave.last_wave_stats
    return WallclockReport(
        family=family,
        num_vectors=index.num_vectors,
        num_queries=len(queries),
        k=k,
        candidate_size=candidate_size,
        repeats=repeats,
        serial_s=serial_s,
        wave_s=wave_s,
        results_identical=_results_equal(serial_results, wave_results),
        counters_identical=counters == query_counters(wave_results),
        wave_requested_block_reads=stats.requested_block_reads,
        wave_issued_block_reads=stats.issued_block_reads,
        wave_coalesced_block_reads=stats.coalesced_block_reads,
        counters=counters,
    )
