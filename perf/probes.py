"""Per-layer probes: measure one layer through its public entry point.

Layers the harness calls directly get a span; layers called from inside
the engine are measured by replaying the call on the workload's own
inputs after the timed phase, which gives time per operation without a
line changed under ``src/``.
"""

from __future__ import annotations

import os
import time
from pathlib import Path

import numpy as np

from repro.storage.faults import base_disk_graph
from repro.storage.persist import load_starling, save_starling
from repro.storage.wal import WriteAheadLog

from .common import Sizing, supported_percentile
from .trace import Tracer

_DEVICE_READS = ("read_block", "read_blocks", "charge_batched_read")


def build_timings(timings: list) -> dict[str, float]:
    """The builder's own step clock (``index.timings``), summed over builds."""
    return {
        "graphs.disk_graph_build_s": sum(t.disk_graph_s for t in timings),
        "graphs.nav_graph_build_s": sum(t.memory_graph_s for t in timings),
        "layout.shuffle_s": sum(t.shuffle_s for t in timings),
        "quantization.pq_train_s": sum(t.pq_s for t in timings),
        "core.build_total_s": sum(t.total_s for t in timings),
    }


def stats_rows(stats) -> dict[str, float]:
    """Per-layer rows read straight off the timed queries' ``QueryStats``."""
    n = len(stats)
    return {
        "layout.vertex_utilisation": sum(s.vertices_used for s in stats)
        / sum(s.vertices_loaded for s in stats),
        "engine.exact_distances_per_query":
            sum(s.exact_distances for s in stats) / n,
        "engine.pq_distances_per_query":
            sum(s.pq_distances for s in stats) / n,
    }


def tail_rows(latency_ms, sizing: Sizing, what: str) -> dict[str, float]:
    """The ungated tail of the samples ``latency_ms_p50`` is the median of."""
    return {
        "engine.latency_ms_p95": supported_percentile(
            latency_ms, 95, sizing, what),
        "engine.latency_ms_p99": float(np.percentile(latency_ms, 99)),
    }


class WaveTotals:
    """Running sum of ``BatchExecutor.last_wave_stats`` over batch calls."""

    def __init__(self) -> None:
        self.batches = self.rounds = self.requested = self.issued = 0

    def add(self, wave_stats) -> None:
        self.batches += 1
        self.rounds += wave_stats.rounds
        self.requested += wave_stats.requested_block_reads
        self.issued += wave_stats.issued_block_reads

    def rows(self) -> dict[str, float]:
        return {
            "engine.wave_coalesced_fraction":
                1.0 - self.issued / self.requested,
            "engine.wave_rounds_per_batch": self.rounds / self.batches,
        }


def instrument_device(device, tracer: Tracer):
    """Put a span round each counted read of ``device``; returns the undo.

    The wrappers are instance attributes, so ``type(device)`` is unchanged
    and the engine's exact-type fast paths still take the same branch.
    """
    if not tracer.enabled:
        return lambda: None

    def wrap(name):
        inner = getattr(device, name)
        label = f"storage.device.{name}"

        def timed(*args, **kwargs):
            slot = tracer.begin(label)
            try:
                return inner(*args, **kwargs)
            finally:
                tracer.end(slot)
        return timed

    for name in _DEVICE_READS:
        setattr(device, name, wrap(name))

    def restore() -> None:
        for name in _DEVICE_READS:
            delattr(device, name)
    return restore


def device_time_us(tracer: Tracer) -> float:
    return sum(
        float(tracer.durations_ns(f"storage.device.{name}").sum())
        for name in _DEVICE_READS
    ) / 1e3


def query_path_rows(index, queries: np.ndarray, *, view: bool):
    """Replay probes of one segment's query path, as per-layer rows."""
    fmt = base_disk_graph(index.disk_graph).fmt
    batched, single = adc_table_us(index, queries)
    return {
        "graphs.entry_walk_us_per_query": entry_walk_us(index, queries),
        "quantization.adc_table_us_per_query_batched": batched,
        "quantization.adc_table_us_per_query_single": single,
        "storage.read_decode_us_per_block":
            read_decode_us_per_block(index, view=view),
        "vectors.l2_kernel_us_per_1k_rows":
            l2_kernel_us_per_1k_rows(index.metric, fmt.dim, fmt.dtype),
    }


def entry_walk_us(index, queries: np.ndarray) -> float:
    """Mean time of one navigation-graph walk, replayed on the queries."""
    provider = index.entry_provider
    count = index.config.num_entry_points
    queries = np.asarray(queries, dtype=np.float32)
    t0 = time.perf_counter()
    for q in queries:
        provider.entry_points(q, count)
    return (time.perf_counter() - t0) / len(queries) * 1e6


def adc_table_us(index, queries: np.ndarray) -> tuple[float, float]:
    """(batched, single) time per query of the PQ lookup-table build."""
    queries = np.asarray(queries, dtype=np.float32)
    t0 = time.perf_counter()
    for lo in range(0, len(queries), 64):
        index.pq.lookup_tables(queries[lo:lo + 64])
    batched = (time.perf_counter() - t0) / len(queries) * 1e6
    t0 = time.perf_counter()
    for q in queries:
        index.pq.lookup_table(q)
    single = (time.perf_counter() - t0) / len(queries) * 1e6
    return batched, single


def read_decode_us_per_block(index, *, view: bool, blocks: int = 256) -> float:
    """Read + decode of distinct blocks, in the decode mode the workload uses."""
    graph = base_disk_graph(index.disk_graph)
    ids = list(range(min(blocks, graph.num_blocks)))
    saved = (graph.decode_mode, graph.decode_cache)
    graph.decode_mode, graph.decode_cache = ("view" if view else "copy"), None
    try:
        t0 = time.perf_counter()
        for lo in range(0, len(ids), 8):
            graph.read_blocks(ids[lo:lo + 8])
        return (time.perf_counter() - t0) / len(ids) * 1e6
    finally:
        graph.decode_mode, graph.decode_cache = saved


def l2_kernel_us_per_1k_rows(metric, dim: int, dtype) -> float:
    """The exact-distance kernel on a 1000-row matrix of the workload's dtype."""
    gen = np.random.default_rng(0)
    base = (gen.random((1000, dim)) * 100).astype(dtype)
    kernel = metric.distances_kernel(gen.random(dim).astype(np.float32))
    kernel(base)
    t0 = time.perf_counter()
    for _ in range(200):
        kernel(base)
    return (time.perf_counter() - t0) / 200 * 1e6


def wal_probe(directory: Path, rows: np.ndarray, calls: int = 60):
    """(median commit µs, log bytes per vector byte) of raw WAL group commits."""
    path = directory / "probe-wal.log"
    wal = WriteAheadLog(path)
    times = []
    try:
        for i in range(calls):
            ids = np.arange(i * len(rows), (i + 1) * len(rows), dtype=np.int64)
            t0 = time.perf_counter()
            wal.append_insert(ids, rows)
            wal.commit()
            times.append(time.perf_counter() - t0)
    finally:
        wal.close()
    ratio = path.stat().st_size / (calls * rows.nbytes)
    path.unlink()
    return float(np.median(times)) * 1e6, ratio


def _wchar() -> int:
    with open("/proc/self/io") as fh:
        for line in fh:
            if line.startswith("wchar:"):
                return int(line.split()[1])
    return 0


def persist_probe(directory: Path, index, repeats: int = 5):
    """(save ms, load ms, bytes written per vector byte) of one small segment."""
    raw = index.num_vectors * index.disk_graph.fmt.dim * np.dtype(
        index.disk_graph.fmt.dtype).itemsize
    saves, loads, written = [], [], []
    for i in range(repeats):
        target = directory / f"probe-seg-{i}"
        before = _wchar()
        t0 = time.perf_counter()
        save_starling(index, target)
        saves.append(time.perf_counter() - t0)
        written.append(_wchar() - before)
        t0 = time.perf_counter()
        loaded = load_starling(target)
        loads.append(time.perf_counter() - t0)
        base_disk_graph(loaded.disk_graph).device.close()
    return (float(np.median(saves)) * 1e3, float(np.median(loads)) * 1e3,
            float(np.median(written)) / raw)


def tree_bytes(directory: Path) -> int:
    """Bytes of every regular file under ``directory``."""
    total = 0
    for root, _, files in os.walk(directory):
        for name in files:
            total += os.path.getsize(os.path.join(root, name))
    return total
