"""``batch_uniform``: bulk wave search on an in-memory device, no cache.

The engine's hot loop (wave rounds, frontier, decode, ADC) does almost all
the work; the cache seam, the service and the lifecycle do none.  Set-up is
the paper-default Vamana build, so ``setup_s`` here is the build time.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.engine.batch import BatchExecutor, ExecSpec
from repro.storage.faults import base_disk_graph
from repro.vectors.synthetic import deep_like

from .. import probes
from ..check import exact_knn, recall
from ..common import K, Measured, Sizing, build_index, count_rows, median

NAME = "batch_uniform"
ROWS = 1500
POOL = 1024          # distinct uniform queries; one pass answers each once
BATCH = 32
GAMMA = 16           # candidate-set size Γ
NOMINAL_QPS = 820.0  # turns --seconds into whole passes over the pool
RANGE_QUERIES = 64


@dataclass
class Inputs:
    dataset: object
    truth: np.ndarray
    passes: int
    sizing: Sizing


@dataclass
class System:
    index: object
    executor: BatchExecutor


def make_inputs(seed: int, sizing: Sizing) -> Inputs:
    dataset = deep_like(sizing.rows(ROWS), POOL if sizing.full else 128,
                        seed=seed)
    pool = dataset.queries.shape[0]
    return Inputs(
        dataset=dataset,
        truth=exact_knn(dataset.vectors, dataset.queries, K),
        passes=sizing.work(NOMINAL_QPS, pool) // pool,
        sizing=sizing,
    )


def setup(inp: Inputs, workdir) -> System:
    index = build_index(inp.dataset, "vamana")
    executor = BatchExecutor(index, ExecSpec(mode="wave"))
    executor.search_batch(inp.dataset.queries[:BATCH], K, GAMMA)
    return System(index, executor)


def teardown(system: System) -> None:
    base_disk_graph(system.index.disk_graph).device.close()


def measure(system: System, inp: Inputs, tracer) -> Measured:
    out = Measured()
    queries = inp.dataset.queries
    device = base_disk_graph(system.index.disk_graph).device
    restore = probes.instrument_device(device, tracer)
    io_before = device.counters.snapshot()
    batch_ms: list[float] = []
    pass_qps: list[float] = []
    first_pass: list = []
    waves = probes.WaveTotals()
    try:
        for p in range(inp.passes):
            in_calls = 0.0
            for lo in range(0, len(queries), BATCH):
                slot = tracer.begin("engine.search_batch", lo)
                t0 = time.perf_counter()
                results = system.executor.search_batch(
                    queries[lo:lo + BATCH], K, GAMMA)
                dt = time.perf_counter() - t0
                tracer.end(slot)
                in_calls += dt
                batch_ms.append(dt * 1e3)
                if p == 0:
                    first_pass.extend(results)
                    waves.add(system.executor.last_wave_stats)
                for r in results:
                    out.tally.check_result(r.ids, K, NAME)
            pass_qps.append(len(queries) / in_calls)
            out.timed_s += in_calls
    finally:
        restore()
    io = device.counters.since(io_before)

    stats = [r.stats for r in first_pass]
    n = len(first_pass)
    out.rows = {
        "qps": median(pass_qps),
        # A query's latency is the time its batch took: the caller of a
        # bulk search waits for the whole batch.
        "latency_ms_p50": median(batch_ms),
        "recall_at_10": float(np.mean([
            recall(r.ids, inp.truth[i]) for i, r in enumerate(first_pass)])),
        "disk_bytes_per_vector_byte":
            system.index.disk_bytes / inp.dataset.vectors.nbytes,
        **count_rows(stats),
    }
    out.extra = {
        "stats": stats, "waves": waves, "batch_ms": batch_ms,
        "device_blocks": io.blocks_read / (inp.passes * n),
        "device_round_trips": io.round_trips / (inp.passes * n),
        "queries_timed": inp.passes * n,
    }
    return out


def layers(system: System, inp: Inputs, out: Measured, tracer, workdir):
    index = system.index
    stats, waves = out.extra["stats"], out.extra["waves"]
    timed = out.extra["queries_timed"]

    t0 = time.perf_counter()
    ranged = system.executor.range_batch(
        inp.dataset.queries[:RANGE_QUERIES], inp.dataset.default_radius)
    range_s = time.perf_counter() - t0

    rows = probes.query_path_rows(index, inp.dataset.queries[:256], view=True)
    search_us = float(tracer.durations_ns("engine.search_batch").sum()) / 1e3
    rows.update({
        **probes.build_timings([index.timings]),
        **probes.stats_rows(stats),
        **probes.tail_rows(out.extra["batch_ms"], inp.sizing, NAME),
        **waves.rows(),
        "layout.overlap_ratio": index.layout_or,
        "storage.device_read_us_per_block": probes.device_time_us(tracer)
        / max(out.extra["device_blocks"] * timed, 1),
        "storage.device_blocks_per_query": out.extra["device_blocks"],
        "storage.device_round_trips_per_query":
            out.extra["device_round_trips"],
        # What is left of a search call once the replayed layers are taken
        # out; the decode share uses the reads the wave really issued.
        "engine.self_us_per_query": search_us / timed
        - rows["graphs.entry_walk_us_per_query"]
        - rows["quantization.adc_table_us_per_query_batched"]
        - rows["storage.read_decode_us_per_block"]
        * waves.issued / len(stats),
        "engine.range_ms_per_query": range_s / len(ranged) * 1e3,
        "engine.range_blocks_per_query":
            sum(r.stats.num_ios for r in ranged) / len(ranged),
    })
    return rows
