"""``single_skewed_cached``: one query at a time, skewed, through an LRU cache.

The single-query path (per-query ADC table, un-batched entry walk, copying
decode), the cache seam and real ``seek`` + ``read`` calls on a file-backed
device carry the load; waves and batching are bypassed, so a wave
optimisation must predict "no change" here.  The query pool's working set
is several times the cache, so most reads miss.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.storage.faults import base_disk_graph
from repro.vectors.synthetic import bigann_like

from .. import probes
from ..check import exact_knn, recall
from ..common import (
    K, Measured, Sizing, build_index, count_rows, median, rng,
)

NAME = "single_skewed_cached"
ROWS = 3000
POOL = 1024
GAMMA = 24
CACHE_FRACTION = 0.15   # of the index's blocks
WARMUP = 300            # searches per set-up, so the cache starts full
NOMINAL_QPS = 360.0


@dataclass
class Inputs:
    dataset: object
    truth: np.ndarray
    draws: np.ndarray   # pool positions, WARMUP of them then the timed ones
    sizing: Sizing


@dataclass
class System:
    index: object


def make_inputs(seed: int, sizing: Sizing) -> Inputs:
    dataset = bigann_like(sizing.rows(ROWS), POOL if sizing.full else 128,
                          seed=seed)
    pool = dataset.queries.shape[0]
    gen = rng(seed, "zipf")
    # Zipf(s=1) over a shuffled pool: popularity is independent of where a
    # query sits in the data.
    weights = 1.0 / np.arange(1, pool + 1)
    ranked = gen.permutation(pool)
    count = (WARMUP if sizing.full else 20) + sizing.work(NOMINAL_QPS)
    draws = ranked[gen.choice(pool, size=count, p=weights / weights.sum())]
    return Inputs(dataset, exact_knn(dataset.vectors, dataset.queries, K),
                  draws, sizing)


def _warmup(inp: Inputs) -> int:
    return WARMUP if inp.sizing.full else 20


def setup(inp: Inputs, workdir) -> System:
    workdir.mkdir(parents=True)
    index = build_index(inp.dataset, "nsg", path=workdir / "graph.bin")
    index.apply_cache_strategy(
        "lru", max(int(CACHE_FRACTION * index.disk_graph.num_blocks), 1))
    for pos in inp.draws[:_warmup(inp)]:
        index.search(inp.dataset.queries[pos], K, GAMMA)
    return System(index)


def teardown(system: System) -> None:
    base_disk_graph(system.index.disk_graph).device.close()


def measure(system: System, inp: Inputs, tracer) -> Measured:
    out = Measured()
    index, queries = system.index, inp.dataset.queries
    timed = inp.draws[_warmup(inp):]
    device = base_disk_graph(index.disk_graph).device
    restore = probes.instrument_device(device, tracer)
    io_before = device.counters.snapshot()
    latency_ms = np.empty(len(timed))
    results = []
    try:
        for i, pos in enumerate(timed):
            slot = tracer.begin("engine.search", i)
            t0 = time.perf_counter()
            result = index.search(queries[pos], K, GAMMA)
            latency_ms[i] = (time.perf_counter() - t0) * 1e3
            tracer.end(slot)
            results.append(result)
    finally:
        restore()
    io = device.counters.since(io_before)
    out.timed_s = float(latency_ms.sum()) / 1e3

    for r in results:
        out.tally.check_result(r.ids, K, NAME)
    stats = [r.stats for r in results]
    n = len(results)
    # The per-query I/O ledger must be what the device saw.
    charged = (sum(s.num_ios for s in stats),
               sum(s.round_trips for s in stats))
    if charged != (io.blocks_read, io.round_trips):
        out.tally.fail(
            f"{NAME}: queries charged {charged} (blocks, round trips) but "
            f"the device counted {(io.blocks_read, io.round_trips)}")
    # Throughput in ten equal slices, so one stall moves one slice.
    slices = np.array_split(latency_ms, 10) if n >= 100 else [latency_ms]
    out.rows = {
        "qps": median([len(s) / (s.sum() / 1e3) for s in slices]),
        "latency_ms_p50": float(np.median(latency_ms)),
        "recall_at_10": float(np.mean([
            recall(r.ids, inp.truth[pos]) for r, pos in zip(results, timed)])),
        "disk_bytes_per_vector_byte":
            index.disk_bytes / inp.dataset.vectors.nbytes,
        **count_rows(stats),
    }
    out.extra = {"stats": stats, "latency_ms": latency_ms, "io": io}
    return out


def layers(system: System, inp: Inputs, out: Measured, tracer, workdir):
    index = system.index
    stats, io = out.extra["stats"], out.extra["io"]
    n = len(stats)
    hits = sum(s.block_cache_hits for s in stats)

    rows = probes.query_path_rows(index, inp.dataset.queries[:256],
                                  view=False)
    search_us = float(tracer.durations_ns("engine.search").sum()) / 1e3
    rows.update({
        **probes.build_timings([index.timings]),
        **probes.stats_rows(stats),
        **probes.tail_rows(out.extra["latency_ms"], inp.sizing, NAME),
        "layout.overlap_ratio": index.layout_or,
        "storage.device_read_us_per_block":
            probes.device_time_us(tracer) / io.blocks_read,
        "storage.device_blocks_per_query": io.blocks_read / n,
        "storage.device_round_trips_per_query": io.round_trips / n,
        # What is left of a search once the replayed layers are taken out;
        # only misses are read and decoded.
        "engine.self_us_per_query": search_us / n
        - rows["graphs.entry_walk_us_per_query"]
        - rows["quantization.adc_table_us_per_query_single"]
        - rows["storage.read_decode_us_per_block"] * io.blocks_read / n,
        "engine.cache_hit_rate": hits / (hits + io.blocks_read),
    })
    return rows
