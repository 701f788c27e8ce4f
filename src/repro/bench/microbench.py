"""Kernel-level microbenchmarks: decode, ADC, and frontier push.

The macro benches (``wallclock``, ``buildclock``) time whole query loops,
which makes regressions hard to localize.  This harness times the three
kernels the zero-copy data plane is built from, each in isolation on a
fixed synthetic workload:

- **decode** — the zero-copy ``split_block_views`` every search decodes
  through, and the arena-backed ``decode_block_into`` (one strided copy per
  field into preallocated memory), including the steady-state allocation
  telemetry: after warm-up, the arena path must perform **zero** per-block
  allocations, which the :attr:`~repro.engine.arena.Arena.grow_events` /
  :attr:`~repro.engine.arena.Arena.bytes_allocated` counters prove.
- **adc** — the shared lookup-table build plus table-driven PQ distance
  evaluation (the routing kernel of every search round).
- **frontier** — bulk candidate-set maintenance (``push_many`` /
  ``push_visited_many``) on the flat array-backed :class:`CandidateSet`.

Timings are best-of-``repeats`` wall-clock per-operation costs; the report
carries the same environment metadata as the macro benches so numbers are
comparable across PRs.  Run via ``benchmarks/test_microbench.py`` (CI
uploads ``BENCH_micro.json`` as an artifact) or directly::

    PYTHONPATH=src python -m repro.bench.microbench
"""

from __future__ import annotations

import json
import time

import numpy as np

from ..engine.arena import Arena
from ..engine.frontier import CandidateSet
from ..quantization.pq import ProductQuantizer
from ..storage.codec import VertexFormat
from .envinfo import environment_metadata

#: fixed kernel workload — ssnpp-like geometry (the wallclock family)
DIM = 256
MAX_DEGREE = 24
BLOCK_BYTES = 4096
NUM_BLOCKS = 64
NUM_VECTORS = 2048
REPEATS = 5


def _best_of(repeats: int, fn) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _decode_workload(rng: np.random.Generator):
    fmt = VertexFormat(
        dim=DIM, dtype=np.uint8, max_degree=MAX_DEGREE,
        block_bytes=BLOCK_BYTES,
    )
    eps = fmt.vertices_per_block
    payloads = []
    for _ in range(NUM_BLOCKS):
        vectors = rng.integers(0, 256, size=(eps, DIM), dtype=np.uint8)
        nbrs = [
            rng.integers(0, 2**20, size=rng.integers(1, MAX_DEGREE + 1))
            .astype(np.uint32)
            for _ in range(eps)
        ]
        payloads.append(fmt.encode_block(vectors, nbrs))
    return fmt, payloads


def bench_decode(repeats: int = REPEATS) -> dict:
    """View decode, arena decode, and the steady-state allocation proof."""
    rng = np.random.default_rng(0)
    fmt, payloads = _decode_workload(rng)
    eps = fmt.vertices_per_block

    def run_view():
        for p in payloads:
            fmt.split_block_views(p, eps)

    arena = Arena(fmt, capacity=eps)

    def run_arena():
        for p in payloads:
            arena.reset()
            fmt.decode_block_into(p, eps, arena)

    view_s = _best_of(repeats, run_view)
    run_arena()  # warm-up: any growth happens here, not in steady state
    grow0, bytes0 = arena.grow_events, arena.bytes_allocated
    arena_s = _best_of(repeats, run_arena)
    steady_grow = arena.grow_events - grow0
    steady_bytes = arena.bytes_allocated - bytes0

    return {
        "blocks": NUM_BLOCKS,
        "vertices_per_block": eps,
        "view_us_per_block": view_s / NUM_BLOCKS * 1e6,
        "arena_us_per_block": arena_s / NUM_BLOCKS * 1e6,
        "steady_state_grow_events": steady_grow,
        "steady_state_bytes_allocated": steady_bytes,
    }


def bench_adc(repeats: int = REPEATS) -> dict:
    """Lookup-table build + table-driven PQ distances (the routing path)."""
    rng = np.random.default_rng(1)
    vectors = rng.integers(0, 256, size=(NUM_VECTORS, DIM)).astype(np.float32)
    pq = ProductQuantizer(32, 256, "l2")
    pq.fit_dataset(vectors, seed=0)
    query = rng.integers(0, 256, size=DIM).astype(np.float32)
    ids = rng.choice(NUM_VECTORS, size=64, replace=False).astype(np.int64)
    lookups = 200

    def run_tables():
        for _ in range(lookups):
            pq.lookup_table(query)

    table = pq.lookup_table(query)

    def run_distances():
        for _ in range(lookups):
            pq.distances_from_table(table, ids)

    tables_s = _best_of(repeats, run_tables)
    dists_s = _best_of(repeats, run_distances)
    return {
        "num_subspaces": pq.num_subspaces,
        "table_build_us": tables_s / lookups * 1e6,
        "distances_us_per_call": dists_s / lookups * 1e6,
        "ids_per_call": int(ids.size),
    }


def bench_frontier(repeats: int = REPEATS) -> dict:
    """Bulk pushes on the flat array-backed candidate set."""
    rng = np.random.default_rng(2)
    capacity = 96
    rounds = 200
    batches = [
        (
            rng.choice(NUM_VECTORS, size=24, replace=False).astype(np.int64),
            rng.random(24).astype(np.float64),
        )
        for _ in range(rounds)
    ]

    def run_push_many():
        c = CandidateSet(
            capacity, track_kicked=True, max_vertex_id=NUM_VECTORS - 1
        )
        for ids, dists in batches:
            fresh = ids[c.unseen(ids)]
            c.push_many(fresh, dists[: fresh.size])

    def run_push_visited():
        c = CandidateSet(capacity, max_vertex_id=NUM_VECTORS - 1)
        for ids, dists in batches:
            c.push_visited_many(ids.tolist(), dists.tolist())

    push_s = _best_of(repeats, run_push_many)
    visited_s = _best_of(repeats, run_push_visited)
    return {
        "capacity": capacity,
        "batch_size": 24,
        "push_many_us_per_batch": push_s / rounds * 1e6,
        "push_visited_us_per_batch": visited_s / rounds * 1e6,
    }


def run_microbench(repeats: int = REPEATS) -> dict:
    report = {
        "decode": bench_decode(repeats),
        "adc": bench_adc(repeats),
        "frontier": bench_frontier(repeats),
        "environment": environment_metadata(),
    }
    return report


def write_json(report: dict, path: str) -> str:
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    return path


if __name__ == "__main__":  # pragma: no cover - manual entry point
    print(json.dumps(run_microbench(), indent=2))
