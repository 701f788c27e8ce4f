"""``ingest_churn``: writes beside reads on the WAL-backed segment lifecycle.

WAL fsync, catalog commits, segment saves, seal and merge builds, and the
multi-segment + memtable + tombstone read path: the same engine used
differently, so a read gain that costs writes (or the reverse) shows.

One client runs a fixed mix in a closed loop — insert 32 rows, then 12
searches; after every seal delete a tenth of a seal's worth of random live
ids and compact to quiescence.  ``qps`` is searches per second of that
whole loop (time inside product calls), so it falls when either side
slows; the write side alone is in the per-layer rows.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.lifecycle import LifecycleSpec, SegmentLifecycle
from repro.vectors.dataset import VectorDataset
from repro.vectors.synthetic import deep_like

from .. import probes
from ..check import exact_knn, recall
from ..common import (
    K, Measured, Sizing, build_index, count_rows, median, rng,
)

NAME = "ingest_churn"
BASE_ROWS = 2048
SEAL_ROWS = 256
CALL_ROWS = 32
SEARCHES_PER_CALL = 12
GAMMA = 24
DELETE_SHARE = 0.10       # of SEAL_ROWS, after each seal
NOMINAL_ROWS_PER_S = 250.0
POOL = 512
OPEN_REPEATS = 10


class Rebuild:
    """The lifecycle's builder closure, with a span and the builder's clock."""

    def __init__(self) -> None:
        self.tracer = None
        self.timings: list = []

    def __call__(self, dataset):
        slot = self.tracer.begin("core.rebuild") if self.tracer else -1
        index = build_index(dataset, "nsg")
        if self.tracer:
            self.tracer.end(slot)
        self.timings.append(index.timings)
        return index


@dataclass
class Inputs:
    rows: np.ndarray        # base rows first, then the rows to ingest
    queries: np.ndarray
    base_rows: int
    seal_rows: int
    query_order: np.ndarray
    seed: int
    sizing: Sizing


@dataclass
class System:
    lifecycle: SegmentLifecycle
    rebuild: Rebuild
    directory: object
    spec: LifecycleSpec
    alive: np.ndarray = field(default=None)


def make_inputs(seed: int, sizing: Sizing) -> Inputs:
    base = sizing.rows(BASE_ROWS)
    seal = SEAL_ROWS if sizing.full else 64
    ingest = sizing.work(NOMINAL_ROWS_PER_S, CALL_ROWS)
    dataset = deep_like(base + ingest, POOL if sizing.full else 64, seed=seed)
    searches = ingest // CALL_ROWS * SEARCHES_PER_CALL
    return Inputs(
        rows=dataset.vectors, queries=dataset.queries, base_rows=base,
        seal_rows=seal,
        query_order=rng(seed, "order").integers(
            0, len(dataset.queries), size=searches),
        seed=seed, sizing=sizing,
    )


def setup(inp: Inputs, workdir) -> System:
    rebuild = Rebuild()
    spec = LifecycleSpec(seal_threshold=inp.seal_rows, merge_fanout=3,
                         tier_growth=3)
    directory = workdir / "lifecycle"
    lifecycle = SegmentLifecycle.create(
        directory, rebuild, dim=inp.rows.shape[1], spec=spec)
    lifecycle.insert(inp.rows[:inp.base_rows])   # over the threshold: seals
    for pos in inp.query_order[:16]:
        lifecycle.search(inp.queries[pos], K, GAMMA)
    alive = np.zeros(len(inp.rows), dtype=bool)
    alive[:inp.base_rows] = True
    return System(lifecycle, rebuild, directory, spec, alive)


def teardown(system: System) -> None:
    system.lifecycle.close()


def measure(system: System, inp: Inputs, tracer) -> Measured:
    out = Measured()
    tally = out.tally
    lc, alive = system.lifecycle, system.alive
    system.rebuild.tracer = tracer
    picks = rng(inp.seed, "deletes")
    deletes_per_seal = max(int(DELETE_SHARE * inp.seal_rows), 1)
    compactions0 = lc.compactions

    ack_s, seal_s, compact_s, delete_s = [], [], [], []
    search_ms, recalls, stats = [], [], []
    segments_seen, memtable_seen = [], []
    cursor, next_query = inp.base_rows, 0
    while cursor < len(inp.rows):
        rows = inp.rows[cursor:cursor + CALL_ROWS]
        seals_before = lc.seals
        slot = tracer.begin("core.insert", cursor)
        t0 = time.perf_counter()
        ids = lc.insert(rows)
        dt = time.perf_counter() - t0
        tracer.end(slot)
        tally.attempt()
        if ids.tolist() != list(range(cursor, cursor + len(rows))):
            tally.fail(f"{NAME}: insert returned unexpected ids")
        alive[cursor:cursor + len(rows)] = True
        cursor += len(rows)
        if lc.seals == seals_before:
            ack_s.append(dt)
        else:
            seal_s.append(dt)
            doomed = picks.choice(np.flatnonzero(alive),
                                  size=deletes_per_seal, replace=False)
            slot = tracer.begin("core.delete", cursor)
            t0 = time.perf_counter()
            removed = lc.delete(doomed)
            delete_s.append(time.perf_counter() - t0)
            tracer.end(slot)
            tally.attempt()
            if removed != len(doomed):
                tally.fail(f"{NAME}: delete removed {removed} of "
                           f"{len(doomed)} live ids")
            alive[doomed] = False
            slot = tracer.begin("core.compact", cursor)
            t0 = time.perf_counter()
            merges = lc.maybe_compact()
            dt = time.perf_counter() - t0
            tracer.end(slot)
            if merges:
                compact_s.append(dt)

        live_ids = np.flatnonzero(alive)
        positions = inp.query_order[next_query:next_query + SEARCHES_PER_CALL]
        next_query += SEARCHES_PER_CALL
        truth = live_ids[exact_knn(inp.rows[live_ids], inp.queries[positions],
                                   K)]
        segments_seen.append(lc.num_segments)
        memtable_seen.append(lc.pending_rows)
        for j, pos in enumerate(positions):
            slot = tracer.begin("core.search", next_query + j)
            t0 = time.perf_counter()
            result = lc.search(inp.queries[pos], K, GAMMA)
            search_ms.append((time.perf_counter() - t0) * 1e3)
            tracer.end(slot)
            tally.check_result(result.ids, K, NAME)
            if not alive[result.ids].all():
                tally.fail(f"{NAME}: search returned a deleted id")
            recalls.append(recall(result.ids, truth[j]))
            stats.append(result.stats)

    write_s = sum(ack_s) + sum(seal_s) + sum(delete_s) + sum(compact_s)
    out.timed_s = write_s + sum(search_ms) / 1e3

    # Durability: what a fresh process recovers must be the mirror.
    lc.close()
    on_disk = probes.tree_bytes(system.directory)
    reopened = SegmentLifecycle.open(system.directory, system.rebuild,
                                     spec=system.spec)
    system.lifecycle = reopened
    tally.attempt()
    expected = set(np.flatnonzero(alive).tolist())
    if reopened.live_ids() != expected:
        lost = len(expected ^ reopened.live_ids())
        tally.fail(f"{NAME}: {lost} ids differ after reopen", lost)

    n = len(stats)
    out.rows = {
        "qps": n / out.timed_s,
        "latency_ms_p50": median(search_ms),
        "recall_at_10": float(np.mean(recalls)),
        "disk_bytes_per_vector_byte":
            on_disk / (int(alive.sum()) * inp.rows[0].nbytes),
        **count_rows(stats),
    }
    out.extra = {
        "stats": stats, "search_ms": search_ms, "ack_s": ack_s,
        "seal_s": seal_s, "compact_s": compact_s, "write_s": write_s,
        "compactions": lc.compactions - compactions0,
        "segments_seen": segments_seen, "memtable_seen": memtable_seen,
        "rows_ingested": len(inp.rows) - inp.base_rows,
    }
    return out


def layers(system: System, inp: Inputs, out: Measured, tracer, workdir):
    x = out.extra
    stats = x["stats"]
    n = len(stats)
    rebuild_s = float(tracer.durations_ns("core.rebuild").sum()) / 1e9

    opens = []
    for _ in range(OPEN_REPEATS):
        system.lifecycle.close()
        t0 = time.perf_counter()
        system.lifecycle = SegmentLifecycle.open(
            system.directory, system.rebuild, spec=system.spec)
        system.lifecycle.search(inp.queries[0], K, GAMMA)
        opens.append(time.perf_counter() - t0)

    wal_us, wal_ratio = probes.wal_probe(workdir, inp.rows[:CALL_ROWS])
    small = build_index(VectorDataset(
        name="probe", vectors=inp.rows[:512], queries=inp.queries[:1],
        metric="l2"), "nsg")
    save_ms, load_ms, written_ratio = probes.persist_probe(workdir, small)

    stalls = x["seal_s"] + x["compact_s"]
    return {
        # the set-up's base build is timings[0]; the rest ran while timed
        **probes.build_timings(system.rebuild.timings[1:]),
        **probes.stats_rows(stats),
        **probes.tail_rows(x["search_ms"], inp.sizing, NAME),
        "storage.ack_ms_p50": median(x["ack_s"]) * 1e3,
        "storage.wal_commit_us": wal_us,
        "storage.wal_bytes_per_vector_byte": wal_ratio,
        "storage.save_segment_ms": save_ms,
        "storage.load_segment_ms": load_ms,
        "storage.bytes_written_per_vector_byte": written_ratio,
        "core.insert_vectors_per_s": x["rows_ingested"] / x["write_s"],
        "core.rebuild_s_total": rebuild_s,
        "core.seal_s_mean": float(np.mean(x["seal_s"])),
        "core.compact_s_mean":
            float(np.mean(x["compact_s"])) if x["compact_s"] else 0.0,
        "core.seals": float(len(x["seal_s"])),
        "core.compactions": float(x["compactions"]),
        "core.write_stall_ms_max": max(stalls) * 1e3,
        "core.segments_per_search_mean": float(np.mean(x["segments_seen"])),
        "core.memtable_rows_mean": float(np.mean(x["memtable_seen"])),
        "core.lifecycle_open_ms": median(opens) * 1e3,
        "vectors.l2_kernel_us_per_1k_rows": probes.l2_kernel_us_per_1k_rows(
            system.lifecycle.metric, inp.rows.shape[1], inp.rows.dtype),
    }
