"""``serve_open``: the threaded service under open-loop, then closed-loop load.

Queue wait, micro-batch formation, ticket fulfilment and the coordinator's
fan-out and merge over two segments dominate.  Every decoded block fits the
service's decode cache (the "fits" case beside ``single_skewed_cached``).
One shed tier and no deadline keep recall and the counts repeatable.

The open-loop phase offers about a quarter of capacity and gives the latency
rows, timed from each request's due time.  Queueing multiplies whatever the
machine's speed does that minute, the more so the busier the service, and
on this box a third was already too noisy to gate.  The closed-loop phase
keeps 16 requests in flight and gives ``qps``.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.core.coordinator import SegmentCoordinator, split_dataset
from repro.engine.batch import BatchExecutor, ExecSpec
from repro.engine.serve import SearchService, ServeSpec
from repro.storage.faults import base_disk_graph
from repro.vectors.synthetic import deep_like

from .. import probes
from ..check import exact_knn, recall
from ..common import (
    K, Measured, Sizing, build_index, count_rows, median, rng,
)
from ..loadgen import poisson_schedule, run_open_loop

NAME = "serve_open"
ROWS = 3000
SEGMENTS = 2
POOL = 1024
GAMMA = 16
OPEN_RATE_QPS = 100.0
OPEN_SHARE = 0.7          # of --seconds; the rest is the closed loop
IN_FLIGHT = 16
NOMINAL_CLOSED_QPS = 430.0
LATENCY_LIMIT_MS = 25.0   # on p95, with no backlog left after the phase
LATENESS_LIMIT_MS = 5.0
LADDER_QPS = (50.0, 100.0, 200.0)
LADDER_SECONDS = 1.5


@dataclass
class Inputs:
    dataset: object
    truth: np.ndarray
    due_s: np.ndarray
    open_order: np.ndarray
    closed_order: np.ndarray
    seed: int
    sizing: Sizing


@dataclass
class System:
    coordinator: SegmentCoordinator
    service: SearchService


def _spec(workers: int = 1) -> ServeSpec:
    return ServeSpec(workers=workers, wave=True, max_batch=8,
                     queue_depth=256, shed_tiers=(GAMMA,))


def make_inputs(seed: int, sizing: Sizing) -> Inputs:
    dataset = deep_like(sizing.rows(ROWS, 400), POOL if sizing.full else 128,
                        seed=seed)
    pool = dataset.queries.shape[0]
    scale = min(sizing.scale, 1.0)
    due = poisson_schedule(rng(seed, "arrivals"), OPEN_RATE_QPS,
                           sizing.seconds * OPEN_SHARE * scale)
    gen = rng(seed, "order")
    closed = sizing.work(NOMINAL_CLOSED_QPS * (1.0 - OPEN_SHARE))
    return Inputs(
        dataset=dataset,
        truth=exact_knn(dataset.vectors, dataset.queries, K),
        due_s=due,
        open_order=gen.integers(0, pool, size=len(due)),
        closed_order=gen.integers(0, pool, size=closed),
        seed=seed,
        sizing=sizing,
    )


def _latency_ms(outcome, lateness_s: float) -> float:
    """From the due time: the service's sojourn plus how late it was sent."""
    return outcome.sojourn_us / 1e3 + lateness_s * 1e3


def _closed_loop(service, queries, order, tally):
    """Keep ``IN_FLIGHT`` tickets outstanding; returns (outcomes, seconds)."""
    outcomes = []
    pending: deque = deque()
    t0 = time.perf_counter()
    for pos in order:
        if len(pending) >= IN_FLIGHT:
            outcomes.append(pending.popleft().result())
        handle = service.submit(queries[pos], K)
        if hasattr(handle, "result"):
            pending.append(handle)
        else:
            tally.attempt()
            tally.fail(f"{NAME}: closed-loop request rejected")
    while pending:
        outcomes.append(pending.popleft().result())
    return outcomes, time.perf_counter() - t0


def setup(inp: Inputs, workdir) -> System:
    parts, offsets = split_dataset(inp.dataset, SEGMENTS)
    coordinator = SegmentCoordinator(
        [build_index(part, "nsg") for part in parts], offsets)
    service = SearchService(coordinator, _spec())
    service.start()
    warm = inp.closed_order[:64 if inp.sizing.full else 8]
    for handle in [service.submit(inp.dataset.queries[p], K) for p in warm]:
        handle.result()
    return System(coordinator, service)


def teardown(system: System) -> None:
    if system.service.running:
        system.service.stop()
    for segment in system.coordinator.segments:
        base_disk_graph(segment.disk_graph).device.close()


def _devices(system: System):
    return [base_disk_graph(s.disk_graph).device
            for s in system.coordinator.segments]


def measure(system: System, inp: Inputs, tracer) -> Measured:
    out = Measured()
    service, queries = system.service, inp.dataset.queries
    restores = [probes.instrument_device(d, tracer) for d in _devices(system)]
    before = [d.counters.snapshot() for d in _devices(system)]
    try:
        opened = run_open_loop(lambda q: service.submit(q, K),
                               inp.due_s, queries[inp.open_order])
        open_outcomes = []
        latency_ms = []
        for i, handle in enumerate(opened.handles):
            if not hasattr(handle, "result"):
                out.tally.attempt()
                out.tally.fail(f"{NAME}: open-loop request rejected")
                continue
            outcome = handle.result()
            open_outcomes.append((inp.open_order[i], outcome))
            latency_ms.append(_latency_ms(outcome, opened.lateness_s[i]))
        closed_outcomes, closed_s = _closed_loop(
            service, queries, inp.closed_order, out.tally)
    finally:
        for restore in restores:
            restore()
    deltas = [d.counters.since(b) for d, b in zip(_devices(system), before)]
    out.timed_s = float(inp.due_s[-1]) + closed_s

    served = open_outcomes + list(zip(inp.closed_order, closed_outcomes))
    recalls, stats = [], []
    for pos, outcome in served:
        if not outcome.ok:
            out.tally.attempt()
            out.tally.fail(f"{NAME}: request ended {outcome.status}")
            continue
        out.tally.check_result(outcome.result.ids, K, NAME)
        recalls.append(recall(outcome.result.ids, inp.truth[pos]))
        stats.append(outcome.result.stats)

    lateness_p95 = float(np.percentile(opened.lateness_s, 95)) * 1e3
    p95 = float(np.percentile(latency_ms, 95))
    invalid = []
    if lateness_p95 > LATENESS_LIMIT_MS:
        invalid.append(f"load generator ran late: p95 {lateness_p95:.2f} ms")
    if opened.backlog:
        invalid.append(f"{opened.backlog} requests still queued "
                       "1 s after the last arrival")
    if p95 > LATENCY_LIMIT_MS:
        invalid.append(f"p95 {p95:.1f} ms is over the {LATENCY_LIMIT_MS} ms "
                       f"limit at {OPEN_RATE_QPS:g} q/s")

    out.rows = {
        "qps": len(closed_outcomes) / closed_s,
        "latency_ms_p50": median(latency_ms),
        "recall_at_10": float(np.mean(recalls)),
        "disk_bytes_per_vector_byte":
            sum(s.disk_bytes for s in system.coordinator.segments)
            / inp.dataset.vectors.nbytes,
        **count_rows(stats),
    }
    out.extra = {
        "invalid": invalid, "stats": stats, "latency_ms": latency_ms,
        "open_outcomes": [o for _, o in open_outcomes if o.ok],
        "batches": len({o.dispatch_us for _, o in served if o.ok}),
        "lateness_p95_ms": lateness_p95,
        "io_blocks": sum(d.blocks_read for d in deltas),
        "io_trips": sum(d.round_trips for d in deltas),
    }
    return out


def _rate_ladder(system: System, inp: Inputs) -> float:
    """Highest ladder rate that meets the latency limit with no backlog."""
    best = 0.0
    queries = inp.dataset.queries
    for step, rate in enumerate(LADDER_QPS):
        gen = rng(inp.seed, f"ladder{step}")
        due = poisson_schedule(gen, rate, LADDER_SECONDS)
        order = gen.integers(0, len(queries), size=len(due))
        run = run_open_loop(lambda q: system.service.submit(q, K), due,
                            queries[order], settle_s=0.5)
        if not all(hasattr(h, "result") for h in run.handles):
            break
        lat = [_latency_ms(h.result(), late)
               for h, late in zip(run.handles, run.lateness_s)]
        if run.backlog or np.percentile(lat, 95) > LATENCY_LIMIT_MS:
            break
        best = rate
    return best


def _replay_batches(system: System, queries: np.ndarray):
    """Replay full micro-batches outside the service.

    Returns the coordinator's own time per query (its batch call minus the
    per-segment executor calls inside it) and the wave counters of those
    executor calls, which the service does not expose.
    """
    spec = ExecSpec(mode="wave", gc_pause=False)
    t0 = time.perf_counter()
    for lo in range(0, len(queries), 8):
        system.coordinator.search_batch(queries[lo:lo + 8], K, GAMMA,
                                        exec_spec=spec)
    whole = time.perf_counter() - t0
    waves = probes.WaveTotals()
    t0 = time.perf_counter()
    for lo in range(0, len(queries), 8):
        for segment in system.coordinator.segments:
            executor = BatchExecutor(segment, spec)
            executor.search_batch(queries[lo:lo + 8], K, GAMMA)
            waves.add(executor.last_wave_stats)
    parts = time.perf_counter() - t0
    return (whole - parts) / len(queries) * 1e6, waves


def layers(system: System, inp: Inputs, out: Measured, tracer, workdir):
    outcomes, stats = out.extra["open_outcomes"], out.extra["stats"]
    n = len(stats)
    segments = system.coordinator.segments

    # Ticket = queue wait + execute, from the service's own stamps.
    origin = time.perf_counter_ns()
    for i, o in enumerate(outcomes):
        arrival, dispatch, complete = (
            origin + int(us * 1e3)
            for us in (o.arrival_us, o.dispatch_us, o.complete_us))
        ticket = tracer.add("engine.serve.ticket", arrival, complete,
                            request_id=i)
        tracer.add("engine.serve.queue_wait", arrival, dispatch,
                   parent=ticket, request_id=i)
        tracer.add("engine.serve.execute", dispatch, complete,
                   parent=ticket, request_id=i)
    waits = tracer.durations_ns("engine.serve.queue_wait") / 1e6
    executes = tracer.durations_ns("engine.serve.execute") / 1e6

    max_rate = _rate_ladder(system, inp)
    report = system.service.stop()
    rejected = sum(1 for d in report.decisions if d[0] == "reject")

    # Saturation with two workers against the one-worker figure above.
    two = SearchService(system.coordinator, _spec(workers=2))
    two.start()
    try:
        order = inp.closed_order[:max(len(inp.closed_order) // 3, 8)]
        _, two_s = _closed_loop(two, inp.dataset.queries, order, out.tally)
    finally:
        two.stop()

    merge_us, waves = _replay_batches(system, inp.dataset.queries[:128])
    rows = probes.query_path_rows(segments[0], inp.dataset.queries[:256],
                                  view=True)
    for name in ("graphs.entry_walk_us_per_query",
                 "quantization.adc_table_us_per_query_batched",
                 "quantization.adc_table_us_per_query_single"):
        rows[name] *= SEGMENTS   # every query walks and routes in each segment
    rows.update({
        **probes.build_timings([s.timings for s in segments]),
        **probes.stats_rows(stats),
        **probes.tail_rows(out.extra["latency_ms"], inp.sizing, NAME),
        **waves.rows(),
        "layout.overlap_ratio":
            float(np.mean([s.layout_or for s in segments])),
        "storage.device_read_us_per_block":
            probes.device_time_us(tracer) / out.extra["io_blocks"],
        "storage.device_blocks_per_query": out.extra["io_blocks"] / n,
        "storage.device_round_trips_per_query": out.extra["io_trips"] / n,
        "engine.serve_queue_wait_ms_p50": float(np.median(waits)),
        "engine.serve_queue_wait_ms_p95": float(np.percentile(waits, 95)),
        "engine.serve_execute_ms_p50": float(np.median(executes)),
        # over both phases: the closed loop is where batches fill
        "engine.serve_batch_size_mean": n / out.extra["batches"],
        "engine.serve_rejected_fraction":
            rejected / max(len(report.outcomes), 1),
        "engine.serve_qps_workers2_over_workers1":
            (len(order) / two_s) / out.rows["qps"],
        "engine.serve_max_rate_under_limit_qps": max_rate,
        "core.coordinator_merge_us_per_query": merge_us,
        "loadgen.lateness_ms_p95": out.extra["lateness_p95_ms"],
    })
    return rows
