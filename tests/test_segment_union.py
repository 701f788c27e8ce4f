"""One wave across segments: the coordinator's union equals today's waves.

``SegmentCoordinator.search_batch`` answers a micro-batch over all of its
Starling segments whose reads cannot raise (plain, cached, or armed behind a
retry policy) as one lockstep wave of ``segments × queries`` rows
(``repro.engine.block_search.search_segments``).  That changes the wave's
width and nothing else: every (segment, query) row must equal what the
segment's own :class:`~repro.engine.batch.BatchExecutor` wave returns — ids,
distances, the whole :class:`~repro.engine.cost.QueryStats`, ``degraded`` —
each segment's device must see the same reads, and the merged answers must
equal the per-segment path's.  These tests pin that as one matrix (kind ×
segments × width × stopper), plus a mixed coordinator, a config-armed
segment, segment swaps under concurrent batches, round 0's per-row-graph
walk and the scratch bound of a 31-segment wave.
"""

from __future__ import annotations

import sys
import threading
import time
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import (
    GraphConfig,
    SegmentCoordinator,
    StarlingConfig,
    build_starling,
)
from repro.core import coordinator as coordinator_module
from repro.engine import (
    AdaptiveEarlyStopper,
    BatchExecutor,
    DeadlineStopper,
    ExecSpec,
    RetryPolicy,
)
from repro.engine import block_search
from repro.engine.frontier import FrontierPlane
from repro.graphs import navigation
from repro.graphs.navigation import (
    LOCKSTEP_MIN_WAVE,
    build_navigation_graph,
    entry_walks,
)
from repro.graphs.wavebuild import WaveGraph, lockstep_walk
from repro.storage import FaultSpec, ensure_fault_injection
from repro.storage.faults import base_disk_graph
from repro.vectors import bigann_like, deep_like, text2image_like
from repro.vectors.dataset import VectorDataset

from .conftest import example_budget

CONFIG = StarlingConfig(graph=GraphConfig(max_degree=16, build_ef=32, seed=1))
KINDS = {"l2-f32": deep_like, "l2-u8": bigann_like, "ip": text2image_like}
#: unequal segment sizes; 607 leaves every kind's layout a short last block
SIZES = (300, 607, 420)
WIDTHS = [1, 7, 8, 9, 16]
K = 10
GAMMA = 24


def _noisy_queries(vectors: np.ndarray, count: int, seed: int) -> np.ndarray:
    """Base vectors plus noise: near the data, so a shallow search misses
    some true neighbours and a wrong frontier can show."""
    rng = np.random.default_rng(seed)
    picks = rng.integers(0, len(vectors), size=count)
    spread = float(np.std(vectors.astype(np.float32)))
    noise = rng.normal(0.0, 0.3 * spread, size=(count, vectors.shape[1]))
    return (vectors[picks] + noise).astype(np.float32)


def _parts(dataset, sizes):
    parts, offsets, lo = [], [], 0
    for size in sizes:
        parts.append(VectorDataset(
            name=f"{dataset.name}#{lo}", vectors=dataset.vectors[lo:lo + size],
            queries=dataset.queries, metric=dataset.metric,
        ))
        offsets.append(lo)
        lo += size
    return parts, offsets


@pytest.fixture(scope="module")
def segment_sets():
    """Per kind: three segments of unequal size, their offsets, the parts
    they were built from, and a query pool."""
    out = {}
    for seed, (kind, make) in enumerate(KINDS.items()):
        dataset = make(sum(SIZES), 4, seed=40 + seed)
        parts, offsets = _parts(dataset, SIZES)
        segments = [build_starling(part, CONFIG) for part in parts]
        short = [
            dg.vertices_in_block(b).size < dg.fmt.vertices_per_block
            for dg in (s.disk_graph for s in segments)
            for b in range(dg.num_blocks)
        ]
        assert any(short)
        queries = _noisy_queries(dataset.vectors, 2 * LOCKSTEP_MIN_WAVE, seed)
        out[kind] = (segments, offsets, parts, queries)
    return out


def _same_rows(a, b) -> None:
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert np.array_equal(x.ids, y.ids)
        assert np.array_equal(x.dists, y.dists)
        assert x.stats.__dict__ == y.stats.__dict__
        assert x.degraded == y.degraded


def _same_merged(a, b) -> None:
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert np.array_equal(x.ids, y.ids)
        assert np.array_equal(x.dists, y.dists)
        assert x.stats.__dict__ == y.stats.__dict__
        assert x.per_segment_latency_us == y.per_segment_latency_us
        assert x.degraded == y.degraded
        assert x.failed_segments == y.failed_segments
        assert x.quarantined_segments == y.quarantined_segments


def _devices(segments):
    return [base_disk_graph(s.disk_graph).device for s in segments]


@contextmanager
def _io(segments):
    """Yields a list that receives each segment device's counter delta."""
    devices = _devices(segments)
    before = [d.counters.snapshot() for d in devices]
    deltas: list = []
    yield deltas
    deltas.extend(d.counters.since(b) for d, b in zip(devices, before))


@contextmanager
def _patience(segments, patience):
    """Adaptive early termination on every segment's engine."""
    saved = [s.engine.early_termination for s in segments]
    for s in segments:
        s.engine.early_termination = patience
    try:
        yield
    finally:
        for s, value in zip(segments, saved):
            s.engine.early_termination = value


@pytest.fixture
def union_spy(monkeypatch):
    """Records what every union wave returned, per segment."""
    waves: list = []
    real = coordinator_module.search_segments

    def spy(*args, **kwargs):
        out = real(*args, **kwargs)
        waves.append(out)
        return out

    monkeypatch.setattr(coordinator_module, "search_segments", spy)
    return waves


def _per_segment_path(monkeypatch):
    """Today's dispatch: every segment through its own executor."""
    monkeypatch.setattr(coordinator_module, "_unionable", lambda s: False)


# ---------------------------------------------------------------------------
# the equivalence matrix


@pytest.mark.parametrize("stopper", ["none", "deadline", "adaptive"])
@pytest.mark.parametrize("width", WIDTHS)
@pytest.mark.parametrize("num_segments", [2, 3])
@pytest.mark.parametrize("kind", list(KINDS))
def test_rows_equal_per_segment_waves(
    monkeypatch, union_spy, segment_sets, kind, num_segments, width, stopper,
):
    segments, offsets, _, pool = segment_sets[kind]
    segments, offsets = segments[:num_segments], offsets[:num_segments]
    queries = pool[:width]
    budget = None
    if stopper == "deadline":
        # half the cheapest full search: every query's stopper fires
        budget = 0.5 * min(
            s.latency_us(s.search(q, K, GAMMA))
            for s in segments for q in queries
        )

    def make():
        if budget is None:
            return None
        return [DeadlineStopper(budget) for _ in queries]

    patience = 2 if stopper == "adaptive" else None
    with _patience(segments, patience):
        coordinator = SegmentCoordinator(list(segments), list(offsets))
        stoppers = make()
        with _io(segments) as union_io:
            merged = coordinator.search_batch(
                queries, K, GAMMA, stoppers=stoppers
            )
        assert len(union_spy) == 1 and len(union_spy[0]) == num_segments

        reference_stoppers = make()
        with _io(segments) as reference_io:
            reference = [
                BatchExecutor(s, ExecSpec(mode="wave")).search_batch(
                    queries, K, GAMMA, stoppers=reference_stoppers
                )
                for s in segments
            ]
        for rows, want in zip(union_spy[0], reference):
            _same_rows(rows, want)
        assert union_io == reference_io
        if stoppers is not None:
            fired = [s.fired for s in stoppers]
            assert fired == [s.fired for s in reference_stoppers]
            assert any(fired)

        _per_segment_path(monkeypatch)
        _same_merged(
            merged,
            SegmentCoordinator(list(segments), list(offsets)).search_batch(
                queries, K, GAMMA, stoppers=make()
            ),
        )
    assert len(union_spy) == 1


def test_single_query_rides_the_union(union_spy, segment_sets):
    """``search(q)`` is ``search_batch(q[None])[0]``: one merge loop, one
    dispatch."""
    segments, offsets, _, pool = segment_sets["l2-f32"]
    coordinator = SegmentCoordinator(list(segments), list(offsets))
    one = coordinator.search(pool[0], K, GAMMA)
    assert len(union_spy) == 1
    _same_merged([one], coordinator.search_batch(pool[:1], K, GAMMA))


def test_serial_mode_and_stateful_stoppers_keep_per_segment_calls(
    monkeypatch, union_spy, segment_sets
):
    """The union runs in ``wave`` mode only, and only for stoppers that
    restart per search (``bind``): a stopper without it carries state from
    one segment's search into the next, which the union cannot replay."""
    segments, offsets, _, pool = segment_sets["l2-f32"]
    queries = pool[:8]
    coordinator = SegmentCoordinator(list(segments), list(offsets))
    serial = coordinator.search_batch(
        queries, K, GAMMA, exec_spec=ExecSpec(mode="serial")
    )

    def stateful():
        return [AdaptiveEarlyStopper(K, 1, min_hops=2) for _ in queries]

    carried = coordinator.search_batch(queries, K, GAMMA, stoppers=stateful())
    assert union_spy == []
    _per_segment_path(monkeypatch)
    reference = SegmentCoordinator(list(segments), list(offsets))
    _same_merged(serial, reference.search_batch(
        queries, K, GAMMA, exec_spec=ExecSpec(mode="serial")
    ))
    _same_merged(
        carried, reference.search_batch(queries, K, GAMMA, stoppers=stateful())
    )


# ---------------------------------------------------------------------------
# a mixed coordinator


def test_mixed_coordinator_answers_as_today(
    monkeypatch, union_spy, segment_sets
):
    """Two plain segments and one behind an LRU cache (one wave of all
    three: the cached rows read through the wrapper, in row order) and one
    quarantined (skipped): merged answers, stats, flags and every device's
    reads equal the per-segment path's — on a narrow wave (2 queries, 6
    rows) and on a wide one (8 queries, 24 rows), where a round reads the
    plain segments as one union and the cached one row by row."""
    segments, offsets, parts, pool = segment_sets["l2-f32"]
    cached = build_starling(parts[2], CONFIG)
    members = [segments[0], segments[1], cached, segments[2]]
    member_offsets = [offsets[0], offsets[1], offsets[2], 9_999]

    def run(queries):
        cached.apply_cache_strategy("lru", 6)
        coordinator = SegmentCoordinator(list(members), list(member_offsets))
        coordinator.quarantine_segment(3)
        with _io(members) as io:
            out = coordinator.search_batch(queries, K, GAMMA)
        return out, io

    unions = [run(pool[:width]) for width in (2, 8)]
    # one wave each, of the plain segments 0 and 1 and the cached segment 2
    assert [len(wave) for wave in union_spy] == [3, 3]
    for union, _ in unions:
        assert all(r.quarantined_segments == [3] and r.degraded for r in union)
        assert sum(r.stats.block_cache_hits for r in union) > 0
    _per_segment_path(monkeypatch)
    for width, (union, union_io) in zip((2, 8), unions):
        reference, reference_io = run(pool[:width])
        _same_merged(union, reference)
        assert union_io == reference_io


def test_config_armed_segment_rides_the_union(
    monkeypatch, union_spy, segment_sets
):
    """A segment armed through ``StarlingConfig.faults`` carries a retry
    policy, so none of its reads raise: it answers inside the
    coordinator's one wave — narrow (2 queries, 6 rows) and wide (9
    queries, 27 rows) — each row equal to its own executor's, FaultStats
    included, every device seeing the same reads, and the merged answers
    equal to the per-segment path's.  An injector without a retry policy
    can raise, so that segment keeps its own executor call, and its
    ``FaultError`` drops it alone."""
    segments, offsets, parts, pool = segment_sets["l2-f32"]
    chaos = FaultSpec(
        seed=5, transient_error_rate=0.05, bad_block_rate=0.02,
        corruption_rate=0.02, latency_spike_rate=0.2,
    )
    armed = build_starling(parts[2], CONFIG.with_(
        faults=chaos,
        resilience=RetryPolicy(max_retries=2, hedge_after_us=300.0),
    ))
    members = [segments[0], segments[1], armed]
    unions = []
    for width in (2, 9):
        queries = pool[:width]
        coordinator = SegmentCoordinator(list(members), list(offsets))
        with _io(members) as union_io:
            merged = coordinator.search_batch(queries, K, GAMMA)
        assert len(union_spy[-1]) == 3
        with _io(members) as reference_io:
            reference = [
                BatchExecutor(s, ExecSpec(mode="wave")).search_batch(
                    queries, K, GAMMA
                )
                for s in members
            ]
        for rows, want in zip(union_spy[-1], reference):
            _same_rows(rows, want)
        assert union_io == reference_io
        assert any(r.stats.fault.any for r in union_spy[-1][2])
        unions.append((queries, merged))
    assert len(union_spy) == 2

    strict = build_starling(parts[2], CONFIG)
    ensure_fault_injection(
        strict.disk_graph, FaultSpec(seed=5, bad_block_rate=1.0)
    )
    assert strict.engine.resilience is None
    coordinator = SegmentCoordinator(
        [segments[0], segments[1], strict], list(offsets)
    )
    dropped = coordinator.search_batch(pool[:2], K, GAMMA)
    assert len(union_spy) == 3 and len(union_spy[-1]) == 2
    assert all(r.failed_segments == [2] and r.degraded for r in dropped)

    _per_segment_path(monkeypatch)
    for queries, merged in unions:
        _same_merged(
            merged,
            SegmentCoordinator(list(members), list(offsets)).search_batch(
                queries, K, GAMMA
            ),
        )


def test_plan_follows_in_place_read_path_changes(union_spy, segment_sets):
    """Fault injection armed on a live segment without a retry policy
    takes it out of the union at the next batch, without a
    ``replace_segment`` — the union wave spans
    both segments, then segment 0 alone, then both again once the injector
    is gone — while a cache strategy applied in place keeps the segment in
    the union."""
    segments, offsets, parts, pool = segment_sets["l2-f32"]
    extra = build_starling(parts[0], CONFIG)
    coordinator = SegmentCoordinator(
        [segments[0], extra], [offsets[0], offsets[0]]
    )
    coordinator.search_batch(pool[:2], K, GAMMA)
    assert [len(wave) for wave in union_spy] == [2]
    graph = base_disk_graph(extra.disk_graph)
    device = graph.device
    ensure_fault_injection(graph, FaultSpec(seed=3, latency_spike_rate=0.5))
    try:
        coordinator.search_batch(pool[:2], K, GAMMA)
        assert [len(wave) for wave in union_spy] == [2, 1]
    finally:
        graph.device = device
        graph.verify_checksums = False
    coordinator.search_batch(pool[:2], K, GAMMA)
    assert [len(wave) for wave in union_spy] == [2, 1, 2]
    extra.apply_cache_strategy("lru", 4)
    coordinator.search_batch(pool[:2], K, GAMMA)
    assert [len(wave) for wave in union_spy] == [2, 1, 2, 2]
    assert extra.disk_graph.hits + extra.disk_graph.misses > 0


# ---------------------------------------------------------------------------
# segment swaps under concurrent batches


def test_replace_segment_under_concurrent_batches(segment_sets):
    """Three threads (more than the cores CI runs on, with a short switch
    interval) keep answering 8-query batches while the main thread swaps a
    segment back and forth and quarantines / reinstates another.  Every
    answer is either the full one (the swapped-in index is an identical
    rebuild) or flagged as missing the quarantined segment — a union plan
    that went stale, or paired a segment with the wrong offset, breaks
    that."""
    segments, offsets, parts, pool = segment_sets["l2-f32"]
    twin = build_starling(parts[1], CONFIG)
    coordinator = SegmentCoordinator(list(segments), list(offsets))
    queries = pool[:8]
    expected = coordinator.search_batch(queries, K, GAMMA)
    stop = threading.Event()
    failures: list = []
    served = [0]

    def hammer():
        try:
            while not stop.is_set():
                for got, want in zip(
                    coordinator.search_batch(queries, K, GAMMA), expected
                ):
                    if got.quarantined_segments:
                        assert got.degraded
                        assert got.quarantined_segments == [0]
                    else:
                        assert np.array_equal(got.ids, want.ids)
                        assert np.array_equal(got.dists, want.dists)
                        assert got.stats.__dict__ == want.stats.__dict__
                served[0] += 1
        except BaseException as exc:  # noqa: BLE001
            failures.append(exc)
            stop.set()

    threads = [threading.Thread(target=hammer) for _ in range(3)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for step in range(20):
            coordinator.replace_segment(1, twin if step % 2 == 0 else segments[1])
            time.sleep(0.003)
            coordinator.quarantine_segment(0)
            time.sleep(0.003)
            coordinator.reinstate(0)
            time.sleep(0.003)
    finally:
        stop.set()
        for thread in threads:
            thread.join(timeout=60)
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not failures, failures[0]
    assert served[0] > 0


# ---------------------------------------------------------------------------
# round 0: one lockstep walk over several navigation graphs


def _ties_graphs():
    rng = np.random.default_rng(5)
    graphs = []
    for size in (40, 70):
        base = rng.standard_normal((size, 16)).astype(np.float32)
        graphs.append(build_navigation_graph(
            np.repeat(base, 3, axis=0), "l2", sample_ratio=1.0,
            max_degree=8, build_ef=16, search_ef=8,
        ))
    return graphs, rng.standard_normal((48, 16)).astype(np.float32)


@pytest.fixture(scope="module")
def walk_sets(segment_sets):
    """Per case: navigation graphs of one dimension, and a query pool."""
    out = {
        kind: (
            [s.entry_provider for s in segment_sets[kind][0]],
            segment_sets[kind][3],
        )
        for kind in ("l2-f32", "l2-u8")
    }
    out["ties"] = _ties_graphs()
    return out


class TestEntryWalks:
    @settings(
        max_examples=example_budget(40), deadline=None,
        suppress_health_check=[
            HealthCheck.too_slow, HealthCheck.function_scoped_fixture,
        ],
    )
    @given(
        case=st.sampled_from(["l2-f32", "l2-u8", "ties"]),
        picks=st.lists(st.integers(0, 2), min_size=1, max_size=4),
        width=st.integers(1, 24),
        start=st.integers(0, 31),
        count=st.integers(1, 6),
    )
    def test_rows_equal_each_graphs_scalar_walk(
        self, walk_sets, case, picks, width, start, count
    ):
        navs, pool = walk_sets[case]
        navs = [navs[i % len(navs)] for i in picks]
        queries = pool[(start + np.arange(width)) % len(pool)]
        walks = entry_walks(navs, queries, count)
        assert len(walks) == len(navs)
        for nav, (ids, scored) in zip(navs, walks):
            assert scored.shape == (width,)
            for i, q in enumerate(queries):
                want_ids, want_scored = nav.entry_walk(q, count)
                assert np.array_equal(ids[i], want_ids)
                assert scored[i] == want_scored

    def test_ties_really_occur_across_graphs(self, walk_sets):
        """The ties case is only a regression test while a multi-graph
        wave really flags tied rows (they re-walk through their own
        graph's scalar walk)."""
        navs, queries = walk_sets["ties"]
        _, pool = lockstep_walk(
            [WaveGraph(n.graph.neighbor_lists(), n.sample_vectors, [n.entry])
             for n in navs],
            [len(queries)] * len(navs), navs[0].metric,
            np.concatenate([queries] * len(navs)), 8, with_pool=True,
        )
        assert pool.tied.any()

    def test_visited_plane_is_sized_per_row(self, walk_sets):
        """Row ``i``'s visited flags number its own graph's samples: the
        plane is Σ rows × samples, not rows × the largest graph."""
        navs, pool = walk_sets["l2-f32"]
        rows = [3, 5, 2]
        visited, _ = lockstep_walk(
            [WaveGraph(n.graph.neighbor_lists(), n.sample_vectors, [n.entry])
             for n in navs],
            rows, navs[0].metric, pool[:sum(rows)], 16,
        )
        assert visited.size == sum(
            r * n.num_samples for r, n in zip(rows, navs)
        )

    def test_narrow_waves_keep_the_scalar_walk(self, monkeypatch, walk_sets):
        navs, pool = walk_sets["l2-f32"]
        calls = []
        real = navigation.lockstep_walk
        monkeypatch.setattr(
            navigation, "lockstep_walk",
            lambda *a, **kw: (calls.append(a[1]), real(*a, **kw))[1],
        )
        width = (LOCKSTEP_MIN_WAVE - 1) // len(navs)
        entry_walks(navs, pool[:width], 4)
        assert calls == []
        entry_walks(navs, pool[:width + 1], 4)
        assert calls == [[width + 1] * len(navs)]


# ---------------------------------------------------------------------------
# scratch of a wide union


def test_31_segment_wave_scratch_is_per_segment(monkeypatch, segment_sets):
    """The paper's billion-scale merge spans 31 segments.  One query over
    31 segments is a 31-row wide wave; its frontier plane's flag columns
    are the *largest* segment's vertex count (plus the sink), not the sum
    over segments, and its entry walk's visited plane is each row's own
    sample count.  The answers still equal the per-segment path's."""
    segments, offsets, _, pool = segment_sets["l2-f32"]
    members = [segments[i % len(segments)] for i in range(31)]
    member_offsets = [offsets[i % len(segments)] for i in range(31)]
    planes, walked = [], []

    class Spy(FrontierPlane):
        def __init__(self, *args):
            super().__init__(*args)
            planes.append((args, self.in_set.shape))

    real_walk = navigation.lockstep_walk

    def walk(*args, **kwargs):
        visited, pool_ = real_walk(*args, **kwargs)
        walked.append(visited.size)
        return visited, pool_

    monkeypatch.setattr(block_search, "FrontierPlane", Spy)
    monkeypatch.setattr(navigation, "lockstep_walk", walk)
    union = SegmentCoordinator(members, member_offsets).search_batch(
        pool[:1], K, GAMMA
    )
    largest = max(s.disk_graph.num_vertices for s in segments)
    assert planes == [((31, GAMMA, largest), (31, largest + 1))]
    assert walked == [
        sum(s.entry_provider.num_samples for s in members)
    ]
    _per_segment_path(monkeypatch)
    _same_merged(
        union,
        SegmentCoordinator(members, member_offsets).search_batch(
            pool[:1], K, GAMMA
        ),
    )
