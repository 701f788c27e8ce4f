"""Lockstep wave traversal: coalesced reads, bit-identical per-query output.

The contract of :class:`repro.engine.wave_search.WaveSearchEngine` is the
``wavebuild`` one — lockstep is scheduling, not semantics.  Per-query
results and :class:`~repro.engine.cost.QueryStats` must be bit-identical to
the serial loop while the wave's cross-query read sharing shows up only in
the batch-level :class:`~repro.engine.wave_search.WaveStats`.  These tests
pin the identity under random workloads and wave sizes, the per-round
stopper cadence, the determinism gates, and the serving-layer opt-in.
"""

from __future__ import annotations

import dataclasses
import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import StarlingConfig, build_starling
from repro.engine import (
    AdaptiveEarlyStopper,
    BatchExecutor,
    CachedDiskGraph,
    DeadlineStopper,
    ExecSpec,
    RetryPolicy,
    SearchService,
    ServeSpec,
    WaveSearchEngine,
    WaveStats,
    wave_capable,
)
from repro.engine import wave_search
from repro.engine.frontier import CandidateSet, FrontierPlane
from repro.graphs.navigation import LOCKSTEP_MIN_WAVE
from repro.storage import FaultSpec
from repro.storage.faults import base_disk_graph
from repro.vectors import deep_like, knn, text2image_like

from .conftest import example_budget

# The indexes behind the function-scoped fixture wrappers are session-scoped
# and read-only, so reusing them across generated examples is sound.
COMMON = settings(
    max_examples=example_budget(15), deadline=None,
    suppress_health_check=[
        HealthCheck.too_slow, HealthCheck.function_scoped_fixture,
    ],
)

CHAOS = FaultSpec(
    seed=13, transient_error_rate=0.05, bad_block_rate=0.02,
    corruption_rate=0.02, latency_spike_rate=0.1,
)


def _same_results(a, b) -> None:
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert np.array_equal(x.ids, y.ids)
        assert np.array_equal(x.dists, y.dists)
        # Dataclass __dict__ equality covers every counter, including the
        # nested FaultStats and the per-round-trip block counts.
        assert x.stats.__dict__ == y.stats.__dict__


@pytest.fixture(scope="module")
def chaos_index(small_dataset, graph_config):
    return build_starling(
        small_dataset,
        StarlingConfig(
            graph=graph_config, faults=CHAOS,
            resilience=RetryPolicy(max_retries=3, hedge_after_us=500.0),
        ),
    )


@pytest.fixture(scope="module")
def ip_index(graph_config):
    """An inner-product index and a float32 query pool wider than two
    lockstep crossovers."""
    dataset = text2image_like(400, 2 * LOCKSTEP_MIN_WAVE + 1, seed=7)
    index = build_starling(dataset, StarlingConfig(graph=graph_config))
    return index, np.asarray(dataset.queries, dtype=np.float32)


@pytest.fixture(scope="module")
def duplicated_index(graph_config):
    """A float index whose second half repeats its first, so equal PQ
    distances — inside a candidate set and across its capacity cut — are
    the common case, plus a float32 query pool."""
    dataset = deep_like(600, 2 * LOCKSTEP_MIN_WAVE + 1, seed=11)
    vectors = dataset.vectors.copy()
    vectors[300:] = vectors[:300]
    dataset = dataclasses.replace(dataset, vectors=vectors)
    index = build_starling(dataset, StarlingConfig(graph=graph_config))
    return index, np.asarray(dataset.queries, dtype=np.float32)


def _rearm(index) -> None:
    """Rewind the injector's sequential RNG so two runs see the same fault
    schedule (the schedule depends on the global read order)."""
    injector = base_disk_graph(index.disk_graph).device
    injector._rng = random.Random(CHAOS.seed)
    injector._pending_extra_us = 0.0


# ---------------------------------------------------------------------------
# eligibility


class TestWaveCapability:
    def test_starling_engine_is_capable(self, starling_index):
        assert wave_capable(starling_index.engine)

    def test_beam_engine_is_not(self, diskann_index):
        assert not wave_capable(diskann_index.engine)
        with pytest.raises(ValueError, match="wave-capable"):
            WaveSearchEngine(diskann_index.engine)

    def test_resilience_layer_is_not(self, chaos_index):
        assert not wave_capable(chaos_index.engine)

    def test_full_precision_routing_is_not(self, starling_index):
        engine = starling_index.engine
        engine.use_pq_routing = False
        try:
            assert not wave_capable(engine)
        finally:
            engine.use_pq_routing = True

    def test_lru_wrapper_gates_to_batched(self, starling_index):
        engine = starling_index.engine
        plain = engine.disk_graph
        engine.disk_graph = CachedDiskGraph(plain, capacity_blocks=8)
        try:
            assert not wave_capable(engine)
            executor = BatchExecutor(starling_index, ExecSpec(mode="wave"))
            assert executor.effective_mode() == "batched"
        finally:
            engine.disk_graph = plain

    def test_armed_faults_gate_to_batched(self, chaos_index):
        executor = BatchExecutor(chaos_index, ExecSpec(mode="wave"))
        assert executor.effective_mode() == "batched"

    def test_spann_falls_back_to_serial(self, spann_index):
        executor = BatchExecutor(spann_index, ExecSpec(mode="wave"))
        assert executor.effective_mode() == "serial"


# ---------------------------------------------------------------------------
# bit-identity


class TestWaveEquivalence:
    def test_matches_serial_loop(self, starling_index, small_dataset):
        queries = np.asarray(small_dataset.queries, dtype=np.float32)
        reference = [starling_index.search(q, 10, 48) for q in queries]
        executor = BatchExecutor(starling_index, ExecSpec(mode="wave"))
        assert executor.effective_mode() == "wave"
        _same_results(reference, executor.search_batch(queries, 10, 48))

    def test_single_query_wave(self, starling_index, small_dataset):
        queries = np.asarray(small_dataset.queries[:1], dtype=np.float32)
        reference = [starling_index.search(queries[0], 10, 48)]
        out = BatchExecutor(
            starling_index, ExecSpec(mode="wave")
        ).search_batch(queries, 10, 48)
        _same_results(reference, out)

    @COMMON
    @given(
        seed=st.integers(0, 2**32 - 1),
        nq=st.integers(1, 2 * LOCKSTEP_MIN_WAVE),
        armed=st.booleans(),
    )
    def test_random_waves_match_serial(
        self, starling_index, chaos_index, seed, nq, armed
    ):
        """Wave sizes 1..N, random queries, armed/unarmed fault injection.

        With faults armed the executor gates to in-order batched execution
        (coalescing would reorder the injector's RNG draws) — the output
        must *still* be bit-identical to the serial loop.
        """
        index = chaos_index if armed else starling_index
        rng = np.random.default_rng(seed)
        queries = rng.integers(0, 256, size=(nq, 128)).astype(np.float32)
        if armed:
            _rearm(index)
        reference = [index.search(q, 10, 32) for q in queries]
        if armed:
            _rearm(index)
        executor = BatchExecutor(index, ExecSpec(mode="wave"))
        _same_results(reference, executor.search_batch(queries, 10, 32))
        if armed:
            assert executor.last_wave_stats is None
        else:
            assert executor.last_wave_stats.queries == nq

    def test_ip_metric_wave(self, ip_index):
        """The IP path (per-query kernel slices, no fused reduction)."""
        index, queries = ip_index
        queries = queries[:8]
        reference = [index.search(q, 10, 48) for q in queries]
        executor = BatchExecutor(index, ExecSpec(mode="wave"))
        assert executor.effective_mode() == "wave"
        _same_results(reference, executor.search_batch(queries, 10, 48))

    @pytest.mark.parametrize("metric", ["l2", "ip"])
    @pytest.mark.parametrize(
        "width",
        [LOCKSTEP_MIN_WAVE - 1, LOCKSTEP_MIN_WAVE, 2 * LOCKSTEP_MIN_WAVE + 1],
    )
    def test_round_zero_walk_across_the_crossover(
        self, starling_index, small_dataset, ip_index, metric, width
    ):
        """Just below the crossover the wave seeds with scalar walks, from
        it on with one lockstep walk (L2; IP stays scalar): entry ids — and
        so results — and the walk's share of ``exact_distances`` must not
        depend on which."""
        if metric == "l2":
            index = starling_index
            rng = np.random.default_rng(width)
            queries = rng.integers(0, 256, size=(width, 128)).astype(
                np.float32
            )
        else:
            index, queries = ip_index
            queries = queries[:width]
        reference = [index.search(q, 10, 32) for q in queries]
        out = BatchExecutor(index, ExecSpec(mode="wave")).search_batch(
            queries, 10, 32
        )
        assert [r.stats.exact_distances for r in out] == [
            r.stats.exact_distances for r in reference
        ]
        _same_results(reference, out)

    def test_tables_built_once_when_not_handed_in(
        self, starling_index, small_dataset, monkeypatch
    ):
        """Without the executor's tables a wave makes one batched ADC
        build, not one ``lookup_table`` per seed."""
        queries = np.asarray(small_dataset.queries[:5], dtype=np.float32)
        pq = starling_index.engine.pq
        builds = []
        batched = pq.lookup_tables
        monkeypatch.setattr(
            pq, "lookup_tables",
            lambda qs: builds.append(len(qs)) or batched(qs),
        )
        out = WaveSearchEngine(starling_index.engine).search_wave(
            queries, 10, 48
        )
        assert builds == [5]
        monkeypatch.undo()
        _same_results([starling_index.search(q, 10, 48) for q in queries], out)

    def test_range_batch_falls_back_to_batched(
        self, starling_index, small_dataset
    ):
        radius = small_dataset.default_radius or 120_000.0
        queries = np.asarray(small_dataset.queries[:4], dtype=np.float32)
        reference = [starling_index.range_search(q, radius) for q in queries]
        executor = BatchExecutor(starling_index, ExecSpec(mode="wave"))
        out = executor.range_batch(queries, radius)
        _same_results(reference, out)
        assert executor.last_wave_stats is None


# ---------------------------------------------------------------------------
# the frontier plane: chosen by wave width alone, invisible in every output

WIDTHS = [LOCKSTEP_MIN_WAVE - 1, LOCKSTEP_MIN_WAVE, 2 * LOCKSTEP_MIN_WAVE + 1]


def _wave(index, queries, k, gamma, stoppers=None):
    """One wave through the executor: results, WaveStats, device delta."""
    device = base_disk_graph(index.disk_graph).device
    before = device.counters.snapshot()
    executor = BatchExecutor(index, ExecSpec(mode="wave"))
    out = executor.search_batch(queries, k, gamma, stoppers=stoppers)
    return out, executor.last_wave_stats, device.counters.since(before)


def _assert_plane_invisible(
    monkeypatch, index, queries, k, gamma, make_stoppers=None
):
    """The wave equals the serial loop per query, and — run again with the
    plane switched off — itself in WaveStats and device counters."""
    stoppers = make_stoppers or (lambda: None)
    serial = BatchExecutor(index, ExecSpec(mode="serial")).search_batch(
        queries, k, gamma, stoppers=stoppers()
    )
    out, wave_stats, io = _wave(index, queries, k, gamma, stoppers())
    _same_results(serial, out)
    with monkeypatch.context() as patch:
        patch.setattr(wave_search, "LOCKSTEP_MIN_WAVE", len(queries) + 1)
        per_query, ref_stats, ref_io = _wave(
            index, queries, k, gamma, stoppers()
        )
    _same_results(serial, per_query)
    assert wave_stats == ref_stats
    assert io == ref_io
    return out


class TestFrontierPlaneWaves:
    @pytest.mark.parametrize("width", WIDTHS)
    def test_uint8_l2_fixture(
        self, monkeypatch, starling_index, small_dataset, width
    ):
        rng = np.random.default_rng(width)
        picks = rng.integers(0, len(small_dataset.vectors), size=width)
        queries = (
            small_dataset.vectors[picks].astype(np.float32)
            + rng.normal(0.0, 12.0, size=(width, 128)).astype(np.float32)
        )
        out = _assert_plane_invisible(
            monkeypatch, starling_index, queries, 10, 12
        )
        truth, _ = knn(
            small_dataset.vectors, queries, 10, small_dataset.metric
        )
        hits = sum(
            len(set(r.ids.tolist()) & set(t.tolist()))
            for r, t in zip(out, truth)
        )
        # an operating point where a wrong frontier can show
        assert hits < 10 * width

    @pytest.mark.parametrize("width", WIDTHS)
    def test_duplicated_vectors(self, monkeypatch, duplicated_index, width):
        """Boundary ties are real on this data: the wide waves must hit the
        scalar fallback and still match."""
        index, queries = duplicated_index
        fallbacks = []
        for name in ("push_many", "push_visited_many"):
            scalar = getattr(CandidateSet, name)
            monkeypatch.setattr(
                CandidateSet, name,
                lambda self, *a, _scalar=scalar, _name=name: (
                    fallbacks.append((_name, type(self))),
                    _scalar(self, *a),
                )[1],
            )
        _assert_plane_invisible(monkeypatch, index, queries[:width], 10, 12)
        on_rows = {
            name for name, kind in fallbacks if kind is not CandidateSet
        }
        if width >= LOCKSTEP_MIN_WAVE:
            assert on_rows == {"push_many", "push_visited_many"}
        else:
            assert not on_rows

    @pytest.mark.parametrize("width", WIDTHS)
    def test_ip_index(self, monkeypatch, ip_index, width):
        index, queries = ip_index
        _assert_plane_invisible(monkeypatch, index, queries[:width], 10, 24)

    @pytest.mark.parametrize("quantizer", ["opq", "sq8"])
    def test_other_routers(
        self, monkeypatch, small_float_dataset, graph_config, quantizer
    ):
        """OPQ and SQ8 route through their own ``distances_from_tables``."""
        index = build_starling(
            small_float_dataset,
            StarlingConfig(graph=graph_config, quantizer=quantizer),
        )
        rng = np.random.default_rng(5)
        queries = rng.normal(size=(LOCKSTEP_MIN_WAVE + 3, 96)).astype(
            np.float32
        )
        _assert_plane_invisible(monkeypatch, index, queries, 10, 16)

    @pytest.mark.parametrize("width", WIDTHS)
    @pytest.mark.parametrize("kind", ["adaptive", "deadline"])
    def test_stoppers(
        self, monkeypatch, starling_index, small_dataset, width, kind
    ):
        rng = np.random.default_rng(100 + width)
        queries = rng.integers(0, 256, size=(width, 128)).astype(np.float32)
        if kind == "adaptive":
            def make():
                return [
                    AdaptiveEarlyStopper(10, 1, min_hops=2) for _ in queries
                ]
        else:
            full = [starling_index.search(q, 10, 32) for q in queries]
            budget = 0.5 * min(starling_index.latency_us(r) for r in full)

            def make():
                return [DeadlineStopper(budget) for _ in queries]
        out = _assert_plane_invisible(
            monkeypatch, starling_index, queries, 10, 32, make
        )
        untruncated = [starling_index.search(q, 10, 32) for q in queries]
        assert any(
            r.stats.round_trips < f.stats.round_trips
            for r, f in zip(out, untruncated)
        )

    def test_width_alone_selects_the_plane(
        self, monkeypatch, starling_index
    ):
        """A narrow wave constructs no plane; from ``LOCKSTEP_MIN_WAVE`` on
        there is exactly one per ``search_wave`` call."""
        built = []

        class Spy(FrontierPlane):
            def __init__(self, *args):
                built.append(args)
                super().__init__(*args)

        monkeypatch.setattr(wave_search, "FrontierPlane", Spy)
        rng = np.random.default_rng(1)
        for width in WIDTHS:
            queries = rng.integers(0, 256, size=(width, 128)).astype(
                np.float32
            )
            del built[:]
            _wave(starling_index, queries, 10, 24)
            if width < LOCKSTEP_MIN_WAVE:
                assert built == []
            else:
                assert built == [
                    (width, 24, starling_index.disk_graph.num_vertices)
                ]

    def test_anns_search_tracks_no_kicked_set(
        self, starling_index, diskann_index, small_dataset
    ):
        query = np.asarray(small_dataset.queries[0], dtype=np.float32)
        for index in (starling_index, diskann_index):
            engine = index.engine
            stats = type(index.search(query, 10, 8).stats)()
            candidates, results, table = engine._seed(query, 8, stats)
            engine._run(query, candidates, results, table, stats)
            assert len(results) > 8      # the set overflowed: vertices fell off
            assert not candidates.track_kicked
            assert candidates.kicked == []
            tracked, _, _ = engine._seed(
                query, 8, type(stats)(), track_kicked=True
            )
            assert tracked.track_kicked


# ---------------------------------------------------------------------------
# coalescing telemetry


class TestWaveStats:
    def test_duplicate_queries_coalesce(self, starling_index, small_dataset):
        """Identical queries traverse identically, so every round's reads
        beyond the first copy's are coalesced away."""
        q = np.asarray(small_dataset.queries[0], dtype=np.float32)
        queries = np.stack([q, q, q, q])
        executor = BatchExecutor(starling_index, ExecSpec(mode="wave"))
        results = executor.search_batch(queries, 10, 48)
        stats = executor.last_wave_stats
        assert isinstance(stats, WaveStats)
        assert stats.queries == 4
        assert stats.rounds > 0
        # 4 identical traversals: 3/4 of the requested reads are shared.
        assert stats.issued_block_reads * 4 == stats.requested_block_reads
        assert stats.coalesced_block_reads == 3 * stats.issued_block_reads
        # ... while each copy is still charged its full serial I/O bill.
        per_query = [int(r.stats.num_ios) for r in results]
        assert sum(per_query) == stats.requested_block_reads
        assert len(set(per_query)) == 1

    def test_counter_arithmetic(self, starling_index, small_dataset):
        queries = np.asarray(small_dataset.queries, dtype=np.float32)
        executor = BatchExecutor(starling_index, ExecSpec(mode="wave"))
        results = executor.search_batch(queries, 10, 48)
        stats = executor.last_wave_stats
        assert (
            stats.issued_block_reads + stats.coalesced_block_reads
            == stats.requested_block_reads
        )
        # requested == what the serial loop would issue, query by query.
        assert stats.requested_block_reads == sum(
            int(r.stats.num_ios) for r in results
        )
        assert stats.to_dict()["coalesced_block_reads"] == (
            stats.coalesced_block_reads
        )

    def test_last_wave_stats_cleared_by_other_modes(
        self, starling_index, small_dataset
    ):
        queries = np.asarray(small_dataset.queries[:2], dtype=np.float32)
        executor = BatchExecutor(starling_index, ExecSpec(mode="wave"))
        executor.search_batch(queries, 10, 48)
        assert executor.last_wave_stats is not None
        executor.range_batch(queries, 120_000.0)
        assert executor.last_wave_stats is None
        batched = BatchExecutor(starling_index, ExecSpec(mode="batched"))
        batched.search_batch(queries, 10, 48)
        assert batched.last_wave_stats is None


# ---------------------------------------------------------------------------
# stopper cadence


class TestWaveStoppers:
    def _mid_search_budget(self, index, queries) -> float:
        """A simulated budget that expires mid-traversal for every query."""
        full = [index.search(q, 10, 48) for q in queries]
        return 0.5 * min(index.latency_us(r) for r in full)

    def test_mid_wave_deadline_matches_serial(
        self, starling_index, small_dataset
    ):
        """A deadline expiring mid-wave must truncate each query on exactly
        the round it would serially: stoppers are checked every lockstep
        round, not at wave boundaries."""
        queries = np.asarray(small_dataset.queries, dtype=np.float32)
        budget = self._mid_search_budget(starling_index, queries)
        untruncated = [starling_index.search(q, 10, 48) for q in queries]

        serial_stoppers = [DeadlineStopper(budget) for _ in queries]
        reference = BatchExecutor(
            starling_index, ExecSpec(mode="serial")
        ).search_batch(queries, 10, 48, stoppers=serial_stoppers)

        wave_stoppers = [DeadlineStopper(budget) for _ in queries]
        executor = BatchExecutor(starling_index, ExecSpec(mode="wave"))
        out = executor.search_batch(queries, 10, 48, stoppers=wave_stoppers)

        _same_results(reference, out)
        for serial_stopper, wave_stopper in zip(
            serial_stoppers, wave_stoppers
        ):
            assert serial_stopper.fired == wave_stopper.fired
        # The deadline actually bit: some searches stopped early, and the
        # wave kept charging the truncated I/O bill, not the full one.
        assert any(s.fired for s in wave_stoppers)
        truncated = [
            r for r, f in zip(out, untruncated)
            if r.stats.round_trips < f.stats.round_trips
        ]
        assert truncated

    def test_zero_budget_still_grants_min_rounds(
        self, starling_index, small_dataset
    ):
        queries = np.asarray(small_dataset.queries[:4], dtype=np.float32)
        reference = BatchExecutor(
            starling_index, ExecSpec(mode="serial")
        ).search_batch(
            queries, 10, 48,
            stoppers=[DeadlineStopper(0.0, min_rounds=2) for _ in queries],
        )
        out = BatchExecutor(
            starling_index, ExecSpec(mode="wave")
        ).search_batch(
            queries, 10, 48,
            stoppers=[DeadlineStopper(0.0, min_rounds=2) for _ in queries],
        )
        _same_results(reference, out)
        assert all(r.stats.round_trips >= 1 for r in out)

    def test_adaptive_stopper_matches_serial(
        self, starling_index, small_dataset
    ):
        queries = np.asarray(small_dataset.queries, dtype=np.float32)
        reference = BatchExecutor(
            starling_index, ExecSpec(mode="serial")
        ).search_batch(
            queries, 10, 64,
            stoppers=[AdaptiveEarlyStopper(10, 3) for _ in queries],
        )
        out = BatchExecutor(
            starling_index, ExecSpec(mode="wave")
        ).search_batch(
            queries, 10, 64,
            stoppers=[AdaptiveEarlyStopper(10, 3) for _ in queries],
        )
        _same_results(reference, out)


# ---------------------------------------------------------------------------
# serving-layer opt-in


class TestServeWave:
    def test_spec_round_trip(self):
        spec = ServeSpec(wave=True)
        assert ServeSpec.from_dict(spec.to_dict()) == spec
        assert ServeSpec.from_dict(ServeSpec().to_dict()).wave is False

    def test_service_exec_mode(self, starling_index):
        assert SearchService(
            starling_index, ServeSpec(wave=True)
        )._exec_spec.mode == "wave"
        assert SearchService(
            starling_index, ServeSpec()
        )._exec_spec.mode == "batched"

    def test_trace_outcomes_identical_with_wave(
        self, starling_index, small_dataset
    ):
        """A served trace returns the same answers with waves on or off —
        including under per-query deadline stoppers."""
        queries = np.asarray(small_dataset.queries, dtype=np.float32)
        trace = [float(i) * 50.0 for i in range(len(queries))]
        spec = ServeSpec(workers=2, max_batch=4, deadline_us=1e9)
        plain = SearchService(starling_index, spec).run_trace(trace, queries)
        waved = SearchService(
            starling_index, spec.with_(wave=True)
        ).run_trace(trace, queries)
        assert plain.completed == waved.completed
        for a, b in zip(plain.outcomes, waved.outcomes):
            assert a.status == b.status
            assert a.tier == b.tier
            assert a.truncated == b.truncated
            if a.result is None:
                assert b.result is None
                continue
            np.testing.assert_array_equal(a.result.ids, b.result.ids)
            np.testing.assert_array_equal(a.result.dists, b.result.dists)
