"""The one block-search driver: every width equals the scalar oracle.

``BlockSearchEngine._rounds`` is the only loop that runs Algorithm 2 in
``src/``; a single query is a wave of one.  Lockstep is scheduling, not
semantics: per-query results and :class:`~repro.engine.cost.QueryStats` must
be bit-identical to ``tests/oracles.py::oracle_block_search`` (the scalar
loop the engine used to carry) at every wave width and over every read path
— while cross-query read sharing shows up only in the batch-level
:class:`~repro.engine.cost.WaveStats`.  These tests pin that identity as
one matrix (width × read path / feature), plus the per-round stopper
cadence, the width rule, concurrency on one engine, and the serving layer.
"""

from __future__ import annotations

import dataclasses
import random
import sys
import threading
from contextlib import contextmanager

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
    LocalityBlockCache,
    PinnedBlockCache,
    RetryPolicy,
    SearchService,
    ServeSpec,
    WaveStats,
    incremental_range_search,
)
from repro.engine import block_search
from repro.engine.frontier import CandidateSet, FrontierPlane
from repro.graphs.navigation import LOCKSTEP_MIN_WAVE
from repro.storage import FaultSpec
from repro.storage.faults import base_disk_graph, injects_faults
from repro.vectors import bigann_like, deep_like, knn, text2image_like

from .conftest import example_budget
from .oracles import (
    OracleBlockSearch,
    oracle_block_search,
    oracle_wave_search,
)

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

WIDTHS = [
    1, LOCKSTEP_MIN_WAVE - 1, LOCKSTEP_MIN_WAVE, 2 * LOCKSTEP_MIN_WAVE + 1,
]


def _same_results(a, b) -> None:
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert np.array_equal(x.ids, y.ids)
        assert np.array_equal(x.dists, y.dists)
        # Dataclass __dict__ equality covers every counter, including the
        # nested FaultStats and the per-round-trip block counts.
        assert x.stats.__dict__ == y.stats.__dict__
        assert x.degraded == y.degraded


#: the QueryStats fields a block cache moves: where a block came from
CHARGES = ("round_trip_blocks", "block_cache_hits", "prefetch_blocks")


def _same_answers(a, b) -> None:
    """ids, dists, ``degraded`` and every QueryStats field but a cache's
    charges are equal."""
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert np.array_equal(x.ids, y.ids)
        assert np.array_equal(x.dists, y.dists)
        assert x.degraded == y.degraded
        assert {
            f: v for f, v in x.stats.__dict__.items() if f not in CHARGES
        } == {
            f: v for f, v in y.stats.__dict__.items() if f not in CHARGES
        }


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


@pytest.fixture(scope="module")
def short_block_index(graph_config):
    """n is not a multiple of ε: the layout's last block is not full, so a
    wide wave's ``[pairs, ε]`` planes carry empty slots."""
    dataset = bigann_like(607, 4, seed=9)
    index = build_starling(dataset, StarlingConfig(graph=graph_config))
    dg = index.disk_graph
    last = dg.vertices_in_block(dg.num_blocks - 1)
    assert 0 < len(last) < dg.fmt.vertices_per_block
    queries = _noisy_queries(dataset, WIDTHS[-1], seed=2)
    # the first queries sit on the short block's own vertices: every width
    # of the matrix reads it
    queries[:len(last)] = dataset.vectors[last].astype(np.float32) + 1.0
    return index, queries


def _rearm(index) -> None:
    """Rewind the injector's sequential RNG so two runs see the same fault
    schedule (the schedule depends on the global read order)."""
    injector = base_disk_graph(index.disk_graph).device
    injector._rng = random.Random(CHAOS.seed)
    injector._pending_extra_us = 0.0


@pytest.fixture(scope="module")
def fold_index(small_dataset, graph_config):
    """A bamg-pruned index: the co-resident fold is on."""
    index = build_starling(
        small_dataset,
        StarlingConfig(graph=graph_config, shuffle="bamg"),
    )
    assert index.engine.fold_coresident
    return index


def _noisy_queries(dataset, count: int, seed: int = 0) -> np.ndarray:
    """Base vectors plus noise: near the data, so a shallow search misses
    some true neighbours (recall@10 < 1 — a wrong frontier can show)."""
    rng = np.random.default_rng(seed)
    picks = rng.integers(0, len(dataset.vectors), size=count)
    noise = rng.normal(0.0, 12.0, size=(count, dataset.vectors.shape[1]))
    return (dataset.vectors[picks] + noise).astype(np.float32)


def _oracle(index, queries, k, gamma, stoppers=None) -> list:
    """The scalar reference: one query after another, in order."""
    out = []
    for i, q in enumerate(queries):
        stopper = stoppers[i] if stoppers is not None else None
        index._bind_costs(stopper)
        out.append(
            oracle_block_search(index.engine, q, k, gamma, stopper=stopper)
        )
    return out


def _replay(index, queries, k, gamma, stoppers=None) -> list:
    """The scalar oracle replayed in the round loop's (round, row) order:
    the reference for a wide wave's charges behind a stateful cache."""
    for stopper in stoppers or ():
        index._bind_costs(stopper)
    return oracle_wave_search(
        index.engine, queries, k, gamma, stoppers=stoppers
    )


def _rounds_alone(index, queries, k, gamma) -> list[int]:
    """Rounds the round loop advances for each query as its own call
    (rounds are a property of the traversal, not of the read path's
    state): one wave takes their max, waves of one their sum."""
    rounds = []
    for q in queries:
        executor = BatchExecutor(index, ExecSpec(mode="wave"))
        executor.search_batch(q[None], k, gamma)
        rounds.append(executor.last_wave_stats.rounds)
    return rounds


def _rounds_of(result) -> int:
    """Rounds one query advanced on the coalesced path (one charge each)."""
    return len(result.stats.round_trip_blocks)


# ---------------------------------------------------------------------------
# the equivalence matrix: width × read path / feature, against the oracle


@contextmanager
def _engine_attr(index, **attrs):
    engine = index.engine
    saved = {name: getattr(engine, name) for name in attrs}
    for name, value in attrs.items():
        setattr(engine, name, value)
    try:
        yield
    finally:
        for name, value in saved.items():
            setattr(engine, name, value)


class _Case:
    """One cell row of the matrix: an index, its queries, and ``fresh()`` —
    called before *each* run so the oracle and the engine both start from
    the same read-path state (a new cache wrapper, a rewound fault RNG)."""

    def __init__(self, index, queries, *, k=10, gamma=12, wrap=None,
                 rearm=False, stoppers=None, **engine_attrs):
        self.index = index
        self.queries = queries
        self.k = k
        self.gamma = gamma
        self.wrap = wrap
        self.rearm = rearm
        self.stoppers = stoppers or (lambda n: None)
        self.engine_attrs = engine_attrs
        self.plain = index.engine.disk_graph

    def fresh(self) -> None:
        if self.wrap is not None:
            self.index.engine.disk_graph = self.wrap(self.plain)
        if self.rearm:
            _rearm(self.index)

    @contextmanager
    def installed(self):
        with _engine_attr(self.index, **self.engine_attrs):
            try:
                yield self
            finally:
                self.index.engine.disk_graph = self.plain


def _lru(plain):
    return CachedDiskGraph(plain, capacity_blocks=8)


def _hot(plain):
    return PinnedBlockCache(plain, range(0, plain.num_blocks, 5))


def _locality(plain):
    return LocalityBlockCache(plain, 8, prefetch_blocks=2)


CASES = [
    "plain", "lru", "hot", "locality_prefetch", "retry_unarmed",
    "faults_retry", "faults_no_retry", "fold", "fold_lru", "exact_routing",
    "exact_routing_lru", "ip", "duplicated", "adaptive", "deadline",
    "short_block", "sigma_0", "sigma_1", "beam_1", "beam_8",
]


@pytest.fixture()
def matrix_case(
    request, small_dataset, starling_index, chaos_index, fold_index,
    ip_index, duplicated_index, short_block_index,
):
    name = request.param
    pool = _noisy_queries(small_dataset, WIDTHS[-1])
    if name in ("plain", "lru", "hot", "locality_prefetch"):
        wrap = {"plain": None, "lru": _lru, "hot": _hot,
                "locality_prefetch": _locality}[name]
        case = _Case(starling_index, pool, wrap=wrap)
    elif name == "retry_unarmed":
        case = _Case(starling_index, pool, resilience=RetryPolicy())
    elif name == "faults_retry":
        case = _Case(chaos_index, pool, rearm=True)
    elif name == "faults_no_retry":
        case = _Case(chaos_index, pool, rearm=True,
                     resilience=RetryPolicy(max_retries=0))
    elif name == "fold":
        case = _Case(fold_index, pool)
    elif name == "fold_lru":
        case = _Case(fold_index, pool, wrap=_lru)
    elif name == "exact_routing":
        case = _Case(starling_index, pool, use_pq_routing=False)
    elif name == "exact_routing_lru":
        # routing reads go through the cache too, in the expand step: a
        # replay that reads a row's blocks after earlier rows' expansions
        # sees another hit sequence
        case = _Case(starling_index, pool, wrap=_lru, use_pq_routing=False)
    elif name == "ip":
        case = _Case(*ip_index, gamma=24)
    elif name == "duplicated":
        case = _Case(*duplicated_index)
    elif name == "short_block":
        case = _Case(*short_block_index)
    elif name in ("sigma_0", "sigma_1"):
        # σ = 1 keeps every co-located vertex: an empty slot of the short
        # block that passed for one would surface as a result
        case = _Case(*short_block_index, pruning_ratio=float(name[-1]))
    elif name in ("beam_1", "beam_8"):
        case = _Case(*short_block_index, beam_width=int(name[-1]))
    elif name == "adaptive":
        case = _Case(
            starling_index, pool, gamma=32,
            stoppers=lambda n: [
                AdaptiveEarlyStopper(10, 1, min_hops=2) for _ in range(n)
            ],
        )
    else:
        assert name == "deadline"
        full = [starling_index.search(q, 10, 32) for q in pool]
        budget = 0.5 * min(starling_index.latency_us(r) for r in full)
        case = _Case(
            starling_index, pool, gamma=32,
            stoppers=lambda n: [DeadlineStopper(budget) for _ in range(n)],
        )
    with case.installed():
        yield name, case


#: rows whose read path holds state a wide wave exercises: their charges
#: are checked against the (round, row) replay, their answers against the
#: serial oracle
REPLAYED = (
    "lru", "hot", "locality_prefetch", "fold_lru", "exact_routing",
    "exact_routing_lru",
)


class TestEquivalenceMatrix:
    @pytest.mark.parametrize("width", WIDTHS)
    @pytest.mark.parametrize("matrix_case", CASES, indirect=True)
    def test_wave_equals_oracle(self, matrix_case, width):
        """ids, dists and ``degraded`` equal the scalar oracle, and so does
        the whole QueryStats — except behind a stateful read path, whose
        charges equal the oracle replayed in (round, row) order instead.
        Every block a query was charged left the device (or was coalesced
        by the wave); an armed injector keeps waves of one; a plain wide
        wave coalesces."""
        name, case = matrix_case
        index, k, gamma = case.index, case.k, case.gamma
        queries = case.queries[:width]
        device = base_disk_graph(case.plain).device

        case.fresh()
        want_stoppers = case.stoppers(width)
        reference = _oracle(index, queries, k, gamma, want_stoppers)

        case.fresh()
        got_stoppers = case.stoppers(width)
        armed = injects_faults(index.engine.disk_graph)
        before = device.counters.snapshot()
        executor = BatchExecutor(index, ExecSpec(mode="wave"))
        out = executor.search_batch(queries, k, gamma, stoppers=got_stoppers)
        io = device.counters.since(before)
        stats = executor.last_wave_stats

        if name in REPLAYED:
            _same_answers(reference, out)
            case.fresh()
            _same_results(_replay(index, queries, k, gamma), out)
        else:
            _same_results(reference, out)
        if name == "deadline":
            assert [s.fired for s in want_stoppers] == [
                s.fired for s in got_stoppers
            ]
        assert stats.queries == width
        assert armed == (name in ("faults_retry", "faults_no_retry"))
        assert sum(r.stats.num_ios for r in out) == (
            io.blocks_read + stats.coalesced_block_reads
        )
        if armed or width == 1:
            # waves of one: nothing shared, every charge is a device read
            assert stats.coalesced_block_reads == 0
        elif name not in REPLAYED + ("retry_unarmed",):
            # one wave: as many rounds as its longest query, reads shared
            assert stats.rounds == max(_rounds_of(r) for r in out)
            assert stats.requested_block_reads == sum(
                r.stats.num_ios for r in out
            )
            assert stats.issued_block_reads == io.blocks_read
            if name == "plain":
                assert stats.coalesced_block_reads > 0

    @pytest.mark.parametrize(
        "matrix_case", ["plain", "lru", "faults_no_retry", "fold",
                        "deadline"],
        indirect=True,
    )
    def test_matrix_is_not_vacuous(self, matrix_case, small_dataset):
        """Each feature the matrix claims to cover actually fires at this
        operating point — and recall is below 1, so a wrong frontier shows."""
        name, case = matrix_case
        case.fresh()
        out = _oracle(
            case.index, case.queries, case.k, case.gamma,
            case.stoppers(len(case.queries)),
        )
        if name == "plain":
            truth, _ = knn(
                small_dataset.vectors, case.queries, 10, small_dataset.metric
            )
            hits = sum(
                len(set(r.ids.tolist()) & set(t.tolist()))
                for r, t in zip(out, truth)
            )
            assert hits < 10 * len(out)
        elif name == "lru":
            assert sum(r.stats.block_cache_hits for r in out) > 0
        elif name == "faults_no_retry":
            assert sum(r.stats.fault.blocks_abandoned for r in out) > 0
            assert sum(r.stats.fault.vertices_abandoned for r in out) > 0
            assert any(r.degraded for r in out)
        elif name == "fold":
            with _engine_attr(case.index, fold_coresident=False):
                unfolded = _oracle(case.index, case.queries, 10, case.gamma)
            assert sum(r.stats.round_trips for r in out) < sum(
                r.stats.round_trips for r in unfolded
            )
        else:
            untruncated = _oracle(case.index, case.queries, 10, case.gamma)
            assert any(
                r.stats.round_trips < f.stats.round_trips
                for r, f in zip(out, untruncated)
            )

    @pytest.mark.parametrize(
        "matrix_case", ["plain", "lru", "fold", "faults_retry"],
        indirect=True,
    )
    def test_range_search_equals_oracle_range_loop(
        self, matrix_case, small_dataset
    ):
        """§5.3 only *resumes* Algorithm 2: ``range_search`` (restarts, the
        kicked set) through the round loop equals the same range driver
        over the scalar oracle."""
        _, case = matrix_case
        radius = small_dataset.default_radius or 120_000.0
        queries = np.asarray(small_dataset.queries, dtype=np.float32)
        case.fresh()
        oracle = OracleBlockSearch(case.index.engine)
        reference = [
            incremental_range_search(
                oracle, q, radius, initial_candidate_size=8
            )
            for q in queries
        ]
        case.fresh()
        out = BatchExecutor(case.index).range_batch(
            queries, radius, initial_candidate_size=8
        )
        _same_results(reference, out)
        assert [r.final_candidate_size for r in out] == [
            r.final_candidate_size for r in reference
        ]
        assert any(r.final_candidate_size > 8 for r in out)  # it restarted

    @COMMON
    @given(
        seed=st.integers(0, 2**32 - 1),
        nq=st.integers(1, 2 * LOCKSTEP_MIN_WAVE),
        cut=st.integers(0, 2 * LOCKSTEP_MIN_WAVE),
        armed=st.booleans(),
    )
    def test_random_batch_splits_match_oracle(
        self, starling_index, chaos_index, seed, nq, cut, armed
    ):
        """Random queries, random batch sizes, a random split of the batch
        into two calls, armed/unarmed faults: the answers never depend on
        how the batch was cut."""
        index = chaos_index if armed else starling_index
        rng = np.random.default_rng(seed)
        queries = rng.integers(0, 256, size=(nq, 128)).astype(np.float32)
        cut = min(cut, nq)
        if armed:
            _rearm(index)
        reference = _oracle(index, queries, 10, 32)
        if armed:
            _rearm(index)
        executor = BatchExecutor(index, ExecSpec(mode="wave"))
        out = executor.search_batch(queries[:cut], 10, 32)
        out += executor.search_batch(queries[cut:], 10, 32)
        _same_results(reference, out)


# ---------------------------------------------------------------------------
# the width rule: one wave, unless an injector is armed — observable in the
# wave counters


class TestWaveCapability:
    def test_starling_engine_is_capable(self, starling_index, small_dataset):
        assert not injects_faults(starling_index.engine.disk_graph)
        queries = np.asarray(small_dataset.queries, dtype=np.float32)
        executor = BatchExecutor(starling_index, ExecSpec(mode="wave"))
        out = executor.search_batch(queries, 10, 48)
        # the whole batch was one wave
        assert executor.last_wave_stats.rounds == max(map(_rounds_of, out))

    def test_beam_engine_is_not(self, diskann_index, small_dataset):
        """The DiskANN baseline keeps its own driver: in order, no wave."""
        assert not hasattr(diskann_index.engine, "search_wave")
        queries = np.asarray(small_dataset.queries, dtype=np.float32)
        executor = BatchExecutor(diskann_index, ExecSpec(mode="wave"))
        _same_results(
            [diskann_index.search(q, 10, 48) for q in queries],
            executor.search_batch(queries, 10, 48),
        )
        assert executor.last_wave_stats is None

    def test_resilience_layer_is_not(self, starling_index, chaos_index,
                                     small_dataset):
        """An armed injector keeps waves of one; a retry policy over a
        healthy device does not — it runs at full width, reading per query."""
        assert injects_faults(chaos_index.engine.disk_graph)
        queries = np.asarray(small_dataset.queries, dtype=np.float32)
        with _engine_attr(starling_index, resilience=RetryPolicy()):
            assert not injects_faults(starling_index.engine.disk_graph)
            executor = BatchExecutor(starling_index, ExecSpec(mode="wave"))
            out = executor.search_batch(queries, 10, 48)
        stats = executor.last_wave_stats
        assert stats.rounds == max(map(_rounds_of, out))
        assert stats.coalesced_block_reads == 0

    def test_full_precision_routing_runs_one_wave(self, starling_index,
                                                  small_dataset):
        """Exact routing reads mid-round, in row order, from a stateless
        graph: the batch is one wave, as long as its longest query, and
        every query equals its serial answer."""
        queries = np.asarray(small_dataset.queries[:3], dtype=np.float32)
        with _engine_attr(starling_index, use_pq_routing=False):
            reference = [starling_index.search(q, 10, 16) for q in queries]
            executor = BatchExecutor(starling_index, ExecSpec(mode="wave"))
            out = executor.search_batch(queries, 10, 16)
            alone = _rounds_alone(starling_index, queries, 10, 16)
        assert all(r.stats.pq_distances == 0 for r in out)
        _same_results(reference, out)
        assert executor.last_wave_stats.rounds == max(alone) < sum(alone)

    def test_lru_wrapper_runs_one_wave(self, starling_index, small_dataset):
        """A cache wrapper no longer gates the width: the rounds overlap
        (the wave is as long as its longest query), every read goes
        through the wrapper per query, and the wrapper counted every
        block the queries asked for."""
        engine = starling_index.engine
        plain = engine.disk_graph
        queries = np.asarray(small_dataset.queries, dtype=np.float32)
        engine.disk_graph = lru = CachedDiskGraph(plain, capacity_blocks=8)
        try:
            executor = BatchExecutor(starling_index, ExecSpec(mode="wave"))
            out = executor.search_batch(queries, 10, 48)
            alone = _rounds_alone(starling_index, queries, 10, 48)
        finally:
            engine.disk_graph = plain
        stats = executor.last_wave_stats
        assert stats.rounds == max(alone) < sum(alone)
        assert stats.coalesced_block_reads == 0
        assert stats.requested_block_reads == sum(
            r.stats.num_ios + r.stats.block_cache_hits for r in out
        )

    def test_armed_faults_gate_to_batched(self, chaos_index, small_dataset):
        assert injects_faults(chaos_index.engine.disk_graph)
        queries = np.asarray(small_dataset.queries, dtype=np.float32)
        _rearm(chaos_index)
        executor = BatchExecutor(chaos_index, ExecSpec(mode="wave"))
        executor.search_batch(queries, 10, 48)
        stats = executor.last_wave_stats
        assert stats.coalesced_block_reads == 0
        # waves of one: their rounds add up query by query, as the same
        # queries alone (in order, under the same fault schedule) do
        _rearm(chaos_index)
        assert stats.rounds == sum(
            _rounds_alone(chaos_index, queries, 10, 48)
        )

    def test_spann_falls_back_to_serial(self, spann_index, small_dataset):
        assert getattr(spann_index, "disk_graph", None) is None
        queries = np.asarray(small_dataset.queries[:3], dtype=np.float32)
        executor = BatchExecutor(spann_index, ExecSpec(mode="wave"))
        out = executor.search_batch(queries, 10, 48)
        assert [r.ids.tolist() for r in out] == [
            spann_index.search(q, 10, 48).ids.tolist() for q in queries
        ]
        assert executor.last_wave_stats is None


# ---------------------------------------------------------------------------
# bit-identity to the public per-query surface


class TestWaveEquivalence:
    def test_matches_serial_loop(self, starling_index, small_dataset):
        queries = np.asarray(small_dataset.queries, dtype=np.float32)
        reference = [starling_index.search(q, 10, 48) for q in queries]
        executor = BatchExecutor(starling_index, ExecSpec(mode="wave"))
        _same_results(reference, executor.search_batch(queries, 10, 48))

    def test_single_query_wave(self, starling_index, small_dataset):
        """``search`` *is* a wave of one — and both are the oracle."""
        queries = np.asarray(small_dataset.queries[:1], dtype=np.float32)
        reference = _oracle(starling_index, queries, 10, 48)
        _same_results(reference, [starling_index.search(queries[0], 10, 48)])
        out = BatchExecutor(
            starling_index, ExecSpec(mode="wave")
        ).search_batch(queries, 10, 48)
        _same_results(reference, out)
        assert starling_index.engine.search_wave(
            np.zeros((0, 128), dtype=np.float32), 10, 48
        ) == []

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

        With faults armed the executor runs waves of one (coalescing would
        reorder the injector's RNG draws) — the output must *still* be
        bit-identical to the serial loop.
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
        assert executor.last_wave_stats.queries == nq
        if armed:
            assert executor.last_wave_stats.coalesced_block_reads == 0

    def test_ip_metric_wave(self, ip_index):
        """The IP path (per-query kernel slices, no fused reduction)."""
        index, queries = ip_index
        queries = queries[:8]
        reference = [index.search(q, 10, 48) for q in queries]
        executor = BatchExecutor(index, ExecSpec(mode="wave"))
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
        build, not one ``lookup_table`` per seed — and none at all when PQ
        routing is off."""
        queries = np.asarray(small_dataset.queries[:5], dtype=np.float32)
        pq = starling_index.engine.pq
        builds = []
        batched = pq.lookup_tables
        monkeypatch.setattr(
            pq, "lookup_tables",
            lambda qs: builds.append(len(qs)) or batched(qs),
        )
        out = starling_index.engine.search_wave(queries, 10, 48)
        assert builds == [5]
        with _engine_attr(starling_index, use_pq_routing=False):
            starling_index.engine.search_wave(queries[:2], 10, 8)
            BatchExecutor(starling_index).search_batch(queries[:2], 10, 8)
        assert builds == [5]
        monkeypatch.undo()
        _same_results([starling_index.search(q, 10, 48) for q in queries], out)

    def test_range_batch_falls_back_to_batched(
        self, starling_index, small_dataset
    ):
        """A range batch resumes each query on its own, in order."""
        radius = small_dataset.default_radius or 120_000.0
        queries = np.asarray(small_dataset.queries[:4], dtype=np.float32)
        reference = [starling_index.range_search(q, radius) for q in queries]
        executor = BatchExecutor(starling_index, ExecSpec(mode="wave"))
        out = executor.range_batch(queries, radius)
        _same_results(reference, out)
        assert executor.last_wave_stats is None

    def test_concurrent_waves_on_one_engine(self, starling_index,
                                            small_dataset):
        """Service workers share one engine: the round loop keeps no
        per-engine scratch, so concurrent ``search_wave`` calls (wide and
        narrow) equal the sequential ones."""
        engine = starling_index.engine
        pool = _noisy_queries(small_dataset, WIDTHS[-1], seed=4)
        batches = [pool[:LOCKSTEP_MIN_WAVE + 1], pool[LOCKSTEP_MIN_WAVE + 1:],
                   pool[:3], pool[5:6]]
        sequential = [engine.search_wave(b, 10, 12) for b in batches]
        failures: list = []

        def work(i: int) -> None:
            try:
                for _ in range(6):
                    _same_results(
                        sequential[i], engine.search_wave(batches[i], 10, 12)
                    )
            except BaseException as exc:  # surfaced by the main thread
                failures.append(exc)
                raise

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            workers = [
                threading.Thread(target=work, args=(i,))
                for i in range(len(batches))
            ]
            for t in workers:
                t.start()
            for t in workers:
                t.join(timeout=120)
            assert not any(t.is_alive() for t in workers)
            assert failures == []
        finally:
            sys.setswitchinterval(interval)


# ---------------------------------------------------------------------------
# the frontier plane: chosen by wave width alone, invisible in every output

PLANE_WIDTHS = WIDTHS[1:]


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
        patch.setattr(block_search, "LOCKSTEP_MIN_WAVE", len(queries) + 1)
        per_query, ref_stats, ref_io = _wave(
            index, queries, k, gamma, stoppers()
        )
    _same_results(serial, per_query)
    assert wave_stats == ref_stats
    assert io == ref_io
    return out


class TestFrontierPlaneWaves:
    @pytest.mark.parametrize("width", PLANE_WIDTHS)
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

    @pytest.mark.parametrize("width", PLANE_WIDTHS)
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

    @pytest.mark.parametrize("width", PLANE_WIDTHS)
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

    @pytest.mark.parametrize("width", PLANE_WIDTHS)
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
        there is exactly one per ``search_wave`` call.  The same switch
        picks the round's selection code: a narrow wave never enters the
        block plane, a wide one never calls ``_select_round``."""
        built = []
        block_rounds = []
        scalar_selects = []

        class Spy(FrontierPlane):
            def __init__(self, *args):
                built.append(args)
                super().__init__(*args)

        class BlockSpy(block_search._BlockPlane):
            def round(self, live):
                block_rounds.append(len(live))
                return super().round(live)

        select_round = block_search.BlockSearchEngine._select_round
        monkeypatch.setattr(block_search, "FrontierPlane", Spy)
        monkeypatch.setattr(block_search, "_BlockPlane", BlockSpy)
        monkeypatch.setattr(
            block_search.BlockSearchEngine, "_select_round",
            lambda self, *args: (
                scalar_selects.append(1), select_round(self, *args)
            )[1],
        )
        rng = np.random.default_rng(1)
        for width in PLANE_WIDTHS:
            queries = rng.integers(0, 256, size=(width, 128)).astype(
                np.float32
            )
            del built[:], block_rounds[:], scalar_selects[:]
            _, wave_stats, _ = _wave(starling_index, queries, 10, 24)
            if width < LOCKSTEP_MIN_WAVE:
                assert built == []
                assert block_rounds == []
                assert scalar_selects
            else:
                assert built == [
                    (width, 24, starling_index.disk_graph.num_vertices)
                ]
                assert len(block_rounds) == wave_stats.rounds
                assert scalar_selects == []

    @pytest.mark.parametrize(
        "name", ["abandoned", "retried", "fold_lru", "fold_retry", "ip_retry"]
    )
    def test_counted_reads_under_a_wide_wave(
        self, monkeypatch, small_dataset, chaos_index, fold_index, ip_index,
        name,
    ):
        """The executor keeps stateful read paths at width 1, but
        ``search_wave`` itself takes any width: a wide wave over per-query
        counted reads — blocks abandoned after retries, a cache wrapper, the
        fold, IP — issues them in the same (round, query) order as the
        per-query primitives at that width, so the two must agree on every
        result, counter and device read."""
        pool = _noisy_queries(small_dataset, WIDTHS[-1], seed=6)
        if name in ("abandoned", "retried"):
            case = _Case(
                chaos_index, pool, rearm=True,
                **({"resilience": RetryPolicy(max_retries=0)}
                   if name == "abandoned" else {}),
            )
        elif name == "fold_lru":
            case = _Case(fold_index, pool, wrap=_lru)
        elif name == "fold_retry":
            case = _Case(fold_index, pool, resilience=RetryPolicy())
        else:
            case = _Case(*ip_index, gamma=24, resilience=RetryPolicy())
        device = base_disk_graph(case.plain).device

        def run():
            case.fresh()
            stats = WaveStats()
            before = device.counters.snapshot()
            out = case.index.engine.search_wave(
                case.queries, case.k, case.gamma, wave_stats=stats
            )
            return out, stats, device.counters.since(before)

        with case.installed():
            wide = run()
            with monkeypatch.context() as patch:
                patch.setattr(
                    block_search, "LOCKSTEP_MIN_WAVE", len(case.queries) + 1
                )
                narrow = run()
        _same_results(narrow[0], wide[0])
        assert wide[1:] == narrow[1:]
        assert wide[1].coalesced_block_reads == 0
        if name == "abandoned":
            assert sum(r.stats.fault.vertices_abandoned for r in wide[0]) > 0
        elif name == "fold_lru":
            assert sum(r.stats.block_cache_hits for r in wide[0]) > 0

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
        serial = BatchExecutor(starling_index, ExecSpec(mode="serial"))
        serial.search_batch(queries, 10, 48)
        assert serial.last_wave_stats is None


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
        spec = ServeSpec(wave=False)
        assert ServeSpec.from_dict(spec.to_dict()) == spec
        assert ServeSpec.from_dict(ServeSpec().to_dict()).wave is True

    def test_service_exec_mode(self, starling_index):
        """The one engine by default; ``wave=False`` is the reference."""
        assert SearchService(
            starling_index, ServeSpec()
        )._exec_spec.mode == "wave"
        assert SearchService(
            starling_index, ServeSpec(wave=False)
        )._exec_spec.mode == "serial"

    def test_trace_outcomes_identical_with_wave(
        self, starling_index, small_dataset
    ):
        """A served trace returns the same answers with waves on or off —
        including under per-query deadline stoppers."""
        queries = np.asarray(small_dataset.queries, dtype=np.float32)
        trace = [float(i) * 50.0 for i in range(len(queries))]
        spec = ServeSpec(workers=2, max_batch=4, deadline_us=1e9)
        plain = SearchService(
            starling_index, spec.with_(wave=False)
        ).run_trace(trace, queries)
        waved = SearchService(starling_index, spec).run_trace(trace, queries)
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
