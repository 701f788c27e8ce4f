"""BatchExecutor equivalence: batching must be observably invisible.

The contract of :class:`repro.engine.batch.BatchExecutor` is that however a
batch is scheduled, every query comes back bit-identical to the plain
per-query loop — same ids, same distances, same
:class:`~repro.engine.cost.QueryStats` counters (including
:class:`~repro.engine.cost.FaultStats` when a fault injector is armed).
These tests check the contract on both engines and the one rule that keeps
it true under an armed fault injector: such an index runs as waves of one.
Behind a block cache the wave is full width and only the cache's charges
may differ from the loop (``tests/test_wave_search.py`` checks them against
the (round, row) replay).
"""

from __future__ import annotations

import random
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import StarlingConfig, build_starling
from repro.engine import (
    BatchExecutor,
    CachedDiskGraph,
    ExecSpec,
    RetryPolicy,
)
from repro.storage import FaultSpec
from repro.storage.faults import base_disk_graph, injects_faults

from .conftest import example_budget

# The indexes behind the function-scoped fixture wrapper are session-scoped
# and read-only, so reusing them across generated examples is sound.
COMMON = settings(
    max_examples=example_budget(15), deadline=None,
    suppress_health_check=[
        HealthCheck.too_slow, HealthCheck.function_scoped_fixture,
    ],
)


def _same_results(a, b) -> None:
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert np.array_equal(x.ids, y.ids)
        assert np.array_equal(x.dists, y.dists)
        # Dataclass __dict__ equality covers every counter, including the
        # nested FaultStats and the per-round-trip block counts.
        assert x.stats.__dict__ == y.stats.__dict__


@pytest.fixture(params=["starling_index", "diskann_index"])
def disk_index(request):
    return request.getfixturevalue(request.param)


def _shards(n: int, parts: int) -> list[slice]:
    bounds = np.linspace(0, n, parts + 1).astype(int)
    return [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:]) if hi > lo]


def _run_schedule(schedule: str, index, queries, call) -> list:
    """Drive ``call(executor, queries)`` the way a deleted exec mode did.

    The fan-out modes are gone, but the ways they *called* the engine are
    ways any client may call the one executor, and each must stay
    invisible in the output (the ids keep the modes' names):

    ``batched``    the whole batch, one call.
    ``processes``  contiguous shards, one call each (how process mode cut a
                   batch): the answer must not depend on the batch split.
    ``threads``    the shards again, from concurrent caller threads sharing
                   the index (what live service workers do).
    """
    if schedule == "batched":
        return call(BatchExecutor(index), queries)
    shards = _shards(len(queries), 3)
    if schedule == "processes":
        return [
            r for shard in shards
            for r in call(BatchExecutor(index), queries[shard])
        ]
    assert schedule == "threads"
    parts: list = [None] * len(shards)

    def work(i: int) -> None:
        parts[i] = call(BatchExecutor(index), queries[shards[i]])

    workers = [
        threading.Thread(target=work, args=(i,)) for i in range(len(shards))
    ]
    for t in workers:
        t.start()
    for t in workers:
        t.join(timeout=120)
    assert not any(t.is_alive() for t in workers)
    return [r for part in parts for r in part]


SCHEDULES = ["batched", "threads", "processes"]


class TestExecSpec:
    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            ExecSpec(mode="warp")
        for gone in ("batched", "threads", "processes"):
            with pytest.raises(ValueError):
                ExecSpec(mode=gone)

    def test_rejects_nonpositive_workers(self):
        """``workers`` left with the fan-out modes: any value is an error
        now, not just a non-positive one."""
        for workers in (0, 4):
            with pytest.raises(TypeError):
                ExecSpec(workers=workers)

    def test_default_is_wave(self):
        assert ExecSpec() == ExecSpec(mode="wave", gc_pause=True)


class TestSearchEquivalence:
    @pytest.mark.parametrize("mode", SCHEDULES)
    def test_matches_serial_loop(self, disk_index, small_dataset, mode):
        queries = np.asarray(small_dataset.queries, dtype=np.float32)
        reference = [disk_index.search(q, 10, 48) for q in queries]
        out = _run_schedule(
            mode, disk_index, queries,
            lambda ex, qs: ex.search_batch(qs, 10, 48),
        )
        _same_results(reference, out)

    def test_serial_mode_is_the_reference(self, disk_index, small_dataset):
        queries = np.asarray(small_dataset.queries, dtype=np.float32)
        reference = [disk_index.search(q, 10, 48) for q in queries]
        executor = BatchExecutor(disk_index, ExecSpec(mode="serial"))
        _same_results(reference, executor.search_batch(queries, 10, 48))
        assert executor.last_wave_stats is None

    def test_empty_batch(self, disk_index):
        assert BatchExecutor(disk_index).search_batch(
            np.zeros((0, 128), dtype=np.float32)
        ) == []
        assert BatchExecutor(disk_index).range_batch(
            np.zeros((0, 128), dtype=np.float32), 1.0
        ) == []

    def test_amortizations_can_be_disabled(
        self, disk_index, small_dataset, monkeypatch
    ):
        """``gc_pause`` is the one amortization left with a switch; off, the
        collector is never touched and the answers are the same."""
        import gc

        queries = np.asarray(small_dataset.queries[:4], dtype=np.float32)
        reference = [disk_index.search(q, 10, 48) for q in queries]
        toggles = []
        monkeypatch.setattr(gc, "disable", lambda: toggles.append("off"))
        spec = ExecSpec(gc_pause=False)
        out = BatchExecutor(disk_index, spec).search_batch(queries, 10, 48)
        assert toggles == []
        BatchExecutor(disk_index).search_batch(queries, 10, 48)
        assert toggles == ["off"]
        _same_results(reference, out)

    @COMMON
    @given(seed=st.integers(0, 2**32 - 1), nq=st.integers(1, 5))
    def test_random_query_batches(self, disk_index, seed, nq):
        rng = np.random.default_rng(seed)
        queries = rng.integers(0, 256, size=(nq, 128)).astype(np.float32)
        reference = [disk_index.search(q, 10, 32) for q in queries]
        out = BatchExecutor(disk_index).search_batch(queries, 10, 32)
        _same_results(reference, out)

    def test_bare_engine(self, disk_index, small_dataset):
        """A bare engine is a valid executor target for ANNS batches."""
        queries = np.asarray(small_dataset.queries[:5], dtype=np.float32)
        reference = [disk_index.search(q, 10, 32) for q in queries]
        out = BatchExecutor(disk_index.engine).search_batch(queries, 10, 32)
        _same_results(reference, out)


class TestRangeEquivalence:
    @pytest.mark.parametrize("mode", SCHEDULES)
    def test_matches_serial_loop(self, disk_index, small_dataset, mode):
        radius = small_dataset.default_radius or 120_000.0
        queries = np.asarray(small_dataset.queries[:6], dtype=np.float32)
        reference = [disk_index.range_search(q, radius) for q in queries]
        out = _run_schedule(
            mode, disk_index, queries,
            lambda ex, qs: ex.range_batch(qs, radius),
        )
        _same_results(reference, out)


class TestDeterminismGates:
    CHAOS = FaultSpec(
        seed=13, transient_error_rate=0.05, bad_block_rate=0.02,
        corruption_rate=0.02, latency_spike_rate=0.1,
    )

    @pytest.fixture(scope="class")
    def chaos_index(self, small_dataset, graph_config):
        return build_starling(
            small_dataset,
            StarlingConfig(
                graph=graph_config, faults=self.CHAOS,
                resilience=RetryPolicy(max_retries=3, hedge_after_us=500.0),
            ),
        )

    def _rearm(self, index) -> None:
        """Rewind the injector's sequential RNG so two runs see the same
        fault schedule (the schedule depends on the global read order)."""
        injector = base_disk_graph(index.disk_graph).device
        injector._rng = random.Random(self.CHAOS.seed)
        injector._pending_extra_us = 0.0

    def test_fanout_gates_to_batched_when_faults_armed(
        self, chaos_index, small_dataset
    ):
        """Armed faults make the batch run as waves of one: nothing
        coalesces, and the device sees exactly the reads the queries were
        charged, one query after another."""
        assert injects_faults(chaos_index.engine.disk_graph)
        queries = np.asarray(small_dataset.queries, dtype=np.float32)
        device = base_disk_graph(chaos_index.disk_graph).device
        self._rearm(chaos_index)
        before = device.counters.snapshot()
        executor = BatchExecutor(chaos_index, ExecSpec(mode="wave"))
        out = executor.search_batch(queries, 10, 48)
        io = device.counters.since(before)
        stats = executor.last_wave_stats
        assert stats.queries == len(queries)
        assert stats.coalesced_block_reads == 0
        assert stats.rounds >= max(len(r.stats.round_trip_blocks) for r in out)
        assert sum(r.stats.num_ios for r in out) == io.blocks_read

    def test_fault_stats_identical_serial_vs_batched(
        self, chaos_index, small_dataset
    ):
        queries = np.asarray(small_dataset.queries, dtype=np.float32)
        self._rearm(chaos_index)
        reference = [chaos_index.search(q, 10, 48) for q in queries]
        self._rearm(chaos_index)
        out = BatchExecutor(chaos_index).search_batch(queries, 10, 48)
        _same_results(reference, out)
        # The chaos actually fired, so FaultStats equality was non-trivial.
        assert any(r.stats.fault.any for r in reference)

    def test_lru_cache_runs_one_wave(self, small_dataset, graph_config):
        """A stateful cache wrapper no longer gates the width: the batch is
        one wave whose answers equal the serial loop's, and the wrapper's
        own hit/miss counters agree with what the queries were charged and
        what the device saw."""
        index = build_starling(
            small_dataset, StarlingConfig(graph=graph_config)
        )
        plain = index.engine.disk_graph
        device = base_disk_graph(plain).device
        queries = np.asarray(small_dataset.queries, dtype=np.float32)

        index.engine.disk_graph = CachedDiskGraph(plain, 8)
        reference = [index.search(q, 10, 48) for q in queries]

        index.engine.disk_graph = wave_lru = CachedDiskGraph(plain, 8)
        before = device.counters.snapshot()
        executor = BatchExecutor(index, ExecSpec(mode="wave"))
        out = executor.search_batch(queries, 10, 48)
        io = device.counters.since(before)
        for a, b in zip(reference, out):
            assert np.array_equal(a.ids, b.ids)
            assert np.array_equal(a.dists, b.dists)
            assert a.stats.hops == b.stats.hops
        assert wave_lru.hits == sum(r.stats.block_cache_hits for r in out)
        assert wave_lru.misses == sum(r.stats.num_ios for r in out)
        assert wave_lru.misses == io.blocks_read
        assert wave_lru.hits > 0
        assert executor.last_wave_stats.coalesced_block_reads == 0

    def test_spann_falls_back_to_serial(self, spann_index, small_dataset):
        """No disk graph, nothing to share: the plain loop, in any mode."""
        executor = BatchExecutor(spann_index, ExecSpec(mode="wave"))
        queries = np.asarray(small_dataset.queries[:4], dtype=np.float32)
        reference = [spann_index.search(q, 10, 48) for q in queries]
        _same_results(reference, executor.search_batch(queries, 10, 48))
        assert executor.last_wave_stats is None
