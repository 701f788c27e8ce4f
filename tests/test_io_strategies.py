"""Tests for the pluggable I/O-strategy seams: layout strategies (incl.
BAMG block-aware pruning + the co-resident fold) and block-cache strategies
(LRU / pinned-hot / locality), plus their config and persist threading."""

import sys
import threading

import numpy as np
import pytest

from repro.core import StarlingConfig, build_starling
from repro.engine import (
    CACHE_STRATEGY_NAMES,
    BatchExecutor,
    CachedDiskGraph,
    ExecSpec,
    LocalityBlockCache,
    PinnedBlockCache,
    RetryPolicy,
    wrap_with_cache_strategy,
)
from repro.graphs import from_neighbor_lists
from repro.layout import (
    LAYOUT_STRATEGY_NAMES,
    assignment_from_layout,
    bamg_prune,
    get_layout_strategy,
    id_contiguous_layout,
    validate_layout,
)
from repro.storage import VertexFormat, build_disk_graph
from repro.storage.faults import FaultInjector, FaultSpec, base_disk_graph
from repro.storage.persist import load_starling, save_starling
from repro.vectors.metrics import get_metric


# -- fixtures -----------------------------------------------------------------

@pytest.fixture(scope="module")
def laid_out_graph(rng_module):
    """A random graph + vectors + a 4-per-block layout, for prune tests."""
    n = 48
    vectors = rng_module.normal(size=(n, 8)).astype(np.float32)
    lists = []
    for u in range(n):
        choice = rng_module.choice(n - 1, size=6, replace=False)
        lists.append(np.where(choice >= u, choice + 1, choice).tolist())
    graph = from_neighbor_lists(lists)
    layout = id_contiguous_layout(n, 4)
    return graph, vectors, layout


@pytest.fixture(scope="module")
def rng_module():
    return np.random.default_rng(11)


@pytest.fixture
def small_disk_graph(rng):
    n = 24
    vectors = rng.integers(0, 256, size=(n, 4)).astype(np.uint8)
    neighbors = [
        np.asarray([(i + 1) % n, (i + 5) % n], dtype=np.uint32)
        for i in range(n)
    ]
    fmt = VertexFormat(dim=4, dtype=np.uint8, max_degree=4, block_bytes=72)
    layout = [list(range(i, i + 3)) for i in range(0, n, 3)]
    return build_disk_graph(vectors, neighbors, layout, fmt)


@pytest.fixture(scope="module")
def hot_index(small_dataset, graph_config):
    """A module-private index built with the pinned-hot cache strategy (it
    carries the offline-selected pinned set the other tests re-wrap)."""
    return build_starling(
        small_dataset,
        StarlingConfig(
            graph=graph_config, cache_strategy="hot", block_cache_blocks=16,
        ),
    )


# -- layout strategy registry --------------------------------------------------

class TestLayoutStrategyRegistry:
    def test_names_cover_shufflers_plus_bamg(self):
        for name in ("none", "bnf", "bnp", "bns", "gp1", "gp2", "gp3",
                     "kmeans", "bamg"):
            assert name in LAYOUT_STRATEGY_NAMES

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown layout strategy"):
            get_layout_strategy("zorder")

    def test_bamg_rejects_self_stacking(self):
        with pytest.raises(ValueError, match="stack"):
            get_layout_strategy("bamg", params=(("base", "bamg"),))

    def test_bamg_rejects_unknown_params(self):
        with pytest.raises(ValueError, match="unknown bamg params"):
            get_layout_strategy("bamg", params=(("portal_budget", 3),))

    def test_default_strategy_is_identity_prune(self, laid_out_graph):
        graph, vectors, layout = laid_out_graph
        strategy = get_layout_strategy("none")
        assert strategy.prune_for_layout(
            graph, layout, vectors, get_metric("l2")
        ) is graph


# -- BAMG pruning --------------------------------------------------------------

class TestBamgPrune:
    def _prune(self, laid_out_graph, **kw):
        graph, vectors, layout = laid_out_graph
        pruned = bamg_prune(graph, layout, vectors, get_metric("l2"), **kw)
        return graph, pruned, assignment_from_layout(layout,
                                                     graph.num_vertices)

    def test_intra_block_edges_preserved(self, laid_out_graph):
        graph, pruned, assignment = self._prune(laid_out_graph)
        for u in range(graph.num_vertices):
            before = set(graph.neighbors(u).tolist())
            after = set(pruned.neighbors(u).tolist())
            intra = {v for v in before if assignment[v] == assignment[u]}
            assert intra <= after

    def test_single_portal_per_destination_block(self, laid_out_graph):
        graph, pruned, assignment = self._prune(laid_out_graph)
        for u in range(graph.num_vertices):
            cross = [
                int(assignment[v]) for v in pruned.neighbors(u).tolist()
                if assignment[v] != assignment[u]
            ]
            assert len(cross) == len(set(cross))

    def test_degree_never_exceeds_original(self, laid_out_graph):
        graph, pruned, _ = self._prune(laid_out_graph)
        for u in range(graph.num_vertices):
            assert pruned.neighbors(u).size <= graph.neighbors(u).size

    def test_refill_only_adds_uncovered_blocks(self, laid_out_graph):
        graph, collapsed, assignment = self._prune(
            laid_out_graph, refill=False
        )
        _, refilled, _ = self._prune(laid_out_graph, refill=True)
        for u in range(graph.num_vertices):
            base = set(collapsed.neighbors(u).tolist())
            extra = set(refilled.neighbors(u).tolist()) - base
            covered = {int(assignment[v]) for v in base} | {
                int(assignment[u])
            }
            for v in extra:
                assert int(assignment[v]) not in covered

    def test_deterministic(self, laid_out_graph):
        _, first, _ = self._prune(laid_out_graph)
        _, second, _ = self._prune(laid_out_graph)
        for u in range(first.num_vertices):
            assert np.array_equal(first.neighbors(u), second.neighbors(u))

    def test_alpha_zero_disables_occlusion(self, laid_out_graph):
        """alpha <= 0 keeps every per-block portal (collapse only)."""
        graph, pruned, assignment = self._prune(
            laid_out_graph, alpha=0.0, refill=False
        )
        for u in range(graph.num_vertices):
            want = {
                int(assignment[v]) for v in graph.neighbors(u).tolist()
                if assignment[v] != assignment[u]
            }
            got = {
                int(assignment[v]) for v in pruned.neighbors(u).tolist()
                if assignment[v] != assignment[u]
            }
            assert got == want

    def test_strategy_emits_valid_partition_and_prunes(self, laid_out_graph):
        graph, vectors, _ = laid_out_graph
        strategy = get_layout_strategy("bamg", params=(("base", "bnp"),))
        layout = strategy.assign(graph, 4, vectors=vectors)
        validate_layout(layout, graph.num_vertices, 4)
        pruned = strategy.prune_for_layout(
            graph, layout, vectors, get_metric("l2")
        )
        assert pruned is not graph

    def test_prune_requires_vectors_and_metric(self, laid_out_graph):
        graph, _, layout = laid_out_graph
        strategy = get_layout_strategy("bamg")
        with pytest.raises(ValueError, match="vectors"):
            strategy.prune_for_layout(graph, layout, None, None)


# -- the co-resident fold (bamg's search-side contract) ------------------------

class TestFoldCoresident:
    def test_config_default_off(self, graph_config):
        cfg = StarlingConfig(graph=graph_config)
        assert cfg.fold_coresident is False

    def test_config_on_for_bamg(self, graph_config):
        cfg = StarlingConfig(graph=graph_config, shuffle="bamg")
        assert cfg.fold_coresident is True

    def test_config_opt_out(self, graph_config):
        cfg = StarlingConfig(
            graph=graph_config, shuffle="bamg",
            layout_params=(("fold", False),),
        )
        assert cfg.fold_coresident is False

    def test_fold_saves_round_trips_at_same_build(
        self, small_dataset, graph_config
    ):
        """The fold consumes co-resident candidates from blocks already in
        memory, so the same bamg-pruned index answers the same queries in
        fewer device round trips."""
        base = StarlingConfig(graph=graph_config, shuffle="bamg")
        folded = build_starling(small_dataset, base)
        unfolded = build_starling(
            small_dataset, base.with_(layout_params=(("fold", False),))
        )
        assert folded.engine.fold_coresident is True
        assert unfolded.engine.fold_coresident is False

        def trips(idx):
            return sum(
                idx.search(q, 10, 64).stats.round_trips
                for q in small_dataset.queries
            )

        assert trips(folded) < trips(unfolded)

    def test_fold_engine_runs_full_width_waves(
        self, small_dataset, graph_config
    ):
        """The fold is a per-query step of the round loop, so a bamg index
        takes the whole batch as one coalescing wave — and still answers
        exactly as the per-query loop does."""
        idx = build_starling(
            small_dataset,
            StarlingConfig(graph=graph_config, shuffle="bamg"),
        )
        queries = np.asarray(small_dataset.queries, dtype=np.float32)
        reference = [idx.search(q, 10, 48) for q in queries]
        executor = BatchExecutor(idx, ExecSpec(mode="wave"))
        out = executor.search_batch(queries, 10, 48)
        for a, b in zip(reference, out):
            assert np.array_equal(a.ids, b.ids)
            assert np.array_equal(a.dists, b.dists)
            assert a.stats.__dict__ == b.stats.__dict__
        assert executor.last_wave_stats.coalesced_block_reads > 0

    def test_default_engine_stays_wave_capable(self, starling_index,
                                               small_dataset):
        """The default engine takes a batch as one coalescing wave."""
        queries = np.asarray(small_dataset.queries, dtype=np.float32)
        executor = BatchExecutor(starling_index, ExecSpec(mode="wave"))
        executor.search_batch(queries, 10, 48)
        assert executor.last_wave_stats.coalesced_block_reads > 0


# -- cache strategy registry ---------------------------------------------------

class TestCacheStrategyRegistry:
    def test_names(self):
        assert CACHE_STRATEGY_NAMES == ("none", "lru", "hot", "locality")

    def test_unknown_rejected(self, small_disk_graph):
        with pytest.raises(ValueError, match="unknown cache strategy"):
            wrap_with_cache_strategy(small_disk_graph, "arc", 4)

    def test_none_and_zero_capacity_are_identity(self, small_disk_graph):
        assert wrap_with_cache_strategy(
            small_disk_graph, "none", 8
        ) is small_disk_graph
        assert wrap_with_cache_strategy(
            small_disk_graph, "lru", 0
        ) is small_disk_graph

    def test_lru(self, small_disk_graph):
        wrapped = wrap_with_cache_strategy(small_disk_graph, "lru", 4)
        assert isinstance(wrapped, CachedDiskGraph)
        assert wrapped.inner is small_disk_graph

    def test_hot_requires_pinned_set(self, small_disk_graph):
        with pytest.raises(ValueError, match="pinned"):
            wrap_with_cache_strategy(small_disk_graph, "hot", 4)
        wrapped = wrap_with_cache_strategy(
            small_disk_graph, "hot", 2, pinned_blocks=(0, 1, 2)
        )
        assert isinstance(wrapped, PinnedBlockCache)
        assert wrapped.pinned_block_ids == (0, 1)  # capacity-truncated

    def test_locality_params(self, small_disk_graph):
        wrapped = wrap_with_cache_strategy(
            small_disk_graph, "locality", 4,
            params=(("decay", 0.5), ("prefetch_blocks", 2)),
        )
        assert isinstance(wrapped, LocalityBlockCache)
        assert wrapped.decay == 0.5
        assert wrapped.prefetch_blocks == 2


# -- pinned-hot cache ----------------------------------------------------------

class TestPinnedBlockCache:
    def test_preload_is_load_time_io(self, small_disk_graph):
        before = small_disk_graph.device.counters.blocks_read
        cache = PinnedBlockCache(small_disk_graph, (0, 1))
        assert small_disk_graph.device.counters.blocks_read == before + 2
        after = small_disk_graph.device.counters.blocks_read
        cache.read_block(0)
        cache.read_blocks([0, 1])
        assert small_disk_graph.device.counters.blocks_read == after
        assert cache.hits == 3 and cache.misses == 0

    def test_unpinned_blocks_pay_every_time(self, small_disk_graph):
        cache = PinnedBlockCache(small_disk_graph, (0,))
        before = small_disk_graph.device.counters.blocks_read
        cache.read_block(3)
        cache.read_block(3)
        assert small_disk_graph.device.counters.blocks_read == before + 2

    def test_rejects_out_of_range(self, small_disk_graph):
        with pytest.raises(ValueError, match="out of range"):
            PinnedBlockCache(small_disk_graph, (999,))


# -- locality cache ------------------------------------------------------------

class TestLocalityBlockCache:
    def test_heat_retains_cross_query_hot_block(self, small_disk_graph):
        """A block re-hit across queries survives one-shot fill pressure
        that would evict it from a plain LRU of the same capacity."""
        cache = LocalityBlockCache(small_disk_graph, 2, decay=1.0,
                                   adjacency_credit=0.0)
        for one_shot in (1, 2, 3, 4, 5):
            cache.read_block(0)
            cache.read_block(one_shot)
        before = small_disk_graph.device.counters.blocks_read
        cache.read_block(0)
        assert small_disk_graph.device.counters.blocks_read == before

    def test_prefetch_charged_and_attributed(self, small_disk_graph):
        cache = LocalityBlockCache(
            small_disk_graph, 8, prefetch_blocks=2, adjacency_credit=0.25
        )
        # First frontier read seeds the predicted set from vertex 0's
        # out-edges; the second read can then pull prefetches.
        before = small_disk_graph.device.counters.snapshot()
        _, fetched1, pulled1 = cache.read_counted([0], frontier=[0])
        _, fetched2, pulled2 = cache.read_counted([3], frontier=[9])
        delta = small_disk_graph.device.counters.since(before)
        prefetched = cache.prefetch_issued
        assert prefetched > 0
        # Honesty: every device read is in some counted fetch, prefetches
        # included — nothing hidden, nothing double-charged.
        assert fetched1 + fetched2 == delta.blocks_read
        assert pulled1 + pulled2 == prefetched

    def test_prefetch_rides_same_round_trip(self, small_disk_graph):
        cache = LocalityBlockCache(
            small_disk_graph, 8, prefetch_blocks=2, adjacency_credit=0.25
        )
        cache.read_counted([0], frontier=[0])
        before = small_disk_graph.device.counters.snapshot()
        cache.read_counted([3], frontier=[9])
        delta = small_disk_graph.device.counters.since(before)
        assert cache.prefetch_issued > 0
        assert delta.round_trips == 1

    def test_rejects_bad_params(self, small_disk_graph):
        with pytest.raises(ValueError):
            LocalityBlockCache(small_disk_graph, -1)
        with pytest.raises(ValueError):
            LocalityBlockCache(small_disk_graph, 2, decay=0.0)
        with pytest.raises(ValueError):
            LocalityBlockCache(small_disk_graph, 2, prefetch_blocks=-1)


# -- engine honesty across every wrapper ---------------------------------------

class TestCounterHonesty:
    @pytest.mark.parametrize("strategy,params", [
        ("none", ()),
        ("lru", ()),
        ("hot", ()),
        ("locality", ()),
        ("locality", (("prefetch_blocks", 2),)),
    ])
    def test_query_ios_match_device_delta(
        self, hot_index, small_dataset, strategy, params
    ):
        """Per-query num_ios / round_trips sums equal the device deltas
        under every cache strategy — hits invisible, prefetches charged."""
        hot_index.apply_cache_strategy(strategy, 16, params=params)
        device = hot_index.disk_graph.device
        before = device.counters.snapshot()
        total_ios, total_trips, total_prefetch = 0, 0, 0
        for q in small_dataset.queries[:6]:
            stats = hot_index.search(q, 10, 64).stats
            total_ios += stats.num_ios
            total_trips += stats.round_trips
            total_prefetch += stats.prefetch_blocks
        delta = device.counters.since(before)
        assert total_ios == delta.blocks_read
        assert total_trips == delta.round_trips
        if params:
            assert total_prefetch > 0


    @pytest.mark.parametrize("strategy,params", [
        ("none", ()),
        ("lru", ()),
        ("hot", ()),
        ("locality", ()),
        ("locality", (("prefetch_blocks", 2),)),
    ])
    def test_quiet_resilient_read_charges_as_strict(
        self, hot_index, small_dataset, strategy, params
    ):
        """A resilient read that sees no fault charges exactly what the
        strict read charges — the locality cache's prediction and prefetch
        included — so a retry policy composes with every strategy."""
        base = base_disk_graph(hot_index.disk_graph)
        device, policy = base.device, hot_index.engine.resilience

        def run(armed):
            hot_index.apply_cache_strategy(strategy, 16, params=params)
            if armed:
                base.device = FaultInjector(device, FaultSpec())
                hot_index.engine.resilience = RetryPolicy()
            try:
                out = [hot_index.search(q, 10, 64)
                       for q in small_dataset.queries[:6]]
            finally:
                base.device, hot_index.engine.resilience = device, policy
            return out, getattr(hot_index.disk_graph, "prefetch_issued", 0)

        (strict, strict_pulled), (quiet, quiet_pulled) = run(False), run(True)
        assert quiet_pulled == strict_pulled
        if params:
            assert strict_pulled > 0
        for a, b in zip(strict, quiet):
            assert np.array_equal(a.ids, b.ids)
            assert np.array_equal(a.dists, b.dists)
            assert a.stats.round_trip_blocks == b.stats.round_trip_blocks
            assert a.stats.block_cache_hits == b.stats.block_cache_hits
            assert a.stats.prefetch_blocks == b.stats.prefetch_blocks
            assert not b.stats.fault.any


    @pytest.mark.parametrize("strategy,params", [
        ("lru", ()),
        ("hot", ()),
        ("locality", (("prefetch_blocks", 1),)),
    ])
    def test_shared_wrapper_under_threads(
        self, hot_index, strategy, params
    ):
        """One wrapper shared by four reader threads (a short switch
        interval forces interleavings): each read is one locked step, so
        nothing raises, the wrapper counts every requested block once and
        the fetches it reports are exactly the device's reads."""
        hot_index.apply_cache_strategy(strategy, 4, params=params)
        cache = hot_index.disk_graph
        graph = base_disk_graph(cache)
        before = graph.device.counters.snapshot()
        asked, fetched, prefetched, errors = [], [], [], []

        def reader(seed: int) -> None:
            rng = np.random.default_rng(seed)
            try:
                for _ in range(1_000):
                    vids = rng.integers(0, graph.num_vertices, 3).tolist()
                    ids = list(dict.fromkeys(
                        graph.vertex_to_block[vids].tolist()
                    ))
                    _, got, pulled = cache.read_counted(ids, frontier=vids)
                    asked.append(len(ids))
                    fetched.append(got)
                    prefetched.append(pulled)
            except Exception as exc:  # reported by the assert below
                errors.append(exc)

        threads = [
            threading.Thread(target=reader, args=(seed,)) for seed in range(4)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors[0]
        assert cache.hits + cache.misses == sum(asked)
        assert cache.misses == sum(fetched) - sum(prefetched)
        assert graph.device.counters.since(before).blocks_read == sum(fetched)


    def test_shared_injector_under_threads(self, small_disk_graph):
        """One fault injector shared by four reader threads: draws are
        keyed by the read, the totals kept under its lock, and each thread
        takes only its own latest spike, so with every round trip spiking,
        every spike is taken exactly once, by the thread that read."""
        injector = FaultInjector(
            small_disk_graph.device, FaultSpec(seed=4, latency_spike_rate=1.0)
        )
        taken, errors = [], []

        def reader(seed: int) -> None:
            rng = np.random.default_rng(seed)
            try:
                for _ in range(2_000):
                    injector.read_blocks(
                        rng.integers(0, injector.num_blocks, 2).tolist()
                    )
                    taken.append(injector.take_injected_latency_us())
            except Exception as exc:  # reported by the assert below
                errors.append(exc)

        threads = [
            threading.Thread(target=reader, args=(seed,)) for seed in range(4)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors[0]
        assert all(us > 0.0 for us in taken)
        assert injector.spikes_injected == len(taken) == 8_000


# -- config + persist threading ------------------------------------------------

class TestConfigResolution:
    def test_layout_falls_back_to_shuffle(self, graph_config):
        """One field, ``shuffle``, names every layout strategy (bamg
        included) and drives the fold.  A config saved with the old second
        field falls back to ``shuffle`` where that field is null and takes
        its value where it is set."""
        from repro.storage.persist import _restore_chaos_fields

        cfg = StarlingConfig(graph=graph_config, shuffle="bnp")
        assert not cfg.fold_coresident
        assert cfg.with_(shuffle="bamg").fold_coresident
        for gone in ("layout_strategy", "resolved_layout_strategy"):
            assert not hasattr(cfg, gone)
        for saved, layout in ((None, "bnp"), ("bamg", "bamg")):
            assert _restore_chaos_fields(
                {"shuffle": "bnp", "layout_strategy": saved}
            ) == {"shuffle": layout}

    def test_cache_legacy_rule(self, graph_config, small_disk_graph):
        """The default ``"lru"`` is the legacy rule: an LRU iff the
        capacity is positive."""
        cfg = StarlingConfig(graph=graph_config)
        assert cfg.cache_strategy == "lru"
        assert wrap_with_cache_strategy(
            small_disk_graph, cfg.cache_strategy, cfg.block_cache_blocks
        ) is small_disk_graph
        assert isinstance(wrap_with_cache_strategy(
            small_disk_graph, cfg.cache_strategy, 8
        ), CachedDiskGraph)
        with pytest.raises(ValueError, match="cache strategy"):
            StarlingConfig(graph=graph_config, cache_strategy=None)

    def test_unknown_names_rejected(self, graph_config):
        with pytest.raises(ValueError, match="layout strategy"):
            StarlingConfig(graph=graph_config, shuffle="zorder")
        with pytest.raises(ValueError, match="cache strategy"):
            StarlingConfig(graph=graph_config, cache_strategy="arc")

    def test_params_normalized_from_json_lists(self, graph_config):
        cfg = StarlingConfig(
            graph=graph_config,
            layout_params=[["base", "bnf"]], cache_params=[["decay", 0.5]],
        )
        assert cfg.layout_params == (("base", "bnf"),)
        assert cfg.cache_params == (("decay", 0.5),)
        hash(cfg.layout_params)  # must stay hashable for bench memoization


class TestPersistRoundTrip:
    def test_strategies_survive_save_load(
        self, hot_index, small_dataset, tmp_path
    ):
        hot_index.apply_cache_strategy("hot", 16)
        save_starling(hot_index, tmp_path / "idx")
        loaded = load_starling(tmp_path / "idx")
        assert loaded.config.cache_strategy == "hot"
        assert loaded.config.block_cache_blocks == 16
        assert (
            loaded.disk_graph.pinned_block_ids
            == hot_index.disk_graph.pinned_block_ids
        )
        q = small_dataset.queries[0]
        assert np.array_equal(
            loaded.search(q, 10, 64).ids, hot_index.search(q, 10, 64).ids
        )

    def test_bamg_config_survives_save_load(
        self, small_dataset, graph_config, tmp_path
    ):
        idx = build_starling(
            small_dataset,
            StarlingConfig(
                graph=graph_config, shuffle="bamg",
                layout_params=(("base", "bnf"), ("alpha", 1.2)),
            ),
        )
        save_starling(idx, tmp_path / "idx")
        loaded = load_starling(tmp_path / "idx")
        assert loaded.config.shuffle == "bamg"
        assert loaded.config.layout_params == (("base", "bnf"), ("alpha", 1.2))
        assert loaded.config.fold_coresident is True
        assert loaded.engine.fold_coresident is True
        q = small_dataset.queries[0]
        assert np.array_equal(
            loaded.search(q, 10, 64).ids, idx.search(q, 10, 64).ids
        )
