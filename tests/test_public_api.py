"""Public API surface: exports resolve, determinism, and error surfacing."""

import numpy as np
import pytest

import repro


class TestExports:
    def test_version(self):
        assert repro.__version__

    @pytest.mark.parametrize("name", repro.__all__)
    def test_all_entries_resolve(self, name):
        assert getattr(repro, name) is not None

    @pytest.mark.parametrize(
        "module",
        ["vectors", "storage", "quantization", "graphs", "layout", "engine",
         "core", "baselines", "metrics", "bench"],
    )
    def test_submodule_all_resolves(self, module):
        mod = getattr(repro, module)
        for name in mod.__all__:
            assert getattr(mod, name) is not None

    def test_one_update_surface(self):
        """``SegmentLifecycle`` is the one update surface and searches
        through one fan-out: the in-memory twin and its module are gone,
        the input errors still import from ``repro.core``, and the batch
        search adds no option."""
        import dataclasses
        import importlib
        import inspect

        import repro.core as core
        from repro.core import (  # noqa: F401
            InvalidVectorError, LifecycleSpec, SegmentLifecycle,
            UnknownIdError, UpdateError,
        )
        from repro.engine import ServeSpec

        for gone in ("UpdatableSegment", "DynamicIndex"):
            assert gone not in core.__all__
            assert not hasattr(core, gone)
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.core.updates")
        assert list(
            inspect.signature(SegmentLifecycle.search_batch).parameters
        ) == ["self", "queries", "k", "candidate_size"]
        assert {f.name for f in dataclasses.fields(LifecycleSpec)} == {
            "seal_threshold", "merge_fanout", "tier_growth",
        }
        assert {f.name for f in dataclasses.fields(ServeSpec)} == {
            "workers", "queue_depth", "deadline_us", "shed_tiers",
            "max_batch", "shed_low", "shed_high", "breaker_probe_us",
            "breaker_backoff", "decode_cache_blocks", "min_rounds", "wave",
            "ingest_queue_depth",
        }

    def test_one_decode_has_no_switches(self):
        """There is one decode: no executor knob selects it and the codec
        carries no second decoder (the copying one is ``tests/oracles.py``)."""
        import dataclasses

        from repro.engine import ExecSpec
        from repro.storage import VertexFormat

        assert "zero_copy" not in {
            f.name for f in dataclasses.fields(ExecSpec)
        }
        assert not hasattr(VertexFormat, "decode_block")
        assert not hasattr(VertexFormat, "decode_vertex")

    def test_frontier_plane_has_one_switch(self):
        """The wide-wave frontier plane is chosen by wave width through the
        entry walk's constant alone: no spec field, constructor argument,
        ``search_wave`` parameter or environment variable selects it."""
        import dataclasses
        import inspect

        from repro.engine import BlockSearchEngine, ExecSpec, ServeSpec
        from repro.engine import block_search, frontier
        from repro.graphs import navigation

        assert {f.name for f in dataclasses.fields(ExecSpec)} == {
            "mode", "gc_pause",
        }
        assert {f.name for f in dataclasses.fields(ServeSpec)} == {
            "workers", "queue_depth", "deadline_us", "shed_tiers",
            "max_batch", "shed_low", "shed_high", "breaker_probe_us",
            "breaker_backoff", "decode_cache_blocks", "min_rounds", "wave",
            "ingest_queue_depth",
        }
        # width is computed from the batch, never passed: ``wave_stats`` is
        # an out-parameter for the wave-level counters, not a switch
        assert list(
            inspect.signature(BlockSearchEngine.search_wave).parameters
        ) == [
            "self", "queries", "k", "candidate_size", "tables", "stoppers",
            "wave_stats",
        ]
        assert block_search.LOCKSTEP_MIN_WAVE is navigation.LOCKSTEP_MIN_WAVE
        for module in (block_search, frontier):
            assert "environ" not in inspect.getsource(module)
        # The wave block plane rides the same switch: the modules it spans
        # define no second width constant (``ID_BYTES`` is the record
        # format's word size) and read no environment.
        from repro.storage import codec, disk_graph

        int_constants = {
            module.__name__.rsplit(".", 1)[1]: {
                name for name, value in vars(module).items()
                if name.isupper() and isinstance(value, int)
            }
            for module in (block_search, frontier, disk_graph, codec)
        }
        assert int_constants == {
            "block_search": {"LOCKSTEP_MIN_WAVE"}, "frontier": set(),
            "disk_graph": set(), "codec": {"ID_BYTES"},
        }
        for module in (disk_graph, codec):
            assert "environ" not in inspect.getsource(module)
            assert "getenv" not in inspect.getsource(module)

    def test_segment_union_adds_no_switch(self):
        """The coordinator's cross-segment wave is chosen by the segment
        set alone: the specs, the CLI's flags and the touched modules'
        constants are what they were before it, and ``LOCKSTEP_MIN_WAVE``
        is still the one wide-wave switch."""
        import dataclasses

        from repro.buildspec import BuildSpec
        from repro.cli import build_parser
        from repro.core import coordinator
        from repro.engine import ExecSpec, ServeSpec, batch, block_search, serve
        from repro.graphs import navigation, wavebuild

        assert {f.name for f in dataclasses.fields(ExecSpec)} == {
            "mode", "gc_pause",
        }
        assert {f.name for f in dataclasses.fields(BuildSpec)} == {
            "mode", "wave_size",
        }
        assert len(dataclasses.fields(ServeSpec)) == 13
        subcommands = next(
            action for action in build_parser()._actions
            if action.dest == "command"
        )
        flags = {
            name: sorted(
                option for action in parser._actions
                for option in action.option_strings
                if option not in ("-h", "--help")
            )
            for name, parser in subcommands.choices.items()
        }
        common = ["--data", "--max-vectors", "--metric", "--num-queries",
                  "--queries", "--synthetic"]
        faults = ["--fault-bad-blocks", "--fault-corrupt", "--fault-seed",
                  "--fault-spike", "--fault-transient", "--hedge-after-us",
                  "--max-retries", "--no-resilience"]
        assert flags == {
            "build": sorted(common + [
                "--algorithm", "--bamg-alpha", "--bamg-base", "--build-ef",
                "--build-mode", "--cache-blocks", "--cache-dir",
                "--cache-strategy", "--framework",
                "--max-degree", "--out", "--pruning-ratio", "--seed",
                "--shuffle",
            ]),
            "info": ["--index", "--repair", "--strict"],
            "fsck": ["--json", "--no-repair", "--report", "--strict"],
            "gt": sorted(common + ["--k", "--out"]),
            "bench": sorted(common + [
                "--build-ef", "--k", "--max-degree", "--out",
            ]),
            "search": sorted(common + faults + [
                "--cache-blocks", "--cache-strategy", "--exec-mode",
                "--gamma", "--gt", "--index", "--k", "--repair", "--show",
                "--strict",
            ]),
            "serve": sorted(common + faults + [
                "--arrivals", "--config", "--deadline-ms", "--index", "--k",
                "--max-batch", "--no-wave", "--offered-qps", "--queue-depth",
                "--repair", "--save-config", "--seed", "--shed-tiers",
                "--strict", "--threads", "--wave", "--workers",
            ]),
            "bench-iospace": [
                "--cache-blocks", "--family", "--gamma", "--k",
                "--num-queries", "--out",
            ],
        }
        constants = {
            module.__name__.rsplit(".", 1)[1]: {
                name for name, value in vars(module).items()
                if name.isupper() and not name.startswith("_")
            }
            for module in (
                coordinator, block_search, batch, serve, navigation,
                wavebuild,
            )
        }
        assert constants == {
            "coordinator": set(), "block_search": {"LOCKSTEP_MIN_WAVE"},
            "batch": {"EXEC_MODES"}, "serve": set(),
            "navigation": {"LOCKSTEP_MIN_WAVE"}, "wavebuild": set(),
        }
        assert block_search.LOCKSTEP_MIN_WAVE == 16

    def test_one_driver_two_modes(self):
        """Scheduling picks a width, not a loop: two exec modes, no
        order-sensitivity predicate, no fan-out and no second driver."""
        import importlib

        import repro.engine as engine
        from repro.engine import EXEC_MODES, BlockSearchEngine, batch, serve

        assert EXEC_MODES == ("serial", "wave")
        for gone in ("shm", "wave_search"):
            with pytest.raises(ModuleNotFoundError):
                importlib.import_module(f"repro.engine.{gone}")
        for gone in ("WaveSearchEngine", "wave_capable"):
            assert not hasattr(engine, gone)
        assert not hasattr(BlockSearchEngine, "_drain")
        assert not hasattr(batch.BatchExecutor, "effective_mode")
        for module in (engine, batch, serve):
            assert not hasattr(module, "order_sensitive")

    def test_one_measurement_stack(self):
        """Performance numbers come from ``perf/run.py`` alone: the bench
        package is the paper-reproduction harness plus the counter sweep,
        the engine carries no second discrete-event model, and the CLI and
        environment expose no knob of the retired wall-clock layer."""
        import re
        from pathlib import Path

        import repro.bench
        import repro.engine as engine
        from repro.cli import build_parser

        assert set(repro.bench.__all__) == {
            "BuildCache", "MarkdownReport", "PERF_HEADERS", "cache_key",
            "markdown_table", "bench_num_queries", "bench_segment_size",
            "dataset", "default_graph_config", "diskann_index",
            "format_table", "ground_truth_for", "perf_rows",
            "print_perf_table", "run_anns", "run_range", "spann_index",
            "speedup", "starling_index", "sweep_anns", "sweep_range",
        }
        assert not [
            name for name in dir(engine)
            if "Simul" in name or name in ("concurrency", "schedule_from_stats")
        ]
        subcommands = next(
            action for action in build_parser()._actions
            if action.dest == "command"
        )
        assert set(subcommands.choices) == {
            "build", "info", "fsck", "gt", "bench", "search", "serve",
            "bench-iospace",
        }
        src = Path(repro.__file__).parent
        bench_env = {
            name
            for path in src.rglob("*.py")
            for name in re.findall(r"REPRO_BENCH_\w+", path.read_text())
        }
        assert bench_env <= {"REPRO_BENCH_N", "REPRO_BENCH_QUERIES"}

    def test_one_durable_write_path(self):
        """``SegmentLifecycle`` is the only persisted update surface: no
        save/load pair for a second one, and no save, load or commit takes
        a generation pin — so the second path cannot return as a
        default-off option."""
        import inspect

        import repro.storage as storage
        from repro.storage.manifest import CommitTransaction

        for gone in ("save_updatable", "load_updatable"):
            assert gone not in storage.__all__
            assert not hasattr(storage, gone)
        for fn in (
            storage.save_starling, storage.save_diskann,
            storage.load_starling, storage.load_diskann,
            CommitTransaction.__init__,
        ):
            assert not {"keep_generations", "generation"} & set(
                inspect.signature(fn).parameters
            ), fn.__qualname__

    def test_one_path_per_answer(self, starling_index, diskann_index):
        """The three bit-identical duplicates stay gone: no gather pool on
        either engine, no fork-pool build mode or quantizer ``spec=``, no
        second NSG build — so none can return as a default-off option."""
        import dataclasses
        import importlib
        import inspect

        import repro.engine as engine
        import repro.graphs as graphs
        from repro.buildspec import BUILD_MODES, BuildSpec
        from repro.quantization import (
            OptimizedProductQuantizer, ProductQuantizer,
        )
        from repro.storage.disk_graph import DiskBlock

        assert not [name for name in dir(engine) if "arena" in name.lower()]
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.engine.arena")
        for index in (starling_index, diskann_index):
            assert not hasattr(index.engine, "arena_pool")
        assert not hasattr(DiskBlock, "kernel_vectors")
        assert {f.name for f in dataclasses.fields(BuildSpec)} == {
            "mode", "wave_size",
        }
        assert BUILD_MODES == ("serial", "batched")
        for quantizer in (ProductQuantizer, OptimizedProductQuantizer):
            for fn in (quantizer.train, quantizer.fit_dataset):
                assert "spec" not in inspect.signature(fn).parameters
        assert "mrng_select" not in graphs.__all__
        assert not hasattr(graphs, "mrng_select")


class TestDeterminism:
    def test_starling_search_deterministic(self, starling_index,
                                           small_dataset):
        q = small_dataset.queries[0]
        a = starling_index.search(q, 10, 64)
        b = starling_index.search(q, 10, 64)
        assert np.array_equal(a.ids, b.ids)
        assert a.stats.num_ios == b.stats.num_ios
        assert a.stats.hops == b.stats.hops

    def test_diskann_search_deterministic(self, diskann_index, small_dataset):
        q = small_dataset.queries[1]
        a = diskann_index.search(q, 10, 64)
        b = diskann_index.search(q, 10, 64)
        assert np.array_equal(a.ids, b.ids)
        assert a.stats.num_ios == b.stats.num_ios

    def test_spann_search_deterministic(self, spann_index, small_dataset):
        q = small_dataset.queries[2]
        a = spann_index.search(q, 10)
        b = spann_index.search(q, 10)
        assert np.array_equal(a.ids, b.ids)

    def test_range_search_deterministic(self, starling_index, small_dataset):
        q = small_dataset.queries[3]
        radius = small_dataset.default_radius
        a = starling_index.range_search(q, radius)
        b = starling_index.range_search(q, radius)
        assert np.array_equal(a.ids, b.ids)
        assert a.final_candidate_size == b.final_candidate_size


class TestErrorSurfacing:
    def test_wrong_dim_query_raises(self, starling_index):
        bad = np.zeros(3, dtype=np.float32)
        with pytest.raises(Exception):
            starling_index.search(bad, 10, 32)

    def test_zero_candidate_size_raises(self, starling_index, small_dataset):
        with pytest.raises(ValueError):
            starling_index.search(small_dataset.queries[0], 10, 0)

    def test_device_out_of_range_read(self, starling_index):
        device = starling_index.disk_graph.device
        with pytest.raises(IndexError):
            device.read_block(device.num_blocks + 5)

    def test_corrupt_block_detected(self, small_dataset, graph_config):
        """Failure injection: a corrupted degree word must not pass silently."""
        from repro.core import build_starling

        idx = build_starling(
            small_dataset,
            repro.StarlingConfig(graph=graph_config, shuffle="none"),
        )
        device = idx.disk_graph.device
        fmt = idx.disk_graph.fmt
        payload = bytearray(device._fetch(0))
        # Overwrite the first record's degree word with garbage > Λ.
        off = fmt.vector_bytes
        payload[off : off + 4] = (10**6).to_bytes(4, "little")
        device.write_block(0, bytes(payload))
        with pytest.raises(ValueError, match="corrupt"):
            idx.disk_graph.read_block(0)
