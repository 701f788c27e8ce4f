"""Command-line interface: build, inspect, and query segment indexes.

Mirrors the workflow of disk-ANN tooling: build an index from a vector file
(fvecs/bvecs/fbin/u8bin — or a synthetic dataset for smoke tests), persist
it to a directory, compute ground truth, and run query batches that report
recall, mean I/Os, and simulated latency.

Examples:
    repro-starling build --synthetic bigann:5000 --out /tmp/idx
    repro-starling info --index /tmp/idx
    repro-starling gt --synthetic bigann:5000 --k 10 --out /tmp/gt.bin
    repro-starling search --index /tmp/idx --synthetic bigann:5000 \
        --gt /tmp/gt.bin --k 10 --gamma 64
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .bench.build_cache import BuildCache
from .buildspec import BUILD_MODES, BuildSpec
from .engine import CACHE_STRATEGY_NAMES, EXEC_MODES
from .layout import LAYOUT_STRATEGY_NAMES
from .core import (
    DiskANNConfig,
    GraphConfig,
    StarlingConfig,
    build_diskann,
    build_starling,
)
from .metrics import mean_recall_at_k
from .storage import (
    IndexLoadError,
    fsck,
    load_diskann,
    load_starling,
    read_index_meta,
    save_diskann,
    save_starling,
)
from .vectors import (
    VectorDataset,
    by_name,
    get_metric,
    knn,
    read_bin,
    read_ground_truth,
    read_vecs,
    write_ground_truth,
)

_VECS_EXTS = (".fvecs", ".bvecs", ".ivecs")
_BIN_EXTS = (".fbin", ".u8bin", ".i8bin")


def _load_vector_file(path: str, max_vectors: int | None) -> np.ndarray:
    suffix = Path(path).suffix.lower()
    if suffix in _VECS_EXTS:
        return read_vecs(path, max_vectors=max_vectors)
    if suffix in _BIN_EXTS:
        return read_bin(path, max_vectors=max_vectors)
    raise SystemExit(
        f"unsupported vector file {path!r}; expected one of "
        f"{_VECS_EXTS + _BIN_EXTS}"
    )


def _dataset_from_args(args) -> VectorDataset:
    """Build the dataset from --synthetic or --data/--queries flags."""
    if args.synthetic:
        family, _, n = args.synthetic.partition(":")
        size = int(n) if n else 5000
        return by_name(family, size, args.num_queries)
    if not args.data:
        raise SystemExit("either --synthetic or --data is required")
    vectors = _load_vector_file(args.data, args.max_vectors)
    if args.queries:
        queries = _load_vector_file(args.queries, None)
    else:
        queries = vectors[: min(args.num_queries, len(vectors))]
    return VectorDataset(
        name=Path(args.data).stem,
        vectors=vectors,
        queries=queries,
        metric=get_metric(args.metric),
    )


def _add_dataset_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--synthetic", metavar="FAMILY[:N]",
                   help="synthetic dataset, e.g. bigann:5000")
    p.add_argument("--data", help="base vectors file (fvecs/bvecs/fbin/u8bin)")
    p.add_argument("--queries", help="query vectors file")
    p.add_argument("--metric", default="l2", choices=("l2", "ip"))
    p.add_argument("--max-vectors", type=int, default=None)
    p.add_argument("--num-queries", type=int, default=50)


def _build_spec_from_args(args) -> BuildSpec | None:
    if args.build_mode == "serial":
        return None
    return BuildSpec(mode=args.build_mode)


def _cmd_build(args) -> int:
    dataset = _dataset_from_args(args)
    graph = GraphConfig(
        algorithm=args.algorithm, max_degree=args.max_degree,
        build_ef=args.build_ef, seed=args.seed,
    )
    spec = _build_spec_from_args(args)
    cache = BuildCache(args.cache_dir) if args.cache_dir else None
    print(f"building {args.framework} index over {dataset} "
          f"[mode={args.build_mode}] ...")
    hit = False
    if args.framework == "starling":
        layout_params = ()
        if args.shuffle == "bamg":
            layout_params = (
                ("base", args.bamg_base), ("alpha", args.bamg_alpha),
            )
        cfg = StarlingConfig(graph=graph, shuffle=args.shuffle,
                             pruning_ratio=args.pruning_ratio,
                             layout_params=layout_params,
                             cache_strategy=args.cache_strategy,
                             block_cache_blocks=args.cache_blocks)
        if cache is not None:
            index, hit = cache.build_starling(dataset, cfg, build_spec=spec)
        else:
            index = build_starling(dataset, cfg, build_spec=spec)
        save_starling(index, args.out)
        extra = f", OR(G)={index.layout_or:.3f}"
    else:
        cfg = DiskANNConfig(graph=graph)
        if cache is not None:
            index, hit = cache.build_diskann(dataset, cfg, build_spec=spec)
        else:
            index = build_diskann(dataset, cfg, build_spec=spec)
        save_diskann(index, args.out)
        extra = ""
    if hit:
        extra += " (from build cache)"
    print(
        f"saved to {args.out}: n={index.num_vectors}, "
        f"disk={index.disk_bytes / 1e6:.1f} MB, "
        f"memory={index.memory_bytes / 1e6:.2f} MB, "
        f"build={index.timings.total_s:.1f}s{extra}"
    )
    return 0


def _load_index(path: str, *, strict: bool = False):
    meta = read_index_meta(path)
    if meta.get("kind") == "starling":
        return load_starling(path, strict=strict)
    return load_diskann(path, strict=strict)


def _load_index_or_exit(args):
    """Load the index named by ``args.index``; damage is a one-line exit 2.

    With ``--repair``, a failed load triggers one fsck pass (rollback /
    re-derivation) and a retry before giving up.
    """
    strict = getattr(args, "strict", False)
    repair = getattr(args, "repair", False)
    try:
        return _load_index(args.index, strict=strict)
    except IndexLoadError as exc:
        if repair:
            report = fsck(args.index, strict=strict)
            if report.exit_code == 1:
                print(
                    f"repaired {args.index}: {'; '.join(report.actions)}",
                    file=sys.stderr,
                )
                try:
                    return _load_index(args.index, strict=strict)
                except IndexLoadError as exc2:
                    exc = exc2
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(2)


def _add_load_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--strict", action="store_true",
                   help="verify SHA-256 digests at load, not just CRC32")
    p.add_argument("--repair", action="store_true",
                   help="on load failure, run fsck once and retry")


def _cmd_info(args) -> int:
    try:
        meta = read_index_meta(args.index)
    except IndexLoadError as exc:
        if getattr(args, "repair", False):
            report = fsck(args.index, strict=args.strict)
            if report.exit_code == 1:
                print(
                    f"repaired {args.index}: {'; '.join(report.actions)}",
                    file=sys.stderr,
                )
                meta = read_index_meta(args.index)
                print(json.dumps(meta, indent=2))
                return 0
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(meta, indent=2))
    return 0


def _cmd_fsck(args) -> int:
    report = fsck(
        args.directory, repair=not args.no_repair, strict=args.strict
    )
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(f"{report.path}: {report.status}"
              + (f" (kind={report.kind}, gen={report.generation})"
                 if report.kind else ""))
        for problem in report.problems:
            print(f"  problem: {problem}")
        for action in report.actions:
            print(f"  action:  {action}")
    if args.report:
        report.write_json(args.report)
    return report.exit_code


def _cmd_gt(args) -> int:
    dataset = _dataset_from_args(args)
    print(f"computing exact top-{args.k} for {dataset.num_queries} queries...")
    ids, dists = knn(dataset.vectors, dataset.queries, args.k, dataset.metric)
    write_ground_truth(args.out, ids, dists)
    print(f"wrote {args.out}")
    return 0


def _fault_spec_from_args(args):
    """Build a FaultSpec from the chaos flags (None when all rates are 0)."""
    from .storage import FaultSpec

    spec = FaultSpec(
        seed=args.fault_seed,
        transient_error_rate=args.fault_transient,
        bad_block_rate=args.fault_bad_blocks,
        corruption_rate=args.fault_corrupt,
        latency_spike_rate=args.fault_spike,
    )
    return spec if spec.enabled else None


def _apply_chaos(index, args) -> None:
    """Inject faults into a loaded index and arm the retry policy."""
    from .engine import RetryPolicy
    from .storage import ensure_fault_injection

    spec = _fault_spec_from_args(args)
    if spec is None:
        return
    ensure_fault_injection(index.disk_graph, spec)
    if args.no_resilience:
        index.engine.resilience = None
    else:
        index.engine.resilience = RetryPolicy(
            max_retries=args.max_retries,
            hedge_after_us=args.hedge_after_us,
        )
    print(
        f"chaos: transient={spec.transient_error_rate}, "
        f"bad_blocks={spec.bad_block_rate}, corrupt={spec.corruption_rate}, "
        f"spikes={spec.latency_spike_rate}, seed={spec.seed}, "
        f"resilience={'off' if args.no_resilience else 'on'}"
    )


def _add_chaos_args(p: argparse.ArgumentParser) -> None:
    g = p.add_argument_group("chaos (deterministic fault injection)")
    g.add_argument("--fault-transient", type=float, default=0.0,
                   help="per-block-read transient error probability")
    g.add_argument("--fault-bad-blocks", type=float, default=0.0,
                   help="fraction of permanently unreadable blocks")
    g.add_argument("--fault-corrupt", type=float, default=0.0,
                   help="per-block-read silent bit-flip probability")
    g.add_argument("--fault-spike", type=float, default=0.0,
                   help="per-round-trip latency spike probability")
    g.add_argument("--fault-seed", type=int, default=0,
                   help="seed for the fault schedule (reproducible chaos)")
    g.add_argument("--max-retries", type=int, default=2,
                   help="retry rounds per failed read")
    g.add_argument("--hedge-after-us", type=float, default=None,
                   help="hedge a read once its injected delay exceeds this")
    g.add_argument("--no-resilience", action="store_true",
                   help="disable retries/hedging (faults crash queries)")


def _cmd_search(args) -> int:
    index = _load_index_or_exit(args)
    dataset = _dataset_from_args(args)
    truth = read_ground_truth(args.gt)[0] if args.gt else None
    if getattr(args, "cache_strategy", None) is not None:
        if not hasattr(index, "apply_cache_strategy"):
            raise SystemExit(
                "--cache-strategy only applies to starling indexes"
            )
        capacity = args.cache_blocks
        if capacity is None:
            capacity = index.config.block_cache_blocks
        index.apply_cache_strategy(args.cache_strategy, capacity)
    _apply_chaos(index, args)

    from .engine import BatchExecutor, ExecSpec

    executor = BatchExecutor(index, ExecSpec(mode=args.exec_mode))
    results = executor.search_batch(dataset.queries, args.k, args.gamma)
    ios = sum(r.stats.num_ios for r in results) / len(results)
    latency = sum(index.latency_us(r) for r in results) / len(results)
    line = (
        f"queries={len(results)}, k={args.k}, Γ={args.gamma}: "
        f"mean I/Os={ios:.1f}, simulated latency={latency / 1000:.2f} ms"
    )
    if truth is not None:
        recall = mean_recall_at_k([r.ids for r in results], truth, args.k)
        line += f", recall@{args.k}={recall:.3f}"
    print(line)
    degraded = sum(1 for r in results if r.degraded)
    faults = [r.stats.fault for r in results]
    if degraded or any(f.any for f in faults):
        print(
            f"  faults: degraded={degraded}/{len(results)}, "
            f"retries={sum(f.retries for f in faults)}, "
            f"hedges={sum(f.hedges for f in faults)}, "
            f"read_errors={sum(f.read_errors for f in faults)}, "
            f"corrupt={sum(f.corrupt_blocks for f in faults)}, "
            f"vertices_abandoned={sum(f.vertices_abandoned for f in faults)}"
        )
    if args.show:
        for i, r in enumerate(results[: args.show]):
            print(f"  q{i}: {r.ids.tolist()}")
    return 0


def _serve_spec_from_args(args):
    """ServeSpec from ``--config`` (if given) with flag overrides on top."""
    from .engine import ServeSpec

    if args.config:
        with open(args.config) as fh:
            spec = ServeSpec.from_dict(json.load(fh))
    else:
        spec = ServeSpec()
    overrides = {}
    if args.workers is not None:
        overrides["workers"] = args.workers
    if args.queue_depth is not None:
        overrides["queue_depth"] = args.queue_depth
    if args.deadline_ms is not None:
        overrides["deadline_us"] = args.deadline_ms * 1e3
    if args.shed_tiers is not None:
        overrides["shed_tiers"] = tuple(
            int(t) for t in args.shed_tiers.split(",") if t.strip()
        )
    if args.max_batch is not None:
        overrides["max_batch"] = args.max_batch
    if args.wave is not None:
        overrides["wave"] = args.wave
    return spec.with_(**overrides) if overrides else spec


def _cmd_serve(args) -> int:
    """Drive the online serving layer with an open-loop arrival trace."""
    from .engine import SearchService, poisson_arrivals_us

    spec = _serve_spec_from_args(args)
    if args.save_config:
        with open(args.save_config, "w") as fh:
            json.dump(spec.to_dict(), fh, indent=2)
            fh.write("\n")
        print(f"wrote {args.save_config}")
        if not args.index:
            return 0
    if not args.index:
        raise SystemExit("--index is required (unless only --save-config)")
    index = _load_index_or_exit(args)
    dataset = _dataset_from_args(args)
    _apply_chaos(index, args)
    queries = np.asarray(dataset.queries, dtype=np.float32)
    service = SearchService(index, spec)

    offered = args.offered_qps
    if offered is None:
        # Profile a handful of queries at full quality and offer 1.5x the
        # analytical saturation rate — overload behavior is the point.
        sample = queries[: min(16, len(queries))]
        probe = service.coordinator.search_batch(
            sample, args.k, spec.shed_tiers[0]
        )
        mean_us = sum(r.parallel_latency_us for r in probe) / len(probe)
        if mean_us > 0:
            offered = 1.5 * spec.workers / (mean_us / 1e6)
        else:
            # degenerate profile (e.g. every segment failing under chaos):
            # fall back to a fixed rate so the trace still exercises policy
            offered = 1_000.0

    if args.threads:
        # Live-mode smoke: wall-clock worker threads, submissions as fast
        # as the front end accepts them (floods the queue on purpose).
        service.start()
        for i in range(args.arrivals):
            service.submit(queries[i % len(queries)], k=args.k)
        report = service.stop()
    else:
        trace = poisson_arrivals_us(offered, args.arrivals, seed=args.seed)
        report = service.run_trace(trace, queries, k=args.k)

    s = report.summary()
    deadline_ms = (spec.deadline_us or 0.0) / 1e3
    print(
        f"served {s['arrivals']} arrivals "
        f"[{'threads' if args.threads else 'virtual clock'}, "
        f"offered {offered:.0f} QPS]: "
        f"completed={s['completed']}, rejected={s['rejected']}, "
        f"expired={s['expired']}, sustained {s['sustained_qps']:.0f} QPS"
    )
    print(
        f"  sojourn p50/p95/p99 = {s['p50_ms']:.2f}/{s['p95_ms']:.2f}/"
        f"{s['p99_ms']:.2f} ms"
        + (f" (deadline {deadline_ms:.2f} ms)" if deadline_ms else "")
    )
    print(
        f"  shed_rate={s['shed_rate']:.3f}, "
        f"deadline_miss_rate={s['deadline_miss_rate']:.3f}, "
        f"degraded_fraction={s['degraded_fraction']:.3f}"
    )
    breaker_events = [d for d in report.decisions if d[0] == "breaker"]
    if breaker_events:
        print(f"  breaker events: {len(breaker_events)} "
              f"(last: {breaker_events[-1]})")
    return 0


def _cmd_bench_iospace(args) -> int:
    """Sweep layout × cache strategies over the paper's I/O metrics."""
    from .bench.iospace import run_iospace
    from .bench.tables import format_matrix

    report = run_iospace(
        args.family,
        num_queries=args.num_queries,
        k=args.k,
        candidate_size=args.gamma,
        capacity_blocks=args.cache_blocks,
    )
    path = report.write_json(args.out)
    layouts = list(dict.fromkeys(c.layout for c in report.cells))
    caches = list(dict.fromkeys(c.cache for c in report.cells))
    for title, attr in (
        ("mean device block reads / query", "mean_block_reads"),
        ("mean round trips / query", "mean_round_trips"),
        (f"recall@{report.k}", "recall"),
    ):
        print(format_matrix(title, "layout", layouts, caches,
                            report.matrix(attr)))
        print()
    print(
        f"iospace [{report.family} n={report.num_vectors} "
        f"q={report.num_queries} cap={report.capacity_blocks}]: "
        f"bamg trips x{report.bamg_round_trip_ratio:.3f}, "
        f"recall x{report.bamg_recall_ratio:.3f}, "
        f"locality/lru reads x{report.locality_vs_lru_reads_ratio:.3f}, "
        f"honest={report.counters_honest} -> {path}"
    )
    return 0


def _cmd_bench(args) -> int:
    """Compact three-framework comparison, written as a markdown report."""
    from .baselines import SPANNConfig, build_spann
    from .bench import MarkdownReport, run_anns, sweep_anns
    from .core import build_starling as _build_starling
    from .core import build_diskann as _build_diskann

    dataset = _dataset_from_args(args)
    graph = GraphConfig(max_degree=args.max_degree, build_ef=args.build_ef)
    truth, _ = knn(dataset.vectors, dataset.queries, args.k, dataset.metric)

    print("building starling...")
    star = _build_starling(dataset, StarlingConfig(graph=graph))
    print("building diskann...")
    dann = _build_diskann(dataset, DiskANNConfig(graph=graph))
    print("building spann...")
    spann = build_spann(
        dataset, SPANNConfig(posting_size=32, replicas=2, max_probes=8)
    )

    gammas = [16, 32, 64, 128]
    rows = sweep_anns("starling", star, dataset.queries, truth, gammas,
                      k=args.k)
    rows += sweep_anns("diskann", dann, dataset.queries, truth, gammas,
                       k=args.k)
    rows.append(run_anns("spann(p=8)", spann, dataset.queries, truth,
                         k=args.k))
    report = MarkdownReport(
        f"Starling reproduction — {dataset.name}, n={dataset.size}, "
        f"k={args.k}"
    )
    report.add_text(
        "Latency/QPS are simulated from exact I/O and compute counts "
        "(see docs/COST_MODEL.md); only ratios are meaningful."
    )
    report.add_perf_section("ANNS frontier", rows)
    report.add_table(
        "Space cost",
        ["framework", "disk_MB", "memory_MB"],
        [
            [name, idx.disk_bytes / 1e6, idx.memory_bytes / 1e6]
            for name, idx in (("starling", star), ("diskann", dann),
                              ("spann", spann))
        ],
    )
    report.write(args.out)
    print(f"wrote {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-starling",
        description="Starling (SIGMOD 2024) reproduction CLI",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="build and persist a segment index")
    _add_dataset_args(p)
    p.add_argument("--out", required=True, help="output index directory")
    p.add_argument("--framework", default="starling",
                   choices=("starling", "diskann"))
    p.add_argument("--algorithm", default="vamana",
                   choices=("vamana", "nsg", "hnsw"))
    p.add_argument("--max-degree", type=int, default=32)
    p.add_argument("--build-ef", type=int, default=64)
    p.add_argument("--shuffle", default="bnf",
                   choices=LAYOUT_STRATEGY_NAMES,
                   help="block layout strategy: a shuffler, or 'bamg' "
                        "block-aware monotonic pruning (starling only)")
    p.add_argument("--bamg-base", default="bnf",
                   help="shuffler the bamg strategy lays blocks out with")
    p.add_argument("--bamg-alpha", type=float, default=1.2,
                   help="bamg occlusion factor (<= 0 keeps all portals)")
    p.add_argument("--cache-strategy", default="lru",
                   choices=CACHE_STRATEGY_NAMES,
                   help="block-cache strategy baked into the index "
                        "(starling only; wraps nothing at --cache-blocks 0)")
    p.add_argument("--cache-blocks", type=int, default=0,
                   help="block-cache capacity in blocks (0 disables)")
    p.add_argument("--pruning-ratio", type=float, default=0.3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--build-mode", default="serial", choices=BUILD_MODES,
                   help="construction strategy: 'serial' reproduces the "
                        "classic loop bit for bit; 'batched' waves are "
                        "seed-deterministic and faster")
    p.add_argument("--cache-dir", default=None,
                   help="build-artifact cache directory; a repeat build "
                        "with the same dataset/config/mode loads from it")
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("info", help="print a persisted index's metadata")
    p.add_argument("--index", required=True)
    _add_load_args(p)
    p.set_defaults(func=_cmd_info)

    p = sub.add_parser(
        "fsck",
        help="verify and repair an index directory "
             "(exit 0 clean / 1 repaired / 2 unrecoverable)",
    )
    p.add_argument("directory", help="index directory to scrub")
    p.add_argument("--no-repair", action="store_true",
                   help="detect and report only; change nothing on disk")
    p.add_argument("--strict", action="store_true",
                   help="verify SHA-256 digests in addition to CRC32")
    p.add_argument("--json", action="store_true",
                   help="print the report as JSON")
    p.add_argument("--report", default=None,
                   help="also write the JSON report to this file")
    p.set_defaults(func=_cmd_fsck)

    p = sub.add_parser("gt", help="compute exact KNN ground truth")
    _add_dataset_args(p)
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gt)

    p = sub.add_parser(
        "bench", help="three-framework comparison -> markdown report"
    )
    _add_dataset_args(p)
    p.add_argument("--out", required=True, help="output markdown file")
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--max-degree", type=int, default=24)
    p.add_argument("--build-ef", type=int, default=48)
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("search", help="run an ANNS query batch")
    _add_dataset_args(p)
    p.add_argument("--index", required=True)
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--gamma", type=int, default=64,
                   help="candidate set size Γ")
    p.add_argument("--gt", help="ground-truth file for recall")
    p.add_argument("--show", type=int, default=0,
                   help="print the ids of the first N queries")
    p.add_argument("--exec-mode", default="wave", choices=EXEC_MODES,
                   help="batch execution strategy (answers are identical "
                        "in both: 'serial' is the plain per-query loop, "
                        "'wave' shares ADC tables and decoded blocks and "
                        "runs the batch as one lockstep wave — or, with "
                        "chaos armed, as in-order waves of one; a cache's "
                        "hit/miss split may differ)")
    p.add_argument("--cache-strategy", default=None,
                   choices=CACHE_STRATEGY_NAMES,
                   help="override the persisted block-cache strategy at "
                        "load time (starling only; 'hot' needs an index "
                        "built with a pinned set)")
    p.add_argument("--cache-blocks", type=int, default=None,
                   help="cache capacity for --cache-strategy (default: "
                        "the capacity the index was built with)")
    _add_load_args(p)
    _add_chaos_args(p)
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser(
        "serve",
        help="drive the online serving layer with open-loop arrivals",
    )
    _add_dataset_args(p)
    p.add_argument("--index", default=None,
                   help="index directory (optional with --save-config)")
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--workers", type=int, default=None,
                   help="service worker count (default: spec/config)")
    p.add_argument("--queue-depth", type=int, default=None,
                   help="admission queue bound; arrivals beyond it are "
                        "rejected, never blocked")
    p.add_argument("--deadline-ms", type=float, default=None,
                   help="per-query deadline budget (queue wait + service)")
    p.add_argument("--shed-tiers", default=None, metavar="G0,G1,...",
                   help="candidate-size tiers, full quality first, "
                        "e.g. 64,32,16")
    p.add_argument("--max-batch", type=int, default=None,
                   help="micro-batch size per worker dispatch")
    p.add_argument("--wave", action=argparse.BooleanOptionalAction,
                   default=None,
                   help="execute each micro-batch through the wave executor "
                        "(on by default; --no-wave selects the serial "
                        "reference loop; results identical)")
    p.add_argument("--offered-qps", type=float, default=None,
                   help="open-loop arrival rate (default: 1.5x the "
                        "profiled analytical saturation)")
    p.add_argument("--arrivals", type=int, default=200,
                   help="number of arrivals in the trace")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for the Poisson arrival trace")
    p.add_argument("--threads", action="store_true",
                   help="use the wall-clock threaded front end instead of "
                        "the deterministic virtual clock")
    p.add_argument("--config", default=None,
                   help="ServeSpec JSON file; explicit flags override it")
    p.add_argument("--save-config", default=None,
                   help="write the effective ServeSpec JSON to this file")
    _add_load_args(p)
    _add_chaos_args(p)
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser(
        "bench-iospace",
        help="layout x cache strategy sweep -> BENCH_iospace.json",
    )
    p.add_argument("--family", default="bigann",
                   choices=("bigann", "deep", "ssnpp", "text2image"))
    p.add_argument("--num-queries", type=int, default=None)
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--gamma", type=int, default=64,
                   help="candidate set size Γ")
    p.add_argument("--cache-blocks", type=int, default=None,
                   help="equal cache capacity for every caching cell "
                        "(default: scaled to the graph's block count)")
    p.add_argument("--out", default="BENCH_iospace.json")
    p.set_defaults(func=_cmd_bench_iospace)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
