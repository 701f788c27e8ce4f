"""Benchmark harness: workload runners, presets, and table rendering."""

from .build_cache import BuildCache, cache_key
from .report import MarkdownReport, markdown_table
from .runner import ground_truth_for, run_anns, run_range, sweep_anns, sweep_range
from .tables import (
    PERF_HEADERS,
    format_table,
    perf_rows,
    print_perf_table,
    speedup,
)
from .workloads import (
    bench_num_queries,
    bench_segment_size,
    dataset,
    default_graph_config,
    diskann_index,
    spann_index,
    starling_index,
)

__all__ = [
    "BuildCache",
    "MarkdownReport",
    "PERF_HEADERS",
    "cache_key",
    "markdown_table",
    "bench_num_queries",
    "bench_segment_size",
    "dataset",
    "default_graph_config",
    "diskann_index",
    "format_table",
    "ground_truth_for",
    "perf_rows",
    "print_perf_table",
    "run_anns",
    "run_range",
    "spann_index",
    "speedup",
    "starling_index",
    "sweep_anns",
    "sweep_range",
]
