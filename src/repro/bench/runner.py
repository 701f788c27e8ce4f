"""Workload runners shared by the examples and the benchmark harness.

These helpers execute a query batch against an index, compute accuracy
against brute-force ground truth, and return a :class:`PerfSummary` — the
row format every table and figure bench prints.

Batches run through :class:`~repro.engine.batch.BatchExecutor`, so the
wall-clock cost of producing a table is amortized (shared ADC tables, a
shared decode cache, lockstep waves) while every *simulated* number in the
summary — I/Os, round trips, latency, QPS — is bit-identical to the plain
per-query loop, except behind a block cache, whose hit/miss split follows
the wave's (round, query) read order.  The ``threads`` parameter is the simulated pool width of
the paper's QPS model (``QPS = threads / mean_latency``, see
:mod:`repro.metrics.perf`); it schedules nothing.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..engine.batch import BatchExecutor, ExecSpec
from ..metrics.accuracy import mean_average_precision, mean_recall_at_k
from ..metrics.perf import PerfSummary, summarize
from ..vectors.dataset import VectorDataset
from ..vectors.ground_truth import knn as brute_knn
from ..vectors.ground_truth import range_search as brute_range


def run_anns(
    label: str,
    index,
    queries: np.ndarray,
    truth_ids: np.ndarray,
    *,
    k: int = 10,
    candidate_size: int = 64,
    threads: int = 8,
    exec_spec: ExecSpec | None = None,
) -> PerfSummary:
    """Run an ANNS batch and summarize accuracy + simulated performance."""
    results = BatchExecutor(index, exec_spec).search_batch(
        queries, k, candidate_size
    )
    recall = mean_recall_at_k([r.ids for r in results], truth_ids, k)
    return summarize(label, index, results, recall, threads=threads)


def run_range(
    label: str,
    index,
    queries: np.ndarray,
    truth_lists: Sequence[np.ndarray],
    radius: float,
    *,
    threads: int = 8,
    exec_spec: ExecSpec | None = None,
) -> PerfSummary:
    """Run an RS batch and summarize AP + simulated performance."""
    results = BatchExecutor(index, exec_spec).range_batch(queries, radius)
    ap = mean_average_precision([r.ids for r in results], truth_lists)
    return summarize(label, index, results, ap, threads=threads)


def sweep_anns(
    label: str,
    index,
    queries: np.ndarray,
    truth_ids: np.ndarray,
    candidate_sizes: Sequence[int],
    *,
    k: int = 10,
    threads: int = 8,
    exec_spec: ExecSpec | None = None,
) -> list[PerfSummary]:
    """QPS/latency-vs-recall curve by sweeping the candidate size Γ."""
    return [
        run_anns(
            f"{label}(Γ={size})", index, queries, truth_ids,
            k=k, candidate_size=size, threads=threads, exec_spec=exec_spec,
        )
        for size in candidate_sizes
    ]


def sweep_range(
    label: str,
    index,
    queries: np.ndarray,
    truth_lists: Sequence[np.ndarray],
    radius: float,
    initial_sizes: Sequence[int],
    *,
    threads: int = 8,
    exec_spec: ExecSpec | None = None,
) -> list[PerfSummary]:
    """Latency/QPS-vs-AP curve by sweeping the initial candidate size."""
    if not hasattr(index, "range_search"):
        raise TypeError(f"{index!r} does not support range search")
    executor = BatchExecutor(index, exec_spec)
    curves = []
    for size in initial_sizes:
        try:
            results = executor.range_batch(
                queries, radius, initial_candidate_size=size
            )
        except TypeError:
            # Engines without the knob (SPANN, DiskANN) ignore it.
            results = executor.range_batch(queries, radius)
        ap = mean_average_precision([r.ids for r in results], truth_lists)
        curves.append(
            summarize(f"{label}(Γ₀={size})", index, results, ap, threads=threads)
        )
    return curves


def ground_truth_for(
    dataset: VectorDataset, *, k: int = 10, radius: float | None = None
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Brute-force KNN and RS ground truth for a dataset's query workload."""
    truth_ids, _ = brute_knn(dataset.vectors, dataset.queries, k, dataset.metric)
    if radius is None:
        radius = dataset.default_radius
    truth_lists = (
        brute_range(dataset.vectors, dataset.queries, radius, dataset.metric)
        if radius is not None
        else []
    )
    return truth_ids, truth_lists
