"""Performance aggregation: mean latency, QPS, mean I/Os, ξ, ℓ (§6.1).

The evaluation protocol of the paper reports *queries per second*, *mean
latency*, and *mean I/Os* per configuration, serving a batch with a pool of
threads (8 by default) where each thread handles one query at a time.  Under
that model ``QPS = threads / mean_latency`` — the relation Fig. 12 sweeps.

**Simulated vs. wall-clock.**  Every number aggregated here is *simulated*:
latency is derived from each query's exact I/O and compute counters through
:class:`~repro.storage.device.DiskSpec` and
:class:`~repro.engine.cost.ComputeSpec`, so summaries are deterministic,
machine-independent, and unaffected by how the batch was actually executed
— the ``threads`` in the QPS model is a *modelled* pool width, not a count
of real threads (the :class:`~repro.engine.batch.BatchExecutor` that
produced the results runs on the calling thread).  Measured wall clock
comes from one place, the ``perf/run.py`` benchmark outside the package,
which drives the same paths end to end.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..engine.cost import QueryStats


@dataclass
class PerfSummary:
    """Aggregated performance of one (index, workload, parameters) run."""

    label: str
    num_queries: int
    mean_latency_us: float
    mean_ios: float
    mean_round_trips: float
    mean_hops: float
    mean_vertex_utilization: float
    mean_io_time_us: float
    mean_compute_time_us: float
    mean_other_time_us: float
    accuracy: float  # recall for ANNS, AP for RS
    threads: int = 8

    @property
    def qps(self) -> float:
        """Throughput with ``threads`` workers, one query per thread."""
        if self.mean_latency_us <= 0:
            return 0.0
        return self.threads / (self.mean_latency_us * 1e-6)

    @property
    def io_fraction(self) -> float:
        """Share of query time spent in disk I/O (Fig. 11(d))."""
        serial = (
            self.mean_io_time_us + self.mean_compute_time_us
            + self.mean_other_time_us
        )
        return self.mean_io_time_us / serial if serial > 0 else 0.0


def summarize(
    label: str,
    index,
    results: Sequence,
    accuracy: float,
    *,
    threads: int = 8,
) -> PerfSummary:
    """Aggregate a batch of Search/Range results against one index.

    ``index`` supplies the cost model (disk/compute specs, dim, PQ width);
    any object with ``latency_us``, ``disk_spec``, ``compute_spec``, ``dim``
    works, including SPANNIndex.
    """
    if not results:
        raise ValueError("results must be non-empty")
    n = len(results)
    lat = ios = rts = hops = xi = io_t = comp_t = other_t = 0.0
    subspaces = getattr(getattr(index, "pq", None), "num_subspaces", 1)
    for result in results:
        stats: QueryStats = result.stats
        lat += index.latency_us(result)
        ios += stats.num_ios
        rts += stats.round_trips
        hops += stats.hops
        xi += stats.vertex_utilization
        io_t += stats.io_time_us(index.disk_spec)
        comp_t += stats.compute_time_us(index.compute_spec, index.dim, subspaces)
        other_t += stats.other_time_us(index.compute_spec)
    return PerfSummary(
        label=label,
        num_queries=n,
        mean_latency_us=lat / n,
        mean_ios=ios / n,
        mean_round_trips=rts / n,
        mean_hops=hops / n,
        mean_vertex_utilization=xi / n,
        mean_io_time_us=io_t / n,
        mean_compute_time_us=comp_t / n,
        mean_other_time_us=other_t / n,
        accuracy=accuracy,
        threads=threads,
    )
