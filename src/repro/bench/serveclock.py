"""Open-loop serving benchmark: offered load vs sustained QPS and tails.

Closed-loop benchmarks (issue a query, wait, issue the next) can never show
overload — the load generator politely slows down with the service.  This
bench drives :class:`~repro.engine.serve.SearchService` with **open-loop
Poisson arrivals**: queries arrive on their own clock at a configured
offered rate whether or not the service is keeping up, which is the only
honest way to measure saturation, tail latency, and shedding behavior.

Everything here runs on the service's virtual clock: searches execute for
real, service time is the simulated per-query latency under the segment
cost models, so the whole sweep is deterministic and machine-independent —
the emitted ``BENCH_serve.json`` is reproducible bit-for-bit and CI guards
its headline numbers directly.

The sweep reports, per offered-load point: sustained QPS, p50/p95/p99
sojourn (queue wait + service), and reject / shed / expired /
deadline-miss rates.  A separate **validation leg** checks the measured
saturation throughput against the analytical model used by
``examples/throughput_simulation.py``: with shedding and deadlines off
(one tier, work-conserving workers), a saturated service must sustain

    QPS ≈ workers / mean_latency

within a stated tolerance.  The discrete-event simulator's QPS at the same
thread count is included in the report for reference.

Run via ``benchmarks/test_serveclock.py`` or the CLI's ``bench-serve``
command; both emit ``BENCH_serve.json``.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

from ..engine.concurrency import ThroughputSimulator
from ..engine.serve import SearchService, ServeSpec, poisson_arrivals_us
from .envinfo import environment_metadata

#: default workload family: bigann (the paper's primary dataset)
DEFAULT_FAMILY = "bigann"

#: offered-load multipliers of the analytical saturation QPS, low to high —
#: two points below saturation, one just past it, two deep in overload
DEFAULT_OFFERED_RATIOS = (0.5, 0.9, 1.2, 2.0, 3.0)

#: arrivals per sweep point (env-tunable; more arrivals = tighter tails)
DEFAULT_ARRIVALS = 240

#: tolerance of the saturation-vs-analytical validation (fractional)
VALIDATION_TOLERANCE = 0.15


def bench_arrivals() -> int:
    return int(
        os.environ.get("REPRO_BENCH_SERVE_ARRIVALS", str(DEFAULT_ARRIVALS))
    )


@dataclass
class ServeBenchReport:
    """Offered-load sweep + analytical validation for one workload."""

    family: str
    num_vectors: int
    num_queries: int
    k: int
    arrivals_per_point: int
    seed: int
    spec: ServeSpec
    profile: dict
    sweep: list[dict] = field(default_factory=list)
    validation: dict = field(default_factory=dict)

    @property
    def max_load(self) -> dict:
        """The deepest-overload sweep point (guarded metrics live here)."""
        return self.sweep[-1] if self.sweep else {}

    def to_dict(self) -> dict:
        return {
            "workload": {
                "family": self.family,
                "num_vectors": self.num_vectors,
                "num_queries": self.num_queries,
                "k": self.k,
                "arrivals_per_point": self.arrivals_per_point,
                "seed": self.seed,
            },
            "spec": self.spec.to_dict(),
            "profile": self.profile,
            "sweep": self.sweep,
            "validation": self.validation,
            "max_load": self.max_load,
            "environment": environment_metadata(),
        }

    def write_json(self, path: str) -> str:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2)
            fh.write("\n")
        return path


def _profile_latencies(coordinator, queries, k: int, candidate_size: int):
    """Per-query simulated latency at the full-quality tier."""
    results = coordinator.search_batch(queries, k, candidate_size)
    return np.asarray(
        [r.parallel_latency_us for r in results], dtype=np.float64
    ), results


def run_serveclock(
    family: str = DEFAULT_FAMILY,
    *,
    k: int = 10,
    arrivals: int | None = None,
    offered_ratios: tuple[float, ...] = DEFAULT_OFFERED_RATIOS,
    spec: ServeSpec | None = None,
    seed: int = 0,
) -> ServeBenchReport:
    """Run the open-loop sweep and the analytical validation leg."""
    # Imported lazily so the memoized builders are shared with the other
    # benches without making them an import-time dependency of the package.
    from ..core.coordinator import SegmentCoordinator
    from .workloads import dataset, starling_index

    ds = dataset(family)
    index = starling_index(family)
    coordinator = SegmentCoordinator([index])
    queries = np.asarray(ds.queries, dtype=np.float32)
    n_arrivals = arrivals if arrivals is not None else bench_arrivals()

    # -- profile: per-query service time at full quality -------------------
    if spec is None:
        spec = ServeSpec(workers=4, queue_depth=32, max_batch=8)
    top_tier = spec.shed_tiers[0]
    latencies_us, profile_results = _profile_latencies(
        coordinator, queries, k, top_tier
    )
    mean_us = float(latencies_us.mean())
    p95_us = float(np.percentile(latencies_us, 95))
    analytical_qps = spec.workers / (mean_us / 1e6)
    if spec.deadline_us is None:
        # Deadline defaults to a few p95 service times: tight enough that
        # overload visibly sheds/expires, loose enough that an uncontended
        # query never misses.
        spec = spec.with_(deadline_us=4.0 * p95_us)

    # Reference: the DES model with the same thread count and a deep device
    # queue (the regime where it converges to the naive workers/mean model).
    sim = ThroughputSimulator(
        index.disk_spec, index.compute_spec,
        threads=spec.workers, queue_depth=64,
    )
    des = sim.run(
        [r.stats for r in profile_results], index.dim, index.pq.num_subspaces
    )
    profile = {
        "mean_latency_us": mean_us,
        "p50_latency_us": float(np.percentile(latencies_us, 50)),
        "p95_latency_us": p95_us,
        "p99_latency_us": float(np.percentile(latencies_us, 99)),
        "workers": spec.workers,
        "analytical_qps": analytical_qps,
        "des_qps": float(des.qps),
        "deadline_us": spec.deadline_us,
    }

    # -- offered-load sweep (full policy: deadlines + shedding) ------------
    report = ServeBenchReport(
        family=family,
        num_vectors=index.num_vectors,
        num_queries=len(queries),
        k=k,
        arrivals_per_point=n_arrivals,
        seed=seed,
        spec=spec,
        profile=profile,
    )
    for point, ratio in enumerate(offered_ratios):
        offered_qps = ratio * analytical_qps
        trace = poisson_arrivals_us(offered_qps, n_arrivals, seed=seed + point)
        service = SearchService(coordinator, spec)
        run = service.run_trace(trace, queries, k=k)
        entry = {
            "offered_ratio": ratio,
            "offered_qps": offered_qps,
            **run.summary(),
        }
        report.sweep.append(entry)

    # -- validation leg: saturation vs the analytical model ----------------
    # One tier, no deadline, no micro-batching: the service is then exactly
    # the M/G/c/(c+queue) system the naive model describes, so deep in
    # overload it must sustain workers / mean_latency.  (max_batch=1 only
    # avoids lumpy drain at the end of the trace — batching never changes
    # simulated service time.)
    validation_spec = spec.with_(
        deadline_us=None, shed_tiers=(top_tier,), max_batch=1,
    )
    offered_qps = 3.0 * analytical_qps
    trace = poisson_arrivals_us(
        offered_qps, n_arrivals, seed=seed + len(offered_ratios)
    )
    service = SearchService(coordinator, validation_spec)
    run = service.run_trace(trace, queries, k=k)
    measured = run.sustained_qps
    ratio = measured / analytical_qps if analytical_qps else 0.0
    report.validation = {
        "offered_qps": offered_qps,
        "measured_qps": measured,
        "analytical_qps": analytical_qps,
        "qps_ratio": ratio,
        "tolerance": VALIDATION_TOLERANCE,
        "within_tolerance": abs(ratio - 1.0) <= VALIDATION_TOLERANCE,
        "completed": run.completed,
        "rejected": run.rejected,
    }
    return report
