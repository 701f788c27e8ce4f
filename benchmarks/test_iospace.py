"""I/O-strategy design-space sweep: layout × cache over the paper's metrics.

The hard assertions are the issue's acceptance criteria: (a) bamg pruning
reduces mean round trips versus the same layout unpruned at equal-or-better
recall@k, and (b) the locality cache reduces mean *device* block reads
versus the LRU at equal capacity.  Counter honesty is asserted per cell —
the per-query ``num_ios`` / ``round_trips`` sums must equal the device
counter deltas, so cache hits are invisible and prefetches are charged in
full.  The three headline ratios must also stay within 20 % of the committed
``BENCH_iospace.json`` (they compare strategy pairs on the same workload, so
machine and sizing variance largely divides out).  The fresh report is
written to ``REPRO_BENCH_IOSPACE_OUT`` (CI uploads it as an artifact).
"""

import json
import os
from pathlib import Path

from repro.bench.iospace import run_iospace

BASELINE_PATH = Path(__file__).resolve().parent.parent / "BENCH_iospace.json"
OUT_PATH = os.environ.get("REPRO_BENCH_IOSPACE_OUT", "BENCH_iospace.json")

#: tolerated fractional drift of a headline ratio in its bad direction
DRIFT_TOLERANCE = 0.20


def test_iospace_sweep():
    # Read before the fresh report is written: by default it overwrites it.
    baseline = json.loads(BASELINE_PATH.read_text())["headline"]
    report = run_iospace()
    path = report.write_json(OUT_PATH)

    print(
        f"\niospace [{report.family} n={report.num_vectors} "
        f"q={report.num_queries} cap={report.capacity_blocks}]: "
        f"bamg trips x{report.bamg_round_trip_ratio:.3f} "
        f"(recall x{report.bamg_recall_ratio:.3f}), "
        f"locality/lru reads x{report.locality_vs_lru_reads_ratio:.3f} "
        f"-> {path}"
    )

    # Counter honesty is non-negotiable in every cell: what the queries
    # claim must be exactly what the device counted — no silent
    # under-counting by any cache wrapper.
    for cell in report.cells:
        assert cell.counters_honest, (cell.layout, cell.cache)

    # (a) Block-aware pruning must pay in round trips without costing
    # accuracy against the very layout it laid blocks out with.
    assert report.bamg_round_trip_ratio < 1.0
    assert report.bamg_recall_ratio >= 1.0

    # (b) Locality-aware retention must beat plain recency at the same
    # capacity on the paper's best shuffler layout.
    assert report.locality_vs_lru_reads_ratio < 1.0

    # Drift against the committed baseline: lower-is-better ratios may not
    # rise, and the higher-is-better one may not fall, by more than 20 %.
    rise, fall = 1.0 + DRIFT_TOLERANCE, 1.0 - DRIFT_TOLERANCE
    assert report.bamg_round_trip_ratio <= (
        baseline["bamg_round_trip_ratio"] * rise
    )
    assert report.bamg_recall_ratio >= baseline["bamg_recall_ratio"] * fall
    assert report.locality_vs_lru_reads_ratio <= (
        baseline["locality_vs_lru_reads_ratio"] * rise
    )

    # A cache can only ever hide device reads, never add them; and the
    # uncached cell is the ceiling for every cached cell of its layout.
    for layout in {c.layout for c in report.cells}:
        ceiling = report.cell(layout, "none").mean_block_reads
        for cache in ("lru", "hot", "locality"):
            assert report.cell(layout, cache).mean_block_reads <= ceiling

    # The file must round-trip for the CI artifact consumer.
    with open(path) as fh:
        data = json.load(fh)
    assert data["headline"]["bamg_round_trip_ratio"] == (
        report.bamg_round_trip_ratio
    )
    assert data["headline"]["locality_vs_lru_reads_ratio"] == (
        report.locality_vs_lru_reads_ratio
    )
    assert data["counters_honest"] is True
    assert len(data["cells"]) == len(report.cells)
