"""Perf regression guard: freshly measured metrics vs committed baselines.

CI re-runs the measured benches into side files (``REPRO_BENCH_*_OUT``) and
then compares their headline metrics against the ``BENCH_*.json`` baselines
committed in the repository.  Each metric declares a direction:
``higher``-is-better metrics (speedups, model agreement) fail when the fresh
value drops more than ``tolerance`` below baseline; ``lower``-is-better
metrics (tail latency, reject rates) fail when it rises more than
``tolerance`` above.  Moving in the good direction is always fine.  Only
dimensionless metrics gate, and none of them is a ratio over a strawman.
The wall-clock legs both run the same decode, so there is no honest ratio
between them to guard; their absolute ms/query is a ``report`` metric —
printed beside the baseline, never failing.  An absolute time compares a
shared CI runner with whatever machine committed the baseline, and even on
one box two consecutive runs at the CI sizing (n=1500, q=60) read 3.38 and
4.02 ms/q on the serial leg.  Same-machine speed is what the paired
``perf/run.py`` benchmark measures.

Usage::

    python -m repro.bench.guard wallclock FRESH.json BASELINE.json \
                                [serve FRESH.json BASELINE.json ...]
"""

from __future__ import annotations

import json
import sys

#: headline metrics per report kind: (label, path into the dict, direction)
METRICS: dict[str, list[tuple[str, tuple[str, ...], str]]] = {
    "wallclock": [
        ("serial ms/query", ("serial", "ms_per_query"), "report"),
        ("wave ms/query", ("wave", "ms_per_query"), "report"),
        # Coalescing effectiveness is a fraction of the wave's own requested
        # reads, so it is insensitive to the workload sizing (measured ≈0.50
        # at both the committed and the CI sizing).
        (
            "wave coalesced-read fraction",
            ("wave", "coalesced_fraction"),
            "higher",
        ),
    ],
    "build": [
        ("end-to-end build speedup", ("phases", "total_speedup"), "higher"),
        ("graph build speedup", ("graph_build", "speedup"), "higher"),
    ],
    # The iospace headline ratios compare strategy pairs on the *same*
    # workload (bamg vs its unpruned base layout; locality vs LRU at equal
    # capacity), so machine and sizing variance largely divides out.
    "iospace": [
        (
            "bamg vs base-layout round trips",
            ("headline", "bamg_round_trip_ratio"),
            "lower",
        ),
        (
            "bamg vs base-layout recall",
            ("headline", "bamg_recall_ratio"),
            "higher",
        ),
        (
            "locality vs LRU device block reads",
            ("headline", "locality_vs_lru_reads_ratio"),
            "lower",
        ),
    ],
    # Churn guards the ingest lifecycle's serving contract: recall is a
    # fraction and the p99 guard is a cycle-over-first ratio, so both are
    # insensitive to CI running a smaller sizing than the baseline.
    "churn": [
        (
            "min per-cycle recall@k under churn",
            ("headline", "min_cycle_recall"),
            "higher",
        ),
        (
            "worst cycle-over-first p99 blocks ratio",
            ("headline", "max_p99_blocks_ratio"),
            "lower",
        ),
    ],
    # The serving metrics are all dimensionless (ratios of simulated time or
    # of arrival counts), so they are insensitive to the workload sizing the
    # run happened to use.
    "serve": [
        (
            "saturation vs analytical model (QPS ratio)",
            ("validation", "qps_ratio"),
            "higher",
        ),
        (
            "p99 sojourn / deadline at max offered load",
            ("max_load", "p99_over_deadline"),
            "lower",
        ),
        (
            "reject rate at max offered load",
            ("max_load", "reject_rate"),
            "lower",
        ),
    ],
}

#: maximum tolerated fractional regression before the guard fails
DEFAULT_TOLERANCE = 0.20


def _lookup(data: dict, path: tuple[str, ...]) -> float:
    for key in path:
        data = data[key]
    return float(data)


def check_report(
    kind: str, fresh: dict, baseline: dict,
    tolerance: float = DEFAULT_TOLERANCE,
) -> list[str]:
    """Compare one fresh report against its baseline; returns failures."""
    if kind not in METRICS:
        raise ValueError(f"unknown report kind {kind!r}")
    failures = []
    for label, path, direction in METRICS[kind]:
        base = _lookup(baseline, path)
        new = _lookup(fresh, path)
        if direction == "report":
            print(
                f"[{kind}] {label}: baseline {base:.3f}, fresh {new:.3f} "
                f"(reported, not gated)"
            )
            continue
        if direction == "higher":
            bound = base * (1.0 - tolerance)
            ok = new >= bound
            bound_name = "floor"
        else:
            bound = base * (1.0 + tolerance)
            ok = new <= bound
            bound_name = "ceiling"
        status = "OK" if ok else "REGRESSION"
        print(
            f"[{kind}] {label}: baseline {base:.3f}, fresh {new:.3f}, "
            f"{bound_name} {bound:.3f} -> {status}"
        )
        if not ok:
            failures.append(
                f"{kind}: {label} regressed more than "
                f"{tolerance:.0%} (baseline {base:.3f}, fresh {new:.3f})"
            )
    return failures


def main(argv: list[str]) -> int:
    if not argv or len(argv) % 3 != 0:
        print(__doc__)
        return 2
    failures: list[str] = []
    for i in range(0, len(argv), 3):
        kind, fresh_path, baseline_path = argv[i : i + 3]
        with open(fresh_path) as fh:
            fresh = json.load(fh)
        with open(baseline_path) as fh:
            baseline = json.load(fh)
        failures.extend(check_report(kind, fresh, baseline))
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover - CI entry point
    raise SystemExit(main(sys.argv[1:]))
