"""Wall-clock benchmark: serial loop vs the wave executor.

Unlike every other bench in this directory, the timings here are *measured*
(see ``repro/bench/wallclock.py``); the hard assertions are that batching
changes nothing observable — per-query results and I/O counters are
identical.  Timings are reported as absolute ms/query per leg (both legs
run the same decode, so a ratio over the serial loop is no longer a
headline); ``repro.bench.guard`` watches them against the committed
baseline.  The wave leg must additionally coalesce reads: queries requesting the same block in the same lockstep round share
one physical read.  The report is written to ``BENCH_wallclock.json`` (CI
uploads it as an artifact).
"""

import json
import os

from repro.bench.wallclock import run_wallclock

OUT_PATH = os.environ.get("REPRO_BENCH_WALLCLOCK_OUT", "BENCH_wallclock.json")


def test_wallclock_batched_vs_serial():
    report = run_wallclock()
    path = report.write_json(OUT_PATH)

    print(
        f"\nwallclock [{report.family} n={report.num_vectors} "
        f"q={report.num_queries}]: "
        f"serial {report.serial_ms_per_query:.2f} ms/q, "
        f"wave {report.wave_ms_per_query:.2f} ms/q "
        f"(coalesced {report.wave_coalesced_block_reads}"
        f"/{report.wave_requested_block_reads} reads) -> {path}"
    )

    # Correctness is non-negotiable: batching and lockstep waves must be
    # invisible in results and in every per-query I/O counter.
    assert report.results_identical
    assert report.counters_identical

    # With many queries over a small segment, same-round block sharing must
    # actually occur — a zero here means coalescing silently stopped.
    assert report.wave_coalesced_block_reads > 0
    assert (
        report.wave_issued_block_reads + report.wave_coalesced_block_reads
        == report.wave_requested_block_reads
    )

    # The file must round-trip for the CI artifact consumer and the guard.
    with open(path) as fh:
        data = json.load(fh)
    for leg in ("serial", "wave"):
        assert data[leg]["ms_per_query"] > 0.0
    assert data["wave"]["coalesced_fraction"] == report.wave_coalesced_fraction
    assert len(data["per_query_counters"]) == report.num_queries
