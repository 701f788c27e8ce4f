"""Kernel microbenchmarks: decode, ADC, frontier push.

The hard assertion here is the zero-copy data plane's allocation contract:
after warm-up, the arena decode path performs **zero** allocations per
block (no arena growth, no new bytes) — the property the whole tentpole
rests on.  Timings are reported, not asserted (they localize regressions
via the ``BENCH_micro.json`` CI artifact; the >20% gate compares the macro
benches).
"""

import json
import os

from repro.bench.microbench import run_microbench, write_json

OUT_PATH = os.environ.get("REPRO_BENCH_MICRO_OUT", "BENCH_micro.json")


def test_microbench_kernels():
    report = run_microbench()
    path = write_json(report, OUT_PATH)

    decode = report["decode"]
    print(
        f"\nmicrobench: decode view {decode['view_us_per_block']:.1f}, "
        f"arena {decode['arena_us_per_block']:.1f} us/block, "
        f"adc table {report['adc']['table_build_us']:.0f} us, "
        f"frontier push {report['frontier']['push_many_us_per_batch']:.1f} "
        f"us/batch -> {path}"
    )

    # Zero steady-state per-block allocations in the arena search path.
    assert decode["steady_state_grow_events"] == 0
    assert decode["steady_state_bytes_allocated"] == 0

    # The artifact must round-trip with every section present.
    with open(path) as fh:
        data = json.load(fh)
    for section in ("decode", "adc", "frontier", "environment"):
        assert section in data
