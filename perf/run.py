"""One command for the segment-engine benchmark.

    python3 perf/run.py --workload NAME --seed S --seconds T --trace 0|1

builds the workload's inputs from the seed, sets the system up (three
times; ``setup_s`` is the median), runs the timed phase, verifies the
outputs and prints every metric by name with unit, direction and bound.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}`` — the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  Without
``--workload`` all four run in turn.  perf/README.md is the glossary.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perf" / "out"
BLAS_PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUPS = 3


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def run_workload(name: str, seed: int, seconds: float, scale: float,
                 trace: bool, spec: dict) -> dict:
    """Run one workload once; returns the full result document."""
    import numpy as np

    from perf.check import RECALL_FLOOR
    from perf.common import Sizing, median
    from perf.trace import Tracer
    from perf.workloads import WORKLOADS

    module = WORKLOADS[name]
    sizing = Sizing(seconds=seconds, scale=scale,
                    reference_seconds=spec["run_seconds"])
    tracer = Tracer(enabled=trace)
    workdir = OUT / f"work-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        inputs = module.make_inputs(seed, sizing)
        setups: list[float] = []
        system = None
        for i in range(SETUPS):
            if system is not None:
                module.teardown(system)
            t0 = time.perf_counter()
            system = module.setup(inputs, workdir / f"setup-{i}")
            setups.append(time.perf_counter() - t0)
        try:
            measured = module.measure(system, inputs, tracer)
            end_to_end = dict(measured.rows)
            end_to_end["setup_s"] = median(setups)
            per_layer = None
            if trace:
                per_layer = {m["name"]: 0.0 for m in spec["per_layer"]}
                per_layer.update(
                    module.layers(system, inputs, measured, tracer, workdir))
                per_layer["trace.overhead_fraction"] = (
                    tracer.count * tracer.span_cost_ns() / 1e9
                    / measured.timed_s)
        finally:
            module.teardown(system)
        end_to_end["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        if trace:
            tracer.dump(OUT / f"trace-{name}.json")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    tally = measured.tally
    if sizing.full and end_to_end["recall_at_10"] < RECALL_FLOOR:
        tally.fail(f"recall {end_to_end['recall_at_10']:.4f} under the "
                   f"floor {RECALL_FLOOR}")
    return {
        "workload": name,
        "why": next(w["why"] for w in spec["workloads"] if w["name"] == name),
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "not_for_comparison": not sizing.full,
        "valid": not measured.extra.get("invalid"),
        "invalid_because": measured.extra.get("invalid", []),
        "environment": {
            "nproc": len(os.sched_getaffinity(0)),
            "blas_threads": {v: os.environ.get(v) for v in BLAS_PINS},
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "setup_s_each": setups,
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": tally.reasons,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
    }


def report(result: dict, spec: dict) -> dict:
    """Print the human-readable table; returns the driver's JSON object."""
    print(f"# {result['workload']} seed={result['seed']} "
          f"seconds={result['seconds']:g} trace={int(result['trace'])}"
          + ("  NOT FOR COMPARISON (shortened run)"
             if result["not_for_comparison"] else ""))
    print(f"# why: {result['why']}")
    print(f"# environment: {json.dumps(result['environment'])}")
    for reason in result["invalid_because"]:
        print(f"# INVALID RUN: {reason}")
    for reason in result["failures"]:
        print(f"# FAILED: {reason}")

    def table(values: dict, metrics: list[dict]) -> dict:
        missing = {m["name"] for m in metrics} ^ set(values)
        if missing:
            raise SystemExit(f"metric set differs from BENCHMARK.json: "
                             f"{sorted(missing)}")
        out = {}
        for m in metrics:
            value = float(values[m["name"]])
            bound = f" bound={m['bound']:g}" if "bound" in m else ""
            print(f"{m['name']:<46} {value:>14.6g} {m['unit']:<10} "
                  f"{m['better']} is better{bound}")
            out[m["name"]] = {"value": value, "unit": m["unit"]}
        return out

    metrics = table(result["end_to_end"], spec["end_to_end"])
    if result["trace"]:
        metrics = table(result["per_layer"], spec["per_layer"])
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink data and work (smoke test only)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print("perf/run.py: the program under test (src/repro) is not in "
              "this checkout", file=sys.stderr)
        return 2
    # One BLAS thread, set before numpy loads: the load generator is the
    # main thread and the service gets one worker, which is all 2 vCPUs run.
    for var in BLAS_PINS:
        os.environ[var] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload is not None and args.workload not in names:
        parser.error(f"--workload must be one of {names}")
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    OUT.mkdir(parents=True, exist_ok=True)
    for name in names if args.workload is None else [args.workload]:
        result = run_workload(name, args.seed, seconds, args.scale,
                              bool(args.trace), spec)
        with open(OUT / f"result-{name}-trace{args.trace}.json", "w") as fh:
            json.dump(result, fh, indent=1)
        line = report(result, spec)
        print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
