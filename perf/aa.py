"""A/A check: do two sets of runs of the same tree agree within the bounds?

    python3 perf/aa.py [--sets 2] [--runs 10] [--workload NAME ...]

Runs ``perf/run.py`` once per (set, seed, workload), the sets interleaved
A B A B so drift over the session hits both alike, each run of a set on
another seed.  Per workload and end-to-end metric it prints each set's
median, its spread (distance between the quartiles as a share of the
median, from ``statistics.quantiles(values, n=4)``) and how much worse the
later set's median is than the first's, all against the metric's bound.
Exits 1 if a spread (``setup_s`` excepted) or a disagreement breaks its
bound.  A row that breaks it belongs among the per-layer metrics, not
under a wider bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perf" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited "
                         f"{proc.returncode}:\n{proc.stderr}")
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    if not line["correct"] or line["failed"]:
        raise SystemExit(f"{workload} seed {seed}: {line['failed']} of "
                         f"{line['attempted']} operations failed")
    return {name: m["value"] for name, m in line["metrics"].items()}


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_by(first: float, later: float, better: str) -> float:
    """Share of ``first`` by which ``later`` is worse (negative: better)."""
    change = (later - first) / first
    return change if better == "lower" else -change


def main(argv: list[str] | None = None) -> int:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--json", type=Path, help="also write every value here")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("quartiles need at least 2 runs")
    workloads = args.workload or names

    values: dict = {w: [dict() for _ in range(args.sets)] for w in workloads}
    started = time.time()
    for i in range(args.runs):
        for s in range(args.sets):
            for w in workloads:
                got = run_once(w, args.first_seed + i, args.seconds, 0)
                for name, value in got.items():
                    values[w][s].setdefault(name, []).append(value)
        print(f"# seed {args.first_seed + i} done, "
              f"{time.time() - started:.0f} s elapsed", file=sys.stderr)
    if args.json:
        args.json.write_text(json.dumps(values, indent=1))

    breaches = 0
    for w in workloads:
        print(f"\n## {w}  ({args.runs} seeds x {args.sets} sets)")
        print(f"{'metric':<28}{'bound':>7}" + "".join(
            f"{'median ' + chr(65 + s):>14}{'spread':>8}"
            for s in range(args.sets)) + f"{'worse by':>10}")
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            medians = [statistics.median(values[w][s][name])
                       for s in range(args.sets)]
            spreads = [spread(values[w][s][name]) for s in range(args.sets)]
            worst = max([worse_by(medians[0], later, m["better"])
                         for later in medians[1:]], default=0.0)
            broke = worst > bound or (
                name != "setup_s" and max(spreads) > bound)
            wide = name != "setup_s" and max(spreads) > bound / 3
            breaches += broke
            print(f"{name:<28}{bound:>7g}" + "".join(
                f"{med:>14.6g}{sp:>8.2%}"
                for med, sp in zip(medians, spreads))
                + f"{worst:>10.2%}"
                + ("  BREACH" if broke else "  wide" if wide else ""))
    print(f"\n{breaches} breach(es)")
    return 1 if breaches else 0


if __name__ == "__main__":
    sys.exit(main())
