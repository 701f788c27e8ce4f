"""Smoke test of the harness itself; run by hand, not part of tier-1:

    python3 -m pytest perf -q

Every workload runs untraced and traced at a twentieth of the size, emits
exactly the rows BENCHMARK.json lists, and the traced run repeats the
untraced run's counts bit for bit.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNT_ROWS = ("recall_at_10", "blocks_per_query", "round_trips_per_query")


def run(workload: str, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perf" / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "15", "--scale", "0.05",
         "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    result = json.loads(
        (ROOT / "perf" / "out" / f"result-{workload}-trace{trace}.json")
        .read_text())
    return line, result


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_emits_its_rows(workload):
    started = time.time()
    line, plain = run(workload, 0)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    assert plain["not_for_comparison"]
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {n: m["unit"] for n, m in line["metrics"].items()} == expected
    assert all(m["value"] != 0 for m in line["metrics"].values())

    traced_line, traced = run(workload, 1)
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {n: m["unit"] for n, m in traced_line["metrics"].items()} == expected
    for name in list(line["metrics"]) + list(traced_line["metrics"]):
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name)
    for name in COUNT_ROWS:
        assert traced["end_to_end"][name] == plain["end_to_end"][name], name
    # saved segments carry the builder's clock as text, so a few bytes vary
    assert traced["end_to_end"]["disk_bytes_per_vector_byte"] == pytest.approx(
        plain["end_to_end"]["disk_bytes_per_vector_byte"], rel=1e-3)
    assert (ROOT / "perf" / "out" / f"trace-{workload}.json").is_file()
    assert time.time() - started < 40


def test_refuses_a_checkout_without_the_program(tmp_path):
    (tmp_path / "perf").mkdir()
    for path in (ROOT / "perf").rglob("*.py"):
        target = tmp_path / path.relative_to(ROOT)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes(
        (ROOT / "BENCHMARK.json").read_bytes())
    proc = subprocess.run(
        [sys.executable, "perf/run.py", "--workload", "batch_uniform",
         "--seed", "1", "--seconds", "15", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=120,
    )
    assert proc.returncode != 0
    assert not proc.stdout.strip()
