"""Tests for bench-harness internals: formatting, env sizing, sweeps."""

import pytest

from repro.bench.tables import _fmt, format_table, speedup
from repro.bench.workloads import (
    bench_num_queries,
    bench_segment_size,
    default_graph_config,
)


class TestFormatting:
    def test_fmt_zero(self):
        assert _fmt(0.0) == "0"

    def test_fmt_thousands(self):
        assert _fmt(12345.6) == "12,346"

    def test_fmt_mid_range(self):
        assert _fmt(42.55) == "42.5"

    def test_fmt_small(self):
        assert _fmt(0.12345) == "0.1235"  # 4 significant decimals, rounded

    def test_fmt_strings_passthrough(self):
        assert _fmt("abc") == "abc"
        assert _fmt(7) == "7"

    def test_table_handles_empty_rows(self):
        out = format_table("T", ["a", "b"], [])
        assert "== T ==" in out
        assert "a" in out

    def test_table_column_alignment(self):
        out = format_table("T", ["col"], [["x"], ["longer-value"]])
        lines = out.splitlines()
        assert len(lines[1]) <= len(lines[3])

    def test_speedup_rounding(self):
        assert speedup(45.0, 10.0) == "4.5x"


class TestEnvSizing(object):
    def test_bench_n_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_N", "1234")
        assert bench_segment_size() == 1234

    def test_bench_queries_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_QUERIES", "7")
        assert bench_num_queries() == 7

    def test_default_graph_config_overrides(self):
        cfg = default_graph_config(max_degree=99, build_ef=120)
        assert cfg.max_degree == 99
        assert cfg.build_ef == 120
        assert cfg.alpha == 1.2  # untouched defaults stay


class TestSweepEdgeCases:
    def test_sweep_range_falls_back_for_fixed_signature(self, spann_index,
                                                        small_dataset):
        """SPANN's range_search has no initial_candidate_size knob; the
        sweep must degrade gracefully instead of crashing."""
        from repro.bench import sweep_range
        from repro.vectors import range_search as brute

        radius = small_dataset.default_radius
        truth = brute(small_dataset.vectors, small_dataset.queries, radius,
                      small_dataset.metric)
        curves = sweep_range(
            "spann", spann_index, small_dataset.queries[:4], truth[:4],
            radius, [8, 16],
        )
        assert len(curves) == 2
        assert all(0.0 <= c.accuracy <= 1.0 for c in curves)

    def test_run_anns_threads_propagate(self, starling_index, small_dataset,
                                        small_truth):
        from repro.bench import run_anns

        truth, _ = small_truth
        s4 = run_anns("x", starling_index, small_dataset.queries[:3],
                      truth[:3], threads=4)
        s8 = run_anns("x", starling_index, small_dataset.queries[:3],
                      truth[:3], threads=8)
        assert s8.qps == pytest.approx(2 * s4.qps, rel=0.05)

    def test_summarize_requires_results(self, starling_index):
        from repro.metrics import summarize

        with pytest.raises(ValueError):
            summarize("x", starling_index, [], 1.0)
