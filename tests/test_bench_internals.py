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


def _wallclock_report(serial=4.0, wave=2.5, coalesced=0.5):
    return {
        "serial": {"ms_per_query": serial},
        "wave": {"ms_per_query": wave, "coalesced_fraction": coalesced},
    }


class TestPerfGuard:
    """The CI regression guard: fresh metrics vs committed baselines."""

    WALLCLOCK = _wallclock_report()
    BUILD = {
        "phases": {"total_speedup": 1.4},
        "graph_build": {"speedup": 3.5},
    }

    def test_identical_reports_pass(self):
        from repro.bench.guard import check_report

        assert check_report("wallclock", self.WALLCLOCK, self.WALLCLOCK) == []
        assert check_report("build", self.BUILD, self.BUILD) == []

    def test_within_tolerance_passes(self):
        from repro.bench.guard import check_report

        # coalescing 10% down, under the 20% gate
        fresh = _wallclock_report(coalesced=0.45)
        assert check_report("wallclock", fresh, self.WALLCLOCK) == []

    def test_regression_beyond_tolerance_fails(self):
        from repro.bench.guard import check_report

        fresh = _wallclock_report(coalesced=0.5 * 0.7)
        failures = check_report("wallclock", fresh, self.WALLCLOCK)
        assert len(failures) == 1
        assert "coalesced" in failures[0]

    def test_wave_metrics_checked_independently(self):
        from repro.bench.guard import check_report

        # A slower machine is not a regression: absolute ms/query is
        # printed beside the baseline and never gates.
        fresh = _wallclock_report(4.0 * 3, 2.5 * 3)
        assert check_report("wallclock", fresh, self.WALLCLOCK) == []
        # wall clock fine, coalescing collapsed: must be caught
        fresh = _wallclock_report(coalesced=0.1)
        failures = check_report("wallclock", fresh, self.WALLCLOCK)
        assert len(failures) == 1
        assert "coalesced" in failures[0]

    def test_faster_than_baseline_passes(self):
        from repro.bench.guard import check_report

        fresh = _wallclock_report(2.0, 1.2, 0.6)
        assert check_report("wallclock", fresh, self.WALLCLOCK) == []

    def test_no_strawman_ratio_is_guarded(self):
        """With one decode the serial leg is no strawman: ratios over it
        left the guard, and each leg's absolute ms/query is reported."""
        from repro.bench.guard import METRICS

        by_path = {path: d for _, path, d in METRICS["wallclock"]}
        assert not any("speedup" in path for path in by_path)
        for leg in ("serial", "wave"):
            assert by_path[(leg, "ms_per_query")] == "report"

    def test_build_metrics_checked_independently(self):
        from repro.bench.guard import check_report

        fresh = {
            "phases": {"total_speedup": 1.5},
            "graph_build": {"speedup": 3.5 * 0.5},
        }
        failures = check_report("build", fresh, self.BUILD)
        assert len(failures) == 1
        assert "graph build speedup" in failures[0]

    SERVE = {
        "validation": {"qps_ratio": 0.98},
        "max_load": {"p99_over_deadline": 1.4, "reject_rate": 0.10},
    }

    def test_serve_identical_passes(self):
        from repro.bench.guard import check_report

        assert check_report("serve", self.SERVE, self.SERVE) == []

    def test_serve_lower_is_better_ceiling(self):
        from repro.bench.guard import check_report

        fresh = {
            "validation": {"qps_ratio": 0.98},
            # p99/deadline up 50%: past the 20% ceiling
            "max_load": {"p99_over_deadline": 2.1, "reject_rate": 0.10},
        }
        failures = check_report("serve", fresh, self.SERVE)
        assert len(failures) == 1
        assert "p99" in failures[0]

    def test_serve_improvement_passes_both_directions(self):
        from repro.bench.guard import check_report

        fresh = {
            "validation": {"qps_ratio": 1.0},      # closer to the model
            "max_load": {"p99_over_deadline": 0.9,  # faster tail
                         "reject_rate": 0.0},       # fewer rejects
        }
        assert check_report("serve", fresh, self.SERVE) == []

    def test_unknown_kind_rejected(self):
        from repro.bench.guard import check_report

        with pytest.raises(ValueError):
            check_report("nope", {}, {})

    def test_main_exit_codes(self, tmp_path):
        import json

        from repro.bench.guard import main

        base = tmp_path / "base.json"
        base.write_text(json.dumps(self.WALLCLOCK))
        ok = tmp_path / "ok.json"
        ok.write_text(json.dumps(_wallclock_report(serial=8.0)))
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(_wallclock_report(coalesced=0.1)))

        assert main(["wallclock", str(ok), str(base)]) == 0
        assert main(["wallclock", str(bad), str(base)]) == 1
        assert main([]) == 2
        assert main(["wallclock", str(ok)]) == 2
