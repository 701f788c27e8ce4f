"""Tests for the repro-starling CLI."""

import json

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.storage import index_files_dir, read_manifest
from repro.vectors import bigann_like, write_bin, write_vecs


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_build_defaults(self):
        args = build_parser().parse_args(
            ["build", "--synthetic", "bigann:100", "--out", "/tmp/x"]
        )
        assert args.framework == "starling"
        assert args.shuffle == "bnf"


class TestBuildAndSearch:
    @pytest.fixture(scope="class")
    def built(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("cli") / "idx"
        rc = main([
            "build", "--synthetic", "deep:400", "--num-queries", "8",
            "--out", str(out), "--max-degree", "12", "--build-ef", "24",
        ])
        assert rc == 0
        return out

    def test_build_writes_index(self, built):
        files_dir = index_files_dir(built)
        meta = json.loads((files_dir / "meta.json").read_text())
        assert meta["kind"] == "starling"
        assert (files_dir / "disk.bin").exists()
        # the atomic-commit layout: pointer + committed generation
        assert (built / "MANIFEST.json").exists()
        assert files_dir != built

    def test_info(self, built, capsys):
        assert main(["info", "--index", str(built)]) == 0
        out = capsys.readouterr().out
        assert '"kind": "starling"' in out

    def test_gt_and_search_with_recall(self, built, tmp_path, capsys):
        gt = tmp_path / "gt.bin"
        assert main([
            "gt", "--synthetic", "deep:400", "--num-queries", "8",
            "--k", "10", "--out", str(gt),
        ]) == 0
        assert main([
            "search", "--index", str(built), "--synthetic", "deep:400",
            "--num-queries", "8", "--k", "10", "--gamma", "48",
            "--gt", str(gt),
        ]) == 0
        out = capsys.readouterr().out
        assert "recall@10=" in out
        recall = float(out.rsplit("recall@10=", 1)[1].strip())
        assert recall > 0.6

    def test_search_show_ids(self, built, capsys):
        assert main([
            "search", "--index", str(built), "--synthetic", "deep:400",
            "--num-queries", "4", "--show", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "q0:" in out and "q1:" in out

    def test_exec_modes_print_the_same_line(self, built, capsys):
        """``search --exec-mode {serial,wave}`` — plain and under chaos
        (where ``wave`` means in-order waves of one) — print identical
        lines; cached, ``wave`` is one wave whose LRU sees the reads in
        (round, query) order, so the answers agree and the charged I/Os may
        not.  The fan-out modes and ``--workers`` left the subcommand."""
        base = [
            "search", "--index", str(built), "--synthetic", "deep:400",
            "--num-queries", "8", "--gamma", "24", "--show", "8",
        ]
        args = build_parser().parse_args(base)
        assert args.exec_mode == "wave" and not hasattr(args, "workers")
        for extra in (
            [],
            ["--cache-strategy", "lru", "--cache-blocks", "6"],
            ["--fault-transient", "0.2", "--fault-seed", "3"],
        ):
            lines = []
            for mode in ("serial", "wave"):
                assert main(base + extra + ["--exec-mode", mode]) == 0
                lines.append(capsys.readouterr().out)
            if "--cache-strategy" in extra:
                answers = [out.splitlines()[1:] for out in lines]
                assert answers[0] == answers[1] and len(answers[0]) == 8
            else:
                assert lines[0] == lines[1]
        assert "faults:" in lines[0]
        for gone in (["--exec-mode", "threads"], ["--workers", "2"]):
            with pytest.raises(SystemExit):
                build_parser().parse_args(base + gone)
        capsys.readouterr()

    def test_diskann_framework(self, tmp_path, capsys):
        out = tmp_path / "didx"
        assert main([
            "build", "--synthetic", "deep:300", "--num-queries", "4",
            "--out", str(out), "--framework", "diskann",
            "--max-degree", "12", "--build-ef", "24",
        ]) == 0
        assert main([
            "search", "--index", str(out), "--synthetic", "deep:300",
            "--num-queries", "4",
        ]) == 0


class TestFsckCommand:
    @pytest.fixture(scope="class")
    def built(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("fsck") / "idx"
        assert main([
            "build", "--synthetic", "deep:300", "--num-queries", "4",
            "--out", str(out), "--max-degree", "12", "--build-ef", "24",
        ]) == 0
        return out

    def test_clean_exit_zero(self, built, capsys):
        assert main(["fsck", str(built)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_repairable_exit_one(self, built, tmp_path, capsys):
        # a stray staging dir is crash debris fsck sweeps
        stage = built / ".stage-000099"
        stage.mkdir()
        (stage / "junk").write_bytes(b"x")
        assert main(["fsck", str(built)]) == 1
        assert not stage.exists()
        assert main(["fsck", str(built)]) == 0

    def test_no_repair_reports_without_touching(self, built):
        stage = built / ".stage-000098"
        stage.mkdir()
        assert main(["fsck", str(built), "--no-repair"]) == 1
        assert stage.exists()  # nothing changed on disk
        assert main(["fsck", str(built)]) == 1  # real run sweeps it

    def test_unrecoverable_exit_two(self, built, capsys):
        gen = built / read_manifest(built).directory
        payload = (gen / "disk.bin").read_bytes()
        try:
            (gen / "disk.bin").write_bytes(payload[:64])
            assert main(["fsck", str(built), "--no-repair"]) == 2
        finally:
            (gen / "disk.bin").write_bytes(payload)
        assert main(["fsck", str(built)]) == 0

    def test_json_report(self, built, tmp_path, capsys):
        report = tmp_path / "fsck.json"
        assert main([
            "fsck", str(built), "--json", "--report", str(report),
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "clean"
        assert json.loads(report.read_text())["exit_code"] == 0

    def test_search_damaged_index_exits_two(self, built, capsys):
        gen = built / read_manifest(built).directory
        payload = (gen / "pq.npz").read_bytes()
        try:
            (gen / "pq.npz").write_bytes(payload[:-7])
            with pytest.raises(SystemExit) as excinfo:
                main([
                    "search", "--index", str(built),
                    "--synthetic", "deep:300", "--num-queries", "2",
                ])
            assert excinfo.value.code == 2
            assert "error:" in capsys.readouterr().err
        finally:
            (gen / "pq.npz").write_bytes(payload)

    def test_info_missing_index_exits_two(self, tmp_path, capsys):
        assert main(["info", "--index", str(tmp_path / "nope")]) == 2
        assert "error:" in capsys.readouterr().err


class TestBenchCommand:
    def test_bench_writes_markdown_report(self, tmp_path, capsys):
        out = tmp_path / "report.md"
        rc = main([
            "bench", "--synthetic", "deep:400", "--num-queries", "6",
            "--out", str(out), "--max-degree", "12", "--build-ef", "24",
        ])
        assert rc == 0
        content = out.read_text()
        assert content.startswith("# Starling reproduction")
        assert "## ANNS frontier" in content
        assert "starling" in content and "diskann" in content
        assert "## Space cost" in content


class TestFileInputs:
    def test_build_from_fvecs(self, tmp_path):
        ds = bigann_like(300, 5)
        data = tmp_path / "base.fvecs"
        write_vecs(data, ds.vectors.astype(np.float32))
        out = tmp_path / "idx"
        assert main([
            "build", "--data", str(data), "--out", str(out),
            "--max-degree", "12", "--build-ef", "24", "--num-queries", "4",
        ]) == 0
        assert (index_files_dir(out) / "meta.json").exists()

    def test_build_from_u8bin(self, tmp_path):
        ds = bigann_like(300, 5)
        data = tmp_path / "base.u8bin"
        write_bin(data, ds.vectors)
        out = tmp_path / "idx"
        assert main([
            "build", "--data", str(data), "--out", str(out),
            "--max-degree", "12", "--build-ef", "24", "--num-queries", "4",
        ]) == 0

    def test_unsupported_extension(self, tmp_path):
        bad = tmp_path / "x.npy"
        bad.write_bytes(b"")
        with pytest.raises(SystemExit, match="unsupported"):
            main(["build", "--data", str(bad), "--out", str(tmp_path / "i")])

    def test_missing_data_and_synthetic(self, tmp_path):
        with pytest.raises(SystemExit, match="required"):
            main(["build", "--out", str(tmp_path / "i")])


class TestServeCommand:
    @pytest.fixture(scope="class")
    def built(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("cli-serve") / "idx"
        assert main([
            "build", "--synthetic", "bigann:300", "--num-queries", "6",
            "--out", str(out), "--max-degree", "12", "--build-ef", "24",
        ]) == 0
        return out

    def test_save_config_without_index(self, tmp_path, capsys):
        cfg = tmp_path / "serve.json"
        assert main([
            "serve", "--save-config", str(cfg),
            "--workers", "2", "--queue-depth", "8",
            "--deadline-ms", "5", "--shed-tiers", "32,16",
        ]) == 0
        spec = json.loads(cfg.read_text())
        assert spec["workers"] == 2
        assert spec["queue_depth"] == 8
        assert spec["deadline_us"] == 5000.0
        assert spec["shed_tiers"] == [32, 16]

    def test_config_round_trip_drives_service(self, built, tmp_path, capsys):
        """A saved ServeSpec reloads via --config and flags override it."""
        cfg = tmp_path / "serve.json"
        assert main([
            "serve", "--save-config", str(cfg),
            "--workers", "2", "--queue-depth", "8", "--shed-tiers", "32,16",
        ]) == 0
        capsys.readouterr()
        assert main([
            "serve", "--index", str(built), "--synthetic", "bigann:300",
            "--num-queries", "6", "--config", str(cfg),
            "--arrivals", "30", "--deadline-ms", "50", "--seed", "1",
        ]) == 0
        out = capsys.readouterr().out
        assert "served 30 arrivals" in out
        assert "virtual clock" in out
        assert "deadline 50.00 ms" in out

    def test_serve_requires_index(self):
        with pytest.raises(SystemExit, match="--index"):
            main(["serve", "--synthetic", "bigann:300"])

    def test_threaded_smoke(self, built, capsys):
        assert main([
            "serve", "--index", str(built), "--synthetic", "bigann:300",
            "--num-queries", "6", "--arrivals", "12", "--threads",
            "--workers", "2", "--queue-depth", "4",
        ]) == 0
        out = capsys.readouterr().out
        assert "served 12 arrivals [threads" in out
