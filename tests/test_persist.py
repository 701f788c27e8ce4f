"""Tests for index persistence (save/load with identical query behaviour)."""

import json
import shutil

import numpy as np
import pytest

from repro.core import BuildTimings, StarlingConfig, build_starling
from repro.storage import (
    DigestMismatchError,
    IndexLoadError,
    fsck,
    index_files_dir,
    load_diskann,
    load_starling,
    read_index_meta,
    read_manifest,
    save_diskann,
    save_starling,
)
from repro.storage.manifest import (
    CommitTransaction,
    digest_entry,
    npz_bytes,
    write_pointer,
)


def _resign(root):
    """Recompute manifest digests after a test tampers with a gen file.

    Lets a test damage content *legitimately* (as if the save had written
    it that way) so checks deeper than digest verification are reachable.
    """
    manifest = read_manifest(root)
    gen_dir = root / manifest.directory
    manifest.files = {
        name: digest_entry((gen_dir / name).read_bytes())
        for name in manifest.files
    }
    write_pointer(root, manifest)


def _flat_directory(index, root):
    """``meta.json`` + data files directly in ``root``, no ``MANIFEST.json``
    (the layout releases before the manifest commit wrote)."""
    save_starling(index, root)
    gen_dir = root / read_manifest(root).directory
    for child in gen_dir.iterdir():
        if child.name != "_manifest.json":
            shutil.move(str(child), str(root / child.name))
    shutil.rmtree(gen_dir)
    (root / "MANIFEST.json").unlink()


def _updatable_directory(index, root):
    """A cleanly committed manifest directory of kind ``"updatable"`` (the
    top level of what the removed ``save_updatable`` wrote)."""
    txn = CommitTransaction(root, "updatable")
    txn.write_file("state.npz", npz_bytes(deleted=np.arange(3)))
    txn.write_file(
        "meta.json",
        json.dumps({"kind": "updatable", "format_version": 1}).encode(),
    )
    txn.commit()


class TestStarlingPersistence:
    def test_roundtrip_identical_results(self, starling_index, small_dataset,
                                         tmp_path):
        save_starling(starling_index, tmp_path / "idx")
        loaded = load_starling(tmp_path / "idx")
        for q in small_dataset.queries[:5]:
            a = starling_index.search(q, 10, 64)
            b = loaded.search(q, 10, 64)
            assert np.array_equal(a.ids, b.ids)
            assert np.allclose(a.dists, b.dists)
            assert a.stats.num_ios == b.stats.num_ios
            assert a.stats.hops == b.stats.hops

    def test_roundtrip_range_search(self, starling_index, small_dataset,
                                    tmp_path):
        save_starling(starling_index, tmp_path / "idx")
        loaded = load_starling(tmp_path / "idx")
        radius = small_dataset.default_radius
        a = starling_index.range_search(small_dataset.queries[0], radius)
        b = loaded.range_search(small_dataset.queries[0], radius)
        assert np.array_equal(a.ids, b.ids)

    def test_metadata_preserved(self, starling_index, tmp_path):
        save_starling(starling_index, tmp_path / "idx")
        loaded = load_starling(tmp_path / "idx")
        assert loaded.layout_or == starling_index.layout_or
        assert loaded.config == starling_index.config
        assert loaded.memory_bytes == starling_index.memory_bytes
        assert loaded.disk_bytes == starling_index.disk_bytes
        # wall clock is not part of a saved index
        assert loaded.timings == BuildTimings()

    def test_saving_twice_is_byte_identical(self, starling_index, tmp_path):
        """No wall clock in the artefact: two saves of one built index
        write the same ``meta.json`` (and so the same directory size)."""
        metas = []
        for name in ("a", "b"):
            save_starling(starling_index, tmp_path / name)
            metas.append(
                (index_files_dir(tmp_path / name) / "meta.json").read_bytes()
            )
        assert metas[0] == metas[1]
        assert b"timings" not in metas[0]

    def test_old_save_with_timings_still_loads(
        self, starling_index, tmp_path
    ):
        save_starling(starling_index, tmp_path / "idx")
        meta_path = index_files_dir(tmp_path / "idx") / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta["timings"] = {"disk_graph_s": 1.5}
        meta_path.write_text(json.dumps(meta))
        _resign(tmp_path / "idx")
        assert load_starling(tmp_path / "idx").timings == BuildTimings()

    def test_fixed_entry_point_variant(self, small_dataset, graph_config,
                                       tmp_path):
        idx = build_starling(
            small_dataset,
            StarlingConfig(graph=graph_config, use_navigation_graph=False),
        )
        save_starling(idx, tmp_path / "idx")
        loaded = load_starling(tmp_path / "idx")
        q = small_dataset.queries[0]
        assert np.array_equal(
            idx.search(q, 10, 48).ids, loaded.search(q, 10, 48).ids
        )

    def test_rejects_wrong_type(self, diskann_index, tmp_path):
        with pytest.raises(TypeError):
            save_starling(diskann_index, tmp_path / "idx")

    def test_block_cache_config_restored(self, small_dataset, graph_config,
                                         tmp_path):
        idx = build_starling(
            small_dataset,
            StarlingConfig(graph=graph_config, block_cache_blocks=32),
        )
        save_starling(idx, tmp_path / "idx")
        loaded = load_starling(tmp_path / "idx")
        from repro.engine import CachedDiskGraph

        assert isinstance(loaded.disk_graph, CachedDiskGraph)
        assert loaded.disk_graph.capacity_blocks == 32

    @pytest.mark.parametrize("capacity", [0, 32])
    def test_null_cache_strategy_loads_as_lru(
        self, small_dataset, graph_config, tmp_path, capacity
    ):
        """Older saves wrote ``"cache_strategy": null`` (LRU iff a capacity
        is set); such a ``meta.json`` loads to the same wrapper, config and
        counters as a save that spells out ``"lru"``."""
        idx = build_starling(
            small_dataset,
            StarlingConfig(graph=graph_config, block_cache_blocks=capacity),
        )
        loaded = []
        for name in ("lru", "null"):
            save_starling(idx, tmp_path / name)
            if name == "null":
                meta_path = index_files_dir(tmp_path / name) / "meta.json"
                meta = json.loads(meta_path.read_text())
                assert meta["config"]["cache_strategy"] == "lru"
                meta["config"]["cache_strategy"] = None
                meta_path.write_text(json.dumps(meta))
                _resign(tmp_path / name)
            loaded.append(load_starling(tmp_path / name))
        current, old = loaded
        assert old.config == current.config
        assert type(old.disk_graph) is type(current.disk_graph)
        assert getattr(old.disk_graph, "capacity_blocks", 0) == capacity
        for q in small_dataset.queries[:4]:
            a, b = current.search(q, 10, 48), old.search(q, 10, 48)
            assert np.array_equal(a.ids, b.ids)
            assert a.stats.round_trip_blocks == b.stats.round_trip_blocks
            assert a.stats.block_cache_hits == b.stats.block_cache_hits

    @pytest.mark.parametrize(
        "layout, shuffle, layout_strategy",
        [("bamg", "bnf", "bamg"), ("bnp", "bnp", None)],
    )
    def test_two_layout_keys_load_as_one(
        self, small_dataset, graph_config, tmp_path, layout, shuffle,
        layout_strategy,
    ):
        """Older saves named the layout twice — ``shuffle`` plus a
        ``layout_strategy`` that overrode it when set (``null`` when not).
        Such a ``meta.json`` loads to the same layout, the same co-resident
        fold and the same answers as a save that names it once."""
        idx = build_starling(
            small_dataset, StarlingConfig(graph=graph_config, shuffle=layout)
        )
        loaded = []
        for name in ("one", "two"):
            save_starling(idx, tmp_path / name)
            if name == "two":
                meta_path = index_files_dir(tmp_path / name) / "meta.json"
                meta = json.loads(meta_path.read_text())
                cfg = meta["config"]
                assert cfg["shuffle"] == layout
                assert "layout_strategy" not in cfg
                cfg["shuffle"] = shuffle
                cfg["layout_strategy"] = layout_strategy
                meta_path.write_text(json.dumps(meta))
                _resign(tmp_path / name)
            loaded.append(load_starling(tmp_path / name))
        current, old = loaded
        assert old.config == current.config
        assert old.config.shuffle == layout
        assert old.engine.fold_coresident == current.engine.fold_coresident
        assert old.engine.fold_coresident == (layout == "bamg")
        assert np.array_equal(
            old.disk_graph.vertex_to_block, current.disk_graph.vertex_to_block
        )
        for q in small_dataset.queries[:4]:
            a, b = current.search(q, 10, 48), old.search(q, 10, 48)
            assert np.array_equal(a.ids, b.ids)
            assert a.stats.__dict__ == b.stats.__dict__

    def test_rejects_wrong_kind_on_load(self, diskann_index, tmp_path):
        save_diskann(diskann_index, tmp_path / "idx")
        with pytest.raises(ValueError, match="does not hold a Starling"):
            load_starling(tmp_path / "idx")

    def test_rejects_corrupt_disk_payload(self, starling_index, tmp_path):
        save_starling(starling_index, tmp_path / "idx")
        disk = index_files_dir(tmp_path / "idx") / "disk.bin"
        disk.write_bytes(disk.read_bytes()[:-10])
        with pytest.raises(ValueError, match="expected"):
            load_starling(tmp_path / "idx")

    def test_truncated_disk_bin_is_typed_digest_error(self, starling_index,
                                                      tmp_path):
        save_starling(starling_index, tmp_path / "idx")
        disk = index_files_dir(tmp_path / "idx") / "disk.bin"
        disk.write_bytes(disk.read_bytes()[:256])
        with pytest.raises(DigestMismatchError, match="truncated or corrupt"):
            load_starling(tmp_path / "idx")

    def test_bit_flip_in_pq_detected_not_served(self, starling_index,
                                                tmp_path):
        save_starling(starling_index, tmp_path / "idx")
        pq = index_files_dir(tmp_path / "idx") / "pq.npz"
        blob = bytearray(pq.read_bytes())
        blob[len(blob) // 2] ^= 0xFF  # same size: only the CRC can catch it
        pq.write_bytes(bytes(blob))
        with pytest.raises(DigestMismatchError, match="CRC32"):
            load_starling(tmp_path / "idx")

    def test_missing_file_detected(self, starling_index, tmp_path):
        save_starling(starling_index, tmp_path / "idx")
        (index_files_dir(tmp_path / "idx") / "layout.npz").unlink()
        with pytest.raises(IndexLoadError, match="layout.npz"):
            load_starling(tmp_path / "idx")

    def test_rejects_future_format_version(self, starling_index, tmp_path):
        save_starling(starling_index, tmp_path / "idx")
        meta_path = index_files_dir(tmp_path / "idx") / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta["format_version"] = 999
        meta_path.write_text(json.dumps(meta))
        _resign(tmp_path / "idx")
        with pytest.raises(ValueError, match="format version"):
            load_starling(tmp_path / "idx")

    def test_strict_mode_verifies_sha256(self, starling_index, small_dataset,
                                         tmp_path):
        save_starling(starling_index, tmp_path / "idx")
        loaded = load_starling(tmp_path / "idx", strict=True)
        q = small_dataset.queries[0]
        assert np.array_equal(
            starling_index.search(q, 10, 64).ids, loaded.search(q, 10, 64).ids
        )

    @pytest.mark.parametrize("make, fsck_exit", [
        # not an index: nothing to recover
        pytest.param(_flat_directory, 2, id="flat"),
        # manifest-level scrub only
        pytest.param(_updatable_directory, 0, id="updatable-manifest"),
    ])
    def test_removed_formats_are_rejected_typed(self, starling_index, tmp_path,
                                                capsys, make, fsck_exit):
        from repro.cli import main

        d = tmp_path / "idx"
        make(starling_index, d)
        for read in (load_starling, load_diskann, read_index_meta):
            with pytest.raises(IndexLoadError):
                read(d)
        assert main(["info", "--index", str(d)]) == 2
        with pytest.raises(SystemExit) as excinfo:
            main(["search", "--index", str(d), "--synthetic", "deep:300",
                  "--num-queries", "2"])
        assert excinfo.value.code == 2
        errors = capsys.readouterr().err.splitlines()
        assert len(errors) == 2  # one line per command, no traceback
        assert all(line.startswith("error:") for line in errors)
        report = fsck(d)  # a report, never a traceback
        assert report.exit_code == fsck_exit, report.to_dict()
        assert report.actions == []

    def test_resave_keeps_previous_generation(self, starling_index, tmp_path):
        save_starling(starling_index, tmp_path / "idx")
        save_starling(starling_index, tmp_path / "idx")
        save_starling(starling_index, tmp_path / "idx")
        gens = sorted(
            p.name for p in (tmp_path / "idx").iterdir()
            if p.name.startswith("gen-")
        )
        # current + one previous for rollback; older ones pruned
        assert gens == ["gen-000002", "gen-000003"]
        assert read_manifest(tmp_path / "idx").generation == 3


class TestDiskANNPersistence:
    def test_roundtrip_identical_results(self, diskann_index, small_dataset,
                                         tmp_path):
        save_diskann(diskann_index, tmp_path / "idx")
        loaded = load_diskann(tmp_path / "idx")
        for q in small_dataset.queries[:5]:
            a = diskann_index.search(q, 10, 64)
            b = loaded.search(q, 10, 64)
            assert np.array_equal(a.ids, b.ids)
            assert a.stats.num_ios == b.stats.num_ios
            assert a.stats.cache_hits == b.stats.cache_hits

    def test_cache_restored(self, diskann_index, tmp_path):
        save_diskann(diskann_index, tmp_path / "idx")
        loaded = load_diskann(tmp_path / "idx")
        assert loaded.cache is not None
        assert len(loaded.cache) == len(diskann_index.cache)
        assert loaded.cache.memory_bytes == diskann_index.cache.memory_bytes

    def test_rejects_wrong_type(self, starling_index, tmp_path):
        with pytest.raises(TypeError):
            save_diskann(starling_index, tmp_path / "idx")


class TestManifestRobustness:
    def test_prune_keeps_existing_rollback_target(self, starling_index,
                                                  tmp_path):
        """A stale pointer with skipped numbers must not trick prune into
        deleting the only self-verifying older generation."""
        from dataclasses import replace

        from repro.storage import fsck
        from repro.storage.manifest import generation_name

        d = tmp_path / "idx"
        save_starling(starling_index, d)  # gen 1 on disk
        stale = replace(
            read_manifest(d), generation=5, directory=generation_name(5)
        )
        write_pointer(d, stale)  # pointer gen 5, directory missing
        save_starling(starling_index, d)  # commits gen 6
        assert read_manifest(d).generation == 6
        # gen 1 — the newest existing committed generation below 6 — is the
        # only rollback target and must survive the prune
        assert (d / generation_name(1)).is_dir()
        # and fsck phase-3b rollback can still use it
        bad = d / generation_name(6) / "disk.bin"
        bad.write_bytes(b"\x00" + bad.read_bytes()[1:])
        report = fsck(d)
        assert report.exit_code == 1, report.to_dict()
        assert report.generation == 1
        load_starling(d)

    def test_unreadable_generation_manifest_is_typed(self, starling_index,
                                                     tmp_path, monkeypatch):
        """I/O errors on a generation's manifest copy must surface as
        ManifestError (so fsck treats the generation as non-verifying
        instead of crashing)."""
        import pathlib

        from repro.storage.manifest import (
            GEN_MANIFEST_NAME,
            ManifestError,
            read_generation_manifest,
        )
        from repro.storage.repair import _generation_self_verifies

        d = tmp_path / "idx"
        save_starling(starling_index, d)
        gen_dir = d / read_manifest(d).directory

        real_read_text = pathlib.Path.read_text

        def flaky(self, *args, **kwargs):
            if self.name == GEN_MANIFEST_NAME:
                raise OSError("input/output error")
            return real_read_text(self, *args, **kwargs)

        monkeypatch.setattr(pathlib.Path, "read_text", flaky)
        with pytest.raises(ManifestError):
            read_generation_manifest(gen_dir)
        assert _generation_self_verifies(gen_dir) is None
