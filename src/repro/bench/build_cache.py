"""Build-artifact cache: reuse persisted indexes across benchmark runs.

Index construction dominates the wall clock of every figure-regeneration
run, yet most figures share a handful of builds.  This module keys a build
by a content hash over *everything that determines the artifact* — the
dataset (name, shape, dtype, and the raw vector bytes) plus the full build
configuration and the :class:`~repro.buildspec.BuildSpec` determinism
class — and persists the result via :mod:`repro.storage.persist`.  A
second build with the same key loads from disk instead of rebuilding.

Not every index is persistable (OPQ/SQ8 routers and HNSW upper-layer
navigation are build-only); those builds bypass the cache gracefully
rather than failing.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import uuid
from dataclasses import asdict
from pathlib import Path

import numpy as np

from ..buildspec import BuildSpec
from ..storage.persist import (
    IndexLoadError,
    load_diskann,
    load_starling,
    save_diskann,
    save_starling,
)
from ..vectors.dataset import VectorDataset

#: bumped whenever builders change in an artifact-visible way
_CACHE_VERSION = 1


def _spec_fingerprint(spec: BuildSpec | None) -> dict:
    """The BuildSpec fields that affect the built artifact.

    ``serial`` and ``batched`` build different (both valid) Vamana graphs,
    and a wave build is a function of its ``wave_size``.
    """
    if spec is None or not spec.parallel:
        return {"mode": "serial"}
    return {"mode": "wave", "wave_size": spec.wave_size}


def dataset_fingerprint(dataset: VectorDataset) -> str:
    """Content hash of the vectors that feed the build."""
    h = hashlib.sha256()
    h.update(dataset.name.encode())
    h.update(str(dataset.metric.name).encode())
    arr = np.ascontiguousarray(dataset.vectors)
    h.update(str(arr.shape).encode())
    h.update(str(arr.dtype).encode())
    h.update(arr.tobytes())
    return h.hexdigest()


def cache_key(
    kind: str,
    dataset: VectorDataset,
    config,
    build_spec: BuildSpec | None = None,
) -> str:
    """Deterministic key for one (framework, dataset, config, spec) build."""
    payload = {
        "version": _CACHE_VERSION,
        "kind": kind,
        "dataset": dataset_fingerprint(dataset),
        "config": asdict(config),
        "spec": _spec_fingerprint(build_spec),
    }
    blob = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:24]


class BuildCache:
    """Directory of persisted index builds, keyed by content hash.

    Entries are written atomically (temp directory + rename), so a
    crashed build never leaves a half-written artifact behind.
    """

    def __init__(self, directory: str | os.PathLike) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0

    def entry_path(self, key: str) -> Path:
        return self.directory / key

    def build_starling(self, dataset, config=None, *,
                       build_spec: BuildSpec | None = None, **kwargs):
        """Cached :func:`~repro.core.builder.build_starling`.

        Returns ``(index, hit)`` where ``hit`` says whether the index was
        loaded from the cache instead of built.
        """
        from ..core.builder import build_starling
        from ..core.config import StarlingConfig

        config = config or StarlingConfig()
        return self._build(
            "starling",
            lambda: build_starling(
                dataset, config, build_spec=build_spec, **kwargs
            ),
            dataset, config, build_spec, save_starling, load_starling,
        )

    def build_diskann(self, dataset, config=None, *,
                      build_spec: BuildSpec | None = None, **kwargs):
        """Cached :func:`~repro.core.builder.build_diskann`; see above."""
        from ..core.builder import build_diskann
        from ..core.config import DiskANNConfig

        config = config or DiskANNConfig()
        return self._build(
            "diskann",
            lambda: build_diskann(
                dataset, config, build_spec=build_spec, **kwargs
            ),
            dataset, config, build_spec, save_diskann, load_diskann,
        )

    def _build(self, kind, builder, dataset, config, build_spec, save, load):
        key = cache_key(kind, dataset, config, build_spec)
        path = self.entry_path(key)
        if path.is_dir():
            try:
                index = load(path)
            except (IndexLoadError, OSError, KeyError, ValueError):
                # Stale or truncated entry: rebuild and overwrite.
                shutil.rmtree(path, ignore_errors=True)
            else:
                self.hits += 1
                return index, True
        index = builder()
        self.misses += 1
        tmp = self.directory / f".tmp-{key}-{uuid.uuid4().hex[:8]}"
        try:
            save(index, tmp)
        except (NotImplementedError, TypeError):
            # Non-persistable artifact (OPQ/SQ8 router, HNSW navigation):
            # serve the built index without caching it.
            shutil.rmtree(tmp, ignore_errors=True)
            return index, False
        except BaseException:
            shutil.rmtree(tmp, ignore_errors=True)
            raise
        if path.exists():  # lost a race with a concurrent writer — fine
            shutil.rmtree(tmp, ignore_errors=True)
        else:
            os.replace(tmp, path)
        return index, False

    def clear(self) -> None:
        """Drop every cache entry (keeps the directory)."""
        for child in self.directory.iterdir():
            if child.is_dir():
                shutil.rmtree(child, ignore_errors=True)
