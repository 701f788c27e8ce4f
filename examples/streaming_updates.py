#!/usr/bin/env python3
"""Streaming updates on a segment (§7 "Data update").

A segment built once is static; databases absorb inserts into a small
in-memory growing buffer, mask deletions with a bitset, and periodically
merge everything into a freshly rebuilt (re-shuffled, re-navigated) static
index.  ``SegmentLifecycle`` is that scheme made durable: every write is in
a write-ahead log before it returns, ``seal`` builds the buffer into an
immutable segment, and compaction merges sealed segments while dropping the
deleted rows.  This example drives it in a temporary directory: seal a base
segment, insert a batch, delete a result, seal and compact, then reopen and
verify nothing observable changed except the deleted vector being gone for
good.

Run:  python examples/streaming_updates.py
"""

import tempfile
from pathlib import Path

import numpy as np

from repro.core import (
    GraphConfig,
    LifecycleSpec,
    SegmentLifecycle,
    StarlingConfig,
    build_starling,
)
from repro.vectors import deep_like

N = 2_000
#: one size tier merged two at a time: compaction folds everything into one
SPEC = LifecycleSpec(merge_fanout=2, tier_growth=1e6)


def main() -> None:
    rng = np.random.default_rng(7)
    dataset = deep_like(N, 10)
    config = StarlingConfig(graph=GraphConfig(max_degree=20, build_ef=40))

    def rebuild(data):
        return build_starling(data, config)

    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "segment"
        segment = SegmentLifecycle.create(
            root, rebuild, dim=dataset.dim, spec=SPEC
        )
        print("sealing the initial static index...")
        segment.insert(dataset.vectors)
        segment.seal()

        query = dataset.queries[0].astype(np.float32)
        before = segment.search(query, k=5)
        print(f"top-5 before updates: {before.ids.tolist()}")

        # Insert a batch, including one vector planted right at the query.
        batch = rng.normal(size=(49, dataset.dim)).astype(np.float32)
        planted = query + 1e-3
        ids = segment.insert(np.vstack([planted, batch]))
        print(f"inserted {len(ids)} vectors -> pending={segment.pending_rows}")

        after_insert = segment.search(query, k=5)
        assert after_insert.ids[0] == ids[0], "planted vector should be top-1"
        print(f"top-5 after insert:   {after_insert.ids.tolist()}")

        # Delete the old top result; the tombstone hides it immediately.
        victim = int(before.ids[0])
        segment.delete([victim])
        after_delete = segment.search(query, k=5)
        assert victim not in after_delete.ids
        print(f"top-5 after deleting {victim}: {after_delete.ids.tolist()}")
        print(f"live={segment.num_live}, deleted={segment.num_deleted}")

        # Merge: seal the buffer, then compact the two sealed segments into
        # one rebuilt index (block shuffling and the navigation graph are
        # rebuilt as part of build_starling); the tombstone is dropped.
        print("sealing and compacting into a rebuilt static index...")
        segment.seal()
        segment.maybe_compact()
        segment.close()

        segment = SegmentLifecycle.open(root, rebuild, spec=SPEC)
        after_merge = segment.search(query, k=5)
        assert after_merge.ids[0] == ids[0]
        assert victim not in after_merge.ids
        assert segment.num_deleted == 0 and victim not in segment.live_ids()
        [(name, count)] = segment.segment_counts()
        print(
            f"after merge + reopen: top-5 {after_merge.ids.tolist()}, "
            f"{name} n={count}, live={segment.num_live}"
        )
        segment.close()
    print("update life cycle OK")


if __name__ == "__main__":
    main()
