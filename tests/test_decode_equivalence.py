"""The production view decode against the test-side copying oracle.

Every search path decodes blocks through
:meth:`~repro.storage.codec.VertexFormat.split_block_views`.  These tests
run whole searches twice — once as shipped, once with the physical disk
graph swapped for :class:`tests.oracles.CopyDecodeDiskGraph` — at an
operating point that *can* fail: a file-backed uint8 NSG, an LRU holding
15 % of the blocks (so most reads miss and decode), Γ = 24, recall@10 < 1.
Ids, distances, the full ``QueryStats`` and the device's ``IOCounters`` must
be equal, and a damaged payload must fail the same way on both decoders.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.buildspec import BuildSpec
from repro.core import GraphConfig, StarlingConfig, build_starling
from repro.core.lifecycle import SegmentLifecycle
from repro.storage import VertexFormat, build_disk_graph
from repro.storage.faults import base_disk_graph
from repro.vectors import bigann_like, knn

from .oracles import CopyDecodeDiskGraph

K = 10
GAMMA = 24
CACHE_FRACTION = 0.15
CONFIG = StarlingConfig(
    graph=GraphConfig(algorithm="nsg", max_degree=24, build_ef=48)
)


def _build(dataset, **kwargs):
    return build_starling(
        dataset, CONFIG, build_spec=BuildSpec(mode="batched"), **kwargs
    )


def _use_oracle_decode(index):
    """Swap the index's physical disk graph for the copying oracle;
    returns the graph it replaced."""
    shipped = base_disk_graph(index.disk_graph)
    twin = CopyDecodeDiskGraph.adopt(shipped)
    index.disk_graph = index.engine.disk_graph = twin
    return shipped


def _fresh_lru(index) -> None:
    blocks = base_disk_graph(index.disk_graph).num_blocks
    index.apply_cache_strategy("lru", max(int(CACHE_FRACTION * blocks), 1))


def _observe(indexes, run):
    """``run()`` plus the device counters it moved, from a cold LRU."""
    devices = [base_disk_graph(ix.disk_graph).device for ix in indexes]
    for index in indexes:
        _fresh_lru(index)
    before = [d.counters.snapshot() for d in devices]
    out = run()
    return out, [d.counters.since(b) for d, b in zip(devices, before)]


def _assert_same(got, want) -> None:
    assert len(got) == len(want)
    for a, b in zip(got, want):
        np.testing.assert_array_equal(a.ids, b.ids)
        np.testing.assert_array_equal(a.dists, b.dists)
        assert a.stats.__dict__ == b.stats.__dict__


@pytest.fixture(scope="module")
def dataset():
    return bigann_like(3000, 96, seed=11)


@pytest.fixture(scope="module")
def index(dataset, tmp_path_factory):
    path = tmp_path_factory.mktemp("decode-eq") / "graph.bin"
    index = _build(dataset, path=path)
    yield index
    base_disk_graph(index.disk_graph).device.close()


class TestSearchEquivalence:
    def test_operating_point_can_fail(self, index, dataset):
        """Recall is below 1 and the cache misses, so a decode that got a
        vector or an adjacency list wrong would change the answers."""
        truth, _ = knn(dataset.vectors, dataset.queries, K, dataset.metric)
        _fresh_lru(index)
        results = [index.search(q, K, GAMMA) for q in dataset.queries]
        hit = sum(
            len(set(r.ids.tolist()) & set(t.tolist()))
            for r, t in zip(results, truth)
        )
        recall = hit / (K * len(results))
        assert 0.5 < recall < 1.0
        assert sum(r.stats.num_ios for r in results) > 0
        assert sum(r.stats.block_cache_hits for r in results) > 0

    def test_search_and_range_search_match_the_oracle(self, index, dataset):
        queries = dataset.queries
        radius = dataset.default_radius

        def run():
            return (
                [index.search(q, K, GAMMA) for q in queries],
                [
                    index.range_search(q, radius, initial_candidate_size=GAMMA)
                    for q in queries[:16]
                ],
            )

        (anns, ranges), io = _observe([index], run)
        shipped = _use_oracle_decode(index)
        try:
            (o_anns, o_ranges), o_io = _observe([index], run)
            oracle = base_disk_graph(index.disk_graph)
            assert type(oracle) is CopyDecodeDiskGraph
        finally:  # the index fixture is shared by the module
            index.disk_graph = index.engine.disk_graph = shipped

        _assert_same(anns, o_anns)
        _assert_same(ranges, o_ranges)
        assert [r.final_candidate_size for r in ranges] == [
            r.final_candidate_size for r in o_ranges
        ]
        assert io == o_io
        assert io[0].blocks_read == sum(
            r.stats.num_ios for r in anns + ranges
        )

    def test_two_segment_lifecycle_matches_the_oracle(self, tmp_path):
        data = bigann_like(900, 24, seed=12)
        lifecycle = SegmentLifecycle.create(
            tmp_path / "lc", _build, dim=data.dim, dtype=data.vectors.dtype,
            metric=data.metric,
        )
        try:
            lifecycle.insert(data.vectors[:500])
            lifecycle.seal()
            lifecycle.insert(data.vectors[500:880])
            lifecycle.seal()
            lifecycle.insert(data.vectors[880:])  # stays in the memtable
            lifecycle.delete(np.arange(0, 60, 7))
            assert lifecycle.num_segments == 2
            segments = [seg.index for seg in lifecycle._sealed]

            def run():
                return [lifecycle.search(q, K, GAMMA) for q in data.queries]

            results, io = _observe(segments, run)
            for segment in segments:
                _use_oracle_decode(segment)
            o_results, o_io = _observe(segments, run)

            _assert_same(results, o_results)
            assert io == o_io
            assert sum(c.blocks_read for c in io) == sum(
                r.stats.num_ios for r in results
            )
        finally:
            lifecycle.close()


# -- damaged payloads fail the same way ---------------------------------------


@st.composite
def damaged_graphs(draw):
    """A tiny two-block graph, the damage to do to block 0, and both
    decoders over the same device."""
    dim = draw(st.integers(2, 24))
    max_degree = draw(st.integers(1, 8))
    fmt = VertexFormat(dim=dim, dtype=np.uint8, max_degree=max_degree,
                       block_bytes=512)
    eps = fmt.vertices_per_block
    n = draw(st.integers(eps + 1, 2 * eps))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    vectors = gen.integers(0, 256, size=(n, dim), dtype=np.uint8)
    neighbors = [
        gen.choice(n, size=gen.integers(0, min(max_degree, n - 1) + 1),
                   replace=False).astype(np.uint32)
        for _ in range(n)
    ]
    layout = [list(range(eps)), list(range(eps, n))]
    graph = build_disk_graph(vectors, neighbors, layout, fmt)
    damage = draw(st.sampled_from(["torn", "over_degree", "none"]))
    record = draw(st.integers(0, eps - 1))
    excess = draw(st.integers(1, 2**31))
    return graph, damage, record, excess


class TestDamagedPayloads:
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(damaged_graphs())
    def test_read_blocks_raises_what_the_oracle_raises(self, case):
        graph, damage, record, excess = case
        fmt, device = graph.fmt, graph.device
        payload = bytearray(device._fetch(0))
        if damage == "over_degree":
            at = record * fmt.record_bytes + fmt.vector_bytes
            payload[at:at + 4] = (fmt.max_degree + excess).to_bytes(
                4, "little"
            )
        elif damage == "torn":
            payload = payload[: len(payload) // 2]
        damaged = bytes(payload)
        # The device hands both decoders the same damaged bytes for block 0.
        fetch = device._fetch
        device._fetch = lambda b: damaged if b == 0 else fetch(b)

        def outcome(g):
            try:
                return [
                    (b.vectors.tolist(),
                     [b.neighbors_of(i).tolist() for i in range(len(b))])
                    for b in g.read_blocks([1, 0])
                ]
            except Exception as exc:  # compared by type below
                return type(exc)

        got = outcome(graph)
        want = outcome(CopyDecodeDiskGraph.adopt(graph))
        assert got == want
        if damage == "none":
            assert isinstance(got, list)
        else:
            assert got is ValueError
