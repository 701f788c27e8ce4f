"""Unit tests for DiskGraph construction and counted reads."""

import numpy as np
import pytest

from repro.engine import QueryStats
from repro.engine.io_util import counted_read_blocks_of
from repro.storage import VertexFormat, build_disk_graph


@pytest.fixture
def tiny_graph(rng):
    """12 vertices, 4-d uint8 vectors, ε=3 blocks of explicit layout."""
    n = 12
    vectors = rng.integers(0, 256, size=(n, 4)).astype(np.uint8)
    neighbors = [
        np.asarray([(i + 1) % n, (i + 2) % n], dtype=np.uint32) for i in range(n)
    ]
    fmt = VertexFormat(dim=4, dtype=np.uint8, max_degree=4, block_bytes=72)
    assert fmt.vertices_per_block == 3
    layout = [[0, 5, 7], [1, 2, 3], [4, 6, 8], [9, 10, 11]]
    dg = build_disk_graph(vectors, neighbors, layout, fmt)
    return dg, vectors, neighbors, layout


class TestBuildValidation:
    def _base(self, rng, n=6):
        vectors = rng.integers(0, 256, size=(n, 4)).astype(np.uint8)
        neighbors = [np.asarray([(i + 1) % n], dtype=np.uint32) for i in range(n)]
        fmt = VertexFormat(dim=4, dtype=np.uint8, max_degree=4, block_bytes=72)
        return vectors, neighbors, fmt

    def test_rejects_incomplete_layout(self, rng):
        vectors, neighbors, fmt = self._base(rng)
        with pytest.raises(ValueError, match="partition"):
            build_disk_graph(vectors, neighbors, [[0, 1, 2]], fmt)

    def test_rejects_duplicate_vertex(self, rng):
        vectors, neighbors, fmt = self._base(rng)
        with pytest.raises(ValueError, match="twice"):
            build_disk_graph(
                vectors, neighbors, [[0, 1, 2], [3, 4, 0]], fmt
            )

    def test_rejects_unknown_vertex(self, rng):
        vectors, neighbors, fmt = self._base(rng)
        with pytest.raises(ValueError, match="unknown vertex"):
            build_disk_graph(
                vectors, neighbors, [[0, 1, 2], [3, 4, 99]], fmt
            )

    def test_rejects_overfull_block(self, rng):
        vectors, neighbors, fmt = self._base(rng)
        with pytest.raises(ValueError, match="exceeding"):
            build_disk_graph(
                vectors, neighbors, [[0, 1, 2, 3], [4, 5]], fmt
            )

    def test_rejects_neighbor_list_mismatch(self, rng):
        vectors, neighbors, fmt = self._base(rng)
        with pytest.raises(ValueError, match="length"):
            build_disk_graph(vectors, neighbors[:-1], [[0, 1, 2], [3, 4, 5]], fmt)


class TestDiskGraphReads:
    def test_mapping(self, tiny_graph):
        dg, _, _, layout = tiny_graph
        for block_id, members in enumerate(layout):
            for v in members:
                assert dg.block_of(v) == block_id

    def test_read_block_contents(self, tiny_graph):
        dg, vectors, neighbors, layout = tiny_graph
        block = dg.read_block(1)
        assert block.vertex_ids.tolist() == layout[1]
        for pos, vid in enumerate(layout[1]):
            assert np.array_equal(block.vectors[pos], vectors[vid])
            assert np.array_equal(block.neighbors_of(pos), neighbors[vid])

    def test_index_of(self, tiny_graph):
        dg, _, _, _ = tiny_graph
        block = dg.read_block(0)
        assert block.index_of(5) == 1
        with pytest.raises(KeyError):
            block.index_of(1)

    def test_index_of_foreign_vertex_is_key_error(self, tiny_graph):
        """Regression: the position lookup is a list scan now, whose own
        miss is a ``ValueError``; callers catch ``KeyError``."""
        dg, _, _, layout = tiny_graph
        block = dg.read_block(0)
        foreign = layout[1][0]
        with pytest.raises(KeyError, match=f"vertex {foreign} not in block 0"):
            block.index_of(foreign)
        with pytest.raises(KeyError):
            block.index_of(np.uint32(foreign))
        # a member is found whatever integer type names it
        assert block.index_of(np.uint32(layout[0][1])) == 1

    def test_neighbors_of_keeps_each_slice(self, tiny_graph):
        """A cache-resident block slices a position once, not per query."""
        dg, _, neighbors, layout = tiny_graph
        block = dg.read_block(0)
        for pos, vid in enumerate(layout[0]):
            first = block.neighbors_of(pos)
            assert np.array_equal(first, neighbors[vid])
            assert block.neighbors_of(pos) is first
            assert not first.flags.writeable

    def test_peek_vertex_returns_read_only_views(self, tiny_graph):
        dg, vectors, neighbors, _ = tiny_graph
        vec, nbrs = dg.peek_vertex(6)
        assert not vec.flags.writeable and not nbrs.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            vec[0] = 0
        with pytest.raises(ValueError, match="read-only"):
            nbrs[0] = 0
        assert np.array_equal(vec, vectors[6])
        assert np.array_equal(nbrs, neighbors[6])

    def test_read_blocks_of_dedupes(self, tiny_graph):
        dg, _, _, _ = tiny_graph
        dg.device.reset_counters()
        # first three share a block
        blocks = counted_read_blocks_of(dg, [0, 5, 7, 1], QueryStats())
        assert len(blocks) == 2
        assert dg.device.counters.round_trips == 1
        assert dg.device.counters.blocks_read == 2

    def test_build_reads_not_counted(self, tiny_graph):
        dg, _, _, _ = tiny_graph
        assert dg.device.counters.blocks_read == 0
        assert dg.device.counters.blocks_written == 0

    def test_peek_vertex_uncounted(self, tiny_graph):
        dg, vectors, neighbors, _ = tiny_graph
        vec, nbrs = dg.peek_vertex(6)
        assert np.array_equal(vec, vectors[6])
        assert np.array_equal(nbrs, neighbors[6])
        assert dg.device.counters.blocks_read == 0

    def test_mapping_bytes_positive(self, tiny_graph):
        dg, _, _, _ = tiny_graph
        assert dg.mapping_bytes == 12 * 4  # uint32 per vertex

    def test_num_properties(self, tiny_graph):
        dg, _, _, _ = tiny_graph
        assert dg.num_vertices == 12
        assert dg.num_blocks == 4
        assert dg.disk_bytes == 4 * 72

    def test_file_backed(self, tiny_graph, rng, tmp_path):
        n = 6
        vectors = rng.integers(0, 256, size=(n, 4)).astype(np.uint8)
        neighbors = [np.asarray([(i + 1) % n], dtype=np.uint32) for i in range(n)]
        fmt = VertexFormat(dim=4, dtype=np.uint8, max_degree=4, block_bytes=72)
        dg = build_disk_graph(
            vectors, neighbors, [[0, 1, 2], [3, 4, 5]], fmt,
            path=tmp_path / "g.bin",
        )
        block = dg.read_block(dg.block_of(4))
        assert 4 in block.vertex_ids
        dg.device.close()
