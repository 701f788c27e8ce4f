"""Unit tests for the on-disk vertex/block codec."""

import numpy as np
import pytest

from repro.storage import VertexFormat

from .oracles import decode_block, decode_vertex


@pytest.fixture
def fmt():
    return VertexFormat(dim=16, dtype=np.uint8, max_degree=8, block_bytes=512)


class TestFormatGeometry:
    def test_record_bytes(self, fmt):
        # 16 B vector + 4 B degree + 8*4 B neighbour slots
        assert fmt.record_bytes == 16 + 4 + 32

    def test_vertices_per_block(self, fmt):
        assert fmt.vertices_per_block == 512 // 52

    def test_num_blocks_ceil(self, fmt):
        eps = fmt.vertices_per_block
        assert fmt.num_blocks(0) == 0
        assert fmt.num_blocks(1) == 1
        assert fmt.num_blocks(eps) == 1
        assert fmt.num_blocks(eps + 1) == 2

    def test_paper_example_bigann(self):
        """Example 2: BIGANN with Λ=31, η=4KB gives γ=(128+4+31*4)/1024 KB, ε=16."""
        fmt = VertexFormat(dim=128, dtype=np.uint8, max_degree=31,
                           block_bytes=4096)
        assert fmt.record_bytes == 128 + 4 + 124
        assert fmt.vertices_per_block == 16

    def test_appendix_example_bigann_lambda48(self):
        """Appendix C: Λ=48 gives ε=12 on BIGANN."""
        fmt = VertexFormat(dim=128, dtype=np.uint8, max_degree=48,
                           block_bytes=4096)
        assert fmt.vertices_per_block == 12

    def test_rejects_record_larger_than_block(self):
        with pytest.raises(ValueError, match="does not fit"):
            VertexFormat(dim=4096, dtype=np.float32, max_degree=8,
                         block_bytes=4096)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            VertexFormat(dim=0, dtype=np.uint8, max_degree=4)
        with pytest.raises(ValueError):
            VertexFormat(dim=4, dtype=np.uint8, max_degree=0)
        with pytest.raises(ValueError):
            VertexFormat(dim=4, dtype=np.uint8, max_degree=4, block_bytes=0)


class TestVertexRoundtrip:
    def test_roundtrip(self, fmt, rng):
        vec = rng.integers(0, 256, size=16).astype(np.uint8)
        nbrs = np.array([3, 1, 9], dtype=np.uint32)
        record = fmt.encode_vertex(vec, nbrs)
        assert len(record) == fmt.record_bytes
        out_vec, out_nbrs = decode_vertex(fmt, record)
        assert np.array_equal(out_vec, vec)
        assert np.array_equal(out_nbrs, nbrs)

    def test_preserves_neighbor_order(self, fmt):
        vec = np.zeros(16, dtype=np.uint8)
        nbrs = np.array([7, 2, 5, 1], dtype=np.uint32)
        _, out = decode_vertex(fmt, fmt.encode_vertex(vec, nbrs))
        assert out.tolist() == [7, 2, 5, 1]

    def test_empty_neighbors(self, fmt):
        vec = np.ones(16, dtype=np.uint8)
        _, out = decode_vertex(fmt, fmt.encode_vertex(vec, np.empty(0)))
        assert out.size == 0

    def test_max_degree_neighbors(self, fmt):
        nbrs = np.arange(8, dtype=np.uint32)
        _, out = decode_vertex(
            fmt, fmt.encode_vertex(np.zeros(16, dtype=np.uint8), nbrs)
        )
        assert np.array_equal(out, nbrs)

    def test_rejects_overlong_neighbors(self, fmt):
        with pytest.raises(ValueError, match="exceeds"):
            fmt.encode_vertex(
                np.zeros(16, dtype=np.uint8), np.arange(9, dtype=np.uint32)
            )

    def test_rejects_wrong_vector_shape(self, fmt):
        with pytest.raises(ValueError):
            fmt.encode_vertex(np.zeros(15, dtype=np.uint8), np.empty(0))

    def test_rejects_wrong_record_size(self, fmt):
        with pytest.raises(ValueError, match="expected"):
            decode_vertex(fmt, b"\x00" * (fmt.record_bytes - 1))

    def test_rejects_corrupt_degree(self, fmt):
        record = bytearray(fmt.encode_vertex(np.zeros(16, np.uint8), np.empty(0)))
        record[16:20] = (200).to_bytes(4, "little")  # degree 200 > Λ=8
        with pytest.raises(ValueError, match="corrupt"):
            decode_vertex(fmt, bytes(record))

    def test_float_dtype_roundtrip(self, rng):
        fmt = VertexFormat(dim=8, dtype=np.float32, max_degree=4,
                           block_bytes=256)
        vec = rng.normal(size=8).astype(np.float32)
        out_vec, _ = decode_vertex(fmt, fmt.encode_vertex(vec, [1]))
        assert np.array_equal(out_vec, vec)


class TestBlockRoundtrip:
    def test_roundtrip(self, fmt, rng):
        eps = fmt.vertices_per_block
        vecs = rng.integers(0, 256, size=(eps, 16)).astype(np.uint8)
        nbr_lists = [
            rng.integers(0, 100, size=rng.integers(0, 9)).astype(np.uint32)
            for _ in range(eps)
        ]
        nbr_lists = [np.unique(a) for a in nbr_lists]
        block = fmt.encode_block(vecs, nbr_lists)
        assert len(block) == fmt.block_bytes
        out_vecs, out_lists = decode_block(fmt, block, eps)
        assert np.array_equal(out_vecs, vecs)
        for got, want in zip(out_lists, nbr_lists):
            assert np.array_equal(got, want)

    def test_partial_block_padded(self, fmt):
        vecs = np.zeros((2, 16), dtype=np.uint8)
        block = fmt.encode_block(vecs, [np.empty(0)] * 2)
        assert len(block) == fmt.block_bytes
        out_vecs, out_lists = decode_block(fmt, block, 2)
        assert out_vecs.shape == (2, 16)
        assert len(out_lists) == 2

    def test_rejects_overfull_block(self, fmt):
        eps = fmt.vertices_per_block
        vecs = np.zeros((eps + 1, 16), dtype=np.uint8)
        with pytest.raises(ValueError, match="exceed block capacity"):
            fmt.encode_block(vecs, [np.empty(0)] * (eps + 1))

    def test_rejects_length_mismatch(self, fmt):
        with pytest.raises(ValueError, match="mismatch"):
            fmt.encode_block(np.zeros((2, 16), dtype=np.uint8), [np.empty(0)])

    def test_decode_rejects_bad_count(self, fmt):
        block = fmt.encode_block(
            np.zeros((1, 16), dtype=np.uint8), [np.empty(0)]
        )
        with pytest.raises(ValueError):
            decode_block(fmt, block, fmt.vertices_per_block + 1)

    def test_decode_rejects_bad_size(self, fmt):
        with pytest.raises(ValueError):
            decode_block(fmt, b"\x00" * (fmt.block_bytes + 1), 1)
