"""The wave block plane against the per-query round primitives.

A wide wave replaces the per-(query, block) Python of a round — target
extraction, block pruning, the neighbour gather — with one array pass over
``[pairs, ε]`` planes (``engine.block_search._select_plane``) fed from one
stacked decode (``VertexFormat.split_block_views`` on a stack,
``DiskGraph.read_block_stack``).  The contract is the scalar order:
``BlockSearchEngine._select_round`` — what narrow waves, range search and
the oracle still run — is the reference here, block by block; the
whole-wave identity (counters included) is ``tests/test_wave_search.py``'s
matrix.  The last class pins that a damaged block or mapping raises the same
exception type from a wide wave as from a wave of one.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import StarlingConfig, build_starling
from repro.engine.block_search import BlockSearchEngine, _select_plane
from repro.graphs.navigation import LOCKSTEP_MIN_WAVE
from repro.storage.codec import ID_DTYPE, VertexFormat
from repro.storage.disk_graph import BlockStack, DiskBlock
from repro.storage.faults import (
    KIND_CHECKSUM, ChecksumError, base_disk_graph,
)
from repro.vectors import bigann_like

from .conftest import example_budget

MAX_DEGREE = 3


def _fmt(eps: int) -> VertexFormat:
    """A float32 2-d format whose blocks hold exactly ``eps`` records."""
    fmt = VertexFormat(dim=2, dtype=np.float32, max_degree=MAX_DEGREE)
    fmt = VertexFormat(
        dim=2, dtype=np.float32, max_degree=MAX_DEGREE,
        block_bytes=eps * fmt.record_bytes,
    )
    assert fmt.vertices_per_block == eps
    return fmt


@st.composite
def _rounds(draw):
    """One round of a small wave: per query 1–W blocks of 1–ε vertices, 1–W
    targets per block (so two targets can share one), distances from a
    handful of values (ties, and ``+inf``), random adjacency."""
    eps = draw(st.integers(1, 6))
    beam = draw(st.integers(1, 3))
    keep_quota = draw(st.sampled_from([0, 1, max(eps - 1, 0), eps + 2]))
    distance = st.sampled_from([0.0, 1.0, 2.0, 3.0, math.inf])
    next_id = 0
    queries = []
    for _ in range(draw(st.integers(1, 3))):
        blocks, targets, dists = [], {}, []
        for _ in range(draw(st.integers(1, beam))):
            size = draw(st.integers(1, eps))
            ids = np.arange(next_id, next_id + size, dtype=ID_DTYPE)
            next_id += size
            counts = np.asarray(
                draw(st.lists(st.integers(0, MAX_DEGREE),
                              min_size=size, max_size=size)),
                dtype=np.int64,
            )
            nbrs = np.asarray(
                draw(st.lists(st.integers(0, 50), min_size=size * MAX_DEGREE,
                              max_size=size * MAX_DEGREE)),
                dtype=ID_DTYPE,
            ).reshape(size, MAX_DEGREE)
            block = DiskBlock(
                len(blocks), ids, np.zeros((size, 2), np.float32), counts, nbrs
            )
            blocks.append(block)
            picked = draw(st.lists(
                st.integers(0, size - 1), min_size=1,
                max_size=min(beam, size), unique=True,
            ))
            targets[block.block_id] = [int(ids[p]) for p in picked]
            dists += draw(st.lists(distance, min_size=size, max_size=size))
        queries.append((blocks, targets, dists))
    return eps, keep_quota, queries


class TestSelectionPass:
    @settings(max_examples=example_budget(200), deadline=None)
    @given(_rounds())
    def test_matches_select_round_per_query(self, case):
        """Same ``(res, keep, explore order, loaded, used)`` per query as
        ``_select_round``, from one pass over every pair of the round."""
        eps, keep_quota, queries = case
        engine = BlockSearchEngine(None, None, None, None)
        want = [
            engine._select_round(blocks, targets, dists, keep_quota)
            for blocks, targets, dists in queries
        ]

        stack = BlockStack.of_blocks(
            [b for blocks, _, _ in queries for b in blocks], _fmt(eps)
        )
        pair_row = np.repeat(
            np.arange(len(queries)), [len(q[0]) for q in queries]
        )
        valid = np.arange(eps) < stack.sizes[:, None]
        # an empty slot carries a distance that would win every sort
        dist = np.full(valid.shape, -1.0)
        dist[valid] = [d for _, _, dists in queries for d in dists]
        item_pair, vids = [], []
        pair = 0
        for blocks, targets, _ in queries:
            for block in blocks:
                for vid in targets[block.block_id]:
                    item_pair.append(pair)
                    vids.append(vid)
                pair += 1
        sel_pair, sel_slot, kept = _select_plane(
            stack.vertex_ids, valid, dist,
            np.asarray(item_pair), np.asarray(vids), keep_quota,
        )

        sel_ids = stack.vertex_ids[sel_pair, sel_slot]
        sel_dist = dist[sel_pair, sel_slot]
        degree = stack.nbr_counts[sel_pair, sel_slot]
        for q, (res_ids, res_dists, keep_ids, keep_dists, explore_parts,
                loaded, used) in enumerate(want):
            mine = pair_row[sel_pair] == q
            assert sel_ids[mine & ~kept].tolist() == res_ids
            assert sel_dist[mine & ~kept].tolist() == res_dists
            assert sel_ids[mine & kept].tolist() == keep_ids
            assert sel_dist[mine & kept].tolist() == keep_dists
            explored = [
                stack.nbr_ids[p, s, :n].tolist()
                for p, s, n in zip(sel_pair[mine], sel_slot[mine],
                                   degree[mine])
            ]
            assert explored == [part.tolist() for part in explore_parts]
            assert int(stack.sizes[pair_row == q].sum()) == loaded
            assert int(mine.sum()) == used

    def test_ties_keep_in_block_order_and_empty_slots_never_win(self):
        """The two properties the sort key exists for, on one pair: equal
        distances are kept by position, and a real vertex at ``+inf`` beats
        an empty slot whatever that slot's stale bytes decode to."""
        ids = np.asarray([[7, 8, 9, 10, 0, 0]], dtype=ID_DTYPE)
        valid = np.asarray([[True, True, True, True, False, False]])
        dist = np.asarray([[5.0, math.inf, 5.0, 1.0, 0.0, 0.0]])
        sel_pair, sel_slot, kept = _select_plane(
            ids, valid, dist, np.asarray([0]), np.asarray([10]), 5
        )
        assert sel_pair.tolist() == [0, 0, 0, 0]
        assert sel_slot.tolist() == [3, 0, 2, 1]
        assert kept.tolist() == [False, True, True, True]

    def test_target_outside_its_block_raises_key_error(self):
        ids = np.asarray([[4, 5, 0]], dtype=ID_DTYPE)
        valid = np.asarray([[True, True, False]])
        dist = np.zeros((1, 3))
        for missing in (6, 0):      # 0 only "matches" the empty slot
            with pytest.raises(KeyError):
                _select_plane(
                    ids, valid, dist, np.asarray([0]), np.asarray([missing]), 1
                )


class TestStackedDecode:
    def _blocks(self, fmt, sizes, seed=0):
        rng = np.random.default_rng(seed)
        payloads = []
        for size in sizes:
            vectors = rng.random((size, fmt.dim)).astype(fmt.dtype)
            nbrs = [
                rng.integers(0, 99, size=rng.integers(0, fmt.max_degree + 1))
                for _ in range(size)
            ]
            payloads.append(fmt.encode_block(vectors, nbrs))
        return payloads

    def test_stack_equals_block_by_block(self):
        """One block is a stack of one: the stacked views are the single
        views side by side, zero-copy, with empty slots at degree 0."""
        fmt = _fmt(5)
        sizes = [5, 1, 3, 5, 0]
        payloads = self._blocks(fmt, sizes)
        joined = b"".join(payloads)
        vectors, degrees, nbrs = fmt.split_block_views(
            joined, np.asarray(sizes)
        )
        assert vectors.shape == (5, 5, 2) and nbrs.shape == (5, 5, MAX_DEGREE)
        raw = np.frombuffer(joined, dtype=np.uint8)
        assert np.shares_memory(vectors, raw) and np.shares_memory(nbrs, raw)
        for u, (payload, size) in enumerate(zip(payloads, sizes)):
            one = fmt.split_block_views(payload, size)
            assert np.array_equal(vectors[u, :size], one[0])
            assert np.array_equal(degrees[u, :size], one[1])
            assert np.array_equal(nbrs[u, :size], one[2])
            assert not degrees[u, size:].any()

    def test_stack_validates_occupied_slots_only(self):
        fmt = _fmt(4)
        payloads = self._blocks(fmt, [4, 2])
        word = slice(fmt.vector_bytes, fmt.vector_bytes + 4)
        bad = (MAX_DEGREE + 1).to_bytes(4, "little")

        def damaged(block: int, slot: int) -> bytes:
            raw = bytearray(b"".join(payloads))
            at = block * fmt.block_bytes + slot * fmt.record_bytes
            raw[at + word.start:at + word.stop] = bad
            return bytes(raw)

        sizes = np.asarray([4, 2])
        with pytest.raises(ValueError, match="corrupt"):
            fmt.split_block_views(damaged(1, 1), sizes)
        # past block 1's two records the bytes are padding, not a record
        _, degrees, _ = fmt.split_block_views(damaged(1, 3), sizes)
        assert degrees[1].tolist()[2:] == [0, 0]
        with pytest.raises(ValueError, match="expected"):
            fmt.split_block_views(b"".join(payloads)[:-1], sizes)
        with pytest.raises(ValueError, match="out of range"):
            fmt.split_block_views(b"".join(payloads), np.asarray([4, 5]))

    def test_read_block_stack_equals_stacked_read_blocks(self, short_index):
        """The coalesced read's stack and the stack of per-query counted
        reads are the same arrays — last, short block included — and cost
        the same device read."""
        dg = short_index.disk_graph
        ids = [dg.num_blocks - 1, 0, 3]
        assert len(dg.vertices_in_block(ids[0])) < dg.fmt.vertices_per_block
        before = dg.device.counters.snapshot()
        stack = dg.read_block_stack(ids)
        assert dg.device.counters.since(before).blocks_read == 3
        assert dg.device.counters.since(before).round_trips == 1
        twin = BlockStack.of_blocks(dg.read_blocks(ids), dg.fmt)
        valid = np.arange(dg.fmt.vertices_per_block) < stack.sizes[:, None]
        assert np.array_equal(stack.sizes, twin.sizes)
        for name in ("vertex_ids", "vectors", "nbr_counts", "nbr_ids"):
            got, want = getattr(stack, name), getattr(twin, name)
            assert got.shape == want.shape and got.dtype == want.dtype
            assert np.array_equal(got[valid], want[valid])
        assert not stack.nbr_counts[~valid].any()
        assert dg.vertices_in_block(ids[0]).tolist() == (
            stack.vertex_ids[0, :stack.sizes[0]].tolist()
        )

    def test_verified_raw_read_raises_or_reports(self, short_index):
        """``read_payloads`` is the one verified read: it raises on a bad
        checksum, or reports it to the caller's failure map — which is all
        ``read_counted`` adds to it."""
        dg = short_index.disk_graph
        with _damaged(dg, block=2, offset=5):
            with pytest.raises(ChecksumError):
                dg.read_payloads([1, 2])
            with pytest.raises(ChecksumError):
                dg.read_block_stack([1, 2])
            failed: dict = {}
            payloads = dg.read_payloads([1, 2], failed)
            assert failed == {2: KIND_CHECKSUM}
            assert payloads[1] is None and len(payloads[0]) == (
                dg.fmt.block_bytes
            )
            failed = {}
            ok, fetched, _ = dg.read_counted([1, 2], failed=failed)
            assert list(ok) == [1] and failed == {2: KIND_CHECKSUM}
            assert fetched == 2


# ---------------------------------------------------------------------------
# damage: the same exception type at every width


@pytest.fixture(scope="module")
def short_index(graph_config):
    """n is not a multiple of ε, so the last block is short; owned by this
    module because the damage tests below write to its device."""
    dataset = bigann_like(607, 4, seed=9)
    index = build_starling(dataset, StarlingConfig(graph=graph_config))
    dg = index.disk_graph
    assert dg.num_vertices % dg.fmt.vertices_per_block
    return index


class _damaged:
    """Flip one byte of ``block`` on the device (checksums on), or write
    ``word`` at ``offset``; everything is restored on exit."""

    def __init__(self, dg, *, block, offset, word=None, verify=True):
        self.dg, self.verify = dg, verify
        self.at = block * dg.fmt.block_bytes + offset
        self.word = word

    def __enter__(self):
        store = self.dg.device._blocks
        size = 1 if self.word is None else len(self.word)
        self.saved = bytes(store[self.at:self.at + size])
        if self.verify:
            self.dg.enable_checksum_verification()
        store[self.at:self.at + size] = (
            bytes([self.saved[0] ^ 0xFF]) if self.word is None else self.word
        )

    def __exit__(self, *exc_info):
        self.dg.device._blocks[self.at:self.at + len(self.saved)] = self.saved
        self.dg.verify_checksums = False


class TestDamageRaisesAtEveryWidth:
    WIDTHS = [1, 2 * LOCKSTEP_MIN_WAVE + 1]

    @pytest.fixture()
    def probe(self, short_index):
        """Queries that all pop the same vertex first, and that vertex."""
        dataset_vector = short_index.disk_graph.peek_vertex(17)[0]
        queries = np.tile(
            dataset_vector.astype(np.float32), (self.WIDTHS[-1], 1)
        )
        assert short_index.search(queries[0], 1, 12).ids.tolist() == [17]
        return queries

    @pytest.mark.parametrize("width", WIDTHS)
    def test_flipped_byte_is_a_checksum_error(self, short_index, probe, width):
        dg = base_disk_graph(short_index.disk_graph)
        with _damaged(dg, block=dg.block_of(17), offset=3):
            with pytest.raises(ChecksumError):
                short_index.engine.search_wave(probe[:width], 10, 12)
        assert len(short_index.engine.search_wave(probe[:width], 10, 12)) == (
            width
        )

    @pytest.mark.parametrize("width", WIDTHS)
    def test_oversized_degree_word_is_a_value_error(
        self, short_index, probe, width
    ):
        dg = base_disk_graph(short_index.disk_graph)
        word = (dg.fmt.max_degree + 1).to_bytes(4, "little")
        with _damaged(dg, block=dg.block_of(17), offset=dg.fmt.vector_bytes,
                      word=word, verify=False):
            with pytest.raises(ValueError, match="corrupt"):
                short_index.engine.search_wave(probe[:width], 10, 12)

    @pytest.mark.parametrize("width", WIDTHS)
    def test_wrong_mapping_entry_is_a_key_error(
        self, short_index, probe, width
    ):
        dg = base_disk_graph(short_index.disk_graph)
        home = int(dg.vertex_to_block[17])
        dg.vertex_to_block[17] = (home + 1) % dg.num_blocks
        try:
            with pytest.raises(KeyError):
                short_index.engine.search_wave(probe[:width], 10, 12)
        finally:
            dg.vertex_to_block[17] = home
