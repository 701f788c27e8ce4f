"""Additional property-based suites: storage, search, and SPANN invariants."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine import QueryStats
from repro.engine.io_util import counted_read_blocks_of
from repro.layout import id_contiguous_layout
from repro.storage import VertexFormat, build_disk_graph
from repro.vectors.metrics import get_metric

COMMON = settings(
    max_examples=25, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def graph_payload(draw):
    """Random vectors + adjacency lists + a fitting format."""
    n = draw(st.integers(4, 40))
    dim = draw(st.integers(2, 24))
    max_degree = draw(st.integers(1, 6))
    seed = draw(st.integers(0, 10_000))
    rng = np.random.default_rng(seed)
    vectors = rng.integers(0, 256, size=(n, dim)).astype(np.uint8)
    lists = []
    for u in range(n):
        deg = int(rng.integers(0, min(max_degree, n - 1) + 1))
        choice = rng.choice(n - 1, size=deg, replace=False)
        lists.append(np.where(choice >= u, choice + 1,
                              choice).astype(np.uint32))
    fmt = VertexFormat(dim=dim, dtype=np.uint8, max_degree=max_degree,
                       block_bytes=1024)
    return vectors, lists, fmt


class TestDiskGraphProperties:
    @COMMON
    @given(graph_payload())
    def test_roundtrip_through_blocks(self, payload):
        """Every vertex written to disk decodes back bit-identically."""
        vectors, lists, fmt = payload
        n = vectors.shape[0]
        layout = id_contiguous_layout(n, fmt.vertices_per_block)
        dg = build_disk_graph(vectors, lists, layout, fmt)
        for u in range(n):
            vec, nbrs = dg.peek_vertex(u)
            assert np.array_equal(vec, vectors[u])
            assert np.array_equal(nbrs, lists[u])

    @COMMON
    @given(graph_payload())
    def test_block_membership_consistent(self, payload):
        vectors, lists, fmt = payload
        n = vectors.shape[0]
        layout = id_contiguous_layout(n, fmt.vertices_per_block)
        dg = build_disk_graph(vectors, lists, layout, fmt)
        for b in range(dg.num_blocks):
            for vid in dg.vertices_in_block(b):
                assert dg.block_of(int(vid)) == b

    @COMMON
    @given(graph_payload(), st.integers(0, 1_000))
    def test_batched_reads_count_once_per_block(self, payload, seed):
        vectors, lists, fmt = payload
        n = vectors.shape[0]
        layout = id_contiguous_layout(n, fmt.vertices_per_block)
        dg = build_disk_graph(vectors, lists, layout, fmt)
        rng = np.random.default_rng(seed)
        targets = rng.choice(n, size=min(5, n), replace=False).tolist()
        dg.device.reset_counters()
        blocks = counted_read_blocks_of(dg, targets, QueryStats())
        distinct = {dg.block_of(v) for v in targets}
        assert len(blocks) == len(distinct)
        assert dg.device.counters.blocks_read == len(distinct)
        assert dg.device.counters.round_trips == 1


class TestDistanceProperties:
    @COMMON
    @given(st.integers(0, 10_000), st.integers(2, 32))
    def test_l2_triangle_inequality_on_sqrt(self, seed, dim):
        """sqrt of squared-L2 satisfies the triangle inequality."""
        rng = np.random.default_rng(seed)
        a, b, c = rng.normal(size=(3, dim)).astype(np.float32)
        m = get_metric("l2")
        dab = np.sqrt(m.distance(a, b))
        dbc = np.sqrt(m.distance(b, c))
        dac = np.sqrt(m.distance(a, c))
        assert dac <= dab + dbc + 1e-3

    @COMMON
    @given(st.integers(0, 10_000), st.integers(2, 32))
    def test_l2_symmetry_and_identity(self, seed, dim):
        rng = np.random.default_rng(seed)
        a, b = rng.normal(size=(2, dim)).astype(np.float32)
        m = get_metric("l2")
        assert m.distance(a, b) == pytest.approx(m.distance(b, a), rel=1e-5)
        assert m.distance(a, a) == pytest.approx(0.0, abs=1e-4)

    @COMMON
    @given(st.integers(0, 10_000))
    def test_knn_results_are_optimal_prefix(self, seed):
        """Top-k of brute force == sorted prefix of all distances."""
        from repro.vectors import knn

        rng = np.random.default_rng(seed)
        vectors = rng.normal(size=(30, 4)).astype(np.float32)
        q = rng.normal(size=(1, 4)).astype(np.float32)
        m = get_metric("l2")
        ids, dists = knn(vectors, q, 5, m)
        all_d = m.distances(q[0], vectors)
        assert dists[0][-1] <= np.partition(all_d, 5)[5] + 1e-5


class TestSearchProperties:
    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.integers(0, 1_000))
    def test_greedy_no_duplicates_and_sorted(self, seed):
        from repro.graphs import greedy_search, random_regular_graph

        rng = np.random.default_rng(seed)
        n = 40
        vectors = rng.normal(size=(n, 6)).astype(np.float32)
        graph = random_regular_graph(n, 5, seed=seed)
        m = get_metric("l2")
        ids, dists, _ = greedy_search(
            graph, vectors, m, rng.normal(size=6).astype(np.float32),
            [0], ef=12, k=8,
        )
        assert len(set(ids.tolist())) == len(ids)
        assert (np.diff(dists) >= -1e-9).all()

    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.integers(0, 1_000), st.integers(1, 4))
    def test_larger_ef_never_worse(self, seed, factor):
        """Monotonicity: a superset pool returns results at least as close."""
        from repro.graphs import greedy_search, random_regular_graph

        rng = np.random.default_rng(seed)
        n = 40
        vectors = rng.normal(size=(n, 6)).astype(np.float32)
        graph = random_regular_graph(n, 5, seed=seed)
        m = get_metric("l2")
        q = rng.normal(size=6).astype(np.float32)
        _, d_small, _ = greedy_search(graph, vectors, m, q, [0], ef=8, k=1)
        _, d_big, _ = greedy_search(graph, vectors, m, q, [0],
                                    ef=8 * factor, k=1)
        assert d_big[0] <= d_small[0] + 1e-9


class TestScalarQuantizerProperties:
    @COMMON
    @given(st.integers(0, 10_000), st.integers(2, 16))
    def test_codes_reconstruct_within_step(self, seed, dim):
        from repro.quantization import ScalarQuantizer

        rng = np.random.default_rng(seed)
        data = (rng.normal(size=(20, dim)) * rng.uniform(0.1, 10)).astype(
            np.float32
        )
        sq = ScalarQuantizer().fit_dataset(data)
        rec = sq.decode(sq.codes)
        assert (np.abs(rec - data) <= sq.scale * 0.5 + 1e-4).all()
