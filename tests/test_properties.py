"""Property-based tests (hypothesis) on core data structures and invariants."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine import CandidateSet, ResultSet
from repro.graphs import from_neighbor_lists
from repro.layout import (
    LAYOUT_STRATEGY_NAMES,
    bnf_layout,
    bnp_layout,
    bns_layout,
    get_layout_strategy,
    id_contiguous_layout,
    overlap_ratio,
    validate_layout,
)
from repro.quantization import kmeans
from repro.storage import VertexFormat

from .oracles import decode_vertex

COMMON = settings(
    max_examples=40, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# -- codec roundtrip -----------------------------------------------------------

@st.composite
def vertex_records(draw):
    dim = draw(st.integers(2, 32))
    max_degree = draw(st.integers(1, 16))
    vec = draw(
        st.lists(st.integers(0, 255), min_size=dim, max_size=dim)
    )
    deg = draw(st.integers(0, max_degree))
    nbrs = draw(
        st.lists(
            st.integers(0, 2**32 - 1), min_size=deg, max_size=deg, unique=True
        )
    )
    return dim, max_degree, np.asarray(vec, dtype=np.uint8), np.asarray(
        nbrs, dtype=np.uint32
    )


class TestCodecProperties:
    @COMMON
    @given(vertex_records())
    def test_vertex_roundtrip(self, record):
        dim, max_degree, vec, nbrs = record
        fmt = VertexFormat(dim=dim, dtype=np.uint8, max_degree=max_degree,
                           block_bytes=4096)
        out_vec, out_nbrs = decode_vertex(fmt, fmt.encode_vertex(vec, nbrs))
        assert np.array_equal(out_vec, vec)
        assert np.array_equal(out_nbrs, nbrs)

    @COMMON
    @given(st.integers(1, 64), st.integers(1, 32), st.integers(0, 500))
    def test_block_count_formula(self, dim, max_degree, n):
        fmt = VertexFormat(dim=dim, dtype=np.uint8, max_degree=max_degree,
                           block_bytes=4096)
        rho = fmt.num_blocks(n)
        eps = fmt.vertices_per_block
        assert rho * eps >= n
        assert (rho - 1) * eps < n or n == 0


# -- candidate set vs a naive model --------------------------------------------

class _NaiveModel:
    """Reference implementation: sorted list with linear scans."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.items: dict[int, float] = {}

    def push(self, vid, dist):
        if vid in self.items:
            # Re-push with a different key keeps the smaller distance.
            self.items[vid] = min(self.items[vid], dist)
            return False
        if len(self.items) >= self.capacity:
            worst = max(self.items.items(), key=lambda kv: (kv[1], kv[0]))
            # A full set rejects candidates that do not *strictly* improve on
            # the worst distance (matching the engine's eviction rule); among
            # equal distances the largest id is the eviction victim.
            if dist >= worst[1]:
                return False
            del self.items[worst[0]]
        self.items[vid] = dist
        return True

    def sorted_ids(self):
        return [vid for vid, _ in sorted(self.items.items(),
                                         key=lambda kv: (kv[1], kv[0]))]


class TestCandidateSetProperties:
    @COMMON
    @given(
        st.integers(1, 8),
        st.lists(
            st.tuples(st.integers(0, 30), st.floats(0, 100, allow_nan=False)),
            max_size=60,
        ),
    )
    def test_matches_naive_model(self, capacity, ops):
        c = CandidateSet(capacity)
        model = _NaiveModel(capacity)
        for vid, dist in ops:
            c.push(vid, dist)
            model.push(vid, dist)
        assert [vid for _, vid in c.entries()] == model.sorted_ids()

    @COMMON
    @given(
        st.lists(
            st.tuples(st.integers(0, 50), st.floats(0, 100, allow_nan=False)),
            max_size=40,
        )
    )
    def test_entries_always_sorted_and_bounded(self, ops):
        c = CandidateSet(5)
        for vid, dist in ops:
            c.push(vid, dist)
        entries = c.entries()
        assert len(entries) <= 5
        assert entries == sorted(entries)

    @COMMON
    @given(
        st.lists(
            st.tuples(st.integers(0, 50), st.floats(0, 100, allow_nan=False)),
            max_size=40,
        )
    )
    def test_pop_unvisited_exhausts_exactly_once(self, ops):
        c = CandidateSet(8)
        for vid, dist in ops:
            c.push(vid, dist)
        seen = []
        while c.has_unvisited():
            seen.extend(c.pop_unvisited(2))
        assert len(seen) == len(set(seen))
        assert set(seen) == {vid for _, vid in c.entries()}


class TestResultSetProperties:
    @COMMON
    @given(
        st.lists(
            st.tuples(st.integers(0, 20), st.floats(0, 100, allow_nan=False)),
            min_size=1, max_size=50,
        ),
        st.integers(1, 10),
    )
    def test_topk_is_min_over_duplicates(self, ops, k):
        r = ResultSet()
        best: dict[int, float] = {}
        for vid, dist in ops:
            r.add(vid, dist)
            best[vid] = min(best.get(vid, np.inf), dist)
        ids, dists = r.top_k(k)
        expected = sorted(best.items(), key=lambda kv: (kv[1], kv[0]))[:k]
        assert ids.tolist() == [vid for vid, _ in expected]
        assert np.allclose(dists, [d for _, d in expected])


# -- layout invariants ---------------------------------------------------------

@st.composite
def random_graphs(draw):
    n = draw(st.integers(8, 60))
    degree = draw(st.integers(1, min(6, n - 1)))
    seed = draw(st.integers(0, 1000))
    rng = np.random.default_rng(seed)
    lists = []
    for u in range(n):
        choice = rng.choice(n - 1, size=degree, replace=False)
        lists.append(np.where(choice >= u, choice + 1, choice).tolist())
    return from_neighbor_lists(lists)


class TestLayoutProperties:
    @COMMON
    @given(random_graphs(), st.integers(2, 8))
    def test_bnp_is_partition(self, graph, eps):
        layout = bnp_layout(graph, eps)
        validate_layout(layout, graph.num_vertices, eps)

    @COMMON
    @given(random_graphs(), st.integers(2, 8))
    def test_bnf_is_partition_and_or_bounded(self, graph, eps):
        report = bnf_layout(graph, eps, max_iterations=2)
        validate_layout(report.layout, graph.num_vertices, eps)
        assert 0.0 <= report.final_or <= 1.0

    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(random_graphs(), st.integers(2, 6))
    def test_bns_monotone(self, graph, eps):
        """Lemma 4.2 as a property over random graphs."""
        report = bns_layout(graph, eps, max_iterations=2, gain_threshold=0.0)
        assert all(
            b >= a - 1e-12
            for a, b in zip(report.or_history, report.or_history[1:])
        )

    @COMMON
    @given(random_graphs(), st.integers(2, 8))
    def test_or_in_unit_interval(self, graph, eps):
        layout = id_contiguous_layout(graph.num_vertices, eps)
        assert 0.0 <= overlap_ratio(graph, layout) <= 1.0


# -- k-means invariants ----------------------------------------------------------

class TestKMeansProperties:
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.integers(5, 40), st.integers(1, 5), st.integers(0, 99))
    def test_assignment_valid_and_inertia_nonnegative(self, n, k, seed):
        k = min(k, n)
        rng = np.random.default_rng(seed)
        data = rng.normal(size=(n, 4)).astype(np.float32)
        result = kmeans(data, k, seed=seed)
        assert result.assignment.shape == (n,)
        assert result.assignment.min() >= 0
        assert result.assignment.max() < k
        assert result.inertia >= 0.0

    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.integers(0, 99))
    def test_assignment_is_nearest_centroid(self, seed):
        rng = np.random.default_rng(seed)
        data = rng.normal(size=(30, 3)).astype(np.float32)
        result = kmeans(data, 4, seed=seed)
        from repro.vectors.metrics import pairwise_l2_squared

        d = pairwise_l2_squared(data, result.centroids)
        assert np.array_equal(result.assignment, d.argmin(axis=1))


# -- layout-strategy seam invariants -------------------------------------------

STRATEGY_SETTINGS = settings(
    max_examples=20, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestLayoutStrategyProperties:
    @STRATEGY_SETTINGS
    @given(
        random_graphs(),
        st.integers(2, 8),
        st.sampled_from(LAYOUT_STRATEGY_NAMES),
    )
    def test_every_strategy_emits_valid_partition(self, graph, eps, name):
        """Any registered strategy's ``assign`` is a capacity-ε partition."""
        strategy = get_layout_strategy(name, iterations=2, seed=7)
        rng = np.random.default_rng(graph.num_vertices)
        vectors = rng.normal(size=(graph.num_vertices, 4)).astype(np.float32)
        layout = strategy.assign(graph, eps, vectors=vectors)
        validate_layout(layout, graph.num_vertices, eps)

    @STRATEGY_SETTINGS
    @given(
        random_graphs(),
        st.integers(2, 8),
        st.sampled_from(LAYOUT_STRATEGY_NAMES),
        st.integers(0, 1000),
    )
    def test_overlap_ratio_invariant_under_block_permutation(
        self, graph, eps, name, perm_seed
    ):
        """OR(G) depends on co-residency only, never on block numbering."""
        strategy = get_layout_strategy(name, iterations=2, seed=7)
        rng = np.random.default_rng(graph.num_vertices)
        vectors = rng.normal(size=(graph.num_vertices, 4)).astype(np.float32)
        layout = strategy.assign(graph, eps, vectors=vectors)
        base = overlap_ratio(graph, layout)
        order = np.random.default_rng(perm_seed).permutation(len(layout))
        permuted = [layout[i] for i in order]
        assert overlap_ratio(graph, permuted) == pytest.approx(base)
