"""Tests for entry-point providers (navigation graph, fixed, HNSW layers)."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.graphs import (
    FixedEntryPoint,
    HNSWParams,
    HNSWUpperLayers,
    build_hnsw,
    build_navigation_graph,
    greedy_search,
    wave_greedy_search,
)
from repro.graphs.navigation import LOCKSTEP_MIN_WAVE
from repro.vectors import bigann_like, deep_like, text2image_like


@pytest.fixture(scope="module")
def ds():
    return deep_like(500, 10, seed=41)


class TestFixedEntryPoint:
    def test_returns_fixed_vertex(self, ds):
        provider = FixedEntryPoint(17)
        out = provider.entry_points(ds.queries[0], 4)
        assert out.tolist() == [17]

    def test_memory_trivial(self):
        assert FixedEntryPoint(0).memory_bytes <= 16

    def test_walk_charges_nothing(self, ds):
        provider = FixedEntryPoint(17)
        ids, scored = provider.entry_walk(ds.queries[0], 4)
        assert ids.tolist() == [17] and scored == 0
        ids, scored = provider.entry_points_batch(ds.queries[:3], 4)
        assert ids.tolist() == [[17]] * 3 and scored.tolist() == [0] * 3


class TestNavigationGraph:
    def test_sample_size(self, ds):
        nav = build_navigation_graph(ds.vectors, ds.metric, sample_ratio=0.1)
        assert nav.num_samples == 50

    def test_sample_ids_unique_sorted(self, ds):
        nav = build_navigation_graph(ds.vectors, ds.metric, sample_ratio=0.2)
        ids = nav.sample_ids
        assert (np.diff(ids) > 0).all()
        assert ids.max() < ds.size

    def test_entry_points_are_global_sample_ids(self, ds):
        nav = build_navigation_graph(ds.vectors, ds.metric, sample_ratio=0.1)
        eps = nav.entry_points(ds.queries[0].astype(np.float32), 4)
        assert len(eps) == 4
        assert set(eps.tolist()) <= set(nav.sample_ids.tolist())

    def test_entry_points_close_to_query(self, ds):
        """The whole point of §4.2: entry points near the query."""
        nav = build_navigation_graph(ds.vectors, ds.metric, sample_ratio=0.2)
        q = ds.queries[1].astype(np.float32)
        eps = nav.entry_points(q, 1)
        d_entry = ds.metric.distance(q, ds.vectors[eps[0]])
        rng = np.random.default_rng(0)
        random_ids = rng.choice(ds.size, size=50, replace=False)
        d_random = np.median(ds.metric.distances(q, ds.vectors[random_ids]))
        assert d_entry < d_random

    def test_higher_sample_ratio_better_entries(self, ds):
        """Tab. 14's trend: larger μ gives closer entry points on average."""
        small = build_navigation_graph(ds.vectors, ds.metric, sample_ratio=0.02,
                                       seed=1)
        large = build_navigation_graph(ds.vectors, ds.metric, sample_ratio=0.4,
                                       seed=1)
        def mean_entry_dist(nav):
            total = 0.0
            for q in ds.queries:
                q = q.astype(np.float32)
                eps = nav.entry_points(q, 1)
                total += ds.metric.distance(q, ds.vectors[eps[0]])
            return total / ds.num_queries
        assert mean_entry_dist(large) <= mean_entry_dist(small)

    def test_memory_scales_with_mu(self, ds):
        small = build_navigation_graph(ds.vectors, ds.metric, sample_ratio=0.05)
        large = build_navigation_graph(ds.vectors, ds.metric, sample_ratio=0.5)
        assert large.memory_bytes > small.memory_bytes

    def test_entry_walk_reports_compute(self, ds):
        """The walk's distance count is its return value — the provider
        keeps no per-call state for concurrent waves to overwrite."""
        nav = build_navigation_graph(ds.vectors, ds.metric, sample_ratio=0.1)
        ids, scored = nav.entry_walk(ds.queries[0].astype(np.float32), 2)
        assert len(ids) == 2
        assert scored > 0
        assert not hasattr(nav, "last_trace")

    @pytest.mark.parametrize("algorithm", ["vamana", "nsg", "hnsw"])
    def test_algorithms(self, ds, algorithm):
        nav = build_navigation_graph(
            ds.vectors, ds.metric, sample_ratio=0.1, algorithm=algorithm
        )
        eps = nav.entry_points(ds.queries[0].astype(np.float32), 2)
        assert len(eps) >= 1

    def test_rejects_unknown_algorithm(self, ds):
        with pytest.raises(ValueError, match="unknown navigation algorithm"):
            build_navigation_graph(ds.vectors, ds.metric, algorithm="kgraph")

    def test_rejects_bad_ratio(self, ds):
        with pytest.raises(ValueError):
            build_navigation_graph(ds.vectors, ds.metric, sample_ratio=0.0)
        with pytest.raises(ValueError):
            build_navigation_graph(ds.vectors, ds.metric, sample_ratio=1.5)


class TestHNSWUpperLayers:
    def test_entry_point_provider(self, ds):
        index = build_hnsw(ds.vectors, ds.metric, HNSWParams(m=8,
                                                             ef_construction=32))
        provider = HNSWUpperLayers(index)
        eps = provider.entry_points(ds.queries[0].astype(np.float32), 4)
        assert len(eps) == 1
        assert 0 <= eps[0] < ds.size

    def test_memory_less_than_full_data(self, ds):
        index = build_hnsw(ds.vectors, ds.metric, HNSWParams(m=8,
                                                             ef_construction=32))
        provider = HNSWUpperLayers(index)
        assert 0 < provider.memory_bytes < ds.vectors.nbytes

    def test_descent_distances_are_counted(self, ds):
        """Every ``metric.distance`` call of the descent is reported, so the
        engines can charge it to ``QueryStats.exact_distances``."""
        index = build_hnsw(ds.vectors, ds.metric, HNSWParams(m=8,
                                                             ef_construction=32))
        q = ds.queries[0].astype(np.float32)
        calls = 0
        real = index.metric.distance

        class Counting:
            def distance(self, a, b):
                nonlocal calls
                calls += 1
                return real(a, b)

        index.metric = Counting()
        try:
            ids, scored = HNSWUpperLayers(index).entry_walk(q, 4)
        finally:
            index.metric = ds.metric
        assert scored == calls > 1
        assert ids.tolist() == [index.descend_entry_point(q)]


# ---------------------------------------------------------------------------
# the batch walk: row i is the scalar walk of query i, bit for bit

ALGORITHMS = ("vamana", "nsg", "hnsw")


@pytest.fixture(scope="module")
def walk_cases():
    """(navigation graph, float32 query pool) per dataset kind × algorithm."""
    datasets = {
        "l2-f32": deep_like(400, 96, seed=11),
        "l2-u8": bigann_like(400, 96, seed=12),
        "ip-f32": text2image_like(400, 96, seed=13),
    }
    return {
        (kind, algorithm): (
            build_navigation_graph(
                d.vectors, d.metric, sample_ratio=0.25, algorithm=algorithm,
                max_degree=8, build_ef=16, search_ef=12, seed=2,
            ),
            np.asarray(d.queries, dtype=np.float32),
        )
        for kind, d in datasets.items() for algorithm in ALGORITHMS
    }


def _assert_batch_is_scalar(nav, queries, count):
    ids, scored = nav.entry_points_batch(queries, count)
    assert scored.shape == (len(queries),)
    for i, q in enumerate(queries):
        want_ids, want_scored = nav.entry_walk(q, count)
        assert np.array_equal(ids[i], want_ids)
        assert scored[i] == want_scored
    return ids, scored


class TestBatchWalk:
    @settings(
        max_examples=60, deadline=None,
        suppress_health_check=[
            HealthCheck.too_slow, HealthCheck.function_scoped_fixture,
        ],
    )
    @given(
        kind=st.sampled_from(["l2-f32", "l2-u8", "ip-f32"]),
        algorithm=st.sampled_from(ALGORITHMS),
        width=st.integers(1, 64),
        start=st.integers(0, 95),
        count=st.integers(1, 6),
    )
    def test_rows_equal_scalar_walk(
        self, walk_cases, kind, algorithm, width, start, count
    ):
        nav, pool = walk_cases[kind, algorithm]
        queries = pool[(start + np.arange(width)) % len(pool)]
        ids, _ = _assert_batch_is_scalar(nav, queries, count)
        assert ids.shape == (width, count)
        assert ids.dtype == np.int64

    def test_fewer_samples_than_count(self):
        """m = 2 (a tiny sealed segment): the pool's -1 padding is trimmed,
        not used to index ``sample_ids`` (which would alias the last
        sample)."""
        d = deep_like(6, LOCKSTEP_MIN_WAVE + 4, seed=3)
        nav = build_navigation_graph(d.vectors, d.metric, sample_ratio=0.1)
        assert nav.num_samples == 2
        queries = np.asarray(d.queries, dtype=np.float32)
        ids, _ = _assert_batch_is_scalar(nav, queries, 4)
        assert ids.shape == (len(queries), 2)
        for row in ids:
            assert sorted(row.tolist()) == nav.sample_ids.tolist()

    @pytest.mark.parametrize("case", ["duplicated-rows", "small-integers"])
    def test_ties_follow_the_scalar_walk(self, case):
        """Equal distances: the heaps of ``greedy_search`` order the pool by
        ``(dist, id)`` and stop on strict ``>``; the batch walk must agree
        on ids and on the distance count."""
        rng = np.random.default_rng(5)
        if case == "duplicated-rows":
            base = rng.standard_normal((50, 16)).astype(np.float32)
            vectors = np.repeat(base, 4, axis=0)
            queries = rng.standard_normal((40, 16)).astype(np.float32)
        else:
            vectors = rng.integers(0, 3, size=(200, 8)).astype(np.uint8)
            queries = rng.integers(0, 3, size=(40, 8)).astype(np.float32)
        nav = build_navigation_graph(
            vectors, "l2", sample_ratio=1.0, max_degree=8, build_ef=16,
            search_ef=8,
        )
        _assert_batch_is_scalar(nav, queries, 4)
        # The case is only a regression test while it really produces ties.
        _, pool = wave_greedy_search(
            nav.graph.neighbor_lists(), nav.sample_vectors, nav.metric,
            queries, [nav.entry], 8, with_pool=True,
        )
        assert pool.tied.any()

    def test_untied_kernel_rows_equal_greedy_search(self):
        """The kernel's own contract: a row it does not flag as tied has
        the serial search's pool, distances and distance count."""
        rng = np.random.default_rng(9)
        vectors = rng.integers(0, 16, size=(300, 16)).astype(np.uint8)
        queries = rng.integers(0, 16, size=(64, 16)).astype(np.float32)
        nav = build_navigation_graph(
            vectors, "l2", sample_ratio=1.0, max_degree=8, build_ef=16,
        )
        ef = 10
        visited, pool = wave_greedy_search(
            nav.graph.neighbor_lists(), nav.sample_vectors, nav.metric,
            queries, [nav.entry], ef, with_pool=True,
        )
        assert pool.tied.any() and not pool.tied.all()
        for i in np.flatnonzero(~pool.tied):
            ids, dists, trace = greedy_search(
                nav.graph, nav.sample_vectors, nav.metric, queries[i],
                [nav.entry], ef, collect_visited=True,
            )
            assert np.array_equal(pool.ids[i], ids)
            assert np.array_equal(pool.dists[i], dists)
            assert pool.scored[i] == trace.distance_computations
            assert np.array_equal(visited[i], np.unique(trace.visited))

    def test_nothing_cached_on_the_graph(self, ds):
        """C_graph (§6.4) is the same before and after a lockstep walk, and
        the kernel's visited plane is B × m, not B × n."""
        nav = build_navigation_graph(ds.vectors, ds.metric, sample_ratio=0.1)
        before, attrs = nav.memory_bytes, set(vars(nav))
        queries = np.repeat(ds.queries, 4, axis=0)[:32].astype(np.float32)
        nav.entry_points_batch(queries, 4)
        assert nav.memory_bytes == before
        assert set(vars(nav)) == attrs
        visited = wave_greedy_search(
            nav.graph.neighbor_lists(), nav.sample_vectors, nav.metric,
            queries, [nav.entry], nav.search_ef, as_matrix=True,
        )
        assert visited.shape == (32, nav.num_samples)
