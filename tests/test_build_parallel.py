"""Determinism and equivalence contracts of the wave-batched build pipeline.

Three layers of guarantees, mirroring ``repro.buildspec``'s docstring:

1. ``serial`` mode (the default) is the classic loop, byte-identical across
   repeated builds with the same seed.
2. A wave build is a pure function of ``(seed, wave_size)`` — repeated
   builds produce identical graphs; NSG's one (wave) build is further
   independent of the wave size and bit-identical to the per-point oracle.
3. The vectorized kernels (lockstep search, flat RobustPrune, BNF conflict
   rounds, GP2 symmetrize) reproduce their per-item reference loops exactly.
"""

import functools

import numpy as np
import pytest

from repro.buildspec import BUILD_MODES, BuildSpec
from repro.graphs.nsg import NSGParams, build_nsg
from repro.graphs.search import greedy_search
from repro.graphs.vamana import VamanaParams, build_vamana, robust_prune
from repro.graphs.wavebuild import robust_prune_wave, wave_greedy_search
from repro.layout.bnf import bnf_place, bnf_place_reference
from repro.vectors.metrics import get_metric

from .oracles import oracle_build_nsg


def _neighbor_lists(graph):
    return [np.asarray(a) for a in graph.neighbor_lists()]


def _graphs_identical(a, b) -> bool:
    return all(
        np.array_equal(x, y)
        for x, y in zip(_neighbor_lists(a), _neighbor_lists(b))
    )


@pytest.fixture(scope="module")
def vectors():
    rng = np.random.default_rng(7)
    return rng.normal(size=(300, 16)).astype(np.float32)


@functools.lru_cache(maxsize=None)
def _nsg_oracle_case(metric: str, dtype: str, seed: int):
    """One cell's data, params and per-point oracle graph, built once for
    the cell's three wave sizes."""
    rng = np.random.default_rng(seed)
    data = (
        rng.normal(size=(300, 16)).astype(np.float32)
        if dtype == "float32"
        else rng.integers(0, 256, size=(300, 16)).astype(np.uint8)
    )
    params = NSGParams(max_degree=12, build_ef=24, knn_k=10, seed=seed)
    return (data, params, *oracle_build_nsg(data, metric, params))


class TestBuildSpec:
    def test_modes(self):
        assert BUILD_MODES == ("serial", "batched")
        assert not BuildSpec().parallel
        assert BuildSpec(mode="batched").parallel

    def test_validation(self):
        with pytest.raises(ValueError):
            BuildSpec(mode="warp")
        with pytest.raises(ValueError):
            BuildSpec(wave_size=0)


class TestSerialDeterminism:
    def test_vamana_repeated_builds_identical(self, vectors):
        params = VamanaParams(max_degree=12, build_ef=24, seed=3)
        g1, e1 = build_vamana(vectors, "l2", params)
        g2, e2 = build_vamana(vectors, "l2", params)
        assert e1 == e2
        assert _graphs_identical(g1, g2)

    def test_serial_spec_is_the_serial_path(self, vectors):
        params = VamanaParams(max_degree=12, build_ef=24, seed=3)
        g1, _ = build_vamana(vectors, "l2", params)
        g2, _ = build_vamana(vectors, "l2", params, spec=BuildSpec())
        assert _graphs_identical(g1, g2)

    def test_nsg_repeated_builds_identical(self, vectors):
        params = NSGParams(max_degree=12, build_ef=24, knn_k=10, seed=3)
        g1, n1 = build_nsg(vectors, "l2", params)
        g2, n2 = build_nsg(vectors, "l2", params)
        assert n1 == n2
        assert _graphs_identical(g1, g2)


class TestWaveDeterminism:
    def test_vamana_wave_repeated_builds_identical(self, vectors):
        params = VamanaParams(max_degree=12, build_ef=24, seed=3)
        spec = BuildSpec(mode="batched")
        g1, _ = build_vamana(vectors, "l2", params, spec=spec)
        g2, _ = build_vamana(vectors, "l2", params, spec=spec)
        assert _graphs_identical(g1, g2)

    def test_vamana_wave_recall_matches_serial(self, vectors):
        """Vamana waves see stale intra-wave adjacency — a different, still
        valid graph: recall@10 (0.97 here) within a point of serial's."""
        from repro.metrics import mean_recall_at_k
        from repro.vectors import knn

        metric = get_metric("l2")
        params = VamanaParams(max_degree=12, build_ef=24, seed=3)
        rng = np.random.default_rng(11)
        queries = rng.normal(size=(60, 16)).astype(np.float32)
        truth, _ = knn(vectors, queries, 10, metric)
        recalls = []
        for spec in (None, BuildSpec(mode="batched")):
            g, e = build_vamana(vectors, "l2", params, spec=spec)
            found = [greedy_search(g, vectors, metric, q, [e], 16, 10)[0]
                     for q in queries]
            recalls.append(mean_recall_at_k(found, truth, 10))
        assert abs(recalls[0] - recalls[1]) <= 0.01

    @pytest.mark.parametrize("wave_size", [1, 7, 64])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("dtype", ["float32", "uint8"])
    @pytest.mark.parametrize("metric", ["l2", "ip"])
    def test_nsg_waves_bit_identical_to_serial(
        self, metric, dtype, seed, wave_size
    ):
        """The identity NSG's one build rests on: every wave size
        reproduces the per-point oracle loop."""
        data, params, g_oracle, n_oracle = _nsg_oracle_case(
            metric, dtype, seed
        )
        g_wave, n_wave = build_nsg(
            data, metric, params,
            spec=BuildSpec(mode="batched", wave_size=wave_size),
        )
        assert n_wave == n_oracle
        assert _graphs_identical(g_wave, g_oracle)

    def test_nsg_ignores_build_mode(self, vectors):
        params = NSGParams(max_degree=12, build_ef=24, knn_k=10, seed=3)
        g_oracle, n_oracle = oracle_build_nsg(vectors, "l2", params)
        for spec in (None, BuildSpec()):
            g, n = build_nsg(vectors, "l2", params, spec=spec)
            assert n == n_oracle
            assert _graphs_identical(g, g_oracle)


class TestKernelEquivalence:
    def test_wave_search_visits_match_serial(self, vectors):
        from repro.graphs.knn import knn_graph

        metric = get_metric("l2")
        base = knn_graph(vectors, 8, metric, seed=0)
        queries = vectors[:40]
        wave = wave_greedy_search(
            [a.astype(np.int64) for a in base.neighbor_lists()],
            vectors, metric, queries,
            np.zeros(len(queries), dtype=np.int64), 24,
        )
        for w, q in enumerate(queries):
            _, _, trace = greedy_search(
                base, vectors, metric, q, [0], 24, collect_visited=True
            )
            assert np.array_equal(
                wave[w], np.unique(np.asarray(trace.visited, dtype=np.int64))
            )

    def test_prune_wave_matches_robust_prune(self, vectors):
        metric = get_metric("l2")
        rng = np.random.default_rng(0)
        points = rng.choice(len(vectors), size=25, replace=False)
        cand_lists = [
            np.unique(rng.choice(len(vectors), size=40))
            for _ in points
        ]
        for alpha in (1.0, 1.2):
            got = robust_prune_wave(
                points.astype(np.int64), cand_lists, vectors, metric,
                8, alpha,
            )
            for p, cand, sel in zip(points, cand_lists, got):
                cand = cand[cand != p]
                d = metric.distances(vectors[p], vectors[cand])
                expect = robust_prune(
                    int(p), cand.astype(np.int64), d, vectors, metric,
                    8, alpha,
                )
                assert np.array_equal(sel, expect)

    def test_bnf_place_matches_reference(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            n = int(rng.integers(20, 300))
            eps = int(rng.integers(2, 16))
            num_blocks = -(-n // eps)
            nbrs = [
                rng.integers(0, n, size=rng.integers(0, 10)).astype(np.int64)
                for _ in range(n)
            ]
            prev = rng.integers(0, num_blocks, size=n).astype(np.int64)
            order = rng.permutation(n)
            assert bnf_place(nbrs, prev, order, eps, num_blocks) == \
                bnf_place_reference(nbrs, prev, order, eps, num_blocks)

    def test_gp2_symmetrize_matches_sets(self):
        from repro.graphs.adjacency import random_regular_graph
        from repro.layout.partitioning import _undirected_neighbor_arrays

        graph = random_regular_graph(120, 6, seed=2)
        got = _undirected_neighbor_arrays(graph)
        expect: list[set] = [set() for _ in range(120)]
        for u in range(120):
            for v in graph.neighbors(u):
                expect[u].add(int(v))
                expect[int(v)].add(u)
        for u in range(120):
            assert set(got[u].tolist()) == expect[u]
            assert np.array_equal(got[u], np.sort(got[u]))  # sorted, unique


class TestQuantizerParallel:
    def test_pq_repeated_fits_identical(self, vectors):
        from repro.quantization.pq import ProductQuantizer

        first = ProductQuantizer(num_subspaces=4, num_centroids=16).train(
            vectors, seed=5
        )
        again = ProductQuantizer(num_subspaces=4, num_centroids=16).train(
            vectors, seed=5
        )
        assert np.array_equal(
            first.codebook.centroids, again.codebook.centroids
        )

    def test_kmeanspp_degenerate_seeds_distinct(self):
        from repro.quantization.kmeans import _kmeanspp_seeds

        data = np.zeros((12, 4), dtype=np.float32)
        for s in range(10):
            seeds = _kmeanspp_seeds(
                data[:, None, :], 9, [np.random.default_rng(s)]
            )[0]
            assert len(set(seeds.tolist())) == 9


class TestBuildCache:
    @pytest.fixture(scope="class")
    def dataset(self):
        from repro.vectors import by_name

        return by_name("bigann", 250, 5, seed=0)

    def test_roundtrip_hit_and_equal_results(self, dataset, tmp_path):
        from repro.bench.build_cache import BuildCache
        from repro.core.config import GraphConfig, StarlingConfig

        cfg = StarlingConfig(graph=GraphConfig(max_degree=10, build_ef=20))
        cache = BuildCache(tmp_path)
        built, hit1 = cache.build_starling(dataset, cfg)
        loaded, hit2 = cache.build_starling(dataset, cfg)
        assert (hit1, hit2) == (False, True)
        q = np.asarray(dataset.queries[0], dtype=np.float32)
        a, b = built.search(q, 5, 16), loaded.search(q, 5, 16)
        assert np.array_equal(a.ids, b.ids)

    def test_key_depends_on_mode(self, dataset):
        from repro.bench.build_cache import cache_key
        from repro.core.config import StarlingConfig

        cfg = StarlingConfig()
        serial = cache_key("starling", dataset, cfg, None)
        wave = cache_key(
            "starling", dataset, cfg, BuildSpec(mode="batched")
        )
        assert serial == cache_key("starling", dataset, cfg, BuildSpec())
        assert serial != wave

    def test_unpersistable_quantizer_bypasses(self, dataset, tmp_path):
        from repro.bench.build_cache import BuildCache
        from repro.core.config import GraphConfig, StarlingConfig

        cfg = StarlingConfig(
            graph=GraphConfig(max_degree=10, build_ef=20), quantizer="sq8"
        )
        cache = BuildCache(tmp_path)
        _, hit1 = cache.build_starling(dataset, cfg)
        _, hit2 = cache.build_starling(dataset, cfg)
        assert (hit1, hit2) == (False, False)


def test_disk_write_timing_recorded():
    from repro.core.builder import build_starling
    from repro.vectors import by_name

    index = build_starling(by_name("bigann", 250, 5, seed=0))
    t = index.timings
    assert t.disk_write_s > 0
    assert t.total_s == pytest.approx(
        t.disk_graph_s + t.shuffle_s + t.memory_graph_s + t.hot_cache_s
        + t.pq_s + t.disk_write_s
    )
