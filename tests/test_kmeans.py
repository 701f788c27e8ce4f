"""Unit tests for k-means and balanced k-means, and the lockstep k-means++
seeding checked against the one-subspace-at-a-time oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.quantization.pq as pq_module
from repro.quantization import (
    OptimizedProductQuantizer,
    ProductQuantizer,
    balanced_kmeans,
    kmeans,
)
from repro.quantization.kmeans import _kmeanspp_seeds, kmeans_subspaces

from .conftest import example_budget
from .oracles import oracle_kmeans, oracle_kmeanspp_seeds


def _blobs(rng, k=4, per=25, dim=6, spread=20.0):
    centres = rng.normal(size=(k, dim)) * spread
    points = np.concatenate(
        [centres[i] + rng.normal(size=(per, dim)) for i in range(k)]
    )
    return points.astype(np.float32), centres


class TestKMeans:
    def test_recovers_separated_blobs(self, rng):
        points, _ = _blobs(rng)
        result = kmeans(points, 4, seed=1)
        # Each blob of 25 should map to one cluster.
        for b in range(4):
            labels = result.assignment[b * 25 : (b + 1) * 25]
            assert len(set(labels.tolist())) == 1

    def test_exact_k_clusters_used(self, rng):
        points, _ = _blobs(rng, k=3)
        result = kmeans(points, 3, seed=0)
        assert set(result.assignment.tolist()) == {0, 1, 2}

    def test_inertia_nonincreasing_vs_more_clusters(self, rng):
        points, _ = _blobs(rng)
        i2 = kmeans(points, 2, seed=0).inertia
        i8 = kmeans(points, 8, seed=0).inertia
        assert i8 <= i2

    def test_deterministic_given_seed(self, rng):
        points, _ = _blobs(rng)
        a = kmeans(points, 4, seed=7)
        b = kmeans(points, 4, seed=7)
        assert np.array_equal(a.assignment, b.assignment)

    def test_k_equals_n(self, rng):
        points = rng.normal(size=(5, 3)).astype(np.float32)
        result = kmeans(points, 5, seed=0)
        assert result.inertia == pytest.approx(0.0, abs=1e-6)

    def test_duplicate_points_handled(self):
        points = np.zeros((10, 4), dtype=np.float32)
        result = kmeans(points, 3, seed=0)
        assert result.inertia == pytest.approx(0.0, abs=1e-9)

    def test_k_out_of_range(self, rng):
        points = rng.normal(size=(5, 3)).astype(np.float32)
        with pytest.raises(ValueError):
            kmeans(points, 0)
        with pytest.raises(ValueError):
            kmeans(points, 6)

    def test_integer_input_promoted(self, rng):
        points = rng.integers(0, 255, size=(30, 4)).astype(np.uint8)
        result = kmeans(points, 3, seed=0)
        assert result.centroids.dtype == np.float32


class TestBalancedKMeans:
    def test_capacity_respected(self, rng):
        points, _ = _blobs(rng, k=4, per=25)
        result = balanced_kmeans(points, 5, max_cluster_size=25, seed=0)
        counts = np.bincount(result.assignment, minlength=5)
        assert (counts <= 25).all()

    def test_all_points_assigned(self, rng):
        points, _ = _blobs(rng)
        result = balanced_kmeans(points, 10, max_cluster_size=15, seed=0)
        assert (result.assignment >= 0).all()
        assert result.assignment.shape == (100,)

    def test_rejects_impossible_capacity(self, rng):
        points = rng.normal(size=(20, 3)).astype(np.float32)
        with pytest.raises(ValueError, match="cannot pack"):
            balanced_kmeans(points, 3, max_cluster_size=5)

    def test_tight_capacity_exactly_fills(self, rng):
        points = rng.normal(size=(20, 3)).astype(np.float32)
        result = balanced_kmeans(points, 4, max_cluster_size=5, seed=0)
        counts = np.bincount(result.assignment, minlength=4)
        assert counts.tolist() == [5, 5, 5, 5]


def _assert_same_result(got, want):
    assert np.array_equal(got.centroids, want.centroids)
    assert got.centroids.dtype == want.centroids.dtype
    assert np.array_equal(got.assignment, want.assignment)
    assert got.inertia == want.inertia
    assert got.iterations == want.iterations


@st.composite
def subspace_problems(draw):
    """An ``[n, M, dim]`` array (float32 or uint8), ``k`` and a seed.

    Each subspace draws its rows from its own pool of ``distinct`` points,
    so a subspace with fewer distinct points than ``k`` runs out of spread
    and takes k-means++'s degenerate branch while the others do not.
    """
    n = draw(st.integers(1, 120))
    num = draw(st.integers(1, 5))
    dim = draw(st.integers(1, 6))
    uint8 = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    parts = np.empty((n, num, dim), dtype=np.uint8 if uint8 else np.float32)
    for m in range(num):
        distinct = draw(st.integers(1, n))
        if uint8:
            pool = rng.integers(0, 256, size=(distinct, dim))
        else:
            pool = rng.standard_normal((distinct, dim)) * 10.0
        parts[:, m] = pool[rng.integers(0, distinct, size=n)]
    k = draw(st.one_of(st.just(n), st.integers(1, n)))
    seed = draw(st.integers(0, 2**16))
    max_iters = draw(st.integers(1, 4))
    return parts, k, seed, max_iters


class TestLockstepAgainstOracle:
    """``kmeans_subspaces`` / ``kmeans`` equal the per-subspace loop kept in
    ``tests/oracles.py``, bit for bit: seeds, centroids, assignment,
    inertia and iteration count."""

    @settings(max_examples=example_budget(60), deadline=None)
    @given(subspace_problems())
    def test_subspaces_equal_oracle(self, problem):
        parts, k, seed, max_iters = problem
        # Subspace m of the float32 promotion is the view the product
        # quantizer used to hand kmeans() one subspace at a time.
        x = parts.astype(np.float32, copy=False)
        num = parts.shape[1]
        seeds = _kmeanspp_seeds(
            x, k, [np.random.default_rng(seed + m) for m in range(num)]
        )
        results = kmeans_subspaces(parts, k, seed=seed, max_iters=max_iters)
        assert len(results) == num
        for m in range(num):
            want_seeds = oracle_kmeanspp_seeds(
                x[:, m], k, np.random.default_rng(seed + m)
            )
            assert np.array_equal(seeds[m], want_seeds)
            _assert_same_result(
                results[m],
                oracle_kmeans(x[:, m], k, seed=seed + m, max_iters=max_iters),
            )

    @settings(max_examples=example_budget(40), deadline=None)
    @given(subspace_problems())
    def test_single_space_equals_oracle(self, problem):
        parts, k, seed, max_iters = problem
        data = np.ascontiguousarray(parts[:, 0])
        _assert_same_result(
            kmeans(data, k, seed=seed, max_iters=max_iters),
            oracle_kmeans(data, k, seed=seed, max_iters=max_iters),
        )

    def test_some_subspaces_degenerate(self):
        rng = np.random.default_rng(3)
        parts = rng.standard_normal((40, 3, 4)).astype(np.float32)
        parts[:, 1] = parts[0, 1]  # one point, forty copies
        seeds = _kmeanspp_seeds(
            parts, 12, [np.random.default_rng(m) for m in range(3)]
        )
        for m in range(3):
            want = oracle_kmeanspp_seeds(
                parts[:, m], 12, np.random.default_rng(m)
            )
            assert np.array_equal(seeds[m], want)

    def test_overflowing_distances_raise(self):
        data = np.full((6, 2), 3e38, dtype=np.float32)
        data[::2] *= -1
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError):
                oracle_kmeans(data, 3)
            with pytest.raises(ValueError):
                kmeans(data, 3)


def _oracle_trainer(parts, k, *, seed=0, max_iters=25):
    """The product quantizer's old per-subspace training loop."""
    return [
        oracle_kmeans(parts[:, m, :], k, seed=seed + m, max_iters=max_iters)
        for m in range(parts.shape[1])
    ]


class TestQuantizerCodebooksAgainstOracle:
    """PQ / OPQ trained through the lockstep seeding build the codebooks the
    per-subspace loop built."""

    @pytest.mark.parametrize(
        "n,num_subspaces,num_centroids",
        [(300, 8, 256), (90, 6, 256), (400, 5, 32), (64, 1, 16)],
    )
    def test_pq_codebooks(self, monkeypatch, n, num_subspaces, num_centroids):
        rng = np.random.default_rng(n)
        vectors = rng.standard_normal((n, 20)).astype(np.float32)
        got = ProductQuantizer(num_subspaces, num_centroids).train(
            vectors, seed=4
        )
        monkeypatch.setattr(pq_module, "kmeans_subspaces", _oracle_trainer)
        want = ProductQuantizer(num_subspaces, num_centroids).train(
            vectors, seed=4
        )
        assert got.num_centroids == want.num_centroids == min(num_centroids, n)
        assert np.array_equal(got.codebook.centroids, want.codebook.centroids)

    def test_pq_uint8_codebooks(self, monkeypatch):
        vectors = np.random.default_rng(1).integers(
            0, 256, size=(200, 32), dtype=np.uint8
        )
        got = ProductQuantizer(8, 64).train(vectors, seed=2)
        monkeypatch.setattr(pq_module, "kmeans_subspaces", _oracle_trainer)
        want = ProductQuantizer(8, 64).train(vectors, seed=2)
        assert np.array_equal(got.codebook.centroids, want.codebook.centroids)

    def test_opq_codebooks_and_rotation(self, monkeypatch):
        vectors = np.random.default_rng(5).standard_normal(
            (250, 16)
        ).astype(np.float32)
        got = OptimizedProductQuantizer(4, 32, iterations=2).train(
            vectors, seed=3
        )
        monkeypatch.setattr(pq_module, "kmeans_subspaces", _oracle_trainer)
        want = OptimizedProductQuantizer(4, 32, iterations=2).train(
            vectors, seed=3
        )
        assert np.array_equal(
            got.pq.codebook.centroids, want.pq.codebook.centroids
        )
        assert np.array_equal(got.rotation, want.rotation)


@pytest.mark.xfail(
    strict=True,
    reason="known defect: the first convergence check reads inf <= inf, so "
    "every k-means stops after one Lloyd step; fixing it changes every PQ "
    "codebook, so it waits for an answer-changing change",
)
def test_kmeans_iterates_past_first_step():
    rng = np.random.default_rng(0)
    data = rng.standard_normal((2000, 12)).astype(np.float32)
    result = kmeans(data, 64, seed=0, max_iters=15)
    assert result.iterations > 1
