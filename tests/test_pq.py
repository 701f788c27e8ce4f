"""Unit tests for the Product Quantizer (PQ short codes + ADC)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.quantization import ProductQuantizer
from repro.quantization.pq import PQCodebook
from repro.vectors import get_metric

from .conftest import example_budget
from .oracles import oracle_lookup_tables


@pytest.fixture(scope="module")
def trained():
    rng = np.random.default_rng(0)
    vectors = rng.normal(size=(400, 24)).astype(np.float32) * 5
    pq = ProductQuantizer(num_subspaces=4, num_centroids=16).fit_dataset(
        vectors, seed=0
    )
    return pq, vectors


class TestTraining:
    def test_codebook_shape(self, trained):
        pq, _ = trained
        assert pq.codebook.centroids.shape == (4, 16, 6)
        assert pq.codebook.pad == 0

    def test_codes_shape_and_dtype(self, trained):
        pq, vectors = trained
        assert pq.codes.shape == (400, 4)
        assert pq.codes.dtype == np.uint8
        assert pq.codes.max() < 16

    def test_padding_for_indivisible_dim(self):
        rng = np.random.default_rng(1)
        vectors = rng.normal(size=(100, 10)).astype(np.float32)
        pq = ProductQuantizer(num_subspaces=4, num_centroids=8).train(vectors)
        assert pq.codebook.pad == 2
        assert pq.codebook.sub_dim == 3
        codes = pq.encode(vectors)
        assert codes.shape == (100, 4)
        assert pq.decode(codes).shape == (100, 10)

    def test_small_datasets_clamp_codebook(self):
        """Segments smaller than ks still train; ks clamps to n."""
        rng = np.random.default_rng(5)
        vectors = rng.normal(size=(8, 4)).astype(np.float32)
        pq = ProductQuantizer(num_subspaces=2, num_centroids=16).train(vectors)
        assert pq.num_centroids == 8
        assert pq.encode(vectors).shape == (8, 2)

    def test_requires_two_vectors(self):
        with pytest.raises(ValueError, match="at least 2"):
            ProductQuantizer(2, 16).train(np.zeros((1, 4), dtype=np.float32))

    def test_encode_before_train_raises(self):
        pq = ProductQuantizer(2, 4)
        with pytest.raises(RuntimeError):
            pq.encode(np.zeros((2, 8), dtype=np.float32))

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            ProductQuantizer(0, 16)
        with pytest.raises(ValueError):
            ProductQuantizer(4, 1)
        with pytest.raises(ValueError):
            ProductQuantizer(4, 300)


class TestReconstruction:
    def test_decode_reduces_error_with_more_centroids(self):
        rng = np.random.default_rng(2)
        vectors = rng.normal(size=(500, 16)).astype(np.float32)
        errs = []
        for ks in (4, 64):
            pq = ProductQuantizer(4, ks).fit_dataset(vectors)
            rec = pq.decode(pq.codes)
            errs.append(float(((rec - vectors) ** 2).sum()))
        assert errs[1] < errs[0]

    def test_decode_matches_nearest_centroid(self, trained):
        pq, vectors = trained
        rec = pq.decode(pq.codes[:10])
        # Each subvector must be reconstructed as one of its codebook rows.
        parts = rec.reshape(10, 4, 6)
        for i in range(10):
            for m in range(4):
                match = np.isclose(
                    parts[i, m], pq.codebook.centroids[m], atol=1e-6
                ).all(axis=1)
                assert match.any()


class TestADC:
    def test_lookup_table_shape(self, trained):
        pq, vectors = trained
        table = pq.lookup_table(vectors[0])
        assert table.shape == (4, 16)

    def test_table_distance_matches_decoded_distance(self, trained):
        pq, vectors = trained
        m = get_metric("l2")
        query = vectors[7]
        table = pq.lookup_table(query)
        ids = np.arange(20)
        adc = pq.distances_from_table(table, ids)
        rec = pq.decode(pq.codes[:20])
        direct = m.distances(query, rec)
        assert np.allclose(adc, direct, rtol=1e-3, atol=1e-3)

    def test_adc_approximates_true_distance(self, trained):
        pq, vectors = trained
        m = get_metric("l2")
        query = vectors[3] + 0.1
        table = pq.lookup_table(query)
        adc = pq.distances_from_table(table, np.arange(400))
        true = m.distances(query, vectors)
        # ADC must be rank-correlated with the true distance.  Unclustered
        # Gaussian data is PQ's worst case, so the bar is modest here; the
        # integration tests check routing quality on realistic data.
        corr = np.corrcoef(adc, true)[0, 1]
        assert corr > 0.5
        # The true nearest neighbour should rank well under ADC.
        true_nn = int(np.argmin(true))
        assert int(np.argsort(adc).tolist().index(true_nn)) < 100

    def test_ip_metric_tables(self):
        rng = np.random.default_rng(3)
        vectors = rng.normal(size=(200, 8)).astype(np.float32)
        pq = ProductQuantizer(2, 16, metric="ip").fit_dataset(vectors)
        query = rng.normal(size=8).astype(np.float32)
        table = pq.lookup_table(query)
        adc = pq.distances_from_table(table, np.arange(200))
        rec = pq.decode(pq.codes)
        assert np.allclose(adc, -(rec @ query), rtol=1e-3, atol=1e-3)

    def test_distances_require_fit_dataset(self):
        rng = np.random.default_rng(4)
        vectors = rng.normal(size=(100, 8)).astype(np.float32)
        pq = ProductQuantizer(2, 8).train(vectors)
        with pytest.raises(RuntimeError, match="fit_dataset"):
            pq.distances_from_table(pq.lookup_table(vectors[0]), np.arange(3))


class TestOneCallTables:
    @settings(max_examples=example_budget(60), deadline=None)
    @given(
        metric=st.sampled_from(["l2", "ip"]),
        num_subspaces=st.sampled_from([1, 2, 4, 8, 16]),
        sub_dim=st.integers(1, 40),
        pad=st.integers(0, 3),
        num_centroids=st.sampled_from([2, 16, 256]),
        width=st.integers(1, 40),
        scale=st.sampled_from([1.0, 255.0]),
        seed=st.integers(0, 2**16),
    )
    def test_equals_the_per_subspace_loop(
        self, metric, num_subspaces, sub_dim, pad, num_centroids, width,
        scale, seed,
    ):
        """All M subspaces in one einsum: bit for bit the per-subspace
        loop's tables, and row-consistent (a query's table does not depend
        on the batch it is built in)."""
        rng = np.random.default_rng(seed)
        pad = min(pad, sub_dim - 1)
        dim = num_subspaces * sub_dim - pad
        pq = ProductQuantizer(num_subspaces, num_centroids, metric)
        pq.codebook = PQCodebook(
            (rng.standard_normal((num_subspaces, num_centroids, sub_dim))
             * scale).astype(np.float32),
            dim, pad,
        )
        queries = (rng.standard_normal((width, dim)) * scale).astype(
            np.float32
        )
        tables = pq.lookup_tables(queries)
        assert tables.dtype == np.float32
        assert tables.shape == (width, num_subspaces, num_centroids)
        assert np.array_equal(tables, oracle_lookup_tables(pq, queries))
        row = int(rng.integers(width))
        assert np.array_equal(pq.lookup_table(queries[row]), tables[row])


class TestAccounting:
    def test_code_bytes(self, trained):
        pq, _ = trained
        assert pq.code_bytes == 400 * 4

    def test_codebook_bytes(self, trained):
        pq, _ = trained
        assert pq.codebook_bytes == 4 * 16 * 6 * 4

    def test_untrained_zero(self):
        pq = ProductQuantizer(2, 4)
        assert pq.code_bytes == 0
        assert pq.codebook_bytes == 0
