"""Shared fixtures: small datasets and pre-built indexes.

Index construction dominates test runtime, so the expensive artifacts are
session-scoped and deliberately tiny (hundreds of vectors).  Tests that need
different parameters build their own small instances.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from repro.baselines import SPANNConfig, build_spann
from repro.core import (
    DiskANNConfig,
    GraphConfig,
    StarlingConfig,
    build_diskann,
    build_starling,
)
from repro.graphs import VamanaParams, build_vamana
from repro.vectors import bigann_like, deep_like, knn

SMALL_N = 600
SMALL_QUERIES = 12

# ``--hypothesis-profile=ci``: the CI step that re-runs the frontier and
# wave equivalence suites with a search budget tier-1 cannot afford, on
# fresh random examples every run.
settings.register_profile(
    "ci", max_examples=500, derandomize=False, deadline=None
)


def example_budget(tier1: int) -> int:
    """``max_examples`` for a property test too slow for hypothesis's
    default 100: ``tier1`` examples normally, the profile's own budget once
    a profile has raised it."""
    active = settings.default.max_examples
    return active if active > 100 else tier1


@pytest.fixture(scope="session")
def small_dataset():
    """A small BIGANN-like dataset (uint8, 128-d, L2)."""
    return bigann_like(SMALL_N, SMALL_QUERIES, seed=3)


@pytest.fixture(scope="session")
def small_float_dataset():
    """A small DEEP-like dataset (float32, 96-d, L2)."""
    return deep_like(SMALL_N, SMALL_QUERIES, seed=5)


@pytest.fixture(scope="session")
def small_graph(small_dataset):
    """A Vamana graph + entry point over the small dataset."""
    graph, entry = build_vamana(
        small_dataset.vectors,
        small_dataset.metric,
        VamanaParams(max_degree=16, build_ef=32, seed=1),
    )
    return graph, entry


@pytest.fixture(scope="session")
def small_truth(small_dataset):
    """Exact top-10 ground truth for the small dataset's queries."""
    ids, dists = knn(
        small_dataset.vectors, small_dataset.queries, 10, small_dataset.metric
    )
    return ids, dists


@pytest.fixture(scope="session")
def graph_config():
    return GraphConfig(max_degree=16, build_ef=32, seed=1)


@pytest.fixture(scope="session")
def starling_index(small_dataset, graph_config):
    return build_starling(
        small_dataset, StarlingConfig(graph=graph_config)
    )


@pytest.fixture(scope="session")
def diskann_index(small_dataset, graph_config):
    return build_diskann(
        small_dataset, DiskANNConfig(graph=graph_config)
    )


@pytest.fixture(scope="session")
def spann_index(small_dataset):
    return build_spann(
        small_dataset,
        SPANNConfig(posting_size=24, replicas=2, max_probes=8, seed=1),
    )


@pytest.fixture()
def rng():
    return np.random.default_rng(12345)
