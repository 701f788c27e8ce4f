"""Unit tests for the AdjacencyGraph container, and its array paths checked
against the per-vertex oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import AdjacencyGraph, from_neighbor_lists, random_regular_graph

from .conftest import example_budget
from .oracles import oracle_adjacency_from_padded, oracle_reachable_from


class TestInvariants:
    def test_set_neighbors_roundtrip(self):
        g = AdjacencyGraph(5, 3)
        g.set_neighbors(0, [1, 2])
        assert sorted(g.neighbors(0).tolist()) == [1, 2]

    def test_rejects_self_loop(self):
        g = AdjacencyGraph(5, 3)
        with pytest.raises(ValueError, match="self-loop"):
            g.set_neighbors(2, [2])

    def test_dedupes_neighbors(self):
        g = AdjacencyGraph(5, 3)
        g.set_neighbors(0, [1, 1, 2])
        assert g.out_degree(0) == 2

    def test_rejects_out_of_range(self):
        g = AdjacencyGraph(5, 3)
        with pytest.raises(ValueError, match="out of range"):
            g.set_neighbors(0, [5])
        with pytest.raises(ValueError):
            g.set_neighbors(0, [-1])

    def test_rejects_degree_overflow(self):
        g = AdjacencyGraph(10, 2)
        with pytest.raises(ValueError, match="exceeds"):
            g.set_neighbors(0, [1, 2, 3])

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            AdjacencyGraph(0, 3)
        with pytest.raises(ValueError):
            AdjacencyGraph(5, 0)


class TestAddEdge:
    def test_add_edge(self):
        g = AdjacencyGraph(4, 2)
        assert g.add_edge(0, 1)
        assert 1 in g.neighbors(0)

    def test_add_edge_rejects_duplicate(self):
        g = AdjacencyGraph(4, 2)
        g.add_edge(0, 1)
        assert not g.add_edge(0, 1)
        assert g.out_degree(0) == 1

    def test_add_edge_rejects_self(self):
        g = AdjacencyGraph(4, 2)
        assert not g.add_edge(1, 1)

    def test_add_edge_respects_capacity(self):
        g = AdjacencyGraph(4, 2)
        g.set_neighbors(0, [1, 2])
        assert not g.add_edge(0, 3)


class TestDerived:
    def test_degrees_and_edges(self):
        g = AdjacencyGraph(4, 3)
        g.set_neighbors(0, [1, 2])
        g.set_neighbors(1, [0])
        assert g.degrees().tolist() == [2, 1, 0, 0]
        assert g.num_edges == 3
        assert g.average_degree == pytest.approx(0.75)

    def test_copy_independent(self):
        g = AdjacencyGraph(3, 2)
        g.set_neighbors(0, [1])
        c = g.copy()
        c.set_neighbors(0, [2])
        assert g.neighbors(0).tolist() == [1]

    def test_reachability(self):
        g = AdjacencyGraph(4, 2)
        g.set_neighbors(0, [1])
        g.set_neighbors(1, [2])
        mask = g.reachable_from(0)
        assert mask.tolist() == [True, True, True, False]
        assert not g.is_connected_from(0)
        g.set_neighbors(2, [3])
        assert g.is_connected_from(0)


class TestFactories:
    def test_random_regular_degree(self):
        g = random_regular_graph(20, 5, seed=0)
        assert (g.degrees() == 5).all()

    def test_random_regular_no_self_loops(self):
        g = random_regular_graph(20, 5, seed=1)
        for u in range(20):
            assert u not in g.neighbors(u)

    def test_random_regular_caps_small_n(self):
        g = random_regular_graph(3, 10, seed=0)
        assert (g.degrees() == 2).all()

    def test_from_neighbor_lists(self):
        g = from_neighbor_lists([[1, 2], [0], []])
        assert g.num_vertices == 3
        assert g.max_degree == 2
        assert sorted(g.neighbors(0).tolist()) == [1, 2]

    def test_from_neighbor_lists_explicit_cap(self):
        g = from_neighbor_lists([[1], [0]], max_degree=8)
        assert g.max_degree == 8


def _build(build):
    """``(graph, None)`` or ``(None, message)`` of the ValueError raised."""
    try:
        return build(), None
    except ValueError as exc:
        return None, str(exc)


def _assert_same_graph(got, want):
    assert got.num_vertices == want.num_vertices
    assert got.max_degree == want.max_degree
    for a, b in zip(got.neighbor_lists(), want.neighbor_lists()):
        assert a.dtype == b.dtype
        assert np.array_equal(a, b)


@st.composite
def padded_rows(draw):
    """``ids[n, width]``, ``counts`` and Λ: ids may repeat, point at their
    own row or fall outside ``0..n-1``, and a count may exceed Λ."""
    n = draw(st.integers(1, 30))
    width = draw(st.integers(0, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    bad = draw(st.sampled_from([0.0, 0.02, 0.2]))
    ids = rng.integers(0, n, size=(n, width))
    # A narrow id range makes duplicates and self-loops common.
    narrow = draw(st.booleans())
    if narrow:
        ids = np.minimum(ids, rng.integers(0, 3, size=(n, width)))
    flip = rng.random((n, width)) < bad
    ids[flip] = rng.choice([-1, n, n + 5], size=int(flip.sum()))
    if draw(st.booleans()):  # no self-loops, so later checks get reached
        rows = np.arange(n)[:, None]
        ids = np.where(ids == rows, (ids + 1) % n, ids)
    counts = rng.integers(0, width + 1, size=n)
    max_degree = draw(st.integers(1, max(width, 1) + 1))
    return ids, counts, max_degree


class TestArrayPathsAgainstOracle:
    @settings(max_examples=example_budget(150), deadline=None)
    @given(padded_rows())
    def test_from_padded_equals_set_neighbors_loop(self, rows):
        ids, counts, max_degree = rows
        got, got_err = _build(
            lambda: AdjacencyGraph.from_padded(ids, counts, max_degree)
        )
        want, want_err = _build(
            lambda: oracle_adjacency_from_padded(ids, counts, max_degree)
        )
        assert got_err == want_err
        if want is not None:
            _assert_same_graph(got, want)

    def test_from_padded_rejections(self):
        ids = np.array([[1, 2, 2], [0, 2, 3], [5, 0, 1], [3, 0, 1]])
        cases = [
            ([3, 0, 0, 0], 2, None),  # dedupes to degree 2
            ([3, 0, 0, 1], 2, "self-loop on vertex 3"),
            ([3, 0, 3, 0], 3, "neighbour id out of range for vertex 2"),
            ([3, 3, 0, 0], 2, "vertex 1: degree 3 exceeds Λ=2"),
            # the first failing vertex decides, whatever its check
            ([3, 3, 3, 1], 2, "vertex 1: degree 3 exceeds Λ=2"),
        ]
        for counts, cap, message in cases:
            if message is None:
                g = AdjacencyGraph.from_padded(ids, counts, cap)
                assert g.neighbors(0).tolist() == [1, 2]
                continue
            with pytest.raises(ValueError) as exc:
                AdjacencyGraph.from_padded(ids, counts, cap)
            assert str(exc.value) == message

    @settings(max_examples=example_budget(150), deadline=None)
    @given(
        st.integers(1, 60), st.integers(1, 6), st.integers(0, 6),
        st.integers(0, 2**32 - 1),
    )
    def test_reachable_from_equals_bfs(self, n, parts, degree, seed):
        """Random graphs whose vertices fall into ``parts`` groups with
        edges inside a group and, rarely, one-way edges across groups, so
        part of the graph is unreachable from most starts."""
        rng = np.random.default_rng(seed)
        group = rng.integers(0, parts, size=n)
        lists = []
        for u in range(n):
            same = np.flatnonzero((group == group[u]) & (np.arange(n) != u))
            pool = same if rng.random() > 0.1 else np.delete(np.arange(n), u)
            size = min(degree, pool.size)
            lists.append(rng.choice(pool, size=size, replace=False))
        graph = from_neighbor_lists(lists, max_degree=max(degree, 1))
        for start in {0, int(rng.integers(n)), n - 1}:
            assert np.array_equal(
                graph.reachable_from(start),
                oracle_reachable_from(graph, start),
            )

    def test_random_regular_equals_loop(self):
        # The loop random_regular_graph ran before it filled one array.
        rng = np.random.default_rng(7)
        lists = []
        for u in range(50):
            choices = rng.choice(49, size=6, replace=False)
            lists.append(np.where(choices >= u, choices + 1, choices))
        _assert_same_graph(
            random_regular_graph(50, 6, seed=7), from_neighbor_lists(lists)
        )
