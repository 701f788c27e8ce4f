"""Unit tests for CandidateSet, FrontierPlane and ResultSet."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import CandidateSet, ResultSet
from repro.engine.frontier import FrontierPlane


class TestCandidateSetBasics:
    def test_push_and_order(self):
        c = CandidateSet(4)
        c.push(1, 3.0)
        c.push(2, 1.0)
        c.push(3, 2.0)
        assert [vid for _, vid in c.entries()] == [2, 3, 1]

    def test_push_duplicate_ignored(self):
        c = CandidateSet(4)
        assert c.push(1, 3.0)
        assert not c.push(1, 1.0)
        assert len(c) == 1

    def test_contains(self):
        c = CandidateSet(2)
        c.push(5, 1.0)
        assert 5 in c
        assert 6 not in c

    def test_capacity_eviction(self):
        c = CandidateSet(2)
        c.push(1, 1.0)
        c.push(2, 2.0)
        c.push(3, 1.5)  # evicts 2
        assert 2 not in c
        assert [vid for _, vid in c.entries()] == [1, 3]

    def test_push_beyond_worst_rejected(self):
        c = CandidateSet(2)
        c.push(1, 1.0)
        c.push(2, 2.0)
        assert not c.push(3, 5.0)
        assert 3 not in c

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            CandidateSet(0)


class TestVisitedSemantics:
    def test_pop_unvisited_order(self):
        c = CandidateSet(4)
        for vid, d in ((1, 3.0), (2, 1.0), (3, 2.0)):
            c.push(vid, d)
        assert c.pop_unvisited(2) == [2, 3]
        assert c.pop_unvisited(2) == [1]
        assert c.pop_unvisited(1) == []

    def test_popped_stay_in_set(self):
        c = CandidateSet(4)
        c.push(1, 1.0)
        c.pop_unvisited(1)
        assert 1 in c  # still a member, just visited

    def test_has_unvisited(self):
        c = CandidateSet(4)
        c.push(1, 1.0)
        assert c.has_unvisited()
        c.pop_unvisited(1)
        assert not c.has_unvisited()

    def test_mark_visited_external_id(self):
        """Block search marks co-located vertices visited before pushing."""
        c = CandidateSet(4)
        c.mark_visited(9)
        c.push(9, 1.0)
        assert not c.has_unvisited()

    def test_num_visited(self):
        c = CandidateSet(4)
        c.push(1, 1.0)
        c.push(2, 2.0)
        c.pop_unvisited(1)
        assert c.num_visited == 1


class TestKickedTracking:
    def test_evicted_recorded(self):
        c = CandidateSet(2, track_kicked=True)
        c.push(1, 1.0)
        c.push(2, 2.0)
        c.push(3, 1.5)
        assert (2.0, 2) in c.kicked

    def test_rejected_recorded(self):
        c = CandidateSet(1, track_kicked=True)
        c.push(1, 1.0)
        c.push(2, 9.0)
        assert (9.0, 2) in c.kicked

    def test_visited_evictions_not_recorded(self):
        c = CandidateSet(2, track_kicked=True)
        c.push(1, 1.0)
        c.push(2, 2.0)
        c.pop_unvisited(2)  # both visited
        c.push(3, 1.5)
        assert all(vid != 2 for _, vid in c.kicked)

    def test_untracked_by_default(self):
        c = CandidateSet(1)
        c.push(1, 1.0)
        c.push(2, 2.0)
        assert c.kicked == []

    def test_readmit_after_grow(self):
        c = CandidateSet(2, track_kicked=True)
        for vid, d in ((1, 1.0), (2, 2.0), (3, 3.0), (4, 4.0)):
            c.push(vid, d)
        assert len(c) == 2
        c.grow(4)
        kicked, c.kicked = c.kicked, []
        added = c.readmit(kicked)
        assert added == 2
        assert 3 in c and 4 in c

    def test_grow_rejects_shrink(self):
        c = CandidateSet(4)
        with pytest.raises(ValueError):
            c.grow(2)


class TestBulkPushEquivalence:
    def test_visited_many_refreshes_worst_after_keep_smaller(self):
        """Regression: a keep-smaller update of the tail vertex shifts the
        tail to the previous runner-up, so the eviction threshold must be
        re-read before the next batch item (a stale one admits vertices a
        sequential push rejects)."""
        def build():
            c = CandidateSet(3, max_vertex_id=20)
            for vid, d in ((1, 1.0), (2, 2.0), (3, 5.0)):
                c.push(vid, d)
            return c

        bulk = build()
        bulk.push_visited_many([3, 9], [4.0, 4.5])

        seq = build()
        for vid, d in ((3, 4.0), (9, 4.5)):
            seq.push(vid, d)
            seq.mark_visited(vid)

        assert bulk.entries() == seq.entries()
        assert 9 not in bulk

    def test_visited_many_matches_sequential_loop(self):
        rng = np.random.default_rng(7)
        for cap in (1, 2, 5, 8):
            bulk = CandidateSet(cap, track_kicked=True, max_vertex_id=40)
            seq = CandidateSet(cap, track_kicked=True, max_vertex_id=40)
            for _ in range(6):
                n = int(rng.integers(1, 8))
                ids = rng.choice(40, size=n, replace=False).tolist()
                dists = rng.integers(0, 6, size=n).astype(float).tolist()
                bulk.push_visited_many(ids, dists)
                for vid, d in zip(ids, dists):
                    seq.push(vid, d)
                    seq.mark_visited(vid)
                assert bulk.entries() == seq.entries()
                assert bulk.num_visited == seq.num_visited
                assert bulk.has_unvisited() == seq.has_unvisited()
                assert sorted(bulk.kicked) == sorted(seq.kicked)

    def test_push_many_matches_sequential_loop(self):
        rng = np.random.default_rng(11)
        for cap in (1, 3, 6):
            bulk = CandidateSet(cap, track_kicked=True, max_vertex_id=200)
            seq = CandidateSet(cap, track_kicked=True, max_vertex_id=200)
            next_id = 0
            for _ in range(6):
                n = int(rng.integers(1, 9))
                ids = np.arange(next_id, next_id + n, dtype=np.int64)
                next_id += n
                dists = rng.integers(0, 6, size=n).astype(np.float64)
                bulk.push_many(ids, dists)
                for vid, d in zip(ids.tolist(), dists.tolist()):
                    seq.push(vid, d)
                assert bulk.entries() == seq.entries()
                assert sorted(bulk.kicked) == sorted(seq.kicked)


# ---------------------------------------------------------------------------
# the wave's frontier plane: every row is a CandidateSet


def _items(draw, num_ids: int):
    """Unique ids with small integer distances, so ties — at the capacity
    cut and inside it — are the common case."""
    ids = draw(st.lists(
        st.integers(0, num_ids - 1), min_size=1, max_size=num_ids,
        unique=True,
    ))
    dists = draw(st.lists(
        st.integers(0, 4), min_size=len(ids), max_size=len(ids)
    ))
    return (
        np.asarray(ids, dtype=np.int64), np.asarray(dists, dtype=np.float64)
    )


def _gather(rows, per_row):
    """Per-row ``(ids, dists)`` pairs as the passes' flat arguments."""
    item_rows = np.repeat(
        np.asarray(rows, dtype=np.int64), [ids.size for ids, _ in per_row]
    )
    ids = np.concatenate([ids for ids, _ in per_row])
    dists = np.concatenate([dists for _, dists in per_row])
    return item_rows, ids, dists


def _assert_rows_equal(plane, reference, num_ids):
    for q, ref in enumerate(reference):
        row = plane.row(q)
        assert row.entries() == ref.entries()
        assert len(row) == len(ref)
        assert row.has_unvisited() == ref.has_unvisited()
        assert row.num_visited == ref.num_visited
        for flags in ("in_set", "vis", "seen"):
            assert np.array_equal(
                getattr(plane, flags)[q, :num_ids],
                getattr(ref, "_" + flags)[:num_ids],
            ), flags


class TestFrontierPlane:
    @settings(deadline=None)
    @given(data=st.data())
    def test_random_interleavings_match_candidate_sets(self, data):
        """pop / visited-push / push-new passes over a plane leave every
        row where an independent CandidateSet driven with the same
        per-row operations ends up — boundary ties included, which only
        the scalar fallback gets right."""
        draw = data.draw
        width = draw(st.integers(1, 4), label="width")
        capacity = draw(st.integers(1, 5), label="capacity")
        num_ids = draw(st.integers(capacity + 1, 14), label="ids")
        plane = FrontierPlane(width, capacity, num_ids)
        reference = [
            CandidateSet(capacity, max_vertex_id=num_ids - 1)
            for _ in range(width)
        ]
        for _ in range(draw(st.integers(1, 10), label="steps")):
            op = draw(st.sampled_from(["seed", "pop", "visited", "new"]))
            rows = sorted(draw(st.sets(
                st.integers(0, width - 1), min_size=1
            ), label=op))
            if op == "seed":
                # the engine seeds through the row's scalar push
                for q in rows:
                    vid = draw(st.integers(0, num_ids - 1))
                    d = float(draw(st.integers(0, 4)))
                    assert plane.row(q).push(vid, d) == reference[q].push(
                        vid, d
                    )
            elif op == "pop":
                count = draw(st.integers(1, 3))
                popped = plane.pop(np.asarray(rows, dtype=np.int64), count)
                assert popped == [
                    reference[q].pop_unvisited(count) for q in rows
                ]
            elif op == "visited":
                per_row = [_items(draw, num_ids) for _ in rows]
                plane.push_visited(*_gather(rows, per_row))
                for q, (ids, dists) in zip(rows, per_row):
                    reference[q].push_visited_many(ids, dists)
            else:
                per_row = []
                for q in rows:
                    ids, dists = _items(draw, num_ids)
                    fresh = reference[q].unseen(ids)
                    assert np.array_equal(
                        plane.unseen(plane.flat(q, ids)), fresh
                    )
                    per_row.append((ids[fresh], dists[fresh]))
                plane.push_new(*_gather(rows, per_row))
                for q, (ids, dists) in zip(rows, per_row):
                    reference[q].push_many(ids, dists)
            _assert_rows_equal(plane, reference, num_ids)

    @pytest.mark.parametrize("step", ["push_many", "push_visited_many"])
    def test_boundary_tie_row_takes_the_scalar_fallback(
        self, monkeypatch, step
    ):
        """Row 0's merge has equal distances on both sides of the cut: the
        sequential order keeps the *first* tied item (id 9), a sort by
        ``(dist, id)`` would keep id 4 — so that row, and only that row,
        must re-run through its scalar method."""
        plane = FrontierPlane(2, 2, 12)
        reference = [CandidateSet(2, max_vertex_id=11) for _ in range(2)]
        for q in range(2):
            for vid, d in ((1, 1.0), (2, 5.0)):
                plane.row(q).push(vid, d)
                reference[q].push(vid, d)
        fell_back = []
        scalar = getattr(CandidateSet, step)

        def spy(self, ids, dists):
            fell_back.append(self)
            return scalar(self, ids, dists)

        monkeypatch.setattr(CandidateSet, step, spy)
        per_row = [
            (np.array([9, 4]), np.array([3.0, 3.0])),   # tie across the cut
            (np.array([9, 4]), np.array([3.0, 4.0])),   # no tie
        ]
        if step == "push_many":
            plane.push_new(*_gather([0, 1], per_row))
        else:
            plane.push_visited(*_gather([0, 1], per_row))
        assert fell_back == [plane.row(0)]
        monkeypatch.undo()
        for ref, (ids, dists) in zip(reference, per_row):
            getattr(ref, step)(ids, dists)
        assert [vid for _, vid in plane.row(0).entries()] == [1, 9]
        _assert_rows_equal(plane, reference, 12)

    def test_rows_share_the_planes_storage(self):
        plane = FrontierPlane(3, 4, 10)
        row = plane.row(1)
        row.push(7, 2.0)
        row.push(3, 1.0)
        assert plane.ids[1, :2].tolist() == [3, 7]
        assert plane.size.tolist() == [0, 2, 0]
        assert plane.in_set[1, 7] and not plane.in_set[0, 7]
        assert plane.pop(np.array([1]), 1) == [[3]]
        assert row.is_visited(3) and row.num_visited == 1
        with pytest.raises(TypeError):
            row.grow(8)


class TestResultSet:
    def test_topk_sorted(self):
        r = ResultSet()
        r.add(1, 3.0)
        r.add(2, 1.0)
        r.add(3, 2.0)
        ids, dists = r.top_k(2)
        assert ids.tolist() == [2, 3]
        assert dists.tolist() == [1.0, 2.0]

    def test_keeps_best_distance(self):
        r = ResultSet()
        r.add(1, 3.0)
        r.add(1, 2.0)
        r.add(1, 5.0)
        _, dists = r.top_k(1)
        assert dists[0] == 2.0

    def test_within_radius(self):
        r = ResultSet()
        for vid, d in ((1, 0.5), (2, 1.5), (3, 1.0)):
            r.add(vid, d)
        ids, dists = r.within(1.0)
        assert ids.tolist() == [1, 3]
        assert (dists <= 1.0).all()

    def test_topk_beyond_size(self):
        r = ResultSet()
        r.add(1, 1.0)
        ids, _ = r.top_k(10)
        assert ids.tolist() == [1]

    def test_ties_broken_by_id(self):
        r = ResultSet()
        r.add(5, 1.0)
        r.add(3, 1.0)
        ids, _ = r.top_k(2)
        assert ids.tolist() == [3, 5]

    def test_contains_and_len(self):
        r = ResultSet()
        r.add(7, 1.0)
        assert 7 in r
        assert len(r) == 1


class TestOrderedUnique:
    """Both engines must dedup their frontier in the same, defined order."""

    def test_first_occurrence_order(self):
        from repro.engine import ordered_unique

        ids = np.asarray([7, 3, 7, 1, 3, 3, 9, 1], dtype=np.int64)
        out = ordered_unique(ids)
        assert out.tolist() == [7, 3, 1, 9]
        assert out.dtype == ids.dtype

    def test_empty_passthrough(self):
        from repro.engine import ordered_unique

        out = ordered_unique(np.asarray([], dtype=np.uint32))
        assert out.size == 0
        assert out.dtype == np.uint32

    def test_matches_dict_fromkeys_model(self):
        from repro.engine import ordered_unique

        rng = np.random.default_rng(11)
        for n in (1, 2, 17, 256):
            ids = rng.integers(0, 50, size=n).astype(np.uint32)
            assert (
                ordered_unique(ids).tolist()
                == list(dict.fromkeys(ids.tolist()))
            )

    def test_engines_share_the_helper(self):
        """Regression guard: the dedup order must stay unified by
        construction — both engine modules use the frontier helper."""
        from repro.engine import beam_search, block_search, frontier

        assert block_search.ordered_unique is frontier.ordered_unique
        assert beam_search.ordered_unique is frontier.ordered_unique
