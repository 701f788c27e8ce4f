"""Candidate and result sets for disk-graph search (§5.2).

The ANNS strategy keeps two ordered structures: a fixed-size *candidate set*
sorted by approximate (PQ) distance, from which the next disk read is chosen,
and an unbounded *result set* holding exact distances, sorted only when the
search terminates.  The range-search algorithm additionally records the
vertices kicked out of the candidate set (the set P of §5.3) so a resumed
search with a doubled candidate set loses nothing.

The candidate set is flat-array-backed end to end: the sorted entry list is
a pair of preallocated ``(dist, id)`` arrays plus a fill count (no per-entry
tuple objects, no heap), membership and visited flags live in auto-grown
boolean arrays indexed by vertex id (so the engines' "is this neighbour
new?" filter is one vectorized mask instead of per-id dict/set probes), and
ordered insertion shifts the tail through a preallocated scratch buffer —
steady-state pushes allocate nothing.  The bulk
:meth:`CandidateSet.push_many` used on the frontier expansion path disposes
of the non-entering bulk with one vectorized mask, and the sequential
:meth:`CandidateSet.push` remains for the small seed/readmit paths; the two
are outcome-identical by construction (see the stability argument in
``push_many``).

A wide wave of queries keeps all of its candidate sets in one
:class:`FrontierPlane` — the same arrays, stacked ``[B, Γ]`` / ``[B, n]``,
with each query's :class:`CandidateSet` a row view — so the pop, the
visited-push and the push of new candidates run once per round over the
whole wave instead of once per query.
"""

from __future__ import annotations

import numpy as np


def ordered_unique(ids: np.ndarray) -> np.ndarray:
    """First-occurrence-order deduplication of an integer id array.

    Literally ``dict.fromkeys`` — both engines route their frontier
    expansion through this single helper so their dedup order is
    insertion-ordered and identical by construction.  (A dict pass beats
    ``np.unique(return_index=True)`` at frontier sizes, and the engines
    apply their seen-filter first, so the input is small.)
    """
    ids = np.asarray(ids)
    if ids.size == 0:
        return ids
    return np.array(list(dict.fromkeys(ids.tolist())), dtype=ids.dtype)


class CandidateSet:
    """Fixed-capacity set ordered by ascending distance with visited flags.

    Entries live in two parallel preallocated arrays sorted by ``(dist,
    id)``; ``_size`` counts the filled prefix.  Tail shifts on ordered
    insert/delete go through a same-sized scratch buffer (numpy copies an
    overlapping slice assignment through a temporary — the scratch makes the
    move explicitly allocation-free).  ``_unvis_count`` tracks how many
    in-set entries are still unvisited, so ``has_unvisited`` is O(1) and
    ``pop_unvisited`` is one vectorized scan of the sorted prefix — which
    yields the same vertices in the same order as the old lazy-deletion
    min-heap, because the prefix is sorted by exactly the heap's key.
    """

    #: initial size of the id-indexed flag arrays
    _MIN_FLAGS = 1024

    def __init__(
        self,
        capacity: int,
        *,
        track_kicked: bool = False,
        max_vertex_id: int | None = None,
    ) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        # sorted-by-(dist, id) entry storage; [:_size] is the live prefix
        self._ids = np.empty(capacity, dtype=np.int64)
        self._dists = np.empty(capacity, dtype=np.float64)
        self._scratch_i = np.empty(capacity, dtype=np.int64)
        self._scratch_d = np.empty(capacity, dtype=np.float64)
        self._size = 0
        # id-indexed state, grown on demand to cover the largest id seen.
        # Callers that know the id space up front (the engines pass the
        # graph's vertex count) preallocate it, which lets every bulk path
        # skip its per-call max-scan + growth check.
        if max_vertex_id is not None:
            flags = max(max_vertex_id + 1, 1)
            self._complete = True
        else:
            flags = self._MIN_FLAGS
            self._complete = False
        self._in_set = np.zeros(flags, dtype=bool)
        self._vis = np.zeros(flags, dtype=bool)
        # fused ``in_set | vis`` flag, maintained incrementally so the hot
        # ``unseen`` mask is one fancy-index instead of two plus an OR
        self._seen = np.zeros(flags, dtype=bool)
        self._key = np.zeros(flags, dtype=np.float64)
        self._num_visited = 0
        #: in-set entries whose visited flag is still False
        self._unvis_count = 0
        self.track_kicked = track_kicked
        self.kicked: list[tuple[float, int]] = []

    def __len__(self) -> int:
        return self._size

    def __contains__(self, vertex_id: int) -> bool:
        vid = int(vertex_id)
        return vid < self._in_set.size and bool(self._in_set[vid])

    def _ensure(self, max_id: int) -> None:
        size = self._in_set.size
        if max_id < size:
            return
        new = max(size * 2, max_id + 1)
        for name in ("_in_set", "_vis", "_seen"):
            grown = np.zeros(new, dtype=bool)
            grown[:size] = getattr(self, name)
            setattr(self, name, grown)
        key = np.zeros(new, dtype=np.float64)
        key[:size] = self._key
        self._key = key

    # -- sorted-prefix plumbing ----------------------------------------------

    def _insert(self, vid: int, d: float) -> None:
        """Ordered insert into the ``(dist, id)``-sorted prefix."""
        n = self._size
        ids, dists = self._ids, self._dists
        pos = int(dists[:n].searchsorted(d))
        while pos < n and dists[pos] == d and ids[pos] < vid:
            pos += 1
        m = n - pos
        if m:
            self._scratch_i[:m] = ids[pos:n]
            ids[pos + 1 : n + 1] = self._scratch_i[:m]
            self._scratch_d[:m] = dists[pos:n]
            dists[pos + 1 : n + 1] = self._scratch_d[:m]
        ids[pos] = vid
        dists[pos] = d
        self._size = n + 1

    def _delete(self, vid: int, d: float) -> None:
        """Remove the entry ``(d, vid)`` (must exist) from the prefix."""
        n = self._size
        ids, dists = self._ids, self._dists
        pos = int(dists[:n].searchsorted(d))
        while ids[pos] != vid:
            pos += 1
        m = n - pos - 1
        if m:
            self._scratch_i[:m] = ids[pos + 1 : n]
            ids[pos : n - 1] = self._scratch_i[:m]
            self._scratch_d[:m] = dists[pos + 1 : n]
            dists[pos : n - 1] = self._scratch_d[:m]
        self._size = n - 1

    def _enter(self, vid: int, d: float) -> None:
        """Insert a new member and update every id-indexed flag."""
        self._insert(vid, d)
        self._in_set[vid] = True
        self._seen[vid] = True
        self._key[vid] = d
        if not self._vis[vid]:
            self._unvis_count += 1

    def _bulk_enter(self, ids: np.ndarray, dists: np.ndarray) -> None:
        """Merge a batch of new members into the sorted prefix in one shot.

        Preconditions: ids are unique, none is currently in the set, and the
        batch fits under ``capacity``.  A stable ``lexsort`` keyed exactly
        like the prefix order — ``(dist, id)`` ascending — produces the same
        array one :meth:`_enter` per element would, without the per-element
        shift cost (this is the fill-phase fast path: a fresh search pours
        ~capacity entries through here before the set ever evicts).
        """
        n = self._size
        k = int(ids.size)
        tot_i = np.concatenate((self._ids[:n], ids))
        tot_d = np.concatenate((self._dists[:n], dists))
        order = np.lexsort((tot_i, tot_d))
        m = n + k
        self._ids[:m] = tot_i[order]
        self._dists[:m] = tot_d[order]
        self._size = m
        self._in_set[ids] = True
        self._seen[ids] = True
        self._key[ids] = dists
        self._unvis_count += k - int(np.count_nonzero(self._vis[ids]))

    def _bulk_visit(self, ids: np.ndarray) -> None:
        """Mark a batch of unique ids visited with three vectorized writes."""
        fresh = ids[~self._vis[ids]]
        if fresh.size:
            self._vis[fresh] = True
            self._seen[fresh] = True
            self._num_visited += int(fresh.size)
            self._unvis_count -= int(np.count_nonzero(self._in_set[fresh]))

    def _push_new(self, vid: int, d: float) -> None:
        """Full-set insert of a vertex known to be new and below the worst
        held distance (the bulk paths' pre-screened survivors) — the
        membership/threshold checks of :meth:`push` are already settled."""
        n = self._size
        worst_id = int(self._ids[n - 1])
        self._size = n - 1
        self._in_set[worst_id] = False
        if not self._vis[worst_id]:
            self._seen[worst_id] = False
            self._unvis_count -= 1
            if self.track_kicked:
                self.kicked.append((float(self._dists[n - 1]), worst_id))
        self._enter(vid, d)

    # -- updates ---------------------------------------------------------------

    def push(self, vertex_id: int, distance: float) -> bool:
        """Insert a candidate; returns True if it entered the set.

        A vertex already present keeps the *smaller* of its stored key and
        the new one (re-pushes with a different approximate distance can
        happen when range search re-admits kicked vertices).  Anything that
        falls off the tail is recorded as kicked when ``track_kicked`` is on
        — unless it was already visited, in which case re-exploring it later
        would be wasted work.
        """
        vid = int(vertex_id)
        d = float(distance)
        if vid >= self._in_set.size:
            self._ensure(vid)
        if self._in_set[vid]:
            old = float(self._key[vid])
            if d < old:
                self._delete(vid, old)
                self._insert(vid, d)
                self._key[vid] = d
            return False
        n = self._size
        if n >= self.capacity:
            worst_dist = float(self._dists[n - 1])
            if d >= worst_dist:
                if self.track_kicked and not self._vis[vid]:
                    self.kicked.append((d, vid))
                return False
            worst_id = int(self._ids[n - 1])
            self._size = n - 1
            self._in_set[worst_id] = False
            if not self._vis[worst_id]:
                self._seen[worst_id] = False
                self._unvis_count -= 1
                if self.track_kicked:
                    self.kicked.append((worst_dist, worst_id))
        self._enter(vid, d)
        return True

    def push_many(self, ids: np.ndarray, dists: np.ndarray) -> None:
        """Bulk push of *new* vertices (unique ids, none currently in the
        set); final membership, keys, and kicked *content* are identical to
        sequential :meth:`push` calls (the kicked list's internal order may
        differ, which nothing observes — re-admission sorts it first).

        While the set is below capacity every push enters, so the head of
        the batch is inserted directly.  Once full, the eviction threshold
        (the worst held distance) only ever decreases, so every batch item
        with ``d >= worst`` now would also be rejected at its sequential
        turn — one vectorized mask disposes of the bulk of the frontier and
        only the few survivors take the ordered-insert path.
        """
        ids = np.asarray(ids, dtype=np.int64)
        dists = np.asarray(dists, dtype=np.float64)
        if ids.size == 0:
            return
        if not self._complete:
            self._ensure(int(ids.max()))
        fill = self.capacity - self._size
        if fill > 0:
            k = min(fill, int(ids.size))
            self._bulk_enter(ids[:k], dists[:k])
            ids, dists = ids[k:], dists[k:]
            if ids.size == 0:
                return
        enter = dists < self._dists[self._size - 1]
        if self.track_kicked:
            rejected = ~enter & ~self._vis[ids]
            if rejected.any():
                self.kicked.extend(
                    zip(dists[rejected].tolist(), ids[rejected].tolist())
                )
        if enter.any():
            # Survivors are new ids (precondition), so each one either fails
            # the (by-now tighter) threshold — settled inline without a call
            # — or takes the pre-screened evict-and-enter fast path.  The
            # flag arrays were grown above and the entry arrays never
            # reallocate at fixed capacity, so the local bindings stay live.
            dists_arr = self._dists
            last = self.capacity - 1
            vis = self._vis
            track = self.track_kicked
            kicked = self.kicked
            worst = dists_arr[last]
            for vid, d in zip(ids[enter].tolist(), dists[enter].tolist()):
                if d >= worst:
                    if track and not vis[vid]:
                        kicked.append((d, vid))
                else:
                    self._push_new(vid, d)
                    worst = dists_arr[last]

    def push_visited_many(self, ids, dists) -> None:
        """Push each vertex and immediately mark it visited (block search's
        co-located vertices: in memory now, never fetched again).

        Outcome-identical to a sequential push/mark loop (ids are unique —
        each vertex lives in exactly one block).  Below capacity nothing
        evicts, so item order is irrelevant: the batch prefix that fits is
        split into new ids (one bulk merge) and in-set ids (the
        keep-smaller path), then bulk-marked visited.  At capacity the
        push_many prefilter argument applies — the eviction threshold only
        decreases, so an out-of-set item at or past it now is rejected at
        its sequential turn too, and being out of the set it cannot be
        evicted later either, so its kick/visit can be settled here in one
        vectorized pass.  Only the few survivors take the sequential
        push/mark path, whose eviction-time visited-flag interleaving is
        semantic.
        """
        ids = np.asarray(ids, dtype=np.int64)
        dists = np.asarray(dists, dtype=np.float64)
        if ids.size == 0:
            return
        if not self._complete:
            self._ensure(int(ids.max()))
        if self._size < self.capacity:
            new_mask = ~self._in_set[ids]
            fill = self.capacity - self._size
            ncum = np.cumsum(new_mask)
            if int(ncum[-1]) <= fill:
                cut = int(ids.size)
            else:
                # include items through the fill-th new id; the rest face
                # full-set semantics in order
                cut = int(np.searchsorted(ncum, fill)) + 1
            pre_ids, pre_d = ids[:cut], dists[:cut]
            pre_new = new_mask[:cut]
            bulk_ids = pre_ids[pre_new]
            if bulk_ids.size:
                self._bulk_enter(bulk_ids, pre_d[pre_new])
            if bulk_ids.size != cut:
                old = ~pre_new
                for vid, d in zip(
                    pre_ids[old].tolist(), pre_d[old].tolist()
                ):
                    self.push(vid, d)
            self._bulk_visit(pre_ids)
            ids, dists = ids[cut:], dists[cut:]
            if ids.size == 0:
                return
        worst = float(self._dists[self._size - 1])
        reject = (dists >= worst) & ~self._in_set[ids]
        if reject.any():
            r_ids, r_d = ids[reject], dists[reject]
            if self.track_kicked:
                unvis = ~self._vis[r_ids]
                if unvis.any():
                    self.kicked.extend(
                        zip(r_d[unvis].tolist(), r_ids[unvis].tolist())
                    )
            self._bulk_visit(r_ids)
            keep = ~reject
            ids, dists = ids[keep], dists[keep]
        # Survivors: in-set items take the keep-smaller path through
        # :meth:`push`; the rest were under the threshold at the prefilter
        # but re-check against the live worst (it only tightens), exactly as
        # their sequential turn would.  The worst is re-read after *every*
        # mutating path — a keep-smaller update of the tail vertex itself
        # shifts the tail to the previous runner-up, so a stale threshold
        # would admit items a sequential push rejects.  The visited-mark is
        # inlined (ids can repeat across rounds, so the already-visited
        # check stays) with the counters accumulated locally.
        in_set = self._in_set
        vis = self._vis
        seen = self._seen
        track = self.track_kicked
        kicked = self.kicked
        dists_arr = self._dists
        last = self.capacity - 1
        worst = dists_arr[last]
        newly_visited = 0
        unvis_drop = 0
        for vid, d in zip(ids.tolist(), dists.tolist()):
            if in_set[vid]:
                self.push(vid, d)
                worst = dists_arr[last]
            elif d >= worst:
                if track and not vis[vid]:
                    kicked.append((d, vid))
            else:
                self._push_new(vid, d)
                worst = dists_arr[last]
            if not vis[vid]:
                vis[vid] = True
                seen[vid] = True
                newly_visited += 1
                if in_set[vid]:
                    unvis_drop += 1
        self._num_visited += newly_visited
        self._unvis_count -= unvis_drop

    def mark_visited(self, vertex_id: int) -> None:
        vid = int(vertex_id)
        if vid >= self._vis.size:
            self._ensure(vid)
        if not self._vis[vid]:
            self._vis[vid] = True
            self._seen[vid] = True
            self._num_visited += 1
            if self._in_set[vid]:
                self._unvis_count -= 1

    def is_visited(self, vertex_id: int) -> bool:
        vid = int(vertex_id)
        return vid < self._vis.size and bool(self._vis[vid])

    # -- queries ---------------------------------------------------------------

    def unseen(self, ids: np.ndarray) -> np.ndarray:
        """Mask of ids that are neither in the set nor visited.

        The vectorized form of the engines' per-neighbour freshness filter.
        """
        ids = np.asarray(ids)
        if ids.size == 0:
            return np.zeros(0, dtype=bool)
        if not self._complete:
            self._ensure(int(ids.max()))
        return ~self._seen[ids]

    def pop_unvisited(self, count: int = 1) -> list[int]:
        """The ``count`` closest unvisited candidates, marked visited.

        "Popped" vertices stay in the set (they may still be results); only
        their visited flag changes — this mirrors the search-list semantics
        of DiskANN/Starling.  The entry prefix is sorted by ``(dist, id)``,
        so the first ``count`` unvisited positions *are* the closest
        unvisited candidates in ascending order.
        """
        if self._unvis_count <= 0 or count <= 0:
            return []
        ids = self._ids[: self._size]
        live = np.flatnonzero(~self._vis[ids])
        if count < live.size:
            live = live[:count]
        out = ids[live]
        self._vis[out] = True
        took = int(out.size)
        self._num_visited += took
        self._unvis_count -= took
        return out.tolist()

    def has_unvisited(self) -> bool:
        return self._unvis_count > 0

    def unvisited_members(self) -> np.ndarray:
        """In-set entries not yet visited, in ascending ``(dist, id)`` order.

        The block-aware fold (bamg's search-side contract) scans these to
        find candidates co-resident with blocks the current round already
        paid for.
        """
        ids = self._ids[: self._size]
        return ids[~self._vis[ids]]

    def grow(self, new_capacity: int) -> None:
        """Raise the capacity (range search doubles C, §5.3)."""
        if new_capacity < self.capacity:
            raise ValueError("capacity can only grow")
        if new_capacity > self._ids.size:
            n = self._size
            ids = np.empty(new_capacity, dtype=np.int64)
            dists = np.empty(new_capacity, dtype=np.float64)
            ids[:n] = self._ids[:n]
            dists[:n] = self._dists[:n]
            self._ids, self._dists = ids, dists
            self._scratch_i = np.empty(new_capacity, dtype=np.int64)
            self._scratch_d = np.empty(new_capacity, dtype=np.float64)
        self.capacity = new_capacity

    def readmit(self, entries: list[tuple[float, int]]) -> int:
        """Push back previously kicked entries; returns how many re-entered."""
        added = 0
        for dist, vid in sorted(entries):
            if self.push(vid, dist):
                added += 1
        return added

    def entries(self) -> list[tuple[float, int]]:
        n = self._size
        return list(zip(self._dists[:n].tolist(), self._ids[:n].tolist()))

    @property
    def num_visited(self) -> int:
        return self._num_visited


def _plane_counter(which: int) -> property:
    """A :class:`_PlaneRow` counter stored in the plane's per-row array."""

    def fget(self) -> int:
        return int(self._counters[which][self._q])

    def fset(self, value: int) -> None:
        self._counters[which][self._q] = value

    return property(fget, fset)


class _PlaneRow(CandidateSet):
    """Row ``q`` of a :class:`FrontierPlane` as a :class:`CandidateSet`.

    Storage only: every array attribute is a view of the plane's row and
    the three counters read and write the plane's per-row counter arrays,
    so all of :class:`CandidateSet`'s scalar methods run unchanged on the
    plane's state (the seed pushes, the tie fallback, the tests' reads).
    It references the plane's arrays, never the plane, so a finished wave's
    storage is freed by reference count rather than the cycle collector.
    """

    def __init__(self, plane: "FrontierPlane", q: int) -> None:
        self._q = q
        self._counters = (plane.size, plane.num_visited, plane.unvis)
        self.capacity = plane.capacity
        self._ids = plane.ids[q]
        self._dists = plane.dists[q]
        # rows never run concurrently, so one scratch pair serves them all
        self._scratch_i = plane._scratch_i
        self._scratch_d = plane._scratch_d
        self._in_set = plane.in_set[q]
        self._vis = plane.vis[q]
        self._seen = plane.seen[q]
        self._key = plane.key[q]
        self._complete = True
        self.track_kicked = False
        self.kicked = []

    _size = _plane_counter(0)
    _num_visited = _plane_counter(1)
    _unvis_count = _plane_counter(2)

    def grow(self, new_capacity: int) -> None:
        raise TypeError("a frontier-plane row has the plane's fixed capacity")


class FrontierPlane:
    """The candidate sets of one wide wave, struct-of-arrays.

    Row ``q`` *is* query ``q``'s candidate set: ``ids[q, :size[q]]`` /
    ``dists[q, :size[q]]`` hold its ``(dist, id)``-sorted prefix and
    ``in_set[q]`` / ``vis[q]`` / ``seen[q]`` / ``key[q]`` its id-indexed
    flags; :meth:`row` hands out the :class:`CandidateSet` over that
    storage.  The plane adds the three frontier steps of a block-search
    round as one array pass over every live row — :meth:`pop_flat`,
    :meth:`push_visited`, :meth:`push_new` — each leaving every row exactly
    where the row's own scalar ``pop_unvisited`` / ``push_visited_many`` /
    ``push_many`` would.

    Both pushes share one kernel: new items are laid beside the row's
    prefix, the ``[rows, capacity + new]`` plane is ``lexsort``-ed by
    ``(dist, id)`` and cut at ``capacity``.  Sequential pushes keep the
    ``capacity`` best of everything offered and let an incumbent win a
    distance tie, so the cut equals their outcome whenever the distances on
    its two sides differ; a row where they are equal is **not** committed
    and re-runs the step through its scalar row instead.

    Two layout conventions keep the passes free of masks: the flag planes
    have one extra *sink* column (id ``n``) that pads every prefix past
    ``size`` — with distance ``+inf``, so padding sorts last and
    ``dists[q, capacity - 1]`` is the eviction threshold of a full row and
    ``+inf`` of a filling one — and the sink's ``vis`` flag is set, so
    padding never reads as an unvisited candidate.  The scalar methods only
    ever touch ``[:size]`` and ``size`` never shrinks, so they preserve
    both.  The kicked set is not tracked (top-k searches never read it).
    """

    def __init__(self, width: int, capacity: int, num_vertices: int) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._sink = num_vertices
        self._stride = stride = num_vertices + 1
        self.ids = np.full((width, capacity), num_vertices, dtype=np.int64)
        self.dists = np.full((width, capacity), np.inf, dtype=np.float64)
        self.size = np.zeros(width, dtype=np.int64)
        self.num_visited = np.zeros(width, dtype=np.int64)
        #: in-set entries whose visited flag is still False, per row
        self.unvis = np.zeros(width, dtype=np.int64)
        self.in_set = np.zeros((width, stride), dtype=bool)
        self.vis = np.zeros((width, stride), dtype=bool)
        self.vis[:, num_vertices] = True
        self.seen = np.zeros((width, stride), dtype=bool)
        self.key = np.zeros((width, stride), dtype=np.float64)
        # flat ``q * stride + id`` views: one 1-D gather per pass
        self._in_set_f = self.in_set.reshape(-1)
        self._vis_f = self.vis.reshape(-1)
        self._seen_f = self.seen.reshape(-1)
        self._key_f = self.key.reshape(-1)
        self._scratch_i = np.empty(capacity, dtype=np.int64)
        self._scratch_d = np.empty(capacity, dtype=np.float64)
        self._rows = [_PlaneRow(self, q) for q in range(width)]

    def row(self, q: int) -> CandidateSet:
        """Query ``q``'s candidate set, backed by this plane's row ``q``."""
        return self._rows[q]

    def flat(self, rows: np.ndarray, ids: np.ndarray) -> np.ndarray:
        """``rows * stride + ids`` — the flag planes' flat addresses (and a
        wave-unique key for a (row, vertex) pair)."""
        return rows * self._stride + ids

    def unseen(self, flat: np.ndarray) -> np.ndarray:
        """:meth:`CandidateSet.unseen` for flat ``(row, id)`` addresses."""
        return ~self._seen_f[flat]

    # -- the three wave-wide passes ------------------------------------------

    def pop_flat(
        self, rows: np.ndarray, count: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`CandidateSet.pop_unvisited` for every row of ``rows``, as
        flat ``(item_rows, ids)``: vertex ``ids[j]`` was popped from row
        ``item_rows[j]``; rows in the order given, each row's ids closest
        first."""
        cur = self.ids[rows]
        flat = (rows * self._stride)[:, None] + cur
        unvisited = ~self._vis_f[flat]
        take = unvisited & (unvisited.cumsum(axis=1) <= count)
        self._vis_f[flat[take]] = True
        took = take.sum(axis=1)
        self.num_visited[rows] += took
        self.unvis[rows] -= took
        return np.repeat(rows, took), cur[take]

    def pop(self, rows: np.ndarray, count: int) -> list[list[int]]:
        """:meth:`pop_flat` regrouped: one id list per row of ``rows``."""
        item_rows, ids = self.pop_flat(rows, count)
        return [ids[item_rows == q].tolist() for q in rows.tolist()]

    def push_visited(
        self, item_rows: np.ndarray, ids: np.ndarray, dists: np.ndarray
    ) -> None:
        """:meth:`CandidateSet.push_visited_many` for every row named in
        ``item_rows``: item ``j`` goes to row ``item_rows[j]``.

        ``item_rows`` is ascending and ids are unique within a row.
        Members take keep-smaller on a *copy* of the prefix before the
        merge, so a tied row is untouched when it falls back.
        """
        rows, local = np.unique(item_rows, return_inverse=True)
        flat = self.flat(item_rows, ids)
        cur_ids = self.ids[rows]
        cur_dists = self.dists[rows]
        member = self._in_set_f[flat]
        lower = member & (dists < self._key_f[flat])
        if lower.any():
            at = local[lower]
            pos = (cur_ids[at] == ids[lower][:, None]).argmax(axis=1)
            cur_dists[at, pos] = dists[lower]
        fresh = ~member
        merged = self._merge(
            rows, cur_ids, cur_dists, local[fresh], ids[fresh], dists[fresh]
        )
        # every item of a committing row ends visited, entered or not
        mine = ~merged[-1][local]
        flat, marked = flat[mine], local[mine]
        newly = ~self._vis_f[flat]
        self._vis_f[flat] = True
        self._seen_f[flat] = True
        self.num_visited[rows] += np.bincount(
            marked[newly], minlength=rows.size
        )
        self._settle(
            rows, cur_ids, merged, local, ids, dists, "push_visited_many"
        )

    def push_new(
        self, item_rows: np.ndarray, ids: np.ndarray, dists: np.ndarray
    ) -> None:
        """:meth:`CandidateSet.push_many` for every row named in
        ``item_rows`` (ascending): items are new to their row — unique,
        neither in the set nor visited.

        The eviction threshold of a full row only falls, so an item at or
        past it now is rejected at its sequential turn too; only the rest,
        and only the rows that have any, reach the merge.
        """
        under = dists < self.dists[item_rows, self.capacity - 1]
        if not under.any():
            return
        ids, dists = ids[under], dists[under]
        rows, local = np.unique(item_rows[under], return_inverse=True)
        cur_ids = self.ids[rows]
        merged = self._merge(rows, cur_ids, self.dists[rows], local, ids, dists)
        self._settle(rows, cur_ids, merged, local, ids, dists, "push_many")

    # -- the shared merge ------------------------------------------------------

    def _merge(self, rows, cur_ids, cur_dists, local, ids, dists):
        """Sort ``rows``' prefixes together with their new items and cut at
        ``capacity``: ``(ids, dists, size, tied)`` per row, nothing stored.

        ``tied`` flags the rows whose cut separates equal distances.
        """
        cap = self.capacity
        counts = np.bincount(local, minlength=rows.size)
        extra = int(counts.max())
        tot_ids = np.full((rows.size, cap + extra), self._sink, dtype=np.int64)
        tot_dists = np.full((rows.size, cap + extra), np.inf)
        tot_ids[:, :cap] = cur_ids
        tot_dists[:, :cap] = cur_dists
        if extra:
            rank = np.arange(ids.size) - (np.cumsum(counts) - counts)[local]
            tot_ids[local, cap + rank] = ids
            tot_dists[local, cap + rank] = dists
        order = np.lexsort((tot_ids, tot_dists), axis=1)[:, :cap + 1]
        tot_ids = np.take_along_axis(tot_ids, order, axis=1)
        tot_dists = np.take_along_axis(tot_dists, order, axis=1)
        total = self.size[rows] + counts
        if extra:
            tied = (total > cap) & (tot_dists[:, cap - 1] == tot_dists[:, cap])
        else:
            tied = np.zeros(rows.size, dtype=bool)
        return (
            tot_ids[:, :cap], tot_dists[:, :cap], np.minimum(total, cap), tied
        )

    def _settle(self, rows, old_ids, merged, local, ids, dists, scalar) -> None:
        """Finish a push: tied rows re-run it through their row's ``scalar``
        method on the untouched state, the rest store their merged prefix
        and re-derive their membership flags (``seen == in_set | vis``
        holds for every id a row ever held)."""
        new_ids, new_dists, new_size, tied = merged
        if tied.any():
            for j in np.flatnonzero(tied).tolist():
                mine = local == j
                getattr(self._rows[rows[j]], scalar)(ids[mine], dists[mine])
            ok = ~tied
            rows, old_ids, new_size = rows[ok], old_ids[ok], new_size[ok]
            new_ids, new_dists = new_ids[ok], new_dists[ok]
        base = (rows * self._stride)[:, None]
        old = base + old_ids
        self._in_set_f[old] = False
        self._seen_f[old] = self._vis_f[old]
        new = base + new_ids
        self._in_set_f[new] = True
        self._seen_f[new] = True
        self._key_f[new] = new_dists
        self.ids[rows] = new_ids
        self.dists[rows] = new_dists
        self.size[rows] = new_size
        self.unvis[rows] = np.count_nonzero(~self._vis_f[new], axis=1)


class ResultSet:
    """Unbounded id → exact distance map, sorted only on demand (§5.2).

    Additions are buffered in two flat lists (a pair of C-speed ``extend``
    calls per round) and minimum-merged into the map lazily, with one
    vectorized group-by-id pass, the first time the set is read.  Every
    reader drains the buffer first, so the observable contents are always
    exactly those of an eager per-item min-merge.
    """

    def __init__(self) -> None:
        self._dists: dict[int, float] = {}
        self._pending_ids: list[int] = []
        self._pending_dists: list[float] = []

    def _materialize(self) -> None:
        if not self._pending_ids:
            return
        ids = np.asarray(self._pending_ids, dtype=np.int64)
        dists = np.asarray(self._pending_dists, dtype=np.float64)
        self._pending_ids = []
        self._pending_dists = []
        # Group by id, keeping each id's minimum distance: sort by
        # (id, dist) and take the first row of every id run.  Equal
        # distances collapse to the same value either way, so this matches
        # the eager per-item merge exactly.
        order = np.lexsort((dists, ids))
        ids = ids[order]
        dists = dists[order]
        first = np.empty(ids.shape, dtype=bool)
        first[0] = True
        np.not_equal(ids[1:], ids[:-1], out=first[1:])
        store = self._dists
        if store:
            for vid, d in zip(ids[first].tolist(), dists[first].tolist()):
                prev = store.get(vid)
                if prev is None or d < prev:
                    store[vid] = d
        else:
            self._dists = dict(zip(ids[first].tolist(), dists[first].tolist()))

    def __len__(self) -> int:
        self._materialize()
        return len(self._dists)

    def __contains__(self, vertex_id: int) -> bool:
        self._materialize()
        return vertex_id in self._dists

    def add(self, vertex_id: int, distance: float) -> None:
        self._pending_ids.append(vertex_id)
        self._pending_dists.append(distance)

    def add_many(self, ids, dists) -> None:
        """Minimum-merge a batch of (id, exact distance) pairs.

        Accepts arrays or plain lists of Python scalars.
        """
        if isinstance(ids, np.ndarray):
            ids = ids.tolist()
        if isinstance(dists, np.ndarray):
            dists = dists.tolist()
        self._pending_ids.extend(ids)
        self._pending_dists.extend(dists)

    def top_k(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Final sort by exact distance; ties broken by id."""
        self._materialize()
        items = sorted(self._dists.items(), key=lambda kv: (kv[1], kv[0]))[:k]
        ids = np.asarray([vid for vid, _ in items], dtype=np.int64)
        dists = np.asarray([d for _, d in items], dtype=np.float64)
        return ids, dists

    def within(self, radius: float) -> tuple[np.ndarray, np.ndarray]:
        """All results with distance ≤ radius, sorted ascending."""
        self._materialize()
        items = sorted(
            ((vid, d) for vid, d in self._dists.items() if d <= radius),
            key=lambda kv: (kv[1], kv[0]),
        )
        ids = np.asarray([vid for vid, _ in items], dtype=np.int64)
        dists = np.asarray([d for _, d in items], dtype=np.float64)
        return ids, dists
