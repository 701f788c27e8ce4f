"""Multi-segment query coordination (§6.7, §6.11).

Vector databases shard data into segments; a machine hosts several and a
query coordinator fans a query out and merges per-segment candidates.  The
coordinator here is deliberately simple — search every segment, merge by
exact distance — matching the setting of Tab. 3 and Fig. 19(b) (the paper's
billion-scale runs merge candidates from 31 segments).

The serving path is also the failure domain: a segment whose device raises
(injected or real) must not take the whole coordinated query down.  The
coordinator therefore tracks consecutive per-segment failures, quarantines a
segment after :attr:`SegmentCoordinator.quarantine_threshold` of them, and
merges the surviving segments' candidates into a result flagged as partial —
answer quality degrades gracefully instead of availability collapsing.

A micro-batch is answered over all of its *unionable* segments — Starling
segments whose reads cannot fail, cached or not, and which share one round
configuration — as **one** lockstep wave of ``segments × queries`` rows
(:func:`~repro.engine.block_search.search_segments`), so a service's
8-query batch over two segments runs as a 16-row wave, past the wide-wave
switch.  Every row equals its segment's own wave.  The fan-out alone is
``SegmentCoordinator.fan_out``; :func:`merge_top_k` is the one merge, used
by ``search_batch`` and by :class:`~repro.core.lifecycle.SegmentLifecycle`,
which fans out over its sealed segments through a coordinator of its own.
"""

from __future__ import annotations

import copy
import threading
from dataclasses import dataclass, field

import numpy as np

from ..engine.batch import BatchExecutor, ExecSpec, amortized
from ..engine.block_search import search_segments, union_key
from ..engine.cost import QueryStats
from ..storage.device import BlockDevice
from ..storage.disk_graph import DiskGraph
from ..storage.faults import FaultError, base_disk_graph
from ..vectors.dataset import VectorDataset
from .segment import StarlingIndex


def split_dataset(
    dataset: VectorDataset, num_segments: int
) -> tuple[list[VectorDataset], list[int]]:
    """Split a dataset into contiguous segments; returns (parts, id offsets)."""
    if num_segments <= 0:
        raise ValueError("num_segments must be positive")
    if num_segments > dataset.size:
        raise ValueError("more segments than vectors")
    bounds = np.linspace(0, dataset.size, num_segments + 1, dtype=np.int64)
    parts: list[VectorDataset] = []
    offsets: list[int] = []
    for i in range(num_segments):
        lo, hi = int(bounds[i]), int(bounds[i + 1])
        parts.append(
            VectorDataset(
                name=f"{dataset.name}#seg{i}",
                vectors=dataset.vectors[lo:hi],
                queries=dataset.queries,
                metric=dataset.metric,
                default_radius=dataset.default_radius,
            )
        )
        offsets.append(lo)
    return parts, offsets


def merge_top_k(
    dists_parts: list[np.ndarray], id_parts: list[np.ndarray], k: int
) -> tuple[np.ndarray, np.ndarray]:
    """The ``k`` best of several candidate lists by ``(distance, id)``:
    returns ``(ids, dists)`` as int64 / float64, ties broken by the smaller
    id."""
    dists = np.concatenate([np.empty(0), *dists_parts]).astype(
        np.float64, copy=False
    )
    ids = np.concatenate([np.empty(0, np.int64), *id_parts]).astype(
        np.int64, copy=False
    )
    top = np.lexsort((ids, dists))[:k]
    return ids[top], dists[top]


@dataclass
class CoordinatedResult:
    """Merged result plus per-segment latency decomposition."""

    ids: np.ndarray  # global ids
    dists: np.ndarray
    stats: QueryStats  # aggregate counters across all segments
    per_segment_latency_us: list[float]
    #: True when any contribution is missing or best-effort (a segment
    #: failed, was quarantined, or returned a degraded result)
    degraded: bool = False
    #: segments whose search raised mid-query (error counted, result merged
    #: without them)
    failed_segments: list[int] = field(default_factory=list)
    #: segments skipped up front because they were quarantined
    quarantined_segments: list[int] = field(default_factory=list)

    def __len__(self) -> int:
        return int(self.ids.shape[0])

    @property
    def complete(self) -> bool:
        """Whether every segment contributed a non-degraded answer."""
        return not self.degraded

    @property
    def serial_latency_us(self) -> float:
        """Latency when one thread visits the segments serially."""
        return float(sum(self.per_segment_latency_us))

    @property
    def parallel_latency_us(self) -> float:
        """Latency when segments are searched concurrently (max)."""
        return float(max(self.per_segment_latency_us, default=0.0))


def _unionable(segment) -> bool:
    """Whether a segment may answer inside a multi-segment wave: a Starling
    segment whose base graph is a plain :class:`DiskGraph` over a plain
    :class:`BlockDevice` — no retry policy, no fault injector, no checksum
    verification, so none of its reads can raise a
    :class:`~repro.storage.faults.FaultError` and take a sibling's rows
    down — whatever cache sits in front of it (the round reads a cached
    segment per row, in the wave's order)."""
    if not isinstance(segment, StarlingIndex):
        return False
    engine = segment.engine
    dg = base_disk_graph(engine.disk_graph)
    return (
        type(dg) is DiskGraph and type(dg.device) is BlockDevice
        and not dg.verify_checksums and engine.resilience is None
    )


class SegmentCoordinator:
    """Fan a query out over segment indexes and merge the candidates.

    Args:
        segments: Per-segment index objects (StarlingIndex/DiskANNIndex).
        id_offsets: Global-ID offset of each segment.
        quarantine_threshold: Consecutive per-segment failures after which a
            segment is skipped instead of searched (0 disables quarantine —
            every query keeps trying every segment).
    """

    def __init__(
        self,
        segments: list,
        id_offsets: list[int] | None = None,
        *,
        quarantine_threshold: int = 3,
    ) -> None:
        if not segments:
            raise ValueError("need at least one segment")
        if id_offsets is None:
            id_offsets = [0] * len(segments)
        if len(id_offsets) != len(segments):
            raise ValueError("id_offsets must align with segments")
        if quarantine_threshold < 0:
            raise ValueError("quarantine_threshold must be non-negative")
        self.segments = segments
        self.id_offsets = id_offsets
        self.quarantine_threshold = quarantine_threshold
        #: consecutive failures per segment (reset by a successful search)
        self.error_counts = [0] * len(segments)
        #: lifetime failures per segment (never reset; ops visibility)
        self.total_errors = [0] * len(segments)
        #: segments quarantined administratively (fsck found unrecoverable
        #: damage) rather than by consecutive query failures
        self._forced: set[int] = set()
        #: guards every mutation of the segment set and health bookkeeping,
        #: so replace/quarantine under live serving traffic is one atomic
        #: swap and a fan-out never sees a half-updated (segment, offset)
        self._lock = threading.RLock()

    @property
    def num_segments(self) -> int:
        return len(self.segments)

    # -- segment health ------------------------------------------------------

    def is_quarantined(self, segment_index: int) -> bool:
        return segment_index in self._forced or (
            self.quarantine_threshold > 0
            and self.error_counts[segment_index] >= self.quarantine_threshold
        )

    @property
    def quarantined(self) -> list[int]:
        """Indexes of currently quarantined segments."""
        return [i for i in range(self.num_segments) if self.is_quarantined(i)]

    def quarantine_segment(self, segment_index: int) -> None:
        """Administratively quarantine a segment (unrecoverable on-disk
        damage found by fsck); it is skipped until rebuilt + reinstated."""
        if not 0 <= segment_index < self.num_segments:
            raise IndexError(f"segment index {segment_index} out of range")
        with self._lock:
            self._forced.add(segment_index)

    def reinstate(self, segment_index: int) -> None:
        """Clear a segment's quarantine (e.g. after repair or rebuild)."""
        with self._lock:
            self.error_counts[segment_index] = 0
            self._forced.discard(segment_index)

    def replace_segment(
        self, segment_index: int, index, offset: int | None = None
    ) -> None:
        """Swap in a freshly rebuilt index for a segment and reinstate it.

        The swap replaces the whole segment list (and offset list) in one
        locked copy-on-write step: a concurrent fan-out either snapshotted
        the old lists — and finishes its query against the old index — or
        snapshots the new ones; it can never pair the new index with the
        old offset or iterate a list mid-mutation.
        """
        if not 0 <= segment_index < self.num_segments:
            raise IndexError(f"segment index {segment_index} out of range")
        with self._lock:
            segments = list(self.segments)
            segments[segment_index] = index
            offsets = self.id_offsets
            if offset is not None:
                offsets = list(self.id_offsets)
                offsets[segment_index] = int(offset)
            self.segments = segments
            self.id_offsets = offsets
            self.error_counts[segment_index] = 0
            self._forced.discard(segment_index)

    # -- fan-out helpers -----------------------------------------------------

    def _snapshot(self) -> tuple[list[tuple], list[int]]:
        """One consistent view of the segment set: ``(segment, offset)``
        pairs and the quarantined indexes."""
        with self._lock:
            snapshot = list(zip(self.segments, self.id_offsets))
            skipped = [
                i for i in range(len(snapshot)) if self.is_quarantined(i)
            ]
        return snapshot, skipped

    def _run_each(self, snapshot, indexes, run_segment, answers) -> list[int]:
        """Run a per-segment callable on ``indexes`` with error tracking and
        quarantine: answers land in ``answers[i]``; returns the indexes
        whose call raised a fault."""
        failed: list[int] = []
        for i in indexes:
            try:
                result = run_segment(snapshot[i][0])
            except FaultError:
                with self._lock:
                    self.error_counts[i] += 1
                    self.total_errors[i] += 1
                failed.append(i)
                continue
            with self._lock:
                self.error_counts[i] = 0
            answers[i] = result
        return failed

    def search(
        self, query: np.ndarray, k: int = 10, candidate_size: int = 64
    ) -> CoordinatedResult:
        """ANNS across the healthy segments, merged by exact distance: a
        :meth:`search_batch` of one.

        A segment whose search raises a fault contributes nothing to this
        answer (its error count grows toward quarantine); the merged result
        from the surviving segments is flagged ``degraded``.
        """
        query = np.asarray(query, dtype=np.float32)
        return self.search_batch(query[None], k, candidate_size)[0]

    def search_batch(
        self,
        queries: np.ndarray,
        k: int = 10,
        candidate_size: int = 64,
        *,
        exec_spec=None,
        stoppers=None,
    ) -> list[CoordinatedResult]:
        """Answer a micro-batch of queries across the healthy segments: one
        :meth:`fan_out`, then one :func:`merge_top_k` per query over the
        answering segments' candidates (global ids = local id + offset)."""
        snapshot, answers, failed, skipped = self.fan_out(
            queries, k, candidate_size, exec_spec=exec_spec, stoppers=stoppers
        )
        order = sorted(answers)
        out: list[CoordinatedResult] = []
        for q in range(len(queries)):
            total = QueryStats()
            latencies: list[float] = []
            degraded = bool(failed) or bool(skipped)
            dists_parts, id_parts = [], []
            for i in order:
                segment, offset = snapshot[i]
                result = answers[i][q]
                total.merge(result.stats)
                latencies.append(segment.latency_us(result))
                degraded |= bool(getattr(result, "degraded", False))
                dists_parts.append(result.dists)
                id_parts.append(np.asarray(result.ids, dtype=np.int64) + offset)
            ids, dists = merge_top_k(dists_parts, id_parts, k)
            out.append(CoordinatedResult(
                ids=ids, dists=dists, stats=total,
                per_segment_latency_us=latencies, degraded=degraded,
                failed_segments=list(failed),
                quarantined_segments=list(skipped),
            ))
        return out

    def fan_out(
        self,
        queries: np.ndarray,
        k: int,
        candidate_size: int,
        *,
        exec_spec=None,
        stoppers=None,
    ) -> tuple[list[tuple], dict[int, list], list[int], list[int]]:
        """Run a micro-batch on every healthy segment; merge nothing.

        Returns ``(snapshot, answers, failed, quarantined)``: the
        ``(segment, offset)`` pairs the batch ran against, ``answers[i][q]``
        — segment ``i``'s local-id answer to query ``q`` — for every segment
        that answered, and the indexes of the segments that raised a fault
        or were skipped as quarantined.

        In ``wave`` mode the unionable segments (see :func:`_unionable`)
        answer the batch as one lockstep wave of ``segments × queries``
        rows (:func:`~repro.engine.block_search.search_segments`); every
        other healthy segment serves it through its own
        :class:`~repro.engine.batch.BatchExecutor` (shared ADC tables,
        shared decode cache).  Each row is bit-identical to the per-segment
        executors' — the union changes only the wave's width.  Failure
        granularity is the segment × batch: a fault anywhere in a segment's
        batch costs that segment one error count and drops its
        contribution for the *whole* batch — the same all-or-nothing
        contract a single coordinated query has.  A unionable segment
        cannot fault, so the union never drops a sibling.

        ``stoppers`` optionally carries one early-stop object per query
        (the serving layer's deadline budgets); they are forwarded only to
        disk-graph segments, whose cost model the stoppers price.  Inside
        the union each row gets its own copy of its query's stopper, bound
        to the row's segment and stats; a copy that fires latches ``fired``
        on the caller's object, as the per-segment calls' rebinding of one
        object does.  A stopper with no ``bind`` carries state from one
        segment's search into the next, so it keeps the per-segment calls.
        """
        queries = np.asarray(queries, dtype=np.float32)
        n = len(queries)
        if stoppers is not None and len(stoppers) != n:
            raise ValueError(f"{len(stoppers)} stoppers for {n} queries")
        spec = exec_spec or ExecSpec()
        snapshot, skipped = self._snapshot()
        answers: dict[int, list] = {}
        if spec.mode == "wave" and all(
            hasattr(s, "bind") for s in stoppers or () if s is not None
        ):
            # One wave per shared union_key, over the healthy unionable
            # segments in index order; grouped afresh on every call, so
            # fault injection armed in place takes its segment out of the
            # union at the next batch (a cache applied in place does not).
            waves: dict[tuple, list[int]] = {}
            for i, (segment, _) in enumerate(snapshot):
                if i not in skipped and _unionable(segment):
                    waves.setdefault(union_key(segment.engine), []).append(i)
            for wave in waves.values():
                segments = [snapshot[i][0] for i in wave]
                results = self._union_wave(
                    segments, queries, k, candidate_size, spec, stoppers
                )
                with self._lock:
                    for i in wave:
                        self.error_counts[i] = 0
                answers.update(zip(wave, results))

        def run_segment(segment):
            executor = BatchExecutor(segment, spec)
            seg_stoppers = stoppers
            if seg_stoppers is not None:
                engine = getattr(segment, "engine", segment)
                if getattr(engine, "disk_graph", None) is None:
                    seg_stoppers = None
            return executor.search_batch(
                queries, k, candidate_size, stoppers=seg_stoppers
            )

        failed = self._run_each(
            snapshot,
            [
                i for i in range(len(snapshot))
                if i not in skipped and i not in answers
            ],
            run_segment, answers,
        )
        return snapshot, answers, failed, skipped

    @staticmethod
    def _union_wave(segments, queries, k, candidate_size, spec, stoppers):
        """One lockstep wave over ``segments``; ``results[g][q]``."""
        n = len(queries)
        rows = None
        if stoppers is not None:
            rows = []
            for segment in segments:
                for stopper in stoppers:
                    clone = copy.copy(stopper)
                    segment._bind_costs(clone)
                    rows.append(clone)
        engines = [segment.engine for segment in segments]
        with amortized(
            [base_disk_graph(e.disk_graph) for e in engines], spec.gc_pause
        ):
            results = search_segments(
                engines, queries, k, candidate_size, stoppers=rows
            )
        for j, stopper in enumerate(stoppers or ()):
            if any(
                getattr(rows[g * n + j], "fired", False)
                for g in range(len(segments))
            ):
                stopper.fired = True
        return results

    def range_search(self, query: np.ndarray, radius: float) -> CoordinatedResult:
        """RS across the healthy segments; the union is exact per-segment."""
        ids: list[int] = []
        dists: list[float] = []
        total = QueryStats()
        latencies: list[float] = []
        degraded = False
        snapshot, skipped = self._snapshot()
        answers: dict[int, object] = {}
        failed = self._run_each(
            snapshot,
            [i for i in range(len(snapshot)) if i not in skipped],
            lambda segment: segment.range_search(query, radius), answers,
        )
        for i in sorted(answers):
            segment, offset = snapshot[i]
            result = answers[i]
            total.merge(result.stats)
            latencies.append(segment.latency_us(result))
            degraded |= bool(getattr(result, "degraded", False))
            ids.extend(int(v) + offset for v in result.ids)
            dists.extend(float(d) for d in result.dists)
        order = np.argsort(dists, kind="stable") if dists else np.empty(0, int)
        return CoordinatedResult(
            ids=np.asarray(ids, dtype=np.int64)[order],
            dists=np.asarray(dists, dtype=np.float64)[order],
            stats=total,
            per_segment_latency_us=latencies,
            degraded=degraded or bool(failed) or bool(skipped),
            failed_segments=failed,
            quarantined_segments=skipped,
        )
