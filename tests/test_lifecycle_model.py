"""Model-based crash test of the one durable write path.

``tests/test_crash_consistency.py`` enumerates every announced boundary of
*one* scripted workload.  This machine explores the orders that script never
takes: hypothesis interleaves insert / delete / seal / compact_once, any of
them optionally killed at one of the ops a dry run announces (crash, torn
write, or skipped fsync + power loss), and checks the lifecycle against a
brute-force ``{global_id: row_bytes}`` mirror:

- acked ⊆ recovered ⊆ acked ∪ in-flight, and the in-flight operation is
  atomic — the recovered state is exactly the pre-op or the post-op mirror;
- bytes whose fsync was skipped never surface;
- no tombstoned or duplicate id is ever returned by a search or held twice;
- ``fsck`` exits 0 or 1, never 2, and a second pass finds nothing to do.

``REPRO_CRASH_SEED`` seeds both the explored schedules and the torn-write
offsets, so the CI seed matrix varies them; a given seed is deterministic.
"""

from __future__ import annotations

import functools
import shutil
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, seed, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro.core import SegmentLifecycle
from repro.storage import CrashInjector, SimulatedCrash, WriteFaultSpec, fsck

from .conftest import example_budget
from .test_crash_consistency import (
    _LC_DIM,
    _LC_SPEC,
    CRASH_SEED,
    _lc_live_vectors,
    _lc_rebuild,
)

K = 5
#: which announced ops each fault mode may target (see WriteFaultSpec.mode)
_MODE_PREFIX = {"crash": "", "torn": "write:", "lost_durability": "fsync:"}

_FAULT = st.none() | st.tuples(
    st.sampled_from(sorted(_MODE_PREFIX)), st.integers(0, 2**16)
)
_PICK = st.integers(0, 2**16)


def _rows(n: int, row_seed: int) -> np.ndarray:
    rng = np.random.default_rng(row_seed)
    return rng.normal(size=(n, _LC_DIM)).astype(np.float32)


@functools.cache
def _announced_ops() -> dict[str, tuple[str, ...]]:
    """Op labels each kind of operation announces, recorded by a dry run."""
    ops: dict[str, tuple[str, ...]] = {}
    with tempfile.TemporaryDirectory() as tmp:
        recorder = CrashInjector()
        lc = SegmentLifecycle.create(
            Path(tmp) / "lc", _lc_rebuild, dim=_LC_DIM, spec=_LC_SPEC,
            injector=recorder,
        )

        def record(kind, run):
            start = len(recorder.ops)
            run()
            ops[kind] = tuple(recorder.ops[start:])

        try:
            record("insert", lambda: lc.insert(_rows(8, 1)))
            record("seal", lc.seal)
            lc.insert(_rows(8, 2))
            record("delete", lambda: lc.delete([0, 9]))
            lc.seal()
            record("compact", lc.compact_once)
        finally:
            lc.close()
    return ops


class LifecycleMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.tmp = Path(tempfile.mkdtemp(prefix="lc-model-"))
        self.root = self.tmp / "lc"
        self.lc = SegmentLifecycle.create(
            self.root, _lc_rebuild, dim=_LC_DIM, spec=_LC_SPEC
        )
        self.mirror: dict[int, bytes] = {}
        self.dead: set[int] = set()

    def teardown(self) -> None:
        self.lc.close()
        shutil.rmtree(self.tmp, ignore_errors=True)

    # -- one operation, optionally killed mid-flight ------------------------

    def _apply(self, kind, run, after, fault) -> None:
        """Run ``run(lifecycle)``; ``after`` is the mirror once it is acked."""
        before = self.mirror
        if fault is None:
            run(self.lc)
            self._settle(after)
            return
        mode, where = fault
        eligible = [
            i for i, op in enumerate(_announced_ops()[kind])
            if op.startswith(_MODE_PREFIX[mode])
        ]
        spec = WriteFaultSpec(
            crash_op=eligible[where % len(eligible)], mode=mode,
            seed=CRASH_SEED + where,
        )
        self.lc.close()
        doomed = SegmentLifecycle.open(
            self.root, _lc_rebuild, spec=_LC_SPEC,
            injector=CrashInjector(spec),
        )
        try:
            run(doomed)
            acked = True
        except SimulatedCrash:
            acked = False
        finally:
            doomed.close()

        report = fsck(self.root)
        assert report.exit_code in (0, 1), report.to_dict()
        again = fsck(self.root)
        assert again.exit_code == 0, again.to_dict()
        self.lc = SegmentLifecycle.open(self.root, _lc_rebuild, spec=_LC_SPEC)
        recovered = _lc_live_vectors(self.lc)
        if acked:
            assert recovered == after, f"acked {kind} lost ({spec})"
        elif mode == "lost_durability":
            assert recovered == before, f"unsynced {kind} surfaced ({spec})"
        else:
            assert recovered in (before, after), (
                f"{kind} recovered as neither pre- nor post-op state "
                f"({spec}): {sorted(recovered)} vs acked {sorted(before)}"
            )
        self._settle(recovered)

    def _settle(self, mirror: dict[int, bytes]) -> None:
        self.dead |= self.mirror.keys() - mirror.keys()
        self.mirror = mirror

    # -- rules --------------------------------------------------------------

    @rule(n=st.integers(1, 16), row_seed=_PICK, fault=_FAULT)
    def insert(self, n, row_seed, fault):
        rows = _rows(n, row_seed)
        first = self.lc.state_fingerprint()["next_id"]
        after = dict(self.mirror)
        after.update({first + i: rows[i].tobytes() for i in range(n)})
        self._apply("insert", lambda lc: lc.insert(rows), after, fault)

    @precondition(lambda self: self.mirror)
    @rule(picks=st.lists(_PICK, min_size=1, max_size=4), fault=_FAULT)
    def delete(self, picks, fault):
        live = sorted(self.mirror)
        victims = sorted({live[p % len(live)] for p in picks})
        after = {g: r for g, r in self.mirror.items() if g not in victims}
        self._apply("delete", lambda lc: lc.delete(victims), after, fault)

    @precondition(lambda self: self.lc.pending_rows)
    @rule(fault=_FAULT)
    def seal(self, fault):
        self._apply("seal", lambda lc: lc.seal(), self.mirror, fault)

    @precondition(lambda self: self.lc.compaction_candidates())
    @rule(fault=_FAULT)
    def compact(self, fault):
        self._apply(
            "compact", lambda lc: lc.compact_once(), self.mirror, fault
        )

    @rule(pick=_PICK)
    def search(self, pick):
        live = sorted(self.mirror)
        query = (
            np.frombuffer(self.mirror[live[pick % len(live)]], np.float32)
            if live else np.zeros(_LC_DIM, dtype=np.float32)
        )
        ids = self.lc.search(query, k=K).ids.tolist()
        assert len(set(ids)) == len(ids), f"duplicate id in {ids}"
        assert not self.dead.intersection(ids), f"tombstoned id in {ids}"
        assert set(ids) <= self.mirror.keys()
        assert len(ids) == min(K, len(live)), "live rows cannot fill k"

    @invariant()
    def lifecycle_matches_mirror(self):
        fp = self.lc.state_fingerprint()
        held = [g for _, ids, _ in fp["segments"] for g in ids]
        held += [g for g, _ in fp["memtable"]]
        assert len(set(held)) == len(held), "an id is held twice"
        assert _lc_live_vectors(self.lc) == self.mirror
        assert self.lc.live_ids() == self.mirror.keys()


def test_lifecycle_model():
    run_state_machine_as_test(
        seed(CRASH_SEED)(LifecycleMachine),
        settings=settings(
            max_examples=example_budget(30), stateful_step_count=20,
            deadline=None, suppress_health_check=list(HealthCheck),
        ),
    )
