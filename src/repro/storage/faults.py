"""Deterministic fault injection for the simulated block device.

The paper's setting is a production vector database whose disk is both the
bottleneck *and* the failure domain, yet a bare
:class:`~repro.storage.device.BlockDevice` is perfectly reliable.  Real NVMe
deployments see transient read errors, permanent bad blocks, silent bit-rot,
and heavy-tailed latency spikes; this module injects all four from a seeded
RNG so any benchmark can run under reproducible chaos.

Design rules:

- **Determinism.**  All fault decisions come from ``random.Random`` streams
  derived from :attr:`FaultSpec.seed`.  Same seed + same access sequence →
  same faults, same results, same stats.
- **Honest accounting.**  A failed read still charges the device counters —
  the round-trip happened, it just returned garbage or an error.  Injected
  latency is expressed in simulated microseconds derived from the device's
  :class:`~repro.storage.device.DiskSpec` and is collected by the engine's
  resilience layer into :class:`~repro.engine.cost.FaultStats`.
- **Zero-cost when off.**  A :class:`FaultInjector` with all rates at zero is
  byte-identical and counter-identical to the bare device, and the default
  :class:`FaultSpec` never wraps the device at all.
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass
from typing import Sequence

from .device import BlockDevice, IOCounters

#: fault kinds reported by :meth:`FaultInjector.read_blocks` and
#: :meth:`DiskGraph.read_counted <repro.storage.disk_graph.DiskGraph.read_counted>`
KIND_TRANSIENT = "transient"
KIND_BAD_BLOCK = "bad_block"
KIND_CHECKSUM = "checksum"


class FaultError(Exception):
    """Base class of every injected-fault exception."""


class ReadFaultError(FaultError):
    """One or more blocks of a read failed.

    Attributes:
        failed: ``{block_id: kind}`` for the blocks whose read errored
            (``kind`` is :data:`KIND_TRANSIENT` or :data:`KIND_BAD_BLOCK`).
        payloads: Payloads of the blocks in the same round-trip that *did*
            succeed, so a resilient caller only retries the failures.
    """

    def __init__(self, failed: dict[int, str], payloads: dict[int, bytes]):
        self.failed = dict(failed)
        self.payloads = dict(payloads)
        super().__init__(
            f"read failed for {len(self.failed)} block(s): "
            + ", ".join(f"{bid}({kind})" for bid, kind in sorted(self.failed.items()))
        )


class ChecksumError(FaultError):
    """A block's payload does not match its stored CRC32 checksum."""

    def __init__(self, block_id: int):
        self.block_id = block_id
        super().__init__(f"checksum mismatch on block {block_id}")


@dataclass(frozen=True)
class FaultSpec:
    """Fault model of the simulated disk (all rates default to zero = off).

    Attributes:
        seed: Seeds every fault decision; identical seeds reproduce identical
            fault schedules.
        transient_error_rate: Per-block-read probability of a retryable read
            error (media retry / link CRC error).
        bad_block_rate: Fraction of blocks that are permanently unreadable,
            chosen once at injector construction.
        corruption_rate: Per-block-read probability of a silent single-bit
            flip in the returned payload (bit-rot; only *detected* when the
            disk graph verifies checksums).
        latency_spike_rate: Per-round-trip probability of a heavy-tailed
            latency spike.
        latency_spike_alpha: Pareto shape of the spike multiplier; lower is
            heavier-tailed.
        latency_spike_scale: Scale of the spike — extra simulated time is
            ``scale * paretovariate(alpha)`` times the round-trip's base cost.
    """

    seed: int = 0
    transient_error_rate: float = 0.0
    bad_block_rate: float = 0.0
    corruption_rate: float = 0.0
    latency_spike_rate: float = 0.0
    latency_spike_alpha: float = 1.5
    latency_spike_scale: float = 4.0

    def __post_init__(self) -> None:
        for name in ("transient_error_rate", "bad_block_rate",
                     "corruption_rate", "latency_spike_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        if self.latency_spike_alpha <= 0:
            raise ValueError("latency_spike_alpha must be positive")
        if self.latency_spike_scale < 0:
            raise ValueError("latency_spike_scale must be non-negative")

    @property
    def enabled(self) -> bool:
        """Whether any fault can ever fire under this spec."""
        return (
            self.transient_error_rate > 0.0
            or self.bad_block_rate > 0.0
            or self.corruption_rate > 0.0
            or self.latency_spike_rate > 0.0
        )


class FaultInjector:
    """A :class:`BlockDevice` wrapper that injects faults on the read path.

    Exposes the same surface as the wrapped device (counters included, so the
    engines' counter-delta accounting is unchanged) and adds:

    - :meth:`read_blocks` raising :class:`ReadFaultError` carrying *which*
      blocks failed plus the payloads that succeeded in the same round-trip;
    - silent payload corruption (single bit flip) at ``corruption_rate``;
    - :meth:`take_injected_latency_us` exposing the extra simulated time of
      the calling thread's most recent read, for the resilience layer to
      charge;
    - :meth:`hedge_read`, a duplicate read used by hedging that charges I/O
      and draws its own spike but never fails.

    Writes pass through unmodified — the fault model targets the serving
    path, matching the read-mostly segment workload of the paper.

    Safe to share between threads: the RNG draws and injection totals are
    taken under one lock and each thread's pending spike is its own — but
    the schedule still follows the global read order.
    """

    def __init__(self, device: BlockDevice, fault_spec: FaultSpec) -> None:
        self.inner = device
        self.fault_spec = fault_spec
        self._rng = random.Random(fault_spec.seed)
        # Permanent bad blocks are a property of the media, fixed up front.
        picker = random.Random(fault_spec.seed ^ 0x5EEDBAD)
        self.bad_blocks: frozenset[int] = frozenset(
            bid for bid in range(device.num_blocks)
            if picker.random() < fault_spec.bad_block_rate
        )
        self._lock = threading.Lock()
        self._pending = threading.local()
        # Injection totals (diagnostics; per-query charging lives in stats).
        self.errors_injected = 0
        self.corruptions_injected = 0
        self.spikes_injected = 0

    # -- delegated device surface -----------------------------------------

    @property
    def block_bytes(self) -> int:
        return self.inner.block_bytes

    @property
    def num_blocks(self) -> int:
        return self.inner.num_blocks

    @property
    def spec(self):
        return self.inner.spec

    @property
    def counters(self) -> IOCounters:
        return self.inner.counters

    @property
    def path(self) -> str | None:
        return self.inner.path

    @property
    def disk_bytes(self) -> int:
        return self.inner.disk_bytes

    def write_block(self, block_id: int, data: bytes) -> None:
        self.inner.write_block(block_id, data)

    def reset_counters(self) -> None:
        self.inner.reset_counters()

    def close(self) -> None:
        self.inner.close()

    def __enter__(self) -> "FaultInjector":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _fetch(self, block_id: int) -> bytes:
        # Uncounted analysis reads bypass fault injection on purpose.
        return self.inner._fetch(block_id)

    # -- fault machinery ----------------------------------------------------

    @property
    def _pending_extra_us(self) -> float:
        """The calling thread's injected latency not yet taken."""
        return getattr(self._pending, "us", 0.0)

    @_pending_extra_us.setter
    def _pending_extra_us(self, value: float) -> None:
        self._pending.us = value

    def _corrupt(self, payload: bytes) -> bytes:
        """Flip one RNG-chosen bit of the payload (silent corruption)."""
        flipped = bytearray(payload)
        bit = self._rng.randrange(max(len(flipped), 1) * 8)
        flipped[bit // 8] ^= 1 << (bit % 8)
        self.corruptions_injected += 1
        return bytes(flipped)

    def _roll_spike(self, num_blocks: int, *, sequential: bool = False) -> float:
        """Draw this round-trip's latency spike (0.0 when none fires)."""
        spec = self.fault_spec
        if spec.latency_spike_rate <= 0.0:
            return 0.0
        if self._rng.random() >= spec.latency_spike_rate:
            return 0.0
        base = (
            self.spec.sequential_read_us(num_blocks)
            if sequential else self.spec.random_read_us(num_blocks)
        )
        multiplier = spec.latency_spike_scale * self._rng.paretovariate(
            spec.latency_spike_alpha
        )
        self.spikes_injected += 1
        return base * multiplier

    def _inject_one(self, block_id: int, payload: bytes) -> tuple[str | None, bytes]:
        """Fault decision for one block read: ``(fault_kind, payload)``."""
        spec = self.fault_spec
        if block_id in self.bad_blocks:
            self.errors_injected += 1
            return KIND_BAD_BLOCK, b""
        if spec.transient_error_rate > 0.0 and (
            self._rng.random() < spec.transient_error_rate
        ):
            self.errors_injected += 1
            return KIND_TRANSIENT, b""
        if spec.corruption_rate > 0.0 and (
            self._rng.random() < spec.corruption_rate
        ):
            return None, self._corrupt(payload)
        return None, payload

    def take_injected_latency_us(self) -> float:
        """Pop the extra simulated time injected since the last call."""
        extra, self._pending_extra_us = self._pending_extra_us, 0.0
        return extra

    # -- counted reads -------------------------------------------------------

    def read_block(self, block_id: int) -> bytes:
        return self._inject([block_id], [self.inner.read_block(block_id)])[0]

    def read_blocks(self, block_ids: Sequence[int]) -> list[bytes]:
        """Batched read; raises :class:`ReadFaultError` if any block fails.

        Counters are charged for the whole batch first — the I/O was issued
        whether or not the media answered correctly — and the exception
        carries the payloads that did succeed so callers retry only the rest.
        """
        ids = list(block_ids)
        return self._inject(ids, self.inner.read_blocks(ids))

    def read_sequential(self, first_block: int, num_blocks: int) -> list[bytes]:
        payloads = self.inner.read_sequential(first_block, num_blocks)
        ids = range(first_block, first_block + num_blocks)
        return self._inject(ids, payloads, sequential=True)

    def _inject(self, ids, payloads, *, sequential=False) -> list[bytes]:
        """One round trip's spike and per-block faults, in one locked step."""
        out: list[bytes] = []
        succeeded: dict[int, bytes] = {}
        failed: dict[int, str] = {}
        with self._lock:
            self._pending_extra_us += self._roll_spike(
                len(ids), sequential=sequential
            )
            for bid, payload in zip(ids, payloads):
                kind, payload = self._inject_one(bid, payload)
                if kind is None:
                    succeeded[bid] = payload
                    out.append(payload)
                else:
                    failed[bid] = kind
        if failed:
            raise ReadFaultError(failed, succeeded)
        return out

    def hedge_read(self, block_ids: Sequence[int]) -> float:
        """Duplicate read issued by hedging; returns its own spike time.

        The data already arrived through the primary read, so this only
        charges the device counters for the duplicate round-trip and draws an
        independent latency sample — it never raises.
        """
        ids = list(block_ids)
        if not ids:
            return 0.0
        self.inner.read_blocks(ids)
        with self._lock:
            return self._roll_spike(len(ids))


class SimulatedCrash(FaultError):
    """The saving process "dies" at an injected point.

    Raised by :class:`CrashInjector` to model a crash mid-save: no cleanup
    code runs past it (``abort()`` handlers deliberately re-raise it), so
    whatever debris the commit protocol left at that instant is exactly what
    a recovering process finds on disk.
    """


@dataclass(frozen=True)
class WriteFaultSpec:
    """Where and how a save dies (the write-path analogue of FaultSpec).

    Attributes:
        crash_op: Index into the save's operation sequence (as recorded by a
            disarmed :class:`CrashInjector`) at which the fault fires; ``None``
            records ops without ever crashing.
        mode: ``"crash"`` dies immediately *before* the target op executes;
            ``"torn"`` (write ops only) persists a prefix of the payload and
            then dies; ``"lost_durability"`` (fsync ops only) silently skips
            the fsync, lets the commit finish, then drops the unsynced bytes —
            the classic missed-fsync-plus-power-loss, detectable only through
            manifest digests.
        torn_fraction: Fraction of the payload that reaches disk in ``torn``
            mode (the exact byte offset is drawn deterministically from
            ``seed`` within that prefix bound).
        seed: Seeds the torn-offset draw; same spec → same torn bytes.
    """

    crash_op: int | None = None
    mode: str = "crash"
    torn_fraction: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.mode not in ("crash", "torn", "lost_durability"):
            raise ValueError(f"unknown write-fault mode {self.mode!r}")
        if not 0.0 <= self.torn_fraction <= 1.0:
            raise ValueError("torn_fraction must be in [0, 1]")


class CrashInjector:
    """Deterministic write-path fault injection for atomic saves.

    The persistence commit protocol reports every filesystem mutation —
    file writes, fsyncs, the generation rename, the manifest replace — as a
    labelled operation.  A disarmed injector (``spec=None`` or
    ``crash_op=None``) just records the sequence in :attr:`ops`; an armed one
    kills the save at exactly one operation, in one of three ways (see
    :class:`WriteFaultSpec`).  Enumerating ``range(len(ops))`` therefore
    crashes a save at *every* boundary, which is what the crash-consistency
    harness does.
    """

    def __init__(self, spec: WriteFaultSpec | None = None) -> None:
        self.spec = spec
        self.ops: list[str] = []
        self.crashed = False
        self._rng = random.Random(spec.seed if spec else 0)
        self._torn_pending: str | None = None
        self._unsynced: list[str] = []

    # -- enumeration helpers ----------------------------------------------

    def op_indices(self, prefix: str) -> list[int]:
        """Indices of recorded ops whose label starts with ``prefix``.

        The lifecycle sweep uses this to target one boundary family at a
        time (``"write:wal"``, ``"truncate:"``, ``"prune:"``, ...).
        """
        return [i for i, op in enumerate(self.ops) if op.startswith(prefix)]

    def write_op_indices(self) -> list[int]:
        """Indices of ops eligible for ``torn`` mode."""
        return self.op_indices("write:")

    def fsync_op_indices(self) -> list[int]:
        """Indices of ops eligible for ``lost_durability`` mode."""
        return self.op_indices("fsync:")

    # -- hooks called by the commit protocol ------------------------------

    def _armed_at(self, index: int, mode: str) -> bool:
        return (
            self.spec is not None
            and self.spec.crash_op == index
            and self.spec.mode == mode
        )

    def checkpoint(self, label: str) -> None:
        """Record one operation boundary; dies here in ``crash`` mode."""
        self.ops.append(label)
        if self._armed_at(len(self.ops) - 1, "crash"):
            self.crashed = True
            raise SimulatedCrash(
                f"crash before op {len(self.ops) - 1} ({label})"
            )

    def filter_write(self, name: str, data: bytes) -> bytes:
        """Possibly shorten the payload about to be written (torn write)."""
        if self._armed_at(len(self.ops) - 1, "torn"):
            bound = int(len(data) * self.spec.torn_fraction)
            keep = self._rng.randint(0, bound) if bound > 0 else 0
            self._torn_pending = name
            return data[:keep]
        return data

    def after_write(self, name: str) -> None:
        """A torn write is a crash mid-write: die once the prefix landed."""
        if self._torn_pending == name:
            self._torn_pending = None
            self.crashed = True
            raise SimulatedCrash(f"torn write of {name}")

    def skip_fsync(self, name: str) -> bool:
        """``lost_durability`` mode: pretend to fsync, remember the debt."""
        if self._armed_at(len(self.ops) - 1, "lost_durability"):
            self._unsynced.append(name)
            return True
        return False

    def drop_unsynced(self, gen_dir, root) -> None:
        """Model the power loss that makes a missed fsync matter.

        Called after the pointer commit: every file whose fsync was skipped
        loses the second half of its bytes (page cache that never reached
        the media), then the process dies.  The directory now holds a
        *committed* generation whose digests do not match — the case only
        load-time verification and fsck can catch.
        """
        if not self._unsynced:
            return
        from pathlib import Path

        for name in self._unsynced:
            path = (
                Path(root) / name if name == "MANIFEST.json"
                else Path(gen_dir) / name
            )
            if path.is_file():
                data = path.read_bytes()
                path.write_bytes(data[: len(data) // 2])
        self._unsynced = []
        self.crashed = True
        raise SimulatedCrash("power loss dropped unsynced writes")


def base_disk_graph(disk_graph):
    """Unwrap cache layers down to the physical DiskGraph."""
    while hasattr(disk_graph, "inner"):
        disk_graph = disk_graph.inner
    return disk_graph


def injects_faults(disk_graph) -> bool:
    """Whether an armed :class:`FaultInjector` (one RNG over the global
    read order) sits under ``disk_graph``."""
    device = getattr(base_disk_graph(disk_graph), "device", None)
    return isinstance(device, FaultInjector) and device.fault_spec.enabled


def ensure_fault_injection(disk_graph, fault_spec: FaultSpec) -> FaultInjector | None:
    """Idempotently wrap a disk graph's device with a :class:`FaultInjector`.

    Accepts a bare :class:`~repro.storage.disk_graph.DiskGraph` or any
    wrapper chain exposing ``inner`` (e.g. ``CachedDiskGraph``).  Also turns
    on checksum verification so injected corruption is detected rather than
    silently poisoning distances.  Returns the injector, or ``None`` when the
    spec is disabled.
    """
    if not fault_spec.enabled:
        return None
    dg = base_disk_graph(disk_graph)
    if isinstance(dg.device, FaultInjector):
        if dg.device.fault_spec != fault_spec:
            dg.device = FaultInjector(dg.device.inner, fault_spec)
    else:
        dg.device = FaultInjector(dg.device, fault_spec)
    dg.enable_checksum_verification()
    return dg.device
